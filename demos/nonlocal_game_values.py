"""
The two-solver game and its reduction
=====================================

Split one puzzle round between two isolated solvers: B answers challenge
0, C answers challenge 1, both from views prepared before the challenge
is drawn. Quantum strategies cap out near 3/4 while the honest single
prover would win with probability near 1; that gap is the soundness
engine. The reduction turns any game strategy into a 2-of-2 solver whose
success rate p' obeys p' >= 2*tau - 1 up to sampling slack.
"""

from posverif.nonlocal_game import (
    estimate_2of2_rate,
    estimate_win_rate,
    make_strategy,
    reduce_to_2of2,
)
from posverif.puzzle import BasePuzzle
from posverif.stats import reduction_slack

n = 8
trials = 4000
puz = BasePuzzle(n)

print(f"game win rates at n = {n}, {trials} trials each")
print("strategy            rate     95% interval        theory")
for name in ("measure_and_guess", "honest_to_B", "brute_force", "always_fail"):
    strategy = make_strategy(name, n)
    est = estimate_win_rate(puz, strategy, trials, seed=500)
    print(f"{name:<18}  {est.rate:.4f}   [{est.ci_low:.4f}, {est.ci_high:.4f}]"
          f"    {strategy.win_rate(n):.4f}")

# the reduction: a strategy winning with rate tau yields a 2-of-2 solver
name = "measure_and_guess"
strategy = make_strategy(name, n)
tau = estimate_win_rate(puz, strategy, trials, seed=501)
p2 = estimate_2of2_rate(puz, reduce_to_2of2(strategy), trials, seed=502)
sigma = reduction_slack(p2.rate, trials, tau.rate, trials)
bound = 2.0 * tau.rate - 1.0 - 5.0 * sigma
print(f"\nreduction for {name}:")
print(f"  tau  = {tau.rate:.4f}  (game win rate)")
print(f"  p'   = {p2.rate:.4f}  (both challenges at once)")
print(f"  p' >= 2*tau - 1 - 5*sigma = {bound:.4f}: {p2.rate >= bound}")
print("\na game value below 1/2 + delta would force p' ~ 0: no classical")
print("splitting of one obligation can serve both challenges at once")
