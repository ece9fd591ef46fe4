"""Seeded trial tallies, Wilson score intervals and closed-form
acceptance rates.

Every Monte Carlo estimate in the package runs through `tally`: trial i
of a batch sees child_seed(seed, i), so counts depend only on the seed
and the trial count, never on how trials are split across processes.

The closed forms below are what experiment output reports in its theory
column. None of them is a tuned constant: each is derived in the test
suite by exhaustively enumerating measurement distributions at small n
and verifying every outcome, then checked here symbolically.

Per-instance honest acceptance: challenge 0 always verifies (both claw
branches are preimages), challenge 1 verifies unless the Hadamard outcome
has d = 0, which carries weight 2^-n. Averaging the challenge bit gives
1 - 2^-(n+1) per instance.
"""

import math
import os
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Hashable

from .errors import check_int
from .rng import child_seed

Z95 = 1.959963984540054  # two-sided 95% normal quantile


def wilson_interval(successes: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside [0, {trials}]")
    p = successes / trials
    z2 = z * z
    denom = 1 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
    # at the endpoints center-half/center+half are exactly 0/1 analytically;
    # avoid the float cancellation fuzz
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def _tally_chunk(one_trial, seed: int, start: int, stop: int) -> Counter:
    return Counter(one_trial(child_seed(seed, i)) for i in range(start, stop))


def tally(one_trial: Callable[[int], Hashable], trials: int, seed: int,
          workers: int = 1) -> Counter:
    """Count the outcomes of one_trial(child_seed(seed, i)) for i < trials.

    Trials split into one contiguous chunk per process, and there are at
    most min(workers, cores) processes.  With more than one process,
    one_trial must pickle: a module-level function, or a
    functools.partial of one over picklable arguments.  trials and
    workers must each be an int >= 1 and seed an int in [0, 2^64), else
    ConfigInvalid.
    """
    check_int(trials, "trials", 1)
    check_int(workers, "workers", 1)
    check_int(seed, "seed", 0, 2**64 - 1)
    step = -(-trials // min(workers, os.cpu_count() or 1))
    starts = range(0, trials, step)
    if len(starts) == 1:
        return _tally_chunk(one_trial, seed, 0, trials)
    stops = [min(lo + step, trials) for lo in starts]
    # imported here: loading the pool machinery costs every serial caller
    # (every `import posverif.cli`) about 1 MB of resident memory
    from concurrent.futures import ProcessPoolExecutor
    counts = Counter()
    with ProcessPoolExecutor(max_workers=len(starts)) as pool:
        for part in pool.map(_tally_chunk, repeat(one_trial), repeat(seed),
                             starts, stops):
            counts.update(part)
    return counts


@dataclass(frozen=True)
class Estimate:
    """Success rate of a tallied batch with its Wilson 95 percent interval;
    reasons counts every other outcome."""

    successes: int
    trials: int
    rate: float
    ci_low: float
    ci_high: float
    reasons: dict

    @classmethod
    def of(cls, counts: Counter, success: Hashable) -> "Estimate":
        trials = sum(counts.values())
        successes = counts[success]
        low, high = wilson_interval(successes, trials)
        reasons = {o: c for o, c in counts.items() if o != success}
        return cls(successes, trials, successes / trials, low, high, reasons)


def reduction_slack(p_hat: float, p_trials: int, tau_hat: float, tau_trials: int) -> float:
    """Combined standard error of p_hat - (2 tau_hat - 1)."""
    p_se = math.sqrt(max(p_hat * (1 - p_hat), 0.0) / p_trials)
    tau_se = math.sqrt(max(tau_hat * (1 - tau_hat), 0.0) / tau_trials)
    return math.sqrt(p_se ** 2 + (2 * tau_se) ** 2)


def honest_completeness(n: int, k: int = 1) -> float:
    """Honest acceptance of k independent instances: (1 - 2^-(n+1))^k."""
    return (1.0 - 2.0 ** -(n + 1)) ** k


def guessing_rate(n: int, k: int) -> float:
    """Two-site challenge-guessing attack: guess k bits, then play honestly."""
    return 2.0**-k * honest_completeness(n, k)


def teleport_rate(n: int, k: int) -> float:
    """Teleportation attack wins exactly as often as the honest prover."""
    return honest_completeness(n, k)


def uniform_equation_rate(n: int) -> float:
    """A uniform (c, d) guess verifies with probability (1 - 2^-n)/2."""
    return 0.5 * (1.0 - 2.0**-n)


def measure_and_guess_rate(n: int) -> float:
    """Both solvers replay a shared early measurement and a shared guess.

    Challenge 0 always verifies; challenge 1 wins iff the one shared
    uniform equation guess verifies.
    """
    return 0.5 + 0.5 * uniform_equation_rate(n)


def honest_to_b_rate(n: int) -> float:
    """One honest solver, one independent uniform guesser: (1 + 4^-n)/4.

    Challenge 0: the guesser hits one of the two claw branches with
    probability 2^-n. Challenge 1: honest d != 0 and an independent
    uniform equation guess must both verify.
    """
    return 0.5 * (2.0**-n + (1.0 - 2.0**-n) * uniform_equation_rate(n))


def classical_prover_rate(n: int, k: int) -> float:
    """Classical stand-in: stored preimages for 0, uniform guesses for 1."""
    return (0.5 + 0.5 * uniform_equation_rate(n)) ** k
