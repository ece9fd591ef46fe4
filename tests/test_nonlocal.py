"""Non-local game tests.

The strategy win rates are derived here by enumeration before any sampled
estimate uses them: solver-side acceptance weights come from exhaustive
measurement distributions, guesser-side weights from enumerating the whole
answer space, and the stats closed forms must match to float precision.
"""

import pickle
from functools import partial

import pytest

from posverif import puzzle, qsim, stats
from posverif.errors import ConfigInvalid, RegisterViolation
from posverif.nonlocal_game import (
    AlwaysFail,
    BruteForce,
    HonestToB,
    MeasureAndGuess,
    STRATEGIES,
    estimate_2of2_rate,
    estimate_win_rate,
    make_prep,
    make_strategy,
    play_2of2,
    play_nonlocal,
    reduce_to_2of2,
    uniform_answer_guess,
)
from posverif.bits import int_to_bits
from posverif.rng import Rng


def guess_acceptance(n: int, challenge: str, seed: int = 5) -> float:
    """Enumerated acceptance weight of a uniform answer guess."""
    p = puzzle.BasePuzzle(n)
    handle, td = p.keygen(Rng(seed))
    y, _ = p.obligate(handle, td, Rng(seed + 1))
    total = 0
    hits = 0
    for bit in ("0", "1"):
        for vi in range(1 << n):
            v = int_to_bits(vi, n)
            ans = (
                puzzle.Preimage(bit, v) if challenge == "0" else puzzle.Equation(bit, v)
            )
            hits += p.verify(td, y, challenge, ans)
            total += 1
    return hits / total


class TestRateDerivations:
    def test_uniform_guess_rates(self):
        """Challenge-0 guesses hit 2^-n; challenge-1 guesses (1 - 2^-n)/2."""
        for n in (2, 3, 4, 6):
            assert guess_acceptance(n, "0") == pytest.approx(2.0**-n, abs=1e-12)
            assert guess_acceptance(n, "1") == pytest.approx(
                stats.uniform_equation_rate(n), abs=1e-12
            )

    def test_honest_to_b_closed_form(self):
        """tau = (2^-n + (1-2^-n) * (1-2^-n)/2) / 2 = (1 + 4^-n)/4.

        Built from enumerated parts: B is honest (accepts 1 on challenge 0,
        1 - 2^-n on challenge 1, from the puzzle-layer enumeration), C is an
        independent uniform guess with the rates above.
        """
        for n in (2, 4, 8):
            b0, b1 = 1.0, 1.0 - 2.0**-n
            g0, g1 = guess_acceptance(min(n, 6), "0"), guess_acceptance(min(n, 6), "1")
            if n > 6:  # enumeration done at small n; scale by formula shape
                g0, g1 = 2.0**-n, stats.uniform_equation_rate(n)
            tau = 0.5 * (b0 * g0 + b1 * g1)
            assert tau == pytest.approx(stats.honest_to_b_rate(n), abs=1e-12)
            assert tau == pytest.approx(0.25 * (1 + 4.0**-n), abs=1e-12)

    def test_measure_and_guess_closed_form(self):
        """tau = (1 + (1-2^-n)/2) / 2: challenge 0 always wins (a measured
        claw branch is a valid preimage), challenge 1 wins iff the single
        shared uniform equation guess verifies."""
        for n in (2, 4, 8):
            g1 = stats.uniform_equation_rate(n)
            assert 0.5 * (1.0 + g1) == pytest.approx(
                stats.measure_and_guess_rate(n), abs=1e-12
            )


class TestPlay:
    def test_deterministic_per_seed(self):
        strat = MeasureAndGuess(4)
        p = puzzle.BasePuzzle(4)
        a = [play_nonlocal(p, strat, Rng(s)) for s in range(30)]
        b = [play_nonlocal(p, strat, Rng(s)) for s in range(30)]
        assert a == b

    def test_result_fields(self):
        res = play_nonlocal(puzzle.BasePuzzle(4), HonestToB(4), Rng(7))
        assert res.win == (res.accept_b and res.accept_c)
        assert res.challenge in ("0", "1") and len(res.obligation) == 4

    def test_brute_force_always_wins(self):
        p = puzzle.BasePuzzle(5)
        strat = BruteForce(5)
        assert all(play_nonlocal(p, strat, Rng(s)).win for s in range(200))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_brute_force_tape_holds_the_shift(self, n):
        p = puzzle.BasePuzzle(n)
        strat = BruteForce(n)
        for seed in range(8):
            rng = Rng(seed)
            handle, td = p.keygen(rng)
            assert strat.stage_a(handle, None, rng).tape["shift"] == td.s

    def test_brute_force_stage_a_evals_once(self, monkeypatch):
        """The search runs over images("1"), not 2^n bitstring evals:
        stage A's only eval call is the one that publishes y."""
        calls = []
        real_eval = puzzle.PublicHandle.eval

        def counting_eval(handle, b, x):
            calls.append(b)
            return real_eval(handle, b, x)

        monkeypatch.setattr(puzzle.PublicHandle, "eval", counting_eval)
        handle, td = puzzle.BasePuzzle(8).keygen(Rng(3))
        prep = BruteForce(8).stage_a(handle, None, Rng(4))
        assert calls == ["0"]
        assert prep.tape["shift"] == td.s

    def test_always_fail_never_wins(self):
        p = puzzle.BasePuzzle(4)
        strat = AlwaysFail(4)
        results = [play_nonlocal(p, strat, Rng(s)) for s in range(200)]
        assert not any(r.accept_b or r.accept_c for r in results)

    def test_estimate_requires_trials(self):
        with pytest.raises(ConfigInvalid, match="trials must be >= 1, got 0"):
            estimate_win_rate(puzzle.BasePuzzle(4), AlwaysFail(4), 0, 1)

    def test_registry(self):
        assert set(STRATEGIES) == {
            "honest_to_B",
            "measure_and_guess",
            "brute_force",
            "always_fail",
        }
        assert make_strategy("brute_force", 4).n == 4
        with pytest.raises(ConfigInvalid, match="unknown strategy 'nope'"):
            make_strategy("nope", 4)

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    @pytest.mark.parametrize("puzzle_n, strategy_n", [(4, 5), (5, 4)])
    def test_strategy_width_must_match_the_puzzle(self, name, puzzle_n, strategy_n):
        """A strategy of another width would answer with strings that never
        verify; stage A refuses the handle instead of losing every round."""
        puz = puzzle.BasePuzzle(puzzle_n)
        with pytest.raises(ConfigInvalid, match="n="):
            play_nonlocal(puz, make_strategy(name, strategy_n), Rng(1))
        with pytest.raises(ConfigInvalid, match="n="):
            play_2of2(puz, reduce_to_2of2(make_strategy(name, strategy_n)), Rng(1))

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_registry_rates_are_the_closed_forms(self, n):
        expected = {
            "honest_to_B": (stats.honest_to_b_rate(n), stats.uniform_equation_rate(n)),
            "measure_and_guess": (stats.measure_and_guess_rate(n),
                                  stats.uniform_equation_rate(n)),
            "brute_force": (1.0, 1.0),
            "always_fail": (0.0, 0.0),
        }
        strategies = {name: make_strategy(name, n) for name in STRATEGIES}
        rates = {name: (s.win_rate(n), s.reduced_rate(n))
                 for name, s in strategies.items()}
        assert rates == expected


class TestRates:
    def test_measure_and_guess_near_three_quarters(self):
        est = estimate_win_rate(puzzle.BasePuzzle(8), MeasureAndGuess(8), 10_000, 2001)
        assert est.ci_low <= 0.75 <= est.ci_high
        assert est.ci_low <= stats.measure_and_guess_rate(8) <= est.ci_high
        assert est.ci_high <= 0.78  # the ceiling stays visibly below 1

    def test_honest_to_b_near_one_quarter(self):
        est = estimate_win_rate(puzzle.BasePuzzle(8), HonestToB(8), 10_000, 2002)
        assert est.ci_low <= 0.25 <= est.ci_high
        assert est.ci_low <= stats.honest_to_b_rate(8) <= est.ci_high
        assert est.ci_high <= 0.78

    def test_brute_force_rate_one(self):
        est = estimate_win_rate(puzzle.BasePuzzle(6), BruteForce(6), 1_000, 2003)
        assert est.rate == 1.0 and est.ci_high == 1.0 and est.rate > 0.9

    def test_always_fail_rate_zero(self):
        est = estimate_win_rate(puzzle.BasePuzzle(8), AlwaysFail(8), 2_000, 2004)
        assert est.rate == 0.0 and est.ci_low == 0.0
        assert est.ci_high < 3.0 / 2_000 * 2  # Wilson upper stays tiny


class TestReduction:
    def test_reduction_inequality_all_strategies(self):
        """Empirical p' >= 2 tau - 1 - 5 sigma for every built-in strategy."""
        n, trials = 8, 3_000
        p = puzzle.BasePuzzle(n)
        for name, factory in STRATEGIES.items():
            strat = factory(6 if name == "brute_force" else n)
            puz = puzzle.BasePuzzle(strat.n)
            tau = estimate_win_rate(puz, strat, trials, 3001)
            red = estimate_2of2_rate(puz, reduce_to_2of2(strat), trials, 3002)
            slack = stats.reduction_slack(red.rate, trials, tau.rate, trials)
            assert red.rate >= 2 * tau.rate - 1 - 5 * slack, name

    def test_reduced_solver_pickles(self):
        """The 2-of-2 solver survives pickling with its name and plays the
        same round per seed, so worker processes can run it."""
        p = puzzle.BasePuzzle(6)
        for name, factory in STRATEGIES.items():
            solver = reduce_to_2of2(factory(6))
            copy = pickle.loads(pickle.dumps(solver))
            assert copy.name == solver.name == f"reduced_{name}"
            assert ([play_2of2(p, copy, Rng(s)) for s in range(30)]
                    == [play_2of2(p, solver, Rng(s)) for s in range(30)])

    def test_workers_do_not_change_estimates(self, pool_sizes):
        """Two worker processes give the serial game and 2-of-2 Estimates."""
        p = puzzle.BasePuzzle(6)
        strat = HonestToB(6)
        serial = (estimate_win_rate(p, strat, 60, 3004),
                  estimate_2of2_rate(p, reduce_to_2of2(strat), 60, 3005))
        pooled = (estimate_win_rate(p, strat, 60, 3004, workers=2),
                  estimate_2of2_rate(p, reduce_to_2of2(strat), 60, 3005,
                                     workers=2))
        assert pool_sizes == [2, 2]
        assert pooled == serial

    def test_reduced_measure_and_guess_rate(self):
        """The reduced solver's rate hits (1-2^-n)/2: the challenge-0 replay
        always verifies, so success is exactly the equation guess."""
        n = 8
        est = estimate_2of2_rate(
            puzzle.BasePuzzle(n), reduce_to_2of2(MeasureAndGuess(n)), 10_000, 3003
        )
        expect = stats.uniform_equation_rate(n)
        assert est.ci_low <= expect <= est.ci_high

    @staticmethod
    def _honest_then(equation):
        """2-of-2 solver: honest challenge-0 answer, fixed equation."""
        def solver(handle, obligate, rng):
            y, state = obligate(rng)
            bit, state = qsim.measure(state, "bit", rng)
            v, _ = qsim.measure(state, "preimage", rng)
            return y, puzzle.Preimage(bit, v), equation

        return solver

    def test_d_zero_solver_always_loses(self):
        solver = self._honest_then(puzzle.Equation("0", "0000"))
        assert not any(play_2of2(puzzle.BasePuzzle(4), solver, Rng(s)) for s in range(100))

    def test_wrong_width_solver_loses(self):
        """Equations of the wrong width or with a bit outside {0,1}, and
        answers of the wrong kind, lose the round instead of ending it in
        an exception."""
        for equation in (puzzle.Equation("1", "101"),
                         puzzle.Equation("2", "111111"),
                         puzzle.Equation("1", "11x111"),
                         puzzle.Preimage("0", "x" * 6),
                         None):
            solver = self._honest_then(equation)
            assert not any(play_2of2(puzzle.BasePuzzle(6), solver, Rng(s))
                           for s in range(20)), equation

    def test_bad_branch_bit_solver_loses(self):
        """A true preimage under a branch bit of "2" loses the round."""
        def solver(handle, obligate, rng):
            y, state = obligate(rng)
            _, state = qsim.measure(state, "bit", rng)
            v, _ = qsim.measure(state, "preimage", rng)
            return y, puzzle.Preimage("2", v), puzzle.Equation("0", "1" * handle.n)

        assert not any(play_2of2(puzzle.BasePuzzle(6), solver, Rng(s)) for s in range(20))


class BPeeksAtC:
    """Canary: B touches C's register; the harness must reject it."""

    name = "b_peeks_at_c"

    def stage_a(self, handle, obligate, rng):
        state = qsim.make_epr_pairs(2)
        return make_prep("0" * handle.n, qsim.SharedState(state), ("R",), ("S",))

    def answer_b(self, view, tape, challenge, rng):
        view.measure("S", rng)  # out of scope
        return puzzle.Preimage("0", "0" * 4)

    def answer_c(self, view, tape, challenge, rng):
        return puzzle.Preimage("0", "0" * 4)


class Recording:
    """Wraps a strategy and keeps every argument its three methods get."""

    def __init__(self, inner):
        self.inner, self.name, self.seen = inner, inner.name, []

    def stage_a(self, *args):
        self.seen.extend(args)
        return self.inner.stage_a(*args)

    def answer_b(self, *args):
        self.seen.extend(args)
        return self.inner.answer_b(*args)

    def answer_c(self, *args):
        self.seen.extend(args)
        return self.inner.answer_c(*args)


def _holds_trapdoor(value) -> bool:
    """Whether value is a Trapdoor or a partial that hands one back."""
    if isinstance(value, partial):
        return any(map(_holds_trapdoor, value.args + tuple(value.keywords.values())))
    return isinstance(value, puzzle.Trapdoor)


class TestIsolation:
    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_no_player_receives_a_trapdoor(self, name):
        """Agent A holds only the public key: no argument that reaches a
        strategy's stage A or its solvers, in the game or through the
        2-of-2 reduction, nor one that reaches the reduced solver, is the
        trapdoor. Stage A obligates through the referee's service."""
        game = Recording(make_strategy(name, 4))
        reduced = Recording(make_strategy(name, 4))
        solver_args = []

        def solver(*args):
            solver_args.extend(args)
            return reduce_to_2of2(reduced)(*args)

        for seed in range(6):
            play_nonlocal(puzzle.BasePuzzle(4), game, Rng(seed))
            play_2of2(puzzle.BasePuzzle(4), solver, Rng(seed))
        for seen in (game.seen, reduced.seen, solver_args):
            assert seen and not any(map(_holds_trapdoor, seen))

    def test_scope_violation_surfaces(self):
        with pytest.raises(RegisterViolation):
            play_nonlocal(puzzle.BasePuzzle(4), BPeeksAtC(), Rng(1))

    def test_make_prep_grants_each_register_once(self):
        """No cloning: B and C cannot both be handed the bit register."""
        cell = qsim.SharedState(qsim.prepare_claw_state("01", "10"))
        with pytest.raises(RegisterViolation):
            make_prep("00", cell, ("bit", "preimage"), ("bit",))

    def test_no_signaling_under_unitary(self):
        """C applying H on its half leaves B's marginal exactly unchanged."""
        cell = qsim.SharedState(qsim.make_epr_pairs(3))
        before = qsim.measurement_distribution(cell.state, "R")
        qsim.ScopedState(cell, {"S"}).apply_hadamard("S")
        after = qsim.measurement_distribution(cell.state, "R")
        assert after == pytest.approx(before, abs=1e-12)

    def test_no_signaling_under_measurement(self):
        """Averaging B's marginal over C's outcomes reproduces the original
        marginal exactly (enumerated with collapse, no sampling)."""
        state = qsim.make_epr_pairs(2)
        state = qsim.apply_hadamard(state, "S")
        before = qsim.measurement_distribution(state, "R")
        mixed = {}
        for out, p in qsim.measurement_distribution(state, "S").items():
            _, conditional = qsim.collapse(state, "S", out)
            for r_out, rp in qsim.measurement_distribution(conditional, "R").items():
                mixed[r_out] = mixed.get(r_out, 0.0) + p * rp
        assert mixed == pytest.approx(before, abs=1e-12)

    def test_guess_helper_covers_space(self):
        outs = {
            (type(a).__name__, a == uniform_answer_guess(3, "0", Rng(s)))
            for s, a in ((s, uniform_answer_guess(3, "0", Rng(s))) for s in range(64))
        }
        kinds = {k for k, _ in outs}
        assert kinds == {"Preimage"}
        eqs = {uniform_answer_guess(3, "1", Rng(s)) for s in range(200)}
        assert all(isinstance(a, puzzle.Equation) for a in eqs)
        assert any(a.d == "000" for a in eqs)  # d = 0 included in the space


class DensePuzzle(puzzle.BasePuzzle):
    """The base puzzle with its claw states handed out as dense vectors:
    the reference the closed-form game path is checked against."""

    def obligate(self, handle, trapdoor, rng):
        y, claw = super().obligate(handle, trapdoor, rng)
        return y, claw.dense()


def _round(puz, strategy, seed: int):
    """Obligation, challenge and both answers of one play_nonlocal round."""
    rng = Rng(seed)
    handle, trapdoor = puz.keygen(rng)
    prep = strategy.stage_a(handle, lambda r: puz.obligate(handle, trapdoor, r), rng)
    challenge = puz.sample_challenge(rng)
    return (prep.obligation, challenge,
            strategy.answer_b(prep.view_b, prep.tape, challenge, rng),
            strategy.answer_c(prep.view_c, prep.tape, challenge, rng))


class TestClosedFormGame:
    """The game plays on closed-form claw states; the dense engine is the
    reference it must agree with."""

    @pytest.mark.parametrize("name", ["honest_to_B", "measure_and_guess"])
    def test_answers_match_dense_run(self, name):
        """At n=12, over 10^4 seeds, every answer equals the one the same
        seed gives when the claw state is a dense vector."""
        strategy = make_strategy(name, 12)
        closed, dense = puzzle.BasePuzzle(12), DensePuzzle(12)
        for seed in range(10_000):
            assert _round(closed, strategy, seed) == _round(dense, strategy, seed), seed

    def test_game_builds_no_state_vector(self, monkeypatch):
        """Every built-in strategy plays both games at n=12 without one
        dense state."""
        def refuse(*args, **kwargs):
            raise AssertionError("the game built a StateVector")

        monkeypatch.setattr(qsim.StateVector, "__init__", refuse)
        puz = puzzle.BasePuzzle(12)
        for name in STRATEGIES:
            strategy, solver = make_strategy(name, 12), reduce_to_2of2(make_strategy(name, 12))
            for seed in range(8):
                play_nonlocal(puz, strategy, Rng(seed))
                play_2of2(puz, solver, Rng(seed))
