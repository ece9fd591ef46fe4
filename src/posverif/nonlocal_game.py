"""The separated two-solver game over a 1-of-2 puzzle.

One agent A, holding only the public key, prepares an obligation and
splits its resources between two isolated solvers B and C; then a single
challenge bit goes to both, and they win iff both answers verify. The
interesting ceiling: no strategy wins much above 3/4, while either solver
alone could answer its own preferred challenge perfectly.

The referee keeps the trapdoor; stage A gets the public handle and an
obligation service, obligate(rng) -> (y, claw state), the claw state a
qsim.ClawState in closed form: no round builds a dense state vector, and
the dense engine is the reference the tests check the game against. Solver isolation is
structural: each solver gets a ScopedState view of the shared quantum
state restricted to its own registers, which it can only measure or
Hadamard (touching the other side raises RegisterViolation), plus a
read-only shared classical tape prepared in stage A. Answering both
challenges of one obligation at once (the 2-of-2 reduction) reuses the
same stage-A preparation.

Each strategy states its closed forms: win_rate(n) and reduced_rate(n).
A built-in strategy plays at the width n it was made for; its stage A
raises ConfigInvalid on a handle of any other width.
"""

import operator
from dataclasses import dataclass
from functools import partial
from types import MappingProxyType

from .bits import dot_bits, int_to_bits, xor_bits
from .errors import ConfigInvalid
from .puzzle import Answer, BasePuzzle, Equation, Preimage, PublicHandle
from .qsim import ScopedState, SharedState, measure
from .rng import Rng
from .stats import (Estimate, honest_to_b_rate, measure_and_guess_rate, tally,
                    uniform_equation_rate)


@dataclass(frozen=True)
class StagePrep:
    """Stage-A output: the obligation, each solver's view of the shared
    quantum cell (None for both when there is no cell) and the shared
    classical tape."""

    obligation: str
    view_b: ScopedState | None
    view_c: ScopedState | None
    tape: MappingProxyType  # shared classical data, read-only


def make_prep(obligation, cell=None, b_registers=(), c_registers=(), tape=None):
    """The StagePrep that grants B b_registers and C c_registers of cell."""
    views = (None, None) if cell is None else (
        ScopedState(cell, b_registers), ScopedState(cell, c_registers))
    return StagePrep(obligation, *views, MappingProxyType(dict(tape or {})))


@dataclass(frozen=True)
class GameResult:
    win: bool
    accept_b: bool
    accept_c: bool
    challenge: str
    obligation: str


def uniform_answer_guess(n: int, challenge: str, rng) -> Answer:
    """Uniform draw from the full answer space of the challenge."""
    if challenge == "0":
        return Preimage(rng.bits(1), rng.bits(n))
    return Equation(rng.bits(1), rng.bits(n))


def play_nonlocal(puz: BasePuzzle, strategy, rng) -> GameResult:
    """One round: keygen, stage A, one challenge to both isolated solvers."""
    handle, trapdoor = puz.keygen(rng)
    prep = strategy.stage_a(handle, lambda r: puz.obligate(handle, trapdoor, r), rng)
    challenge = puz.sample_challenge(rng)
    ans_b = strategy.answer_b(prep.view_b, prep.tape, challenge, rng)
    ans_c = strategy.answer_c(prep.view_c, prep.tape, challenge, rng)
    accept_b = puz.verify(trapdoor, prep.obligation, challenge, ans_b)
    accept_c = puz.verify(trapdoor, prep.obligation, challenge, ans_c)
    return GameResult(accept_b and accept_c, accept_b, accept_c, challenge, prep.obligation)


def _solve_2of2(strategy, handle: PublicHandle, obligate,
                rng) -> tuple[str, Answer, Answer]:
    prep = strategy.stage_a(handle, obligate, rng)
    ans0 = strategy.answer_b(prep.view_b, prep.tape, "0", rng)
    ans1 = strategy.answer_c(prep.view_c, prep.tape, "1", rng)
    return prep.obligation, ans0, ans1


def reduce_to_2of2(strategy):
    """Wrap a game strategy as a single 2-of-2 solver.

    The solver runs stage A once and asks B for the challenge-0 answer and
    C for the challenge-1 answer of the same obligation. If the strategy
    wins the game with probability tau, this solver succeeds with
    probability at least 2*tau - 1.  It is a partial, so it pickles
    together with its name.
    """
    solver = partial(_solve_2of2, strategy)
    solver.name = f"reduced_{strategy.name}"
    return solver


def play_2of2(puz: BasePuzzle, solver, rng) -> bool:
    """One 2-of-2 round: the solver must answer both challenges at once."""
    handle, trapdoor = puz.keygen(rng)
    y, ans0, ans1 = solver(handle, lambda r: puz.obligate(handle, trapdoor, r), rng)
    return puz.verify(trapdoor, y, "0", ans0) and puz.verify(trapdoor, y, "1", ans1)


def _game_trial(puz: BasePuzzle, strategy, seed: int) -> bool:
    return play_nonlocal(puz, strategy, Rng(seed)).win


def _2of2_trial(puz: BasePuzzle, solver, seed: int) -> bool:
    return play_2of2(puz, solver, Rng(seed))


def estimate_win_rate(puz: BasePuzzle, strategy, trials: int, seed: int,
                      workers: int = 1) -> Estimate:
    counts = tally(partial(_game_trial, puz, strategy), trials, seed, workers)
    return Estimate.of(counts, True)


def estimate_2of2_rate(puz: BasePuzzle, solver, trials: int, seed: int,
                       workers: int = 1) -> Estimate:
    counts = tally(partial(_2of2_trial, puz, solver), trials, seed, workers)
    return Estimate.of(counts, True)


class _Strategy:
    """A built-in strategy at width n, an n the puzzle accepts. Its stage
    A raises ConfigInvalid on a handle of any other width, whose answers
    could never verify."""

    def __init__(self, n: int):
        self.n = BasePuzzle(n).n  # the puzzle's rule for n

    def _check_width(self, handle: PublicHandle):
        if handle.n != self.n:
            raise ConfigInvalid(f"strategy {self.name} plays at n={self.n}, "
                                f"the puzzle's handle has n={handle.n}")


class HonestToB(_Strategy):
    """B holds the whole claw state and solves honestly; C guesses blind."""

    name = "honest_to_B"
    win_rate = staticmethod(honest_to_b_rate)
    reduced_rate = staticmethod(uniform_equation_rate)

    def stage_a(self, handle, obligate, rng):
        self._check_width(handle)
        y, state = obligate(rng)
        return make_prep(y, SharedState(state), b_registers=("bit", "preimage"))

    def answer_b(self, view, tape, challenge, rng):
        if challenge == "1":
            view.apply_hadamard("bit")
            view.apply_hadamard("preimage")
        return (Equation if challenge == "1" else Preimage)(
            view.measure("bit", rng), view.measure("preimage", rng))

    def answer_c(self, view, tape, challenge, rng):
        return uniform_answer_guess(self.n, challenge, rng)


class MeasureAndGuess(_Strategy):
    """Measure everything up front; replay shared classical results.

    Challenge 0 is then answered perfectly by both, challenge 1 by one
    shared uniform equation guess: the 3/4 ceiling witness.
    """

    name = "measure_and_guess"
    win_rate = staticmethod(measure_and_guess_rate)
    reduced_rate = staticmethod(uniform_equation_rate)

    def stage_a(self, handle, obligate, rng):
        self._check_width(handle)
        y, state = obligate(rng)
        bit, state = measure(state, "bit", rng)
        v, _ = measure(state, "preimage", rng)
        guess = uniform_answer_guess(self.n, "1", rng)
        tape = {"preimage": Preimage(bit, v), "equation": guess}
        return make_prep(y, tape=tape)

    def answer_b(self, view, tape, challenge, rng):
        return tape["preimage"] if challenge == "0" else tape["equation"]

    answer_c = answer_b


class BruteForce(_Strategy):
    """Recover the shift with 2^n public eval queries, then answer anything.

    The capability-scoping caveat made concrete: claw-freeness is only as
    strong as the cost of exhausting eval, so small n gives rate 1. After
    the one eval call that publishes y, operator.indexOf runs the search
    over the handle's images("1"), the key's forward map over the shifted
    preimages as ints, and stops at the first image that equals y.
    """

    name = "brute_force"
    win_rate = reduced_rate = staticmethod(lambda n: 1.0)

    def stage_a(self, handle, obligate, rng):
        self._check_width(handle)
        x0 = rng.bits(self.n)
        y = handle.eval("0", x0)
        target = int(y, 2)
        x1 = operator.indexOf(handle.images("1"), target)
        shift = xor_bits(x0, int_to_bits(x1, self.n))
        return make_prep(y, tape={"x0": x0, "shift": shift})

    def answer_b(self, view, tape, challenge, rng):
        if challenge == "0":
            return Preimage("0", tape["x0"])
        d = rng.bits(self.n)
        while "1" not in d:
            d = rng.bits(self.n)
        return Equation(str(dot_bits(d, tape["shift"])), d)

    answer_c = answer_b


class AlwaysFail(_Strategy):
    """Answers with the wrong shape on purpose; loses every round."""

    name = "always_fail"
    win_rate = reduced_rate = staticmethod(lambda n: 0.0)

    def stage_a(self, handle, obligate, rng):
        self._check_width(handle)
        return make_prep(handle.eval("0", rng.bits(self.n)))  # obligate's draw, no state

    def answer_b(self, view, tape, challenge, rng):
        if challenge == "0":
            return Equation("0", "0" * self.n)  # wrong tag for challenge 0
        return Preimage("0", "0" * self.n)  # wrong tag for challenge 1

    answer_c = answer_b


STRATEGIES = {
    s.name: s for s in (HonestToB, MeasureAndGuess, BruteForce, AlwaysFail)
}


def make_strategy(name: str, n: int):
    """The strategy named name at width n. An unknown name, or an n the
    puzzle rejects, raises ConfigInvalid."""
    if name not in STRATEGIES:
        raise ConfigInvalid(
            f"unknown strategy {name!r}; choose from {sorted(STRATEGIES)}")
    return STRATEGIES[name](n)
