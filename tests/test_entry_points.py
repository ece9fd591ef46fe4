"""Values of the right kind but the wrong range or width, swept through
the library's entry points: each call runs or raises a PosverifError.
The one other error allowed is the TypeError that a float or bool
coordinate raises.  Puzzles that run are at most 6 bits wide, so the
sweep stays cheap.  Rng.bits and child_seed also get values of the wrong
kind, which must raise ConfigInvalid."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posverif.adversary import ATTACK_NAMES, make_attack
from posverif.errors import ConfigInvalid, PosverifError
from posverif.nonlocal_game import STRATEGIES, make_strategy, play_nonlocal
from posverif.protocol import (
    ClassicalProver,
    HonestProver,
    ProtocolConfig,
    run_poq,
    run_prpv,
    run_roprpv,
)
from posverif.puzzle import BasePuzzle, RepeatedPuzzle
from posverif.rng import Rng, child_seed

SWEEP = settings(max_examples=60, derandomize=True, deadline=None)

# n runs up to 6; the wider values are rejected before any puzzle is built
WIDTHS = st.integers(-2, 6) | st.sampled_from([13, 2**64])
COUNTS = st.integers(-2, 3) | st.sampled_from([-(2**64), 0])
SEEDS = st.integers(-2, 2) | st.sampled_from([2**64 - 1, 2**64, -(2**64)])
LAMS = st.integers(-2, 10) | st.just(64)
COORDS = (st.fractions(-3, 6, max_denominator=12) | st.integers(-3, 6)
          | st.sampled_from(["3/2", "7/4", "1", "2", "abc", "1/0", "", "3/"])
          | st.floats(-3, 6) | st.booleans())
HASHED = st.sampled_from([False, True, 0, 1, "yes", None])
BITS = st.text("01", max_size=6) | st.text("012x ", max_size=6)
ATTACKS = st.sampled_from([*ATTACK_NAMES, "", "nope", "Guess"])
GAMES = st.sampled_from([*sorted(STRATEGIES), "", "nope"])


def _runs_or_raises_typed(call, coord=None):
    """Call call(); a PosverifError passes, and a TypeError only when
    coord is a float or bool coordinate."""
    try:
        call()
    except PosverifError:
        pass
    except TypeError:
        if not isinstance(coord, (float, bool)):
            raise


@given(WIDTHS, COUNTS, LAMS, COORDS, HASHED, SEEDS)
@SWEEP
def test_config_and_timed_runs(n, k, lam, position, hashed, seed):
    def build_and_run():
        config = ProtocolConfig(n=n, k=k, lam=lam, prover_position=position,
                                hashed=hashed)
        run_prpv(config, seed, prover=HonestProver())
        run_roprpv(config, seed, prover=ClassicalProver())
        run_poq(config, seed, prover=HonestProver())

    _runs_or_raises_typed(build_and_run, position)


@given(COORDS, SEEDS, st.booleans())
@SWEEP
def test_honest_prover_position(position, seed, hashed):
    config = ProtocolConfig(n=4, k=2, hashed=hashed)
    _runs_or_raises_typed(
        lambda: run_prpv(config, seed, prover=HonestProver(position)), position)


@given(WIDTHS, COUNTS, SEEDS)
@SWEEP
def test_puzzles(n, k, seed):
    _runs_or_raises_typed(lambda: BasePuzzle(n).keygen(Rng(seed)))
    _runs_or_raises_typed(lambda: RepeatedPuzzle(n, k).keygen(Rng(seed)))


@given(BITS, BITS)
@SWEEP
def test_eval_and_inv_bits(b, x):
    puzzle = BasePuzzle(4)
    handle, trapdoor = puzzle.keygen(Rng(3))
    _runs_or_raises_typed(lambda: handle.eval(b, x))
    _runs_or_raises_typed(lambda: trapdoor.inv(b, x))
    _runs_or_raises_typed(lambda: list(handle.images(b)))


WRONG_KINDS = st.sampled_from([True, False, 1.5, 2.0, None, "1"])


@given(SEEDS, st.integers(-3, 3) | st.just(-(2**64)) | WRONG_KINDS,
       st.integers(-3, 70) | st.just(-(2**64)) | WRONG_KINDS)
@example(1, True, True)
@example(1, 1.5, 2.0)
@SWEEP
def test_rng_and_child_seed(seed, index, width):
    """A bool or a float is never read as a width or an index."""
    for value, call in ((width, lambda: Rng(seed).bits(width)),
                        (index, lambda: child_seed(seed, index))):
        if isinstance(value, int) and not isinstance(value, bool):
            _runs_or_raises_typed(call)
        else:
            with pytest.raises(ConfigInvalid):
                call()


@given(ATTACKS, COUNTS, st.booleans(), SEEDS)
@SWEEP
def test_make_attack(name, k, hashed, seed):
    def build_and_run():
        config = ProtocolConfig(n=4, k=k, hashed=hashed)
        run_prpv(config, seed, adversaries=make_attack(name, config))

    _runs_or_raises_typed(build_and_run)


@given(GAMES, WIDTHS, SEEDS)
@SWEEP
def test_make_strategy(name, n, seed):
    _runs_or_raises_typed(lambda: play_nonlocal(
        BasePuzzle(n), make_strategy(name, n), Rng(seed)))

