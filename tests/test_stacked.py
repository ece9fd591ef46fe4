"""Stacked claw states against the per-instance path they replace.

RepeatedPuzzle and the teleport attack run k claw states as one stacked
array. The oracle here is built from single-state qsim calls, instance by
instance, in the order the per-instance code drew its randomness: answers
and Pauli keys must match exactly, and the rng must stand at the same
place afterwards. Stacked obligation states match byte for byte. The
teleport attack draws its keys as the dense per-instance Bell circuit
does, and its right device's raw outcomes are the per-instance honest
answers XOR k_b, which u3 and u4 both undo, and its "1 iff u >= 1/2" key
rule is the dense teleport's at u = 1/2 and just below. Rows of a stack
draw at their CDF boundaries as single states do, and the zero-weight
check names its row.
"""

import math
from dataclasses import astuple

import numpy as np
import pytest

from posverif import qsim
from posverif.adversary import TeleportPair, _teleport_keys
from posverif.bits import decode_parts, pack_bits, xor_bits
from posverif.errors import ConfigInvalid
from posverif.protocol import TrialEnv
from posverif.puzzle import (
    Equation,
    Preimage,
    RepeatedPuzzle,
    encode_answers,
    encode_obligations,
)
from posverif.rng import Rng, Uniforms, child_seed

N = 4
SEEDS = range(50)


def _challenges(k: int) -> tuple[str, ...]:
    mixed = "".join("01"[i % 2] for i in range(k))
    return tuple(dict.fromkeys(("0" * k, "1" * k, mixed, mixed[::-1])))


def _oblige_one(handle, trapdoor, rng):
    x0 = rng.bits(handle.n)
    y = handle.eval("0", x0)
    return y, qsim.prepare_claw_state(x0, trapdoor.inv("1", y))


def _solve_one(state, bit: str, rng):
    if bit == "1":
        state = qsim.apply_hadamard(qsim.apply_hadamard(state, "bit"), "preimage")
    first, rest = qsim.measure(state, "bit", rng)
    second, _ = qsim.measure(rest, "preimage", rng)
    return (Equation if bit == "1" else Preimage)(first, second)


def _teleport_one(state, rng):
    """Keys (k0, k1) of one instance's register sent through fresh EPR
    pairs by the dense Bell circuit, qubit by qubit."""
    width = state.q
    working = qsim.merge_registers(state, state.names(), "src")
    k0, k1 = "", ""
    for j in range(width):
        rest = width - j - 1
        if rest:
            working = qsim.split_register(working, "src", (("q", 1), ("src", rest)))
        else:
            working = qsim.merge_registers(working, ("src",), "q")
        working = qsim.tensor(working, qsim.make_epr_pairs(1))
        bit0, bit1, working = qsim.teleport(working, "q", "S", rng)
        k0 += bit0
        k1 += bit1
        names = ("R",) if j == 0 else ("rem", "R")
        working = qsim.merge_registers(working, names, "rem")
    return k0, k1


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_obligate_and_solve_match_per_instance(k):
    puz = RepeatedPuzzle(N, k)
    handle, trapdoor = puz.keygen(Rng(900 + k))
    for seed in SEEDS:
        for bits in _challenges(k):
            rng, ref = Rng(seed), Rng(seed)
            ys, state = puz.obligate(handle, trapdoor, rng)
            answers = puz.solve(state, bits, rng)

            singles = [_oblige_one(h, t, ref)
                       for h, t in zip(handle, trapdoor)]
            expected = tuple(_solve_one(st, b, ref)
                             for (_, st), b in zip(singles, bits))
            assert ys == tuple(y for y, _ in singles)
            assert state.amps.shape == (k, 2 << N)
            for row, (_, single) in zip(state.amps, singles):
                assert row.tobytes() == single.amps.tobytes()
            assert answers == expected
            assert rng.random() == ref.random()


@pytest.mark.parametrize("n, k, seeds", [(N, 1, SEEDS), (N, 4, SEEDS), (8, 4, range(8)),
                                         (8, 8, range(8))])
def test_stacked_teleport_matches_per_instance(n, k, seeds):
    puz = RepeatedPuzzle(n, k)
    handle, trapdoor = puz.keygen(Rng(950 + k))
    for seed in seeds:
        rng, ref = Rng(seed), Rng(seed)
        puz.obligate(handle, trapdoor, rng)
        _, singles = zip(*(_oblige_one(h, t, ref)
                           for h, t in zip(handle, trapdoor)))
        k0, k1 = _teleport_keys(k, n + 1, rng)
        expected = [_teleport_one(st, ref) for st in singles]
        assert k0 == "".join(key[0] for key in expected)
        assert k1 == "".join(key[1] for key in expected)
        assert rng.random() == ref.random()


@pytest.mark.parametrize("k", [1, 4])
def test_teleport_trial_messages_match_per_instance(k):
    """u1's keys and u2's raw outcomes, built per instance by hand: the
    Bell circuit's keys, and each honest answer's bits XOR k_b. u3 and u4
    then both recover the honest answers."""
    puz = RepeatedPuzzle(N, k)
    handle, trapdoor = puz.keygen(Rng(970 + k))
    env = TrialEnv(puz, handle, trapdoor)
    for seed in SEEDS:
        challenge = Rng(seed).bits(k)
        trial = TeleportPair(N, k).new_trial(env, actor_seed=seed)
        _, m = trial.u1()
        n_msg = trial.u2(challenge)
        assert trial.pairs_used == k * (N + 1)

        left, right = Rng(child_seed(seed, 1)), Rng(child_seed(seed, 2))
        singles = [_oblige_one(h, t, left)
                   for h, t in zip(handle, trapdoor)]
        keys = [_teleport_one(st, left) for _, st in singles]
        answers = tuple(_solve_one(st, b, right)
                        for (_, st), b in zip(singles, challenge))
        raws = "".join(xor_bits("".join(astuple(a)), key[int(b)])
                       for a, b, key in zip(answers, challenge, keys))
        y_bytes = encode_obligations(tuple(y for y, _ in singles))
        assert decode_parts(m) == [
            y_bytes,
            pack_bits("".join(k0 for k0, _ in keys)),
            pack_bits("".join(k1 for _, k1 in keys)),
        ]
        assert n_msg == pack_bits(raws)
        assert trial.u3(m, challenge) == (y_bytes, encode_answers(answers))
        assert trial.u4(n_msg, challenge) == encode_answers(answers)


def test_teleport_stack_matches_single_rows():
    """teleport on a 2-row stack gives k0 and k1 as per-row tuples, each row
    that of a single-state call with the same draws: source draws row by
    row, then epr_local draws row by row."""
    claws = qsim.prepare_claw_state(("01", "11"), ("10", "00"))
    stack = qsim.merge_registers(qsim.tensor(claws, qsim.make_epr_pairs(3)),
                                 ("bit", "preimage"), "src")
    for seed in range(20):
        rng = Rng(seed)
        u = [rng.random() for _ in range(4)]
        k0, k1, rest = qsim.teleport(stack, "src", "R", Uniforms(u))
        assert isinstance(k0, tuple) and isinstance(k1, tuple)
        for row in range(2):
            single = qsim.StateVector(stack.regs, stack.amps[row], check=False)
            keys = qsim.teleport(single, "src", "R", Uniforms(u[row::2]))
            assert (k0[row], k1[row]) == keys[:2]
            assert rest.amps[row].tobytes() == keys[2].amps.tobytes()
        assert rest.regs == (("S", 3),)


@pytest.mark.parametrize("source", ["0", "1", "plus"])
def test_teleport_key_rule_matches_dense_teleport_at_one_half(source):
    """Each Bell outcome of a qubit has weight exactly 1/4, so the dense
    teleport's key bits are 1 iff their uniform is >= 1/2, as
    _teleport_keys draws them, at 1/2 and at the float just below."""
    below = math.nextafter(0.5, 0)
    psi = qsim.new_state([("src", 1)])
    if source == "plus":
        psi = qsim.apply_hadamard(psi, "src")
    elif source == "1":
        psi = qsim.permute_basis(psi, np.array([1, 0]))
    joint = qsim.tensor(psi, qsim.make_epr_pairs(1))
    for draws in ((0.5, 0.5), (below, below), (0.5, below), (below, 0.5)):
        k0, k1, _ = qsim.teleport(joint, "src", "R", Uniforms(draws))
        assert (k0, k1) == _teleport_keys(1, 1, Uniforms(draws))
        assert k1 == str(int(draws[0] >= 0.5)) and k0 == str(int(draws[1] >= 0.5))


# weights 9 and 16 on outcomes 00 and 01; 0, 9, 16, 0; and 1 on each outcome
PLAIN = np.array([3, 4, 0, 0])
LEADING_ZERO = np.array([0, 3, 4, 0])
FLAT = np.array([1, -1, 1, 1])
TOP = 1.0 - 2.0**-53  # the largest uniform Rng.random can return


class TestStackedDraws:
    def test_rows_draw_independently_at_boundaries(self):
        rows = (PLAIN, LEADING_ZERO, FLAT)
        stack = qsim.StateVector((("r", 2),), np.stack(rows))
        for u in ([TOP, 0.0, 0.5], [0.0, TOP, math.nextafter(0.5, 0)],
                  [9 / 25, math.nextafter(9 / 25, 1), 0.75]):
            outcomes, _ = qsim.measure(stack, "r", Uniforms(u))
            assert outcomes == tuple(
                qsim.measure(qsim.StateVector((("r", 2),), amps), "r", Uniforms([v]))[0]
                for amps, v in zip(rows, u))
        assert qsim.measure(stack, "r", Uniforms([TOP, 0.0, 0.5]))[0] == ("01", "01", "10")

    def test_a_row_uniform_outside_the_unit_interval_raises(self):
        stack = qsim.StateVector((("r", 2),), np.stack([PLAIN, LEADING_ZERO]))
        with pytest.raises(ValueError, match="outside"):
            qsim.measure(stack, "r", Uniforms([0.5, -0.25]))


class TestStackedStates:
    def test_norm_checked_per_row(self):
        good = np.stack([PLAIN, LEADING_ZERO])
        qsim.StateVector((("r", 2),), good)
        with pytest.raises(ValueError, match="row 1"):
            qsim.StateVector((("r", 2),), np.stack([PLAIN, 0 * PLAIN, LEADING_ZERO]))

    def test_rows_need_a_stack(self):
        with pytest.raises(ValueError):
            qsim.apply_hadamard(qsim.prepare_claw_state("01", "10"), "bit", [0])

    @pytest.mark.parametrize("rows", [[-1], [2], [0.5], [True]])
    def test_row_outside_the_stack_rejected(self, rows):
        """A row index is an int naming a row of the stack: -1 does not
        wrap to the last row, and numpy never sees an index it would
        reject with IndexError."""
        claws = qsim.prepare_claw_state(("01", "11"), ("10", "00"))
        with pytest.raises(ConfigInvalid, match="stack row"):
            qsim.apply_hadamard(claws, "bit", rows)

    def test_repeated_row_is_transformed_once(self):
        """[0, 0] on a two-row stack names row 0 alone, not every row."""
        claws = qsim.prepare_claw_state(("01", "11"), ("10", "00"))
        once = qsim.apply_hadamard(claws, "bit", [0])
        assert qsim.apply_hadamard(claws, "bit", [0, 0]).amps.tolist() == once.amps.tolist()

    def test_tensor_joins_every_row(self):
        claws = qsim.prepare_claw_state(("01", "11"), ("10", "00"))
        pair = qsim.make_epr_pairs(1)
        joint = qsim.tensor(claws, pair)
        for row, x0, x1 in zip(joint.amps, ("01", "11"), ("10", "00")):
            single = qsim.tensor(qsim.prepare_claw_state(x0, x1), pair)
            assert row.tobytes() == single.amps.tobytes()
