"""Stacked claw states against the per-instance path they replace.

RepeatedPuzzle and the teleport attack run k claw states as one stacked
array. The oracle here is built from single-state qsim calls, instance by
instance, in the order the per-instance code drew its randomness: answers
and Pauli keys must match exactly, and the rng must stand at the same
place afterwards. Stacked obligation states match byte for byte. The
teleport attack applies the teleportation identity instead of a Bell
circuit, so its remote amplitudes match the dense per-instance circuit to
within 2^-52, and equal exactly an independent Kronecker product of the
per-qubit X^k0 Z^k1 corrections. The measurement fallback and the per-row
norm check are pinned in both the single and the stacked form.
"""

import numpy as np
import pytest

from posverif import qsim
from posverif.adversary import TeleportPair, _teleport_register
from posverif.bits import decode_parts, encode_parts, pack_bits
from posverif.protocol import TrialEnv
from posverif.puzzle import (
    Equation,
    Preimage,
    RepeatedPuzzle,
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
    return (Equation if bit == "1" else Preimage)(first.outcome, second.outcome)


def _teleport_one(state, rng):
    """One instance's register through fresh EPR pairs, qubit by qubit."""
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
    return k0, k1, working


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_obligate_and_solve_match_per_instance(k):
    puz = RepeatedPuzzle(N, k)
    handle, trapdoor = puz.keygen(Rng(900 + k))
    for seed in SEEDS:
        for bits in _challenges(k):
            rng, ref = Rng(seed), Rng(seed)
            ys, state = puz.obligate(handle, trapdoor, rng)
            answers = puz.solve(handle, ys, state, bits, rng)

            singles = [_oblige_one(h, t, ref)
                       for h, t in zip(handle.parts, trapdoor.parts)]
            expected = tuple(_solve_one(st, b, ref)
                             for (_, st), b in zip(singles, bits))
            assert ys == tuple(y for y, _ in singles)
            assert state.amps.shape == (k, 2 << N)
            for row, (_, single) in zip(state.amps, singles):
                assert row.tobytes() == single.amps.tobytes()
            assert answers == expected
            assert rng.random() == ref.random()


X = np.array([[0, 1], [1, 0]], dtype=np.float64)
Z = np.diag([1.0, -1.0])


def _frame_matrix(k0: str, k1: str) -> np.ndarray:
    """The Kronecker product of X^a Z^b over the qubits, first qubit most
    significant."""
    m = np.ones((1, 1))
    for a, b in zip(k0, k1):
        m = np.kron(m, np.linalg.matrix_power(X, int(a)) @ np.linalg.matrix_power(Z, int(b)))
    return m


@pytest.mark.parametrize("n, k, seeds", [(N, 1, SEEDS), (N, 4, SEEDS), (8, 4, range(8)),
                                         (8, 8, range(8))])
def test_stacked_teleport_matches_per_instance(n, k, seeds):
    puz = RepeatedPuzzle(n, k)
    handle, trapdoor = puz.keygen(Rng(950 + k))
    for seed in seeds:
        rng, ref = Rng(seed), Rng(seed)
        _, state = puz.obligate(handle, trapdoor, rng)
        _, singles = zip(*(_oblige_one(h, t, ref)
                           for h, t in zip(handle.parts, trapdoor.parts)))
        k0s, k1s, remote = _teleport_register(state, rng)
        expected = [_teleport_one(st, ref) for st in singles]
        assert k0s == [k0 for k0, _, _ in expected]
        assert k1s == [k1 for _, k1, _ in expected]
        assert remote.regs == expected[0][2].regs
        for row, (_, _, single) in zip(remote.amps, expected):
            assert np.abs(row - single.amps).max() <= 2**-52
        for row, source, k0, k1 in zip(remote.amps, state.amps, k0s, k1s):
            assert np.array_equal(row, _frame_matrix(k0, k1) @ source)
        assert rng.random() == ref.random()


@pytest.mark.parametrize("k", [1, 4])
def test_teleport_trial_messages_match_per_instance(k):
    """u1's keys and u2's raw outcomes, built per instance by hand."""
    puz = RepeatedPuzzle(N, k)
    handle, trapdoor = puz.keygen(Rng(970 + k))
    env = TrialEnv(puz, handle, trapdoor)
    for seed in SEEDS:
        challenge = Rng(seed).bits(k)
        trial = TeleportPair(N, k).new_trial(env, actor_seed=seed)
        _, m = trial.u1(handle)
        n_msg = trial.u2(challenge)
        assert trial.pairs_used == k * (N + 1)

        left, right = Rng(child_seed(seed, 1)), Rng(child_seed(seed, 2))
        singles = [_oblige_one(h, t, left)
                   for h, t in zip(handle.parts, trapdoor.parts)]
        teleported = [_teleport_one(st, left) for _, st in singles]
        raws = ""
        for b, (_, _, remote) in zip(challenge, teleported):
            if b == "1":
                remote = qsim.apply_hadamard(remote, "rem")
            raws += qsim.measure(remote, "rem", right)[0].outcome
        y_bytes = encode_obligations(tuple(y for y, _ in singles))
        assert decode_parts(m) == [
            y_bytes,
            pack_bits("".join(k0 for k0, _, _ in teleported)),
            pack_bits("".join(k1 for _, k1, _ in teleported)),
        ]
        assert n_msg == encode_parts(pack_bits(challenge), pack_bits(raws))


class _Fixed:
    """An rng stand-in that always draws the same uniform."""

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


# probabilities 0.36 and 0.64 - 1e-8 on outcomes 00 and 01, none on 10, 11:
# the CDF ends just below 1
SHORT = np.array([0.6, (0.64 - 1e-8) ** 0.5, 0.0, 0.0], dtype=np.float64)
# no probability on outcome 00, so a uniform below the first CDF step
# lands on a zero-probability outcome
LEADING_ZERO = np.array([0.0, 0.6, 0.8, 0.0], dtype=np.float64)
PLAIN = np.array([0.6, 0.8, 0.0, 0.0], dtype=np.float64)
TOP = 1.0 - 2.0**-53  # the largest uniform Rng.random can return


class TestMeasureFallback:
    """Outcomes past the CDF, or with zero probability, fall back to the
    last outcome of nonzero probability."""

    def test_uniform_past_a_short_cdf_single(self):
        state = qsim.StateVector((("r", 2),), SHORT, check=False)
        record, residual = qsim.measure(state, "r", _Fixed(TOP))
        assert record.outcome == "01"
        assert record.probability == pytest.approx(0.64 - 1e-8)
        assert residual.regs == ()

    def test_uniform_on_zero_probability_outcome_single(self):
        state = qsim.StateVector((("r", 2),), LEADING_ZERO)
        record, _ = qsim.measure(state, "r", _Fixed(-0.25))
        assert record.outcome == "10"
        assert record.probability == pytest.approx(0.64)

    def test_stacked_rows_fall_back_independently(self):
        stack = qsim.StateVector((("r", 2),), np.stack([PLAIN, SHORT, LEADING_ZERO]),
                                 check=False)
        records, _ = qsim.measure(stack, "r", Uniforms([0.5, TOP, -0.25]))
        assert [r.outcome for r in records] == ["01", "01", "10"]
        singles = [qsim.measure(qsim.StateVector((("r", 2),), amps, check=False),
                                "r", _Fixed(u))[0]
                   for amps, u in ((PLAIN, 0.5), (SHORT, TOP), (LEADING_ZERO, -0.25))]
        assert list(records) == singles


class TestStackedStates:
    def test_norm_checked_per_row(self):
        good = np.stack([PLAIN, LEADING_ZERO])
        qsim.StateVector((("r", 2),), good)
        with pytest.raises(ValueError, match="row 1"):
            qsim.StateVector((("r", 2),), np.stack([PLAIN, SHORT, LEADING_ZERO]))

    def test_stack_rejects_mismatched_registers(self):
        a = qsim.prepare_claw_state("01", "10")
        with pytest.raises(ValueError):
            qsim.stack([a, qsim.new_state([("bit", 1), ("other", 2)])])
        with pytest.raises(ValueError):
            qsim.stack([qsim.stack([a])])

    def test_rows_need_a_stack(self):
        with pytest.raises(ValueError):
            qsim.apply_hadamard(qsim.prepare_claw_state("01", "10"), "bit", [0])

    def test_tensor_joins_every_row(self):
        claws = qsim.prepare_claw_state(("01", "11"), ("10", "00"))
        pair = qsim.make_epr_pairs(1)
        joint = qsim.tensor(claws, pair)
        for row, x0, x1 in zip(joint.amps, ("01", "11"), ("10", "00")):
            single = qsim.tensor(qsim.prepare_claw_state(x0, x1), pair)
            assert row.tobytes() == single.amps.tobytes()
