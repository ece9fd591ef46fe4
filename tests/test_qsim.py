"""Statevector engine tests.

Expected values come from independent oracles computed inside the tests:
full Hadamard transforms are rebuilt as explicit kron-product matrices and
teleportation is checked branch by branch through exhaustive enumeration of
Bell outcomes, never by re-running the engine's own code path. Amplitudes
are unnormalized integers, so an oracle's amplitudes are compared exactly,
up to the positive factor the engine leaves implicit (same_ray).
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posverif import qsim
from posverif.bits import int_to_bits, xor_bits, dot_bits
from posverif.errors import (
    CapacityExceeded,
    ConfigInvalid,
    DuplicateRegister,
    LengthMismatch,
    RegisterViolation,
    UnknownRegister,
)
from posverif.rng import Rng, Uniforms

# the unnormalized Hadamard: sqrt(2) H
H1 = np.array([[1, 1], [1, -1]], dtype=np.int64)
X1 = np.array([[0, 1], [1, 0]], dtype=np.int64)
P0 = np.diag([1, 0])
P1 = np.diag([0, 1])
TOP = 1.0 - 2.0**-53  # the largest uniform Rng.random can return


def h_matrix(q: int) -> np.ndarray:
    m = np.array([[1]], dtype=np.int64)
    for _ in range(q):
        m = np.kron(m, H1)
    return m


def qubit_op(q: int, ops: dict) -> np.ndarray:
    """Kron product over q qubits: ops[j] on qubit j, identity elsewhere."""
    m = np.array([[1]], dtype=np.int64)
    for j in range(q):
        m = np.kron(m, ops.get(j, np.eye(2, dtype=np.int64)))
    return m


def same_ray(got: np.ndarray, want: np.ndarray) -> bool:
    """Whether each row of got is that row of want times a positive
    factor, decided by exact integer cross-multiplication."""
    if got.shape != want.shape:
        return False
    for g, w in zip(np.atleast_2d(got), np.atleast_2d(want)):
        i = np.flatnonzero(w)[0]
        if g[i] * w[i] <= 0 or not np.array_equal(g * w[i], w * g[i]):
            return False
    return True


def dist_of(amps: np.ndarray) -> dict[int, float]:
    """Born rule in exact integers: a^2 / sum of squares, per nonzero a."""
    total = sum(a * a for a in amps.tolist())
    return {i: a * a / total for i, a in enumerate(amps.tolist()) if a}


def random_state(regs, seed: int) -> qsim.StateVector:
    q = sum(w for _, w in regs)
    gen = np.random.default_rng(seed)
    # of mixed sign, so Z corrections still show in teleport tests, and
    # with an odd entry, so no power of two divides every amplitude
    amps = gen.integers(-9, 10, size=1 << q)
    amps[0] |= 1
    return qsim.StateVector(tuple(regs), amps)


def _epr_joint():
    return qsim.tensor(qsim.new_state([("psi", 2)]), qsim.make_epr_pairs(2))


# Every constructor and kernel hands back int64 amplitudes.
INT64_CASES = {
    "new_state": lambda: qsim.new_state([("a", 2)]),
    "claw": lambda: qsim.prepare_claw_state("01", "10"),
    "claw_stack": lambda: qsim.prepare_claw_state(("01", "00"), ("10", "11")),
    "epr": lambda: qsim.make_epr_pairs(2),
    "tensor": _epr_joint,
    "hadamard": lambda: qsim.apply_hadamard(qsim.new_state([("a", 2)]), "a"),
    "bell_circuit": lambda: qsim.bell_circuit(_epr_joint(), "psi", "R"),
    "measure": lambda: qsim.measure(qsim.make_epr_pairs(2), "R", Rng(0))[1],
    "teleport": lambda: qsim.teleport(_epr_joint(), "psi", "R", Rng(0))[2],
    "permute_basis": lambda: qsim.permute_basis(qsim.new_state([("r", 2)]),
                                                np.array([1, 0, 3, 2])),
}


class TestConstruction:
    def test_new_state_is_all_zeros(self):
        s = qsim.new_state([("a", 2), ("b", 1)])
        assert s.q == 3
        assert s.amps[0] == 1 and np.count_nonzero(s.amps) == 1

    def test_register_layout(self):
        s = qsim.new_state([("a", 2), ("b", 3), ("c", 1)])
        assert s.regs == (("a", 2), ("b", 3), ("c", 1)) and s.names() == ("a", "b", "c")
        assert s.width("b") == 3

    def test_capacity_cap(self):
        qsim.new_state([("a", qsim.Q_MAX)])
        with pytest.raises(CapacityExceeded):
            qsim.new_state([("a", qsim.Q_MAX + 1)])
        with pytest.raises(CapacityExceeded):
            qsim.make_epr_pairs(qsim.Q_MAX // 2 + 1)

    def test_duplicate_and_unknown_registers(self):
        with pytest.raises(DuplicateRegister):
            qsim.new_state([("a", 1), ("a", 2)])
        s = qsim.new_state([("a", 1)])
        with pytest.raises(UnknownRegister):
            s.width("zz")
        with pytest.raises(UnknownRegister):
            qsim.apply_hadamard(s, "zz")

    def test_norm_validation(self):
        """A checked state's every row has nonzero weight, its norm squared,
        and it is stored divided by the power of two common to its amplitudes."""
        assert qsim.StateVector((("a", 1),), np.array([6, -8])).amps.tolist() == [3, -4]
        with pytest.raises(ValueError, match="row 0 has zero weight"):
            qsim.StateVector((("a", 1),), np.zeros(2, dtype=np.int64))

    def test_complex_amplitudes_rejected(self):
        amps = np.array([1.0, 0.0], dtype=np.complex128)
        for check in (True, False):
            with pytest.raises(ValueError, match="int64"):
                qsim.StateVector((("a", 1),), amps, check=check)

    @pytest.mark.parametrize("dtype", [np.float64, np.int32])
    def test_other_real_dtypes_rejected(self, dtype):
        for check in (True, False):
            with pytest.raises(ValueError, match="int64"):
                qsim.StateVector((("a", 1),), np.array([1, 0], dtype=dtype), check=check)

    @pytest.mark.parametrize("build", INT64_CASES.values(), ids=INT64_CASES.keys())
    def test_amplitudes_are_int64(self, build):
        assert build().amps.dtype == np.int64

    def test_claw_state_amplitudes(self):
        s = qsim.prepare_claw_state("01", "10")
        # |0,01> and |1,10> at indices 1 and 6
        assert s.amps.tolist() == [0, 1, 0, 0, 0, 0, 1, 0]
        with pytest.raises(LengthMismatch):
            qsim.prepare_claw_state("01", "100")

    @pytest.mark.parametrize("width", [0, True, 1.5, "2"])
    def test_register_width_must_be_a_positive_int(self, width):
        with pytest.raises(ConfigInvalid):
            qsim.new_state([("a", width)])

    def test_empty_claw_stack_rejected(self):
        with pytest.raises(ConfigInvalid, match="claw stack rows"):
            qsim.prepare_claw_state((), ())

    @pytest.mark.parametrize("x0, x1, error", [
        ("", "", ConfigInvalid), ("0a", "01", ValueError), ("01", "+1", ValueError),
        ("0_1", "011", ValueError), (" 1", "01", ValueError), ("01", "011", LengthMismatch)])
    def test_bad_preimages(self, x0, x1, error):
        """The dense and closed-form claw constructors raise the same
        error for a preimage that is empty, not bits or of another width;
        none reads it as an int."""
        with pytest.raises(error):
            qsim.prepare_claw_state(x0, x1)
        with pytest.raises(error):
            qsim.ClawState.prepare(x0, x1)

    @pytest.mark.parametrize("x0, x1", [
        ("0x", "01"), ("01", ("01", "10")), (b"01", b"10"), ("01", b"10")],
        ids=["bad_char", "tuple", "bytes", "bytes_x1"])
    def test_preimage_not_a_bit_string_is_config_invalid(self, x0, x1):
        """Both claw constructors raise the typed error, not the
        AttributeError or TypeError that str methods raise on another type."""
        with pytest.raises(ConfigInvalid, match="preimage"):
            qsim.prepare_claw_state(x0, x1)
        with pytest.raises(ConfigInvalid, match="preimage"):
            qsim.ClawState.prepare(x0, x1)


class TestHadamard:
    def test_matches_matrix_oracle(self):
        """Per-qubit engine pass equals the explicit kron-product matrix.

        Layouts: a middle register, and trailing registers of width 2, 8
        (the claw preimage at n=8) and 9 (the teleport remainder at n=8).
        """
        for pre, w, post in ((1, 2, 1), (1, 2, 0), (1, 8, 0), (1, 9, 0)):
            regs = [("a", pre), ("m", w)] + ([("z", post)] if post else [])
            full = np.kron(np.kron(np.eye(1 << pre), h_matrix(w)), np.eye(1 << post))
            for seed in range(4):
                s = random_state(regs, seed)
                got = qsim.apply_hadamard(s, "m")
                assert same_ray(got.amps, full @ s.amps)

    @given(st.integers(0, 1000))
    @settings(max_examples=40, derandomize=True)
    def test_involution(self, seed):
        """H H = 2^w I, and the layer divides the 2^w out: the very bytes
        come back."""
        s = random_state([("r", 3)], seed)
        back = qsim.apply_hadamard(qsim.apply_hadamard(s, "r"), "r")
        assert back.amps.tobytes() == s.amps.tobytes()

    def test_norm_preserved(self):
        """Up to the implicit factor: the weight doubles per qubit, and the
        layer then divides it by a power of four."""
        s = random_state([("r", 4)], 99)
        h = qsim.apply_hadamard(s, "r")
        ratio = Fraction(2**4 * int((s.amps**2).sum()), int((h.amps**2).sum()))
        assert ratio.denominator == 1 and math.log(ratio, 4).is_integer()

    def test_layer_divides_out_common_powers_of_two(self):
        once = qsim.apply_hadamard(qsim.new_state([("r", 3)]), "r")
        assert once.amps.tolist() == [1] * 8
        twice = qsim.apply_hadamard(once, "r")
        assert twice.amps.tolist() == [1] + [0] * 7

    def test_repeated_hadamards_never_wrap(self):
        """600 layers on a claw state: without the division its weight,
        doubled by every qubit a layer acts on, would reach 2^63 by layer
        20, yet every sixth layer gives back the claw state's bytes."""
        claw = qsim.prepare_claw_state("1011", "0110")
        state = claw
        for layer in range(1, 601):
            state = qsim.apply_hadamard(state, "preimage" if layer % 3 else "bit")
            if layer % 6 == 0:
                assert state.amps.tobytes() == claw.amps.tobytes()
        assert np.abs(state.amps).max() == 1

    def test_amplitude_bound(self):
        """Past 2^19 - 1 in magnitude an amplitude raises CapacityExceeded,
        whether given, made by a Hadamard layer or by a tensor, so that no
        row weight reaches 2^62."""
        limit = 2**19
        with pytest.raises(CapacityExceeded):
            qsim.StateVector((("a", 1),), np.array([limit, 1]))
        qsim.StateVector((("a", 1),), np.array([limit - 1, 1 - limit]))
        near = qsim.StateVector((("a", 1),), np.array([limit // 2 + 1, limit // 2]))
        with pytest.raises(CapacityExceeded):
            qsim.apply_hadamard(near, "a")
        a = qsim.StateVector((("a", 1),), np.array([1025, 1]))
        b = qsim.StateVector((("b", 1),), np.array([1, 513]))
        with pytest.raises(CapacityExceeded):
            qsim.tensor(a, b)

    def test_claw_hadamard_support(self):
        """Full Hadamard of a claw state: c is determined by d.

        Oracle: explicit matrix transform of the claw amplitudes. The
        support must be exactly {(c,d): c = d.(x0 xor x1)} with uniform
        weight 2^-n, which makes 2^n satisfying pairs in total.
        """
        for n in range(1, 5):
            for trial in range(3):
                r = Rng(1000 * n + trial)
                x0 = r.bits(n)
                x1 = r.bits(n)
                while x1 == x0:
                    x1 = r.bits(n)
                s = qsim.prepare_claw_state(x0, x1)
                oracle = dist_of(h_matrix(n + 1) @ s.amps)
                shift = xor_bits(x0, x1)
                expected = {}
                for d_int in range(1 << n):
                    d = int_to_bits(d_int, n)
                    c = dot_bits(d, shift)
                    expected[(c << n) | d_int] = 2.0**-n
                assert oracle == expected
                # engine path agrees with the oracle
                h = qsim.apply_hadamard(qsim.apply_hadamard(s, "bit"), "preimage")
                got = qsim.measurement_distribution(
                    qsim.merge_registers(h, ("bit", "preimage"), "all"), "all"
                )
                assert {int(k, 2): v for k, v in got.items()} == expected


class TestMeasurement:
    def test_distribution_is_born_rule(self):
        s = random_state([("r", 3)], 5)
        d = qsim.measurement_distribution(s, "r")
        assert {int(k, 2): v for k, v in d.items()} == dist_of(s.amps)
        assert abs(sum(d.values()) - 1.0) < 1e-12

    def test_marginal_distribution(self):
        """Marginal of one register sums the joint over the other."""
        s = random_state([("a", 2), ("b", 2)], 6)
        da = qsim.measurement_distribution(s, "a")
        joint = (s.amps.reshape(4, 4) ** 2).sum(axis=1).tolist()
        assert [da.get(int_to_bits(i, 2), 0.0) for i in range(4)] == [
            w / sum(joint) for w in joint]

    def test_measure_frequencies(self):
        """Sampled outcome frequencies match the distribution within 4 sigma."""
        s = random_state([("r", 3)], 7)
        dist = qsim.measurement_distribution(s, "r")
        r = Rng(2024)
        n = 100_000
        counts = {}
        for _ in range(n):
            outcome, _ = qsim.measure(s, "r", r)
            counts[outcome] = counts.get(outcome, 0) + 1
        assert set(counts) <= set(dist)
        for out, p in dist.items():
            bound = 4 * np.sqrt(p * (1 - p) / n)
            assert abs(counts.get(out, 0) / n - p) < bound

    def test_measure_residual_matches_collapse(self):
        s = random_state([("a", 2), ("b", 2)], 8)
        outcome, residual = qsim.measure(s, "a", Rng(1))
        _, projected = qsim.collapse(s, "a", outcome)
        assert residual.amps.tobytes() == projected.amps.tobytes()
        assert residual.names() == ("b",)

    def test_measure_to_empty_state(self):
        s = qsim.prepare_claw_state("0", "1")
        out1, s1 = qsim.measure(s, "bit", Rng(3))
        out2, s2 = qsim.measure(s1, "preimage", Rng(4))
        assert s2.q == 0 and len(s2.amps) == 1
        assert out2 == out1  # claw with x_b = b

    def test_measure_deterministic_per_seed(self):
        s = random_state([("r", 4)], 9)
        a = [qsim.measure(s, "r", Rng(s0))[0] for s0 in range(20)]
        b = [qsim.measure(s, "r", Rng(s0))[0] for s0 in range(20)]
        assert a == b

    def test_draw_at_every_cdf_boundary(self):
        """Weights 0, 1, 2, 0 on r: the first outcome whose cumulative
        weight exceeds u * 3, decided exactly (the float nearest 1/3 lies
        below it), so no u in [0, 1) lands on a zero-weight outcome."""
        s = qsim.StateVector((("r", 2), ("x", 1)), np.array([0, 0, 1, 0, 1, 1, 0, 0]))
        for u, want in ((0.0, "01"), (1 / 3, "01"), (math.nextafter(1 / 3, 1), "10"),
                        (TOP, "10")):
            assert qsim.measure(s, "r", Uniforms([u]))[0] == want, u
        plus = qsim.StateVector((("r", 1),), np.array([1, 1]))
        assert qsim.measure(plus, "r", Uniforms([0.5]))[0] == "1"
        assert qsim.measure(plus, "r", Uniforms([math.nextafter(0.5, 0)]))[0] == "0"

    @pytest.mark.parametrize("u", [-0.25, -(2.0**-60), 1.0, 1.5, math.nan])
    def test_uniform_outside_the_unit_interval_raises(self, u):
        for state, register in ((qsim.make_epr_pairs(1), "R"),
                                (qsim.ClawState.prepare("0", "1"), "bit")):
            with pytest.raises(ValueError, match="outside"):
                qsim.measure(state, register, Uniforms([u]))

    def test_collapse_zero_outcome_rejected(self):
        s = qsim.prepare_claw_state("00", "11")
        with pytest.raises(ValueError):
            qsim.collapse(s, "preimage", "01")


class TestEprAndTeleport:
    def test_epr_distribution(self):
        s = qsim.make_epr_pairs(3)
        d = qsim.measurement_distribution(s, "R")
        assert d == pytest.approx({int_to_bits(i, 3): 0.125 for i in range(8)}, abs=1e-12)
        # measuring R forces S to the same outcome
        outcome, rest = qsim.measure(s, "R", Rng(5))
        d2 = qsim.measurement_distribution(rest, "S")
        assert d2 == pytest.approx({outcome: 1.0}, abs=1e-12)

    def test_teleport_width_mismatch(self):
        s = qsim.tensor(qsim.new_state([("psi", 2)]), qsim.make_epr_pairs(1))
        with pytest.raises(LengthMismatch):
            qsim.teleport(s, "psi", "R", Rng(0))

    def _test_states(self):
        cases = []
        for q in (1, 2, 3, 4):
            cases.append((f"zeros{q}", qsim.new_state([("psi", q)])))
            cases.append((f"rand{q}", random_state([("psi", q)], 40 + q)))
        for n in (1, 2, 3):
            claw = qsim.prepare_claw_state(int_to_bits(1, n), int_to_bits((1 << n) - 1, n))
            claw = qsim.merge_registers(claw, ("bit", "preimage"), "psi")
            cases.append((f"claw{n}", claw))
        plus = qsim.apply_hadamard(qsim.new_state([("psi", 2)]), "psi")
        cases.append(("plus2", plus))
        return cases

    def test_teleport_commutation_exhaustive(self):
        """Every Bell branch sends psi to X^k0 Z^k1 psi, exactly.

        Enumerates all (k1, k0) outcomes of the Bell measurement with
        deterministic collapse: each branch has probability 4^-q, the
        remote standard-basis distribution shifted by k0 equals psi's, and
        the remote Hadamard-basis distribution shifted by k1 equals that
        of H psi.
        """
        for label, psi in self._test_states():
            q = psi.q
            base_std = qsim.measurement_distribution(psi, "psi")
            base_had = qsim.measurement_distribution(qsim.apply_hadamard(psi, "psi"), "psi")
            joint = qsim.tensor(psi, qsim.make_epr_pairs(q))
            pre = qsim.bell_circuit(joint, "psi", "R")
            for k1_int, k0_int in itertools.product(range(1 << q), repeat=2):
                k1 = int_to_bits(k1_int, q)
                k0 = int_to_bits(k0_int, q)
                p1, s1 = qsim.collapse(pre, "psi", k1)
                p2, remote = qsim.collapse(s1, "R", k0)
                assert p1 * p2 == 4.0**-q, label
                got_std = qsim.measurement_distribution(remote, "S")
                shifted = {xor_bits(out, k0): p for out, p in got_std.items()}
                assert shifted == pytest.approx(base_std, abs=1e-12), label
                got_had = qsim.measurement_distribution(
                    qsim.apply_hadamard(remote, "S"), "S"
                )
                shifted_had = {xor_bits(out, k1): p for out, p in got_had.items()}
                assert shifted_had == pytest.approx(base_had, abs=1e-12), label

    def test_teleport_sampled_path(self):
        """teleport() of |0...0> leaves the remote register equal to k0."""
        for seed in range(25):
            joint = qsim.tensor(qsim.new_state([("psi", 2)]), qsim.make_epr_pairs(2))
            k0, k1, rest = qsim.teleport(joint, "psi", "R", Rng(seed))
            d = qsim.measurement_distribution(rest, "S")
            assert d == pytest.approx({k0: 1.0}, abs=1e-12)
            assert rest.names() == ("S",)

    def test_teleport_consumes_source(self):
        psi = random_state([("psi", 1)], 3)
        joint = qsim.tensor(psi, qsim.make_epr_pairs(1))
        k0, k1, rest = qsim.teleport(joint, "psi", "R", Rng(11))
        assert rest.q == 1 and len(k0) == 1 and len(k1) == 1


def _layouts():
    """(registers, label) for psi and R of widths 1-3 in both orders, with a
    spectator register x before, between and after them."""
    for w in (1, 2, 3):
        for pair in ((("psi", w), ("R", w)), (("R", w), ("psi", w))):
            for at in range(3):
                regs = list(pair)
                regs.insert(at, ("x", 2))
                yield tuple(regs), f"w{w}-{pair[0][0]}-first-x{at}"


class TestBellCircuitOracle:
    """bell_circuit equals the explicit matrix (H on psi) times the
    pairwise CNOT(psi_j -> R_j), qubit by qubit."""

    @staticmethod
    def bell_matrix(regs) -> np.ndarray:
        q = sum(w for _, w in regs)
        starts = dict(zip((name for name, _ in regs),
                          itertools.accumulate((w for _, w in regs), initial=0)))
        w = dict(regs)["psi"]
        pairs = [(starts["psi"] + j, starts["R"] + j) for j in range(w)]
        m = qubit_op(q, {c: H1 for c, _ in pairs})
        for c, t in pairs:
            m = m @ (qubit_op(q, {c: P0}) + qubit_op(q, {c: P1, t: X1}))
        return m

    @pytest.mark.parametrize("regs", [r for r, _ in _layouts()],
                             ids=[label for _, label in _layouts()])
    def test_single_state_and_stack(self, regs):
        m = self.bell_matrix(regs)
        single = random_state(regs, 70)
        got = qsim.bell_circuit(single, "psi", "R")
        assert got.regs == regs
        assert same_ray(got.amps, m @ single.amps)
        rows = np.stack([single.amps, random_state(regs, 71).amps])
        got = qsim.bell_circuit(qsim.StateVector(regs, rows), "psi", "R")
        assert same_ray(got.amps, rows @ m.T)


class TestPlumbing:
    def test_tensor_layout(self):
        a = qsim.new_state([("a", 1)])
        b = random_state([("b", 2)], 12)
        t = qsim.tensor(a, b)
        assert t.names() == ("a", "b")
        assert t.amps[:4].tobytes() == b.amps.tobytes()
        with pytest.raises(DuplicateRegister):
            qsim.tensor(a, qsim.new_state([("a", 1)]))

    @pytest.mark.parametrize("wa,wb", [(1, 1), (1, 4), (3, 2), (5, 6), (9, 2)])
    def test_tensor_bytes_equal_kron(self, wa, wb):
        a = random_state([("a", wa)], 20 + wa)
        b = random_state([("b", wb)], 40 + wb)
        assert (qsim.tensor(a, b).amps.tobytes()
                == np.kron(a.amps, b.amps).tobytes())

    def test_claw_stack_capacity(self):
        # rows * 2^(n+1) amplitudes may not pass 2^Q_MAX, checked before
        # the stack is allocated
        rows = (1 << (qsim.Q_MAX - 13)) + 1
        with pytest.raises(CapacityExceeded, match="2049 rows of 13 qubits"):
            qsim.prepare_claw_state(["0" * 12] * rows, ["1" * 12] * rows)

    def test_tensor_capacity(self):
        a = qsim.new_state([("a", 13)])
        with pytest.raises(CapacityExceeded):
            qsim.tensor(a, qsim.new_state([("b", 12)]))

    def test_split_merge_roundtrip(self):
        s = random_state([("r", 3)], 13)
        split = qsim.split_register(s, "r", [("r0", 1), ("r1", 2)])
        assert split.names() == ("r0", "r1")
        assert split.amps is s.amps
        merged = qsim.merge_registers(split, ("r0", "r1"), "r")
        assert merged.regs == s.regs
        with pytest.raises(LengthMismatch):
            qsim.split_register(s, "r", [("x", 1)])
        with pytest.raises(UnknownRegister):
            qsim.merge_registers(split, ("r1", "r0"), "bad")

    def test_permute_basis(self):
        s = random_state([("r", 2)], 14)
        perm = np.array([1, 0, 3, 2])
        p = qsim.permute_basis(s, perm)
        assert p.amps[perm].tobytes() == s.amps.tobytes()


class TestScopedState:
    def test_grant_enforced(self):
        cell = qsim.SharedState(qsim.make_epr_pairs(2))
        mine = qsim.ScopedState(cell, {"R"})
        theirs = qsim.ScopedState(cell, {"S"})
        with pytest.raises(RegisterViolation):
            mine.apply_hadamard("S")
        with pytest.raises(RegisterViolation):
            theirs.measure("R", Rng(0))

    def test_views_share_the_cell(self):
        cell = qsim.SharedState(qsim.make_epr_pairs(2))
        mine = qsim.ScopedState(cell, {"R"})
        outcome = mine.measure("R", Rng(8))
        assert qsim.measurement_distribution(cell.state, "S") == pytest.approx(
            {outcome: 1.0}, abs=1e-12
        )

    def test_a_register_is_granted_once(self):
        """No cloning: a view that overlaps an earlier grant of the same
        cell is refused, and the refused view takes no register."""
        cell = qsim.SharedState(qsim.make_epr_pairs(2))
        qsim.ScopedState(cell, {"R"})
        with pytest.raises(RegisterViolation):
            qsim.ScopedState(cell, {"R", "S"})
        qsim.ScopedState(cell, {"S"})
        qsim.ScopedState(qsim.SharedState(cell.state), {"R"})  # another cell

    def test_unknown_register_after_consumption(self):
        cell = qsim.SharedState(qsim.make_epr_pairs(1))
        mine = qsim.ScopedState(cell, {"R"})
        mine.measure("R", Rng(0))
        with pytest.raises(UnknownRegister):
            mine.measure("R", Rng(0))


def _claw_states(n: int):
    """Every two-branch claw state over bit(1), preimage(n) with branch 0
    on bit 0 and branch 1 on bit 1, in either phase, and every
    one-branch state."""
    for x0, x1 in itertools.product(range(1 << n), repeat=2):
        for phase in (0, 1):
            yield qsim.ClawState((("bit", 1), ("preimage", n)), x0,
                                 (1 << n) | x1, phase)
    for u in range(2 << n):
        yield qsim.ClawState((("bit", 1), ("preimage", n)), u)


def _boundaries(state: qsim.StateVector, register: str) -> list[float]:
    """0.0, the largest uniform, and each CDF boundary j/2^m of the
    register's outcome distribution with the largest float below it;
    every claw state's outcome distribution is uniform over its 2^m
    outcomes."""
    dist = qsim.measurement_distribution(state, register)
    assert set(dist.values()) == {1.0 / len(dist)}
    inner = [j / len(dist) for j in range(1, len(dist))]
    return [0.0, TOP] + inner + [math.nextafter(u, 0) for u in inner]


def _same_state(claw: qsim.ClawState, dense: qsim.StateVector) -> bool:
    """Equal registers and integer amplitudes, up to the global sign the
    closed form drops."""
    amps = claw.dense().amps
    return claw.regs == dense.regs and (np.array_equal(amps, dense.amps)
                                        or np.array_equal(amps, -dense.amps))


class TestClawState:
    """The closed form against the dense engine it stands in for."""

    def test_prepare_matches_dense_claw(self):
        for x0, x1 in (("0", "1"), ("0110", "1011"), ("101", "101")):
            assert (qsim.ClawState.prepare(x0, x1).dense().amps.tobytes()
                    == qsim.prepare_claw_state(x0, x1).amps.tobytes())

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_measurements_match_dense(self, n):
        """Every Hadamard frame, both measurement orders, both phases and
        every branch pair at width n: at every CDF boundary and the float
        just below it, the closed form gives the dense engine's outcome
        and an equal residual, through both measurements."""
        frames = [(), ("bit",), ("preimage",), ("bit", "preimage")]
        orders = [("bit", "preimage"), ("preimage", "bit")]
        for claw in _claw_states(n):
            for frame in frames:
                state = claw
                for register in frame:
                    state = qsim.apply_hadamard(state, register)
                assert _same_state(qsim.ClawState(
                    claw.regs, claw.u0, claw.u1, claw.phase, frame), state.dense())
                for first, second in orders:
                    dense = state.dense()
                    seen = set()  # a residual depends on the outcome alone
                    for u in _boundaries(dense, first):
                        outcome, residual = qsim.measure(state, first, Uniforms([u]))
                        want, want_residual = qsim.measure(dense, first, Uniforms([u]))
                        assert outcome == want
                        if outcome in seen:
                            continue
                        seen.add(outcome)
                        assert _same_state(residual, want_residual)
                        for v in _boundaries(want_residual, second):
                            got = qsim.measure(residual, second, Uniforms([v]))
                            ref = qsim.measure(want_residual, second, Uniforms([v]))
                            assert got[0] == ref[0] and _same_state(got[1], ref[1])

    def test_measure_draws_one_uniform(self):
        state = qsim.apply_hadamard(qsim.ClawState.prepare("011", "110"), "preimage")
        rng, twin = Rng(5), Rng(5)
        qsim.measure(state, "preimage", rng)
        twin.random()
        assert rng.next_u64() == twin.next_u64()

    def test_register_errors(self):
        state = qsim.ClawState.prepare("01", "10")
        with pytest.raises(UnknownRegister):
            qsim.apply_hadamard(state, "zz")
        with pytest.raises(UnknownRegister):
            qsim.measure(state, "zz", Rng(0))
        with pytest.raises(ValueError):
            qsim.apply_hadamard(state, "bit", rows=[0])
        _, rest = qsim.measure(state, "bit", Rng(0))
        with pytest.raises(UnknownRegister):
            rest.width("bit")

    def test_scoped_views_act_on_the_closed_form(self):
        cell = qsim.SharedState(qsim.ClawState.prepare("0110", "1011"))
        view = qsim.ScopedState(cell, {"bit", "preimage"})
        view.apply_hadamard("preimage")
        assert cell.state.frame == {"preimage"}
        with pytest.raises(RegisterViolation):
            qsim.ScopedState(cell, {"bit"})
        assert view.measure("bit", Uniforms([0.25])) == "0"
        assert cell.state.names() == ("preimage",) and cell.state.u1 == cell.state.u0
