"""Puzzle-layer tests.

Acceptance rates are first derived here by exhaustive enumeration: every
outcome of the relevant measurement distribution is pushed through verify
and the accepted weight is summed. The closed forms in stats.py must match
those enumerated values before any sampled test uses them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posverif import puzzle, qsim, stats
from posverif.bits import dot_bits, int_to_bits, xor_bits
from posverif.errors import (
    CapacityExceeded,
    ConfigInvalid,
    LengthMismatch,
    MalformedMessage,
    WrongStateShape,
)
from posverif.rng import Rng, mix64


def make_puzzle(n=4, seed=7):
    p = puzzle.BasePuzzle(n)
    handle, td = p.keygen(Rng(seed))
    return p, handle, td


def reference_feistel(round_keys, n, x, inverse):
    """The Feistel rounds written with one rng.mix64 call per round."""
    wl = n // 2
    wr = n - wl
    left, right = x >> wr, x & ((1 << wr) - 1)
    for r in (3, 2, 1, 0) if inverse else (0, 1, 2, 3):
        if r % 2 == 0:
            left ^= mix64(round_keys[r] ^ right) & ((1 << wl) - 1)
        else:
            right ^= mix64(round_keys[r] ^ left) & ((1 << wr) - 1)
    return (left << wr) | right


class TestFamily:
    def test_bijection_exhaustive(self):
        """P_seed and both f_b branches are bijections for every tested n."""
        for n in (2, 3, 4, 5, 8, 12):
            p = puzzle.BasePuzzle(n)
            handle, td = p.keygen(Rng(100 + n))
            for b in ("0", "1"):
                images = {handle.eval(b, int_to_bits(x, n)) for x in range(1 << n)}
                assert len(images) == 1 << n

    def test_claw_structure(self):
        """Claws are exactly the pairs (x, x xor s)."""
        n = 4
        p, handle, td = make_puzzle(n)
        s = td.s
        for xi in range(1 << n):
            x = int_to_bits(xi, n)
            assert handle.eval("0", x) == handle.eval("1", xor_bits(x, s))

    def test_inv_roundtrip(self):
        n = 5
        p, handle, td = make_puzzle(n, seed=3)
        for b in ("0", "1"):
            for xi in range(1 << n):
                x = int_to_bits(xi, n)
                y = handle.eval(b, x)
                assert td.inv(b, y) == x
                assert handle.eval(b, td.inv(b, y)) == y

    @given(st.integers(0, 2**32), st.integers(2, 12))
    @settings(max_examples=60, derandomize=True)
    def test_inv_is_right_inverse(self, seed, n):
        p = puzzle.BasePuzzle(n)
        handle, td = p.keygen(Rng(seed))
        r = Rng(seed ^ 0x5555)
        y = r.bits(n)
        for b in ("0", "1"):
            assert handle.eval(b, td.inv(b, y)) == y
        # challenge-1 verify reads key.s in place of these two inversions
        assert xor_bits(td.inv("0", y), td.inv("1", y)) == td.s

    @given(st.integers(0, 2**64 - 1), st.integers(2, 12), st.integers(0, 2**12 - 1))
    @settings(max_examples=300, derandomize=True)
    def test_kernel_matches_mix64_reference(self, seed, n, x):
        """The maps keygen builds, with their inline splitmix64 finalizer
        and folded round keys, are the rounds over rng.mix64: both
        directions equal the reference, and each inverts the other."""
        handle, td = puzzle.BasePuzzle(n).keygen(Rng(seed))
        forward, inverse = puzzle._feistel_maps(td.seed, n)
        round_keys = tuple(mix64(td.seed + r * 0x9E3779B97F4A7C15)
                           for r in (1, 2, 3, 4))
        x &= (1 << n) - 1
        xs = int_to_bits(x, n)
        assert forward(x) == reference_feistel(round_keys, n, x, False)
        assert inverse(x) == reference_feistel(round_keys, n, x, True)
        # the handle's eval and the trapdoor's inv call these maps
        assert int(handle.eval("0", xs), 2) == forward(x)
        assert int(td.inv("0", xs), 2) == inverse(x)
        assert inverse(forward(x)) == x and forward(inverse(x)) == x

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 12])
    def test_images_are_eval_as_ints(self, n):
        """images(b) yields int(eval(b, x), 2) for x = 0 .. 2^n - 1 in
        order, on both branches, and inv inverts every image."""
        p = puzzle.BasePuzzle(n)
        handle, td = p.keygen(Rng(200 + n))
        preimages = [int_to_bits(x, n) for x in range(1 << n)]
        for b in ("0", "1"):
            images = list(handle.images(b))
            assert images == [int(handle.eval(b, x), 2) for x in preimages]
            assert [td.inv(b, int_to_bits(y, n)) for y in images] == preimages

    def test_images_rejects_bad_branch_as_eval_does(self):
        p, handle, td = make_puzzle(3)
        for bad in ("2", "", "01"):
            with pytest.raises(ValueError, match="branch must be '0' or '1'"):
                handle.images(bad)
            with pytest.raises(ValueError, match="branch must be '0' or '1'"):
                handle.eval(bad, "010")

    def test_bad_bit_is_config_invalid(self):
        """A branch or challenge bit other than '0'/'1' raises the typed
        ConfigInvalid, as RepeatedPuzzle.verify's challenge check does."""
        p, handle, td = make_puzzle(4)
        y = handle.eval("0", "0000")
        calls = [lambda: handle.eval("2", "0000"), lambda: handle.images(1),
                 lambda: td.inv("x", y),
                 lambda: p.verify(td, y, "2", puzzle.Preimage("0", "0000"))]
        for call in calls:
            with pytest.raises(ConfigInvalid, match="must be '0' or '1'"):
                call()

    # each is 3 characters that int(_, 2) reads as a number
    @pytest.mark.parametrize("bad", ["1_0", " 10", "10\n", "+10", "-10", "0b1",
                                     "\u0661\u0660\u0660"])
    def test_eval_and_inv_reject_non_bits(self, bad):
        """A preimage or image must be exactly n '0'/'1' characters: other
        characters raise ValueError, a wrong width LengthMismatch."""
        p, handle, td = make_puzzle(3)
        for b in ("0", "1"):
            with pytest.raises(ValueError, match="'0'/'1' bits"):
                handle.eval(b, bad)
            with pytest.raises(ValueError, match="'0'/'1' bits"):
                td.inv(b, bad)
            for wrong in ("10", "1010", "1_10"):
                with pytest.raises(LengthMismatch):
                    handle.eval(b, wrong)
                with pytest.raises(LengthMismatch):
                    td.inv(b, wrong)

    def test_keygen_rejects_zero_shift(self):
        """No key with s = 0 in 10^4 generations (the branches must differ)."""
        p = puzzle.BasePuzzle(2)
        r = Rng(42)
        for _ in range(10_000):
            _, td = p.keygen(r)
            assert "1" in td.s

    def test_n_bounds(self):
        with pytest.raises(ConfigInvalid, match=r"n must be in \[2, 12\], got 1"):
            puzzle.BasePuzzle(1)
        with pytest.raises(ConfigInvalid, match=r"n must be in \[2, 12\], got 13"):
            puzzle.BasePuzzle(13)
        puzzle.BasePuzzle(2)
        puzzle.BasePuzzle(12)

    def test_handle_hides_shift(self):
        _, handle, td = make_puzzle()
        assert not hasattr(handle, "s") and not hasattr(handle, "key")

    def test_shift_recoverable_by_search(self):
        """The deliberate hardness caveat: 2^n eval queries recover s."""
        n = 6
        p, handle, td = make_puzzle(n, seed=9)
        y = handle.eval("0", int_to_bits(5, n))
        x1 = next(
            int_to_bits(x, n)
            for x in range(1 << n)
            if handle.eval("1", int_to_bits(x, n)) == y
        )
        assert xor_bits(int_to_bits(5, n), x1) == td.s


class TestObligate:
    def test_obligation_consistency(self):
        p, handle, td = make_puzzle(6, seed=11)
        r = Rng(1)
        for _ in range(50):
            y, state = p.obligate(handle, td, r)
            x0, x1 = td.inv("0", y), td.inv("1", y)
            assert handle.eval("0", x0) == y and handle.eval("1", x1) == y
            expect = qsim.prepare_claw_state(x0, x1)
            np.testing.assert_allclose(state.dense().amps, expect.amps, atol=1e-12)

    def test_y_uniform(self):
        """Obligation y is uniform: chi-square within 4 sigma at n=4."""
        n = 4
        p, handle, td = make_puzzle(n, seed=13)
        r = Rng(77)
        trials = 10_000
        counts = np.zeros(1 << n)
        for _ in range(trials):
            y, _ = p.obligate(handle, td, r)
            counts[int(y, 2)] += 1
        expected = trials / (1 << n)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        dof = (1 << n) - 1
        assert chi2 < dof + 4 * (2 * dof) ** 0.5

    def test_circuit_state_matches_shortcut(self):
        """Oracle circuit: image marginal is uniform and every collapse
        leaves exactly the claw superposition the shortcut builds."""
        n = 3
        p, handle, td = make_puzzle(n, seed=17)
        state = puzzle.obligate_circuit_state(handle)
        dist = qsim.measurement_distribution(state, "image")
        assert dist == pytest.approx(
            {int_to_bits(i, n): 2.0**-n for i in range(1 << n)}, abs=1e-12
        )
        for yi in range(1 << n):
            y = int_to_bits(yi, n)
            _, residual = qsim.collapse(state, "image", y)
            expect = qsim.prepare_claw_state(td.inv("0", y), td.inv("1", y))
            np.testing.assert_allclose(residual.amps, expect.amps, atol=1e-12)

    def test_run_obligate_circuit(self):
        p, handle, td = make_puzzle(3, seed=19)
        y, state = puzzle.run_obligate_circuit(handle, Rng(5))
        assert state.regs == (("bit", 1), ("preimage", 3))
        expect = qsim.prepare_claw_state(td.inv("0", y), td.inv("1", y))
        np.testing.assert_allclose(state.amps, expect.amps, atol=1e-12)


class TestSolveVerify:
    def test_challenge0_accepts_both_branches_only(self):
        n = 3
        p, handle, td = make_puzzle(n, seed=23)
        y, _ = p.obligate(handle, td, Rng(2))
        x0, x1 = td.inv("0", y), td.inv("1", y)
        for bit in ("0", "1"):
            for vi in range(1 << n):
                v = int_to_bits(vi, n)
                expect = (bit == "0" and v == x0) or (bit == "1" and v == x1)
                assert p.verify(td, y, "0", puzzle.Preimage(bit, v)) == expect
                assert (handle.eval(bit, v) == y) == expect

    def test_challenge1_equation_set(self):
        """Challenge 1 accepts exactly {(c,d): d != 0, c = d.s}, enumerated."""
        n = 3
        p, handle, td = make_puzzle(n, seed=29)
        y, _ = p.obligate(handle, td, Rng(3))
        s = xor_bits(td.inv("0", y), td.inv("1", y))
        assert s == td.s
        for ci in range(2):
            for di in range(1 << n):
                c, d = str(ci), int_to_bits(di, n)
                expect = di != 0 and dot_bits(d, s) == ci
                assert p.verify(td, y, "1", puzzle.Equation(c, d)) == expect

    def test_challenge1_rejects_wrong_image_width(self):
        p, handle, td = make_puzzle(4)
        assert not p.verify(td, "101", "1", puzzle.Equation("0", "0001"))
        y, _ = p.obligate(handle, td, Rng(4))
        for d in ("101", "000"):
            assert not p.verify(td, y, "1", puzzle.Equation("0", d))

    def test_tag_mismatch(self):
        p, handle, td = make_puzzle()
        y, _ = p.obligate(handle, td, Rng(4))
        assert not p.verify(td, y, "0", puzzle.Equation("0", "0001"))
        assert not p.verify(td, y, "1", puzzle.Preimage("0", "0001"))

    def test_challenge_outside_bits_raises(self):
        """The challenge is the verifier's own input, so a bad one is a
        fault, not a rejection."""
        p, handle, td = make_puzzle()
        y, _ = p.obligate(handle, td, Rng(4))
        with pytest.raises(ValueError):
            p.verify(td, y, "2", puzzle.Preimage("0", "0001"))
        rp = puzzle.RepeatedPuzzle(4, 2)
        mhandle, mtd = rp.keygen(Rng(5))
        answers = (puzzle.Preimage("0", "0001"),) * 2
        for challenge in ("0", "000", "0x"):
            with pytest.raises((LengthMismatch, ValueError)):
                rp.verify(mtd, ("0000", "0000"), challenge, answers)

    def test_wrong_state_shape(self):
        p = puzzle.RepeatedPuzzle(4, 1)
        bad = qsim.new_state([("bit", 1), ("preimage", 3)])
        with pytest.raises(WrongStateShape):
            p.solve(bad, "0", Rng(0))
        # a single dense claw state and the closed form are no k-row stack
        for bad in (qsim.prepare_claw_state("0001", "0110"),
                    qsim.ClawState.prepare("0001", "0110")):
            with pytest.raises(WrongStateShape):
                p.solve(bad, "0", Rng(0))

    def test_public_verify_agrees_with_trapdoor(self):
        """Public evaluation equals verify on 10^4 random challenge-0
        answers; a preimage of width n-1 or n+1 makes eval raise and
        verify reject, as does a preimage that is not '0'/'1' bits."""
        n = 4
        p, handle, td = make_puzzle(n, seed=31)
        r = Rng(99)
        for _ in range(10_000):
            y = r.bits(n)
            ans = puzzle.Preimage(r.bits(1), r.bits(n))
            assert (handle.eval(ans.bit, ans.v) == y) == p.verify(td, y, "0", ans)
        y, _ = p.obligate(handle, td, Rng(5))
        x0 = td.inv("0", y)
        for v in (x0[1:], "0" + x0):
            ans = puzzle.Preimage("0", v)
            with pytest.raises(LengthMismatch):
                handle.eval(ans.bit, ans.v)
            assert not p.verify(td, y, "0", ans)
        assert not p.verify(td, y, "0", puzzle.Preimage("0", "x" * n))

    def test_branch_acceptance_enumerated(self):
        """Derivation of the completeness closed forms.

        For each n, enumerate the honest solver's outcome distribution on
        the claw state and push every outcome through verify: challenge 0
        accepts with weight exactly 1, challenge 1 with weight 1 - 2^-n,
        so the per-instance average is 1 - 2^-(n+1). The stats helpers
        must agree with the enumerated values to float precision.
        """
        for n in (2, 3, 4, 6, 8):
            p = puzzle.BasePuzzle(n)
            handle, td = p.keygen(Rng(500 + n))
            y, state = p.obligate(handle, td, Rng(n))
            joint = qsim.merge_registers(state.dense(), ("bit", "preimage"), "all")
            acc0 = 0.0
            for out, w in qsim.measurement_distribution(joint, "all").items():
                ans = puzzle.Preimage(out[0], out[1:])
                if p.verify(td, y, "0", ans):
                    acc0 += w
            h = qsim.apply_hadamard(joint, "all")
            acc1 = 0.0
            for out, w in qsim.measurement_distribution(h, "all").items():
                ans = puzzle.Equation(out[0], out[1:])
                if p.verify(td, y, "1", ans):
                    acc1 += w
            assert abs(acc0 - 1.0) < 1e-12
            assert abs(acc1 - (1.0 - 2.0**-n)) < 1e-12
            assert abs(0.5 * (acc0 + acc1) - stats.honest_completeness(n)) < 1e-12

    def test_solve_premeasured_state_halves_challenge1(self):
        """A claw collapsed to one branch loses the d-c correlation: a
        challenge-1 answer from it verifies with enumerated weight
        (1 - 2^-n)/2, not 1 - 2^-n."""
        n = 4
        p, handle, td = make_puzzle(n, seed=37)
        y, state = p.obligate(handle, td, Rng(8))
        _, collapsed = qsim.collapse(state.dense(), "bit", "0")
        pre = qsim.tensor(qsim.new_state([("bit", 1)]), collapsed)
        h = qsim.apply_hadamard(qsim.apply_hadamard(pre, "bit"), "preimage")
        joint = qsim.merge_registers(h, ("bit", "preimage"), "all")
        acc = sum(
            w
            for out, w in qsim.measurement_distribution(joint, "all").items()
            if p.verify(td, y, "1", puzzle.Equation(out[0], out[1:]))
        )
        assert abs(acc - stats.uniform_equation_rate(n)) < 1e-12

    def test_honest_completeness_sampled(self):
        """Monte Carlo at n=8: acceptance within 4 sigma of 1 - 2^-9."""
        n = 8
        p = puzzle.RepeatedPuzzle(n, 1)
        handle, td = p.keygen(Rng(2718))
        r = Rng(314159)
        trials = 100_000
        wins = 0
        for _ in range(trials):
            y, state = p.obligate(handle, td, r)
            b = p.sample_challenge(r)
            ans = p.solve(state, b, r)
            wins += p.verify(td, y, b, ans)
        expect = stats.honest_completeness(n)
        sigma = (expect * (1 - expect) / trials) ** 0.5
        assert abs(wins / trials - expect) < 4 * sigma


class TestRepetition:
    def test_k1_matches_base(self):
        rp = puzzle.RepeatedPuzzle(4, 1)
        handle, td = rp.keygen(Rng(55))
        base_handle, base_td = puzzle.BasePuzzle(4).keygen(Rng(55))
        assert handle[0].key_id == base_handle.key_id
        ys, states = rp.obligate(handle, td, Rng(56))
        y_base, _ = puzzle.BasePuzzle(4).obligate(base_handle, base_td, Rng(56))
        assert ys == (y_base,)
        ans = rp.solve(states, "1", Rng(57))
        assert rp.verify(td, ys, "1", ans) == puzzle.BasePuzzle(4).verify(
            base_td, ys[0], "1", ans[0]
        )

    @pytest.mark.parametrize("k", [0, True])
    def test_rejects_bad_k(self, k):
        """A bool k would pass as 1 and misformat its challenges."""
        with pytest.raises(ValueError, match="k must be >= 1"):
            puzzle.RepeatedPuzzle(4, k)

    def test_challenge_widths(self):
        assert len(puzzle.RepeatedPuzzle(4, 5).sample_challenge(Rng(0))) == 5
        rp = puzzle.RepeatedPuzzle(4, 3)
        handle, td = rp.keygen(Rng(1))
        ys, states = rp.obligate(handle, td, Rng(2))
        with pytest.raises(LengthMismatch):
            rp.solve(states, "0", Rng(3))
        answers = rp.solve(states, "011", Rng(3))
        assert rp.verify(td, ys, "011", answers)
        # the number of obligations and answers is the prover's to get wrong
        assert not rp.verify(td, ys[:2], "011", answers)
        assert not rp.verify(td, ys, "011", answers + answers[:1])

    def test_obligate_needs_k_keys(self):
        rp = puzzle.RepeatedPuzzle(4, 2)
        handles, tds = puzzle.RepeatedPuzzle(4, 3).keygen(Rng(4))
        for keys in ((handles, tds), (handles[:2], tds), (handles[:1], tds[:1])):
            with pytest.raises(LengthMismatch):
                rp.obligate(*keys, Rng(5))

    def test_stack_cap_checked_before_the_first_draw(self):
        """k = 2049 claw states of 13 qubits are one row more than a
        2^24-amplitude stack holds: obligate raises before it draws."""
        small = puzzle.RepeatedPuzzle(12, 1)
        handles, tds = small.keygen(Rng(6))
        rp = puzzle.RepeatedPuzzle(12, 2049)
        rng, twin = Rng(7), Rng(7)
        with pytest.raises(CapacityExceeded, match="2049 rows of 13 qubits"):
            rp.obligate(handles * 2049, tds * 2049, rng)
        assert rng.next_u64() == twin.next_u64()

    def test_parallel_completeness(self):
        """Fresh challenge bits: honest rate (1 - 2^-(n+1))^k within 4 sigma."""
        n, k, trials = 4, 4, 6_000
        rp = puzzle.RepeatedPuzzle(n, k)
        handle, td = rp.keygen(Rng(72))
        r = Rng(73)
        wins = 0
        for _ in range(trials):
            ys, states = rp.obligate(handle, td, r)
            ch = rp.sample_challenge(r)
            ans = rp.solve(states, ch, r)
            wins += rp.verify(td, ys, ch, ans)
        expect = stats.honest_completeness(n, k)
        assert abs(wins / trials - expect) < 4 * (expect * (1 - expect) / trials) ** 0.5


def _string_verify(handle, td, y, challenge, answer):
    """BasePuzzle.verify written with the public string API (eval's
    image and dot_bits against Trapdoor.s): the reference its int
    comparisons must agree with."""
    n = td.n

    def is_bits(s, width):
        return isinstance(s, str) and len(s) == width and not s.strip("01")

    if challenge == "0":
        return (isinstance(answer, puzzle.Preimage) and is_bits(answer.bit, 1)
                and is_bits(answer.v, n) and handle.eval(answer.bit, answer.v) == y)
    return (isinstance(answer, puzzle.Equation) and is_bits(answer.c, 1)
            and is_bits(answer.d, n) and is_bits(y, n) and "1" in answer.d
            and dot_bits(answer.d, td.s) == int(answer.c, 2))


class TestStringEdges:
    """The puzzle layer runs on ints inside and gives and takes strings
    at its edges; these read only the public string API."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_obligate_is_eval_and_inv(self, n):
        """obligate draws x0 as rng.bits(n) does, publishes y =
        eval("0", x0), and its claw state pairs x0 with inv("1", y)."""
        p = puzzle.BasePuzzle(n)
        for seed in range(100):
            rng, twin = Rng(seed), Rng(seed)
            handle, td = p.keygen(rng)
            assert p.keygen(twin)[0].key_id == handle.key_id
            y, state = p.obligate(handle, td, rng)
            x0 = twin.bits(n)
            x1 = td.inv("1", y)
            assert y == handle.eval("0", x0) == handle.eval("1", x1)
            expect = qsim.ClawState.prepare(x0, x1)
            assert ((state.regs, state.u0, state.u1, state.phase, state.frame)
                    == (expect.regs, expect.u0, expect.u1, expect.phase, expect.frame))
            assert rng.next_u64() == twin.next_u64()

    def test_obligate_rejects_a_key_of_another_width(self):
        handle, td = puzzle.BasePuzzle(6).keygen(Rng(1))
        with pytest.raises(LengthMismatch):
            puzzle.BasePuzzle(4).obligate(handle, td, Rng(2))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_verify_matches_string_reference(self, n):
        """Every answer of either kind at width n, the honest answers, and
        answers of the wrong width, with a non-bit character, of no str
        or with d = 0, against honest and malformed obligations."""
        p, solver = puzzle.BasePuzzle(n), puzzle.RepeatedPuzzle(n, 1)
        every = [int_to_bits(x, n) for x in range(1 << n)]
        odd = ["", "0" * (n - 1), "1" * (n + 1), "2" * n, "0" * (n - 1) + "x",
               " " + "1" * (n - 1), None, 0, b"0" * n]
        fields = every + odd
        answers = ([puzzle.Preimage(b, v) for b in ("0", "1", "2", "", "01", None)
                    for v in fields]
                   + [puzzle.Equation(c, d) for c in ("0", "1", "x", "", None)
                      for d in fields]
                   + [None, ("0", "0" * n)])
        accepted = 0
        for seed in range(3):
            handle, td = p.keygen(Rng(seed))
            claws = [solver.obligate((handle,), (td,), Rng(s)) for s in range(4)]
            ys = [y for (y,), _ in claws]
            for challenge in "01":
                honest = [solver.solve(stack, challenge, Rng(s))[0]
                          for s, (_, stack) in enumerate(claws)]
                for y in (*ys, every[1], *odd):
                    for answer in answers + honest:
                        got = p.verify(td, y, challenge, answer)
                        assert got is _string_verify(handle, td, y, challenge, answer)
                        accepted += got
        assert accepted > 0


class TestSerialization:
    def test_answer_roundtrip(self):
        answers = (
            puzzle.Preimage("0", "10110"),
            puzzle.Equation("1", "00001"),
            puzzle.Preimage("1", ""),
        )
        data = puzzle.encode_answers(answers)
        assert puzzle.decode_answers(data) == answers

    def test_obligation_roundtrip(self):
        ys = ("1011", "0000", "1111")
        assert puzzle.decode_obligations(puzzle.encode_obligations(ys)) == ys

    def test_answer_encoding_is_tagged(self):
        pre = puzzle.encode_answers((puzzle.Preimage("0", "11"),))
        eq = puzzle.encode_answers((puzzle.Equation("0", "11"),))
        assert pre != eq

    def test_key_roundtrip(self):
        p, handle, td = make_puzzle(6, seed=91)
        assert handle.key_id == puzzle.public_key_bytes(6, td.seed).hex()

    def test_bit_byte_other_than_0_or_1_rejected(self):
        for answer in (puzzle.Preimage("0", "11"), puzzle.Equation("0", "11")):
            data = bytearray(puzzle.encode_answer(answer))
            data[1] = 7
            with pytest.raises(MalformedMessage):
                puzzle.decode_answer(bytes(data))

    def test_trailing_bytes_rejected(self):
        data = puzzle.encode_answers((puzzle.Preimage("0", "11"),)) + b"x"
        with pytest.raises(MalformedMessage):
            puzzle.decode_answers(data)
