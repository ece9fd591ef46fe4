"""Timed-protocol tests: exact arrival algebra, verdict precedence,
acceptance rates, the hash-challenge variant, and the timing-free
transform."""

from fractions import Fraction

import pytest

from posverif.adversary import make_attack
from posverif.bits import encode_parts, pack_bits, unpack_bits, xor_bits
from posverif.errors import ConfigInvalid, InvalidTrials, LengthMismatch
from posverif.protocol import (
    ANS0_DEADLINE,
    ANS1_DEADLINE,
    ClassicalProver,
    FailureReason,
    HonestProver,
    PoQResult,
    ProtocolConfig,
    RandomOracle,
    Verdict,
    Y0_DEADLINE,
    Y1_DEADLINE,
    classical_reply_ans,
    classical_reply_y,
    decode_message,
    encode_message,
    estimate_acceptance,
    estimate_poq,
    run_poq,
    run_prpv,
    run_roprpv,
)
from posverif.puzzle import RepeatedPuzzle, decode_obligations, encode_obligations
from posverif.rng import Rng, child_seed
from posverif.stats import classical_prover_rate, honest_completeness

SWEEP_POSITIONS = (
    Fraction(1),
    Fraction(5, 4),
    Fraction(3, 2),
    Fraction(7, 4),
    Fraction(199, 100),
)


class StubForwardPair:
    """Minimal two-device pair for exercising the adversary adapters.

    Both devices answer from classical prover tapes; distinct tapes on
    the two sides make the verifiers see conflicting bytes.
    """

    name = "stub_forward"

    def __init__(self, tape0=None, tape1=None, garble_ans=False):
        self.tape0 = tape0
        self.tape1 = tape1
        self.garble_ans = garble_ans

    def new_trial(self, env, actor_seed):
        tape0 = self.tape0 if self.tape0 is not None else actor_seed
        tape1 = self.tape1 if self.tape1 is not None else actor_seed
        pair = self

        class Trial:
            def __init__(self):
                self.challenge = None

            def u1(self, handle):
                ys, _ = classical_reply_y(handle, tape0)
                return encode_obligations(ys), handle.key_id.encode()

            def u2(self, challenge):
                self.challenge = challenge
                return encode_parts(pack_bits(challenge))

            def u3(self, m_body):
                handle = env.resolve(m_body.decode())
                ys, _ = classical_reply_y(handle, tape1)
                answers = classical_reply_ans(handle, self.challenge, tape1)
                from posverif.puzzle import encode_answers
                ans = b"\xff" if pair.garble_ans else encode_answers(answers)
                return encode_obligations(ys), ans

            def u4(self, n_body):
                challenge, _ = unpack_bits(n_body[4:])
                answers = classical_reply_ans(env.handle, challenge, tape0)
                from posverif.puzzle import encode_answers
                ans = b"\xff" if pair.garble_ans else encode_answers(answers)
                return ans

        return Trial()


class TestConfig:
    def test_defaults_valid(self):
        cfg = ProtocolConfig()
        assert cfg.n == 8 and cfg.k == 1
        assert cfg.prover_position == Fraction(3, 2)

    @pytest.mark.parametrize("bad", [dict(n=1), dict(n=13), dict(k=0),
                                     dict(lam=7),
                                     dict(prover_position=Fraction(1, 2)),
                                     dict(prover_position=Fraction(2)),
                                     dict(prover_position=Fraction(5, 2))])
    def test_rejects_bad_parameters(self, bad):
        with pytest.raises(ConfigInvalid):
            ProtocolConfig(**bad)

    def test_rejects_float_position(self):
        with pytest.raises(TypeError):
            ProtocolConfig(prover_position=1.5)

    def test_exactly_one_actor(self):
        cfg = ProtocolConfig()
        with pytest.raises(ConfigInvalid):
            run_prpv(cfg, seed=1)
        with pytest.raises(ConfigInvalid):
            run_prpv(cfg, seed=1, prover=HonestProver(),
                     adversaries=StubForwardPair())


class TestMessageCodec:
    def test_roundtrip(self):
        payload = encode_message(b"Y", b"abc", b"", b"\x00\x01")
        kind, parts = decode_message(payload)
        assert kind == b"Y"
        assert parts == [b"abc", b"", b"\x00\x01"]

    def test_empty_message_rejected(self):
        with pytest.raises(ValueError):
            decode_message(b"")

    def test_kind_must_be_single_byte(self):
        with pytest.raises(ValueError):
            encode_message(b"YY", b"x")


class TestHonestTimings:
    """Arrival times are exact rationals determined by the prover
    position p: obligations reach V0 at 2p and V1 at 3, answers reach
    V0 at 4 and V1 at 7 - 2p."""

    @pytest.mark.parametrize("pos", SWEEP_POSITIONS)
    def test_arrival_algebra(self, pos):
        out = run_prpv(ProtocolConfig(n=8, k=1), seed=20,
                       prover=HonestProver(position=pos))
        t = out.verdict.timings
        assert t["y0"] == 2 * pos
        assert t["y1"] == Fraction(3)
        assert t["ans0"] == Fraction(4)
        assert t["ans1"] == 7 - 2 * pos
        for value in t.values():
            assert isinstance(value, Fraction)
        assert out.verdict.reason in (FailureReason.NONE, FailureReason.VER_FAIL)

    def test_edge_position_one_hits_last_deadline(self):
        out = run_prpv(ProtocolConfig(), seed=21,
                       prover=HonestProver(position=Fraction(1)))
        assert out.verdict.timings["ans1"] == ANS1_DEADLINE

    def test_deadline_constants(self):
        assert (Y0_DEADLINE, Y1_DEADLINE) == (Fraction(4), Fraction(3))
        assert (ANS0_DEADLINE, ANS1_DEADLINE) == (Fraction(4), Fraction(5))


class TestOutsidePositions:
    def test_left_of_segment_misses_far_answer(self):
        out = run_prpv(ProtocolConfig(), seed=22,
                       prover=HonestProver(position=Fraction(1, 2)))
        assert out.verdict.reason is FailureReason.TIMING_ANS1
        assert out.verdict.timings["ans1"] == Fraction(6)
        # every earlier deadline is met, so lateness is pinned on ans1
        assert out.verdict.timings["y0"] == Fraction(1)
        assert out.verdict.timings["ans0"] == Fraction(4)

    @pytest.mark.parametrize("pos,y0_arrival", [
        (Fraction(9, 4), Fraction(9, 2)),
        (Fraction(5, 2), Fraction(5)),
    ])
    def test_right_of_segment_misses_first_deadline(self, pos, y0_arrival):
        out = run_prpv(ProtocolConfig(), seed=23, prover=HonestProver(position=pos))
        assert out.verdict.reason is FailureReason.TIMING_Y0
        assert out.verdict.timings["y0"] == y0_arrival

    def test_unreachable_prover_means_missing_messages(self):
        out = run_prpv(ProtocolConfig(), seed=24,
                       prover=HonestProver(position=Fraction(10)))
        assert out.verdict.reason is FailureReason.TIMING_Y0
        assert out.verdict.timings["y0"] is None


class TestVerdictChecks:
    def test_reason_evaluation_order(self):
        names = [r.name for r in FailureReason]
        assert names == ["TIMING_Y0", "TIMING_Y1", "TIMING_ANS0",
                         "TIMING_ANS1", "MISMATCH", "VER_FAIL", "NONE"]

    def test_matching_pair_passes_timing(self):
        out = run_prpv(ProtocolConfig(), seed=30,
                       adversaries=StubForwardPair())
        assert out.verdict.reason in (FailureReason.NONE, FailureReason.VER_FAIL)
        t = out.verdict.timings
        assert t["y0"] == Fraction(0)
        assert t["y1"] == Fraction(3)
        assert t["ans0"] == Fraction(4)
        assert t["ans1"] == Fraction(3)

    def test_differing_sides_flag_mismatch(self):
        out = run_prpv(ProtocolConfig(), seed=31,
                       adversaries=StubForwardPair(tape0=1, tape1=2))
        assert out.verdict.reason is FailureReason.MISMATCH

    def test_undecodable_answers_fail_verification(self):
        out = run_prpv(ProtocolConfig(), seed=32,
                       adversaries=StubForwardPair(garble_ans=True))
        assert out.verdict.reason is FailureReason.VER_FAIL

    def test_transcript_bytes_capture_verdict(self):
        ok = run_prpv(ProtocolConfig(), seed=33, prover=HonestProver())
        bad = run_prpv(ProtocolConfig(), seed=33,
                       prover=HonestProver(position=Fraction(5, 2)))
        assert ok.verdict.transcript_bytes() != bad.verdict.transcript_bytes()
        again = run_prpv(ProtocolConfig(), seed=33, prover=HonestProver())
        assert ok.verdict.transcript_bytes() == again.verdict.transcript_bytes()


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        cfg = ProtocolConfig(n=6, k=2)
        a = run_prpv(cfg, seed=77, prover=HonestProver(), record_trace=True)
        b = run_prpv(cfg, seed=77, prover=HonestProver(), record_trace=True)
        assert a.verdict == b.verdict
        assert a.trace.to_json_lines() == b.trace.to_json_lines()

    def test_seed_changes_challenge(self):
        cfg = ProtocolConfig(n=6, k=8)
        seen = {run_prpv(cfg, seed=s, prover=HonestProver()).verdict.challenge
                for s in range(20)}
        assert len(seen) > 1


class TestAcceptanceRates:
    def test_honest_completeness_interval(self):
        cfg = ProtocolConfig(n=8, k=1)
        tally = estimate_acceptance(cfg, trials=2000, seed=101,
                                    prover=HonestProver())
        theory = honest_completeness(8, 1)
        assert tally.ci_low <= theory <= tally.ci_high
        assert set(tally.reasons) <= {FailureReason.VER_FAIL}

    def test_parallel_completeness_interval(self):
        cfg = ProtocolConfig(n=8, k=4)
        tally = estimate_acceptance(cfg, trials=1200, seed=102,
                                    prover=HonestProver(),
                                    runner=run_prpv)
        theory = honest_completeness(8, 4)
        assert tally.ci_low <= theory <= tally.ci_high

    @pytest.mark.parametrize("k", [1, 2])
    def test_classical_prover_rate(self, k):
        cfg = ProtocolConfig(n=8, k=k)
        tally = estimate_acceptance(cfg, trials=2500, seed=103,
                                    prover=ClassicalProver())
        theory = classical_prover_rate(8, k)
        assert tally.ci_low <= theory <= tally.ci_high

    def test_trials_validated(self):
        with pytest.raises(InvalidTrials):
            estimate_acceptance(ProtocolConfig(), trials=0, seed=1,
                                prover=HonestProver())

    @pytest.mark.parametrize("actor", ["honest", "teleport"])
    def test_workers_do_not_change_estimate(self, pool_sizes, actor):
        """Two worker processes give the serial Estimate, histogram included."""
        cfg = ProtocolConfig(n=6, k=2)
        who = ({"prover": HonestProver()} if actor == "honest"
               else {"adversaries": make_attack("teleport", cfg)})
        serial = estimate_acceptance(cfg, trials=40, seed=104, **who)
        pooled = estimate_acceptance(cfg, trials=40, seed=104, workers=2, **who)
        assert pool_sizes == [2]
        assert pooled == serial


class TestHashChallengeVariant:
    def test_honest_run_accepts_and_challenge_is_oracle_output(self):
        cfg = ProtocolConfig(n=8, k=4, lam=16)
        out = run_roprpv(cfg, seed=55, prover=HonestProver(), record_trace=True)
        assert out.verdict.reason in (FailureReason.NONE, FailureReason.VER_FAIL)
        # recompute the challenge from the announced nonces
        _, pk_parts = decode_message(out.verdict.transcript["pk"])
        nonce0, _ = unpack_bits(pk_parts[1])
        oracle = RandomOracle(child_seed(55, 3), cfg.lam, cfg.k)
        nonce1 = None
        for seed_part in [child_seed(55, 1)]:
            nonce1 = Rng(seed_part).bits(cfg.lam)
        assert out.verdict.challenge == oracle.query(xor_bits(nonce0, nonce1))

    def test_completeness_matches_plain_protocol(self):
        cfg = ProtocolConfig(n=8, k=4)
        hashed = estimate_acceptance(cfg, trials=1200, seed=56,
                                     prover=HonestProver(), runner=run_roprpv)
        theory = honest_completeness(8, 4)
        assert hashed.ci_low <= theory <= hashed.ci_high

    def test_fresh_oracle_per_seed(self):
        cfg = ProtocolConfig(n=8, k=8, lam=16)
        challenges = {run_roprpv(cfg, seed=s, prover=HonestProver()).verdict.challenge
                      for s in range(16)}
        assert len(challenges) > 1

    def test_narrow_nonce_rejected(self):
        with pytest.raises(ConfigInvalid):
            ProtocolConfig(lam=4)


class TestRandomOracle:
    def test_consistency_and_width(self):
        oracle = RandomOracle(9, in_width=16, out_width=8)
        x = "0110100101101001"
        first = oracle.query(x)
        assert len(first) == 8 and set(first) <= {"0", "1"}
        assert oracle.query(x) == first

    def test_order_independent(self):
        a = RandomOracle(9, 8, 4)
        b = RandomOracle(9, 8, 4)
        xs = ["00000000", "11111111", "01010101"]
        va = [a.query(x) for x in xs]
        vb = [b.query(x) for x in reversed(xs)]
        assert va == list(reversed(vb))

    def test_distinct_seeds_disagree_somewhere(self):
        a = RandomOracle(1, 16, 16)
        b = RandomOracle(2, 16, 16)
        xs = [Rng(5).bits(16) for _ in range(8)]
        assert any(a.query(x) != b.query(x) for x in xs)

    def test_input_validation(self):
        oracle = RandomOracle(9, 8, 4)
        with pytest.raises(LengthMismatch):
            oracle.query("0101")
        with pytest.raises(LengthMismatch):
            oracle.query("0101010x")

    def test_wide_inputs_fold(self):
        oracle = RandomOracle(9, 96, 4)
        x = Rng(6).bits(96)
        assert oracle.query(x) == oracle.query(x)


class TestProofOfQuantumness:
    def test_transcript_order(self):
        result = run_poq(ProtocolConfig(n=8, k=2), seed=8, prover=HonestProver())
        assert [label for label, _ in result.transcript] == ["pk", "y", "b", "ans"]
        assert isinstance(result, PoQResult)

    def test_deterministic_per_seed(self):
        cfg = ProtocolConfig(n=6, k=3)
        a = run_poq(cfg, seed=12, prover=HonestProver())
        b = run_poq(cfg, seed=12, prover=HonestProver())
        assert a == b

    def test_quantum_rate(self):
        est = estimate_poq(ProtocolConfig(n=8, k=1), trials=2000, seed=200,
                           prover=HonestProver())
        assert est.ci_low <= honest_completeness(8, 1) <= est.ci_high

    def test_classical_rate(self):
        est = estimate_poq(ProtocolConfig(n=8, k=1), trials=2500, seed=201,
                           prover=ClassicalProver())
        assert est.ci_low <= classical_prover_rate(8, 1) <= est.ci_high
        # the gap to the quantum rate is the capability signal
        assert est.ci_high < honest_completeness(8, 1)

    def test_workers_do_not_change_estimate(self, pool_sizes):
        """Two worker processes give the serial Estimate."""
        cfg = ProtocolConfig(n=6, k=2)
        serial = estimate_poq(cfg, trials=40, seed=105, prover=HonestProver())
        pooled = estimate_poq(cfg, trials=40, seed=105, prover=HonestProver(),
                              workers=2)
        assert pool_sizes == [2]
        assert pooled == serial


class TestClassicalReplies:
    def test_y_deterministic_and_wellformed(self):
        puz = RepeatedPuzzle(6, 3)
        handle, _ = puz.keygen(Rng(3))
        ys1, xs1 = classical_reply_y(handle, tape_seed=7)
        ys2, xs2 = classical_reply_y(handle, tape_seed=7)
        assert ys1 == ys2 and xs1 == xs2
        assert all(len(y) == 6 for y in ys1)
        assert all(handle.parts[i].eval("0", xs1[i]) == ys1[i] for i in range(3))

    def test_ans_consumes_tape_uniformly(self):
        puz = RepeatedPuzzle(6, 3)
        handle, _ = puz.keygen(Rng(3))
        # equation guesses for a given instance do not depend on the
        # other challenge bits
        a = classical_reply_ans(handle, "100", tape_seed=7)
        b = classical_reply_ans(handle, "111", tape_seed=7)
        assert a[0] == b[0]

    def test_preimage_branch_always_verifies(self):
        puz = RepeatedPuzzle(6, 2)
        handle, td = puz.keygen(Rng(4))
        ys, _ = classical_reply_y(handle, tape_seed=9)
        answers = classical_reply_ans(handle, "00", tape_seed=9)
        assert puz.verify(td, ys, "00", answers)
