"""Timed-protocol tests: exact arrival algebra, verdict precedence,
acceptance rates, the hash-challenge variant, the timing-free
transform, the device contract, and arbitrary wire bytes."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posverif.adversary import ATTACK_NAMES, make_attack
from posverif.bits import (
    decode_parts,
    encode_parts,
    pack_bits,
    pack_u32,
    unpack_bits,
    xor_bits,
)
from posverif.errors import (
    ConfigInvalid,
    LengthMismatch,
    MalformedMessage,
)
from posverif.protocol import (
    ANS0_DEADLINE,
    ANS1_DEADLINE,
    ClassicalProver,
    FailureReason,
    HonestProver,
    PoQResult,
    ProtocolConfig,
    RandomOracle,
    TrialEnv,
    Verdict,
    Y0_DEADLINE,
    Y1_DEADLINE,
    _verifies,
    decode_message,
    encode_message,
    estimate_acceptance,
    estimate_poq,
    run_poq,
    run_prpv,
    run_roprpv,
)
from posverif.puzzle import (
    Equation,
    Preimage,
    RepeatedPuzzle,
    decode_answers,
    decode_obligations,
    encode_answers,
    encode_obligations,
)
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
        device = ClassicalProver()

        class Trial:
            def u1(self):
                y_bytes, _ = device.reply_y(env, tape0)
                return y_bytes, env.key_id.encode()

            def u2(self, challenge):
                return encode_parts(pack_bits(challenge))

            def u3(self, m_body, challenge):
                y_bytes, _ = device.reply_y(env, tape1)
                ans = device.reply_ans(env, tape1, challenge)
                return y_bytes, b"\xff" if pair.garble_ans else ans

            def u4(self, n_body, challenge):
                ans = device.reply_ans(env, tape0, challenge)
                return b"\xff" if pair.garble_ans else ans

        return Trial()


# One body per way a count-prefixed list can fail to decode.
_ONE = pack_u32(1)
MALFORMED_BODIES = {
    "empty": b"",
    "short_header": b"\x01\x00",
    "count_without_items": pack_u32(5),
    "length_overrun": _ONE + pack_u32(64) + b"\xff",
    "kind_only_answer": _ONE + b"\x00",
    "unknown_kind": _ONE + b"\x09\x00" + pack_bits("0101"),
    "bit_byte_7": _ONE + b"\x00\x07" + pack_bits("0101"),
    "trailing_byte": encode_answers((Preimage("0", "0101"),)) + b"\x00",
}


class RecordingPair:
    """Records which handler runs and the challenge it gets; every
    message it sends is empty."""

    name = "recording"

    def __init__(self):
        self.calls = []

    def new_trial(self, env, actor_seed):
        return self

    def u1(self):
        self.calls.append(("u1", None))
        return b"", b""

    def u2(self, challenge):
        self.calls.append(("u2", challenge))
        return b""

    def u3(self, m_body, challenge):
        self.calls.append(("u3", challenge))
        return b"", b""

    def u4(self, n_body, challenge):
        self.calls.append(("u4", challenge))
        return b""


class BytesPair:
    """Sends six given bodies: u1's Y and M, u2's N, u3's Y and A, u4's A."""

    name = "bytes"

    def __init__(self, bodies):
        self.bodies = bodies

    def new_trial(self, env, actor_seed):
        return self

    def u1(self):
        return self.bodies[0], self.bodies[1]

    def u2(self, challenge):
        return self.bodies[2]

    def u3(self, m_body, challenge):
        return self.bodies[3], self.bodies[4]

    def u4(self, n_body, challenge):
        return self.bodies[5]


def hostile_pair(body: bytes) -> BytesPair:
    """Both devices send one fixed body as obligations and as answers, in
    time and identically, so only verification can fail the run."""
    return BytesPair([body, b"", b"", body, body, body])


class TestConfig:
    def test_defaults_valid(self):
        cfg = ProtocolConfig()
        assert cfg.n == 8 and cfg.k == 1
        assert cfg.prover_position == Fraction(3, 2)

    @pytest.mark.parametrize("bad", [dict(n=1), dict(n=13), dict(k=0),
                                     dict(lam=7),
                                     dict(prover_position=Fraction(1, 2)),
                                     dict(prover_position=Fraction(2)),
                                     dict(prover_position=Fraction(5, 2)),
                                     dict(k=True), dict(hashed=0),
                                     dict(hashed=1), dict(hashed="yes"),
                                     dict(hashed=None)])
    def test_rejects_bad_parameters(self, bad):
        with pytest.raises(ConfigInvalid):
            ProtocolConfig(**bad)

    def test_rejects_float_position(self):
        with pytest.raises(TypeError):
            ProtocolConfig(prover_position=1.5)
        with pytest.raises(TypeError):
            ProtocolConfig(prover_position=True)
        with pytest.raises(TypeError):
            HonestProver(position=True)

    @pytest.mark.parametrize("bad", ["abc", "1/0", "", "3/"])
    def test_rejects_position_string_that_is_no_rational(self, bad):
        """A position string Fraction cannot parse, or one with a zero
        denominator, raises ConfigInvalid, not a bare ValueError or a
        ZeroDivisionError."""
        with pytest.raises(ConfigInvalid):
            ProtocolConfig(prover_position=bad)
        with pytest.raises(ConfigInvalid):
            HonestProver(position=bad)

    def test_one_puzzle_per_config(self, monkeypatch):
        """A config builds its RepeatedPuzzle once, and every run on it
        reuses that puzzle; the puzzle is no part of the config's value."""
        cfg = ProtocolConfig(n=4, k=2)
        hashed = ProtocolConfig(n=4, k=2, hashed=True)
        built = []
        init = RepeatedPuzzle.__init__

        def counting_init(self, n, k):
            built.append((n, k))
            init(self, n, k)

        monkeypatch.setattr(RepeatedPuzzle, "__init__", counting_init)
        run_prpv(cfg, 1, prover=HonestProver())
        run_prpv(hashed, 2, prover=HonestProver())
        # the benchmark's hashed entry point builds no config of its own
        run_roprpv(cfg, 2, prover=HonestProver())
        run_poq(cfg, 3, prover=HonestProver())
        assert built == []
        assert hashed != cfg

        twin = ProtocolConfig(n=4, k=2)
        assert built == [(4, 2)] and twin.puzzle is not cfg.puzzle
        assert twin == cfg and hash(twin) == hash(cfg)
        assert repr(cfg) == ("ProtocolConfig(n=4, k=2, lam=16, "
                             "prover_position=Fraction(3, 2), hashed=False)")
        wider = dataclasses.replace(cfg, k=3)
        assert (wider.puzzle.n, wider.puzzle.k) == (4, 3)
        with pytest.raises(TypeError):
            ProtocolConfig(puzzle=cfg.puzzle)

        # the config, puzzle included, still pickles to worker processes
        serial = estimate_acceptance(cfg, 12, 5, prover=HonestProver())
        assert estimate_acceptance(cfg, 12, 5, prover=HonestProver(),
                                   workers=2) == serial

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
        with pytest.raises(MalformedMessage):
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


class TestDeviceContract:
    """Each device calls its handler for every message kind it hears,
    with the challenge as that device knows it."""

    @pytest.mark.parametrize("k", [1, 3])
    def test_attack_handlers_run_once_in_order(self, k):
        pair = RecordingPair()
        verdict = run_prpv(ProtocolConfig(n=4, k=k), seed=60 + k,
                           adversaries=pair).verdict
        assert len(verdict.challenge) == k
        assert pair.calls == [("u1", None)] + [
            (u, verdict.challenge) for u in ("u2", "u3", "u4")]

    @pytest.mark.parametrize("k", [1, 3])
    def test_hashed_right_device_answers_v1_before_the_challenge(self, k):
        """Under hashing the right device hears nonce0 only at t=3, so u2
        runs on V1's broadcast at t=1 without the challenge."""
        pair = RecordingPair()
        verdict = run_prpv(ProtocolConfig(n=4, k=k, hashed=True), seed=60 + k,
                           adversaries=pair).verdict
        assert len(verdict.challenge) == k
        assert pair.calls == [("u1", None), ("u2", None),
                              ("u3", verdict.challenge),
                              ("u4", verdict.challenge)]

    # the ids name each variant's entry point, so that test names stay
    @pytest.mark.parametrize("hashed", [False, True],
                             ids=["run_prpv", "run_roprpv"])
    @pytest.mark.parametrize("pos", [Fraction(5, 4), Fraction(3, 2),
                                     Fraction(7, 4), Fraction(2),
                                     Fraction(9, 4)])
    def test_prover_sends_one_obligation_and_one_answer(self, hashed, pos):
        """The key reaches the prover at p and V1's broadcast at 4 - p:
        key first inside the segment, both at once at 2, broadcast first
        at 9/4.  Obligations go out on the key, answers once both are
        in."""
        out = run_prpv(ProtocolConfig(n=4, k=2, hashed=hashed), seed=62,
                       prover=HonestProver(position=pos), record_trace=True)
        sent = [(e.time, e.payload[:1]) for e in out.trace.events
                if e.kind == "emit" and e.party == 2]
        assert sent == [(pos, b"Y"), (max(pos, 4 - pos), b"A")]


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
                                    prover=HonestProver())
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
        with pytest.raises(ConfigInvalid, match="trials must be >= 1, got 0"):
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
        cfg = ProtocolConfig(n=8, k=4, lam=16, hashed=True)
        out = run_prpv(cfg, seed=55, prover=HonestProver(), record_trace=True)
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
        cfg = ProtocolConfig(n=8, k=4, hashed=True)
        hashed = estimate_acceptance(cfg, trials=1200, seed=56,
                                     prover=HonestProver())
        theory = honest_completeness(8, 4)
        assert hashed.ci_low <= theory <= hashed.ci_high

    def test_fresh_oracle_per_seed(self):
        cfg = ProtocolConfig(n=8, k=8, lam=16, hashed=True)
        challenges = {run_prpv(cfg, seed=s, prover=HonestProver()).verdict.challenge
                      for s in range(16)}
        assert len(challenges) > 1

    def test_narrow_nonce_rejected(self):
        with pytest.raises(ConfigInvalid):
            ProtocolConfig(lam=4)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("actor", ["honest", "classical", *(
        name for name in ATTACK_NAMES if name != "teleport")])
    def test_run_roprpv_is_run_prpv_on_a_hashed_config(self, actor, k):
        """The hashed entry point the benchmark times and run_prpv on the
        config with hashed set give the same verdict bytes and trace."""
        cfg = ProtocolConfig(k=k)
        party = ({"prover": HonestProver()} if actor == "honest"
                 else {"prover": ClassicalProver()} if actor == "classical"
                 else {"adversaries": make_attack(actor, cfg)})
        hashed = dataclasses.replace(cfg, hashed=True)
        for seed in range(8):
            named = run_roprpv(cfg, seed, record_trace=True, **party)
            field = run_prpv(hashed, seed, record_trace=True, **party)
            assert (named.verdict.transcript_bytes()
                    == field.verdict.transcript_bytes())
            assert named.trace.to_json_lines() == field.trace.to_json_lines()


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

    @pytest.mark.parametrize("n, k", [(4, 1), (4, 3), (8, 2)])
    @pytest.mark.parametrize("prover", [HonestProver(), ClassicalProver()],
                             ids=["honest", "classical"])
    def test_timed_run_without_the_clock(self, n, k, prover):
        """The necessity direction: on the same seed, the timing-free run
        sees the bytes the timed run's V0 sees, and decides alike."""
        cfg = ProtocolConfig(n=n, k=k)
        for seed in range(100):
            poq = run_poq(cfg, seed, prover=prover)
            verdict = run_prpv(cfg, seed, prover=prover).verdict
            body = {label: decode_message(verdict.transcript[label])[1][0]
                    for label in ("pk", "y0", "ans0")}
            assert dict(poq.transcript) == {
                "pk": body["pk"], "y": body["y0"],
                "b": pack_bits(verdict.challenge), "ans": body["ans0"]}
            assert poq.accept == verdict.accept

    def test_hashed_config_rejected(self):
        """The timing-free protocol has no nonces to hash, so a hashed
        config is an error rather than a quietly plain run."""
        cfg = ProtocolConfig(n=4, k=2, hashed=True)
        with pytest.raises(ConfigInvalid, match="no hashed variant"):
            run_poq(cfg, 1, prover=HonestProver())
        with pytest.raises(ConfigInvalid, match="no hashed variant"):
            estimate_poq(cfg, trials=4, seed=1, prover=ClassicalProver())

    def test_workers_do_not_change_estimate(self, pool_sizes):
        """Two worker processes give the serial Estimate."""
        cfg = ProtocolConfig(n=6, k=2)
        serial = estimate_poq(cfg, trials=40, seed=105, prover=HonestProver())
        pooled = estimate_poq(cfg, trials=40, seed=105, prover=HonestProver(),
                              workers=2)
        assert pool_sizes == [2]
        assert pooled == serial


class TestClassicalReplies:
    """ClassicalProver's replies, decoded from the bytes it sends."""

    @staticmethod
    def _env(k: int, seed: int):
        puz = RepeatedPuzzle(6, k)
        handle, td = puz.keygen(Rng(seed))
        return TrialEnv(puz, handle, td), td

    def test_y_deterministic_and_wellformed(self):
        env, _ = self._env(3, 3)
        prover = ClassicalProver()
        y_bytes, tape = prover.reply_y(env, 7)
        assert prover.reply_y(env, 7) == (y_bytes, tape)
        ys = decode_obligations(y_bytes)
        # the committed preimages come back as the challenge-0 answers
        xs = [a.v for a in decode_answers(prover.reply_ans(env, tape, "000"))]
        assert all(len(y) == 6 for y in ys)
        assert all(env.handle[i].eval("0", xs[i]) == ys[i] for i in range(3))

    def test_ans_consumes_tape_uniformly(self):
        env, _ = self._env(3, 3)
        prover = ClassicalProver()
        # equation guesses for a given instance do not depend on the
        # other challenge bits
        a = decode_answers(prover.reply_ans(env, 7, "100"))
        b = decode_answers(prover.reply_ans(env, 7, "111"))
        assert a[0] == b[0]

    def test_preimage_branch_always_verifies(self):
        env, td = self._env(2, 4)
        prover = ClassicalProver()
        y_bytes, tape = prover.reply_y(env, 9)
        answers = decode_answers(prover.reply_ans(env, tape, "00"))
        assert env.puzzle.verify(td, decode_obligations(y_bytes), "00", answers)


class TestMalformedInput:
    """Bytes that do not decode raise MalformedMessage and lose the run;
    any other error inside verification propagates."""

    @pytest.mark.parametrize("decode", [decode_answers, decode_obligations])
    @pytest.mark.parametrize("body", MALFORMED_BODIES.values(),
                             ids=MALFORMED_BODIES.keys())
    def test_list_decoders_raise_one_type(self, decode, body):
        with pytest.raises(MalformedMessage):
            decode(body)

    @pytest.mark.parametrize("decode, body", [
        (unpack_bits, b""),
        (unpack_bits, b"\x01\x00"),
        (unpack_bits, pack_u32(64) + b"\xff"),
        (decode_parts, b"\x01\x00"),
        (decode_parts, pack_u32(5)),
        (decode_message, b""),
        (decode_message, b"Y" + pack_u32(5)),
    ], ids=["bits_empty", "bits_short_header", "bits_length_overrun",
            "parts_short_header", "parts_length_overrun", "message_empty",
            "message_part_overrun"])
    def test_framing_decoders_raise_one_type(self, decode, body):
        with pytest.raises(MalformedMessage):
            decode(body)

    # the ids name each variant's entry point, so that test names stay
    @pytest.mark.parametrize("hashed", [False, True],
                             ids=["run_prpv", "run_roprpv"])
    @pytest.mark.parametrize("body", MALFORMED_BODIES.values(),
                             ids=MALFORMED_BODIES.keys())
    def test_hostile_pair_fails_verification(self, hashed, body):
        out = run_prpv(ProtocolConfig(n=4, k=2, hashed=hashed), seed=41,
                       adversaries=hostile_pair(body))
        assert out.verdict.reason is FailureReason.VER_FAIL

    def test_fault_inside_verify_propagates(self, monkeypatch):
        def broken_verify(*args):
            raise IndexError("fault inside verify")

        monkeypatch.setattr(RepeatedPuzzle, "verify", broken_verify)
        cfg = ProtocolConfig(n=4, k=2)
        with pytest.raises(IndexError):
            run_prpv(cfg, seed=1, prover=HonestProver())
        with pytest.raises(IndexError):
            run_poq(cfg, seed=1, prover=HonestProver())


# Arbitrary bytes, plus bytes shaped like the wire formats so that the
# decoders get past their headers: framed parts, one kind byte before
# framed parts, and well-formed obligation and answer lists of any width.
BITS = st.text("01", max_size=6)
WIRE_BYTES = st.one_of(
    st.binary(max_size=40),
    st.lists(st.binary(max_size=12), max_size=4).map(lambda ps: encode_parts(*ps)),
    st.tuples(st.binary(min_size=1, max_size=1),
              st.lists(st.binary(max_size=12), max_size=3)).map(
        lambda t: t[0] + encode_parts(*t[1])),
    st.lists(BITS, max_size=3).map(encode_obligations),
    st.lists(st.builds(Preimage, st.sampled_from("01"), BITS)
             | st.builds(Equation, st.sampled_from("01"), BITS),
             max_size=3).map(encode_answers),
    st.sampled_from(list(MALFORMED_BODIES.values())),
)
# Six pair bodies, either all drawn apart or with both verifiers sent the
# same Y and A, so that the run gets past the mismatch check.
PAIR_BODIES = st.lists(WIRE_BYTES, min_size=6, max_size=6) | st.lists(
    WIRE_BYTES, min_size=4, max_size=4).map(
        lambda b: [b[0], b[1], b[2], b[0], b[3], b[3]])
_PUZZLE = RepeatedPuzzle(4, 2)
_, _TRAPDOOR = _PUZZLE.keygen(Rng(44))


class TestArbitraryBytes:
    """No byte string crashes the wire decoders, the verifiers' decision
    or a run."""

    @given(WIRE_BYTES)
    @settings(max_examples=300, derandomize=True)
    def test_decoders_raise_only_malformed(self, data):
        for decode in (decode_obligations, decode_answers, decode_parts,
                       unpack_bits, decode_message):
            try:
                decode(data)
            except MalformedMessage:
                pass

    @given(WIRE_BYTES, WIRE_BYTES, st.text("01", min_size=2, max_size=2))
    @settings(max_examples=200, derandomize=True)
    def test_verifies_returns_bool(self, y_bytes, ans_bytes, challenge):
        verdict = _verifies(_PUZZLE, _TRAPDOOR, y_bytes, challenge, ans_bytes)
        assert isinstance(verdict, bool)

    @given(PAIR_BODIES)
    @settings(max_examples=100, derandomize=True)
    def test_arbitrary_pair_gets_a_reason(self, bodies):
        for hashed in (False, True):
            out = run_prpv(ProtocolConfig(n=4, k=2, hashed=hashed), seed=45,
                           adversaries=BytesPair(bodies))
            assert isinstance(out.verdict.reason, FailureReason)
