"""Timing-constrained verification on a line segment.

Two verifiers sit at positions 0 and 3 on a one-dimensional line and try
to certify that a prover is physically located inside the segment.  V0
broadcasts a puzzle key at time 0 and V1 broadcasts a challenge at time
1; the prover must get obligations back to V0 strictly before time 4 and
challenge answers to both verifiers by fixed deadlines.  Because signals
travel at unit speed, an honest prover at position p in [1, 2) meets
every deadline with slack while a single device outside the segment
cannot.

The module also provides a hash-challenge variant where the challenge is
derived from a public random function applied to two verifier nonces,
and a timing-free interactive protocol reusing the same message flow as
a test of quantum capability.  Both run the same provers: HonestProver
and ClassicalProver answer through reply_y/reply_ans whether or not a
clock is attached, so dropping the timing layer from a position prover
leaves exactly a proof-of-quantumness prover.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .bits import decode_parts, encode_parts, pack_bits, unpack_bits, xor_bits
from .errors import ConfigInvalid, LengthMismatch, TagMismatch
from .puzzle import (
    N_MAX,
    N_MIN,
    Answer,
    Equation,
    MultiHandle,
    MultiTrapdoor,
    Preimage,
    RepeatedPuzzle,
    decode_answers,
    decode_obligations,
    encode_answers,
    encode_obligations,
)
from .rng import Rng, child_seed, mix64
from .spacetime import (
    Coordinate,
    Emission,
    PartyBehavior,
    Simulation,
    Trace,
    as_coord,
)
from .stats import Estimate, tally

V0_POSITION = Fraction(0)
V1_POSITION = Fraction(3)

# Verifier deadlines, in the same units as positions (speed of signal = 1).
Y0_DEADLINE = Fraction(4)    # obligations at V0: strictly earlier
Y1_DEADLINE = Fraction(3)    # obligations at V1: exactly on time
ANS0_DEADLINE = Fraction(4)  # answers at V0: exactly on time
ANS1_DEADLINE = Fraction(5)  # answers at V1: at or before

RUN_UNTIL = Fraction(6)

# Message kind prefixes.
KIND_KEY = b"K"        # verifier 0 announcement (key id, plus nonce in the
                       # hash-challenge variant)
KIND_CHALLENGE = b"B"  # verifier 1 challenge bits
KIND_NONCE = b"X"      # verifier 1 nonce (hash-challenge variant)
KIND_OBLIGATION = b"Y"
KIND_ANSWER = b"A"
KIND_LEFT = b"M"       # private left-to-right adversary message
KIND_RIGHT = b"N"      # private right-to-left adversary message


def encode_message(kind: bytes, *parts: bytes) -> bytes:
    """Frame a protocol message as a kind byte plus length-prefixed parts."""
    if len(kind) != 1:
        raise ValueError("message kind must be a single byte")
    return kind + encode_parts(*parts)


def decode_message(payload: bytes) -> tuple[bytes, list[bytes]]:
    if not payload:
        raise ValueError("empty message")
    return payload[:1], decode_parts(payload[1:])


@dataclass(frozen=True)
class ProtocolConfig:
    """Parameters of one protocol run.

    n is the puzzle width, k the number of parallel instances, lam the
    nonce width of the hash-challenge variant, and prover_position the
    location an honest prover occupies.  Placement must fall inside
    [1, 2): a prover in that window receives the key before the
    challenge and can meet all four response deadlines.
    """

    n: int = 8
    k: int = 1
    lam: int = 16
    prover_position: Coordinate = Fraction(3, 2)

    def __post_init__(self):
        if not isinstance(self.n, int) or not N_MIN <= self.n <= N_MAX:
            raise ConfigInvalid(
                f"puzzle width n={self.n!r} outside [{N_MIN}, {N_MAX}]")
        if not isinstance(self.k, int) or self.k < 1:
            raise ConfigInvalid(f"instance count k={self.k!r} must be >= 1")
        if not isinstance(self.lam, int) or self.lam < 8:
            raise ConfigInvalid(f"nonce width lam={self.lam!r} must be >= 8")
        object.__setattr__(self, "prover_position", as_coord(self.prover_position))
        if not Fraction(1) <= self.prover_position < Fraction(2):
            raise ConfigInvalid(
                f"prover position {self.prover_position} outside [1, 2)"
            )


class FailureReason(enum.Enum):
    """First check a run failed, in evaluation order."""

    TIMING_Y0 = "timing_y0"
    TIMING_Y1 = "timing_y1"
    TIMING_ANS0 = "timing_ans0"
    TIMING_ANS1 = "timing_ans1"
    MISMATCH = "mismatch"
    VER_FAIL = "ver_fail"
    NONE = "none"


@dataclass(frozen=True)
class Verdict:
    accept: bool
    reason: FailureReason
    challenge: str | None
    timings: dict[str, Fraction | None]
    transcript: dict[str, bytes | None]

    def transcript_bytes(self) -> bytes:
        """Canonical encoding of what the verifiers observed and decided."""
        fields = []
        for label in ("pk", "y0", "y1", "ans0", "ans1"):
            body = self.transcript.get(label)
            fields.append(label.encode() + (b"=" + body if body is not None else b"!"))
        challenge = (self.challenge or "").encode()
        verdict = f"{int(self.accept)}:{self.reason.value}".encode()
        return encode_parts(*fields, challenge, verdict)


@dataclass
class PRPVOutcome:
    verdict: Verdict
    trace: Trace


class RandomOracle:
    """Public random function from lam-bit strings to k-bit strings.

    Each input gets its own stream seeded from the oracle seed and the
    input, so values at distinct inputs are independent and query order
    never matters.
    """

    def __init__(self, seed: int, in_width: int, out_width: int):
        self.seed = seed & 0xFFFFFFFFFFFFFFFF
        self.in_width = in_width
        self.out_width = out_width

    def query(self, x: str) -> str:
        if len(x) != self.in_width or set(x) - {"0", "1"}:
            raise LengthMismatch(
                f"oracle input must be {self.in_width} bits, got {x!r}"
            )
        acc = self.seed
        value = int(x, 2)
        while True:
            acc = mix64(acc ^ (value & 0xFFFFFFFFFFFFFFFF))
            value >>= 64
            if not value:
                break
        return Rng(acc).bits(self.out_width)


class TrialEnv:
    """Key material context shared by the parties of one run.

    Exposes the public handle, key lookup by announced id, an obligation
    service that mints claw states against the key, and the run's random
    oracle (None in the plain variant).  The trapdoor itself stays with
    the verdict logic and is not reachable through this object.
    """

    def __init__(self, puzzle: RepeatedPuzzle, handle: MultiHandle,
                 trapdoor: MultiTrapdoor, oracle: RandomOracle | None = None):
        self.puzzle = puzzle
        self.handle = handle
        self._trapdoor = trapdoor
        self.oracle = oracle

    def resolve(self, key_id: str) -> MultiHandle:
        if key_id != self.handle.key_id:
            raise ConfigInvalid(f"unknown key id {key_id!r}")
        return self.handle

    def obligate(self, rng: Rng):
        return self.puzzle.obligate(self.handle, self._trapdoor, rng)


# ---------------------------------------------------------------------------
# Party behaviours


class _Verifier(PartyBehavior):
    """Broadcasts payload at its alarm time; records obligation and answer
    arrivals."""

    def __init__(self, alarm_time: Fraction, payload: bytes):
        self._alarm_time = alarm_time
        self._payload = payload
        self.sent: bytes | None = None
        self.y_msgs: list[tuple[Fraction, bytes]] = []
        self.ans_msgs: list[tuple[Fraction, bytes]] = []

    def alarms(self):
        return (self._alarm_time,)

    def on_alarm(self, time):
        self.sent = self._payload
        return (Emission(self.sent),)

    def on_receive(self, time, message):
        kind = message.payload[:1]
        if kind == KIND_OBLIGATION:
            self.y_msgs.append((time, message.payload))
        elif kind == KIND_ANSWER:
            self.ans_msgs.append((time, message.payload))
        return ()


class HonestProver:
    """Honest prover: obligates on key receipt, answers on challenge.

    The claw states and the actor stream travel in the memo from reply_y
    to reply_ans, so one instance serves any number of runs.  position
    overrides the configured placement; values outside [1, 2) are
    allowed here so that runs can demonstrate how mispositioned devices
    miss deadlines.
    """

    def __init__(self, position: Coordinate | None = None):
        self.position = None if position is None else as_coord(position)

    def reply_y(self, env: TrialEnv, actor_seed: int):
        rng = Rng(actor_seed)
        ys, states = env.obligate(rng)
        return encode_obligations(ys), (ys, states, rng)

    def reply_ans(self, env: TrialEnv, memo, challenge: str) -> bytes:
        ys, states, rng = memo
        return encode_answers(
            env.puzzle.solve(env.handle, ys, states, challenge, rng))


class ClassicalProver:
    """Deterministic challenge-response device with no quantum memory.

    Every reply is a function of the public messages and a random tape,
    the run's actor seed: obligations commit to preimages of the
    0-branch, challenge bits asking for an equation are answered with a
    tape guess.  It sits at the configured prover position.
    """

    position = None

    def reply_y(self, env: TrialEnv, actor_seed: int):
        ys, _ = classical_reply_y(env.handle, actor_seed)
        return encode_obligations(ys), actor_seed

    def reply_ans(self, env: TrialEnv, tape: int, challenge: str) -> bytes:
        return encode_answers(classical_reply_ans(env.handle, challenge, tape))


def _tape_preimages(handle: MultiHandle, tape_seed: int) -> tuple[str, ...]:
    """The classical prover's 0-branch preimages x_i, one per instance."""
    tape = Rng(child_seed(tape_seed, 0))
    return tuple(tape.bits(part.n) for part in handle.parts)


def classical_reply_y(handle: MultiHandle, tape_seed: int):
    """Obligations of the classical prover: y_i = f_0(x_i) for tape x_i."""
    xs = _tape_preimages(handle, tape_seed)
    ys = tuple(part.eval("0", x) for part, x in zip(handle.parts, xs))
    return ys, xs


def classical_reply_ans(handle: MultiHandle, challenge: str,
                        tape_seed: int) -> tuple[Answer, ...]:
    """Challenge answers from the same tape as classical_reply_y.

    Preimage requests are met with the stored x_i; equation requests get
    a uniform tape guess.  Guesses are drawn for every instance so tape
    consumption does not depend on the challenge.
    """
    xs = _tape_preimages(handle, tape_seed)
    guess_tape = Rng(child_seed(tape_seed, 1))
    guesses = [(guess_tape.bits(1), guess_tape.bits(part.n))
               for part in handle.parts]
    answers: list[Answer] = []
    for i in range(len(handle.parts)):
        if challenge[i] == "0":
            answers.append(Preimage("0", xs[i]))
        else:
            c, d = guesses[i]
            answers.append(Equation(c, d))
    return tuple(answers)


class _ProverBehavior(PartyBehavior):
    """Places a prover on the line.

    Arrival order of key and challenge depends on the position, so both
    are buffered and each reply is emitted as soon as its inputs exist.
    """

    def __init__(self, prover, env: TrialEnv, actor_seed: int):
        self.prover = prover
        self.env = env
        self.actor_seed = actor_seed
        self._challenge: str | None = None
        self._nonce0: str | None = None
        self._nonce1: str | None = None
        self._obligated = False
        self._answered = False
        self._memo = None

    def on_receive(self, time, message):
        kind, parts = decode_message(message.payload)
        out = []
        if kind == KIND_KEY and not self._obligated:
            self.env.resolve(parts[0].decode())
            if len(parts) > 1:
                self._nonce0, _ = unpack_bits(parts[1])
            self._obligated = True
            y_bytes, self._memo = self.prover.reply_y(self.env, self.actor_seed)
            out.append(Emission(encode_message(KIND_OBLIGATION, y_bytes)))
        elif kind == KIND_CHALLENGE:
            self._challenge, _ = unpack_bits(parts[0])
        elif kind == KIND_NONCE:
            self._nonce1, _ = unpack_bits(parts[0])
        if (self._challenge is None and self._nonce0 is not None
                and self._nonce1 is not None):
            self._challenge = self.env.oracle.query(xor_bits(self._nonce0, self._nonce1))
        if self._obligated and self._challenge is not None and not self._answered:
            self._answered = True
            ans_bytes = self.prover.reply_ans(self.env, self._memo,
                                              self._challenge)
            out.append(Emission(encode_message(KIND_ANSWER, ans_bytes)))
        return out


class _LeftAdversaryBehavior(PartyBehavior):
    """Adapter placing adversary handlers u1/u4 at verifier 0's position."""

    def __init__(self, trial, env: TrialEnv, v0_pid: int):
        self.trial = trial
        self.env = env
        self.v0_pid = v0_pid
        self.a1_pid: int | None = None

    def on_receive(self, time, message):
        kind = message.payload[:1]
        if kind == KIND_KEY:
            key_id = decode_message(message.payload)[1][0].decode()
            y_bytes, m_bytes = self.trial.u1(self.env.resolve(key_id))
            return (
                Emission(encode_message(KIND_OBLIGATION, y_bytes),
                         target=self.v0_pid),
                Emission(KIND_LEFT + m_bytes, target=self.a1_pid),
            )
        if kind == KIND_RIGHT:
            ans_bytes = self.trial.u4(message.payload[1:])
            return (Emission(encode_message(KIND_ANSWER, ans_bytes),
                             target=self.v0_pid),)
        return ()


class _RightAdversaryBehavior(PartyBehavior):
    """Adapter placing adversary handlers u2/u3 at verifier 1's position."""

    def __init__(self, trial, v1_pid: int):
        self.trial = trial
        self.v1_pid = v1_pid
        self.a0_pid: int | None = None

    def on_receive(self, time, message):
        kind = message.payload[:1]
        if kind in (KIND_CHALLENGE, KIND_NONCE):
            # known defect: an X nonce reaches u2 as if it were the challenge
            bits, _ = unpack_bits(decode_message(message.payload)[1][0])
            n_bytes = self.trial.u2(bits)
            return (Emission(KIND_RIGHT + n_bytes, target=self.a0_pid),)
        if kind == KIND_LEFT:
            y_bytes, ans_bytes = self.trial.u3(message.payload[1:])
            return (
                Emission(encode_message(KIND_OBLIGATION, y_bytes),
                         target=self.v1_pid),
                Emission(encode_message(KIND_ANSWER, ans_bytes),
                         target=self.v1_pid),
            )
        return ()


# ---------------------------------------------------------------------------
# Run drivers


def _first(arrivals: list[tuple[Fraction, bytes]]):
    return arrivals[0] if arrivals else (None, None)


def _has_conflict(arrivals: list[tuple[Fraction, bytes]]) -> bool:
    return any(payload != arrivals[0][1] for _, payload in arrivals[1:])


def _verifies(puzzle: RepeatedPuzzle, trapdoor: MultiTrapdoor, y_bytes: bytes,
              challenge: str, ans_bytes: bytes) -> bool:
    """The verifiers' decision on encoded obligations and answers; bytes
    that fail to decode or answers of the wrong kind or width lose."""
    try:
        return puzzle.verify(trapdoor, decode_obligations(y_bytes), challenge,
                             decode_answers(ans_bytes))
    except (ValueError, IndexError, struct.error, LengthMismatch, TagMismatch):
        return False


def _assemble_verdict(puzzle: RepeatedPuzzle, trapdoor: MultiTrapdoor,
                      v0: _Verifier, v1: _Verifier,
                      challenge: str | None) -> Verdict:
    y0_time, y0 = _first(v0.y_msgs)
    y1_time, y1 = _first(v1.y_msgs)
    ans0_time, ans0 = _first(v0.ans_msgs)
    ans1_time, ans1 = _first(v1.ans_msgs)
    timings = {"y0": y0_time, "y1": y1_time, "ans0": ans0_time, "ans1": ans1_time}
    transcript = {"pk": v0.sent, "y0": y0, "y1": y1, "ans0": ans0, "ans1": ans1}

    reason = FailureReason.NONE
    if y0_time is None or not y0_time < Y0_DEADLINE:
        reason = FailureReason.TIMING_Y0
    elif y1_time is None or y1_time != Y1_DEADLINE:
        reason = FailureReason.TIMING_Y1
    elif ans0_time is None or ans0_time != ANS0_DEADLINE:
        reason = FailureReason.TIMING_ANS0
    elif ans1_time is None or not ans1_time <= ANS1_DEADLINE:
        reason = FailureReason.TIMING_ANS1
    elif (y0 != y1 or ans0 != ans1 or _has_conflict(v0.y_msgs)
          or _has_conflict(v1.y_msgs) or _has_conflict(v0.ans_msgs)
          or _has_conflict(v1.ans_msgs)):
        reason = FailureReason.MISMATCH
    elif not _verifies(puzzle, trapdoor, decode_message(y0)[1][0], challenge,
                       decode_message(ans0)[1][0]):
        reason = FailureReason.VER_FAIL
    return Verdict(
        accept=reason is FailureReason.NONE,
        reason=reason,
        challenge=challenge,
        timings=timings,
        transcript=transcript,
    )


def _run_timed(config: ProtocolConfig, seed: int, prover, adversaries,
               record_trace: bool, hashed: bool) -> PRPVOutcome:
    """Common driver for the plain and hash-challenge protocols."""
    if (prover is None) == (adversaries is None):
        raise ConfigInvalid("supply exactly one of prover or adversaries")

    puzzle = RepeatedPuzzle(config.n, config.k)
    v0_rng = Rng(child_seed(seed, 0))
    v1_rng = Rng(child_seed(seed, 1))
    actor_seed = child_seed(seed, 2)
    oracle = RandomOracle(child_seed(seed, 3), config.lam, config.k) if hashed else None

    handle, trapdoor = puzzle.keygen(v0_rng)
    env = TrialEnv(puzzle, handle, trapdoor, oracle)

    key_id = handle.key_id.encode()
    if hashed:
        nonce0 = v0_rng.bits(config.lam)
        nonce1 = v1_rng.bits(config.lam)
        challenge = oracle.query(xor_bits(nonce0, nonce1))
        key_msg = encode_message(KIND_KEY, key_id, pack_bits(nonce0))
        challenge_msg = encode_message(KIND_NONCE, pack_bits(nonce1))
    else:
        challenge = puzzle.sample_challenge(v1_rng)
        key_msg = encode_message(KIND_KEY, key_id)
        challenge_msg = encode_message(KIND_CHALLENGE, pack_bits(challenge))

    sim = Simulation(record_trace=record_trace)
    v0 = _Verifier(alarm_time=Fraction(0), payload=key_msg)
    v1 = _Verifier(alarm_time=Fraction(1), payload=challenge_msg)
    v0_pid = sim.add_party(V0_POSITION, v0)
    v1_pid = sim.add_party(V1_POSITION, v1)

    if prover is not None:
        position = prover.position
        if position is None:
            position = config.prover_position
        sim.add_party(position, _ProverBehavior(prover, env, actor_seed))
    else:
        trial = adversaries.new_trial(env, actor_seed)
        left = _LeftAdversaryBehavior(trial, env, v0_pid)
        right = _RightAdversaryBehavior(trial, v1_pid)
        right.a0_pid = sim.add_party(V0_POSITION, left)
        left.a1_pid = sim.add_party(V1_POSITION, right)

    trace = sim.run(RUN_UNTIL)
    verdict = _assemble_verdict(puzzle, trapdoor, v0, v1, challenge)
    return PRPVOutcome(verdict=verdict, trace=trace)


def run_prpv(config: ProtocolConfig, seed: int, *, prover=None,
             adversaries=None, record_trace: bool = False) -> PRPVOutcome:
    """One run of the timed protocol with a uniform k-bit challenge.

    Exactly one of prover (HonestProver or ClassicalProver) and
    adversaries (a two-device attack pair) must be supplied.  All
    randomness derives from seed, so a run is reproducible bit for bit.
    """
    return _run_timed(config, seed, prover, adversaries, record_trace,
                      hashed=False)


def run_roprpv(config: ProtocolConfig, seed: int, *, prover=None,
               adversaries=None, record_trace: bool = False) -> PRPVOutcome:
    """One run of the hash-challenge variant.

    Both verifiers broadcast lam-bit nonces and the k-bit challenge is
    the public random function applied to their XOR, so neither verifier
    alone fixes it.  A fresh oracle is derived per run from the seed.
    """
    return _run_timed(config, seed, prover, adversaries, record_trace,
                      hashed=True)


# ---------------------------------------------------------------------------
# Timing-free transform


@dataclass(frozen=True)
class PoQResult:
    accept: bool
    transcript: tuple[tuple[str, bytes], ...]


def run_poq(config: ProtocolConfig, seed: int, *, prover) -> PoQResult:
    """One run of the timing-free four messages (key, obligations,
    challenge, answers) against prover (HonestProver or ClassicalProver),
    seeded like a timed run.  Acceptance uses the same verification as
    the timed runs, so quantum and classical success rates carry over
    unchanged."""
    puzzle = RepeatedPuzzle(config.n, config.k)
    handle, trapdoor = puzzle.keygen(Rng(child_seed(seed, 0)))
    env = TrialEnv(puzzle, handle, trapdoor)

    y_bytes, memo = prover.reply_y(env, child_seed(seed, 2))
    challenge = puzzle.sample_challenge(Rng(child_seed(seed, 1)))
    ans_bytes = prover.reply_ans(env, memo, challenge)
    transcript = (
        ("pk", handle.key_id.encode()),
        ("y", y_bytes),
        ("b", pack_bits(challenge)),
        ("ans", ans_bytes),
    )
    accept = _verifies(puzzle, trapdoor, y_bytes, challenge, ans_bytes)
    return PoQResult(accept=accept, transcript=transcript)


# ---------------------------------------------------------------------------
# Bulk estimation


def _acceptance_trial(config, runner, prover, adversaries, seed) -> FailureReason:
    return runner(config, seed, prover=prover,
                  adversaries=adversaries).verdict.reason


def estimate_acceptance(config: ProtocolConfig, trials: int, seed: int, *,
                        runner=run_prpv, prover=None, adversaries=None,
                        workers: int = 1) -> Estimate:
    """Acceptance frequency over independent seeded runs with a Wilson
    95 percent interval and a failure-reason histogram.  With workers > 1
    the prover or attack pair is pickled to each worker process."""
    counts = tally(partial(_acceptance_trial, config, runner, prover,
                           adversaries), trials, seed, workers)
    return Estimate.of(counts, FailureReason.NONE)


def _poq_trial(config, prover, seed) -> bool:
    return run_poq(config, seed, prover=prover).accept


def estimate_poq(config: ProtocolConfig, trials: int, seed: int, *, prover,
                 workers: int = 1) -> Estimate:
    """Acceptance frequency of the timing-free protocol, estimated like
    estimate_acceptance; reasons counts the rejected runs under False."""
    counts = tally(partial(_poq_trial, config, prover), trials, seed, workers)
    return Estimate.of(counts, True)
