"""Timing-constrained verification on a line segment.

Two verifiers sit at positions 0 and 3 on a one-dimensional line and try
to certify that a prover is physically located inside the segment.  V0
broadcasts a puzzle key at time 0 and V1 broadcasts a challenge at time
1; the prover must get obligations back to V0 strictly before time 4 and
challenge answers to both verifiers by fixed deadlines.  Because signals
travel at unit speed, an honest prover at position p in [1, 2) meets
every deadline with slack while a single device outside the segment
cannot.

Any prover strategy is a set of devices at fixed positions, each mapping
what it hears to what it sends; a prover is one device, an attack pair two.

The module also provides a hash-challenge variant where the challenge is
derived from a public random function applied to two verifier nonces,
and a timing-free interactive protocol reusing the same message flow as
a test of quantum capability.  Both run the same provers on the same
seed split: HonestProver and ClassicalProver answer through reply_y and
reply_ans whether or not a clock is attached, so dropping the timing
layer from a position prover leaves exactly a proof-of-quantumness prover.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from .bits import decode_parts, encode_parts, pack_bits, unpack_bits, xor_bits
from .errors import ConfigInvalid, LengthMismatch, MalformedMessage, check_int
from .puzzle import (
    Equation,
    Preimage,
    PublicHandle,
    RepeatedPuzzle,
    Trapdoor,
    decode_answers,
    decode_obligations,
    encode_answers,
    encode_obligations,
)
from .rng import Rng, child_seed, mix64
from .spacetime import (
    Emission,
    PartyBehavior,
    Simulation,
    Trace,
    as_coord,
)
from .stats import Estimate, tally

V0_POSITION = Fraction(0)
V1_POSITION = Fraction(3)
V0_ALARM = Fraction(0)
V1_ALARM = Fraction(1)

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
        raise MalformedMessage("empty message")
    return payload[:1], decode_parts(payload[1:])


@dataclass(frozen=True)
class ProtocolConfig:
    """Parameters of one protocol run.

    n is the puzzle width, k the number of parallel instances, lam the
    nonce width of the hash-challenge variant, and prover_position the
    location an honest prover occupies.  Placement must fall inside
    [1, 2): a prover in that window receives the key before the
    challenge and can meet all four response deadlines.  A bad field
    raises ConfigInvalid; n and k are checked once, by the RepeatedPuzzle
    that owns them, which the config keeps as puzzle for every run.
    """

    n: int = 8
    k: int = 1
    lam: int = 16
    prover_position: Fraction = Fraction(3, 2)
    puzzle: RepeatedPuzzle = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "puzzle", RepeatedPuzzle(self.n, self.k))
        check_int(self.lam, "lam", 8)
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

    Exposes the public handles, the key id V0 announces (theirs joined),
    an obligation service that mints claw states against the key, and
    the run's random oracle (None in the plain variant).  The trapdoors
    are held privately for the obligation service; the verdict logic
    gets them from the run, not from this object.
    """

    def __init__(self, puzzle: RepeatedPuzzle, handle: tuple[PublicHandle, ...],
                 trapdoor: tuple[Trapdoor, ...], oracle: RandomOracle | None = None):
        self.puzzle = puzzle
        self.handle = handle
        self.key_id = "".join(h.key_id for h in handle)
        self._trapdoor = trapdoor
        self.oracle = oracle

    def obligate(self, rng: Rng):
        return self.puzzle.obligate(self.handle, self._trapdoor, rng)


# ---------------------------------------------------------------------------
# Party behaviours


class _Verifier(PartyBehavior):
    """Broadcasts payload at its alarm time; records obligation and answer
    arrivals."""

    def __init__(self, alarm_time: Fraction, payload: bytes):
        self._alarm_time = alarm_time
        self.payload = payload
        self.y_msgs: list[tuple[Fraction, bytes]] = []
        self.ans_msgs: list[tuple[Fraction, bytes]] = []

    def alarms(self):
        return (self._alarm_time,)

    def on_alarm(self, time):
        return (Emission(self.payload),)

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

    def __init__(self, position: Fraction | None = None):
        self.position = None if position is None else as_coord(position)

    def reply_y(self, env: TrialEnv, actor_seed: int):
        rng = Rng(actor_seed)
        ys, states = env.obligate(rng)
        return encode_obligations(ys), (states, rng)

    def reply_ans(self, env: TrialEnv, memo, challenge: str) -> bytes:
        states, rng = memo
        return encode_answers(env.puzzle.solve(states, challenge, rng))


class ClassicalProver:
    """Deterministic challenge-response device with no quantum memory.

    Every reply is a function of the public messages and a random tape,
    the run's actor seed: obligations commit to tape preimages x_i of the
    0-branch, challenge bits asking for an equation get a tape guess,
    drawn for every instance so that tape use does not depend on the
    challenge.  It sits at the configured prover position.
    """

    position = None

    def reply_y(self, env: TrialEnv, actor_seed: int):
        xs = Rng(child_seed(actor_seed, 0))
        ys = [part.eval("0", xs.bits(part.n)) for part in env.handle]
        return encode_obligations(ys), actor_seed

    def reply_ans(self, env: TrialEnv, tape: int, challenge: str) -> bytes:
        xs, guesses = Rng(child_seed(tape, 0)), Rng(child_seed(tape, 1))
        answers = []
        for i, part in enumerate(env.handle):
            x, c, d = xs.bits(part.n), guesses.bits(1), guesses.bits(part.n)
            answers.append(Preimage("0", x) if challenge[i] == "0" else Equation(c, d))
        return encode_answers(answers)


def _challenge(oracle: RandomOracle | None, v1_bits, nonce0) -> str | None:
    """The run's challenge from V1's broadcast bits and V0's nonce, or
    None while it is not yet fixed.  Plain variant (no oracle): V1's B
    bits.  Hashed variant: the oracle at nonce0 XOR nonce1, V1's X bits."""
    if oracle is None or v1_bits is None:
        return v1_bits
    return None if nonce0 is None else oracle.query(xor_bits(nonce0, v1_bits))


class _Device(PartyBehavior):
    """One device of a prover strategy, at a fixed position.

    On every message it first updates what it knows of the challenge
    from the verifier broadcasts, then calls its handler for the message
    kind, if any, with the body after the kind byte and the challenge as
    this device knows it (None until fixed).  The handler returns the
    Emissions to send.
    """

    def __init__(self, oracle: RandomOracle | None, handlers: dict):
        self.oracle = oracle
        self.handlers = handlers
        self.v1_bits = self.nonce0 = self.challenge = None

    def on_receive(self, time, message):
        payload = message.payload
        kind = payload[:1]
        if kind == KIND_KEY and self.oracle is not None:
            self.nonce0, _ = unpack_bits(decode_message(payload)[1][1])
        elif kind in (KIND_CHALLENGE, KIND_NONCE):
            self.v1_bits, _ = unpack_bits(decode_message(payload)[1][0])
        if self.challenge is None:
            self.challenge = _challenge(self.oracle, self.v1_bits, self.nonce0)
        handler = self.handlers.get(kind)
        return () if handler is None else handler(payload[1:], self.challenge)


def _prover_device(prover, env: TrialEnv, actor_seed: int) -> _Device:
    """The honest or classical prover as one device: obligate on the
    key, answer once both the obligations and the challenge exist, so
    either arrival order works."""
    memo = []  # reply_y's memo, once obligated

    def answer(body, challenge):
        if not memo or challenge is None:
            return ()
        ans_bytes = prover.reply_ans(env, memo[0], challenge)
        return (Emission(encode_message(KIND_ANSWER, ans_bytes)),)

    def obligate(body, challenge):
        y_bytes, m = prover.reply_y(env, actor_seed)
        memo.append(m)
        return (Emission(encode_message(KIND_OBLIGATION, y_bytes)),
                *answer(body, challenge))

    return _Device(env.oracle, {KIND_KEY: obligate, KIND_CHALLENGE: answer,
                                KIND_NONCE: answer})


def _add_attack_pair(sim: Simulation, trial, env: TrialEnv, v0_pid: int,
                     v1_pid: int) -> None:
    """Place an attack trial's two devices: the left one, at V0, runs u1
    on the key and u4 on the right device's N message; the right one, at
    V1, runs u2 on V1's broadcast (with the challenge still None under
    hashing) and u3 on the left device's M message."""

    def u1(body, challenge):
        y_bytes, m_bytes = trial.u1()
        return (Emission(encode_message(KIND_OBLIGATION, y_bytes), v0_pid),
                Emission(KIND_LEFT + m_bytes, right_pid))

    def u4(body, challenge):
        return (Emission(encode_message(KIND_ANSWER, trial.u4(body, challenge)),
                         v0_pid),)

    def u2(body, challenge):
        return (Emission(KIND_RIGHT + trial.u2(challenge), left_pid),)

    def u3(body, challenge):
        y_bytes, ans_bytes = trial.u3(body, challenge)
        return (Emission(encode_message(KIND_OBLIGATION, y_bytes), v1_pid),
                Emission(encode_message(KIND_ANSWER, ans_bytes), v1_pid))

    # the handlers read left_pid and right_pid only once the run starts
    left_pid = sim.add_party(V0_POSITION, _Device(
        env.oracle, {KIND_KEY: u1, KIND_RIGHT: u4}))
    right_pid = sim.add_party(V1_POSITION, _Device(
        env.oracle, {KIND_CHALLENGE: u2, KIND_NONCE: u2, KIND_LEFT: u3}))


# ---------------------------------------------------------------------------
# Run drivers


def _first(arrivals: list[tuple[Fraction, bytes]]):
    return arrivals[0] if arrivals else (None, None)


def _verifies(puzzle: RepeatedPuzzle, trapdoor: tuple[Trapdoor, ...], y_bytes: bytes,
              challenge: str, ans_bytes: bytes) -> bool:
    """The verifiers' decision on encoded obligations and answers: bytes
    that do not decode lose, verify rejects any wrong shape, and any
    other error is a fault that propagates."""
    try:
        ys, answers = decode_obligations(y_bytes), decode_answers(ans_bytes)
    except MalformedMessage:
        return False
    return puzzle.verify(trapdoor, ys, challenge, answers)


def _assemble_verdict(puzzle: RepeatedPuzzle, trapdoor: tuple[Trapdoor, ...],
                      v0: _Verifier, v1: _Verifier,
                      challenge: str | None) -> Verdict:
    y0_time, y0 = _first(v0.y_msgs)
    y1_time, y1 = _first(v1.y_msgs)
    ans0_time, ans0 = _first(v0.ans_msgs)
    ans1_time, ans1 = _first(v1.ans_msgs)
    timings = {"y0": y0_time, "y1": y1_time, "ans0": ans0_time, "ans1": ans1_time}
    transcript = {"pk": v0.payload, "y0": y0, "y1": y1, "ans0": ans0, "ans1": ans1}

    reason = FailureReason.NONE
    if y0_time is None or not y0_time < Y0_DEADLINE:
        reason = FailureReason.TIMING_Y0
    elif y1_time is None or y1_time != Y1_DEADLINE:
        reason = FailureReason.TIMING_Y1
    elif ans0_time is None or ans0_time != ANS0_DEADLINE:
        reason = FailureReason.TIMING_ANS0
    elif ans1_time is None or not ans1_time <= ANS1_DEADLINE:
        reason = FailureReason.TIMING_ANS1
    elif (len({body for _, body in v0.y_msgs + v1.y_msgs}) > 1
          or len({body for _, body in v0.ans_msgs + v1.ans_msgs}) > 1):
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


def _setup(config: ProtocolConfig, seed: int, hashed: bool):
    """(env, trapdoor, nonce0, v1_bits, actor_seed) from the seed split
    every run shares: child stream 0 is V0's (keygen, then nonce0 if
    hashed), child 1 V1's (the challenge, or nonce1 if hashed), child 2
    the prover's or attack pair's actor seed, child 3 the oracle's."""
    puzzle = config.puzzle
    v0_rng, v1_rng = Rng(child_seed(seed, 0)), Rng(child_seed(seed, 1))
    handle, trapdoor = puzzle.keygen(v0_rng)
    if hashed:
        oracle = RandomOracle(child_seed(seed, 3), config.lam, config.k)
        nonce0, v1_bits = v0_rng.bits(config.lam), v1_rng.bits(config.lam)
    else:
        oracle, nonce0, v1_bits = None, None, puzzle.sample_challenge(v1_rng)
    env = TrialEnv(puzzle, handle, trapdoor, oracle)
    return env, trapdoor, nonce0, v1_bits, child_seed(seed, 2)


def _run_timed(config: ProtocolConfig, seed: int, prover, adversaries,
               record_trace: bool, hashed: bool) -> PRPVOutcome:
    """Common driver for the plain and hash-challenge protocols."""
    if (prover is None) == (adversaries is None):
        raise ConfigInvalid("supply exactly one of prover or adversaries")

    env, trapdoor, nonce0, v1_bits, actor_seed = _setup(config, seed, hashed)
    key_parts = [env.key_id.encode()]
    if hashed:
        key_parts.append(pack_bits(nonce0))
    key_msg = encode_message(KIND_KEY, *key_parts)
    challenge_msg = encode_message(KIND_NONCE if hashed else KIND_CHALLENGE,
                                   pack_bits(v1_bits))

    sim = Simulation(record_trace=record_trace)
    v0 = _Verifier(alarm_time=V0_ALARM, payload=key_msg)
    v1 = _Verifier(alarm_time=V1_ALARM, payload=challenge_msg)
    v0_pid = sim.add_party(V0_POSITION, v0)
    v1_pid = sim.add_party(V1_POSITION, v1)

    if prover is not None:
        position = prover.position
        if position is None:
            position = config.prover_position
        sim.add_party(position, _prover_device(prover, env, actor_seed))
    else:
        _add_attack_pair(sim, adversaries.new_trial(env, actor_seed), env,
                         v0_pid, v1_pid)

    trace = sim.run(RUN_UNTIL)
    verdict = _assemble_verdict(env.puzzle, trapdoor, v0, v1,
                                _challenge(env.oracle, v1_bits, nonce0))
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
    env, trapdoor, _, challenge, actor_seed = _setup(config, seed, hashed=False)
    y_bytes, memo = prover.reply_y(env, actor_seed)
    ans_bytes = prover.reply_ans(env, memo, challenge)
    transcript = (
        ("pk", env.key_id.encode()),
        ("y", y_bytes),
        ("b", pack_bits(challenge)),
        ("ans", ans_bytes),
    )
    accept = _verifies(env.puzzle, trapdoor, y_bytes, challenge, ans_bytes)
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
