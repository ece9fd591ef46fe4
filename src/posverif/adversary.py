"""Two-device attacks on the timed protocol.

An attack pair places one device next to each verifier.  Devices talk
only through the simulated channel: the left device handles the key
announcement (u1, given the announced key's handle) and the right-to-left
message (u4), the right device handles the challenge (u2, given its bits)
and the left-to-right message (u3).  Handler slots draw from independent
seeded streams so a compiled replay of a handler sees exactly the bytes
the original would have produced.

Resource classes: R0 pairs share no entanglement, RF pairs additionally
forward the challenge verbatim, RL pairs consume pre-shared EPR pairs.
Each pair's rate(n, k) is the closed-form acceptance rate it reaches.
"""

from __future__ import annotations

from .bits import decode_parts, encode_parts, pack_bits, unpack_bits, xor_bits
from .errors import ConfigInvalid, KTooLarge, NotClassicalTape, UnknownAttack
from .protocol import (
    ProtocolConfig,
    TrialEnv,
    classical_reply_ans,
    classical_reply_y,
)
from .puzzle import (
    Equation,
    Preimage,
    encode_answers,
    encode_obligations,
)
from . import qsim
from .rng import Rng, child_seed
from .stats import classical_prover_rate, guessing_rate, teleport_rate

FORWARD_COMPILER_MAX_K = 8


def _challenge_of(body: bytes) -> str:
    bits, _ = unpack_bits(decode_parts(body)[0])
    return bits


class GuessingPair:
    """Guess the challenge at key time and commit.

    The left device obligates honestly, samples a challenge guess, and
    measures the claw states in the guessed bases immediately.  Both
    verifiers then receive the same committed bytes, so the run is
    accepted exactly when the guess matches and the honest answers
    verify.
    """

    name = "guess"
    klass = "R0"
    entanglement_budget = 0
    rate = staticmethod(guessing_rate)

    def new_trial(self, env: TrialEnv, actor_seed: int) -> "_GuessingTrial":
        return _GuessingTrial(env, actor_seed)


class _GuessingTrial:
    def __init__(self, env: TrialEnv, actor_seed: int):
        self.env = env
        self.rng = Rng(child_seed(actor_seed, 1))
        self._committed: bytes | None = None

    def u1(self, handle):
        rng = self.rng
        ys, states = self.env.obligate(rng)
        guess = rng.bits(self.env.puzzle.k)
        answers = self.env.puzzle.solve(handle, ys, states, guess, rng)
        y_bytes = encode_obligations(ys)
        ans_bytes = encode_answers(answers)
        self._committed = ans_bytes
        return y_bytes, encode_parts(y_bytes, ans_bytes)

    def u2(self, challenge: str) -> bytes:
        return b""

    def u3(self, m_body: bytes):
        y_bytes, ans_bytes = decode_parts(m_body)
        return y_bytes, ans_bytes

    def u4(self, n_body: bytes) -> bytes:
        return self._committed


class ClassicalForwardPair:
    """Classical devices sharing a response tape.

    Both sides deterministically recompute the classical prover's
    replies from the shared tape, the actor seed; the right device
    forwards the challenge so the left one can answer it too.
    """

    name = "classical_forward"
    klass = "R0"
    entanglement_budget = 0
    rate = staticmethod(classical_prover_rate)

    def new_trial(self, env: TrialEnv, actor_seed: int) -> "_ClassicalForwardTrial":
        return _ClassicalForwardTrial(env, actor_seed)


class _ClassicalForwardTrial:
    def __init__(self, env: TrialEnv, tape: int):
        self.env = env
        self.tape = tape
        self._challenge: str | None = None  # right-device memory

    def u1(self, handle):
        ys, _ = classical_reply_y(handle, self.tape)
        return encode_obligations(ys), handle.key_id.encode()

    def u2(self, challenge: str) -> bytes:
        self._challenge = challenge
        return encode_parts(pack_bits(challenge))

    def u3(self, m_body: bytes):
        handle = self.env.resolve(m_body.decode())
        ys, _ = classical_reply_y(handle, self.tape)
        answers = classical_reply_ans(handle, self._challenge, self.tape)
        return encode_obligations(ys), encode_answers(answers)

    def u4(self, n_body: bytes) -> bytes:
        challenge = _challenge_of(n_body)
        answers = classical_reply_ans(self.env.handle, challenge, self.tape)
        return encode_answers(answers)


class ForwardingPair:
    """Compile an unentangled attack into challenge-forwarding shape.

    The right device only forwards the challenge; the left device answers
    with the message the original right device would send after seeing
    it.  A real left device would precompute that reply for all 2^k
    challenges to answer in time (FORWARD_COMPILER_MAX_K bounds that
    table); simulated handlers take no time, so one replica replays the
    forwarded challenge instead.  Trials are deterministic in (env, actor
    seed, key body), so the replay equals the selected table entry and
    per seed the compiled pair reproduces the original verdict bit for bit.
    """

    klass = "RF"
    entanglement_budget = 0

    def __init__(self, inner):
        if getattr(inner, "klass", None) != "R0":
            raise NotClassicalTape(
                f"cannot compile {getattr(inner, 'name', inner)!r}: "
                "forwarding compilation needs an unentangled classical-tape pair"
            )
        self.inner = inner
        self.name = f"forward_compiled_{inner.name}"

    def rate(self, n: int, k: int) -> float:
        return self.inner.rate(n, k)  # every verdict is the inner pair's

    def new_trial(self, env: TrialEnv, actor_seed: int) -> "_ForwardingTrial":
        if env.puzzle.k > FORWARD_COMPILER_MAX_K:
            raise KTooLarge(
                f"challenge width {env.puzzle.k} exceeds the compiler cap "
                f"{FORWARD_COMPILER_MAX_K}"
            )
        return _ForwardingTrial(self.inner, env, actor_seed)


class _ForwardingTrial:
    def __init__(self, inner_pair, env: TrialEnv, actor_seed: int):
        self._make_replica = lambda: inner_pair.new_trial(env, actor_seed)
        self.original = inner_pair.new_trial(env, actor_seed)
        self._replica = None

    def u1(self, handle):
        # every table entry starts from the same replica state
        self._replica = self._make_replica()
        self._replica.u1(handle)
        return self.original.u1(handle)

    def u2(self, challenge: str) -> bytes:
        # keep the right device's own state faithful, then forward
        self.original.u2(challenge)
        return encode_parts(pack_bits(challenge))

    def u3(self, m_body: bytes):
        return self.original.u3(m_body)

    def u4(self, n_body: bytes) -> bytes:
        # the left device learns the challenge only from the forwarded body
        challenge = _challenge_of(n_body)
        return self.original.u4(self._replica.u2(challenge))


class TeleportPair:
    """Route the claw states to the challenge side with pre-shared EPR
    pairs.

    The left device obligates, then teleports each claw qubit through a
    pre-shared pair, consuming n+1 pairs per instance.  The right device
    measures the steered qubits in the challenged bases as soon as the
    challenge arrives; the Pauli corrections travel with the obligations
    and both sides apply them to the same raw outcomes, reproducing the
    honest answer distribution at both verifiers.  The budget is the
    k*(n+1) pairs the attack consumes.

    Teleportation is simulated by its identity, not by a Bell circuit:
    each qubit's keys (k0, k1) are two fair coins, 1 iff the uniform
    drawn is >= 1/2, and the remote half holds X^k0 Z^k1 of the qubit.
    """

    name = "teleport"
    klass = "RL"
    rate = staticmethod(teleport_rate)

    def __init__(self, n: int, k: int):
        self.n = n
        self.k = k
        self.entanglement_budget = k * (n + 1)

    def new_trial(self, env: TrialEnv, actor_seed: int) -> "_TeleportTrial":
        if env.oracle is not None:
            raise ConfigInvalid(
                "teleport has no hash-challenge form: the right device learns "
                "the challenge at t=3 at the earliest, so its outcomes would "
                "reach V0 at t=6, after ans0's deadline at 4"
            )
        if env.puzzle.n != self.n or env.puzzle.k != self.k:
            raise ConfigInvalid(
                f"attack built for n={self.n}, k={self.k} but run has "
                f"n={env.puzzle.n}, k={env.puzzle.k}"
            )
        return _TeleportTrial(env, actor_seed)


def _teleport_register(state: qsim.StateVector, rng: Rng):
    """Teleport every qubit of every row of a stacked state, each qubit
    through its own EPR pair, by the teleportation identity instead of a
    Bell circuit.

    Bell-measuring a qubit with its EPR half gives each of the four
    outcomes with probability 1/4 whatever the state, and leaves the
    remote half holding X^k0 Z^k1 of the qubit. So a row's keys are two
    fair coins per qubit, and its remote register is the row under the
    Pauli frame (k0, k1). The draws are those of the measured circuit:
    row by row, then qubit by qubit, the source (k1) uniform before the
    local (k0) one, and an outcome is 1 iff its uniform is >= 1/2, the
    rule qsim.measure applies to two outcomes of probability 1/2.
    bell_circuit and qsim.teleport stay the dense reference for this.

    Returns (k0s, k1s, remote stack), one k0 and k1 string per row: XOR
    k0 into standard-basis outcomes and k1 into Hadamard-basis outcomes
    of the remote register ("rem", in the original qubit order).
    """
    k0s, k1s = [], []
    for _ in range(len(state.amps)):
        bits = ["1" if rng.random() >= 0.5 else "0" for _ in range(2 * state.q)]
        k1s.append("".join(bits[0::2]))
        k0s.append("".join(bits[1::2]))
    remote = qsim.merge_registers(state, state.names(), "rem")
    return k0s, k1s, qsim.apply_pauli_frame(
        remote, [int(k, 2) for k in k0s], [int(k, 2) for k in k1s])


def _corrected_answers(challenge: str, raws, k0s, k1s):
    answers = []
    for i, b in enumerate(challenge):
        if b == "0":
            bits = xor_bits(raws[i], k0s[i])
            answers.append(Preimage(bits[0], bits[1:]))
        else:
            bits = xor_bits(raws[i], k1s[i])
            answers.append(Equation(bits[0], bits[1:]))
    return tuple(answers)


class _TeleportTrial:
    def __init__(self, env: TrialEnv, actor_seed: int):
        self.env = env
        self.left_rng = Rng(child_seed(actor_seed, 1))   # u1
        self.right_rng = Rng(child_seed(actor_seed, 2))  # u2
        self.pairs_used = 0
        self.width = env.puzzle.n + 1
        self._remote: qsim.StateVector | None = None  # right-device rows
        self._k0s: list[str] = []
        self._k1s: list[str] = []
        self._challenge: str | None = None
        self._raws: list[str] | None = None

    def u1(self, handle):
        ys, state = self.env.obligate(self.left_rng)
        self.pairs_used += len(ys) * self.width
        self._k0s, self._k1s, self._remote = _teleport_register(state, self.left_rng)
        y_bytes = encode_obligations(ys)
        m = encode_parts(
            y_bytes,
            pack_bits("".join(self._k0s)),
            pack_bits("".join(self._k1s)),
        )
        return y_bytes, m

    def u2(self, challenge: str) -> bytes:
        ones = [i for i, b in enumerate(challenge) if b == "1"]
        remote = self._remote
        if ones:
            remote = qsim.apply_hadamard(remote, "rem", ones)
        records, _ = qsim.measure(remote, "rem", self.right_rng)
        raws = [record.outcome for record in records]
        self._challenge = challenge
        self._raws = raws
        return encode_parts(pack_bits(challenge), pack_bits("".join(raws)))

    def _split_keys(self, packed: str) -> list[str]:
        return [packed[i * self.width:(i + 1) * self.width]
                for i in range(len(packed) // self.width)]

    def u3(self, m_body: bytes):
        y_bytes, k0_packed, k1_packed = decode_parts(m_body)
        k0s = self._split_keys(unpack_bits(k0_packed)[0])
        k1s = self._split_keys(unpack_bits(k1_packed)[0])
        answers = _corrected_answers(self._challenge, self._raws, k0s, k1s)
        return y_bytes, encode_answers(answers)

    def u4(self, n_body: bytes) -> bytes:
        challenge_packed, raw_packed = decode_parts(n_body)
        challenge, _ = unpack_bits(challenge_packed)
        raws = self._split_keys(unpack_bits(raw_packed)[0])
        answers = _corrected_answers(challenge, raws, self._k0s, self._k1s)
        return encode_answers(answers)


ATTACKS = {
    "guess": lambda config: GuessingPair(),
    "forward_compiled_guess": lambda config: ForwardingPair(GuessingPair()),
    "teleport": lambda config: TeleportPair(config.n, config.k),
    "classical_forward": lambda config: ClassicalForwardPair(),
}
ATTACK_NAMES = tuple(ATTACKS)


def make_attack(name: str, config: ProtocolConfig):
    """Attack registry for experiment drivers."""
    try:
        build = ATTACKS[name]
    except KeyError:
        raise UnknownAttack(f"unknown attack {name!r}; known: {ATTACK_NAMES}") from None
    return build(config)
