"""Two-device attacks on the timed protocol.

An attack pair places one device next to each verifier.  Devices talk
only through the simulated channel: the left device runs u1, on the key
announcement, and u4, on the right-to-left message; the right device
runs u2, on V1's broadcast at t=1, and u3, on the left-to-right message.
Key material comes from the trial's TrialEnv, so u1 takes no argument.
u2, u3 and u4 get the challenge as their own device has heard it, which
is None in u2 under hashing (nonce0 reaches the right device at t=3).
Handler slots draw from independent seeded streams so a compiled replay
of a handler sees exactly the bytes the original would have produced.

Resource classes: R0 pairs share no entanglement, RF pairs answer at
the left device for the challenge it hears (N carries only the R0 right
device's message), RL pairs consume pre-shared EPR pairs.
Each pair's rate(n, k) is the closed-form acceptance rate it reaches.
"""

from __future__ import annotations

from .bits import decode_parts, encode_parts, pack_bits, unpack_bits, xor_bits
from .errors import ConfigInvalid
from .protocol import ClassicalProver, ProtocolConfig, TrialEnv
from .puzzle import (
    Equation,
    Preimage,
    encode_answers,
    encode_obligations,
)
from .rng import Rng, child_seed
from .stats import classical_prover_rate, guessing_rate, teleport_rate

FORWARD_COMPILER_MAX_K = 8


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

    def u1(self):
        rng = self.rng
        ys, states = self.env.obligate(rng)
        guess = rng.bits(self.env.puzzle.k)
        answers = self.env.puzzle.solve(states, guess, rng)
        y_bytes = encode_obligations(ys)
        ans_bytes = encode_answers(answers)
        self._committed = ans_bytes
        return y_bytes, encode_parts(y_bytes, ans_bytes)

    def u2(self, challenge: str | None) -> bytes:
        return b""

    def u3(self, m_body: bytes, challenge: str):
        y_bytes, ans_bytes = decode_parts(m_body)
        return y_bytes, ans_bytes

    def u4(self, n_body: bytes, challenge: str) -> bytes:
        return self._committed


class ClassicalForwardPair:
    """Classical devices sharing a response tape.

    Both sides deterministically recompute the classical prover's
    replies from the shared tape, the actor seed, and answer the
    challenge each device hears, so u2 sends nothing.
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
        self.device = ClassicalProver()

    def u1(self):
        y_bytes, _ = self.device.reply_y(self.env, self.tape)
        return y_bytes, self.env.key_id.encode()

    def u2(self, challenge: str | None) -> bytes:
        return b""

    def u3(self, m_body: bytes, challenge: str):
        y_bytes, _ = self.device.reply_y(self.env, self.tape)
        return y_bytes, self.device.reply_ans(self.env, self.tape, challenge)

    def u4(self, n_body: bytes, challenge: str) -> bytes:
        return self.device.reply_ans(self.env, self.tape, challenge)


class ForwardingPair:
    """Compile an unentangled attack into challenge-forwarding shape.

    The left device answers with the message the original right device
    would send after seeing the challenge.  A real left device would
    precompute that reply for all 2^k challenges to answer in time
    (FORWARD_COMPILER_MAX_K bounds that table).  Each table entry is a
    right-device reply: at t=1 that device has heard only V1's
    broadcast, so its u2 message is a function of the actor seed and
    the challenge alone.  The left device hears the challenge at t=4,
    with N, so N carries only the original right device's u2 message,
    unread; simulated handlers take no time, so one replica, built from
    the actor seed, runs u2 on that challenge and nothing else.  The
    replay equals the selected table entry, and per seed the compiled
    pair reproduces the original verdict bit for bit.
    """

    klass = "RF"
    entanglement_budget = 0

    def __init__(self, inner):
        if getattr(inner, "klass", None) != "R0":
            raise ConfigInvalid(
                f"cannot compile {getattr(inner, 'name', inner)!r}: "
                "forwarding compilation needs an unentangled classical-tape pair"
            )
        self.inner = inner
        self.name = f"forward_compiled_{inner.name}"

    def rate(self, n: int, k: int) -> float:
        return self.inner.rate(n, k)  # every verdict is the inner pair's

    def new_trial(self, env: TrialEnv, actor_seed: int) -> "_ForwardingTrial":
        if env.puzzle.k > FORWARD_COMPILER_MAX_K:
            raise ConfigInvalid(
                f"challenge width {env.puzzle.k} exceeds the compiler cap "
                f"{FORWARD_COMPILER_MAX_K}"
            )
        return _ForwardingTrial(self.inner, env, actor_seed)


class _ForwardingTrial:
    """The original trial runs u1-u4; a replica of its right device,
    built at key time from the same actor seed, answers the one table
    lookup in u4 with its u2 and runs no other handler."""

    def __init__(self, inner_pair, env: TrialEnv, actor_seed: int):
        self._make_replica = lambda: inner_pair.new_trial(env, actor_seed)
        self.original = inner_pair.new_trial(env, actor_seed)
        self._replica = None

    def u1(self):
        self._replica = self._make_replica()
        return self.original.u1()

    def u2(self, challenge: str | None) -> bytes:
        return self.original.u2(challenge)

    def u3(self, m_body: bytes, challenge: str):
        return self.original.u3(m_body, challenge)

    def u4(self, n_body: bytes, challenge: str) -> bytes:
        return self.original.u4(self._replica.u2(challenge), challenge)


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

    Teleportation is simulated by its identity at measurement level, not
    by the Bell circuit (the dense reference): the right device's outcome
    in basis b is the honest outcome XOR k_b, so it answers through the
    honest solver and XORs in the keys (see _teleport_keys).
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


def _teleport_keys(rows: int, width: int, rng: Rng):
    """Keys of teleporting rows registers of width qubits, each qubit
    through its own EPR pair, by the teleportation identity.

    Bell-measuring a qubit with its EPR half gives each of the four
    outcomes with probability 1/4 whatever the state, and leaves the
    remote half holding X^k0 Z^k1 of the qubit. So a row's keys are two
    fair coins per qubit, and measuring the remote half in basis b gives
    the honest outcome XOR k_b. The draws are those of the measured
    circuit: row by row, then qubit by qubit, the source (k1) uniform
    before the local (k0) one, and an outcome is 1 iff its uniform is
    >= 1/2, the rule qsim.measure applies to two outcomes of probability
    1/2. bell_circuit and qsim.teleport stay the dense reference for this.

    Returns (k0, k1), each of rows*width bits, row by row.
    """
    bits = ["1" if rng.random() >= 0.5 else "0" for _ in range(2 * rows * width)]
    return "".join(bits[1::2]), "".join(bits[0::2])


class _TeleportTrial:
    def __init__(self, env: TrialEnv, actor_seed: int):
        self.env = env
        self.left_rng = Rng(child_seed(actor_seed, 1))   # u1
        self.right_rng = Rng(child_seed(actor_seed, 2))  # u2
        self.pairs_used = 0
        self.width = env.puzzle.n + 1
        self._claws = None  # the stack of claw states the right device measures
        self._k0 = self._k1 = ""  # the keys, rows joined, from u1
        self._raw = ""  # the right device's outcomes, from u2

    def _key(self, challenge: str, k0: str, k1: str) -> str:
        """Each row's key in its challenged basis, rows joined."""
        w = self.width
        return "".join((k1 if b == "1" else k0)[i * w:(i + 1) * w]
                       for i, b in enumerate(challenge))

    def _answers(self, challenge: str, bits: str) -> bytes:
        """The encoded answers whose bits, row by row, are bits: a Preimage
        for challenge bit 0, an Equation for 1."""
        w = self.width
        return encode_answers(tuple(
            (Equation if b == "1" else Preimage)(bits[i * w], bits[i * w + 1:(i + 1) * w])
            for i, b in enumerate(challenge)))

    def u1(self):
        ys, self._claws = self.env.obligate(self.left_rng)
        self.pairs_used += len(ys) * self.width
        self._k0, self._k1 = _teleport_keys(len(ys), self.width, self.left_rng)
        y_bytes = encode_obligations(ys)
        return y_bytes, encode_parts(y_bytes, pack_bits(self._k0), pack_bits(self._k1))

    def u2(self, challenge: str) -> bytes:
        answers = self.env.puzzle.solve(self._claws, challenge, self.right_rng)
        honest = "".join(a.bit + a.v if b == "0" else a.c + a.d
                         for a, b in zip(answers, challenge))
        self._raw = xor_bits(honest, self._key(challenge, self._k0, self._k1))
        return pack_bits(self._raw)

    def u3(self, m_body: bytes, challenge: str):
        y_bytes, k0, k1 = decode_parts(m_body)
        key = self._key(challenge, unpack_bits(k0)[0], unpack_bits(k1)[0])
        return y_bytes, self._answers(challenge, xor_bits(self._raw, key))

    def u4(self, n_body: bytes, challenge: str) -> bytes:
        key = self._key(challenge, self._k0, self._k1)
        return self._answers(challenge, xor_bits(unpack_bits(n_body)[0], key))


ATTACKS = {
    "guess": lambda config: GuessingPair(),
    "forward_compiled_guess": lambda config: ForwardingPair(GuessingPair()),
    "teleport": lambda config: TeleportPair(config.n, config.k),
    "classical_forward": lambda config: ClassicalForwardPair(),
}
ATTACK_NAMES = tuple(ATTACKS)


def make_attack(name: str, config: ProtocolConfig):
    """Attack registry for experiment drivers: the pair named name, built
    for config's n and k. An unknown name raises ConfigInvalid."""
    if name not in ATTACKS:
        raise ConfigInvalid(f"unknown attack {name!r}; known: {ATTACK_NAMES}")
    return ATTACKS[name](config)
