"""1-of-2 puzzles over a toy shifted-bijection family.

The family: f_{key,b}(x) = P_seed(x xor b*s), where P_seed is a keyed
4-round Feistel bijection on n-bit strings and s is a nonzero secret shift.
Claws are exactly the pairs (x, x xor s), so the trapdoor can invert both
branches while the public side can only evaluate forward.

Hardness is modeled by capability scoping, not computation: a PublicHandle
exposes eval through a closure and no read of s, but an exhaustive
search over eval queries recovers s in 2^n steps (and a test demonstrates
that deliberately). n is capped at 12 to keep that honest.

Challenge bits and preimages are '0'/'1' strings throughout (see bits.py);
a challenge of a k-fold puzzle is a k-bit string.
"""

import struct
from dataclasses import dataclass

import numpy as np

from . import qsim
from .bits import (
    dot_bits,
    int_to_bits,
    is_zero,
    pack_bits,
    unpack_bits,
    xor_bits,
)
from .errors import InvalidN, LengthMismatch, TagMismatch, WrongStateShape
from .rng import Uniforms, mix64

N_MIN = 2
N_MAX = 12

_ROUNDS = 4
_GOLDEN = 0x9E3779B97F4A7C15


def _feistel_rounds(seed: int, n: int, x: int, inverse: bool) -> int:
    """Keyed bijection on n-bit integers: alternating-half XOR rounds."""
    wl = n // 2
    wr = n - wl
    left = x >> wr
    right = x & ((1 << wr) - 1)
    order = range(_ROUNDS - 1, -1, -1) if inverse else range(_ROUNDS)
    for r in order:
        f = mix64(mix64(seed + (r + 1) * _GOLDEN) ^ (right if r % 2 == 0 else left))
        if r % 2 == 0:
            left ^= f & ((1 << wl) - 1)
        else:
            right ^= f & ((1 << wr) - 1)
    return (left << wr) | right


@dataclass(frozen=True)
class PuzzleKey:
    """Full key material: only the trapdoor side ever holds this."""

    n: int
    seed: int
    s: str  # nonzero shift; claws are (x, x xor s)


@dataclass(frozen=True)
class Preimage:
    """Challenge-0 answer: a claimed branch bit and preimage."""

    bit: str
    v: str


@dataclass(frozen=True)
class Equation:
    """Challenge-1 answer: measured bit c and preimage-register outcome d."""

    c: str
    d: str


Answer = Preimage | Equation


def _check_bit(b: str, what: str = "challenge"):
    if b not in ("0", "1"):
        raise ValueError(f"{what} must be '0' or '1', got {b!r}")


class PublicHandle:
    """Evaluation capability for one key; exposes no read of the shift."""

    __slots__ = ("n", "key_id", "_eval")

    def __init__(self, n: int, key_id: str, eval_fn):
        self.n = n
        self.key_id = key_id
        self._eval = eval_fn

    def eval(self, b: str, x: str) -> str:
        _check_bit(b, "branch")
        if len(x) != self.n:
            raise LengthMismatch(f"preimage width {len(x)} != n={self.n}")
        return self._eval(b, x)

    def __repr__(self):
        return f"PublicHandle(n={self.n}, key_id={self.key_id})"


class Trapdoor:
    """Inversion capability: the full key, and its public handle's eval."""

    __slots__ = ("key", "eval")

    def __init__(self, key: PuzzleKey, handle: PublicHandle):
        self.key = key
        self.eval = handle.eval

    @property
    def n(self) -> int:
        return self.key.n

    def inv(self, b: str, y: str) -> str:
        _check_bit(b, "branch")
        if len(y) != self.key.n:
            raise LengthMismatch(f"image width {len(y)} != n={self.key.n}")
        x = _feistel_rounds(self.key.seed, self.key.n, int(y, 2), inverse=True)
        pre = int_to_bits(x, self.key.n)
        return xor_bits(pre, self.key.s) if b == "1" else pre


def _make_eval(key: PuzzleKey):
    n, seed, s_int = key.n, key.seed, int(key.s, 2)

    def eval_fn(b: str, x: str) -> str:
        arg = int(x, 2) ^ s_int if b == "1" else int(x, 2)
        return int_to_bits(_feistel_rounds(seed, n, arg, inverse=False), n)

    return eval_fn


def public_key_bytes(n: int, seed: int) -> bytes:
    return struct.pack("<IQ", n, seed)


class BasePuzzle:
    """The 1-of-2 puzzle: one key, one challenge bit."""

    def __init__(self, n: int):
        if not (N_MIN <= n <= N_MAX):
            raise InvalidN(f"n must be in [{N_MIN}, {N_MAX}], got {n}")
        self.n = n

    def sample_challenge(self, rng) -> str:
        return rng.bits(1)

    def keygen(self, rng) -> tuple[PublicHandle, Trapdoor]:
        seed = rng.next_u64()
        s = rng.bits(self.n)
        while is_zero(s):  # s = 0 would merge the two branches
            s = rng.bits(self.n)
        key = PuzzleKey(self.n, seed, s)
        key_id = public_key_bytes(self.n, seed).hex()
        handle = PublicHandle(self.n, key_id, _make_eval(key))
        return handle, Trapdoor(key, handle)

    def obligate(self, handle: PublicHandle, env: Trapdoor, rng) -> tuple[str, qsim.StateVector]:
        """Sample an obligation y and the claw superposition behind it.

        Shortcut construction: draw x0, publish y = f_0(x0), and build
        (|0,x0> + |1,x1>)/sqrt(2) with x1 = inv(1, y). Distribution over
        (y, state) equals the measured oracle circuit; run_obligate_circuit
        is the cross-check.
        """
        y, x0, x1 = self._claw(handle, env, rng)
        return y, qsim.prepare_claw_state(x0, x1)

    def _claw(self, handle: PublicHandle, env: Trapdoor, rng) -> tuple[str, str, str]:
        x0 = rng.bits(self.n)
        y = handle.eval("0", x0)
        return y, x0, env.inv("1", y)

    def _check_state(self, state: qsim.StateVector, rows: tuple[int, ...] = ()):
        if state.regs != (("bit", 1), ("preimage", self.n)) or state.amps.shape[:-1] != rows:
            shape = f"{rows[0]} rows of " if rows else ""
            raise WrongStateShape(
                f"expected {shape}registers bit(1), preimage({self.n}), got {state!r}"
            )

    def solve(self, handle: PublicHandle, y: str, state: qsim.StateVector, challenge: str, rng) -> Answer:
        """Honest quantum solver: measure straight or in the Hadamard basis."""
        _check_bit(challenge)
        self._check_state(state)
        return _solve_rows(qsim.stack([state]), challenge, rng)[0]

    def verify(self, env: Trapdoor, y: str, challenge: str, answer: Answer) -> bool:
        _check_bit(challenge)
        if challenge == "0":
            if not isinstance(answer, Preimage):
                raise TagMismatch(f"challenge 0 needs a Preimage answer, got {type(answer).__name__}")
            return env.eval(answer.bit, answer.v) == y
        if not isinstance(answer, Equation):
            raise TagMismatch(f"challenge 1 needs an Equation answer, got {type(answer).__name__}")
        if len(y) != env.n:
            raise LengthMismatch(f"image width {len(y)} != n={env.n}")
        if len(answer.d) != env.n:
            raise LengthMismatch(f"equation width {len(answer.d)} != n={env.n}")
        if is_zero(answer.d):
            return False
        return dot_bits(answer.d, env.key.s) == int(answer.c, 2)


def _solve_rows(state: qsim.StateVector, bits: str, rng) -> tuple[Answer, ...]:
    """Honest answers for a stack of claw states, one challenge bit per row.

    Rows whose bit is 1 turn to the Hadamard basis. Both registers are
    then measured over the whole stack, each row drawing from rng in
    per-instance order: bit, then preimage, row by row. Several rows take
    their draws up front; a single row's order is already that of rng.
    """
    bit_draws = preimage_draws = rng
    if len(bits) > 1:
        draws = [rng.random() for _ in range(2 * len(bits))]
        bit_draws, preimage_draws = Uniforms(draws[0::2]), Uniforms(draws[1::2])
    if "1" in bits:
        ones = [i for i, b in enumerate(bits) if b == "1"]
        state = qsim.apply_hadamard(state, "bit", ones)
        state = qsim.apply_hadamard(state, "preimage", ones)
    firsts, rest = qsim.measure(state, "bit", bit_draws)
    seconds, _ = qsim.measure(rest, "preimage", preimage_draws)
    return tuple([
        (Equation if b == "1" else Preimage)(first.outcome, second.outcome)
        for b, first, second in zip(bits, firsts, seconds)
    ])


def obligate_circuit_state(handle: PublicHandle) -> qsim.StateVector:
    """Pre-measurement oracle circuit state over bit(1), preimage(n), image(n).

    Uniform superposition over (b, x) with f_b(x) XORed into the image
    register. Needs only the public evaluator. Used to cross-check the
    obligate shortcut; n is limited by the 24-qubit cap (2n+1 qubits).
    """
    n = handle.n
    state = qsim.new_state([("bit", 1), ("preimage", n), ("image", n)])
    state = qsim.apply_hadamard(state, "bit")
    state = qsim.apply_hadamard(state, "preimage")
    f_val = np.empty(1 << (n + 1), dtype=np.int64)
    for b in ("0", "1"):
        for xi in range(1 << n):
            f_val[(int(b) << n) | xi] = int(handle.eval(b, int_to_bits(xi, n)), 2)
    bx = np.arange(1 << (2 * n + 1)) >> n
    e = np.arange(1 << (2 * n + 1)) & ((1 << n) - 1)
    perm = (bx << n) | (e ^ f_val[bx])
    return qsim.permute_basis(state, perm)


def run_obligate_circuit(handle: PublicHandle, rng) -> tuple[str, qsim.StateVector]:
    """Obligate by actually running and measuring the oracle circuit."""
    state = obligate_circuit_state(handle)
    rec, residual = qsim.measure(state, "image", rng)
    return rec.outcome, residual


class MultiHandle:
    """Public side of a k-fold puzzle: one handle per instance."""

    __slots__ = ("parts", "key_id")

    def __init__(self, parts: tuple[PublicHandle, ...]):
        self.parts = parts
        self.key_id = "".join(p.key_id for p in parts)


class MultiTrapdoor:
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[Trapdoor, ...]):
        self.parts = parts


class RepeatedPuzzle:
    """k independent instances, each answering its own challenge bit.

    A challenge is a k-bit string, bit i for instance i; verification is
    the AND over instances. k=1 behaves exactly like the base puzzle.

    The k claw states travel as one qsim stack, row i holding instance i;
    obligate builds it and solve measures it in one pass per register.
    Obligations, answers and rng draws equal those of k base puzzles run
    one after another.
    """

    def __init__(self, n: int, k: int):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.base = BasePuzzle(n)
        self.n = n
        self.k = k

    def sample_challenge(self, rng) -> str:
        return rng.bits(self.k)

    def keygen(self, rng) -> tuple[MultiHandle, MultiTrapdoor]:
        pairs = [self.base.keygen(rng) for _ in range(self.k)]
        return MultiHandle(tuple(h for h, _ in pairs)), MultiTrapdoor(tuple(t for _, t in pairs))

    def obligate(self, handle: MultiHandle, env: MultiTrapdoor, rng):
        """Sample the k obligations, instance by instance as the base
        puzzle would, and the stack of their claw states, one row each."""
        ys, x0s, x1s = zip(*(self.base._claw(h, t, rng)
                             for h, t in zip(handle.parts, env.parts)))
        return ys, qsim.prepare_claw_state(x0s, x1s)

    def solve(self, handle: MultiHandle, ys, state: qsim.StateVector, challenge: str, rng) -> tuple[Answer, ...]:
        """Solve all k instances over their stacked claw states; answers
        and rng draws equal k base-puzzle solves in instance order."""
        if len(challenge) != self.k:
            raise LengthMismatch(f"challenge width {len(challenge)} != k={self.k}")
        for b in set(challenge):
            _check_bit(b)
        self.base._check_state(state, (self.k,))
        return _solve_rows(state, challenge, rng)

    def verify(self, env: MultiTrapdoor, ys, challenge: str, answers) -> bool:
        if len(challenge) != self.k:
            raise LengthMismatch(f"challenge width {len(challenge)} != k={self.k}")
        if len(ys) != self.k or len(answers) != self.k:
            raise LengthMismatch(f"expected {self.k} obligations and answers")
        return all(
            self.base.verify(t, y, b, a)
            for t, y, b, a in zip(env.parts, ys, challenge, answers)
        )


_KIND_PREIMAGE = 0
_KIND_EQUATION = 1


def encode_answer(answer: Answer) -> bytes:
    if isinstance(answer, Preimage):
        return bytes([_KIND_PREIMAGE, int(answer.bit)]) + pack_bits(answer.v)
    if isinstance(answer, Equation):
        return bytes([_KIND_EQUATION, int(answer.c)]) + pack_bits(answer.d)
    raise TypeError(f"not an answer: {answer!r}")


def decode_answer(data: bytes, offset: int = 0) -> tuple[Answer, int]:
    kind, bit = data[offset], data[offset + 1]
    if bit > 1:
        raise ValueError(f"answer bit byte must be 0 or 1, got {bit}")
    payload, end = unpack_bits(data, offset + 2)
    if kind == _KIND_PREIMAGE:
        return Preimage(str(bit), payload), end
    if kind == _KIND_EQUATION:
        return Equation(str(bit), payload), end
    raise ValueError(f"unknown answer kind {kind}")


def encode_answers(answers) -> bytes:
    out = [struct.pack("<I", len(answers))]
    out.extend(encode_answer(a) for a in answers)
    return b"".join(out)


def decode_answers(data: bytes) -> tuple[Answer, ...]:
    (count,) = struct.unpack_from("<I", data, 0)
    offset = 4
    answers = []
    for _ in range(count):
        a, offset = decode_answer(data, offset)
        answers.append(a)
    if offset != len(data):
        raise ValueError("trailing bytes after answers")
    return tuple(answers)


def encode_obligations(ys) -> bytes:
    out = [struct.pack("<I", len(ys))]
    out.extend(pack_bits(y) for y in ys)
    return b"".join(out)


def decode_obligations(data: bytes) -> tuple[str, ...]:
    (count,) = struct.unpack_from("<I", data, 0)
    offset = 4
    ys = []
    for _ in range(count):
        y, offset = unpack_bits(data, offset)
        ys.append(y)
    if offset != len(data):
        raise ValueError("trailing bytes after obligations")
    return tuple(ys)
