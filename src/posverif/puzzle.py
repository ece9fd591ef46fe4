"""1-of-2 puzzles over a toy shifted-bijection family.

The family: f_{key,b}(x) = P_seed(x xor b*s), where P_seed is a keyed
4-round Feistel bijection on n-bit strings and s is a nonzero secret shift.
Claws are exactly the pairs (x, x xor s), so the trapdoor can invert both
branches while the public side can only evaluate forward. keygen builds
each key's forward and inverse maps once, as closures over round keys
derived from the public seed alone: the public eval calls the forward
map, the trapdoor's inversion the inverse map. The Trapdoor is the key
itself (n, seed, s), which only the verifier side holds; a k-fold key is
a tuple of k handles and a tuple of k trapdoors, in instance order.
RepeatedPuzzle.solve is the one honest solver; RepeatedPuzzle(n, 1)
solves a single instance. BasePuzzle.obligate, which only the two-solver
game calls, gives its claw state in closed form (qsim.ClawState);
RepeatedPuzzle.obligate gives the protocol's dense stack. numpy loads
with the first dense state (see qsim), so the game never loads it.

Hardness is modeled by capability scoping, not computation: a PublicHandle
exposes eval through a closure and no read of s, but an exhaustive
search over eval queries recovers s in 2^n steps (and a test demonstrates
that deliberately). Its images(b) is the public route for that search: it
maps the forward map over all 2^n preimages of one branch, lazily, as
ints, the same capability as 2^n eval queries. n is capped at 12 to keep
that honest.

Challenge bits and preimages are '0'/'1' strings throughout (see bits.py);
a challenge of a k-fold puzzle is a k-bit string.
"""

import struct
from dataclasses import dataclass
from itertools import chain

from . import qsim
from .bits import (
    check_bits,
    dot_bits,
    int_to_bits,
    is_zero,
    pack_bits,
    pack_u32,
    read_u32,
    unpack_bits,
    xor_bits,
)
from .errors import LengthMismatch, MalformedMessage, WrongStateShape, check_int
from .rng import Uniforms, mix64

N_MIN = 2
N_MAX = 12

_GOLDEN = 0x9E3779B97F4A7C15
_C1 = 0xBF58476D1CE4E5B9  # the splitmix64 finalizer's multipliers (rng.mix64)
_C2 = 0x94D049BB133111EB


def _feistel_maps(seed: int, n: int):
    """The forward and inverse maps of the key with this public seed:
    P_seed and its inverse on n-bit ints.

    Even rounds mix the right half into the left, odd rounds the left
    into the right. Round r XORs in mix64(round key r XOR the other
    half), masked to the half's width; the round keys are
    mix64(seed + (r + 1) * _GOLDEN). mix64 is written out, with two
    exact shortcuts that hold because a half has at most 6 bits (n <= 12):
    - Its first step z ^ (z >> 30), on z = key ^ half, equals
      (key ^ (key >> 30)) ^ half, so that term is folded into the
      stored round key.
    - Only bits 0-5 and 31-36 of its second product are read (the half
      mask after z ^ (z >> 31)). The low bits of a product depend only on
      the low bits of its factors, so those read only bits 0-36 of
      z ^ (z >> 27), which read only bits 0-63 of the first product.
      So neither product is reduced mod 2^64.
    The forward map, which images runs 2^n times, has its four rounds
    written out; the inverse map loops over them backwards.
    """
    keys = [mix64(seed + r * _GOLDEN) for r in (1, 2, 3, 4)]
    k0, k1, k2, k3 = keys = [k ^ (k >> 30) for k in keys]
    wr = n - n // 2
    mask_l = (1 << (n // 2)) - 1
    mask_r = (1 << wr) - 1

    def forward(x: int) -> int:
        left = x >> wr
        right = x & mask_r
        z = (k0 ^ right) * _C1
        z = (z ^ (z >> 27)) * _C2
        left ^= (z ^ (z >> 31)) & mask_l
        z = (k1 ^ left) * _C1
        z = (z ^ (z >> 27)) * _C2
        right ^= (z ^ (z >> 31)) & mask_r
        z = (k2 ^ right) * _C1
        z = (z ^ (z >> 27)) * _C2
        left ^= (z ^ (z >> 31)) & mask_l
        z = (k3 ^ left) * _C1
        z = (z ^ (z >> 27)) * _C2
        right ^= (z ^ (z >> 31)) & mask_r
        return (left << wr) | right

    def inverse(y: int) -> int:
        left = y >> wr
        right = y & mask_r
        for r in (3, 2, 1, 0):
            z = (keys[r] ^ (left if r & 1 else right)) * _C1
            z = (z ^ (z >> 27)) * _C2
            z ^= z >> 31
            if r & 1:
                right ^= z & mask_r
            else:
                left ^= z & mask_l
        return (left << wr) | right

    return forward, inverse


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


def _is_bits(s, n: int) -> bool:
    """Whether s is an n-bit string of '0'/'1' characters."""
    return isinstance(s, str) and len(s) == n and not s.strip("01")


class PublicHandle:
    """Evaluation capability for one key; exposes no read of the shift."""

    __slots__ = ("n", "key_id", "_eval", "_images")

    def __init__(self, n: int, key_id: str, eval_fn, images_fn):
        self.n = n
        self.key_id = key_id
        self._eval = eval_fn
        self._images = images_fn

    def eval(self, b: str, x: str) -> str:
        _check_bit(b, "branch")
        check_bits(x, self.n, "preimage")
        return self._eval(b, x)

    def images(self, b: str):
        """A lazy map giving f_b(x) as an int for x = 0, 1, ..., 2^n - 1
        in order: the same capability as 2^n eval queries, without the
        bitstring round trip. A bad branch bit raises at the call."""
        _check_bit(b, "branch")
        return self._images(b)

    def __repr__(self):
        return f"PublicHandle(n={self.n}, key_id={self.key_id})"


class Trapdoor:
    """The full key of one instance, which only the verifier side holds:
    width n, public seed and nonzero shift s (claws are (x, x xor s)),
    with the key's inverse Feistel map and its public handle's eval."""

    __slots__ = ("n", "seed", "s", "eval", "_inverse")

    def __init__(self, n: int, seed: int, s: str, eval_fn, inverse):
        self.n = n
        self.seed = seed
        self.s = s
        self.eval = eval_fn
        self._inverse = inverse

    def inv(self, b: str, y: str) -> str:
        _check_bit(b, "branch")
        check_bits(y, self.n, "image")
        pre = int_to_bits(self._inverse(int(y, 2)), self.n)
        return xor_bits(pre, self.s) if b == "1" else pre


def _make_eval(n: int, s: str, forward):
    """The public handle's eval and images closures over the key's forward
    map; s stays inside them."""
    s_int = int(s, 2)

    def eval_fn(b: str, x: str) -> str:
        arg = int(x, 2) ^ s_int if b == "1" else int(x, 2)
        return int_to_bits(forward(arg), n)

    def images_fn(b: str):
        if b == "1":
            return map(forward, map(s_int.__xor__, range(1 << n)))
        return map(forward, range(1 << n))

    return eval_fn, images_fn


def public_key_bytes(n: int, seed: int) -> bytes:
    return struct.pack("<IQ", n, seed)


class BasePuzzle:
    """The 1-of-2 puzzle: one key, one challenge bit. It owns the width
    n, an int in [N_MIN, N_MAX]; any other n raises ConfigInvalid. It
    has no solver: RepeatedPuzzle(n, 1) solves its claw states."""

    def __init__(self, n: int):
        self.n = check_int(n, "n", N_MIN, N_MAX)

    def sample_challenge(self, rng) -> str:
        return rng.bits(1)

    def keygen(self, rng) -> tuple[PublicHandle, Trapdoor]:
        """Draw a key: the public seed, then a nonzero shift s.

        The key's forward and inverse Feistel maps are built here, once
        per key: the handle's eval and images call the forward map, the
        trapdoor's inv the inverse map. Their round keys follow from the
        seed in key_id, so the handle learns nothing of s.
        """
        seed = rng.next_u64()
        s = rng.bits(self.n)
        while is_zero(s):  # s = 0 would merge the two branches
            s = rng.bits(self.n)
        key_id = public_key_bytes(self.n, seed).hex()
        forward, inverse = _feistel_maps(seed, self.n)
        handle = PublicHandle(self.n, key_id, *_make_eval(self.n, s, forward))
        return handle, Trapdoor(self.n, seed, s, handle.eval, inverse)

    def obligate(self, handle: PublicHandle, trapdoor: Trapdoor,
                 rng) -> tuple[str, qsim.ClawState]:
        """Sample an obligation y and the claw superposition behind it.

        Shortcut construction: draw x0, publish y = f_0(x0), and build
        (|0,x0> + |1,x1>)/sqrt(2) with x1 = inv(1, y), in closed form.
        Distribution over (y, state) equals the measured oracle circuit;
        run_obligate_circuit is the cross-check.
        """
        y, x0, x1 = self._claw(handle, trapdoor, rng)
        return y, qsim.ClawState.prepare(x0, x1)

    def _claw(self, handle: PublicHandle, trapdoor: Trapdoor, rng) -> tuple[str, str, str]:
        x0 = rng.bits(self.n)
        y = handle.eval("0", x0)
        return y, x0, trapdoor.inv("1", y)

    def verify(self, trapdoor: Trapdoor, y: str, challenge: str, answer: Answer) -> bool:
        """Whether answer solves y. y and answer are the prover's, so a
        wrong kind, a bit other than '0'/'1', or a y, v or d that is not
        n '0'/'1' bits rejects; the verifier's challenge bit raises."""
        _check_bit(challenge)
        n = trapdoor.n
        if challenge == "0":
            # eval returns an n-bit string, which no malformed y equals
            return (isinstance(answer, Preimage) and _is_bits(answer.bit, 1)
                    and _is_bits(answer.v, n) and trapdoor.eval(answer.bit, answer.v) == y)
        return (isinstance(answer, Equation) and _is_bits(answer.c, 1)
                and _is_bits(answer.d, n) and _is_bits(y, n) and not is_zero(answer.d)
                and dot_bits(answer.d, trapdoor.s) == int(answer.c, 2))


def obligate_circuit_state(handle: PublicHandle) -> qsim.StateVector:
    """Pre-measurement oracle circuit state over bit(1), preimage(n), image(n).

    Uniform superposition over (b, x) with f_b(x) XORed into the image
    register. Needs only the public evaluator. Used to cross-check the
    obligate shortcut; n is limited by the 24-qubit cap (2n+1 qubits).
    """
    import numpy as np

    n = handle.n
    state = qsim.new_state([("bit", 1), ("preimage", n), ("image", n)])
    state = qsim.apply_hadamard(state, "bit")
    state = qsim.apply_hadamard(state, "preimage")
    f_val = np.fromiter(chain(handle.images("0"), handle.images("1")),
                        dtype=np.int64, count=1 << (n + 1))
    bx = np.arange(1 << (2 * n + 1)) >> n
    e = np.arange(1 << (2 * n + 1)) & ((1 << n) - 1)
    perm = (bx << n) | (e ^ f_val[bx])
    return qsim.permute_basis(state, perm)


def run_obligate_circuit(handle: PublicHandle, rng) -> tuple[str, qsim.StateVector]:
    """Obligate by actually running and measuring the oracle circuit."""
    return qsim.measure(obligate_circuit_state(handle), "image", rng)


class RepeatedPuzzle:
    """k independent instances, each answering its own challenge bit.

    A challenge is a k-bit string, bit i for instance i; verification is
    the AND over instances. k=1 is the base puzzle with a solver.

    The k claw states travel as one qsim stack, row i holding instance i;
    obligate builds it and solve measures it in one pass per register.
    Keys, obligations and verdicts equal those of k base puzzles run one
    after another, and solve's answers and rng draws those of solving
    the instances one after another. It owns k, an int >= 1; any other k
    raises ConfigInvalid, a ValueError.
    """

    def __init__(self, n: int, k: int):
        self.base = BasePuzzle(n)
        self.n = n
        self.k = check_int(k, "k", 1)

    def sample_challenge(self, rng) -> str:
        return rng.bits(self.k)

    def keygen(self, rng) -> tuple[tuple[PublicHandle, ...], tuple[Trapdoor, ...]]:
        """k base keys, drawn one after another: the tuple of their
        handles and the tuple of their trapdoors, in instance order."""
        return tuple(zip(*(self.base.keygen(rng) for _ in range(self.k))))

    def obligate(self, handles, trapdoors, rng):
        """Sample the k obligations, instance by instance as the base
        puzzle would, and the stack of their claw states, one row each.
        Fewer or more than k keys raise LengthMismatch, and a stack over
        the qubit cap CapacityExceeded, both before the first draw."""
        if len(handles) != self.k or len(trapdoors) != self.k:
            raise LengthMismatch(f"{len(handles)} handles and {len(trapdoors)} "
                                 f"trapdoors for {self.k} instances")
        qsim.check_claw_stack(self.k, self.n)
        ys, x0s, x1s = zip(*(self.base._claw(h, t, rng)
                             for h, t in zip(handles, trapdoors)))
        return ys, qsim.prepare_claw_state(x0s, x1s)

    def solve(self, state: qsim.StateVector, challenge: str, rng) -> tuple[Answer, ...]:
        """The honest quantum solver, over the stack of k claw states.

        Rows whose challenge bit is 1 turn to the Hadamard basis. Both
        registers are then measured over the whole stack, each row drawing
        from rng in per-instance order: bit, then preimage, row by row.
        The 2k draws are taken up front.
        """
        check_bits(challenge, self.k, "challenge")
        regs = (("bit", 1), ("preimage", self.n))
        if (not isinstance(state, qsim.StateVector) or state.regs != regs
                or state.amps.shape[:-1] != (self.k,)):
            raise WrongStateShape(f"expected {self.k} rows of registers bit(1), "
                                  f"preimage({self.n}), got {state!r}")
        draws = [rng.random() for _ in range(2 * self.k)]
        if "1" in challenge:
            ones = [i for i, b in enumerate(challenge) if b == "1"]
            state = qsim.apply_hadamard(state, "bit", ones)
            state = qsim.apply_hadamard(state, "preimage", ones)
        firsts, rest = qsim.measure(state, "bit", Uniforms(draws[0::2]))
        seconds, _ = qsim.measure(rest, "preimage", Uniforms(draws[1::2]))
        return tuple([(Equation if b == "1" else Preimage)(first, second)
                      for b, first, second in zip(challenge, firsts, seconds)])

    def verify(self, trapdoors, ys, challenge: str, answers) -> bool:
        """AND of the base verdicts; the wrong number of obligations or
        answers rejects, a malformed challenge raises."""
        check_bits(challenge, self.k, "challenge")
        if len(ys) != self.k or len(answers) != self.k:
            return False
        return all(
            self.base.verify(t, y, b, a)
            for t, y, b, a in zip(trapdoors, ys, challenge, answers)
        )


_KIND_PREIMAGE = 0
_KIND_EQUATION = 1
_ANSWER_KINDS = {_KIND_PREIMAGE: Preimage, _KIND_EQUATION: Equation}


def encode_answer(answer: Answer) -> bytes:
    if isinstance(answer, Preimage):
        return bytes([_KIND_PREIMAGE, int(answer.bit)]) + pack_bits(answer.v)
    if isinstance(answer, Equation):
        return bytes([_KIND_EQUATION, int(answer.c)]) + pack_bits(answer.d)
    raise TypeError(f"not an answer: {answer!r}")


def decode_answer(data: bytes, offset: int = 0) -> tuple[Answer, int]:
    if len(data) < offset + 2:
        raise MalformedMessage(f"truncated answer header at offset {offset}")
    kind, bit = data[offset], data[offset + 1]
    if bit > 1 or kind not in _ANSWER_KINDS:
        raise MalformedMessage(f"answer of kind {kind} with bit byte {bit}")
    payload, end = unpack_bits(data, offset + 2)
    return _ANSWER_KINDS[kind](str(bit), payload), end


def _encode_list(items, encode_item) -> bytes:
    return pack_u32(len(items)) + b"".join(map(encode_item, items))


def _decode_list(data: bytes, decode_item, what: str) -> tuple:
    """A u32 count, then that many items, then nothing."""
    count, offset = read_u32(data)
    items = []
    for _ in range(count):
        item, offset = decode_item(data, offset)
        items.append(item)
    if offset != len(data):
        raise MalformedMessage(f"trailing bytes after {what}")
    return tuple(items)


def encode_answers(answers) -> bytes:
    return _encode_list(answers, encode_answer)


def decode_answers(data: bytes) -> tuple[Answer, ...]:
    return _decode_list(data, decode_answer, "answers")


def encode_obligations(ys) -> bytes:
    return _encode_list(ys, pack_bits)


def decode_obligations(data: bytes) -> tuple[str, ...]:
    return _decode_list(data, unpack_bits, "obligations")
