"""Deterministic randomness built on the splitmix64 sequence.

Every random draw in the package flows through `Rng` so that a master seed
fully determines experiment output. Independent streams are derived with
`child_seed`, never by reusing a stream in two places.

Seed split convention used by the experiment layer:

    trial_seed = child_seed(master_seed, trial_index)
    v0 stream     = child_seed(trial_seed, 0)   # verifier V0 (keygen, nonce0)
    v1 stream     = child_seed(trial_seed, 1)   # verifier V1 (challenge or nonce1)
    actor stream  = child_seed(trial_seed, 2)   # prover or adversary pair (x0)
    oracle stream = child_seed(trial_seed, 3)   # per-trial random oracle

Adversary trials that draw randomness split the actor stream by handler:
u1 draws from child_seed(actor_seed, 1) and u2 from child_seed(actor_seed,
2), so a compiler that replays one handler sees exactly the stream the
original handler saw.
"""

from .errors import check_int

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """splitmix64 finalizer: a fixed 64-bit mixing permutation."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def child_seed(seed: int, index: int) -> int:
    """Derive the index-th independent child seed of a parent seed. The
    parent is an int in [0, 2^64) and the index an int >= 0; any other
    raises ConfigInvalid, so no two seeds alias."""
    check_int(seed, "seed", 0, _MASK64)
    check_int(index, "child index", 0)
    return mix64((seed + (index + 1) * _GOLDEN) & _MASK64)


class Rng:
    """splitmix64 generator: 64-bit state stepped by the golden gamma. Its
    seed is an int in [0, 2^64); any other raises ConfigInvalid."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = check_int(seed, "seed", 0, _MASK64)

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def bits(self, width: int) -> str:
        """Uniform bitstring of the given width, an int >= 0; any other
        raises ConfigInvalid. Each draw gives 64 bits, and the last its
        top bits, so bits(w) for w <= 64 is next_u64() >> (64 - w)."""
        check_int(width, "width", 0)
        out = ""
        while width > 64:
            out += format(self.next_u64(), "064b")
            width -= 64
        return out + format(self.next_u64() >> (64 - width), f"0{width}b") if width else out


class Uniforms:
    """Pre-drawn uniforms served in order, one per random() call.

    Lets one stacked measurement take its per-row draws in the order that
    separate per-instance measurements would have made them.
    """

    __slots__ = ("random",)

    def __init__(self, values):
        self.random = iter(values).__next__
