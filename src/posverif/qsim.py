"""Dense statevector engine over named qubit registers, and claw states
in closed form.

Scope is deliberately small: claw-state preparation, Hadamard layers,
standard-basis measurement, basis permutations, EPR pairs and
teleportation, plus the plumbing (tensor/split/merge/collapse) that only
the tests and the claw_states demo call. There is no general gate set.

The dense engine runs the protocol's claw-state stacks and serves as the
reference. The two-solver game plays on ClawState, a claw state in closed
form: apply_hadamard and measure hand it to its own methods, which draw
exactly what the dense engine would, and ClawState.dense() gives the
equivalent StateVector for the tests and the claw_states demo.

Basis convention: concatenate the register bitstrings in declaration order,
most significant bit first; a basis index is that string read as binary.
All operations return fresh StateVector values; nothing mutates in place
except through SharedState/ScopedState, which exist to model two parties
holding registers of one entangled state.

Amplitudes of shape (2^q,) are one state; amplitudes of shape (rows, 2^q)
are a stack of independent states over the same registers, one per row.
The Hadamard, Born-rule, measurement, basis-permutation (the Bell CNOT
layer is one) and tensor kernels act on every row of a stack in one numpy
pass, and a single state is their batch-free case, with no row axis.

Amplitudes are int64 and unnormalized: every state the engine builds is
integers times a power of 1/sqrt(2), a positive factor left implicit, so
a Hadamard is a + b, a - b and a projection only selects its slice. A
row's Born weights are exact integer sums of squares, and a probability
is a weight over the row's total weight, which _reduced keeps below 2^62.
A Hadamard layer divides out the power of two common to its amplitudes,
so H applied twice to a register gives back the amplitudes of any state
that a layer or the checked constructor made. The teleport corrections
are classical bits XORed into outcomes, not gates.

The teleport attack does not run the Bell circuit: by the teleportation
identity its keys are fair coins, and the remote outcome in basis b is
the honest outcome XOR k_b, so it samples at measurement level through
the honest solver. make_epr_pairs, bell_circuit and teleport are the
dense reference the tests check that identity against, as
puzzle.run_obligate_circuit is for puzzle obligate.

numpy loads on the first call that builds or reads a dense state, not at
import: ClawState and everything the two-solver game calls run without it,
so neither `import posverif` nor a game round loads it.
"""

from __future__ import annotations

from .bits import check_bits, int_to_bits
from .errors import (
    CapacityExceeded,
    DuplicateRegister,
    LengthMismatch,
    RegisterViolation,
    UnknownRegister,
    check_int,
)

Q_MAX = 24
_AMP_LIMIT = 1 << (62 - Q_MAX) // 2


class _LazyNumpy:
    """Stands in for numpy until an attribute is first read: that read
    imports numpy and rebinds this module's np to it, so later calls pay
    nothing."""

    def __getattr__(self, name):
        global np
        import numpy as np
        return getattr(np, name)


np = _LazyNumpy()


class StateVector:
    """Pure state, or stack of pure states, over an ordered tuple of named
    registers."""

    __slots__ = ("amps", "regs", "q")

    def __init__(self, regs, amps, check: bool = True):
        if amps.dtype != np.int64:
            raise ValueError(f"amplitudes must be int64, got {amps.dtype}")
        self.regs = tuple(regs)
        self.amps = _reduced(amps) if check else amps
        self.q = sum(w for _, w in self.regs)
        dead = np.flatnonzero(~amps.any(axis=-1)) if check else ()
        if len(dead):
            raise ValueError(f"row {dead[0]} has zero weight")

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.regs)

    def width(self, register: str) -> int:
        return _spans(self, register)[1]

    def __repr__(self):
        spec = ", ".join(f"{name}:{w}" for name, w in self.regs)
        rows = f"; {len(self.amps)} rows" if self.amps.ndim > 1 else ""
        return f"StateVector({spec}{rows})"


def _check_regs(regs) -> int:
    seen = set()
    total = 0
    for name, w in regs:
        if not isinstance(name, str) or not name:
            raise ValueError(f"register name must be a nonempty string, got {name!r}")
        total += check_int(w, f"register {name!r} width", 1)
        if name in seen:
            raise DuplicateRegister(f"register {name!r} declared twice")
        seen.add(name)
    if total > Q_MAX:
        raise CapacityExceeded(f"{total} qubits exceeds the {Q_MAX}-qubit cap")
    return total


def _reduced(amps: np.ndarray) -> np.ndarray:
    """amps divided by the largest power of two that divides all of them,
    an exact rescale that no weight ratio sees. The one overflow guard, run
    by the checked constructor and by Hadamard and tensor, the only
    operations that grow an amplitude: a magnitude that still reaches 2^19
    raises CapacityExceeded, so a row's weight, at most 2^Q_MAX squares,
    stays below 2^62. The OR of the magnitudes is as long as the largest,
    with as many trailing zeros as the power of two common to all."""
    bits = int(np.bitwise_or.reduce(np.abs(amps), axis=None))
    shift = (bits & -bits).bit_length() - 1 if bits else 0
    if not 0 <= bits >> shift < _AMP_LIMIT:  # below 0: np.abs wrapped at -2^63
        raise CapacityExceeded(f"an amplitude reaches {_AMP_LIMIT}, past the int64 weight bound")
    return amps >> shift if shift else amps


def new_state(registers) -> StateVector:
    """All-zeros basis state over the given (name, width) registers."""
    regs = tuple(registers)
    total = _check_regs(regs)
    amps = np.zeros(1 << total, dtype=np.int64)
    amps[0] = 1
    return StateVector(regs, amps, check=False)


def check_claw_stack(rows: int, n: int) -> tuple:
    """The registers bit(1), preimage(n) of a stack of rows claw states;
    rows and n must be ints >= 1 (ConfigInvalid otherwise). The stack counts
    toward the qubit cap as a whole: rows * 2^(n+1) amplitudes above
    2^Q_MAX raise CapacityExceeded."""
    check_int(rows, "claw stack rows", 1)
    check_int(n, "register 'preimage' width", 1)
    if rows << (n + 1) > 1 << Q_MAX:
        raise CapacityExceeded(f"{rows} rows of {n + 1} qubits exceed the {Q_MAX}-qubit cap")
    return ("bit", 1), ("preimage", n)


def prepare_claw_state(x0, x1) -> StateVector:
    """|0,x0> + |1,x1> over registers bit(1), preimage(n).

    Given two equal-length tuples or lists of preimages instead of two
    strings, returns the stack of claw states, one row per (x0, x1) pair,
    after check_claw_stack. Each preimage must be a str of n '0'/'1'
    characters (bits.check_bits).
    """
    stacked = isinstance(x0, (tuple, list))
    x0s, x1s = (x0, x1) if stacked else ((x0,), (x1,))
    if len(x0s) != len(x1s):
        raise LengthMismatch(f"{len(x0s)} x0 preimages but {len(x1s)} x1 preimages")
    n = check_bits(x0s[0], None, "preimage") if x0s else 0
    regs = check_claw_stack(len(x0s), n)
    size = 2 << n
    amps = np.zeros(len(x0s) * size, dtype=np.int64)
    for start, a, b in zip(range(0, amps.size, size), x0s, x1s):
        amps[start + _preimage(a, n)] = amps[start + (1 << n) + _preimage(b, n)] = 1
    return StateVector(regs, amps.reshape(len(x0s), size) if stacked else amps, check=False)


def _preimage(x: str, n: int) -> int:
    check_bits(x, n, "preimage")
    return int(x, 2)


def _spans(state: StateVector, register: str) -> tuple[int, int, int]:
    """Qubits before the register, in it and after it."""
    off = 0
    for name, w in state.regs:
        if name == register:
            return off, w, state.q - off - w
        off += w
    raise UnknownRegister(f"no register named {register!r}")


def _h_qubit(amps: np.ndarray, q: int, pos: int, out: np.ndarray) -> np.ndarray:
    """Hadamard on qubit pos of every row of amps, written into out."""
    cube = amps.reshape(-1, 2, 1 << (q - pos - 1))
    dst = out.reshape(cube.shape)
    np.add(cube[:, 0], cube[:, 1], out=dst[:, 0])
    np.subtract(cube[:, 0], cube[:, 1], out=dst[:, 1])
    return out


def apply_hadamard(state: StateVector, register: str, rows=None) -> StateVector:
    """Hadamard on every qubit of the register, as one layer, _reduced.

    On a stack, rows (a list of row indices, each an int naming a row,
    else ConfigInvalid) limits it to those rows; None means every row.
    A ClawState applies it in closed form.
    """
    if rows is not None and (isinstance(state, ClawState) or state.amps.ndim == 1):
        raise ValueError("rows select rows of a stack; this is a single state")
    if isinstance(state, ClawState):
        return state.apply_hadamard(register)
    off, w, _ = _spans(state, register)
    if rows is not None:
        for row in rows:
            check_int(row, "stack row", 0, len(state.amps) - 1)
        if len(set(rows)) == len(state.amps):
            rows = None
    part = state.amps if rows is None else state.amps[rows]
    spare = None  # a buffer of this call's own that the next qubit may reuse
    for j in range(w):
        out = np.empty_like(part) if spare is None else spare
        spare = part if j or rows is not None else None
        part = _h_qubit(part, state.q, off + j, out)
    part = _reduced(part)
    if rows is None:
        return StateVector(state.regs, part, check=False)
    amps = state.amps.copy()
    amps[rows] = part
    return StateVector(state.regs, amps, check=False)


def _born(state: StateVector, register: str):
    """The amplitudes as a (row, before, register, after) cube, the
    register's Born weights per row and its width; a single state is one row."""
    off, w, post = _spans(state, register)
    cube = state.amps.reshape(-1, 1 << off, 1 << w, 1 << post)
    return cube, np.einsum("biok,biok->bo", cube, cube), w


def _per_row(state: StateVector, values: tuple):
    """values, one per row, for a stack; the only value for a single state."""
    return values if state.amps.ndim > 1 else values[0]


def _project(state: StateVector, register: str, cube: np.ndarray,
             outcomes: list[int]) -> StateVector:
    """Each row's slice at its outcome, with the register dropped."""
    o = outcomes[0]
    picked = (cube[:, :, o] if outcomes.count(o) == len(outcomes)
              else cube[np.arange(len(outcomes)), :, outcomes])
    regs = tuple(r for r in state.regs if r[0] != register)
    return StateVector(regs, picked.reshape(state.amps.shape[:-1] + (-1,)), check=False)


def _uniform(rng) -> float:
    u = rng.random()
    if not 0.0 <= u < 1.0:
        raise ValueError(f"uniform {u!r} lies outside [0, 1)")
    return u


def measurement_distribution(state: StateVector, register: str):
    """Born probabilities of standard-basis outcomes on the register, each
    weight over the row's total as a float, in a dict (one per row for a
    stack) whose keys are the support: outcomes of weight zero are omitted."""
    _, weights, w = _born(state, register)
    return _per_row(state, tuple(
        {int_to_bits(o, w): p / total for o, p in enumerate(row) if p}
        for row, total in zip(weights.tolist(), weights.sum(axis=1).tolist())))


def measure(state: StateVector, register: str, rng):
    """Standard-basis measurement of a whole register.

    Draws one uniform u = num/den in [0, 1) from rng per row, in row order
    (any other u raises ValueError), and picks the first outcome in index
    order whose cumulative weight exceeds u * W, W the row's total weight:
    in integers, the first above num * W // den, so every u lands on an
    outcome of nonzero weight. The register is dropped from the residual.
    Returns (outcome, residual), the outcome a bitstring; on a stack, one
    outcome per row. A ClawState measures in closed form, with the same draw.
    """
    if isinstance(state, ClawState):
        return state.measure(register, rng)
    cube, weights, w = _born(state, register)
    outcomes = []
    for cdf in weights.cumsum(axis=1):
        num, den = _uniform(rng).as_integer_ratio()
        outcomes.append(int(cdf.searchsorted(num * int(cdf[-1]) // den, "right")))
    return (_per_row(state, tuple(int_to_bits(o, w) for o in outcomes)),
            _project(state, register, cube, outcomes))


def collapse(state: StateVector, register: str, outcome: str):
    """Deterministic projection onto one outcome; test-oracle plumbing.

    Returns the Born probability (one per row for a stack) and the residual
    state. Raises ValueError if the outcome has zero weight in some row.
    """
    cube, weights, w = _born(state, register)
    if len(outcome) != w:
        raise LengthMismatch(f"outcome width {len(outcome)} != register width {w}")
    o = int(outcome, 2)
    if not weights[:, o].all():
        raise ValueError(f"outcome {outcome} has zero probability")
    ps = [row[o] / sum(row) for row in weights.tolist()]
    return _per_row(state, tuple(ps)), _project(state, register, cube, [o] * len(ps))


def make_epr_pairs(count: int) -> StateVector:
    """count EPR pairs: registers R and S, pair i = qubit i of R with qubit i of S."""
    regs = (("R", count), ("S", count))
    _check_regs(regs)
    amps = np.zeros(1 << (2 * count), dtype=np.int64)
    r = np.arange(1 << count)
    amps[(r << count) | r] = 1
    return StateVector(regs, amps, check=False)


def bell_circuit(state: StateVector, source: str, epr_local: str) -> StateVector:
    """Deterministic half of teleportation: pairwise CNOT, one basis
    permutation XORing the source bits into epr_local's, then H on source.

    Measuring source (-> k1) and epr_local (-> k0) afterwards completes a
    Bell measurement of each qubit pair. Exposed so tests can enumerate
    every (k0, k1) branch exactly with collapse instead of sampling.
    """
    if source == epr_local:
        raise ValueError("source and epr_local must be distinct registers")
    _, w, source_shift = _spans(state, source)
    _, local_w, local_shift = _spans(state, epr_local)
    if local_w != w:
        raise LengthMismatch(f"register widths differ: {source}={w}, {epr_local}={local_w}")
    index = np.arange(1 << state.q)
    source_bits = (index >> source_shift) & ((1 << w) - 1)
    working = permute_basis(state, index ^ (source_bits << local_shift))
    return apply_hadamard(working, source)


def teleport(state: StateVector, source: str, epr_local: str, rng):
    """Teleport the source register through local EPR halves.

    Bell-measures each (source qubit, epr_local qubit) pair: CNOT from
    source onto epr_local, Hadamard on source, then measure both registers.
    Returns (k0, k1, residual): k0 is the epr_local outcome (X corrections,
    XOR it into remote standard-basis results), k1 the source outcome
    (Z corrections, XOR it into remote Hadamard-basis results). The remote
    halves now hold X^k0 Z^k1 applied to the former source state. On a
    stack, rng gives one uniform per row for source, then one per row for
    epr_local, and k0 and k1 are tuples with one outcome per row.
    """
    k1, working = measure(bell_circuit(state, source, epr_local), source, rng)
    k0, working = measure(working, epr_local, rng)
    return k0, k1, working


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Joint state with a's registers before b's.

    Two stacks join row by row; a single state joins every row of a stack.
    """
    regs = a.regs + b.regs
    _check_regs(regs)
    joint = _reduced(a.amps[..., :, None] * b.amps[..., None, :])
    return StateVector(regs, joint.reshape(joint.shape[:-2] + (-1,)), check=False)


def split_register(state: StateVector, register: str, parts) -> StateVector:
    """Relabel one register as several adjacent ones; amplitudes unchanged."""
    parts = tuple(parts)
    w = state.width(register)
    if sum(pw for _, pw in parts) != w:
        raise LengthMismatch(f"parts must cover exactly {w} qubits")
    at = state.names().index(register)
    regs = state.regs[:at] + parts + state.regs[at + 1:]
    _check_regs(regs)
    return StateVector(regs, state.amps, check=False)


def merge_registers(state: StateVector, names, new_name: str) -> StateVector:
    """Relabel consecutive registers as one; amplitudes unchanged."""
    names = tuple(names)
    current = state.names()
    for start in range(len(current)):
        if current[start : start + len(names)] == names:
            break
    else:
        raise UnknownRegister(f"registers {names} are not consecutive in {current}")
    merged = (new_name, sum(state.width(n) for n in names))
    regs = state.regs[:start] + (merged,) + state.regs[start + len(names):]
    _check_regs(regs)
    return StateVector(regs, state.amps, check=False)


def permute_basis(state: StateVector, new_index_of_old: np.ndarray) -> StateVector:
    """Apply a basis permutation (a classical reversible map) to the state."""
    amps = np.zeros_like(state.amps)
    amps[..., new_index_of_old] = state.amps
    return StateVector(state.regs, amps, check=False)


class ClawState:
    """Claw state in closed form: H_R(|u0> + (-1)^phase |u1>), with R
    (frame) the set of registers in the Hadamard frame and u0, u1 basis
    indices over regs. u1 equals u0 once a measurement has split the two
    branches, and the state is then H_R|u0>.

    prepare builds |0,x0> + |1,x1> over bit(1), preimage(n), as
    prepare_claw_state does densely, and raises the errors it raises.
    apply_hadamard and measure are reached through the module functions
    of the same names. A measurement draws one uniform u, and its outcome
    is the one the dense engine picks for that u, on every u in [0, 1),
    since the dense weights of a claw state are exactly equal:
    - a register outside R gives its bits in u0 or u1; if they differ,
      each has probability 1/2, the lower index wins iff u < 1/2, and
      that branch is kept;
    - a register S inside R gives the floor(u * 2^|S|)-th member, in
      index order, of its support: every string if the branches differ
      outside S or not at all (then phase ^= z.(u0 xor u1)_S), else the
      strings z with z.(u0 xor u1)_S = phase, and one branch is kept.
    The residual drops a global sign that the dense residual keeps.
    """

    __slots__ = ("regs", "q", "u0", "u1", "phase", "frame")

    def __init__(self, regs, u0: int, u1: int | None = None, phase: int = 0,
                 frame=frozenset()):
        self.regs = tuple(regs)
        self.q = sum(w for _, w in self.regs)
        self.u0 = u0
        self.u1 = u0 if u1 is None else u1
        self.phase = phase
        self.frame = frozenset(frame)

    @classmethod
    def prepare(cls, x0: str, x1: str) -> "ClawState":
        n = check_bits(x0, None, "preimage")
        return cls(check_claw_stack(1, n), _preimage(x0, n), (1 << n) | _preimage(x1, n))

    names, width = StateVector.names, StateVector.width

    def apply_hadamard(self, register: str) -> "ClawState":
        self.width(register)  # raises UnknownRegister
        return ClawState(self.regs, self.u0, self.u1, self.phase,
                         self.frame ^ {register})

    def measure(self, register: str, rng) -> tuple[str, "ClawState"]:
        _, w, post = _spans(self, register)
        u = _uniform(rng)
        mask, low = (1 << w) - 1, (1 << post) - 1
        a0, a1 = (self.u0 >> post) & mask, (self.u1 >> post) & mask
        r0 = (self.u0 >> (post + w) << post) | (self.u0 & low)
        r1 = (self.u1 >> (post + w) << post) | (self.u1 & low)
        s, phase = a0 ^ a1, self.phase
        if register not in self.frame:
            z = a1 if s and (u < 0.5) != (a0 < a1) else a0
            if s:
                r0 = r1 = r0 if z == a0 else r1
        elif r0 != r1 or not s:
            z = int(u * (1 << w))
            phase ^= (z & s).bit_count() & 1
        else:
            # z.s = phase: split z at s's lowest set bit p, which z's lower
            # bits do not reach; bit p of z then follows from its higher bits
            j = int(u * (1 << (w - 1)))
            p = (s & -s).bit_length() - 1
            high = j >> p
            bit = phase ^ ((high & (s >> (p + 1))).bit_count() & 1)
            z = (high << (p + 1)) | (bit << p) | (j & ((1 << p) - 1))
        regs = tuple(r for r in self.regs if r[0] != register)
        return int_to_bits(z, w), ClawState(regs, r0, r1, phase, self.frame - {register})

    def dense(self) -> StateVector:
        """The equivalent StateVector."""
        amps = np.zeros(1 << self.q, dtype=np.int64)
        amps[self.u0] = 1
        if self.u1 != self.u0:
            amps[self.u1] = -1 if self.phase else 1
        state = StateVector(self.regs, amps, check=False)
        for name in self.names():
            if name in self.frame:
                state = apply_hadamard(state, name)
        return state

    def __repr__(self):
        spec = ", ".join(f"{name}:{w}" for name, w in self.regs)
        return f"ClawState({spec}; frame {sorted(self.frame)})"


class SharedState:
    """Mutable cell holding one state that several scoped parties act on,
    and the set of its registers already granted to one of them."""

    __slots__ = ("state", "granted")

    def __init__(self, state: StateVector):
        self.state = state
        self.granted = frozenset()


class ScopedState:
    """View of a SharedState restricted to an allowed register set.

    Models one party's side of an entangled state: it can apply Hadamards
    and measure, learning the outcome, nothing more. A register outside
    the grant raises RegisterViolation instead of acting on the other
    party's qubits, and so does a grant that overlaps an earlier view's of
    the same cell: a cell grants each register once (no cloning).
    """

    __slots__ = ("_cell", "_allowed")

    def __init__(self, cell: SharedState, allowed):
        self._cell = cell
        self._allowed = frozenset(allowed)
        if self._allowed & cell.granted:
            raise RegisterViolation(f"registers {sorted(self._allowed & cell.granted)}"
                                    " are already granted to another party")
        cell.granted |= self._allowed

    def _check(self, register: str):
        if register not in self._allowed:
            raise RegisterViolation(f"register {register!r} is outside this party's grant")
        self._cell.state.width(register)  # raises UnknownRegister if gone

    def apply_hadamard(self, register: str):
        self._check(register)
        self._cell.state = apply_hadamard(self._cell.state, register)

    def measure(self, register: str, rng) -> str:
        self._check(register)
        outcome, self._cell.state = measure(self._cell.state, register, rng)
        return outcome
