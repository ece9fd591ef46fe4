"""Dense statevector engine over named qubit registers.

Scope is deliberately small: claw-state preparation, Hadamard layers,
standard-basis measurement, EPR pairs and teleportation, plus the plumbing
(tensor/split/merge/collapse) the higher layers and test oracles need.
There is no general gate set.

Basis convention: concatenate the register bitstrings in declaration order,
most significant bit first; a basis index is that string read as binary.
All operations return fresh StateVector values; nothing mutates in place
except through SharedState/ScopedState, which exist to model two parties
holding registers of one entangled state.
"""

from dataclasses import dataclass

import numpy as np

from .bits import int_to_bits
from .errors import (
    CapacityExceeded,
    DuplicateRegister,
    LengthMismatch,
    RegisterViolation,
    UnknownRegister,
)

Q_MAX = 24
TOL = 1e-12
_INV_SQRT2 = 2.0**-0.5


class StateVector:
    """Pure state over an ordered tuple of named registers."""

    __slots__ = ("amps", "regs", "q")

    def __init__(self, regs, amps, check: bool = True):
        self.regs = tuple(regs)
        self.amps = amps
        self.q = sum(w for _, w in self.regs)
        if check:
            norm = float(np.vdot(amps, amps).real)
            if abs(norm - 1.0) > 1e-9:
                raise ValueError(f"state norm {norm} is not 1")

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.regs)

    def width(self, register: str) -> int:
        for name, w in self.regs:
            if name == register:
                return w
        raise UnknownRegister(f"no register named {register!r}")

    def offset(self, register: str) -> int:
        off = 0
        for name, w in self.regs:
            if name == register:
                return off
            off += w
        raise UnknownRegister(f"no register named {register!r}")

    def __repr__(self):
        spec = ", ".join(f"{name}:{w}" for name, w in self.regs)
        return f"StateVector({spec})"


@dataclass(frozen=True)
class MeasurementRecord:
    register: str
    outcome: str
    probability: float


def _check_regs(regs) -> int:
    seen = set()
    total = 0
    for name, w in regs:
        if not isinstance(name, str) or not name:
            raise ValueError(f"register name must be a nonempty string, got {name!r}")
        if w < 1:
            raise ValueError(f"register {name!r} must have width >= 1, got {w}")
        if name in seen:
            raise DuplicateRegister(f"register {name!r} declared twice")
        seen.add(name)
        total += w
    if total > Q_MAX:
        raise CapacityExceeded(f"{total} qubits exceeds the {Q_MAX}-qubit cap")
    return total


def new_state(registers) -> StateVector:
    """All-zeros basis state over the given (name, width) registers."""
    regs = tuple(registers)
    total = _check_regs(regs)
    amps = np.zeros(1 << total, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(regs, amps, check=False)


def prepare_claw_state(x0: str, x1: str) -> StateVector:
    """(|0,x0> + |1,x1>)/sqrt(2) over registers bit(1), preimage(n)."""
    if len(x0) != len(x1):
        raise LengthMismatch(f"preimage lengths {len(x0)} and {len(x1)} differ")
    n = len(x0)
    _check_regs((("bit", 1), ("preimage", n)))
    amps = np.zeros(1 << (n + 1), dtype=np.complex128)
    amps[int(x0, 2)] = _INV_SQRT2
    amps[(1 << n) | int(x1, 2)] = _INV_SQRT2
    return StateVector((("bit", 1), ("preimage", n)), amps, check=False)


def _spans(state: StateVector, register: str) -> tuple[int, int, int]:
    off = state.offset(register)
    w = state.width(register)
    return off, w, state.q - off - w


def _h_qubit(amps: np.ndarray, q: int, pos: int) -> np.ndarray:
    cube = amps.reshape(1 << pos, 2, 1 << (q - pos - 1))
    out = np.empty_like(cube)
    a0 = cube[:, 0, :]
    a1 = cube[:, 1, :]
    np.multiply(a0 + a1, _INV_SQRT2, out=out[:, 0, :])
    np.multiply(a0 - a1, _INV_SQRT2, out=out[:, 1, :])
    return out.reshape(-1)


def apply_hadamard(state: StateVector, register: str) -> StateVector:
    """Hadamard on every qubit of the register."""
    off, w, _ = _spans(state, register)
    amps = state.amps
    for j in range(w):
        amps = _h_qubit(amps, state.q, off + j)
    return StateVector(state.regs, amps, check=False)


def _cnot(amps: np.ndarray, q: int, control: int, target: int) -> np.ndarray:
    psi = amps.reshape([2] * q).copy()
    idx = [slice(None)] * q
    idx[control] = 1
    sub_target_axis = target - (1 if control < target else 0)
    psi[tuple(idx)] = np.flip(psi[tuple(idx)], axis=sub_target_axis)
    return psi.reshape(-1)


def _born(state: StateVector, register: str):
    """The amplitudes as a (before, register, after) cube, the register's
    Born probabilities and its width."""
    off, w, post = _spans(state, register)
    cube = state.amps.reshape(1 << off, 1 << w, 1 << post)
    return cube, np.einsum("iok,iok->o", cube, cube.conj()).real, w


def _project(state: StateVector, register: str, cube: np.ndarray,
             outcome_index: int, prob: float) -> StateVector:
    residual = (cube[:, outcome_index, :] / np.sqrt(prob)).reshape(-1)
    regs = tuple(r for r in state.regs if r[0] != register)
    return StateVector(regs, residual, check=False)


def measurement_distribution(state: StateVector, register: str) -> dict[str, float]:
    """Exact Born probabilities of standard-basis outcomes on the register.

    Outcomes with probability <= 1e-12 are omitted, so the keys are the
    support of the distribution.
    """
    _, probs, w = _born(state, register)
    return {
        int_to_bits(o, w): float(p) for o, p in enumerate(probs) if p > TOL
    }


def measure(state: StateVector, register: str, rng) -> tuple[MeasurementRecord, StateVector]:
    """Standard-basis measurement of a whole register.

    Draws one uniform real from rng and walks the outcome CDF in index
    order, so a seed fully determines the outcome. The measured register
    is dropped from the residual state.
    """
    cube, probs, w = _born(state, register)
    cdf = np.cumsum(probs)
    u = rng.random()
    o = int(np.searchsorted(cdf, u, side="right"))
    if o >= len(probs) or probs[o] <= 0.0:
        o = int(np.max(np.nonzero(probs > 0.0)[0]))
    p = float(probs[o])
    record = MeasurementRecord(register, int_to_bits(o, w), p)
    return record, _project(state, register, cube, o, p)


def collapse(state: StateVector, register: str, outcome: str) -> tuple[float, StateVector]:
    """Deterministic projection onto one outcome; test-oracle plumbing.

    Returns the Born probability and the renormalized residual state.
    Raises ValueError if the outcome has (numerically) zero weight.
    """
    cube, probs, w = _born(state, register)
    if len(outcome) != w:
        raise LengthMismatch(f"outcome width {len(outcome)} != register width {w}")
    o = int(outcome, 2)
    p = float(probs[o])
    if p <= TOL:
        raise ValueError(f"outcome {outcome} has zero probability")
    return p, _project(state, register, cube, o, p)


def make_epr_pairs(count: int) -> StateVector:
    """count EPR pairs: registers R and S, pair i = qubit i of R with qubit i of S."""
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    if 2 * count > Q_MAX:
        raise CapacityExceeded(f"{2 * count} qubits exceeds the {Q_MAX}-qubit cap")
    amps = np.zeros(1 << (2 * count), dtype=np.complex128)
    scale = 2.0 ** (-count / 2)
    for r in range(1 << count):
        amps[(r << count) | r] = scale
    return StateVector((("R", count), ("S", count)), amps, check=False)


def bell_circuit(state: StateVector, source: str, epr_local: str) -> StateVector:
    """Deterministic half of teleportation: pairwise CNOT then H on source.

    Measuring source (-> k1) and epr_local (-> k0) afterwards completes a
    Bell measurement of each qubit pair. Exposed so tests can enumerate
    every (k0, k1) branch exactly with collapse instead of sampling.
    """
    if source == epr_local:
        raise ValueError("source and epr_local must be distinct registers")
    w = state.width(source)
    if state.width(epr_local) != w:
        raise LengthMismatch(
            f"register widths differ: {source}={w}, {epr_local}={state.width(epr_local)}"
        )
    q = state.q
    src_off = state.offset(source)
    loc_off = state.offset(epr_local)
    amps = state.amps
    for j in range(w):
        amps = _cnot(amps, q, src_off + j, loc_off + j)
    working = StateVector(state.regs, amps, check=False)
    return apply_hadamard(working, source)


def teleport(state: StateVector, source: str, epr_local: str, rng) -> tuple[str, str, StateVector]:
    """Teleport the source register through local EPR halves.

    Bell-measures each (source qubit, epr_local qubit) pair: CNOT from
    source onto epr_local, Hadamard on source, then measure both registers.
    Returns (k0, k1, residual): k0 is the epr_local outcome (X corrections,
    XOR it into remote standard-basis results), k1 the source outcome
    (Z corrections, XOR it into remote Hadamard-basis results). The remote
    halves now hold X^k0 Z^k1 applied to the former source state.
    """
    working = bell_circuit(state, source, epr_local)
    rec_src, working = measure(working, source, rng)
    rec_loc, working = measure(working, epr_local, rng)
    return rec_loc.outcome, rec_src.outcome, working


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Joint state with a's registers before b's."""
    regs = a.regs + b.regs
    _check_regs(regs)
    return StateVector(regs, np.outer(a.amps, b.amps).reshape(-1), check=False)


def split_register(state: StateVector, register: str, parts) -> StateVector:
    """Relabel one register as several adjacent ones; amplitudes unchanged."""
    parts = tuple(parts)
    w = state.width(register)
    if sum(pw for _, pw in parts) != w:
        raise LengthMismatch(f"parts must cover exactly {w} qubits")
    regs = []
    for name, rw in state.regs:
        if name == register:
            regs.extend(parts)
        else:
            regs.append((name, rw))
    _check_regs(regs)
    return StateVector(tuple(regs), state.amps, check=False)


def merge_registers(state: StateVector, names, new_name: str) -> StateVector:
    """Relabel consecutive registers as one; amplitudes unchanged."""
    names = tuple(names)
    current = state.names()
    for start in range(len(current)):
        if current[start : start + len(names)] == names:
            break
    else:
        raise UnknownRegister(f"registers {names} are not consecutive in {current}")
    merged_width = sum(state.width(n) for n in names)
    regs = (
        list(state.regs[:start])
        + [(new_name, merged_width)]
        + list(state.regs[start + len(names) :])
    )
    _check_regs(regs)
    return StateVector(tuple(regs), state.amps, check=False)


def permute_basis(state: StateVector, new_index_of_old: np.ndarray) -> StateVector:
    """Apply a basis permutation (a classical reversible map) to the state."""
    amps = np.zeros_like(state.amps)
    amps[new_index_of_old] = state.amps
    return StateVector(state.regs, amps, check=False)


class SharedState:
    """Mutable cell holding one state that several scoped parties act on."""

    __slots__ = ("state",)

    def __init__(self, state: StateVector):
        self.state = state


class ScopedState:
    """View of a SharedState restricted to an allowed register set.

    Models one party's side of an entangled state: operations on registers
    outside the grant raise RegisterViolation instead of silently acting on
    the other party's qubits.
    """

    __slots__ = ("_cell", "_allowed")

    def __init__(self, cell: SharedState, allowed):
        self._cell = cell
        self._allowed = frozenset(allowed)

    def _check(self, register: str):
        if register not in self._allowed:
            raise RegisterViolation(f"register {register!r} is outside this party's grant")
        self._cell.state.width(register)  # raises UnknownRegister if gone

    def apply_hadamard(self, register: str):
        self._check(register)
        self._cell.state = apply_hadamard(self._cell.state, register)

    def measure(self, register: str, rng) -> MeasurementRecord:
        self._check(register)
        record, residual = measure(self._cell.state, register, rng)
        self._cell.state = residual
        return record

    def measurement_distribution(self, register: str) -> dict[str, float]:
        self._check(register)
        return measurement_distribution(self._cell.state, register)
