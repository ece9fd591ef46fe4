"""Span recorder and per-layer instrumentation taken from outside posverif.

Instrumentation replaces public functions and methods of each posverif
module with wrappers that open a span on entry and close it on return, and
restores the originals on exit, so untraced runs execute unmodified code.
A span records its name, start, end, parent span and run id; spans stay in
flat in-memory arrays until the traced run ends.

A span's self time is its duration minus the durations of its direct
children. Calls are single-threaded and strictly nested, so the children
never overlap and their sum is the time they cover.
"""

from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path

import numpy as np


class Recorder:
    """Flat arrays of spans plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, int] = {}
        self.run_id = -1
        self._open: list[int] = []

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        index = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.run.append(self.run_id)
        self.end.append(0)
        self._open.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def finish(self, index: int):
        self.end[index] = time.perf_counter_ns()
        self._open.pop()

    def add(self, counter: str, value: int):
        self.counts[counter] = self.counts.get(counter, 0) + value

    def arrays(self):
        """(name_id, parent, run, start, end) as numpy arrays."""
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.run, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64))

    def self_ns(self) -> np.ndarray:
        """Self time of every span in ns."""
        _, parent, _, start, end = self.arrays()
        duration = (end - start).astype(np.float64)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested],
                              minlength=len(duration))
        return duration - covered

    def totals(self, run_scale=None) -> dict[str, tuple[int, float]]:
        """name -> (span count, summed self time in ns).

        run_scale, indexed by run id, multiplies the self time of each
        run's spans (the benchmark's reference-unit scaling).
        """
        name_id, _, run, _, _ = self.arrays()
        self_ns = self.self_ns()
        if run_scale is not None:
            self_ns = self_ns * np.asarray(run_scale)[run]
        calls = np.bincount(name_id, minlength=len(self.names))
        self_sum = np.bincount(name_id, weights=self_ns,
                               minlength=len(self.names))
        return {name: (int(calls[i]), float(self_sum[i]))
                for i, name in enumerate(self.names)}

    def save(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        name_id, parent, run, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id,
                 parent=parent, run=run, start_ns=start, end_ns=end,
                 counter_names=np.array(sorted(self.counts)),
                 counter_values=np.array([self.counts[k] for k in sorted(self.counts)],
                                         dtype=np.int64))


def _wrap(fn, recorder: Recorder, name: str, after=None):
    nid = recorder.name_index(name)
    begin, finish = recorder.begin, recorder.finish

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = begin(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            finish(index)
        if after is not None:
            after(recorder, args, result)
        return result

    return wrapper


QSIM_SPANS = {
    "measure": "qsim.measure",
    "apply_hadamard": "qsim.hadamard",
    "tensor": "qsim.tensor",
    "teleport": "qsim.teleport",
    "new_state": "qsim.register_ops",
    "prepare_claw_state": "qsim.register_ops",
    "make_epr_pairs": "qsim.register_ops",
    "split_register": "qsim.register_ops",
    "merge_registers": "qsim.register_ops",
    "permute_basis": "qsim.register_ops",
    "collapse": "qsim.register_ops",
    "measurement_distribution": "qsim.register_ops",
}


def _targets(lib):
    """(owner, attribute, span name, after-hook) for every wrapped callable."""
    spacetime, protocol, puzzle = lib.spacetime, lib.protocol, lib.puzzle
    qsim, adversary, game = lib.qsim, lib.adversary, lib.nonlocal_game
    state_type = qsim.StateVector

    def computed_bytes(recorder, args, result):
        # 16 bytes per complex128 amplitude of the widest state touched
        states = args + (result if isinstance(result, tuple) else (result,))
        q = max((s.q for s in states if isinstance(s, state_type)), default=0)
        recorder.add("qsim.bytes_computed", 16 << q)

    def epr_pairs(recorder, args, result):
        computed_bytes(recorder, args, result)
        recorder.add("adversary.epr_pairs", args[0])

    out = [
        (spacetime.Simulation, "run", "spacetime.run", None),
        (spacetime.Simulation, "add_party", "spacetime.add_party", None),
        (protocol, "run_prpv", "protocol.run", None),
        (protocol, "run_roprpv", "protocol.run", None),
        (protocol.RandomOracle, "query", "protocol.oracle", None),
        (puzzle.PublicHandle, "eval", "puzzle.eval", None),
    ]
    behaviors = list(spacetime.PartyBehavior.__subclasses__())
    for cls in behaviors:
        behaviors.extend(cls.__subclasses__())
        for method in ("on_receive", "on_alarm"):
            if method in vars(cls):
                out.append((cls, method, "protocol.handlers", None))
    for cls in (puzzle.BasePuzzle, puzzle.RepeatedPuzzle):
        for method, span in (("keygen", "puzzle.keygen"),
                             ("obligate", "puzzle.obligate"),
                             ("solve", "puzzle.solve"),
                             ("verify", "puzzle.verify"),
                             ("verify_public_0", "puzzle.verify")):
            if method in vars(cls):
                out.append((cls, method, span, None))
    for func in ("encode_obligations", "decode_obligations",
                 "encode_answers", "decode_answers"):
        out.append((puzzle, func, "puzzle.codec", None))
    for func, span in QSIM_SPANS.items():
        hook = epr_pairs if func == "make_epr_pairs" else computed_bytes
        out.append((qsim, func, span, hook))
    for cls in vars(adversary).values():
        if isinstance(cls, type) and cls.__module__ == adversary.__name__:
            for method in ("u1", "u2", "u3", "u4", "new_trial"):
                if method in vars(cls):
                    out.append((cls, method, f"adversary.{method}", None))
    out.append((game, "play_nonlocal", "nonlocal_game.play", None))
    out.append((game, "play_2of2", "nonlocal_game.play", None))
    for cls in game.STRATEGIES.values():
        out.append((cls, "stage_a", "nonlocal_game.stage_a", None))
        out.append((cls, "answer_b", "nonlocal_game.answer", None))
        out.append((cls, "answer_c", "nonlocal_game.answer", None))
    return out


class Instrumentation:
    """Context manager that wraps the library's public callables.

    A module-level function is replaced in every posverif module that
    holds it, so `from .puzzle import encode_answers` call sites are
    traced too.
    """

    def __init__(self, lib, recorder: Recorder):
        self._lib = lib
        self._recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        modules = [m for name, m in vars(self._lib).items()
                   if not name.startswith("_") and hasattr(m, "__file__")]
        for owner, attr, span, after in _targets(self._lib):
            original = vars(owner)[attr]
            wrapper = _wrap(original, self._recorder, span, after)
            if isinstance(owner, type):
                homes = [(owner, attr)]
            else:
                homes = [(m, name) for m in modules
                         for name, value in vars(m).items() if value is original]
            for home, name in homes:
                setattr(home, name, wrapper)
                self._undo.append((home, name, original))
        return self

    def __exit__(self, *exc):
        for home, name, original in reversed(self._undo):
            setattr(home, name, original)
        self._undo.clear()
        return False


SELF_TIME_SPANS = (
    "spacetime.run", "spacetime.add_party", "protocol.run",
    "protocol.handlers", "protocol.oracle", "puzzle.keygen",
    "puzzle.obligate", "puzzle.solve", "puzzle.verify", "puzzle.codec",
    "puzzle.eval", "qsim.measure", "qsim.hadamard", "qsim.tensor",
    "qsim.teleport", "qsim.register_ops", "adversary.u1", "adversary.u2",
    "adversary.u3", "adversary.u4", "nonlocal_game.stage_a",
    "nonlocal_game.answer", "nonlocal_game.play",
)
CALL_SPANS = ("protocol.oracle", "puzzle.eval", "qsim.measure",
              "qsim.hadamard", "qsim.tensor", "qsim.teleport",
              "qsim.register_ops")


def _replica_counts(recorder: Recorder) -> tuple[int, int]:
    """(replicas built, table entries used) by the forwarding compiler.

    A replica is a trial built inside an adversary.u1 span; each run that
    builds replicas reads one table entry in its top-level u4 call.
    """
    ids = {name: i for i, name in enumerate(recorder.names)}
    needed = ("adversary.new_trial", "adversary.u1", "adversary.u4",
              "protocol.handlers")
    if any(name not in ids for name in needed):
        return 0, 0
    name_id, parent, run, _, _ = recorder.arrays()
    parent_name = np.where(parent >= 0, name_id[np.maximum(parent, 0)], -1)
    replica = ((name_id == ids["adversary.new_trial"])
               & (parent_name == ids["adversary.u1"]))
    compiled_runs = np.unique(run[replica])
    used = ((name_id == ids["adversary.u4"])
            & (parent_name == ids["protocol.handlers"])
            & np.isin(run, compiled_runs))
    return int(replica.sum()), int(used.sum())


def per_layer_metrics(recorder: Recorder, runs: int, overhead_frac: float,
                      run_scale=None) -> dict[str, tuple[float, str]]:
    """Per-run layer metrics: name -> (value, unit)."""
    totals = recorder.totals(run_scale)
    calls = {name: count for name, (count, _) in totals.items()}
    unit = "us/run" if run_scale is None else "ref_us/run"
    metrics: dict[str, tuple[float, str]] = {}
    for name in SELF_TIME_SPANS:
        self_ns = totals.get(name, (0, 0.0))[1]
        metrics[f"{name}.self_us"] = (self_ns / 1e3 / runs, unit)
    for name in CALL_SPANS:
        metrics[f"{name}.calls"] = (calls.get(name, 0) / runs, "count/run")
    metrics["spacetime.events_per_run"] = (
        calls.get("protocol.handlers", 0) / runs, "count/run")
    metrics["qsim.bytes_computed_per_run"] = (
        recorder.counts.get("qsim.bytes_computed", 0) / runs, "B/run")
    built, used = _replica_counts(recorder)
    metrics["adversary.replicas_per_run"] = (built / runs, "count/run")
    metrics["adversary.replica_use_ratio"] = (used / built if built else 0.0,
                                              "ratio")
    metrics["adversary.epr_pairs_per_run"] = (
        recorder.counts.get("adversary.epr_pairs", 0) / runs, "count/run")
    metrics["trace.overhead_frac"] = (overhead_frac, "ratio")
    return metrics
