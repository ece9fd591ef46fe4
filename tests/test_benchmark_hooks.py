"""The benchmark under perfbench/ traces layers by wrapping library
callables by name, so deleting or renaming one of them breaks
`perfbench/run.py --trace 1` with a KeyError.  This test enters and
exits that instrumentation, without any runs, to catch such a change."""

import importlib.util
from pathlib import Path

import posverif
import posverif.cli  # imports every layer the instrumentation wraps

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrumentation_wraps_and_restores():
    spans = _load_spans()
    original = posverif.protocol.run_prpv
    puzzle, protocol, adversary = (posverif.puzzle, posverif.protocol,
                                   posverif.adversary)
    # the puzzle.verify span rests on the two verify methods alone; the
    # adversary.* spans and the replica count on the trial handlers and
    # the adapters that call them
    trials = (adversary._GuessingTrial, adversary._ClassicalForwardTrial,
              adversary._ForwardingTrial, adversary._TeleportTrial)
    methods = {(cls, name): vars(cls)[name] for cls, name in (
        (posverif.spacetime.Simulation, "run"),
        (posverif.spacetime.Simulation, "add_party"),
        (puzzle.BasePuzzle, "verify"),
        (puzzle.RepeatedPuzzle, "verify"),
        (protocol._LeftAdversaryBehavior, "on_receive"),
        (protocol._RightAdversaryBehavior, "on_receive"),
        *((cls, u) for cls in trials for u in ("u1", "u2", "u3", "u4")),
    )}
    with spans.Instrumentation(posverif, spans.Recorder()):
        assert posverif.protocol.run_prpv is not original
        assert posverif.cli.run_prpv is not original
        for (cls, name), method in methods.items():
            assert vars(cls)[name] is not method
    assert posverif.protocol.run_prpv is original
    assert posverif.cli.run_prpv is original
    for (cls, name), method in methods.items():
        assert vars(cls)[name] is method
