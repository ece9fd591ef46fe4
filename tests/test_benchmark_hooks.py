"""The benchmark under perfbench/ traces layers by wrapping library
callables by name, so deleting or renaming one of them breaks
`perfbench/run.py --trace 1` with a KeyError.  One test enters and
exits that instrumentation, without any runs, to catch such a change.

The benchmark's workloads also keep their own copy of each run kind's
closed form, which gates their acceptance; another test pins that copy
to the rates the attack and strategy catalogs state."""

import importlib.util
import sys
from pathlib import Path

import posverif
import posverif.cli  # imports every layer the instrumentation wraps

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS_PATH = PERFBENCH / "spans.py"
WORKLOADS_PATH = PERFBENCH / "workloads.py"


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
    # the device that calls them
    trials = (adversary._GuessingTrial, adversary._ClassicalForwardTrial,
              adversary._ForwardingTrial, adversary._TeleportTrial)
    methods = {(cls, name): vars(cls)[name] for cls, name in (
        (posverif.spacetime.Simulation, "run"),
        (posverif.spacetime.Simulation, "add_party"),
        (puzzle.BasePuzzle, "verify"),
        (puzzle.RepeatedPuzzle, "verify"),
        (protocol._Device, "on_receive"),
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


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules as they are built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_workload_theory_is_the_catalog_rate():
    workloads = _load_workloads()
    adversary, game = posverif.adversary, posverif.nonlocal_game
    attacks = [kind for kind in workloads.attacks_k4(posverif)
               if kind.label in adversary.ATTACKS]
    assert {kind.label for kind in attacks} == set(adversary.ATTACK_NAMES)
    for kind in attacks:
        config = posverif.protocol.ProtocolConfig(n=kind.n, k=kind.k)
        pair = adversary.make_attack(kind.label, config)
        assert kind.theory == pair.rate(kind.n, kind.k), kind.label
    games = workloads.game_n12(posverif)
    assert sorted(kind.label for kind in games) == sorted(
        f"{play}_{name}" for play in ("game", "reduced") for name in game.STRATEGIES)
    for kind in games:
        play, name = kind.label.split("_", 1)
        strategy = game.make_strategy(name, kind.n)
        rate = strategy.win_rate if play == "game" else strategy.reduced_rate
        assert kind.theory == rate(kind.n), kind.label
