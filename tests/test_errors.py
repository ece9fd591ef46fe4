"""Every error type declared in errors.py has a raise site in the
package, so error types that nothing raises cannot pile up there; and
every owner of a run parameter rejects a bad one with ConfigInvalid."""

import ast
from functools import partial
from pathlib import Path

import pytest

from posverif.adversary import ForwardingPair, TeleportPair, make_attack
from posverif.errors import ConfigInvalid
from posverif.nonlocal_game import STRATEGIES, make_strategy, play_nonlocal
from posverif.protocol import HonestProver, ProtocolConfig, run_prpv
from posverif.puzzle import N_MAX, N_MIN, BasePuzzle, RepeatedPuzzle
from posverif.rng import Rng, child_seed
from posverif.stats import tally

SRC = Path(__file__).resolve().parents[1] / "src" / "posverif"


def _declared_errors() -> set[str]:
    """PosverifError subclasses of errors.py, by class name."""
    declared = {"PosverifError"}
    for node in ast.parse((SRC / "errors.py").read_text()).body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id in declared
                for base in node.bases):
            declared.add(node.name)
    return declared - {"PosverifError"}


def _raised_names() -> set[str]:
    """Names raised anywhere in src/posverif, called or bare."""
    raised = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                raised.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                raised.add(exc.attr)
    return raised


def test_every_error_type_has_a_raise_site():
    declared = _declared_errors()
    assert {"LengthMismatch", "MalformedMessage", "ConfigInvalid"} <= declared
    assert sorted(declared - _raised_names()) == []


def _bad_values(what: str, low: int, high: int | None = None):
    """True, a float, one value below the range and one above it (when
    there is an upper bound), each with the message it must raise."""
    bounds = f">= {low}" if high is None else rf"in \[{low}, {high}\]"
    cases = [(True, f"{what} must be {bounds}, got True"),
             (4.0, f"{what} must be an int, got 4.0"),
             (low - 1, f"{what} must be {bounds}, got {low - 1}")]
    if high is not None:
        cases.append((high + 1, f"{what} must be {bounds}, got {high + 1}"))
    return cases


def _owner_cases():
    """(id, call, match): every owner of a run parameter, name or
    combination, called with a value it must reject."""
    cases = []
    for value, match in _bad_values("n", N_MIN, N_MAX):
        cases.append((f"BasePuzzle({value!r})",
                      partial(BasePuzzle, value), match))
        cases.append((f"ProtocolConfig(n={value!r})",
                      partial(ProtocolConfig, n=value), match))
        for name in sorted(STRATEGIES):
            cases.append((f"make_strategy({name!r}, {value!r})",
                          partial(make_strategy, name, value), match))
    for value, match in _bad_values("k", 1):
        cases.append((f"RepeatedPuzzle(4, {value!r})",
                      partial(RepeatedPuzzle, 4, value), match))
        cases.append((f"ProtocolConfig(k={value!r})",
                      partial(ProtocolConfig, k=value), match))
    for value, match in _bad_values("lam", 8):
        cases.append((f"ProtocolConfig(lam={value!r})",
                      partial(ProtocolConfig, lam=value), match))
    for value, match in _bad_values("trials", 1):
        cases.append((f"tally(trials={value!r})",
                      partial(tally, bool, value, 0), match))
    for value, match in _bad_values("workers", 1):
        cases.append((f"tally(workers={value!r})",
                      partial(tally, bool, 1, 0, workers=value), match))
    for value, match in _bad_values("seed", 0, 2**64 - 1):
        cases.append((f"Rng({value!r})", partial(Rng, value), match))
        cases.append((f"child_seed({value!r}, 0)", partial(child_seed, value, 0),
                      match))
        cases.append((f"tally(seed={value!r})",
                      partial(tally, bool, 1, value), match))
        cases.append((f"run_prpv(seed={value!r})",
                      partial(run_prpv, ProtocolConfig(), value,
                              prover=HonestProver()), match))
    wide = ProtocolConfig(n=4, k=9)
    cases += [
        ("play_nonlocal(..., Rng(-1))",
         lambda: play_nonlocal(BasePuzzle(4), make_strategy("measure_and_guess", 4),
                               Rng(-1)),
         rf"seed must be in \[0, {2**64 - 1}\], got -1"),
        ("make_attack('nope')", partial(make_attack, "nope", ProtocolConfig()),
         "unknown attack 'nope'"),
        ("ForwardingPair(TeleportPair(4, 1))",
         partial(ForwardingPair, TeleportPair(4, 1)), "cannot compile 'teleport'"),
        ("forward_compiled_guess at k=9",
         partial(run_prpv, wide, 0,
                 adversaries=make_attack("forward_compiled_guess", wide)),
         "challenge width 9 exceeds the compiler cap 8"),
    ]
    return cases


@pytest.mark.parametrize("call, match", [
    pytest.param(call, match, id=label) for label, call, match in _owner_cases()])
def test_owner_rejects_bad_value(call, match):
    """Each owner raises ConfigInvalid, which is also a ValueError."""
    with pytest.raises(ConfigInvalid, match=match) as info:
        call()
    assert isinstance(info.value, ValueError)
