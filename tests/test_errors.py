"""Every error type declared in errors.py has a raise site in the
package, so error types that nothing raises cannot pile up there; every
raise names one of them unless an allowlist here names the site; and
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
from posverif.spacetime import PartyBehavior, Simulation
from posverif.stats import tally, wilson_interval

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


# (module, enclosing def, error) of the raises that may name a builtin
# error: the float or bool coordinate TypeError the tests pin, misuse of
# a helper inside the package, and the dense engine's own checks.
RAISE_ALLOWLIST = {
    ("spacetime", "as_coord", "TypeError"),
    ("puzzle", "encode_answer", "TypeError"),
    ("protocol", "encode_message", "ValueError"),
    ("bits", "xor_bits", "ValueError"),
    ("bits", "dot_bits", "ValueError"),
    ("bits", "int_to_bits", "ValueError"),
    ("qsim", "StateVector.__init__", "ValueError"),
    ("qsim", "_check_regs", "ValueError"),
    ("qsim", "apply_hadamard", "ValueError"),
    ("qsim", "_uniform", "ValueError"),
    ("qsim", "collapse", "ValueError"),
    ("qsim", "bell_circuit", "ValueError"),
}


def _raise_sites() -> set[tuple[str, str, str]]:
    """(module, enclosing def, error) for every raise in src/posverif.  A
    raised call of a function annotated to return an error counts as that
    error; a bare re-raise is left out."""
    sites = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        makes = {node.name: node.returns.id for node in tree.body
                 if isinstance(node, ast.FunctionDef)
                 and isinstance(node.returns, ast.Name)}

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    visit(child, f"{scope}.{child.name}".lstrip("."))
                    continue
                if isinstance(child, ast.Raise) and child.exc is not None:
                    exc = child.exc
                    exc = exc.func if isinstance(exc, ast.Call) else exc
                    name = exc.id if isinstance(exc, ast.Name) else exc.attr
                    sites.add((path.stem, scope, makes.get(name, name)))
                visit(child, scope)

        visit(tree, "")
    return sites


def test_every_raise_is_typed_or_allowlisted():
    sites = _raise_sites()
    typed = _declared_errors() | {"PosverifError"}
    assert sorted(s for s in sites
                  if s[2] not in typed and s not in RAISE_ALLOWLIST) == []
    # an entry whose raise has gone or become typed leaves the list
    assert sorted(RAISE_ALLOWLIST - sites) == []


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


class _AlarmAt(PartyBehavior):
    def __init__(self, time):
        self.time = time

    def alarms(self):
        return (self.time,)


@pytest.mark.parametrize("call, match", [
    (partial(Rng(1).bits, -1), "width must be nonnegative, got -1"),
    (partial(child_seed, 5, -1), "child index must be nonnegative, got -1"),
    (partial(wilson_interval, 0, 0), "trials must be positive, got 0"),
    (partial(wilson_interval, 5, 3), r"successes 5 outside \[0, 3\]"),
    (partial(Simulation().add_party, 0, _AlarmAt(-1)),
     "alarm at negative time -1"),
    (partial(Simulation().run, -1), "until must be nonnegative, got -1"),
], ids=["Rng.bits", "child_seed", "wilson_no_trials", "wilson_successes",
        "Simulation.add_party", "Simulation.run"])
def test_range_check_is_config_invalid(call, match):
    """The range checks outside the run parameters' owners raise the
    typed ConfigInvalid too, still a ValueError."""
    with pytest.raises(ConfigInvalid, match=match):
        call()


@pytest.mark.parametrize("call, match", [
    pytest.param(call, match, id=label) for label, call, match in _owner_cases()])
def test_owner_rejects_bad_value(call, match):
    """Each owner raises ConfigInvalid, which is also a ValueError."""
    with pytest.raises(ConfigInvalid, match=match) as info:
        call()
    assert isinstance(info.value, ValueError)
