"""Every code name the README shows still exists.

A backticked README token names code when it is CamelCase, a dotted
`module.name` or `Class.name`, or a snake_case name with an underscore,
after dropping a trailing call such as `(n, k)`. Each must resolve to an
attribute of a posverif module or of a class defined there, to an
`ATTACKS` or `STRATEGIES` key, to a `FailureReason` value, or to a
builtin, so a change that deletes or renames a name the README shows
must also mend the README."""

import builtins
import importlib
import pkgutil
import re
from pathlib import Path

import posverif
from posverif import cli
from posverif.adversary import ATTACKS
from posverif.nonlocal_game import STRATEGIES
from posverif.protocol import FailureReason

README = Path(__file__).resolve().parents[1] / "README.md"

_CODE_NAME = re.compile(r"[A-Z][A-Za-z0-9]+|[A-Za-z_]\w*\.\w+|[A-Za-z]\w*_\w+")
_CALL = re.compile(r"\([^()`]*\)$")


def readme_names(text: str) -> set[str]:
    """The backticked tokens of text that name code."""
    names = set()
    for token in re.findall(r"`([^`\n]+)`", text):
        token = _CALL.sub("", token)
        if _CODE_NAME.fullmatch(token):
            names.add(token)
    return names


def _namespaces():
    """(short name, object): the package, each of its modules and each
    class a module defines."""
    yield "posverif", posverif
    for info in pkgutil.iter_modules(posverif.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"posverif.{info.name}")
        yield info.name, module
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                yield value.__name__, value


def _resolves(name: str, namespaces) -> bool:
    if "." in name:
        owner, attr = name.split(".")
        return any(short == owner and hasattr(obj, attr)
                   for short, obj in namespaces)
    return (any(hasattr(obj, name) for _, obj in namespaces)
            or name in ATTACKS or name in STRATEGIES
            or name in {reason.value for reason in FailureReason}
            or hasattr(builtins, name))


def test_readme_token_classes():
    names = readme_names("`RepeatedPuzzle(n, k)` `qsim.teleport` `run_poq` "
                         "`ver_fail` `--seed` `puzzle` `tests/golden.json`")
    assert names == {"RepeatedPuzzle", "qsim.teleport", "run_poq", "ver_fail"}


def test_every_readme_name_resolves():
    names = readme_names(README.read_text())
    assert len(names) >= 40  # the README's API tour, not an empty match
    namespaces = list(_namespaces())
    assert sorted(n for n in names if not _resolves(n, namespaces)) == []


def test_cli_flag_table_matches_the_parser():
    """The README's flag table lists, for each subcommand, exactly the
    `--` options its parser takes, `--help` aside."""
    rows = re.findall(r"^\| `(\w+)` \| `([^`]*)` \|$", README.read_text(), re.M)
    table = {name: sorted(re.findall(r"--[\w-]+", flags)) for name, flags in rows}
    _, commands = cli._build_parser()
    parsed = {name: sorted(option for action in parser._actions
                           for option in action.option_strings
                           if option.startswith("--") and option != "--help")
              for name, parser in commands.choices.items()}
    assert table == parsed
