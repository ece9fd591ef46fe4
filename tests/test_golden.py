"""Golden digests: per-seed output pinned byte for byte.

Every entry of golden.json is the sha256 of what one cell of the grid
below produces: verdict transcript bytes plus trace JSON lines for timed
runs over seeds 0-3, transcripts of the timing-free protocol, game
results per strategy (n=8 over seeds 0-3, n=12 over seeds 0-63), the
k-fold puzzle's keygen, obligate and solve answers (n in {4, 8}, k in
{1, 4}, seeds 0-255, the challenge drawn from the seed), the output of each CLI subcommand at small trial counts, and the exit code
and stdout of each script in demos/,
run as a subprocess with src/ on PYTHONPATH.  The statistical tests only check that rates cover their
closed forms, so a change that reorders one random draw passes them;
it fails here.

A digest changes only on purpose.  To re-pin after a deliberate change,
run this module as a script and record the reason in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py

It prints the name of each entry whose digest moved (an added or
dropped entry counts as moved), or "no digest moved".
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from posverif.adversary import ATTACK_NAMES, make_attack
from posverif.bits import encode_parts
from posverif.cli import main
from posverif.nonlocal_game import (
    STRATEGIES,
    make_strategy,
    play_2of2,
    play_nonlocal,
    reduce_to_2of2,
)
from posverif.protocol import (
    ClassicalProver,
    HonestProver,
    ProtocolConfig,
    run_poq,
    run_prpv,
)
from posverif.puzzle import BasePuzzle, RepeatedPuzzle, encode_answers
from posverif.rng import Rng

GOLDEN = Path(__file__).with_name("golden.json")
ROOT = GOLDEN.parents[1]
DEMOS = ("attack_gallery", "claw_states", "nonlocal_game_values",
         "proof_of_quantumness", "timing_geometry")
SEEDS = range(4)
KS = (1, 2, 8)
GAME_CELLS = {"": (8, range(4)), "/n12": (12, range(64))}
SOLVE_CELLS = ((4, 1), (4, 4), (8, 1), (8, 4))


def _timed(hashed: bool, actor: str, k: int) -> bytes:
    config = ProtocolConfig(k=k, hashed=hashed)
    out = []
    for seed in SEEDS:
        if actor == "honest":
            kwargs = {"prover": HonestProver()}
        elif actor == "classical":
            kwargs = {"prover": ClassicalProver()}
        else:
            kwargs = {"adversaries": make_attack(actor, config)}
        outcome = run_prpv(config, seed, record_trace=True, **kwargs)
        out.append(outcome.verdict.transcript_bytes())
        out.append(outcome.trace.to_json_lines().encode())
    return b"".join(out)


def _poq(prover, k: int) -> bytes:
    config = ProtocolConfig(k=k)
    out = []
    for seed in SEEDS:
        result = run_poq(config, seed, prover=prover)
        parts = [label.encode() + b"=" + body for label, body in result.transcript]
        out.append(encode_parts(str(int(result.accept)).encode(), *parts))
    return b"".join(out)


def _game(name: str, n: int, seeds) -> bytes:
    puz = BasePuzzle(n)
    strategy = make_strategy(name, n)
    solver = reduce_to_2of2(make_strategy(name, n))
    out = []
    for seed in seeds:
        r = play_nonlocal(puz, strategy, Rng(seed))
        out.append(f"{int(r.win)}{int(r.accept_b)}{int(r.accept_c)}"
                   f":{r.challenge}:{r.obligation};".encode())
        out.append(b"1" if play_2of2(puz, solver, Rng(seed)) else b"0")
    return b"".join(out)


def _solve(n: int, k: int) -> bytes:
    puz = RepeatedPuzzle(n, k)
    out = []
    for seed in range(256):
        rng = Rng(seed)
        handles, trapdoors = puz.keygen(rng)
        challenge = puz.sample_challenge(rng)
        ys, state = puz.obligate(handles, trapdoors, rng)
        answers = puz.solve(state, challenge, rng)
        accept = puz.verify(trapdoors, ys, challenge, answers)
        out.append(f"{int(accept)}:{challenge}:{','.join(ys)}:".encode()
                   + encode_answers(answers) + b";")
    return b"".join(out)


def _cli(*argvs) -> bytes:
    out = []
    for argv in argvs:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(list(argv))
        out.append(f"{code}\n{buffer.getvalue()}".encode())
    return b"".join(out)


def _demo(name: str) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          capture_output=True, env=env, cwd=ROOT, timeout=300)
    return f"{proc.returncode}\n".encode() + proc.stdout


def _entries():
    entries = {}
    for hashed in (False, True):
        variant = "hashed" if hashed else "plain"
        for actor in ("honest", "classical"):
            for k in KS:
                entries[f"timed/{variant}/{actor}/k{k}"] = (
                    lambda h=hashed, a=actor, k=k: _timed(h, a, k))
    for name in ATTACK_NAMES:
        for k in KS:
            entries[f"timed/plain/{name}/k{k}"] = (
                lambda a=name, k=k: _timed(False, a, k))
            if name != "teleport":  # rejected under hashing
                entries[f"timed/hashed/{name}/k{k}"] = (
                    lambda a=name, k=k: _timed(True, a, k))
    provers = {
        "honest": HonestProver(),
        "classical_default_tape": ClassicalProver(),
    }
    for label, prover in provers.items():
        for k in KS:
            entries[f"poq/{label}/k{k}"] = lambda p=prover, k=k: _poq(p, k)
    for name in sorted(STRATEGIES):
        for suffix, (n, seeds) in GAME_CELLS.items():
            entries[f"game/{name}{suffix}"] = lambda s=name, n=n, r=seeds: _game(s, n, r)
    for n, k in SOLVE_CELLS:
        entries[f"solve/n{n}/k{k}"] = lambda n=n, k=k: _solve(n, k)
    entries["cli/completeness"] = lambda: _cli(
        ("completeness", "--trials", "20", "--seed", "1"),
        ("completeness", "--pos", "7/4", "--hashed", "--k", "2",
         "--trials", "20", "--seed", "2", "--format", "json"))
    entries["cli/attack"] = lambda: _cli(*(
        ("attack", "--name", name, "--k", "2", "--trials", "10", "--seed", "3")
        for name in ATTACK_NAMES))
    entries["cli/nonlocal"] = lambda: _cli(*(
        ("nonlocal", "--name", name, "--n", "6", "--trials", "30",
         "--seed", "4") for name in sorted(STRATEGIES)))
    entries["cli/poq"] = lambda: _cli(
        ("poq", "--k", "2", "--trials", "40", "--seed", "5"),
        ("poq", "--trials", "30", "--seed", "6", "--format", "json"))
    entries["cli/trace"] = lambda: _cli(
        ("trace", "--seed", "5"),
        ("trace", "--seed", "5", "--name", "teleport", "--k", "2"),
        ("trace", "--seed", "7", "--pos", "5/4", "--hashed"))
    for name in DEMOS:
        entries[f"demo/{name}"] = lambda d=name: _demo(d)
    return entries


ENTRIES = _entries()


def digest(name: str) -> str:
    return hashlib.sha256(ENTRIES[name]()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_grid_matches_file(golden):
    assert sorted(golden) == sorted(ENTRIES)


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_digest(golden, name):
    assert digest(name) == golden[name]


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    pinned = {name: digest(name) for name in sorted(ENTRIES)}
    moved = sorted(name for name in old.keys() | pinned.keys()
                   if old.get(name) != pinned.get(name))
    print("\n".join(moved) or "no digest moved")
    GOLDEN.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
