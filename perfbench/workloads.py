"""Seeded workloads of the posverif benchmark and their correctness gate.

A workload is a fixed rotation of run kinds. Run i of a workload uses kind
i mod K and a 64-bit run seed derived here from the benchmark seed and i,
so the library only ever sees generated inputs: configs, attack pairs,
strategies and seeds. Each kind calls one public entry point of the library
(run_prpv, run_roprpv, play_nonlocal or play_2of2) and names the closed form
from posverif.stats that its acceptance rate must match.

The entry points are looked up on their module at call time, so the
wrappers that spans.Instrumentation installs see every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Acceptance counts must fall inside a Wilson interval this many standard
# errors wide around the closed form; 5 sigma (as in the nonlocal reduction
# bound) keeps a correct program passing on any seed.
Z_GATE = 5.0


def load_library(root: Path):
    """Import posverif from the source tree under root, never from elsewhere."""
    src = (root / "src").resolve()
    if not (src / "posverif" / "__init__.py").is_file():
        raise FileNotFoundError(f"no posverif sources under {src}")
    sys.path.insert(0, str(src))
    posverif = importlib.import_module("posverif")
    importlib.import_module("posverif.cli")  # pulls in every layer and numpy
    if Path(posverif.__file__).resolve().parent != src / "posverif":
        raise ImportError(f"posverif resolved to {posverif.__file__}, not {src}")
    return posverif


def run_seed(seed: int, index: int) -> int:
    """64-bit seed of run `index`; independent of the library's own RNG."""
    digest = hashlib.blake2b(f"{seed}/{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class Kind:
    """One run kind: how to call the library and what it must produce.

    play maps a run seed to the library's result; summarize maps that
    result to (accepted, reason, record bytes). honest marks kinds whose
    timing failures are defects rather than rejections.
    """

    label: str
    n: int
    k: int
    theory: float
    honest: bool
    play: Callable[[int], object]
    summarize: Callable[[object], tuple[bool, str, bytes]]


def _verdict_summary(outcome) -> tuple[bool, str, bytes]:
    verdict = outcome.verdict
    return verdict.accept, verdict.reason.value, verdict.transcript_bytes()


def _game_summary(result) -> tuple[bool, str, bytes]:
    record = (f"{int(result.win)}{int(result.accept_b)}{int(result.accept_c)}"
              f":{result.challenge}:{result.obligation}").encode()
    return result.win, "", record


def _reduced_summary(ok) -> tuple[bool, str, bytes]:
    return ok, "", b"1" if ok else b"0"


def _timed_kind(lib, label, config, theory, hashed, prover=None,
                adversaries=None) -> Kind:
    protocol = lib.protocol
    if hashed:
        def play(seed):
            return protocol.run_roprpv(config, seed, prover=prover,
                                       adversaries=adversaries)
    else:
        def play(seed):
            return protocol.run_prpv(config, seed, prover=prover,
                                     adversaries=adversaries)
    return Kind(label, config.n, config.k, theory, prover is not None, play,
                _verdict_summary)


def timed_k1(lib) -> list[Kind]:
    """Honest prover, n=8, k=1: the five CLI sweep positions, alternating
    plain and hashed challenges (10 kinds, every pairing once)."""
    positions = lib.cli.SWEEP_POSITIONS
    theory = lib.stats.honest_completeness(8, 1)
    kinds = []
    for j in range(2 * len(positions)):
        position = positions[j % len(positions)]
        hashed = j % 2 == 1
        config = lib.protocol.ProtocolConfig(n=8, k=1, prover_position=position)
        label = f"honest@{position}/{'hashed' if hashed else 'plain'}"
        kinds.append(_timed_kind(lib, label, config, theory, hashed,
                                 prover=lib.protocol.HonestProver()))
    return kinds


ATTACK_ROTATION = ("guess", "teleport", "classical_forward",
                   "forward_compiled_guess")


def attacks_k4(lib) -> list[Kind]:
    """n=8, k=4, plain challenges: honest, then each attack pair in turn.

    Attack pairs under hashed challenges are left out: they crash or
    misread the nonce until the hashed-variant attack fix lands.
    """
    stats = lib.stats
    n, k = 8, 4
    config = lib.protocol.ProtocolConfig(n=n, k=k)
    theory = {
        "guess": stats.guessing_rate(n, k),
        "teleport": stats.teleport_rate(n, k),
        "classical_forward": stats.classical_prover_rate(n, k),
        "forward_compiled_guess": stats.guessing_rate(n, k),
    }
    kinds = [_timed_kind(lib, "honest", config, stats.honest_completeness(n, k),
                         False, prover=lib.protocol.HonestProver())]
    for name in ATTACK_ROTATION:
        kinds.append(_timed_kind(lib, name, config, theory[name], False,
                                 adversaries=lib.adversary.make_attack(name, config)))
    return kinds


GAME_ROTATION = ("honest_to_B", "measure_and_guess", "brute_force",
                 "always_fail")


def game_n12(lib) -> list[Kind]:
    """Two-solver game at n=12: for each strategy, one play_nonlocal round
    then one play_2of2 round through reduce_to_2of2 (8 kinds)."""
    game = lib.nonlocal_game
    stats = lib.stats
    Rng = lib.rng.Rng
    n = 12
    puzzle = lib.puzzle.BasePuzzle(n)
    win_theory = {
        "honest_to_B": stats.honest_to_b_rate(n),
        "measure_and_guess": stats.measure_and_guess_rate(n),
        "brute_force": 1.0,
        "always_fail": 0.0,
    }
    reduced_theory = {
        "honest_to_B": stats.uniform_equation_rate(n),
        "measure_and_guess": stats.uniform_equation_rate(n),
        "brute_force": 1.0,
        "always_fail": 0.0,
    }
    kinds = []
    for name in GAME_ROTATION:
        strategy = game.make_strategy(name, n)
        solver = game.reduce_to_2of2(game.make_strategy(name, n))
        kinds.append(Kind(
            f"game_{name}", n, 1, win_theory[name], False,
            lambda seed, s=strategy: game.play_nonlocal(puzzle, s, Rng(seed)),
            _game_summary))
        kinds.append(Kind(
            f"reduced_{name}", n, 1, reduced_theory[name], False,
            lambda seed, s=solver: game.play_2of2(puzzle, s, Rng(seed)),
            _reduced_summary))
    return kinds


WORKLOADS = {"timed_k1": timed_k1, "attacks_k4": attacks_k4,
             "game_n12": game_n12}


def gate_rows(lib, kinds, successes, trials, z: float = Z_GATE):
    """One cli.Row per kind with a z-sigma Wilson interval; passed says
    whether the interval covers the kind's closed form."""
    rows = []
    for kind, wins, count in zip(kinds, successes, trials):
        if count == 0:
            continue
        row = lib.cli.coverage_row(kind.label, kind.n, kind.k, wins, count,
                                   kind.theory)
        low, high = lib.stats.wilson_interval(wins, count, z)
        rows.append(dataclasses.replace(row, ci_low=low, ci_high=high,
                                        passed=low <= kind.theory <= high))
    return rows
