"""Command line experiment runner.

Subcommands reproduce the headline numbers: completeness sweeps honest
prover positions, attack estimates adversary acceptance, nonlocal plays
the two-referee game and its 2-of-2 reduction, poq runs the timing-free
protocol for quantum and classical provers, and trace dumps one run's
event log and verdict.  Each is one function of the parsed options.

Every row carries its closed-form expectation and a Wilson 95 percent
interval; the process exits 0 when every row's interval covers its
expectation, 1 when any row misses, and 2 on configuration errors, such
as a seed outside [0, 2^64).  Outputs are deterministic for a fixed
configuration and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import astuple, dataclass, replace
from fractions import Fraction

from .adversary import ATTACK_NAMES, make_attack
from .errors import ConfigInvalid, PosverifError
from .nonlocal_game import (
    STRATEGIES,
    estimate_2of2_rate,
    estimate_win_rate,
    make_strategy,
    reduce_to_2of2,
)
from .protocol import (
    ClassicalProver,
    HonestProver,
    ProtocolConfig,
    estimate_acceptance,
    estimate_poq,
    run_prpv,
)
from .puzzle import BasePuzzle
from .rng import child_seed
from .spacetime import coord_str
from .stats import (
    classical_prover_rate,
    honest_completeness,
    reduction_slack,
    wilson_interval,
)

DEFAULT_SEED = 27182
DEFAULT_TRIALS = 1000
ENV_SEED = "POSVERIF_SEED"

SWEEP_POSITIONS = (
    Fraction(1),
    Fraction(5, 4),
    Fraction(3, 2),
    Fraction(7, 4),
    Fraction(199, 100),
)

FIELDS = ("experiment", "n", "k", "trials", "successes", "rate", "ci_low",
          "ci_high", "theory", "pass")
CSV_HEADER = ",".join(FIELDS)


@dataclass(frozen=True)
class Row:  # FIELDS in order, passed as "pass"
    experiment: str
    n: int
    k: int
    trials: int
    successes: int
    rate: float
    ci_low: float
    ci_high: float
    theory: float
    passed: bool


def coverage_row(experiment: str, n: int, k: int, successes: int,
                 trials: int, theory: float) -> Row:
    low, high = wilson_interval(successes, trials)
    passed = low <= theory <= high
    return Row(experiment, n, k, trials, successes, successes / trials,
               low, high, theory, passed)


def _fmt(value) -> str:
    """One CSV cell: a bool as true/false, a float to 12 digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def format_csv(rows: list[Row]) -> str:
    lines = [CSV_HEADER, *(",".join(map(_fmt, astuple(r))) for r in rows)]
    return "\n".join(lines) + "\n"


def format_json(rows: list[Row]) -> str:
    payload = [dict(zip(FIELDS, astuple(r))) for r in rows]
    return json.dumps({"rows": payload}, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Subcommands, each a function of the parsed options


def completeness_rows(args) -> list[Row]:
    positions = SWEEP_POSITIONS if args.pos is None else (args.pos,)
    hashed = _to_bool(args.hashed, "hashed")
    rows = []
    for index, position in enumerate(positions):
        # the config checks every field before the closed form reads n, k
        config = ProtocolConfig(n=args.n, k=args.k, lam=args.lam,
                                prover_position=position, hashed=hashed)
        est = estimate_acceptance(config, args.trials,
                                  child_seed(args.seed, index),
                                  prover=HonestProver(), workers=args.workers)
        rows.append(coverage_row(f"completeness@{config.prover_position}",
                                 args.n, args.k, est.successes, args.trials,
                                 honest_completeness(args.n, args.k)))
    return rows


def attack_rows(args) -> list[Row]:
    config = ProtocolConfig(n=args.n, k=args.k)
    pair = make_attack(args.name, config)
    est = estimate_acceptance(config, args.trials, args.seed, adversaries=pair,
                              workers=args.workers)
    return [coverage_row(f"attack_{args.name}", args.n, args.k, est.successes,
                         args.trials, pair.rate(args.n, args.k))]


def nonlocal_rows(args) -> list[Row]:
    name, n, trials, seed = args.name, args.n, args.trials, args.seed
    strategy = make_strategy(name, n)
    puz = BasePuzzle(n)
    est = estimate_win_rate(puz, strategy, trials, child_seed(seed, 0),
                            args.workers)
    tau = coverage_row(f"game_{name}", n, 1, est.successes, trials,
                       strategy.win_rate(n))
    est = estimate_2of2_rate(puz, reduce_to_2of2(strategy), trials,
                             child_seed(seed, 1), args.workers)
    reduced = coverage_row(f"reduced_{name}", n, 1, est.successes, trials,
                           strategy.reduced_rate(n))
    sigma = reduction_slack(reduced.rate, trials, tau.rate, trials)
    bound = 2 * tau.rate - 1 - 5 * sigma
    return [tau, reduced,
            replace(reduced, experiment=f"reduction_bound_{name}",
                    theory=bound, passed=reduced.rate >= bound)]


def poq_rows(args) -> list[Row]:
    n, k, trials = args.n, args.k, args.trials
    config = ProtocolConfig(n=n, k=k)
    quantum = estimate_poq(config, trials, child_seed(args.seed, 0),
                           prover=HonestProver(), workers=args.workers)
    classical = estimate_poq(config, trials, child_seed(args.seed, 1),
                             prover=ClassicalProver(), workers=args.workers)
    return [
        coverage_row("poq_quantum", n, k, quantum.successes, trials,
                     honest_completeness(n, k)),
        coverage_row("poq_classical", n, k, classical.successes, trials,
                     classical_prover_rate(n, k)),
    ]


def trace_lines(args) -> str:
    """Event log of one timed run of the honest prover or the named
    attack, one JSON line per event, then one line with its verdict: accept,
    reason, challenge and the four arrival times (null for none)."""
    config = ProtocolConfig(n=args.n, k=args.k, lam=args.lam,
                            prover_position=args.pos,
                            hashed=_to_bool(args.hashed, "hashed"))
    actor = ({"prover": HonestProver()} if args.name is None
             else {"adversaries": make_attack(args.name, config)})
    outcome = run_prpv(config, args.seed, record_trace=True, **actor)
    verdict = outcome.verdict
    times = {label: None if t is None else coord_str(t)
             for label, t in verdict.timings.items()}
    line = json.dumps({"kind": "verdict", "accept": verdict.accept,
                       "reason": verdict.reason.value,
                       "challenge": verdict.challenge, **times}, sort_keys=True)
    return outcome.trace.to_json_lines() + line + "\n"


_ROW_COMMANDS = {"completeness": completeness_rows, "attack": attack_rows,
                 "nonlocal": nonlocal_rows, "poq": poq_rows}


# ---------------------------------------------------------------------------
# Option resolution


CONFIG_KEYS = {"n", "k", "lambda", "trials", "seed", "pos", "name", "format",
               "workers", "out", "hashed"}


def load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigInvalid(
                        f"{path}:{lineno}: expected key=value, got {line!r}"
                    )
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in CONFIG_KEYS:
                    raise ConfigInvalid(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigInvalid(f"cannot read config file {path}: {exc}") from exc
    return values


def _to_bool(value, label: str) -> bool:
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("1", "true", "yes"):
        return True
    if text in ("0", "false", "no"):
        return False
    raise ConfigInvalid(f"{label} must be a boolean, got {value!r}")


def _build_parser():
    """(parser, its subparsers action)."""
    base, width, nonce, rows = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    base.add_argument("--n", type=int, default=8,
                      help="puzzle width (default %(default)s)")
    base.add_argument("--seed", type=int, default=None,
                      help=f"master seed in [0, 2^64) "
                           f"(default ${ENV_SEED} or {DEFAULT_SEED})")
    base.add_argument("--config", default=None,
                      help="key=value file supplying defaults for any flag")
    base.add_argument("--out", default=None,
                      help="write output to this file instead of stdout")
    width.add_argument("--k", type=int, default=1,
                       help="parallel instances (default %(default)s)")
    nonce.add_argument("--hashed", action="store_true",
                       help="use the hash-challenge variant")
    nonce.add_argument("--lambda", dest="lam", type=int, default=16,
                       help="nonce width for the hash-challenge variant")
    rows.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                      help="runs per row (default %(default)s)")
    rows.add_argument("--format", choices=("csv", "json"), default="csv",
                      help="row output format (default %(default)s)")
    rows.add_argument("--workers", type=int, default=1,
                      help="worker processes for trial loops (default %(default)s)")

    parser = argparse.ArgumentParser(
        prog="posverif",
        description="Seeded experiments for the timed verification protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    completeness = sub.add_parser(
        "completeness", parents=[base, width, nonce, rows],
        help="honest acceptance across prover positions")
    completeness.add_argument("--pos", default=None,
                              help="single prover position (rational), "
                                   "default sweeps the segment")

    attack = sub.add_parser("attack", parents=[base, width, rows],
                            help="two-device attack acceptance")
    attack.add_argument("--name", default=None,
                        help=f"attack name, one of {', '.join(ATTACK_NAMES)}")

    game = sub.add_parser("nonlocal", parents=[base, rows],
                          help="two-referee game and 2-of-2 reduction")
    game.add_argument("--name", default=None,
                      help=f"strategy name, one of {', '.join(sorted(STRATEGIES))}")

    sub.add_parser("poq", parents=[base, width, rows],
                   help="timing-free protocol: quantum vs classical provers")

    trace = sub.add_parser("trace", parents=[base, width, nonce],
                           help="event log of a single seeded run")
    trace.add_argument("--pos", default="3/2",
                       help="prover position (rational, default %(default)s)")
    trace.add_argument("--name", default=None,
                       help="trace an attack pair instead of the honest prover")

    return parser, sub


def _emit(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigInvalid(f"cannot write {out_path}: {exc}") from exc


def main(argv=None) -> int:
    """Flag > config file > $POSVERIF_SEED (seed only) > default: argparse
    converts and checks the file's keys and the seed variable like flags."""
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        defaults = {}
        if args.config:
            # keys with no flag in this subcommand are not read
            for key, value in load_config_file(args.config).items():
                dest = "lam" if key == "lambda" else key
                if dest in vars(args):
                    defaults[dest] = value
        if args.seed is None and "seed" not in defaults:
            defaults["seed"] = os.environ.get(ENV_SEED, DEFAULT_SEED)
        commands.choices[args.command].set_defaults(**defaults)
        args = parser.parse_args(argv)

        if args.command == "trace":
            _emit(trace_lines(args), args.out)
            return 0
        if args.format not in ("csv", "json"):
            raise ConfigInvalid(f"format must be csv or json, got {args.format!r}")
        if args.command in ("attack", "nonlocal") and args.name is None:
            raise ConfigInvalid(f"{args.command} requires --name")
        rows = _ROW_COMMANDS[args.command](args)
        text = format_json(rows) if args.format == "json" else format_csv(rows)
        _emit(text, args.out)
        return 0 if all(r.passed for r in rows) else 1
    except PosverifError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
