"""Command line tests: row output, option precedence, exit codes, and
byte-identical reruns."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posverif import cli, stats
from posverif.adversary import ATTACK_NAMES, make_attack
from posverif.cli import (
    CSV_HEADER,
    DEFAULT_SEED,
    SWEEP_POSITIONS,
    main,
)
from posverif.errors import ConfigInvalid
from posverif.nonlocal_game import STRATEGIES
from posverif.protocol import HonestProver, ProtocolConfig, run_prpv
from posverif.stats import tally


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    return [dict(zip(CSV_HEADER.split(","), line.split(",")))
            for line in lines[1:]]


class TestCompleteness:
    def test_default_sweep_positions(self, capsys):
        # the sweep needs enough trials that a stray verification miss
        # cannot push the interval below the 1 - 2^-9 expectation
        code, out, _ = run_cli(capsys, "completeness", "--trials", "300")
        rows = parse_csv(out)
        assert code == 0
        assert [r["experiment"] for r in rows] == [
            f"completeness@{p}" for p in SWEEP_POSITIONS]
        assert all(r["pass"] == "true" for r in rows)
        assert rows[0]["theory"] == "0.998046875"

    def test_single_position(self, capsys):
        code, out, _ = run_cli(capsys, "completeness", "--pos", "3/2",
                               "--trials", "40")
        rows = parse_csv(out)
        assert code == 0
        assert len(rows) == 1
        assert rows[0]["experiment"] == "completeness@3/2"

    def test_outside_position_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "completeness", "--pos", "5/2",
                               "--trials", "10")
        assert code == 2
        assert "error:" in err

    def test_hashed_variant(self, capsys):
        code, out, _ = run_cli(capsys, "completeness", "--pos", "3/2",
                               "--trials", "40", "--hashed", "--k", "2")
        rows = parse_csv(out)
        assert code == 0
        assert rows[0]["k"] == "2"


class TestWorkers:
    @pytest.mark.parametrize("argv", [
        ("completeness", "--pos", "3/2", "--trials", "50"),
        ("attack", "--name", "forward_compiled_guess", "--k", "2",
         "--trials", "60"),
        ("nonlocal", "--name", "honest_to_B", "--trials", "60"),
        ("poq", "--k", "2", "--trials", "60"),
    ], ids=["completeness", "attack", "nonlocal", "poq"])
    def test_workers_do_not_change_counts(self, capsys, pool_sizes, argv):
        _, serial, _ = run_cli(capsys, *argv)
        assert pool_sizes == []
        _, pooled, _ = run_cli(capsys, *argv, "--workers", "2")
        assert pool_sizes and set(pool_sizes) == {2}
        assert serial == pooled

    def test_pool_capped_by_cores_and_chunks(self, monkeypatch):
        # a recording stand-in for the pool: the cap is checked without
        # starting a single process
        sizes, chunks = [], []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                parts = list(map(fn, *iterables))
                chunks.append(len(parts))
                return parts

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(stats.os, "cpu_count", lambda: 4)
        one_trial = lambda seed: seed % 3
        serial = tally(one_trial, 100, 7)
        assert tally(one_trial, 100, 7, workers=1000) == serial
        assert tally(one_trial, 100, 7, workers=3) == serial
        assert tally(one_trial, 3, 7, workers=1000) == tally(one_trial, 3, 7)
        assert sizes == chunks == [4, 3, 3]
        monkeypatch.setattr(stats.os, "cpu_count", lambda: None)
        assert tally(one_trial, 100, 7, workers=8) == serial
        assert sizes == chunks == [4, 3, 3]
        for workers in (0, -1):
            with pytest.raises(ConfigInvalid, match="workers must be >= 1"):
                tally(one_trial, 10, 0, workers=workers)
        assert sizes == chunks == [4, 3, 3]


class TestAttack:
    @pytest.mark.parametrize("name,trials", [
        ("guess", 300),
        ("forward_compiled_guess", 200),
        ("teleport", 120),
        ("classical_forward", 300),
    ])
    def test_each_attack_row_passes(self, capsys, name, trials):
        code, out, _ = run_cli(capsys, "attack", "--name", name,
                               "--trials", str(trials))
        rows = parse_csv(out)
        assert code == 0
        assert rows[0]["experiment"] == f"attack_{name}"
        assert rows[0]["pass"] == "true"

    def test_unknown_attack_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "attack", "--name", "nope")
        assert code == 2
        assert "unknown attack" in err

    def test_missing_name_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "attack")
        assert code == 2

    def test_interval_miss_exits_1(self, capsys):
        # seed 0 with 8 trials lands only one success, so the interval
        # misses the guessing expectation deterministically
        code, out, _ = run_cli(capsys, "attack", "--name", "guess",
                               "--trials", "8", "--seed", "0")
        rows = parse_csv(out)
        assert code == 1
        assert rows[0]["pass"] == "false"


class TestNonlocal:
    def test_row_triple(self, capsys):
        code, out, _ = run_cli(capsys, "nonlocal", "--name",
                               "measure_and_guess", "--trials", "600")
        rows = parse_csv(out)
        assert code == 0
        assert [r["experiment"] for r in rows] == [
            "game_measure_and_guess",
            "reduced_measure_and_guess",
            "reduction_bound_measure_and_guess",
        ]
        bound = float(rows[2]["theory"])
        assert float(rows[2]["rate"]) >= bound

    def test_unknown_strategy_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "nonlocal", "--name", "psychic")
        assert code == 2
        assert "unknown strategy" in err


class TestPoq:
    def test_rows_and_order_check(self, capsys):
        code, out, _ = run_cli(capsys, "poq", "--trials", "200")
        rows = parse_csv(out)
        assert code == 0
        assert [r["experiment"] for r in rows] == [
            "poq_quantum", "poq_classical"]
        quantum = float(rows[0]["rate"])
        classical = float(rows[1]["rate"])
        assert quantum > classical


ARRIVALS = ("y0", "y1", "ans0", "ans1")


def split_trace(out):
    """(events, verdict): every line of a trace but the last, and the last."""
    lines = [json.loads(line) for line in out.strip().split("\n")]
    return lines[:-1], lines[-1]


class TestTrace:
    def test_json_lines_schema(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--seed", "5")
        assert code == 0
        events, verdict = split_trace(out)
        assert events and all(set(e) == {"time", "kind", "party", "digest"}
                              for e in events)
        assert {e["kind"] for e in events} <= {"alarm", "emit", "recv"}
        assert set(verdict) == {"kind", "accept", "reason", "challenge", *ARRIVALS}
        assert verdict["kind"] == "verdict"

    @pytest.mark.parametrize("hashed", [False, True], ids=["plain", "hashed"])
    @pytest.mark.parametrize("name", [None, "guess", "classical_forward"])
    def test_verdict_line_is_the_runs_verdict(self, capsys, name, hashed):
        argv = ["trace", "--seed", "5", "--n", "6", "--k", "2", "--pos", "5/4"]
        argv += ["--name", name] if name else []
        argv += ["--hashed"] if hashed else []
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        _, line = split_trace(out)
        config = ProtocolConfig(n=6, k=2, prover_position=Fraction(5, 4),
                                hashed=hashed)
        party = ({"adversaries": make_attack(name, config)} if name
                 else {"prover": HonestProver()})
        verdict = run_prpv(config, 5, **party).verdict
        assert (line["accept"], line["reason"], line["challenge"]) == (
            verdict.accept, verdict.reason.value, verdict.challenge)
        assert {label: Fraction(line[label]) for label in ARRIVALS} == verdict.timings

    def test_missing_arrival_is_null(self, capsys, monkeypatch):
        def without_ans1(*args, **kwargs):
            outcome = run_prpv(*args, **kwargs)
            timings = {**outcome.verdict.timings, "ans1": None}
            return replace(outcome, verdict=replace(outcome.verdict, timings=timings))

        monkeypatch.setattr(cli, "run_prpv", without_ans1)
        _, out, _ = run_cli(capsys, "trace", "--seed", "5")
        _, verdict = split_trace(out)
        assert verdict["ans1"] is None
        assert verdict["ans0"] == "4/1"

    def test_attack_trace(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--seed", "5",
                               "--name", "guess")
        assert code == 0
        assert out

    def test_hashed_teleport_trace_is_config_error(self, capsys):
        code, out, err = run_cli(capsys, "trace", "--name", "teleport",
                                 "--hashed", "--n", "6")
        assert code == 2
        assert "error:" in err
        assert out == ""

    def test_hashed_classical_forward_wide_challenge(self, capsys):
        """Each device derives the 9-bit challenge from the nonces it
        hears, so no 8-bit nonce is read as the challenge."""
        code, out, err = run_cli(capsys, "trace", "--name", "classical_forward",
                                 "--hashed", "--k", "9", "--lambda", "8",
                                 "--n", "4")
        assert code == 0, err
        events, verdict = split_trace(out)
        assert events and all(e["kind"] in {"alarm", "emit", "recv"}
                              for e in events)
        assert len(verdict["challenge"]) == 9

    def test_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "trace", "--seed", "9")
        _, second, _ = run_cli(capsys, "trace", "--seed", "9")
        assert first == second


class TestOutputHandling:
    def test_out_file_and_rerun_identical(self, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        argv = ["completeness", "--pos", "3/2", "--trials", "40",
                "--out", str(target)]
        assert main(argv) == 0
        first = target.read_bytes()
        assert main(argv) == 0
        assert target.read_bytes() == first

    def test_json_format_sorted_keys(self, capsys):
        _, out, _ = run_cli(capsys, "poq", "--trials", "50",
                            "--format", "json")
        payload = json.loads(out)
        row = payload["rows"][0]
        assert list(row) == sorted(row)

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "rows.csv"
        code, _, err = run_cli(capsys, "poq", "--trials", "5",
                               "--out", str(target))
        assert code == 2
        assert "cannot write" in err

    def test_bad_format_from_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("format=yaml\n")
        code, _, err = run_cli(capsys, "poq", "--trials", "10",
                               "--config", str(cfg))
        assert code == 2


class TestOptionPrecedence:
    def test_config_file_supplies_values(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# experiment defaults\ntrials=30\nseed=4\nformat=json\n")
        code, out, _ = run_cli(capsys, "completeness", "--pos", "3/2",
                               "--config", str(cfg))
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0]["trials"] == 30

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials=30\n")
        code, out, _ = run_cli(capsys, "completeness", "--pos", "3/2",
                               "--config", str(cfg), "--trials", "20")
        rows = parse_csv(out)
        assert rows[0]["trials"] == "20"

    def test_env_seed_used_when_unset(self, capsys, monkeypatch):
        monkeypatch.setenv("POSVERIF_SEED", "77")
        _, from_env, _ = run_cli(capsys, "completeness", "--pos", "3/2",
                                 "--trials", "30")
        monkeypatch.delenv("POSVERIF_SEED")
        _, from_flag, _ = run_cli(capsys, "completeness", "--pos", "3/2",
                                  "--trials", "30", "--seed", "77")
        assert from_env == from_flag

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("POSVERIF_SEED", "77")
        _, out, _ = run_cli(capsys, "completeness", "--pos", "3/2",
                            "--trials", "30", "--seed", str(DEFAULT_SEED))
        monkeypatch.delenv("POSVERIF_SEED")
        _, default_out, _ = run_cli(capsys, "completeness", "--pos", "3/2",
                                    "--trials", "30")
        assert out == default_out

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("velocity=9\n")
        code, _, err = run_cli(capsys, "completeness", "--config", str(cfg))
        assert code == 2
        assert "unknown key" in err

    def test_malformed_config_line_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials\n")
        code, _, _ = run_cli(capsys, "completeness", "--config", str(cfg))
        assert code == 2

    def test_missing_config_file_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "completeness", "--config",
                             "/nonexistent/run.cfg")
        assert code == 2

    def test_non_utf8_config_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xff\xfe")
        code, _, err = run_cli(capsys, "poq", "--config", str(cfg))
        assert code == 2
        assert "cannot read config file" in err

    def test_bad_workers_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "poq", "--trials", "10",
                             "--workers", "0")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("completeness",), ("attack", "--name", "guess"), ("poq",),
    ], ids=["completeness", "attack", "poq"])
    def test_zero_trials_exits_2(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv, "--trials", "0")
        assert code == 2
        assert "trials must be >= 1" in err

    @pytest.mark.parametrize("argv", [
        ("trace", "--seed", "5", "--trials", "7", "--workers", "9",
         "--format", "csv"),
        ("attack", "--name", "guess", "--trials", "10", "--lambda", "64"),
        ("nonlocal", "--name", "always_fail", "--k", "5", "--lambda", "2"),
        ("poq", "--lambda", "3"),
    ], ids=["trace", "attack", "nonlocal", "poq"])
    def test_unread_flag_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, keys", [
        (("trace", "--seed", "5"), "trials=x\nworkers=0\nformat=yaml\n"),
        (("attack", "--name", "guess", "--trials", "10"), "lambda=x\n"),
        (("nonlocal", "--name", "always_fail", "--trials", "10"),
         "k=x\nlambda=x\n"),
        (("poq", "--trials", "10"), "lambda=x\n"),
    ], ids=["trace", "attack", "nonlocal", "poq"])
    def test_unread_config_keys_not_checked(self, tmp_path, capsys, argv, keys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(keys)
        code, out, _ = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 0
        assert out == run_cli(capsys, *argv)[1]


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = run_module("poq", "--trials", "30")
        assert proc.returncode == 0
        assert proc.stdout.startswith(CSV_HEADER)


SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*argv, **env):
    """`python *argv` in a child process that imports the package from
    src/, as the test process does."""
    path = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": path, **env})


def run_module(*argv, **env):
    """`python -m posverif.cli` in a child process."""
    return run_python("-m", "posverif.cli", *argv, **env)


def test_import_loads_no_process_pool():
    """Importing the CLI leaves the process-pool machinery unloaded; only
    a tally with more than one worker imports it."""
    proc = run_python("-c", (
        "import sys, posverif.cli\n"
        "print([m for m in ('concurrent.futures.process', 'multiprocessing')"
        " if m in sys.modules])"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


GAME_ROUNDS = (
    "from posverif import nonlocal_game as game\n"
    "from posverif.puzzle import BasePuzzle\n"
    "from posverif.rng import Rng\n"
    "puzzle = BasePuzzle(12)\n"
    "for name in game.STRATEGIES:\n"
    "    game.play_nonlocal(puzzle, game.make_strategy(name, 12), Rng(1))\n"
    "    game.play_2of2(puzzle, game.reduce_to_2of2(game.make_strategy(name, 12)), Rng(2))\n")


@pytest.mark.parametrize("code, loaded", [
    ("import posverif, posverif.cli\n", False),
    (GAME_ROUNDS, False),
    ("from posverif.cli import main\n"
     "main(['nonlocal', '--name', 'honest_to_B', '--trials', '5'])\n", False),
    ("from posverif.protocol import HonestProver, ProtocolConfig, run_prpv\n"
     "run_prpv(ProtocolConfig(n=4, k=1), 3, prover=HonestProver())\n", True),
], ids=["import", "game_rounds", "cli_nonlocal", "run_prpv"])
def test_numpy_loads_only_with_a_dense_state(code, loaded):
    """The package and the two-solver game, which plays on closed-form
    claw states, leave numpy unloaded; a protocol run, whose claw states
    are a dense stack, loads it."""
    proc = run_python("-c", f"import sys\n{code}print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str(loaded)


def test_cli_import_binds_every_module_the_benchmark_reads():
    """perfbench imports posverif.cli alone and then reads these modules
    as attributes of the package, so each must be bound by that import."""
    proc = run_python("-c", (
        "import posverif, posverif.cli\n"
        "print([m for m in ('cli', 'protocol', 'stats', 'adversary',"
        " 'nonlocal_game', 'puzzle', 'rng', 'qsim', 'spacetime')"
        " if not hasattr(posverif, m)])"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


class TestOneResolutionPath:
    """A bad value from the config file or $POSVERIF_SEED is a usage
    error, exactly like the same bad flag."""

    def test_bad_config_integer_fails_like_bad_flag(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials=x\n")
        from_file = run_module("poq", "--config", str(cfg))
        from_flag = run_module("poq", "--trials", "x")
        assert from_file.returncode == from_flag.returncode == 2
        assert "trials" in from_file.stderr

    def test_bad_env_seed_exits_2(self):
        proc = run_module("poq", "--trials", "5", POSVERIF_SEED="abc")
        assert proc.returncode == 2
        assert "seed" in proc.stderr

    def test_bad_env_seed_unread_when_seed_given(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=5\n")
        by_flag = run_module("poq", "--trials", "5", "--seed", "5",
                             POSVERIF_SEED="abc")
        by_file = run_module("poq", "--trials", "5", "--config", str(cfg),
                             POSVERIF_SEED="abc")
        assert by_flag.returncode == by_file.returncode == 0
        assert by_flag.stdout == by_file.stdout



# per option: (values some subcommand accepts, edges included; values
# every subcommand rejects).  None leaves the option out.  --workers,
# --out and --config are left out, as they start process pools or touch
# files; the tests above cover them.
SWEEP_VALUES = {
    "--n": ((None, "2", "4", "9"), ("-1", "0", "1", "13", "x")),
    "--k": ((None, "1", "2", "9"), ("-1", "0", "x")),
    "--lambda": ((None, "8", "16", "64"), ("-1", "7", "x")),
    "--pos": ((None, "1", "3/2", "199/100"), ("2", "0", "-1", "1/0", "x")),
    "--seed": ((None, "0", "5", str(2**64 - 1)), ("-1", str(2**64), "1.5")),
    "--name": ((None, *ATTACK_NAMES, *sorted(STRATEGIES)), ("nope",)),
    "--trials": (("1", "3"), ("0", "-1")),
    "--format": ((None, "csv", "json"), ("yaml",)),
    "--hashed": ((False, True), ()),
}
SWEEP_TAKES = {
    "completeness": ("--n", "--k", "--lambda", "--pos", "--seed", "--trials",
                     "--format", "--hashed"),
    "attack": ("--n", "--k", "--seed", "--name", "--trials", "--format"),
    "nonlocal": ("--n", "--seed", "--name", "--trials", "--format"),
    "poq": ("--n", "--k", "--seed", "--trials", "--format"),
    "trace": ("--n", "--k", "--lambda", "--pos", "--seed", "--name",
              "--hashed"),
}


@st.composite
def sweep_options(draw):
    """(subcommand, {option: value}): up to two of the options it takes
    get an invalid value, the rest a valid or edge one."""
    command = draw(st.sampled_from(sorted(SWEEP_TAKES)))
    takes = SWEEP_TAKES[command]
    broken = draw(st.sets(
        st.sampled_from([o for o in takes if SWEEP_VALUES[o][1]]), max_size=2))
    options = {o: draw(st.sampled_from(SWEEP_VALUES[o][o in broken]))
               for o in takes}
    return command, {o: v for o, v in options.items() if v not in (None, False)}


def sweep_argv(command, options):
    argv = [command]
    for option, value in options.items():
        argv += [option] if value is True else [option, value]
    return argv


class TestInputSweep:
    """Every argv ends in exit 0, 1 or 2, with a typed error or argparse's
    usage error, never an escaped exception."""

    def test_closed_form_after_config_check(self):
        # the theory column read 0.0 ** -1 before n and k were checked,
        # and the process ended in a ZeroDivisionError traceback
        proc = run_module("completeness", "--n", "-1", "--k", "-1",
                          "--trials", "1")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_exits_2(self, capsys, seed):
        # seeds are mixed modulo 2^64, so -1 would run as seed 2^64 - 1
        code, out, err = run_cli(capsys, "poq", "--trials", "1",
                                 "--seed", seed)
        assert (code, out) == (2, "")
        assert err == f"error: seed must be in [0, {2**64 - 1}], got {seed}\n"

    def test_claw_stack_over_the_cap_exits_2(self, capsys):
        # 2049 rows of 13 qubits is one row more than a 2^24-amplitude
        # stack holds
        code, out, err = run_cli(capsys, "poq", "--n", "12", "--k", "2049",
                                 "--trials", "1")
        assert (code, out) == (2, "")
        assert err == "error: 2049 rows of 13 qubits exceed the 24-qubit cap\n"

    @given(sweep_options())
    @example(("trace", {"--hashed": True, "--k": "9", "--lambda": "8"}))
    @example(("completeness", {"--n": "-1", "--k": "-1", "--trials": "1"}))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_argv_ends_in_an_exit_code(self, drawn):
        command, options = drawn
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(sweep_argv(command, options))
            except SystemExit as exc:  # argparse's usage error
                assert exc.code == 2
                assert err.getvalue().startswith("usage:")
                return
        assert code in (0, 1, 2)
        if options.get("--seed") in ("-1", str(2**64)):
            assert code == 2
        if code == 2:
            assert err.getvalue().startswith("error:")
            assert out.getvalue() == ""
        elif options.get("--format") == "json":
            rows = json.loads(out.getvalue())["rows"]
            assert rows and all(set(row) == set(CSV_HEADER.split(","))
                                for row in rows)
        elif command != "trace":
            assert out.getvalue().startswith(CSV_HEADER + "\n")
