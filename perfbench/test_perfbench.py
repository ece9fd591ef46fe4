"""Self-tests of the benchmark: run with `python3 -m pytest perfbench -q`."""

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import run
import spans
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def lib():
    return workloads.load_library(run.ROOT)


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_named_metric_is_printed_with_its_unit(capsys, name, trace, section):
    code = run.main(["--workload", name, "--seed", "2", "--seconds", "0.5",
                     "--trace", str(trace)])
    out = capsys.readouterr().out
    result = last_json(out)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[-1] for line in out.splitlines()
               if line.split() and line.split()[0] in expected}
    assert printed == expected


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_gate_passes_on_two_seeds(lib, name, seed):
    kinds = workloads.WORKLOADS[name](lib)
    phase = run.run_phase(kinds, seed, runs=5 * len(kinds))
    rows = workloads.gate_rows(lib, kinds, phase.successes, phase.trials)
    assert phase.failed == 0
    assert len(rows) == len(kinds) and all(row.passed for row in rows)


def test_wrong_closed_form_fails_the_gate(lib, capsys):
    kinds = workloads.timed_k1(lib)
    wrong = [dataclasses.replace(kind, theory=1 - kind.theory) for kind in kinds]
    report = run.Report()
    report.gate(lib, run.run_phase(wrong, 1, runs=200))
    assert not report.correct
    assert "check FAIL honest@1/plain" in capsys.readouterr().out


def test_raising_and_late_honest_runs_count_as_failed(lib):
    kinds = workloads.timed_k1(lib)
    config = lib.protocol.ProtocolConfig(n=8, k=1)
    outside = lib.protocol.HonestProver(position=Fraction(5, 2))

    def raises(seed):
        raise IndexError("broken run")

    broken = [dataclasses.replace(kinds[0], play=raises),
              dataclasses.replace(kinds[1], play=lambda seed: lib.protocol.run_prpv(
                  config, seed, prover=outside))]
    phase = run.run_phase(broken, 1, runs=2)
    assert phase.failed == 2
    assert "IndexError: broken run" in phase.errors[0]
    assert "honest run failed timing_" in phase.errors[1]


def test_self_time_of_nested_spans():
    recorder = spans.Recorder()
    # root [0, 100] holds a [10, 40] (which holds b [15, 25]) and c [50, 90]
    for name, parent, start, end in (("root", -1, 0, 100), ("a", 0, 10, 40),
                                     ("b", 1, 15, 25), ("c", 0, 50, 90)):
        recorder.name_id.append(recorder.name_index(name))
        recorder.parent.append(parent)
        recorder.run.append(0)
        recorder.start.append(start)
        recorder.end.append(end)
    assert list(recorder.self_ns()) == [30, 20, 10, 40]
    assert recorder.totals() == {"root": (1, 30.0), "a": (1, 20.0),
                                 "b": (1, 10.0), "c": (1, 40.0)}


def test_instrumentation_counts_and_restores(lib):
    kinds = workloads.attacks_k4(lib)
    original = lib.protocol.run_prpv
    recorder = spans.Recorder()
    with spans.Instrumentation(lib, recorder):
        assert lib.protocol.run_prpv is not original
        run.run_phase(kinds, 1, runs=len(kinds), recorder=recorder)
    assert lib.protocol.run_prpv is original
    metrics = spans.per_layer_metrics(recorder, len(kinds), 0.0)
    # one forwarding run builds 2^4 replicas and reads one of them;
    # one teleport run uses k * (n + 1) = 36 EPR pairs
    assert metrics["adversary.replicas_per_run"][0] == 16 / 5
    assert metrics["adversary.replica_use_ratio"][0] == 1 / 16
    assert metrics["adversary.epr_pairs_per_run"][0] == 36 / 5
    assert metrics["protocol.run.self_us"][0] > 0


def test_fails_without_the_library(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "timed_k1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
