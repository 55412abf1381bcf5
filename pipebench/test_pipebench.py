"""Tests of the pipeline benchmark itself (not part of the program's suite).

Run from the repository root::

    python3 -m pytest pipebench -q

The smoke tests run every workload at :data:`workloads.TINY` size, so
the whole file takes well under a minute.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

# The in-process smoke runs see the environment the benchmark gives its
# processes: the program's sources, its own native cache, no selectors.
os.environ.clear()
os.environ.update(run.child_env(run.ROOT))
sys.path.insert(0, str(run.ROOT / "src"))

import child  # noqa: E402
import workloads  # noqa: E402
from tracing import Hook, Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def _units(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_definition_matches_the_runner():
    assert sorted(NAMES) == sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
    assert child.per_layer_names() == list(_units("per_layer"))
    assert BENCHMARK["command"] == ["python3", "pipebench/run.py"]
    for metric in BENCHMARK["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.fixture(scope="module", params=NAMES)
def smoke(request):
    """Untraced and traced tiny runs of one workload."""
    name = request.param
    plain = child.measure(name, seed=3, ops=3, trace=False,
                          size=workloads.TINY)
    traced = child.measure(name, seed=3, ops=3, trace=True,
                           size=workloads.TINY)
    return name, plain, traced


def test_every_end_to_end_metric_is_emitted_with_its_unit(smoke):
    _, plain, _ = smoke
    metrics = dict(plain["metrics"], setup_s=0.5)
    line = run.result_line("end_to_end", metrics, list(plain["problems"]),
                           plain["attempted"], plain["failed"])
    assert line["correct"], plain["problems"]
    assert {n: m["unit"] for n, m in line["metrics"].items()} == _units("end_to_end")
    for name, metric in line["metrics"].items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name
    assert plain["attempted"] >= 3


def test_every_per_layer_metric_is_emitted_with_its_unit(smoke):
    _, _, traced = smoke
    line = run.result_line("per_layer", traced["metrics"], list(traced["problems"]),
                           traced["attempted"], traced["failed"])
    assert line["correct"], traced["problems"]
    assert {n: m["unit"] for n, m in line["metrics"].items()} == _units("per_layer")


def test_self_times_account_for_the_traced_wall(smoke):
    _, _, traced = smoke
    metrics = traced["metrics"]
    layers = sum(v for n, v in metrics.items()
                 if n.endswith("_s") and n not in ("trace.wall_s", "other_s"))
    assert metrics["other_s"] >= 0
    assert layers + metrics["other_s"] == pytest.approx(metrics["trace.wall_s"],
                                                         rel=1e-9)
    assert metrics["riscv.run_s"] > 0 and metrics["riscv.cycles"] > 0


def test_traced_and_untraced_outcomes_match(smoke):
    _, plain, traced = smoke
    # measure() itself fails the gate when the traced pass differs
    assert not traced["problems"]
    assert traced["outputs_digest"] == plain["outputs_digest"]
    assert traced["outputs"] == plain["outputs"]


def test_layers_a_workload_does_not_call_report_zero(smoke):
    name, _, traced = smoke
    metrics = traced["metrics"]
    if name != "break-n8":
        assert metrics["search.self_s"] == 0 and metrics["search.candidates"] == 0
    if name != "campaign":
        assert metrics["orchestrator.grains"] == 0
    if name == "break-n8":
        assert metrics["search.candidates"] > 0 and metrics["ring.ntt_s"] > 0


def test_traced_run_replays_the_set_up_profile(smoke):
    _, _, traced = smoke
    metrics = traced["metrics"]
    assert metrics["template.accumulate_s"] > 0
    assert metrics["template.build_s"] > 0
    assert metrics["segmentation.learn_s"] > 0


def test_tracer_self_time_and_restore():
    class Layer:
        def outer(self):
            time.sleep(0.02)
            return self.inner()

        def inner(self):
            time.sleep(0.03)
            return 7

    original = Layer.__dict__["outer"]
    tracer = Tracer()
    with tracer.installed([Hook("a", Layer, "outer"), Hook("b", Layer, "inner")]):
        start = time.perf_counter()
        assert Layer().outer() == 7
        wall = time.perf_counter() - start
    assert Layer.__dict__["outer"] is original
    assert tracer.self_s["b"] >= 0.03
    assert 0.02 <= tracer.self_s["a"] < 0.03 + 0.02
    assert tracer.self_s["a"] + tracer.self_s["b"] <= wall


def test_repeat_gate_fails_same_source_and_flags_other_source(tmp_path):
    store = tmp_path / "outputs.json"
    assert run.repeat_check(store, "k", "src1", {"bikz": 240.0}) == ([], [])
    assert run.repeat_check(store, "k", "src1", {"bikz": 240.0}) == ([], [])
    problems, flags = run.repeat_check(store, "k", "src1", {"bikz": 241.0})
    assert problems and not flags
    # a program change that alters a result is flagged against the
    # earlier sources and recorded as the first run of its own
    problems, flags = run.repeat_check(store, "k", "src2", {"bikz": 241.0})
    assert not problems and flags
    problems, flags = run.repeat_check(store, "k", "src2", {"bikz": 242.0})
    assert len(problems) == 1 and len(flags) == 1
    assert run.repeat_check(store, "other", "src2", {"bikz": 1.0}) == ([], [])


def test_a_setup_sample_prints_ready_and_no_result(capsys):
    assert child.measure("break-n8", seed=3, ops=0, trace=False,
                         size=workloads.TINY,
                         ready=lambda: print("READY")) == {}
    assert capsys.readouterr().out == "READY\n"


def test_without_program_sources_the_run_fails_cleanly(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "pipebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "pipebench/run.py", "--workload", "seal-trace", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
