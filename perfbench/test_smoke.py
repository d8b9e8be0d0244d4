"""Smoke test of the benchmark itself (not of ellcm):

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at its tiny size, untraced and traced, and checks the
result line against BENCHMARK.json; checks that a corrupted kernel value is
counted as a failure; checks the deep-tail accuracy report; checks that the
benchmark refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from speed import Speedometer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds",
                  "0", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1
    assert 0 <= line["failed"] <= line["attempted"]
    assert line["correct"] == (line["failed"] == 0)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in line["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
    else:
        result = json.loads((workloads.OUT_DIR /
                             f"result-{workload}-trace1.json").read_text())
        wall = result["per_layer"]["bench.wall_s"]
        assert abs(result["traced_self_sum_s"] - wall) <= 0.02 * wall


def test_corrupted_kernel_value_counts_as_failed(monkeypatch):
    plan = workloads.kernels_plan(5, tiny=True)

    def outcomes():
        passes = run.run_passes(plan, 0, Speedometer())
        ok = [err is None and plan.check(i, out)[0]
              for i, (_, _, out, err) in enumerate(passes[0])]
        assert run.check_passes(plan, passes)[1] == ok.count(False)
        return ok

    clean = outcomes()
    wp = workloads.el.wp
    monkeypatch.setattr(workloads.el, "wp",
                        lambda *a, **k: wp(*a, **k) * (1 + 1e-6))
    corrupted = outcomes()
    is_wp = [op.label.startswith("wp@") for op in plan.ops]
    assert any(is_wp)
    assert all(not ok for ok, w in zip(corrupted, is_wp) if w)
    assert all(a == b for a, b, w in zip(clean, corrupted, is_wp) if not w)


def test_deep_tail_is_checked_against_the_reference():
    deep = workloads.deep_tail_accuracy(3, tiny=True)
    kernels = len(workloads.KERNELS)
    assert deep["calls"] == workloads.DEEP_TAIL_POINTS * kernels
    assert 0 <= deep["misses"] <= deep["calls"]
    assert deep["miss_frac"] == deep["misses"] / deep["calls"]
    assert sum(deep["misses_by_modulus"].values()) == deep["misses"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "kernels", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
