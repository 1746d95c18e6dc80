"""Smoke tests of the benchmark itself, at tiny shapes, with no time bounds.

Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as W  # noqa: E402
from tracer import COUNT_NAMES, Recorder  # noqa: E402


def bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", W.NAMES)
def test_end_to_end_schema(workload):
    res = result(workload, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1
    assert {k: m["unit"] for k, m in res["metrics"].items()} == run.END_TO_END
    for m in res["metrics"].values():
        assert set(m) == {"value", "unit"}
        assert math.isfinite(m["value"]) and m["value"] != 0


@pytest.mark.parametrize("workload", W.NAMES)
def test_per_layer_schema(workload):
    res = result(workload, 1)
    assert res["correct"] is True
    assert {k: m["unit"] for k, m in res["metrics"].items()} == run.per_layer_units()
    assert all(math.isfinite(m["value"]) for m in res["metrics"].values())


@pytest.mark.parametrize("workload", ["lm-fp4-full", "codec-roundtrip"])
def test_counts_repeat_exactly(workload):
    a = result(workload, 1)["metrics"]
    b = result(workload, 1)["metrics"]
    counted = [k for k in a if k in COUNT_NAMES or k.endswith(".calls")]
    assert len(counted) > len(COUNT_NAMES)
    assert {k: a[k]["value"] for k in counted} == {k: b[k]["value"] for k in counted}


@pytest.mark.parametrize("workload", W.NAMES)
def test_traced_digest_equals_untraced(workload, tmp_path):
    inputs = W.make_inputs(workload, 3, tmp_path, tiny=True)
    inputs_path = tmp_path / "inputs.json"
    inputs_path.write_text(json.dumps(inputs), encoding="ascii")
    spec = SimpleNamespace(workload=workload, seed=3, tiny=True)
    res = run.spawn(ROOT, spec, "trace", inputs_path, 0.2, time.monotonic() + 120)
    untraced = {r["digest"] for r in res["untraced"]}
    traced = {r["digest"] for r in res["traced"]}
    assert len(untraced) == 1 and traced == untraced
    assert res["trace"]["ops"] >= 1 and not res["trace"]["missing"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lm-fp32", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    assert [w["name"] for w in spec["workloads"]] == list(W.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_tail_has_ten_samples_beyond():
    values = list(range(100))
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10 and pct == 90.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


class FakeClock:
    def __init__(self):
        self.t = 0

    def __call__(self):
        self.t += 7
        return self.t


def test_self_times_sum_to_the_root():
    rec = Recorder("codec.op")
    rec.clock = FakeClock()

    def leaf():
        return 1

    def mid():
        return leaf_span() + leaf_span()

    leaf_span = rec._span("leaf", leaf, None)
    mid_span = rec._span("mid", mid, None)
    leaf_span()  # outside any op: passes straight through, not recorded
    rec.begin_op(timed=False)
    mid_span()
    rec.end_op()  # warm-up: discarded
    rec.begin_op()
    mid_span()
    rec.end_op()
    assert len(rec.op_ns) == 1
    assert rec.calls == {"codec.op": 1, "mid": 1, "leaf": 2}
    assert sum(rec.self_ns.values()) == rec.op_ns[0]
    assert rec.worst_sum_gap == 0.0
