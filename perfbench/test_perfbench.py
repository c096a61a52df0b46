"""Tests of the benchmark itself, at the `smoke` data size.

Run from the repository root: ``python -m pytest perfbench -q``.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.core.search import brute_force_topk  # noqa: E402

from perfbench.oracle import BruteForce  # noqa: E402
from perfbench.run import tail  # noqa: E402
from perfbench.workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", "2",
        "--trace", str(trace), "--smoke",
    ]
    return subprocess.run(
        [sys.executable if c == "python3" else c for c in cmd],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def parse(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    stamp = json.loads(lines[-2].removeprefix("# "))
    return stamp, json.loads(lines[-1])


def check_printed(result: dict, spec_metrics: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    for m in spec_metrics:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_spec_matches_code():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("measure", ["hausdorff", "frechet", "dtw"])
def test_oracle_matches_brute_force_topk(measure):
    rng = np.random.default_rng(0)
    trajs = [rng.random((int(n), 2)) for n in rng.integers(1, 40, 300)]
    trajs.append(trajs[5].copy())  # a tie, broken by tid
    tids = np.arange(len(trajs)) * 7
    bf = BruteForce(tids, trajs, measure)
    for q in (trajs[5], rng.random((1, 2)), rng.random((25, 2)) + 0.5):
        want = brute_force_topk(list(zip(tids.tolist(), trajs)), q, 10, measure=measure)
        assert bf.topk(q, 10) == want


def test_tail_has_ten_samples_beyond():
    lat = [float(i) for i in range(1, 41)]
    assert tail(lat) == (30.0, 75.0)
    assert tail(lat[:10]) == (10.0, 100.0)


def test_end_to_end_prints_every_metric():
    stamp, result = parse(run_bench(SPEC["workloads"][0]["name"], 0))
    check_printed(result, SPEC["end_to_end"])
    assert stamp["samples"] + 1 == result["attempted"]  # + the warm-up query
    for name in ("nproc", "master", "python", "pyspark", "numpy"):
        assert stamp["host"][name]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counters_consistent(workload):
    stamp, result = parse(run_bench(workload, 1))
    check_printed(result, SPEC["per_layer"])
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert m["search.pushed"] >= m["search.nodes_expanded"]
    largest_partition = m["partition.skew"] * stamp["trajectories"] / stamp["partitions"]
    if largest_partition >= stamp["k"]:
        assert m["search.exact_computed"] >= stamp["k"]
    assert m["rptrie.nodes"] > 0 and m["rptrie.pickled_bytes"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
