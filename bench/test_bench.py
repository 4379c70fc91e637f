"""Self-tests of the benchmark (not part of the package's test suite).

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from circleflow import conditions, files, flow, mesh  # noqa: E402
from circleflow.geometry import Geometry  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CHI = {"torus": 0, "genus2": -2, "sphere": 2}


def generated(workload, tmp_path, seed=0):
    writer = inputs.InputWriter(tmp_path / workload)
    return WORKLOADS[workload].make_inputs(writer, np.random.default_rng(seed), ROOT / "fixtures")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generators_yield_valid_meshes(workload, tmp_path):
    for inp in generated(workload, tmp_path):
        m, metric, _targets = files.parse_mesh(inp.path)
        assert mesh.validate(m) == []
        assert metric.geometry is inp.geometry
        assert m.vertex_count == inp.vertices
        family = next(k for k in CHI if inp.name.startswith(k))
        assert mesh.euler_characteristic(m) == CHI[family], inp.name


def test_generators_repeat_for_a_seed(tmp_path):
    a = generated("check-exist", tmp_path / "a", seed=7)
    b = generated("check-exist", tmp_path / "b", seed=7)
    assert [i.path.read_bytes() for i in a] == [i.path.read_bytes() for i in b]


def test_small_expected_verdicts_match_exhaustive_scan(tmp_path):
    """Oracle: the scan over proper subsets, plus the whole vertex set in
    hyperbolic geometry (target sum must exceed 2*pi*chi)."""
    small = [i for i in generated("check-exist", tmp_path) if i.vertices <= 20]
    assert len(small) == 5
    for inp in small:
        m, _metric, targets = files.parse_mesh(inp.path)
        if targets is None:
            targets = flow.default_targets(m, inp.geometry)
        scan = conditions.check_subset_inequalities(m, targets=targets, subset_cap=m.vertex_count)
        whole_fails = inp.geometry is Geometry.HYPERBOLIC and float(np.sum(targets)) <= (
            2.0 * math.pi * mesh.euler_characteristic(m) + conditions.STRICT_TOL
        )
        verdict = "fails" if scan.status == "fails" or whole_fails else "holds"
        assert verdict == inp.expect, inp.name
        if inp.witness is not None:
            assert frozenset(scan.witness) == inp.witness, inp.name


def test_self_times_sum_to_root_duration(tmp_path):
    ins = generated("check-exist", tmp_path)[:2]  # two solvable tori
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.operation(0, "setup"):
            state = harness.setup(ins)
        for n, inp in enumerate(ins, start=1):
            m, metric, _targets = state[inp.name]
            with tracer.operation(n, inp.name):
                flow.newton_solve(m, metric)
    finally:
        tracer.uninstall()
    own = tracer.self_times()
    for op in range(len(ins) + 1):
        spans = [s for s in tracer.spans if s[0] == op]
        root = [s for s in spans if s[2] is None]
        assert len(root) == 1 and len(spans) > 1
        assert sum(own[s[1]] for s in spans) == root[0][5] - root[0][4]
    # the originals are back after uninstall
    assert flow.curvature_state.__module__ == "circleflow.curvature"
    assert not hasattr(flow.curvature_state, "__wrapped__")


def run_bench(cwd, *args):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", ["flow-euclid", "check-exist"])
def test_traced_counters_repeat_for_a_seed(workload):
    args = ["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1"]
    counters = []
    for _ in range(2):
        proc = run_bench(ROOT, *args)
        assert proc.returncode == 0, proc.stderr
        meta, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
        assert result["correct"] and meta["meta"]["counters_repeat"]
        assert set(result["metrics"]) == set(harness.PER_LAYER) | set(harness.RUN_LEVEL)
        counters.append({k: v["value"] for k, v in result["metrics"].items() if v["unit"] != "s"})
    assert counters[0] == counters[1]


def test_benchmark_json_names_the_reported_metrics():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS) == set(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    expected = {k: v[:2] for k, v in harness.PER_LAYER.items()}
    expected.update(harness.RUN_LEVEL)
    assert per_layer == expected


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "check-exist", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
