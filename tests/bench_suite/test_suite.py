"""Tests of the benchmark suite in ``benchmarks/suite``.

Every workload runs untraced and traced at 5% scale, once per module, as
two pooled in-process parts with a zero-second loop (each part still
runs one round, two when tracing).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.suite import compare, layers, measure, workloads
from repro import spatial_join
from repro.data import census_blocks, taxi_points
from repro.service import SpatialQueryService

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = 0.05


@pytest.fixture(scope="module")
def runs():
    out = {}
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            data = measure.pool([
                measure.run_part(name, seed=1, seconds=0.0, trace=trace,
                                 scale=SCALE, part=part)
                for part in range(2)
            ])
            out[(name, trace)] = (data, measure.result(data, name))
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_operation_matches_the_oracle(runs, name, trace):
    _data, result = runs[(name, trace)]
    assert result["attempted"] > 0
    assert result["failed"] == 0
    assert result["correct"] is True


def test_workloads_match_benchmark_json():
    spec = {w["name"]: w["why"] for w in SPEC["workloads"]}
    assert spec == {name: cls.why for name, cls in workloads.WORKLOADS.items()}


def test_printed_metrics_match_benchmark_json(runs):
    end_to_end = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert end_to_end == workloads.END_TO_END
    assert per_layer == workloads.per_layer_metrics()
    for (_name, trace), (_data, result) in runs.items():
        printed = [(k, v["unit"]) for k, v in result["metrics"].items()]
        assert printed == (per_layer if trace else end_to_end)
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_end_to_end_metrics_are_never_zero(runs):
    for (_name, trace), (_data, result) in runs.items():
        if not trace:
            assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("trace", [False, True])
def test_a_system_that_always_raises_ends_the_run_as_failed(monkeypatch, trace):
    def broken(left, right, *, system, **kwargs):
        if system == "SpatialSpark":
            raise RuntimeError("broken join")
        return spatial_join(left, right, system=system, **kwargs)

    monkeypatch.setattr(workloads, "spatial_join", broken)
    data = measure.run_part("oneshot_polylines", seed=1, seconds=0.0,
                            trace=trace, scale=SCALE)
    result = measure.result(data, "oneshot_polylines")
    # Set-up and the loop's one round (two traced) each issue one join.
    assert result["failed"] == (3 if trace else 2)
    assert result["correct"] is False
    assert result["attempted"] == (9 if trace else 6)
    if not trace:
        metrics = result["metrics"]
        assert math.isnan(metrics["spatialspark_join_ms"]["value"])
        assert math.isnan(metrics["latency_gmean_ms"]["value"])
        assert metrics["hadoopgis_join_ms"]["value"] > 0


def test_layer_self_times_sum_to_traced_wall(runs):
    for (_name, trace), (data, _result) in runs.items():
        if not trace:
            continue
        for system in workloads.SYSTEMS:
            total = sum(data["self_s"].get(f"{system}|{layer}", 0.0)
                        for layer in layers.LAYER_NAMES)
            total += data["unattributed_s"][system]
            assert total == pytest.approx(data["wall_s"][system], rel=0.01)


def _namespaces() -> dict:
    """Identity snapshot of every program module, class and module dict."""
    snap = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "repro" and not mod_name.startswith("repro."):
            continue
        for key, value in vars(module).items():
            snap[(mod_name, key)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for attr, member in vars(value).items():
                    snap[(mod_name, key, attr)] = member
            elif type(value) is dict:
                for k, v in value.items():
                    snap[(mod_name, key, "[]", k)] = v
    return snap


def test_uninstall_restores_every_patched_object():
    tracer = layers.LayerTracer()
    before = _namespaces()
    tracer.install()
    patched = _namespaces()
    tracer.uninstall()
    after = _namespaces()
    assert sum(patched[k] is not before[k] for k in before) >= len(layers.LAYERS)
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    for container, key, original in tracer.sites():
        current = container[key] if type(container) is dict else vars(container)[key]
        assert current is original


def test_tracing_changes_no_pairs_or_ledgers():
    left, right = taxi_points(300, seed=3), census_blocks(30, seed=4)
    tracer = layers.LayerTracer()

    def answers():
        out = []
        for system in workloads.SYSTEMS:
            report = spatial_join(left, right, system=system)
            out.append((report.pairs, dict(report.counters)))
            with SpatialQueryService(cache_entries=0) as svc:
                a = svc.prepare(left, system=system, roles=("a",))
                b = svc.prepare(right, system=system, roles=("b",))
                report = a.join(b)
            out.append((report.pairs, dict(report.counters)))
        return out

    plain = answers()
    with tracer.installed(), tracer.op("all"):
        traced = answers()
    assert traced == plain
    assert tracer.self_s[("all", "refine")] > 0


def test_command_prints_one_result_line():
    proc = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload",
         "oneshot_polylines", "--seed", "2", "--seconds", "0", "--trace", "0",
         "--scale", str(SCALE)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "oneshot_polylines", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == "" or not proc.stdout.strip().endswith("}")


def _doc(seed, value, failed=0):
    return {"workload": "w", "trace": 0, "seed": seed,
            "result": {"failed": failed,
                       "metrics": {"x_ms": {"value": value, "unit": "ms"}}}}


@pytest.mark.parametrize("parent,change,change_failed,expected", [
    ([100 + i % 3 for i in range(10)], [90 + i % 3 for i in range(10)], 0, "improved"),
    ([100 + i % 3 for i in range(10)], [100 + (i + 1) % 3 for i in range(10)], 0, "unchanged"),
    ([100 + i % 3 for i in range(10)], [120 + i % 3 for i in range(10)], 0, "regressed"),
    ([100 + i % 3 for i in range(9)], [50 + i % 3 for i in range(9)], 0, "unresolved"),
    ([100 + 40 * (i % 2) for i in range(10)], [125 + 40 * (i % 2) for i in range(10)], 0, "unresolved"),
    # Faster, but one run of the change failed an operation.
    ([100 + i % 3 for i in range(10)], [50 + i % 3 for i in range(10)], 1, "failed"),
])
def test_compare_verdicts(tmp_path, parent, change, change_failed, expected):
    spec = {"end_to_end": [{"name": "x_ms", "unit": "ms", "better": "lower",
                            "bound": 0.1}], "per_layer": []}
    for side, values in (("parent", parent), ("change", change)):
        (tmp_path / side).mkdir()
        for seed, value in enumerate(values):
            failed = change_failed if side == "change" and seed == 0 else 0
            (tmp_path / side / f"{seed}.json").write_text(
                json.dumps(_doc(seed, value, failed)))
    lines, failing = compare.compare(tmp_path / "parent", tmp_path / "change", spec)
    assert lines[-1].endswith(expected)
    assert failing == (expected in ("failed", "regressed"))
