"""Measure a workload and turn its samples into the suite's metrics.

A benchmark run is :data:`PROCESSES` processes run one after another,
each setting the workload up once and running an equal share of the
timed loop (:func:`run_part`); their raw samples are pooled
(:func:`pool`) before any median is taken.  Where the interpreter and
the arrays land in memory differs from process to process and moves one
process's latencies together by several percent, so a run spread over
several processes reads steadier than one long process.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
from collections import Counter

from .layers import LAYER_NAMES
from .workloads import (
    END_TO_END,
    KEY,
    SYSTEMS,
    TRACED_LAYERS,
    WORKLOADS,
    Run,
    ledger_keys,
    per_layer_metrics,
)

PROCESSES = 5


def host_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _sample_key(system: str, kind: str, traced: bool) -> str:
    return f"{system}|{kind}|{int(traced)}"


def run_part(workload: str, *, seed: int, seconds: float, trace: bool,
             scale: float = 1.0, part: int = 0) -> dict:
    """One process's share of a run, as JSON-ready raw data."""
    run = Run(seed=seed, seconds=seconds, scale=scale, trace=trace, part=part)
    wl = WORKLOADS[workload](run)
    state = run.set_up(wl)
    try:
        run.loop(wl, state)
    finally:
        wl.teardown(state)
    data = {
        "trace": trace,
        "samples": {_sample_key(*k): v for k, v in run.samples.items() if v},
        "model_s": dict(run.model_s),
        "ledgers": dict(run.ledgers),
        "setup_s": run.setup_s,
        "attempted": run.attempted,
        "failed": run.failed,
        "busy_s": run.busy_s,
        "loop_ops": run.loop_ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        tracer = run.tracer
        data["self_s"] = {f"{s}|{layer}": v for (s, layer), v in tracer.self_s.items()}
        data["unattributed_s"] = dict(tracer.unattributed_s)
        data["wall_s"] = dict(tracer.wall_s)
        data["ops"] = dict(tracer.ops)
        data["plans"] = {s: dict(c) for s, c in tracer.plans.items()}
    return data


def pool(parts: list[dict]) -> dict:
    """Pool the raw data of a run's processes: lists concatenate, sums add."""
    out: dict = {"trace": parts[0]["trace"], "peak_rss_mb": 0.0}
    for part in parts:
        for key, value in part.items():
            if key == "trace":
                continue
            if key == "peak_rss_mb":
                out[key] = max(out[key], value)
            elif isinstance(value, list):
                out.setdefault(key, []).extend(value)
            elif isinstance(value, dict):
                merged = out.setdefault(key, {})
                for k, v in value.items():
                    if isinstance(v, list):
                        merged.setdefault(k, []).extend(v)
                    elif isinstance(v, dict):
                        merged[k] = dict(Counter(merged.get(k, {})) + Counter(v))
                    else:
                        merged[k] = merged.get(k, 0) + v
            else:
                out[key] = out.get(key, 0) + value
    return out


def samples(data: dict, system: str, kind: str, traced: bool = False) -> list:
    return data["samples"].get(_sample_key(system, kind, traced), [])


def _median(values) -> float:
    return statistics.median(values) if values else float("nan")


def _quartiles(values) -> tuple:
    if len(values) < 2:
        return (_median(values),) * 2
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _ratio(num: float, den: float) -> float:
    return num / den if den else float("nan")


def end_to_end(data: dict, workload: str) -> dict:
    metrics = {"setup_s": _median(data["setup_s"])}
    for system in SYSTEMS:
        metrics[f"{KEY[system]}_join_ms"] = 1000 * _median(samples(data, system, "join"))
    medians = [_median(samples(data, system, kind)) for system in SYSTEMS
               for kind in WORKLOADS[workload].latency_kinds]
    metrics["latency_gmean_ms"] = 1000 * (
        statistics.geometric_mean(medians) if all(m > 0 for m in medians)
        else float("nan"))
    metrics["ops_per_s"] = _ratio(data["loop_ops"], data["busy_s"])
    metrics["peak_rss_mb"] = data["peak_rss_mb"]
    return metrics


def per_layer(data: dict) -> dict:
    metrics = {}
    for system in SYSTEMS:
        key, ops = KEY[system], data["ops"][system]
        for layer in TRACED_LAYERS[system]:
            self_s = data["self_s"].get(f"{system}|{layer}", 0.0)
            metrics[f"{key}.{layer}.self_ms"] = 1000 * self_s / ops
        metrics[f"{key}.unattributed_ms"] = 1000 * data["unattributed_s"][system] / ops
        metrics[f"{key}.costmodel.model_s"] = _median(data["model_s"].get(system, []))
        rows = data["ledgers"].get(system, [])
        for name in ledger_keys(system):
            metrics[f"{key}.{name}"] = (
                statistics.fmean(r[name] for r in rows) if rows else float("nan"))
    counts = Counter()
    for k, v in data["samples"].items():
        counts[k.split("|")[1]] += len(v)
    metrics["service.cache.hit_ratio"] = _ratio(counts["hit"], counts["hit"] + counts["join"])
    traced = sum(_median(samples(data, s, "join", True)) for s in SYSTEMS)
    untraced = sum(_median(samples(data, s, "join", False)) for s in SYSTEMS)
    metrics["trace_overhead"] = traced / untraced - 1
    return metrics


def result(data: dict, workload: str) -> dict:
    """The final JSON object of a run of *workload*."""
    values = per_layer(data) if data["trace"] else end_to_end(data, workload)
    units = per_layer_metrics() if data["trace"] else END_TO_END
    return {
        "correct": data["failed"] == 0,
        "attempted": data["attempted"],
        "failed": data["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units},
    }


def report_lines(data: dict, facts_start: dict, facts_end: dict) -> list[str]:
    """The human-readable part of the output."""
    lines = [
        f"host nproc={facts_start['nproc']} affinity={facts_start['affinity']} "
        f"load={facts_start['loadavg'][0]:.2f}->{facts_end['loadavg'][0]:.2f} "
        f"python={facts_start['python']} numpy={facts_start['numpy']}",
        "setup_s samples: " + ", ".join(f"{v:.4f}" for v in data["setup_s"]),
    ]
    kinds = sorted({k.split("|")[1] for k in data["samples"]})
    for traced in ((False, True) if data["trace"] else (False,)):
        for system in SYSTEMS:
            for kind in kinds:
                values = samples(data, system, kind, traced)
                if not values:
                    continue
                q1, q3 = _quartiles(values)
                text = (f"{KEY[system]} {kind}{' traced' if traced else ''}: "
                        f"n={len(values)} median={1000 * _median(values):.3f} ms "
                        f"q1={1000 * q1:.3f} q3={1000 * q3:.3f}")
                if len(values) >= 100:  # ten samples beyond the p90
                    p90 = statistics.quantiles(values, n=10)[-1]
                    text += f" p90={1000 * p90:.3f}"
                lines.append(text)
    lines.append("cost model seconds per join (median): " + " ".join(
        f"{KEY[s]}={_median(data['model_s'].get(s, [])):.4f}" for s in SYSTEMS))
    if data["trace"]:
        lines.append("layer self time per operation (ms), traced rounds:")
        for system in SYSTEMS:
            ops, wall = data["ops"][system], data["wall_s"][system]
            parts = [
                f"{layer}={1000 * data['self_s'][f'{system}|{layer}'] / ops:.3f}"
                for layer in LAYER_NAMES if data["self_s"].get(f"{system}|{layer}")
            ]
            share = data["unattributed_s"][system] / wall
            lines.append(f"  {KEY[system]} ops={ops} wall/op="
                         f"{1000 * wall / ops:.3f} " + " ".join(parts)
                         + f" unattributed={100 * share:.2f}%")
            for plan, count in sorted(data["plans"].get(system, {}).items()):
                lines.append(f"    plan x{count}: {plan}")
    return lines
