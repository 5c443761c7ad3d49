"""The benchmark's metrics: end-to-end names, and per-layer metrics from spans.

Each metric is one of three sorts, which decides how passes combine:
``count`` values are deterministic for a seed and are taken from the first
traced pass (run.py checks that later passes repeat them); ``time`` values
are medians over traced passes; ``latency`` values pool the matching calls
of every traced pass before taking the percentile.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from spans import self_times

# name -> unit; measured on untraced passes
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "replicates_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

HARNESS_KINDS = ("variance_scaling", "kol_decay", "supnorm", "epc", "critical_density")

# name -> (unit, sort)
PER_LAYER: dict[str, tuple[str, str]] = {
    "harmonics.evaluate_grid.calls": ("count", "count"),
    "harmonics.evaluate_grid.self_s": ("s", "time"),
    "harmonics.evaluate_grid.points": ("count", "count"),
    "harmonics.evaluate_grid.l64.ms_p50": ("ms", "latency"),
    "harmonics.evaluate_grid.l256.ms_p50": ("ms", "latency"),
    "harmonics.evaluate.calls": ("count", "count"),
    "harmonics.evaluate.self_s": ("s", "time"),
    "harmonics.evaluate.points": ("count", "count"),
    "harmonics.sample_gaussian.self_s": ("s", "time"),
    "harmonics.stream.self_s": ("s", "time"),
    "harmonics.GramSimulator.init.l8.self_s": ("s", "time"),
    "harmonics.GramSimulator.init.l8.points": ("count", "count"),
    "harmonics.GramSimulator.init.l16.self_s": ("s", "time"),
    "harmonics.GramSimulator.init.l16.points": ("count", "count"),
    "harmonics.GramSimulator.sample.self_s": ("s", "time"),
    "specfun.gegenbauer.calls": ("count", "count"),
    "specfun.gegenbauer.self_s": ("s", "time"),
    "specfun.gegenbauer.evals": ("count", "count"),
    "sphere_geom.iso_latitude_grid.calls": ("count", "count"),
    "sphere_geom.iso_latitude_grid.self_s": ("s", "time"),
    "sphere_geom.quasi_uniform_grid.self_s": ("s", "time"),
    "sphere_geom.icosphere.self_s": ("s", "time"),
    "excursion.find_critical_points.calls": ("count", "count"),
    "excursion.find_critical_points.self_s": ("s", "time"),
    "excursion.find_critical_points.l16.ms_p50": ("ms", "latency"),
    "excursion.find_critical_points.l16.ms_p90": ("ms", "latency"),
    "excursion.find_critical_points.l24.ms_p50": ("ms", "latency"),
    "excursion.find_critical_points.l24.ms_p90": ("ms", "latency"),
    "excursion.find_critical_points.rotation_attempts": ("count", "count"),
    "excursion.find_critical_points.degenerate": ("count", "count"),
    "excursion.find_critical_points.points_found": ("count", "count"),
    "excursion.find_critical_points.seed_yield": ("ratio", "count"),
    "excursion.sup_norm.self_s": ("s", "time"),
    "excursion.kolmogorov_distance.self_s": ("s", "time"),
    "excursion.excursion_volume.self_s": ("s", "time"),
    "excursion.euler_characteristic_mesh.self_s": ("s", "time"),
    "excursion.euler_characteristic_morse.self_s": ("s", "time"),
    "theory.calls": ("count", "count"),
    "theory.self_s": ("s", "time"),
    **{f"harness.{kind}.wall_s": ("s", "time") for kind in HARNESS_KINDS},
    "harness.mesh_agreement.wall_s": ("s", "time"),
    "harness.self_s": ("s", "time"),
    "harness.write.self_s": ("s", "time"),
    "harness.write.bytes": ("count", "count"),
    "cli.main.calls": ("count", "count"),
    "cli.main.self_s": ("s", "time"),
    "replicates": ("count", "count"),
    "trace_overhead_frac": ("ratio", "time"),
}

# latency metric -> (span name, ell, percentile)
LATENCY = {
    "harmonics.evaluate_grid.l64.ms_p50": ("harmonics.evaluate_grid", 64, 50),
    "harmonics.evaluate_grid.l256.ms_p50": ("harmonics.evaluate_grid", 256, 50),
    "excursion.find_critical_points.l16.ms_p50": ("excursion.find_critical_points", 16, 50),
    "excursion.find_critical_points.l16.ms_p90": ("excursion.find_critical_points", 16, 90),
    "excursion.find_critical_points.l24.ms_p50": ("excursion.find_critical_points", 24, 50),
    "excursion.find_critical_points.l24.ms_p90": ("excursion.find_critical_points", 24, 90),
}

# harness spans whose self time is the harness layer's own work
_HARNESS_OWN = {"harness.run_config_file", "harness.run_experiment",
                "harness.mesh_agreement"}


def pass_metrics(spans: list[list]) -> tuple[dict, dict]:
    """Count and time metrics of one pass, plus latency samples (ms) per key."""
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    attrs: dict[str, int] = defaultdict(int)
    latency: dict[tuple[str, int], list[float]] = defaultdict(list)
    out: dict[str, float] = defaultdict(float)
    for (name, start, end, parent, info), own in zip(spans, selfs):
        dur = end - start
        calls[name] += 1
        self_s[name] += own
        info = info or {}
        for key, value in info.items():
            if key not in ("ell", "kind"):
                attrs[f"{name}.{key}"] += value
        if "ell" in info:
            latency[(name, info["ell"])].append(dur * 1e3)
        if name == "harmonics.GramSimulator.init":
            out[f"{name}.l{info['ell']}.self_s"] += own
            out[f"{name}.l{info['ell']}.points"] += info["points"]
        elif name == "harness.run_experiment":
            out[f"harness.{info['kind']}.wall_s"] += dur
        elif name == "harness.mesh_agreement":
            out["harness.mesh_agreement.wall_s"] += dur
        if name.startswith("theory."):
            out["theory.self_s"] += own
            if parent < 0 or not spans[parent][0].startswith("theory."):
                out["theory.calls"] += 1
        if name in _HARNESS_OWN:
            out["harness.self_s"] += own

    for metric, (unit, sort) in PER_LAYER.items():
        if sort == "latency" or metric in out:
            continue
        span, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = calls.get(span, 0)
        elif field == "self_s":
            out[metric] = self_s.get(span, 0.0)
        elif field in ("points", "evals", "bytes"):
            out[metric] = attrs.get(metric, 0)
    fcp = "excursion.find_critical_points"
    out[f"{fcp}.rotation_attempts"] = attrs.get(f"{fcp}.attempts", 0)
    out[f"{fcp}.points_found"] = attrs.get(f"{fcp}.points", 0)
    out[f"{fcp}.degenerate"] = attrs.get(f"{fcp}.degenerate", 0)
    seeds = attrs.get(f"{fcp}.seeds", 0)
    out[f"{fcp}.seed_yield"] = out[f"{fcp}.points_found"] / seeds if seeds else 0.0
    out["replicates"] = (attrs.get("harmonics.sample_gaussian.replicates", 0)
                         + attrs.get("harmonics.GramSimulator.sample.replicates", 0))
    return dict(out), dict(latency)


def combine(traced: list[tuple[dict, dict]], overhead: float) -> dict[str, float]:
    """Per-layer metrics of a run from its traced passes."""
    first = traced[0][0]
    pooled: dict[tuple[str, int], list[float]] = defaultdict(list)
    for _, samples in traced:
        for key, values in samples.items():
            pooled[key].extend(values)
    out: dict[str, float] = {}
    for metric, (unit, sort) in PER_LAYER.items():
        if metric == "trace_overhead_frac":
            out[metric] = overhead
        elif sort == "count":
            value = first.get(metric, 0)
            out[metric] = int(value) if unit == "count" else value
        elif sort == "time":
            out[metric] = float(np.median([m.get(metric, 0.0) for m, _ in traced]))
        else:
            span, ell, pct = LATENCY[metric]
            values = pooled.get((span, ell))
            out[metric] = float(np.percentile(values, pct)) if values else 0.0
    return out


def breakdown(spans: list[list]) -> dict[str, dict]:
    """Calls, seconds and summed attributes per span name and degree, for the record."""
    out: dict[str, dict] = {}
    for (name, start, end, _, info), own in zip(spans, self_times(spans)):
        info = info or {}
        ell = info.get("ell")
        entry = out.setdefault(name if ell is None else f"{name}@l{ell}",
                               {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own
        for key, value in info.items():
            if key not in ("ell", "kind"):
                entry[key] = entry.get(key, 0) + value
    return out


def count_mismatches(traced: list[tuple[dict, dict]]) -> list[str]:
    """Count metrics that differ between traced passes of one run."""
    first = traced[0][0]
    return sorted(
        metric for metric, (_, sort) in PER_LAYER.items()
        if sort == "count" and any(m.get(metric, 0) != first.get(metric, 0)
                                   for m, _ in traced[1:])
    )
