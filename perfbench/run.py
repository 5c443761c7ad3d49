"""Benchmark for sphex: one workload from one seed, timed, checked, one JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid_campaigns --seed 1 --seconds 20 --trace 0

A run measures set-up (fresh-interpreter imports plus input generation,
median of several), then runs timed passes of the workload in this process
as a closed loop with one caller until ``--seconds`` is used up (always at
least one pass; with ``--trace 1`` passes alternate traced and untraced,
starting traced).  It then checks every output, prints each metric with its
unit, writes a full record to ``perfbench/_results/``, and prints as its
last line ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
exit code is 1 when a correctness check fails.  ``--size smoke`` shrinks
every workload for the benchmark's own tests.
"""

from __future__ import annotations

import os

# BLAS pools read these when numpy loads, so pin them before any import of it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import hashlib
import importlib
import json
import logging
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = {"full": 3, "smoke": 1}
IMPORT_ALL = ("import importlib, pkgutil, sphex\n"
              "for m in pkgutil.iter_modules(sphex.__path__):\n"
              "    importlib.import_module('sphex.' + m.name)\n")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    return parser.parse_args(argv)


def import_sphex() -> None:
    import pkgutil

    import sphex

    for mod in pkgutil.iter_modules(sphex.__path__):
        importlib.import_module(f"sphex.{mod.name}")


def measure_setup(workload, seed: int, workdir: Path, repeats: int) -> list[float]:
    """Fresh-interpreter import of every sphex module plus input generation."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(repeats):
        target = workdir / f"setup-{i}"
        target.mkdir()
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_ALL], env=env, check=True,
                       timeout=120)
        workload.make_inputs(seed, target)
        times.append(perf_counter() - t0)
    return times


def blas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports, asked through its own API."""
    found = {}
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[Path(path).name] = fn()
                    break
    return found


def _proc_field(path: str, key: str) -> str | None:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment() -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "sphex").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    mem = _proc_field("/proc/meminfo", "MemTotal")
    return {
        "git_sha": git_sha,
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "mem_total_mb": int(mem.split()[0]) // 1024 if mem else None,
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "platform": platform.platform(),
    }


def timed_phase(workload, inputs, workdir: Path, seconds: float, trace: bool):
    """Passes until the next one would overrun ``seconds``.

    Returns the passes, the per-layer metrics of each traced pass and the
    span breakdown of the first traced pass.
    """
    import layers
    from spans import Tracer

    tracer = Tracer()
    passes, traced_metrics, first_breakdown = [], [], None
    start = perf_counter()
    index = 0
    while True:
        traced = trace and index % 2 == 0
        outdir = workdir / f"pass-{index}"
        outdir.mkdir()
        if traced:
            tracer.reset()
            tracer.install()
        try:
            result = workload.run_pass(inputs, index, outdir)
        finally:
            tracer.uninstall()
        if traced:
            traced_metrics.append(layers.pass_metrics(tracer.spans))
            first_breakdown = first_breakdown or layers.breakdown(tracer.spans)
        passes.append((result, traced))
        index += 1
        ops = sum(len(r.op_ms) for r, _ in passes)
        enough = index >= (2 if trace else 1) and ops >= workload.min_ops
        typical = statistics.median(r.seconds for r, _ in passes)
        if enough and perf_counter() - start + typical > seconds:
            return passes, traced_metrics, first_breakdown


def end_to_end(setup_times, untraced, peak_rss_mb: float) -> dict[str, float]:
    """End-to-end metrics from the untraced (pass, assessment) pairs."""
    op_ms = [ms for r, _ in untraced for ms in r.op_ms]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(r.seconds for r, _ in untraced),
        "replicates_per_s": (sum(a.attempted for _, a in untraced)
                             / sum(r.seconds for r, _ in untraced)),
        "op_ms_p50": float(np.percentile(op_ms, 50)),
        "op_ms_p90": float(np.percentile(op_ms, 90)),
        "peak_rss_mb": peak_rss_mb,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sphex" / "__init__.py").is_file():
        print(f"error: no sphex sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s %(message)s")

    import checks
    import layers
    import workloads

    catalogue = workloads.build(args.size)
    if args.workload not in catalogue:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(catalogue)}",
              file=sys.stderr)
        return 2
    workload = catalogue[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    workdir = BENCH / "_work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup_times = measure_setup(workload, args.seed, workdir, SETUP_REPEATS[args.size])
        inputs_dir = workdir / "inputs"
        inputs_dir.mkdir()
        inputs = workload.make_inputs(args.seed, inputs_dir)
        import_sphex()
        env = environment()
        passes, traced_metrics, spans_breakdown = timed_phase(
            workload, inputs, workdir, args.seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        assessed = [(r, t, workload.assess(inputs, r, workload.repeats_inputs or r.index == 0))
                    for r, t in passes]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [(r, a) for r, t, a in assessed if not t]
    e2e = end_to_end(setup_times, untraced, peak_rss_mb)
    per_layer = None
    if args.trace:
        traced_wall = statistics.median(r.seconds for r, t, _ in assessed if t)
        overhead = (traced_wall - e2e["wall_s"]) / e2e["wall_s"]
        per_layer = layers.combine(traced_metrics, overhead)
    attempted = sum(a.attempted for _, _, a in assessed)
    failed = sum(a.failed for _, _, a in assessed)
    problems = [f"pass {r.index}: {p}" for r, _, a in assessed for p in a.problems]
    first = assessed[0][2]
    # inputs that repeat must give byte-identical outputs and identical counts
    repeats = {}
    if workload.repeats_inputs:
        repeats["digests"] = all(a.digests == first.digests for _, _, a in assessed)
        if len(traced_metrics) > 1:
            repeats["count_mismatches"] = layers.count_mismatches(traced_metrics)
    counters = {"replicates": first.attempted, "failed": first.failed}
    if per_layer is not None:
        counters.update({k: v for k, v in per_layer.items()
                         if layers.PER_LAYER[k][1] == "count"})

    shown = per_layer if args.trace else e2e
    units = ({k: layers.PER_LAYER[k][0] for k in shown} if args.trace
             else layers.END_TO_END)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "environment": env,
        "setup_s_samples": setup_times,
        "passes": [{"index": r.index, "traced": t, "seconds": r.seconds,
                    "operations": len(r.op_ms), "op_ms": r.op_ms, "attempted": a.attempted,
                    "failed": a.failed, "notes": r.notes} for r, t, a in assessed],
        "end_to_end": e2e, "per_layer": per_layer, "span_breakdown": spans_breakdown,
        "failed_frac": failed / attempted,
        "counters": counters,
        "digests": first.digests,
        "outputs_sha256": checks.combined_digest(first.digests),
        "repeats": repeats,
        "problems": problems,
    }
    results = BENCH / "_results"
    results.mkdir(exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} size {args.size}")
    print("environment " + json.dumps(env, sort_keys=True))
    for entry in record["passes"]:
        print(f"pass {entry['index']} {'traced' if entry['traced'] else 'untraced'} "
              f"{entry['seconds']:.3f} s, {entry['operations']} operations, "
              f"{entry['failed']}/{entry['attempted']} units failed")
    for name, value in shown.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {record['failed_frac']:.6g} ({failed}/{attempted} units)")
    print("counters " + json.dumps(counters, sort_keys=True))
    print(f"outputs_sha256 {record['outputs_sha256']} over {len(first.digests)} files")
    if repeats:
        print("repeats " + json.dumps(repeats, sort_keys=True))
    for problem in problems:
        print(f"problem {problem}")
    correct = not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in shown.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
