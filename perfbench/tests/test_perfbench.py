"""The benchmark's own tests, at smoke size.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
Each workload runs as a subprocess of ``perfbench/run.py --size smoke``:
untraced, traced twice with the same seed, and untraced with another seed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("grid_campaigns", "critical_campaigns", "solid_d3", "oneshot")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, trace: int) -> tuple[int, dict, dict]:
    """(exit code, contract line, full record) of one smoke run."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    tag = f"{workload}-seed{seed}-trace{trace}-smoke"
    record = json.loads((BENCH / "_results" / f"{tag}.json").read_text())
    return proc.returncode, line, record


def test_spec_names_match_the_benchmark():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(layers.END_TO_END)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == layers.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (unit, _) in layers.PER_LAYER.items()}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert list(workloads.build("full")) == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload):
    rc, line, plain = bench(workload, 5, 0)
    assert rc == 0 and line["correct"], plain["problems"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1
    assert list(line["metrics"]) == list(layers.END_TO_END)
    assert all(m["value"] > 0 for m in line["metrics"].values())

    # tracing changes neither the outputs nor, between runs, the counts
    rc, traced_line, traced = bench(workload, 5, 1)
    assert rc == 0 and traced_line["correct"], traced["problems"]
    assert list(traced_line["metrics"]) == list(layers.PER_LAYER)
    assert traced["digests"] == plain["digests"]
    _, _, again = bench(workload, 5, 1)
    assert again["counters"] == traced["counters"]
    assert again["digests"] == traced["digests"]

    # another seed: other inputs, same metric names
    rc, other_line, other = bench(workload, 6, 0)
    assert rc == 0 and other_line["correct"], other["problems"]
    assert list(other_line["metrics"]) == list(line["metrics"])
    assert other["outputs_sha256"] != plain["outputs_sha256"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs(workload, tmp_path):
    spec = workloads.build("smoke")[workload]
    made = []
    for seed in (1, 2):
        target = tmp_path / str(seed)
        target.mkdir()
        spec.make_inputs(seed, target)
        made.append({p.name: p.read_text() for p in target.iterdir()})
    assert made[0].keys() == made[1].keys()
    assert made[0] != made[1]


def run_pass(workload: str, tmp_path: Path, seed: int = 3):
    spec = workloads.build("smoke")[workload]
    inputs = spec.make_inputs(seed, tmp_path)
    outdir = tmp_path / "pass-0"
    outdir.mkdir()
    result = spec.run_pass(inputs, 0, outdir)
    assert spec.assess(inputs, result, True).problems == []
    return spec, inputs, result


def rewrite_csv(path: Path, change) -> None:
    rows = checks.read_rows(path)
    change(rows)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(rows[0]) + "\n")
        for row in rows:
            fh.write(",".join(row.values()) + "\n")


def test_check_rejects_estimate_off_its_limit(tmp_path):
    spec, inputs, result = run_pass("grid_campaigns", tmp_path)

    def perturb(rows):
        row = next(r for r in rows if r["kind"] == "variance_scaling_mean")
        row["estimate"] = repr(float(row["theory"]) + 0.5)

    rewrite_csv(result.outdir / "variance_scaling.csv", perturb)
    assessment = spec.assess(inputs, result, True)
    assert any("variance_scaling_mean" in p for p in assessment.problems)
    assert assessment.failed == spec.sections[0].replicates


def test_check_rejects_d3_estimates_that_do_not_decrease(tmp_path):
    spec, inputs, result = run_pass("solid_d3", tmp_path)

    def perturb(rows):
        means = [r for r in rows if r["kind"] == "kol_decay"]
        means[0]["estimate"], means[-1]["estimate"] = (
            means[-1]["estimate"], means[0]["estimate"])

    rewrite_csv(result.outdir / "kol_decay.csv", perturb)
    problems = spec.assess(inputs, result, True).problems
    assert any("does not fall below" in p for p in problems)


def test_check_rejects_mesh_agreement_below_gate(tmp_path):
    spec, inputs, result = run_pass("critical_campaigns", tmp_path)
    path = result.outdir / "mesh_agreement.json"
    mesh = checks.load_json(path)
    mesh["agreement"] = 0.5
    path.write_text(json.dumps(mesh))
    assert any("mesh_agreement" in p for p in spec.assess(inputs, result, True).problems)


def test_check_rejects_changed_oneshot_output(tmp_path):
    spec, inputs, result = run_pass("oneshot", tmp_path)
    ops = inputs["blocks"][0]
    i = next(k for k, op in enumerate(ops) if op["kind"] == "supnorm")
    path = result.outdir / f"op{i:03d}.out"
    value = float(path.read_text())
    path.write_text(f"{value * (1 + 1e-9):.12g}\n")
    problems = spec.assess(inputs, result, True).problems
    assert problems == [f"op{i:03d} supnorm ell={ops[i]['ell']} seed={ops[i]['field_seed']}: "
                        "output differs from the library call"]


def test_missing_sources_fail_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oneshot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
