"""The benchmark's four workloads.

Each workload makes its inputs from the workload seed, runs one timed pass
through sphex's public entry points (``sphex.cli.main`` in process and
``sphex.harness.mesh_agreement``), and assesses the files a pass wrote:
units attempted, units failed, correctness problems and output digests.
README.md says why each workload exists and what it should not move.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import checks


@dataclass
class PassResult:
    index: int
    seconds: float
    op_ms: list[float]
    outdir: Path
    notes: list[str] = field(default_factory=list)
    exit_codes: list[int] = field(default_factory=list)


@dataclass
class Assessment:
    attempted: int
    failed: int
    problems: list[str]
    digests: dict[str, str]


def derived_seeds(seed: int, count: int) -> list[int]:
    state = np.random.SeedSequence(seed).generate_state(count, np.uint64)
    return [int(s % 2**31) for s in state]


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run ``sphex.cli.main`` in process, capturing its stdout and stderr.

    The module attribute is looked up on every call so a traced pass goes
    through the rebound name.
    """
    from sphex import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# campaign workloads: one `experiment run`, optionally one mesh_agreement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Section:
    kind: str
    keys: dict

    @property
    def replicates(self) -> int:
        return self.keys["replicates"] * len(self.keys["ell_list"])


def _ini_value(value) -> str:
    if isinstance(value, (list, tuple)):
        return ",".join(_ini_value(v) for v in value)
    return format(value, "g") if isinstance(value, float) else str(value)


class Campaign:
    """``sphex experiment run`` on a multi-section config, plus mesh agreement."""

    repeats_inputs = True
    min_ops = 1

    def __init__(self, name: str, sections: list[Section], mesh: dict | None = None):
        self.name = name
        self.sections = sections
        self.mesh = mesh

    def units(self) -> int:
        return sum(s.replicates for s in self.sections) + (
            self.mesh["samples"] if self.mesh else 0)

    def make_inputs(self, seed: int, workdir: Path) -> dict:
        seeds = derived_seeds(seed, len(self.sections) + 1)
        lines = []
        for section, sec_seed in zip(self.sections, seeds):
            lines.append(f"[{section.kind}]")
            for key, value in {**section.keys, "seed": sec_seed}.items():
                lines.append(f"{key} = {_ini_value(value)}")
            lines.append("")
        config = workdir / "campaign.ini"
        config.write_text("\n".join(lines))
        inputs = {"config": config}
        if self.mesh:
            inputs["mesh"] = {**self.mesh, "seed": seeds[-1]}
        return inputs

    def run_pass(self, inputs: dict, index: int, outdir: Path) -> PassResult:
        from sphex import harness

        notes = []
        t0 = perf_counter()
        rc, _, err = call_cli(["experiment", "run", str(inputs["config"]),
                               "--out", str(outdir)])
        t1 = perf_counter()
        op_ms = [(t1 - t0) * 1e3]
        if rc != 0:
            notes.append(f"experiment run exited {rc}: {err.strip()}")
        mesh_result = None
        if self.mesh:
            args = inputs["mesh"]
            t1 = perf_counter()
            try:
                mesh_result = harness.mesh_agreement(
                    args["ell"], tuple(args["u_list"]), samples=args["samples"],
                    subdivision=args["subdivision"], seed=args["seed"])
            except Exception as exc:  # counted as failed units, reported below
                notes.append(f"mesh_agreement raised {type(exc).__name__}: {exc}")
            op_ms.append((perf_counter() - t1) * 1e3)
        seconds = perf_counter() - t0
        if mesh_result is not None:
            with open(outdir / "mesh_agreement.json", "w") as fh:
                json.dump(mesh_result, fh, indent=2, sort_keys=True)
                fh.write("\n")
        return PassResult(index, seconds, op_ms, outdir, notes)

    def assess(self, inputs: dict, result: PassResult, full: bool) -> Assessment:
        outdir = result.outdir
        failed = 0
        problems: list[str] = []
        for section in self.sections:
            kind = section.kind
            path = outdir / f"{kind}.csv"
            if not path.exists():
                failed += section.replicates
                problems.append(f"{kind}: no output ({'; '.join(result.notes)})")
                continue
            rows = checks.read_rows(path)
            found = checks.theory_problems(kind, rows)
            if kind == "epc":
                n_fail = checks.load_json(outdir / "epc.json")["constants"]["exact_check_failures"]
                if n_fail != 0:
                    found.append(f"epc: exact_check_failures = {n_fail}, expected 0")
            if kind == "critical_density":
                found += checks.morse_identity_problems(rows)
            if kind == "kol_decay" and section.keys.get("dim", 2) == 3:
                found += checks.decreasing_problems("kol_decay", rows)
            problems += found
            failed += section.replicates if found else checks.degenerate_count(rows)
        if self.mesh:
            samples = self.mesh["samples"]
            path = outdir / "mesh_agreement.json"
            if not path.exists():
                failed += samples
                problems.append(f"mesh_agreement: no result ({'; '.join(result.notes)})")
            else:
                mesh = checks.load_json(path)
                if mesh["agreement"] < checks.MESH_AGREEMENT_GATE:
                    failed += samples
                    problems.append(f"mesh_agreement: agreement {mesh['agreement']:.4f} "
                                    f"below {checks.MESH_AGREEMENT_GATE}")
                else:
                    failed += mesh["degenerate"]
        return Assessment(self.units(), failed, problems, checks.digests(outdir))


# ---------------------------------------------------------------------------
# oneshot: sample a fresh field, then one measurement on it, per operation
# ---------------------------------------------------------------------------

THEORY_BOUNDS = (
    ("kol-rate", lambda ell: {"ell": ell, "dim": 2}),
    ("gkf-epc", lambda ell: {"ell": ell, "u": 0.5}),
    ("epc-var", lambda ell: {"ell": ell, "u": 0.5}),
)
EPC_SUBDIVISION = 5
KOL_DENSITY = 30  # kol grid points per ell^2, distinct from excursion's 20 and supnorm's 40


GOLDEN = (5**0.5 - 1) / 2


def _strata(offsets: np.ndarray, lo: int, hi: int) -> list[int]:
    """One degree per equal-width stratum of [lo, hi], at ``offsets`` within each."""
    count = len(offsets)
    return [int(round(lo + (hi - lo) * (k + u) / count)) for k, u in enumerate(offsets)]


class Oneshot:
    """A stream of single-field CLI operations; pass ``b`` is block ``b``."""

    repeats_inputs = False
    KINDS = ("excursion", "kol", "supnorm", "epc", "theory")
    ELL_LO = 8
    CRITICAL_HI = 16  # the Newton search costs ~0.2 s per field at ell=16

    def __init__(self, name: str, strata: int, critical_strata: int, min_ops: int,
                 ell_hi: int):
        self.name = name
        self.min_ops = min_ops
        self.strata = strata
        self.critical_strata = critical_strata
        self.ell_hi = ell_hi

    def units(self) -> int:
        return len(self.KINDS) * self.strata + self.critical_strata

    def block(self, seed: int, index: int) -> list[dict]:
        """Block ``index``: each stratum's offset is the seed's, moved on by
        ``index`` golden-ratio steps, so the blocks of one run cover every
        stratum evenly and the run's cost barely depends on the seed."""
        base = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        offsets = base.random((len(self.KINDS) + 1, self.strata))
        offsets = (offsets + index * GOLDEN) % 1.0
        seq = np.random.SeedSequence(seed, spawn_key=(index,))
        rng = np.random.Generator(np.random.Philox(seq))
        ops = []
        for kind, u in zip(self.KINDS, offsets):
            for k, ell in enumerate(_strata(u, self.ELL_LO, self.ell_hi)):
                ops.append({"kind": kind, "ell": ell, "stratum": k})
        for k, ell in enumerate(_strata(offsets[-1, :self.critical_strata], self.ELL_LO,
                                        self.CRITICAL_HI)):
            ops.append({"kind": "critical", "ell": ell, "stratum": k})
        field_seeds = rng.integers(0, 2**31, size=len(ops))
        order = rng.permutation(len(ops))
        ops = [dict(ops[i], field_seed=int(field_seeds[i])) for i in order]
        for op in ops:
            op["argv"] = self._argv(op)
        return ops

    @staticmethod
    def _argv(op: dict) -> list[str]:
        ell, kind = op["ell"], op["kind"]
        if kind == "excursion":
            return ["excursion", "--input", "{csv}", "--u=-1,0,1"]
        if kind == "kol":
            return ["kol", "--input", "{csv}", "--grid", str(KOL_DENSITY * ell * ell)]
        if kind == "supnorm":
            return ["supnorm", "--input", "{csv}"]
        if kind == "epc":
            return ["epc", "--input", "{csv}", "--u=0", "--oracle", "mesh",
                    "--subdivision", str(EPC_SUBDIVISION)]
        if kind == "critical":
            return ["critical", "--input", "{csv}"]
        name, kwargs = THEORY_BOUNDS[op["stratum"] % len(THEORY_BOUNDS)]
        args = ",".join(f"{k}={v}" for k, v in kwargs(ell).items())
        return ["theory", name, "--args", args]

    def make_inputs(self, seed: int, workdir: Path) -> dict:
        ops = self.block(seed, 0)
        (workdir / "ops.json").write_text(json.dumps(ops, indent=1))
        return {"seed": seed, "blocks": {0: ops}}

    def run_pass(self, inputs: dict, index: int, outdir: Path) -> PassResult:
        ops = inputs["blocks"].get(index) or self.block(inputs["seed"], index)
        inputs["blocks"][index] = ops
        op_ms, outputs = [], []
        t0 = perf_counter()
        for i, op in enumerate(ops):
            csv_path = str(outdir / f"op{i:03d}.csv")
            start = perf_counter()
            rc, _, err = call_cli(["sample", "--ell", str(op["ell"]), "--d", "2",
                                   "--seed", str(op["field_seed"]), "--out", csv_path])
            out = ""
            if rc == 0:
                argv = [a.replace("{csv}", csv_path) for a in op["argv"]]
                rc, out, err = call_cli(argv)
            op_ms.append((perf_counter() - start) * 1e3)
            outputs.append((rc, out, err))
        seconds = perf_counter() - t0
        for i, (rc, out, err) in enumerate(outputs):
            (outdir / f"op{i:03d}.out").write_bytes(out.encode("utf-8"))
        notes = [f"op{i:03d} exited {rc}: {err.strip()}"
                 for i, (rc, _, err) in enumerate(outputs) if rc != 0]
        return PassResult(index, seconds, op_ms, outdir, notes,
                          [rc for rc, _, _ in outputs])

    def assess(self, inputs: dict, result: PassResult, full: bool) -> Assessment:
        """Exit codes always; with ``full``, every output against the library."""
        ops = inputs["blocks"][result.index]
        failed, problems = 0, []
        for i, (op, rc) in enumerate(zip(ops, result.exit_codes)):
            if rc != 0:
                failed += 1
                problems.append(f"op{i:03d} {op['kind']} ell={op['ell']}: exit {rc}")
                continue
            if not full:
                continue
            outdir = result.outdir
            sample_text = (outdir / f"op{i:03d}.csv").read_bytes().decode("utf-8")
            got = (outdir / f"op{i:03d}.out").read_bytes().decode("utf-8")
            want_sample, want, degenerate = expected_output(op, outdir / f"op{i:03d}.csv")
            where = f"op{i:03d} {op['kind']} ell={op['ell']} seed={op['field_seed']}"
            if sample_text != want_sample:
                failed += 1
                problems.append(f"{where}: sample CSV differs from the library draw")
            elif degenerate:
                failed += 1
            elif got != want:
                failed += 1
                problems.append(f"{where}: output differs from the library call")
            elif op["kind"] == "critical" and checks.morse_count_of_csv(got) != 2:
                failed += 1
                problems.append(f"{where}: non-degenerate set with Morse count "
                                f"{checks.morse_count_of_csv(got)}")
        return Assessment(len(ops), failed, problems, checks.digests(result.outdir))


def expected_output(op: dict, csv_path: Path) -> tuple[str, str, bool]:
    """(sample CSV, stdout, degenerate) that the library gives for an operation."""
    from sphex.cli import fmt12
    from sphex.excursion import (
        euler_characteristic_mesh, excursion_volume, export_critical_points_csv,
        find_critical_points, kolmogorov_distance, sup_norm,
    )
    from sphex.harmonics import (
        FieldSample, NonGaussianModel, coefficients_csv_text, evaluate_grid,
        read_coefficients_csv, sample_nongaussian, stream,
    )
    from sphex.specfun import HarmonicLevel
    from sphex.sphere_geom import icosphere, iso_latitude_grid
    from sphex.theory import evaluate_bound

    ell, kind = op["ell"], op["kind"]
    drawn, _ = sample_nongaussian(NonGaussianModel.parse("gaussian"), HarmonicLevel(ell, 2),
                                  stream(op["field_seed"], 0, "cli.sample"))
    sample = coefficients_csv_text(drawn)
    coeffs = read_coefficients_csv(str(csv_path))
    degenerate = False
    if kind == "excursion":
        field_sample = FieldSample.explicit(coeffs, grid=iso_latitude_grid(20 * ell * ell))
        out = "u,volume\n" + "".join(
            f"{fmt12(u)},{fmt12(excursion_volume(field_sample, u))}\n" for u in (-1.0, 0.0, 1.0))
    elif kind == "kol":
        grid = iso_latitude_grid(KOL_DENSITY * ell * ell)
        out = fmt12(kolmogorov_distance((evaluate_grid(coeffs, grid), grid.weights))) + "\n"
    elif kind == "supnorm":
        out = fmt12(sup_norm(coeffs)[0]) + "\n"
    elif kind == "epc":
        chi = euler_characteristic_mesh(coeffs, icosphere(EPC_SUBDIVISION), 0.0)
        out = f"u,chi\n{fmt12(0.0)},{chi}\n"
    elif kind == "critical":
        cps = find_critical_points(coeffs)
        degenerate = cps.degenerate_flag
        buf = io.StringIO()
        export_critical_points_csv(cps, buf)
        out = buf.getvalue()
    else:
        name, kwargs = THEORY_BOUNDS[op["stratum"] % len(THEORY_BOUNDS)]
        out = fmt12(evaluate_bound(name, **kwargs(ell)).bound_value) + "\n"
    return sample, out, degenerate


# ---------------------------------------------------------------------------
# sizes
# ---------------------------------------------------------------------------


def build(size: str) -> dict:
    """Workloads by name; ``smoke`` shrinks every size for the benchmark's tests."""
    full = size == "full"
    grid = Campaign("grid_campaigns", [
        Section("variance_scaling", {
            "ell_list": [8, 16, 32, 64] if full else [8, 12, 16],
            "u_list": [-1.0, 0.0, 1.0], "replicates": 200 if full else 30}),
        Section("kol_decay", {
            "ell_list": [8, 16, 32, 64, 128] if full else [8, 12, 16],
            "replicates": 30}),
        # no ell=64 here, so every ell=64 evaluate_grid call is on the 20 ell^2 grid
        Section("supnorm", {
            "ell_list": [16, 32, 256] if full else [8, 16], "replicates": 30}),
    ])
    critical = Campaign("critical_campaigns", [
        Section("epc", {"ell_list": [16] if full else [6],
                        "u_list": [-1.0, 0.0, 1.0], "replicates": 30}),
        Section("critical_density", {"ell_list": [24] if full else [10],
                                     "u_list": [-40.0, 0.0, 1.0], "replicates": 30}),
    ], mesh={"ell": 8 if full else 4, "u_list": [-1.0, 0.0, 1.0],
             "samples": 10 if full else 4, "subdivision": 6 if full else 4})
    solid = Campaign("solid_d3", [
        Section("kol_decay", {
            "ell_list": [8, 16] if full else [4, 6], "dim": 3,
            "replicates": 100 if full else 30, "grid_density": 125,
            "grid_cap": 5000 if full else 400}),
    ])
    # 42 operations a pass, so a run spreads its operations over several passes;
    # at full size a run pools at least 100 operations, so ten or more lie beyond p90
    oneshot = Oneshot("oneshot", strata=8 if full else 2, critical_strata=2 if full else 1,
                      min_ops=100 if full else 1, ell_hi=128 if full else 16)
    return {w.name: w for w in (grid, critical, solid, oneshot)}

