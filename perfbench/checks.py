"""Correctness checks and digests over the files a pass wrote.

Every check reads the benchmark's own outputs.  A problem is a string
naming the section it concerns; the caller counts that section's units
as failed.  Tolerances are fixed here so that a change to the program
cannot move them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

# A row whose estimate is a Monte Carlo mean with a closed-form limit must
# sit within MEAN_SE standard errors plus MEAN_REL of the limit.  Finite-ell
# bias of the critical-point densities is up to ~10% at ell=16, hence the
# relative part; 5 SE keeps a false alarm below one run in ten thousand.
MEAN_SE = 5.0
MEAN_REL = 0.10
MEAN_KINDS = frozenset({
    "variance_scaling_mean", "epc",
    "critical_density_c", "critical_density_e", "critical_density_s",
})
# A row whose theory column is an upper bound may exceed it only by noise.
BOUND_SE = 5.0
BOUND_KINDS = frozenset({"kol_decay", "kol_decay_exceedance", "supnorm_tail"})
# the acceptance gate's threshold for Morse/mesh Euler-characteristic agreement
MESH_AGREEMENT_GATE = 0.90
# Morse identity over the critical_density rows at the all-points level:
# mean(#extrema)/ell^2 - mean(#saddles)/ell^2 = 2/ell^2 up to rounding
MORSE_LEVEL = -40.0
MORSE_ABS_TOL = 1e-9


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _num(text: str):
    return None if text == "" else float(text)


def theory_problems(kind: str, rows: list[dict]) -> list[str]:
    """Rows whose estimate disagrees with their theory column."""
    problems = []
    for row in rows:
        theory = _num(row["theory"])
        if theory is None:
            continue
        est, se = float(row["estimate"]), float(row["stderr"])
        where = f"{kind}: {row['kind']} ell={row['ell']} u={row['u']} eps={row['epsilon']}"
        if not (math.isfinite(est) and math.isfinite(se)):
            problems.append(f"{where}: non-finite estimate {est} +/- {se}")
        elif row["kind"] in MEAN_KINDS:
            tol = MEAN_SE * se + MEAN_REL * abs(theory)
            if abs(est - theory) > tol:
                problems.append(f"{where}: estimate {est:.6g} is {abs(est - theory):.3g} "
                                f"from limit {theory:.6g} (tolerance {tol:.3g})")
        elif row["kind"] in BOUND_KINDS:
            if est > theory + BOUND_SE * se:
                problems.append(f"{where}: estimate {est:.6g} exceeds bound "
                                f"{theory:.6g} by more than {BOUND_SE} SE")
    return problems


def morse_identity_problems(rows: list[dict]) -> list[str]:
    """critical_density: every non-degenerate set has Morse count 2 on average."""
    problems = []
    by_ell: dict[int, dict[str, float]] = {}
    for row in rows:
        if _num(row["u"]) == MORSE_LEVEL:
            by_ell.setdefault(int(row["ell"]), {})[row["kind"]] = float(row["estimate"])
    for ell, est in sorted(by_ell.items()):
        morse = est.get("critical_density_e", math.nan) - est.get("critical_density_s", math.nan)
        if not abs(morse - 2.0 / ell**2) <= MORSE_ABS_TOL:
            problems.append(f"critical_density: ell={ell} mean Morse count "
                            f"{morse * ell**2:.12g}, expected 2")
    if not by_ell:
        problems.append(f"critical_density: no rows at u={MORSE_LEVEL:g} for the Morse identity")
    return problems


def decreasing_problems(kind: str, rows: list[dict]) -> list[str]:
    """Mean Kolmogorov distances must be finite and strictly decrease in ell."""
    means = sorted((int(r["ell"]), float(r["estimate"])) for r in rows if r["kind"] == kind)
    problems = [f"{kind}: ell={ell} estimate {v} is not finite"
                for ell, v in means if not math.isfinite(v)]
    for (l0, v0), (l1, v1) in zip(means, means[1:]):
        if not v1 < v0:
            problems.append(f"{kind}: estimate at ell={l1} ({v1:.6g}) does not fall "
                            f"below ell={l0} ({v0:.6g})")
    return problems


def degenerate_count(rows: list[dict]) -> int:
    """Degenerate replicates of a section (the column repeats on every row of a cell)."""
    return sum({int(r["ell"]): int(r["degenerate"]) for r in rows}.values())


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_digest(path: Path) -> str:
    """SHA-256 of a file; a CSV ending in a ``seconds`` column loses that column."""
    data = path.read_bytes()
    if path.suffix == ".csv":
        lines = data.decode("utf-8").split("\n")
        if lines and lines[0].split(",")[-1] == "seconds":
            lines = [line.rsplit(",", 1)[0] for line in lines]
            data = "\n".join(lines).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def digests(outdir: Path) -> dict[str, str]:
    return {p.name: file_digest(p) for p in sorted(outdir.iterdir()) if p.is_file()}


def combined_digest(files: dict[str, str]) -> str:
    return sha256_text("".join(f"{name}:{sha}\n" for name, sha in sorted(files.items())))


def morse_count_of_csv(text: str) -> int:
    """#min - #saddle + #max of a ``sphex critical`` CSV."""
    kinds = [row["kind"] for row in csv.DictReader(io.StringIO(text))]
    return kinds.count("minimum") - kinds.count("saddle") + kinds.count("maximum")


def load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)
