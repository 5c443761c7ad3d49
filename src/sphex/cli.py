"""Command-line front end.

Stdout carries data only (scalars at 12 significant digits, CSVs with a
header row, UTF-8, LF line endings); diagnostics go to stderr behind
``--verbose``.  Exit codes: 0 success, 2 invalid usage or argument
validation, 1 runtime failure.

``--threads`` sets the BLAS thread-pool environment variables after the
arguments are parsed and before the handler runs.  The pools read them
when numpy is imported, so every handler imports the library lazily.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from typing import Optional, Sequence

log = logging.getLogger("sphex")

_THREAD_ENV_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its invalid-value message
    return parse


def fmt12(value) -> str:
    """12-significant-digit rendering; integers plain, exact zero as 0."""
    import numbers

    if isinstance(value, numbers.Integral):
        return str(int(value))
    v = float(value)
    if v == 0.0:
        return "0"
    return format(v, "#.12g")


def _float_list(text: str) -> list[float]:
    values = [float(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise argparse.ArgumentTypeError("expected a comma-separated list")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphex",
        description="Random spherical harmonics: special functions, "
        "excursion geometry and seeded experiment campaigns.",
    )
    parser.add_argument("--verbose", action="store_true",
                        help="log progress to stderr")
    parser.add_argument("--threads", type=_int_at_least(1), default=None,
                        help="cap BLAS/OpenMP thread pools (default: all)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dim", help="eigenspace dimension n(ell, d)")
    p.add_argument("ell", type=int)
    p.add_argument("d", type=int)
    p.set_defaults(handler=_cmd_dim)

    p = sub.add_parser("gegenbauer",
                       help="normalized Gegenbauer kernel G_ell;d(t)")
    p.add_argument("ell", type=int)
    p.add_argument("d", type=int)
    p.add_argument("t", type=float, nargs="?", default=None)
    p.add_argument("--hilb", type=float, default=None, metavar="THETA",
                   help="evaluate the Bessel main-term approximation at "
                        "colatitude THETA instead of the recurrence at t")
    p.set_defaults(handler=_cmd_gegenbauer)

    p = sub.add_parser("sample", help="draw one coefficient vector as CSV")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.add_argument("--model", default="gaussian",
                   help="gaussian | mixture:a,b | mixture:a@p,b@q | student:dof")
    p.add_argument("--out", default=None,
                   help="write CSV here instead of stdout")
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("excursion",
                       help="excursion volumes of a sampled field")
    p.add_argument("--input", required=True, metavar="CSV")
    p.add_argument("--u", type=_float_list, required=True,
                   metavar="U1,U2,...")
    p.add_argument("--grid", type=int, default=None,
                   help="grid point count (default 20*ell^2)")
    p.set_defaults(handler=_cmd_excursion)

    p = sub.add_parser("critical",
                       help="critical points of a sampled field as CSV")
    p.add_argument("--input", required=True, metavar="CSV")
    p.set_defaults(handler=_cmd_critical)

    p = sub.add_parser("epc",
                       help="Euler characteristic of excursion sets")
    p.add_argument("--input", required=True, metavar="CSV")
    p.add_argument("--u", type=_float_list, required=True,
                   metavar="U1,U2,...")
    p.add_argument("--oracle", choices=("morse", "mesh"), default="morse",
                   help="counting route: critical points (morse) or "
                        "subdivided mesh vertices (mesh)")
    p.add_argument("--subdivision", type=int, default=6,
                   help="icosphere subdivision level for --oracle mesh")
    p.set_defaults(handler=_cmd_epc)

    p = sub.add_parser("supnorm", help="sup norm of a sampled field")
    p.add_argument("--input", required=True, metavar="CSV")
    p.set_defaults(handler=_cmd_supnorm)

    p = sub.add_parser("kol",
                       help="Kolmogorov distance of the value distribution")
    p.add_argument("--input", required=True, metavar="CSV")
    p.add_argument("--grid", type=int, required=True,
                   help="grid point count")
    p.set_defaults(handler=_cmd_kol)

    p = sub.add_parser("experiment", help="seeded Monte Carlo campaigns")
    p.add_argument("action", choices=("run",))
    p.add_argument("config", metavar="CONFIG.INI")
    p.add_argument("--out", default=None,
                   help="output directory (default: $SPHEX_OUT)")
    p.add_argument("--seed", type=_int_at_least(0), default=None,
                   help="override every config seed")
    p.set_defaults(handler=_cmd_experiment)

    p = sub.add_parser("theory", help="evaluate a named bound")
    p.add_argument("name", metavar="BOUND")
    p.add_argument("--args", default="", metavar="K=V,...",
                   help="bound arguments, e.g. x=1.5 or ell=8,u=0.5")
    p.set_defaults(handler=_cmd_theory)

    return parser


# ---------------------------------------------------------------------------
# handlers (library imports kept local so --threads binds first)
# ---------------------------------------------------------------------------


def _load_coefficients(path: str):
    from .harmonics import read_coefficients_csv

    if not os.path.exists(path):
        raise ValueError(f"input file not found: {path}")
    return read_coefficients_csv(path)


def _field_grid(coeffs, count: Optional[int]):
    from .sphere_geom import iso_latitude_grid

    ell = coeffs.level.ell
    n = count if count is not None else 20 * max(ell, 1) ** 2
    if n < 4:
        raise ValueError(f"grid point count must be >= 4, got {n}")
    return iso_latitude_grid(n)


def _cmd_dim(args: argparse.Namespace) -> int:
    from .specfun import eigenspace_dim

    print(fmt12(eigenspace_dim(args.ell, args.d)))
    return 0


def _cmd_gegenbauer(args: argparse.Namespace) -> int:
    from .specfun import gegenbauer, gegenbauer_hilb

    if (args.t is None) == (args.hilb is None):
        raise ValueError("give exactly one of t or --hilb THETA")
    if args.hilb is not None:
        value = gegenbauer_hilb(args.ell, args.d, args.hilb)
    else:
        value = gegenbauer(args.ell, args.d, args.t)
    print(fmt12(value))
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    from .harmonics import (
        NonGaussianModel,
        coefficients_csv_text,
        sample_nongaussian,
        stream,
    )
    from .specfun import HarmonicLevel

    level = HarmonicLevel(args.ell, args.d)
    model = NonGaussianModel.parse(args.model)
    # "gaussian" parses to a single-atom mixture, which draws exactly what
    # sample_gaussian draws from the same stream
    coeffs, _ = sample_nongaussian(model, level, stream(args.seed, 0, "cli.sample"))
    log.info("sampled ell=%d d=%d radius=%.6g", args.ell, args.d,
             coeffs.radius)
    text = coefficients_csv_text(coeffs)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_excursion(args: argparse.Namespace) -> int:
    from .excursion import excursion_volume
    from .harmonics import FieldSample

    coeffs = _load_coefficients(args.input)
    sample = FieldSample.explicit(coeffs, _field_grid(coeffs, args.grid))
    print("u,volume")
    for u in args.u:
        print(f"{fmt12(u)},{fmt12(excursion_volume(sample, u))}")
    return 0


def _cmd_critical(args: argparse.Namespace) -> int:
    from .excursion import export_critical_points_csv, find_critical_points

    coeffs = _load_coefficients(args.input)
    cps = find_critical_points(coeffs)
    if cps.degenerate_flag:
        log.warning("degenerate critical set (rotation retries exhausted)")
    export_critical_points_csv(cps, sys.stdout)
    return 0


def _cmd_epc(args: argparse.Namespace) -> int:
    coeffs = _load_coefficients(args.input)
    print("u,chi")
    if args.oracle == "mesh":
        from .excursion import euler_characteristic_mesh
        from .sphere_geom import icosphere

        chis = euler_characteristic_mesh(coeffs, icosphere(args.subdivision), args.u)
        for u, chi in zip(args.u, chis.tolist()):
            print(f"{fmt12(u)},{chi}")
    else:
        from .excursion import euler_characteristic_morse, find_critical_points

        cps = find_critical_points(coeffs)
        if cps.degenerate_flag:
            raise RuntimeError(
                "degenerate critical set; try --oracle mesh"
            )
        for u in args.u:
            print(f"{fmt12(u)},{euler_characteristic_morse(cps, u)}")
    return 0


def _cmd_supnorm(args: argparse.Namespace) -> int:
    from .excursion import sup_norm

    coeffs = _load_coefficients(args.input)
    value, (x, y, z) = sup_norm(coeffs)
    log.info("attained near theta=%.6f phi=%.6f",
             math.acos(max(-1.0, min(1.0, z))), math.atan2(y, x))
    print(fmt12(value))
    return 0


def _cmd_kol(args: argparse.Namespace) -> int:
    from .excursion import kolmogorov_distance
    from .harmonics import FieldSample

    coeffs = _load_coefficients(args.input)
    sample = FieldSample.explicit(coeffs, _field_grid(coeffs, args.grid))
    print(fmt12(kolmogorov_distance(sample)))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .harness import run_config_file

    out_dir = args.out or os.environ.get("SPHEX_OUT")
    if not out_dir:
        raise ValueError("no output directory: pass --out or set SPHEX_OUT")
    log.info("running %s into %s", args.config, out_dir)
    for path in run_config_file(args.config, out_dir, seed_override=args.seed):
        print(path)
    return 0


def _parse_bound_args(name: str, text: str) -> dict:
    from .theory import REGISTRY, _int_args

    if name not in REGISTRY:
        raise ValueError(f"unknown bound {name!r}; known: {sorted(REGISTRY)}")
    int_names = _int_args(REGISTRY[name][0])
    kwargs: dict = {}
    for token in filter(None, (t.strip() for t in text.split(","))):
        key, sep, raw = token.partition("=")
        if not sep:
            raise ValueError(f"bound arguments must be k=v, got {token!r}")
        key = key.strip()
        raw = raw.strip()
        if key in int_names:
            kwargs[key] = int(raw)
        else:
            try:
                kwargs[key] = float(raw)
            except ValueError:
                kwargs[key] = raw  # e.g. a critical kind name
    return kwargs


def _cmd_theory(args: argparse.Namespace) -> int:
    from .theory import evaluate_bound

    kwargs = _parse_bound_args(args.name, args.args)
    report = evaluate_bound(args.name, **kwargs)
    log.info("%s (%s)", report.name, report.anchor)
    print(fmt12(report.bound_value))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    if args.threads is not None:
        for var in _THREAD_ENV_VARS:
            os.environ[var] = str(args.threads)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(message)s",
    )
    try:
        return args.handler(args)
    except (ValueError, KeyError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130
    except Exception as exc:  # runtime failures: geometry, packing, I/O
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
