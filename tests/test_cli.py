"""Command-line contract: exact stdout bytes, exit codes, env handling.

Most tests drive ``main(argv)`` in process and compare stdout against the
same value computed through the library, formatted with the CLI's own
``fmt12``; the logging/stderr contract runs once in a subprocess because
``logging.basicConfig`` is per-process state.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import sphex
from sphex.cli import _THREAD_ENV_VARS, fmt12, main
from sphex.excursion import (
    euler_characteristic_mesh,
    euler_characteristic_morse,
    excursion_volume,
    find_critical_points,
    kolmogorov_distance,
    sup_norm,
)
from sphex.harmonics import (
    CoefficientVector,
    FieldSample,
    coefficients_csv_text,
    evaluate_grid,
    read_coefficients_csv,
    sample_gaussian,
    stream,
)
from sphex.sphere_geom import icosphere, iso_latitude_grid
from sphex.specfun import HarmonicLevel


def _child_env() -> dict:
    """Environment for a child interpreter that imports this sphex package."""
    package_root = os.path.dirname(os.path.dirname(sphex.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))


# Runs main() on its argv, then prints the thread count of each OpenBLAS
# bundled with numpy, asked through the library's own API.
_OPENBLAS_PROBE = """
import ctypes, glob, json, pathlib, sys
from sphex.cli import main
main(sys.argv[1:])
import numpy
counts = []
libs = pathlib.Path(numpy.__file__).parent.parent / "numpy.libs"
for path in sorted(glob.glob(str(libs / "*openblas*"))):
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            counts.append(fn())
            break
print(json.dumps(counts))
"""


@pytest.fixture()
def sample_csv(tmp_path):
    """A gaussian coefficient CSV written through the CLI itself."""
    path = tmp_path / "coeffs.csv"
    assert main(["sample", "--ell", "4", "--seed", "9",
                 "--out", str(path)]) == 0
    return str(path)


@pytest.fixture()
def zonal_csv(tmp_path):
    lv = HarmonicLevel(4, 2)
    alpha = np.zeros(lv.n)
    alpha[0] = 1.0
    path = tmp_path / "zonal.csv"
    path.write_text(coefficients_csv_text(CoefficientVector(lv, alpha, 3.0)))
    return str(path)


class TestFmt12:
    def test_integers_render_plain(self):
        assert fmt12(7) == "7"
        assert fmt12(np.int64(12)) == "12"

    def test_exact_zero(self):
        assert fmt12(0.0) == "0"
        assert fmt12(-0.0) == "0"

    def test_twelve_significant_digits(self):
        assert fmt12(-0.125) == "-0.125000000000"
        assert fmt12(1.0) == "1.00000000000"
        assert fmt12(2.0 / 3.0) == "0.666666666667"


class TestScalarCommands:
    def test_dim(self, capsys):
        assert main(["dim", "3", "2"]) == 0
        assert capsys.readouterr().out == "7\n"
        assert main(["dim", "2", "3"]) == 0
        assert capsys.readouterr().out == "9\n"

    def test_gegenbauer_recurrence(self, capsys):
        assert main(["gegenbauer", "2", "2", "0.5"]) == 0
        assert capsys.readouterr().out == "-0.125000000000\n"

    def test_gegenbauer_zero_value(self, capsys):
        assert main(["gegenbauer", "1", "2", "0"]) == 0
        assert capsys.readouterr().out == "0\n"

    def test_gegenbauer_hilb_branch(self, capsys):
        from sphex.specfun import gegenbauer_hilb

        assert main(["gegenbauer", "50", "2", "--hilb", "0.7"]) == 0
        want = fmt12(gegenbauer_hilb(50, 2, 0.7))
        assert capsys.readouterr().out == want + "\n"

    def test_gegenbauer_hilb_order_above_argument(self, capsys):
        # J_49.5(30): the Bessel order exceeds its argument
        assert main(["gegenbauer", "10", "101", "--hilb", "0.5"]) == 0
        assert capsys.readouterr().out == "0.0762892866678\n"

    def test_gegenbauer_argument_xor(self, capsys):
        assert main(["gegenbauer", "2", "2", "0.5", "--hilb", "0.7"]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["gegenbauer", "2", "2"]) == 2

    def test_theory_bound(self, capsys):
        args = "epsilon=0.1,n=100,sigma_sq=0.01,c=1"
        assert main(["theory", "badset", "--args", args]) == 0
        assert capsys.readouterr().out == "8.00000000000\n"

    def test_theory_tuple_flattening(self, capsys):
        assert main(["theory", "kol-rate", "--args", "ell=9,dim=2"]) == 0
        assert capsys.readouterr().out == "0.333333333333\n"

    def test_theory_string_argument(self, capsys):
        from sphex.specfun import critical_tail

        assert main(["theory", "critical-limit",
                     "--args", "kind=saddle,u=0"]) == 0
        want = fmt12(critical_tail("saddle", 0.0))
        assert capsys.readouterr().out == want + "\n"


# Fixed arguments for every registered bound and the exact stdout
# ``sphex theory`` prints for them.
THEORY_PINS = [
    ("badset", "epsilon=0.1,n=100,sigma_sq=0.01,c=1", "8.00000000000"),
    ("gkf-epc", "ell=8,u=0.5", "3.14524247503"),
    ("gkf-epc-exact", "ell=8,u=0.5", "13.2914268410"),
    ("epc-limit", "u=0.7", "0.218577753357"),
    ("excursion-mean", "u=-0.3", "0.617911422189"),
    ("epc-var", "ell=12,u=1.1", "24.0736734828"),
    ("kol-bound", "n=81,epsilon=0.2,K=0.5", "0.771604938272"),
    ("kol-rate", "ell=9,dim=3", "0.666666666667"),
    ("supnorm-tail", "M=1.5,beta=2,ell=64", "7.13766893118"),
    ("supnorm-lower", "K=0.1,dim=3", "0.280975743475"),
    ("cramer", "x=1.5", "0.0472674459459"),
    ("ldp", "a=1.5,n=400", "6.14898765041e-09"),
    ("borel-tis", "t=3,expected_sup=1.2", "0.197898699084"),
    ("mills", "z=1.3", "0.165635070381"),
    ("sogge", "p=4", "0.125000000000"),
    ("density-ratio", "epsilon=0.3,n=50,sigma_sq=0.2,density_sup=1.5",
     "278.111111111"),
    ("critical-limit", "kind=saddle,u=0.5", "0.111566077936"),
]

KNOWN_BOUNDS = (
    "['badset', 'borel-tis', 'cramer', 'critical-limit', 'density-ratio', "
    "'epc-limit', 'epc-var', 'excursion-mean', 'gkf-epc', 'gkf-epc-exact', "
    "'kol-bound', 'kol-rate', 'ldp', 'mills', 'sogge', 'supnorm-lower', "
    "'supnorm-tail']"
)


class TestTheoryPinned:
    def test_pins_cover_the_registry(self):
        from sphex.theory import REGISTRY

        assert sorted(name for name, _, _ in THEORY_PINS) == sorted(REGISTRY)

    @pytest.mark.parametrize("name,args,want", THEORY_PINS,
                             ids=[pin[0] for pin in THEORY_PINS])
    def test_stdout(self, name, args, want, capsys):
        assert main(["theory", name, "--args", args]) == 0
        captured = capsys.readouterr()
        assert captured.out == want + "\n"
        assert captured.err == ""

    @pytest.mark.parametrize("name,args,want", [
        ("epc-limit", "u=-1", "-0.241970724519"),
        ("gkf-epc", "ell=8,u=-1", "-1.79247520254"),
    ], ids=["epc-limit", "gkf-epc"])
    def test_negative_limits_print(self, name, args, want, capsys):
        # a limit below the mean level is negative; the epc campaign writes
        # these same values into its theory column
        assert main(["theory", name, "--args", args]) == 0
        captured = capsys.readouterr()
        assert captured.out == want + "\n"
        assert captured.err == ""

    def test_integer_arguments_reach_the_report_as_int(self):
        from sphex.cli import _parse_bound_args
        from sphex.theory import evaluate_bound

        kwargs = _parse_bound_args("badset", "epsilon=0.1,n=100,sigma_sq=0.01,c=1")
        report = evaluate_bound("badset", **kwargs)
        assert isinstance(report.inputs["n"], int)
        assert isinstance(report.inputs["epsilon"], float)

    @pytest.mark.parametrize("name,args,err", [
        ("kol-rate", "ell=8.0,dim=2",
         "invalid literal for int() with base 10: '8.0'"),
        ("ldp", "a=1.5,n=4.5",
         "invalid literal for int() with base 10: '4.5'"),
        ("badset", "epsilon=0.1,n=100",
         "badset missing arguments: ['sigma_sq', 'c']"),
        ("no-such-bound", "x=1",
         f"unknown bound 'no-such-bound'; known: {KNOWN_BOUNDS}"),
        ("mills", "z=1.3,zz=5", "mills unexpected arguments: ['zz']"),
    ], ids=["float-for-int", "fractional-n", "missing-args", "unknown-name",
            "unexpected-arg"])
    def test_errors(self, name, args, err, capsys):
        assert main(["theory", name, "--args", args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {err}\n"


class TestSample:
    def test_matches_library_stream(self, capsys):
        assert main(["sample", "--ell", "4", "--seed", "9"]) == 0
        out = capsys.readouterr().out
        coeffs = sample_gaussian(HarmonicLevel(4, 2), stream(9, 0, "cli.sample"))
        assert out == coefficients_csv_text(coeffs)

    def test_deterministic(self, capsys):
        assert main(["sample", "--ell", "3", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["sample", "--ell", "3", "--seed", "5"]) == 0
        assert capsys.readouterr().out == first
        assert main(["sample", "--ell", "3", "--seed", "6"]) == 0
        assert capsys.readouterr().out != first

    def test_out_file_quiet_stdout(self, sample_csv, capsys):
        capsys.readouterr()
        coeffs = read_coefficients_csv(sample_csv)
        assert coeffs.level.ell == 4
        assert coeffs.level.dim == 2

    def test_nongaussian_model(self, capsys):
        assert main(["sample", "--ell", "2", "--seed", "1",
                     "--model", "student:6"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ell,d,radius,m,alpha")
        assert main(["sample", "--ell", "2", "--seed", "1",
                     "--model", "student:bad"]) == 2


class TestFieldCommands:
    def test_excursion_matches_library(self, sample_csv, capsys):
        assert main(["excursion", "--input", sample_csv, "--u=-1,0,1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "u,volume"
        coeffs = read_coefficients_csv(sample_csv)
        sample = FieldSample.explicit(coeffs, grid=iso_latitude_grid(20 * 16))
        for line, u in zip(out[1:], (-1.0, 0.0, 1.0)):
            want = fmt12(excursion_volume(sample, u))
            assert line == f"{fmt12(u)},{want}"

    def test_excursion_grid_flag(self, sample_csv, capsys):
        assert main(["excursion", "--input", sample_csv, "--u=0",
                     "--grid", "500"]) == 0
        line = capsys.readouterr().out.splitlines()[1]
        coeffs = read_coefficients_csv(sample_csv)
        sample = FieldSample.explicit(coeffs, grid=iso_latitude_grid(500))
        assert line == f"0,{fmt12(excursion_volume(sample, 0.0))}"

    def test_kol_matches_library(self, sample_csv, capsys):
        assert main(["kol", "--input", sample_csv, "--grid", "500"]) == 0
        coeffs = read_coefficients_csv(sample_csv)
        grid = iso_latitude_grid(500)
        vals = evaluate_grid(coeffs, grid)
        want = fmt12(kolmogorov_distance((vals, grid.weights)))
        assert capsys.readouterr().out == want + "\n"

    def test_supnorm_matches_library(self, sample_csv, capsys):
        assert main(["supnorm", "--input", sample_csv]) == 0
        coeffs = read_coefficients_csv(sample_csv)
        want = fmt12(sup_norm(coeffs)[0])
        assert capsys.readouterr().out == want + "\n"

    def test_critical_csv(self, sample_csv, capsys):
        assert main(["critical", "--input", sample_csv]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "x,y,z,value,kind,residual,eig1,eig2"
        coeffs = read_coefficients_csv(sample_csv)
        cps = find_critical_points(coeffs)
        assert len(lines) == 1 + len(cps.points)
        kinds = {line.split(",")[4] for line in lines[1:]}
        assert kinds <= {"minimum", "maximum", "saddle"}

    def test_epc_morse(self, sample_csv, capsys):
        assert main(["epc", "--input", sample_csv, "--u=-1,0,1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "u,chi"
        coeffs = read_coefficients_csv(sample_csv)
        cps = find_critical_points(coeffs)
        for line, u in zip(out[1:], (-1.0, 0.0, 1.0)):
            assert line == f"{fmt12(u)},{euler_characteristic_morse(cps, u)}"

    def test_epc_mesh(self, sample_csv, capsys):
        assert main(["epc", "--input", sample_csv, "--u=0",
                     "--oracle", "mesh", "--subdivision", "4"]) == 0
        line = capsys.readouterr().out.splitlines()[1]
        coeffs = read_coefficients_csv(sample_csv)
        chi = euler_characteristic_mesh(coeffs, icosphere(4), 0.0)
        assert line == f"0,{chi}"

    def test_epc_mesh_many_levels(self, sample_csv, capsys):
        assert main(["epc", "--input", sample_csv, "--u=-1,0,0.5,1",
                     "--oracle", "mesh", "--subdivision", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        coeffs = read_coefficients_csv(sample_csv)
        mesh = icosphere(3)
        assert out[1:] == [
            f"{fmt12(u)},{euler_characteristic_mesh(coeffs, mesh, u)}"
            for u in (-1.0, 0.0, 0.5, 1.0)]

    def test_epc_degenerate_is_runtime_failure(self, zonal_csv, capsys):
        # a zonal field has circles of critical points: the Morse route
        # refuses, the mesh route still answers
        assert main(["epc", "--input", zonal_csv, "--u=0"]) == 1
        assert "degenerate" in capsys.readouterr().err
        assert main(["epc", "--input", zonal_csv, "--u=0",
                     "--oracle", "mesh", "--subdivision", "4"]) == 0


class TestExitCodes:
    def test_argparse_failures(self, capsys):
        assert main([]) == 2
        assert main(["no-such-command"]) == 2
        assert main(["dim", "3"]) == 2
        assert main(["dim", "3.5", "2"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv, flag", [
        (["--threads", "0", "dim", "3", "2"], "--threads"),
        (["--threads", "-3", "dim", "3", "2"], "--threads"),
        (["sample", "--ell", "4", "--seed", "-1"], "--seed"),
        (["experiment", "run", "exp.ini", "--seed", "-1"], "--seed"),
    ], ids=["threads-0", "threads-negative", "sample-seed", "experiment-seed"])
    def test_out_of_range_flag_exits_2(self, argv, flag, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: must be >= " in captured.err

    def test_domain_errors_exit_2(self, capsys):
        assert main(["dim", "100", "200"]) == 2  # exceeds exact int range
        assert main(["dim", "-1", "2"]) == 2
        assert main(["theory", "no-such-bound"]) == 2
        assert main(["theory", "badset", "--args", "epsilon=0.1"]) == 2
        assert main(["theory", "badset", "--args", "oops"]) == 2
        # NaN fails every range check, so it is refused rather than printed
        nan_argv = [
            ["theory", "mills", "--args", "z=nan"],
            ["theory", "cramer", "--args", "x=nan"],
            ["theory", "sogge", "--args", "p=nan"],
            ["theory", "kol-bound", "--args", "n=10,epsilon=0.5,K=nan"],
            ["theory", "badset", "--args", "epsilon=0.1,n=10,sigma_sq=nan,c=1"],
            ["theory", "epc-limit", "--args", "u=nan"],
            ["theory", "borel-tis", "--args", "t=nan,expected_sup=1"],
            ["theory", "density-ratio",
             "--args", "epsilon=0.5,n=10,sigma_sq=1,density_sup=nan"],
            ["theory", "supnorm-tail", "--args", "M=nan,beta=1,ell=8"],
            ["theory", "critical-limit", "--args", "kind=saddle,u=nan"],
            ["gegenbauer", "10", "2", "--hilb", "nan"],
        ]
        for argv in nan_argv:
            assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 5 + len(nan_argv)

    @pytest.mark.parametrize("rows, message", [
        (["1,2,1.0,1,1.0", "1,2,2.0,2,0.0", "1,2,1.0,3,0.0"],
         "error: column radius is 2.0 on one row but 1.0 on the first\n"),
        (["1,2,1.0,1,1.0", "1,3,1.0,2,0.0", "1,2,1.0,3,0.0"],
         "error: column d is 3 on one row but 2 on the first\n"),
        (["1,2,1.0,1,0.0", "1,2,1.0,2,1.0", "1,2,1.0,2,0.0"],
         "error: slot index 2 appears more than once\n"),
    ], ids=["radius", "d", "repeated-slot"])
    def test_inconsistent_coefficient_csv_exits_2(self, rows, message,
                                                   tmp_path, capsys):
        path = tmp_path / "coeffs.csv"
        path.write_text("ell,d,radius,m,alpha\n" + "\n".join(rows) + "\n")
        assert main(["supnorm", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message

    def test_coefficient_csv_without_a_column_exits_2(self, tmp_path, capsys):
        path = tmp_path / "coeffs.csv"
        path.write_text("ell,d,m,alpha\n1,2,1,1.0\n1,2,2,0.0\n1,2,3,0.0\n")
        assert main(["supnorm", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: coefficient CSV is missing columns: radius; "
                                "expected the header ell,d,radius,m,alpha\n")

    def test_missing_input_file_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.csv")
        assert main(["excursion", "--input", missing, "--u=0"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_missing_config_is_runtime_failure(self, tmp_path, capsys):
        assert main(["experiment", "run", str(tmp_path / "no.ini"),
                     "--out", str(tmp_path)]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out.lower()


class TestEnvironment:
    def test_threads_flag_sets_env(self, monkeypatch, capsys):
        for var in _THREAD_ENV_VARS:
            monkeypatch.delenv(var, raising=False)
        assert main(["--threads", "2", "dim", "3", "2"]) == 0
        for var in _THREAD_ENV_VARS:
            assert os.environ[var] == "2"
        capsys.readouterr()

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="OpenBLAS runs one thread on one CPU")
    def test_threads_flag_reaches_openblas(self):
        env = {k: v for k, v in _child_env().items() if k not in _THREAD_ENV_VARS}
        counts = {}
        for n in (1, 2):
            child = subprocess.run(
                [sys.executable, "-c", _OPENBLAS_PROBE, "--threads", str(n),
                 "dim", "3", "2"], capture_output=True, text=True, env=env)
            assert child.returncode == 0, child.stderr
            counts[n] = json.loads(child.stdout.splitlines()[-1])
        if not counts[1]:
            pytest.skip("numpy loads no bundled OpenBLAS")
        assert counts == {n: [n] * len(counts[1]) for n in (1, 2)}

    def test_imports_leave_numpy_unloaded(self):
        # --threads sets the BLAS variables in main(), which works only if
        # numpy is not loaded yet when the package and the CLI are imported
        code = "import sys, sphex, sphex.cli; print('numpy' in sys.modules)"
        child = subprocess.run([sys.executable, "-c", code], capture_output=True,
                               text=True, env=_child_env())
        assert (child.returncode, child.stdout) == (0, "False\n")

    def test_threads_equals_form(self, monkeypatch, capsys):
        for var in _THREAD_ENV_VARS:
            monkeypatch.delenv(var, raising=False)
        assert main(["--threads=3", "dim", "3", "2"]) == 0
        assert os.environ["OMP_NUM_THREADS"] == "3"
        capsys.readouterr()

    def test_experiment_out_fallback(self, tmp_path, monkeypatch, capsys):
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[variance_scaling]\n"
            "ell_list = 2, 3, 4\n"
            "seed = 3\n"
            "replicates = 30\n"
            "grid_density = 4\n"
        )
        monkeypatch.delenv("SPHEX_OUT", raising=False)
        assert main(["experiment", "run", str(ini)]) == 2
        assert "SPHEX_OUT" in capsys.readouterr().err
        out_dir = tmp_path / "fallback"
        monkeypatch.setenv("SPHEX_OUT", str(out_dir))
        assert main(["experiment", "run", str(ini)]) == 0
        listed = capsys.readouterr().out.splitlines()
        assert len(listed) == 3
        for path in listed:
            assert os.path.exists(path)
        assert (out_dir / "variance_scaling.csv").exists()

    def test_experiment_seed_override(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[variance_scaling]\n"
            "ell_list = 2, 3, 4\n"
            "seed = 3\n"
            "replicates = 30\n"
            "grid_density = 4\n"
        )
        out_dir = tmp_path / "out"
        assert main(["experiment", "run", str(ini), "--out", str(out_dir),
                     "--seed", "77"]) == 0
        capsys.readouterr()
        blob = json.loads((out_dir / "variance_scaling.json").read_text())
        assert blob["seed"] == 77

    def test_experiment_supnorm_below_ell_2_exits_2(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[supnorm]\n"
            "ell_list = 1, 2, 3\n"
            "seed = 3\n"
            "replicates = 30\n"
        )
        out_dir = tmp_path / "out"
        assert main(["experiment", "run", str(ini), "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: supnorm needs ell >= 2: it scales by sqrt(log ell)\n"
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize("cap", [0, 1, -5])
    def test_experiment_grid_cap_below_2_exits_2(self, cap, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[kol_decay]\n"
            "ell_list = 2, 3, 4\n"
            "seed = 3\n"
            "replicates = 30\n"
            "dim = 3\n"
            f"grid_cap = {cap}\n"
        )
        out_dir = tmp_path / "out"
        assert main(["experiment", "run", str(ini), "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: grid_cap must be >= 2, got {cap}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("kind", [
        "variance_scaling", "bad_set", "supnorm", "nongaussian", "epc",
        "critical_density",
    ])
    def test_experiment_s2_kind_in_dim_3_exits_2(self, kind, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        ini.write_text(
            f"[{kind}]\n"
            "ell_list = 2, 3, 4\n"
            "seed = 3\n"
            "replicates = 30\n"
            "dim = 3\n"
            + ("model = student:5\n" if kind == "nongaussian" else "")
        )
        out_dir = tmp_path / "out"
        assert main(["experiment", "run", str(ini), "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {kind} needs dim = 2: it uses the explicit basis on S^2\n"
        )
        assert not out_dir.exists()


    @pytest.mark.parametrize("section, key", [
        ("[variance_scaling]\nell_list = 2, 3, 4\nseed = -1\n", "seed"),
        ("[kol_decay]\nell_list = 0, 2, 4\nseed = 3\n", "ell_list"),
        ("[epc]\nell_list = 0, 2, 4\nseed = 3\n", "ell_list"),
        ("[critical_density]\nell_list = 0, 2, 4\nseed = 3\n", "ell_list"),
        ("[kol_decay]\nell_list = 1, 2, 3\nseed = 3\ndim = 3\ngrid_density = 1\n",
         "grid_density"),
    ], ids=["seed", "kol_decay-ell-0", "epc-ell-0", "critical_density-ell-0",
            "kol_decay-d3-one-point"])
    def test_experiment_config_that_fails_in_a_cell_exits_2(self, section, key,
                                                              tmp_path, capsys):
        # refused while parsing, before the output directory is made
        ini = tmp_path / "exp.ini"
        ini.write_text(section + "replicates = 30\n")
        out_dir = tmp_path / "out"
        assert main(["experiment", "run", str(ini), "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and key in captured.err
        assert not out_dir.exists()


class TestStderrContract:
    @staticmethod
    def _cli(*argv):
        # subprocess: logging.basicConfig binds per process
        return subprocess.run([sys.executable, "-m", "sphex.cli", *argv],
                              capture_output=True, text=True, env=_child_env())

    def test_verbose_logs_to_stderr_only(self, tmp_path):
        quiet = self._cli("sample", "--ell", "3", "--seed", "4")
        loud = self._cli("--verbose", "sample", "--ell", "3", "--seed", "4")
        assert quiet.returncode == 0 and loud.returncode == 0
        assert quiet.stdout == loud.stdout  # data channel unaffected
        assert quiet.stderr == ""
        assert "sampled ell=3" in loud.stderr

    def test_verbose_experiment_logs_each_cell(self, tmp_path):
        ini = tmp_path / "cells.ini"
        ini.write_text(
            "[kol_decay]\nell_list = 2, 3, 4\ngrid_density = 8\n"
            "seed = 5\nreplicates = 30\n\n"
            "[ldp]\nn_list = 10, 20\nseed = 5\nreplicates = 30\n"
        )
        out = tmp_path / "out"

        def outputs():
            return {
                p.name: [line.rsplit(",", 1)[0] for line in p.read_text().splitlines()]
                if p.name in ("kol_decay.csv", "ldp.csv") else p.read_text()
                for p in sorted(out.iterdir())
            }

        quiet = self._cli("experiment", "run", str(ini), "--out", str(out))
        files = outputs()
        loud = self._cli("--verbose", "experiment", "run", str(ini),
                         "--out", str(out))
        assert quiet.returncode == 0 and loud.returncode == 0
        assert quiet.stdout == loud.stdout and quiet.stderr == ""
        assert outputs() == files  # equal apart from the seconds column
        cells = [line for line in loud.stderr.splitlines()
                 if line.endswith("replicates/s)")]
        assert [line.split(":")[0] for line in cells] == [
            "INFO kol_decay ell=2", "INFO kol_decay ell=3",
            "INFO kol_decay ell=4", "INFO ldp n=10", "INFO ldp n=20",
        ]
        assert all(": 30 replicates in " in line for line in cells)
