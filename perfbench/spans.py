"""Spans around sphex's public functions, recorded from outside the package.

``Tracer.install`` rebinds each traced public name in every loaded sphex
module that holds it (the defining module and every module that imported
it), so calls are caught where the caller looks the name up: for example
``sphex.harness.evaluate_grid`` and ``sphex.excursion.evaluate_grid`` both
become the same wrapper.  Methods of ``GramSimulator`` are wrapped on the
class.  ``uninstall`` restores the originals, so untraced passes run the
unmodified program.

A span is ``[name, start, end, parent, attrs]``; spans live in memory and
are summarised after the pass.  Self time is a span's duration minus the
durations of its direct children (the program is single-threaded, so
children never overlap).
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from time import perf_counter

import numpy as np


def _ell(coeffs):
    return coeffs.level.ell


def _field_points(args, kwargs, result):
    return {"ell": _ell(args[0]), "points": int(np.size(result))}


def _gegenbauer(args, kwargs, result):
    t = args[2] if len(args) > 2 else kwargs["t"]
    return {"ell": args[0], "evals": int(np.size(t))}


def _gram_init(args, kwargs, result):
    sim = args[0]
    return {"ell": sim.level.ell, "points": int(sim.points.shape[0])}


def _find_critical_points(args, kwargs, result):
    ell = _ell(args[0])
    return {
        "ell": ell,
        "attempts": result.rotation_attempts,
        "degenerate": int(result.degenerate_flag),
        "points": len(result.points),
        # seeds per attempt: the 40 ell^2 cells of the default seed grid
        "seeds": 40 * ell * ell * result.rotation_attempts,
    }


def _run_experiment(args, kwargs, result):
    return {"kind": args[0].kind}


def _write(args, kwargs, result):
    path = args[1]
    return {"bytes": os.path.getsize(path) if os.path.exists(path) else 0}


def _sample_count(args, kwargs, result):
    return {"replicates": 1}


# (module, public name, span name, attribute extractor)
FUNCTIONS = (
    ("sphex.harmonics", "evaluate_grid", "harmonics.evaluate_grid", _field_points),
    ("sphex.harmonics", "evaluate", "harmonics.evaluate", _field_points),
    ("sphex.harmonics", "sample_gaussian", "harmonics.sample_gaussian", _sample_count),
    ("sphex.harmonics", "stream", "harmonics.stream", None),
    ("sphex.specfun", "gegenbauer", "specfun.gegenbauer", _gegenbauer),
    ("sphex.sphere_geom", "iso_latitude_grid", "sphere_geom.iso_latitude_grid", None),
    ("sphex.sphere_geom", "quasi_uniform_grid", "sphere_geom.quasi_uniform_grid", None),
    ("sphex.sphere_geom", "icosphere", "sphere_geom.icosphere", None),
    ("sphex.excursion", "find_critical_points", "excursion.find_critical_points",
     _find_critical_points),
    ("sphex.excursion", "sup_norm", "excursion.sup_norm", None),
    ("sphex.excursion", "kolmogorov_distance", "excursion.kolmogorov_distance", None),
    ("sphex.excursion", "excursion_volume", "excursion.excursion_volume", None),
    ("sphex.excursion", "euler_characteristic_mesh",
     "excursion.euler_characteristic_mesh", None),
    ("sphex.excursion", "euler_characteristic_morse",
     "excursion.euler_characteristic_morse", None),
    ("sphex.harness", "run_config_file", "harness.run_config_file", None),
    ("sphex.harness", "run_experiment", "harness.run_experiment", _run_experiment),
    ("sphex.harness", "mesh_agreement", "harness.mesh_agreement", None),
    ("sphex.harness", "write_record_csv", "harness.write", _write),
    ("sphex.harness", "write_sidecar_json", "harness.write", _write),
    ("sphex.harness", "write_rates_csv", "harness.write", _write),
    ("sphex.cli", "main", "cli.main", None),
)

METHODS = (
    ("sphex.harmonics", "GramSimulator", "__init__", "harmonics.GramSimulator.init",
     _gram_init),
    ("sphex.harmonics", "GramSimulator", "sample", "harmonics.GramSimulator.sample",
     _sample_count),
)


class Tracer:
    """Collects spans while installed; ``reset`` starts a new pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self._stack.clear()

    def _wrap(self, fn, name: str, describe):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if describe is not None:
                rec[4] = describe(args, kwargs, result)
            return result

        return traced

    def _rebind_everywhere(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "sphex" or mod_name.startswith("sphex.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, span, describe in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            self._rebind_everywhere(original, self._wrap(original, span, describe))
        theory = sys.modules["sphex.theory"]
        for attr in theory.__all__:
            original = getattr(theory, attr)
            if inspect.isfunction(original):
                self._rebind_everywhere(
                    original, self._wrap(original, f"theory.{attr}", None))
        for mod_name, cls_name, meth, span, describe in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, span, describe))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]
