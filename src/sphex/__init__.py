"""Random spherical harmonics: Gaussian coupling, excursion geometry,
quantitative limit theorems, and a seeded experiment harness.

Submodules:

- ``specfun``: eigenspace dimensions, Gegenbauer/Bessel evaluation with
  uniform asymptotics, Gaussian marginals, critical value densities.
- ``sphere_geom``: points, quadrature grids, separated point sets and
  icosphere meshes on S^d.
- ``harmonics``: coefficient sampling (uniform, Gaussian, perturbed),
  field evaluation, derivatives, Gram-matrix simulation, seeded streams.
- ``excursion``: excursion volumes, Kolmogorov distance, critical point
  finding and classification, Euler characteristics, sup norms.
- ``theory``: closed-form bounds, limits and rate constants.
- ``harness``: reproducible Monte Carlo campaigns with CSV/JSON output.

Top-level attribute access is lazy (PEP 562) so that ``import sphex``
does not load numpy; the CLI relies on this to bind BLAS thread-pool
environment variables before the numerical stack initializes.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    # specfun
    "CriticalKind": "specfun",
    "GaussianValues": "specfun",
    "HarmonicLevel": "specfun",
    "bessel_j": "specfun",
    "cdf_derivative": "specfun",
    "critical_density": "specfun",
    "critical_tail": "specfun",
    "eigenspace_dim": "specfun",
    "gaussian": "specfun",
    "gegenbauer": "specfun",
    "gegenbauer_hilb": "specfun",
    "hilb_error_budget": "specfun",
    # sphere_geom
    "PackingError": "sphere_geom",
    "SphereGrid": "sphere_geom",
    "SphereMesh": "sphere_geom",
    "SpherePoint": "sphere_geom",
    "export_grid_csv": "sphere_geom",
    "geodesic_dist": "sphere_geom",
    "icosphere": "sphere_geom",
    "iso_latitude_grid": "sphere_geom",
    "quasi_uniform_grid": "sphere_geom",
    "separated_grid": "sphere_geom",
    # harmonics
    "ChartError": "harmonics",
    "CoefficientVector": "harmonics",
    "FieldSample": "harmonics",
    "GeometryError": "harmonics",
    "GramSimulator": "harmonics",
    "NonGaussianModel": "harmonics",
    "coefficients_csv_text": "harmonics",
    "covariance": "harmonics",
    "evaluate": "harmonics",
    "evaluate_grid": "harmonics",
    "frame_gradient": "harmonics",
    "gradient_hessian": "harmonics",
    "read_coefficients_csv": "harmonics",
    "sample_gaussian": "harmonics",
    "sample_nongaussian": "harmonics",
    "sample_radius": "harmonics",
    "sample_unit_coefficients": "harmonics",
    "stream": "harmonics",
    "write_coefficients_csv": "harmonics",
    "ylm": "harmonics",
    # excursion
    "CriticalPoint": "excursion",
    "CriticalPointSet": "excursion",
    "count_above": "excursion",
    "euler_characteristic_mesh": "excursion",
    "euler_characteristic_morse": "excursion",
    "excursion_volume": "excursion",
    "export_critical_points_csv": "excursion",
    "find_critical_points": "excursion",
    "kolmogorov_distance": "excursion",
    "sup_norm": "excursion",
    # theory
    "BoundReport": "theory",
    "bad_set_bound": "theory",
    "bad_set_bound_local": "theory",
    "borel_tis_tail": "theory",
    "chi_square_tail_rate": "theory",
    "cramer_transform": "theory",
    "critical_count_limit": "theory",
    "density_ratio_bound": "theory",
    "epc_limit": "theory",
    "epc_variance_leading": "theory",
    "evaluate_bound": "theory",
    "excursion_mean_limit": "theory",
    "gkf_epc_expectation": "theory",
    "kolmogorov_measure_bound": "theory",
    "kolmogorov_rate_exponents": "theory",
    "mills": "theory",
    "sogge_exponent": "theory",
    "sup_norm_lower_params": "theory",
    "sup_norm_tail_bound": "theory",
    # harness
    "ExperimentConfig": "harness",
    "ExperimentRecord": "harness",
    "RateFit": "harness",
    "RecordRow": "harness",
    "estimate_constants": "harness",
    "fit_rate": "harness",
    "mesh_agreement": "harness",
    "parse_config_file": "harness",
    "run_config_file": "harness",
    "run_experiment": "harness",
    "wilson_interval": "harness",
    "write_rates_csv": "harness",
    "write_record_csv": "harness",
    "write_sidecar_json": "harness",
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
