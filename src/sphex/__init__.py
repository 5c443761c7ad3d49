"""Random spherical harmonics: Gaussian coupling, excursion geometry,
quantitative limit theorems, and a seeded experiment harness.

Submodules:

- ``specfun``: eigenspace dimensions, Gegenbauer/Bessel evaluation with
  uniform asymptotics, Gaussian marginals, critical value densities.
- ``sphere_geom``: points, quadrature grids and icosphere meshes on S^d.
- ``harmonics``: coefficient sampling (uniform, Gaussian, perturbed),
  field evaluation, Gram-matrix simulation, seeded streams.
- ``excursion``: excursion volumes, Kolmogorov distance, critical point
  finding and classification, Euler characteristics, sup norms.
- ``theory``: closed-form bounds, limits and rate constants.
- ``harness``: reproducible Monte Carlo campaigns with CSV/JSON output.

Import names from their submodule (``from sphex.harness import
run_experiment``); each submodule's ``__all__`` lists its public names.
``import sphex`` imports no submodule and so does not load numpy; the CLI
relies on this to set the BLAS thread-pool environment variables for
``--threads`` before the numerical stack initializes.
"""

__version__ = "0.1.0"
