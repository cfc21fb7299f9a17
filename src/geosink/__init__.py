"""Entropic optimal transport on the flat torus and the round sphere.

The package solves the entropically regularized transport problem with
regularization 1/k by the scaling (Sinkhorn) iteration, applying the
kernel as the exact circulant product on the 1-D torus lattice, through
FFT circular convolution on the 2-D and 3-D lattices and through
spherical harmonic transforms on equiangular sphere grids, with one exact
log-domain backend (on a grid, over windows of one table) as the reference
at every scale. A finite-difference solver for the parabolic Monge-Ampere
flow provides an independent PDE route to the same limiting potentials, and
small-instance oracles (exact circle transport, dense fixed points) pin the
numbers down.

The names below load their submodule on first access (PEP 562), so
importing the package, or geosink.cli, loads no numpy: the CLI's
--threads must take effect before the BLAS pools start.
"""

from importlib import import_module

_EXPORTS = {
    "measures": (
        "DensityField",
        "DiscreteMeasure",
        "ManifoldPoint",
        "check_density_property",
        "discretize_sphere",
        "discretize_torus",
        "load_point_cloud",
    ),
    "parabolic": (
        "ParabolicState",
        "c_transform",
        "check_quasiconvex",
        "circle_ot_oracle",
        "exp_convergence_fit",
        "ma_residual",
        "parabolic_step",
        "solve_parabolic",
    ),
    "phase": ("local_density_error", "shifted_lattice_check", "stationary_phase_check"),
    "sinkhorn": (
        "DenseApplicator",
        "NumericalAbortError",
        "Potential",
        "SinkhornState",
        "energy_diagnostics",
        "entropic_cost",
        "hilbert_distance",
        "initial_state",
        "marginal_errors",
        "normalized_potentials",
        "plan_entry",
        "plan_row",
        "rho_density",
        "run_until",
        "sinkhorn_step",
        "softmin_update",
    ),
    "sphere": (
        "SphereDenseApplicator",
        "SphereKernelSpec",
        "SphereSHTApplicator",
        "SphericalGrid",
        "antenna_height",
        "antenna_kernel_apply",
        "antenna_legendre_coeffs",
        "assoc_legendre",
        "reflector_map",
        "sht_adjoint",
        "sht_forward",
        "sht_inverse",
    ),
    "torus": (
        "FFTUnderflowError",
        "TorusGrid",
        "TorusKernelSpec",
        "TorusLatticeApplicator",
        "torus_cost",
        "torus_cost_matrix",
        "torus_heat_kernel",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
