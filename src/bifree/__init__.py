"""Two-faced noncommutative probability toolkit.

Exact symbolic layer: noncommutative polynomials over left/right letters
(:mod:`bifree.ncalg`), bi-non-crossing partition lattices
(:mod:`bifree.bnclattice`), moment/cumulant transforms
(:mod:`bifree.cumulant`), and the difference quotients with their adjoints
and conjugate-variable checks (:mod:`bifree.derivation`).

Numerical layer: central-limit families from a covariance matrix with
Fisher information, entropy, and entropy dimension
(:mod:`bifree.gaussfam`), and grid-based conjugate variables and Fisher
information for commuting pairs (:mod:`bifree.bipartite_num`).

Both layers resolve on first use: ``import bifree`` loads neither.  The
first access to any name of a layer (``bifree.normal_form``,
``bifree.Covariance``, ...) imports every module of that layer and binds
all of its names here; only the numerical layer imports numpy.  A module
name (``bifree.bnclattice``) imports that module and what it imports.
"""

from importlib import import_module as _import_module

#: The exact layer: module -> its public names.
_EXACT = {
    "ncalg": (
        "AlgebraMode",
        "Letter",
        "NCPolynomial",
        "TensorPoly",
        "bipartite_mode",
        "free_mode",
        "lsym",
        "lvar",
        "mul",
        "normal_form",
        "parse_poly",
        "format_poly",
        "parse_tensor",
        "format_tensor",
        "rsym",
        "rvar",
        "star",
        "tensor_mul",
        "tensor_star",
    ),
    "bnclattice": (
        "BNCPartition",
        "enumerate_bnc",
        "hat_embed",
        "hat_zero",
        "is_bnc",
        "join",
        "mobius",
        "one_partition",
        "sigma_chi",
        "zero_partition",
    ),
    "cumulant": (
        "CumulantMomentFunctional",
        "CumulantSpec",
        "MomentFunctional",
        "TableMomentFunctional",
        "check_mixed_vanishing",
        "cumulant_chi",
        "expand_product_last_entry",
        "gaussian_cumulant_spec",
        "moment_pi",
        "moments_from_cumulants",
    ),
    "derivation": (
        "ConjugateReport",
        "QuotientKind",
        "adjoint_apply",
        "bifree_dq",
        "conjugate_check",
        "free_dq",
        "scalar_identity_residual",
    ),
}

#: The numerical layer, which alone imports numpy.
_NUMERICAL = {
    "gaussfam": (
        "Covariance",
        "FockModel",
        "build_fock_model",
        "conjugate_coeffs",
        "entropy_closed",
        "entropy_dimension",
        "entropy_dimension_limit",
        "entropy_quadrature",
        "fisher",
        "fisher_perturbed",
        "fock_moment",
        "gaussian_moment",
    ),
    "bipartite_num": (
        "ConjugateField",
        "DensityGrid",
        "FieldConfig",
        "GridSpec",
        "MarginalDensity",
        "conjugate_field",
        "fisher_numeric",
        "hilbert_pv",
        "marginals",
        "semicircular_density",
    ),
}

#: Public name -> its layer.
_LAYER_OF = {n: layer for layer in (_EXACT, _NUMERICAL) for names in layer.values() for n in names}


def __getattr__(name: str):
    if name in _EXACT or name in _NUMERICAL:
        return _import_module(f"{__name__}.{name}")
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # A whole layer loads and binds at once: a caller that sets up with one of
    # its names never pays another module's import at a later first use, and a
    # tracer that reads one name then finds every module of the layer loaded.
    namespace = globals()
    for module, names in _LAYER_OF[name].items():
        loaded = _import_module(f"{__name__}.{module}")
        namespace.update({n: getattr(loaded, n) for n in names})
    return namespace[name]


def __dir__():
    return sorted({*globals(), *_LAYER_OF, *_EXACT, *_NUMERICAL})


__version__ = "0.1.0"
__all__ = [n for n in __dir__() if not n.startswith("_")]
