"""Two-faced noncommutative probability toolkit.

Exact symbolic layer: noncommutative polynomials over left/right letters
(:mod:`bifree.ncalg`), bi-non-crossing partition lattices
(:mod:`bifree.bnclattice`), moment/cumulant transforms
(:mod:`bifree.cumulant`), and the difference quotients with their adjoints
and conjugate-variable checks (:mod:`bifree.derivation`).

Numerical layer: central-limit families from a covariance matrix with
Fisher information, entropy, and entropy dimension
(:mod:`bifree.gaussfam`), and grid-based conjugate variables and Fisher
information for commuting pairs (:mod:`bifree.bipartite_num`).  These names
resolve on first use: ``import bifree`` and the exact layer load no numpy,
and the first access to any numerical name imports both numerical modules.
"""

from importlib import import_module as _import_module

from .ncalg import (
    AlgebraMode,
    Letter,
    NCPolynomial,
    TensorPoly,
    bipartite_mode,
    free_mode,
    lsym,
    lvar,
    mul,
    normal_form,
    parse_poly,
    format_poly,
    parse_tensor,
    format_tensor,
    rsym,
    rvar,
    star,
    tensor_mul,
    tensor_star,
)
from .bnclattice import (
    BNCPartition,
    enumerate_bnc,
    hat_embed,
    hat_zero,
    is_bnc,
    join,
    mobius,
    one_partition,
    sigma_chi,
    zero_partition,
)
from .cumulant import (
    CumulantMomentFunctional,
    CumulantSpec,
    MomentFunctional,
    TableMomentFunctional,
    check_mixed_vanishing,
    cumulant_chi,
    expand_product_last_entry,
    gaussian_cumulant_spec,
    moment_pi,
    moments_from_cumulants,
)
from .derivation import (
    ConjugateReport,
    QuotientKind,
    adjoint_apply,
    bifree_dq,
    conjugate_check,
    free_dq,
    scalar_identity_residual,
)

#: The numerical layer, resolved on first use: public name -> defining module.
_NUMERICAL = {
    **dict.fromkeys(
        (
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
        "gaussfam",
    ),
    **dict.fromkeys(
        (
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
        "bipartite_num",
    ),
}


def __getattr__(name: str):
    if name in _NUMERICAL.values():
        return _import_module(f"{__name__}.{name}")
    if name not in _NUMERICAL:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Both modules load on the first numerical name, so a caller that sets up
    # with one of them never pays the other's import at a later first use.
    modules = {m: _import_module(f"{__name__}.{m}") for m in set(_NUMERICAL.values())}
    namespace = globals()
    namespace.update({n: getattr(modules[m], n) for n, m in _NUMERICAL.items()})
    return namespace[name]


def __dir__():
    return sorted({*globals(), *_NUMERICAL, *_NUMERICAL.values()})


__version__ = "0.1.0"
__all__ = [n for n in __dir__() if not n.startswith("_")]
