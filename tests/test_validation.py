"""Every validation raise of the public API, one case each: the call, the
exact error type it raises and the start of its message."""

import re
from fractions import Fraction

import numpy as np
import pytest

from bifree import bipartite_num as bp
from bifree import gaussfam as gf
from bifree._io import BifreeInputError
from bifree.bnclattice import BNCPartition, CapExceededError, zero_partition
from bifree.cumulant import (
    CumulantMomentFunctional,
    CumulantSpec,
    DegreeBoundError,
    TableMomentFunctional,
    cumulant_chi,
    gaussian_cumulant_spec,
    moment_pi,
    moments_from_cumulants,
)
from bifree.derivation import QuotientKind
from bifree.ncalg import (
    AlgebraMode,
    ArityError,
    TensorPoly,
    free_mode,
    lvar,
    parse_poly,
    parse_tensor,
    parse_word,
    rvar,
    tensor_mul,
)

HALF = Fraction(1, 2)
X1, Y1 = lvar(1), rvar(1)
MODE = free_mode(1, 1)


def pair_spec(degree_bound=10):
    return gaussian_cumulant_spec(1, 1, [[1, HALF], [HALF, 1]], degree_bound)


def pair_phi():
    return CumulantMomentFunctional(MODE, pair_spec())


def cov2():
    return gf.Covariance(1, 1, np.array([[1.0, 0.5], [0.5, 1.0]]))


CASES = [
    # cumulant data and functionals
    ("spec-index-out-of-range", lambda: CumulantSpec(1, 1, {(("l", 2),): 1}),
     BifreeInputError, "pattern index 2 out of range for side l"),
    ("spec-pattern-past-degree-bound", lambda: CumulantSpec(1, 1, {(("l", 1),) * 3: 1}, 2),
     DegreeBoundError, "pattern longer than degree bound"),
    ("gaussian-spec-shape", lambda: gaussian_cumulant_spec(1, 1, [[1, 0]]),
     BifreeInputError, "covariance table has wrong shape"),
    ("gaussian-spec-asymmetric", lambda: gaussian_cumulant_spec(1, 1, [[1, 0], [HALF, 1]]),
     BifreeInputError, "covariance table must be symmetric"),
    ("table-word-past-degree-bound", lambda: TableMomentFunctional(MODE, {(X1, X1, X1): 1}, 2),
     DegreeBoundError, "table word exceeds degree bound"),
    ("mode-arities-disagree", lambda: CumulantMomentFunctional(free_mode(2, 1), pair_spec()),
     BifreeInputError, "mode arities disagree with the cumulant data"),
    ("moment-pi-argument-count", lambda: moment_pi(pair_phi(), zero_partition("lr"), [(X1,)]),
     BifreeInputError, "argument count must match |chi|"),
    ("cumulant-chi-argument-count", lambda: cumulant_chi(pair_phi(), "lr", [(X1,)]),
     BifreeInputError, "argument count must match |chi|"),
    ("cumulant-chi-past-the-cap", lambda: cumulant_chi(pair_phi(), "l" * 13, [(X1,)] * 13),
     CapExceededError, "|chi| = 13 exceeds cap 12"),
    ("moments-from-cumulants-argument-count", lambda: moments_from_cumulants(pair_spec(), "lr", [(X1,)]),
     BifreeInputError, "argument count must match |chi|"),
    ("moments-from-cumulants-single-letters",
     lambda: moments_from_cumulants(pair_spec(), "lr", [(X1, X1), (Y1,)]),
     BifreeInputError, "cumulant-specified moments take single letters"),
    ("moments-from-cumulants-degree",
     lambda: moments_from_cumulants(pair_spec(2), "llr", [(X1,), (X1,), (Y1,)]),
     DegreeBoundError, "degree bound exceeded"),
    # words, polynomials and tensors
    ("unknown-mode", lambda: AlgebraMode("boolean", 1, 1),
     BifreeInputError, "unknown mode 'boolean'"),
    ("negative-arity", lambda: AlgebraMode("free", -1, 1),
     BifreeInputError, "arities must be nonnegative"),
    ("letter-index-below-one", lambda: parse_word("X0", MODE),
     ArityError, "letter index must be positive"),
    ("tensor-mul-convention",
     lambda: tensor_mul(TensorPoly.from_pairs([]), TensorPoly.from_pairs([]), "sideways", MODE),
     BifreeInputError, "unknown convention 'sideways'"),
    ("parse-word-sum", lambda: parse_word("X1 + Y1", MODE),
     BifreeInputError, "not a word: 'X1 + Y1'"),
    ("parse-poly-tensor-term", lambda: parse_poly("X1 ⊗ Y1", MODE),
     BifreeInputError, "polynomial term with ⊗: 'X1 ⊗ Y1'"),
    ("parse-tensor-missing-bar", lambda: parse_tensor("X1", MODE),
     BifreeInputError, "tensor term missing ⊗: 'X1'"),
    ("parse-tensor-two-bars", lambda: parse_tensor("X1 ⊗ Y1 ⊗ X1", MODE),
     BifreeInputError, "tensor term with more than one ⊗: 'X1 ⊗ Y1 ⊗ X1'"),
    ("quotient-side", lambda: QuotientKind("x", 1),
     BifreeInputError, "side must be 'l' or 'r', got 'x'"),
    ("quotient-index-below-one", lambda: QuotientKind("l", 0),
     BifreeInputError, "target index must be positive"),
    # lattices
    ("partition-not-bnc", lambda: BNCPartition("llll", ((1, 3), (2, 4))),
     BifreeInputError, "partition ((1, 3), (2, 4)) is not bi-non-crossing for ('l', 'l', 'l', 'l')"),
    ("partitions-over-different-chi", lambda: zero_partition("lr").leq(zero_partition("ll")),
     BifreeInputError, "partitions live over different chi sequences"),
    # Gaussian families
    ("covariance-shape", lambda: gf.Covariance(1, 1, np.eye(3)),
     BifreeInputError, "covariance must be 2x2, got (3, 3)"),
    ("flat-index-left", lambda: cov2().flat_index("l", 2),
     BifreeInputError, "left index 2 out of range 1..1"),
    ("flat-index-right", lambda: cov2().flat_index("r", 0),
     BifreeInputError, "right index 0 out of range 1..1"),
    ("flat-index-side", lambda: cov2().flat_index("x", 1),
     BifreeInputError, "side must be 'l' or 'r', got 'x'"),
    ("fock-empty-covariance", lambda: gf.build_fock_model(gf.Covariance(0, 0, np.zeros((0, 0))), 2),
     BifreeInputError, "empty covariance"),
    ("fock-negative-depth", lambda: gf.build_fock_model(cov2(), -1),
     BifreeInputError, "depth must be nonnegative"),
    ("conjugate-k-out-of-range", lambda: gf.conjugate_coeffs(cov2(), 3),
     BifreeInputError, "k must be in 1..2"),
    # density grids
    ("grid-shape-mismatch", lambda: bp.make_density_grid(np.linspace(0, 1, 3), np.linspace(0, 1, 4),
                                                         np.ones((4, 3))),
     BifreeInputError, "values must have shape (nx, ny) = (3, 4)"),
    ("grid-one-point-axis", lambda: bp.make_density_grid(np.zeros(1), np.linspace(0, 1, 4),
                                                         np.ones((1, 4))),
     BifreeInputError, "need two or more points per axis"),
    # a checked grid has positive marginal mass: only a hand-built one reaches this
    ("marginal-zero-mass",
     lambda: bp.marginals(bp.DensityGrid(*[np.arange(3.0)] * 2, np.zeros((3, 3)), *[np.ones(3)] * 2, 0.0)),
     bp.ZeroMassError, "marginal with zero mass"),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_validation_raise(call, error, message):
    with pytest.raises(BifreeInputError, match="^" + re.escape(message)) as info:
        call()
    assert type(info.value) is error

