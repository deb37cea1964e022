"""Every validation raise of the public API, one case each: the call, the
exact error type it raises and the start of its message."""

import math
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
    spec_from_json_dict,
)
from bifree.derivation import QuotientKind
from bifree.ncalg import (
    AlgebraMode,
    ArityError,
    NCPolynomial,
    TensorPoly,
    bipartite_mode,
    free_mode,
    lsym,
    lvar,
    parse_poly,
    parse_tensor,
    parse_word,
    rsym,
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
    # the integer rule and the rational reader, applied by the constructors
    ("spec-float-arity", lambda: CumulantSpec(1.5, 1, {}),
     BifreeInputError, "cumulant spec field 'n' must be an integer, got 1.5"),
    ("spec-bool-arity", lambda: CumulantSpec(1, True, {}),
     BifreeInputError, "cumulant spec field 'm' must be an integer, got True"),
    ("spec-float-degree-bound", lambda: CumulantSpec(1, 1, {}, 4.0),
     BifreeInputError, "cumulant spec field 'degree_bound' must be an integer, got 4.0"),
    ("spec-degree-bound-past-the-cap", lambda: CumulantSpec(1, 1, {}, 2 ** 70),
     BifreeInputError, "degree bound 1180591620717411303424 exceeds the cap 1000"),
    ("spec-float-pattern-index", lambda: CumulantSpec(1, 1, {(("l", 1.5),): 1}),
     BifreeInputError, "cumulant spec pattern index must be an integer, got 1.5"),
    ("spec-bool-pattern-index", lambda: CumulantSpec(1, 1, {(("l", 1), ("l", True)): 1}),
     BifreeInputError, "cumulant spec pattern index must be an integer, got True"),
    ("spec-junk-value", lambda: CumulantSpec(1, 1, {(("l", 1),): "abc"}),
     BifreeInputError, "cumulant spec entry field 'value' must be a rational, got 'abc'"),
    ("spec-nan-value", lambda: CumulantSpec(1, 1, {(("l", 1),): math.nan}),
     BifreeInputError, "cumulant spec entry field 'value' must be a rational, got nan"),
    ("spec-zero-denominator", lambda: CumulantSpec(1, 1, {(("l", 1),): "1/0"}),
     BifreeInputError, "cumulant spec entry field 'value' has a zero denominator: '1/0'"),
    ("gaussian-spec-float-arity", lambda: gaussian_cumulant_spec(1.0, 1, [[1, 0], [0, 1]]),
     BifreeInputError, "cumulant spec field 'n' must be an integer, got 1.0"),
    ("gaussian-spec-bool-entry", lambda: gaussian_cumulant_spec(1, 1, [[True, 0], [0, 1]]),
     BifreeInputError, "covariance table entry must be a rational, got True"),
    ("table-inf-moment", lambda: TableMomentFunctional(MODE, {(X1,): math.inf}),
     BifreeInputError, "table moment must be a rational, got inf"),
    ("table-float-degree-bound", lambda: TableMomentFunctional(MODE, {}, 2.0),
     BifreeInputError, "table degree bound must be an integer, got 2.0"),
    # words, polynomials and tensors
    ("unknown-mode", lambda: AlgebraMode("boolean", 1, 1),
     BifreeInputError, "unknown mode 'boolean'"),
    ("negative-arity", lambda: AlgebraMode("free", -1, 1),
     BifreeInputError, "arities must be nonnegative"),
    ("bool-arity", lambda: bipartite_mode(True, 1),
     BifreeInputError, "left arity must be an integer, got True"),
    ("float-arity", lambda: AlgebraMode("free", 1, 1.5),
     BifreeInputError, "right arity must be an integer, got 1.5"),
    ("lvar-float-index", lambda: lvar(1.5), BifreeInputError, "letter index must be an integer, got 1.5"),
    ("lvar-bool-index", lambda: lvar(True), BifreeInputError, "letter index must be an integer, got True"),
    ("rvar-float-index", lambda: rvar(2.0), BifreeInputError, "letter index must be an integer, got 2.0"),
    ("lsym-string-index", lambda: lsym("1"), BifreeInputError, "letter index must be an integer, got '1'"),
    ("rsym-none-index", lambda: rsym(None), BifreeInputError, "letter index must be an integer, got None"),
    ("parse-poly-bad-token", lambda: parse_poly("Q7", MODE),
     BifreeInputError, "a token that is not a letter must be a rational, got 'Q7'"),
    ("parse-poly-bad-coefficient", lambda: parse_poly("inf*X1", MODE),
     BifreeInputError, "coefficient must be a rational, got 'inf'"),
    ("parse-poly-zero-denominator", lambda: parse_poly("1/0 X1", MODE),
     BifreeInputError, "a token that is not a letter has a zero denominator: '1/0'"),
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
    ("quotient-float-index", lambda: QuotientKind("l", 1.5),
     BifreeInputError, "quotient index must be an integer, got 1.5"),
    # lattices
    ("partition-not-bnc", lambda: BNCPartition("llll", ((1, 3), (2, 4))),
     BifreeInputError, "partition ((1, 3), (2, 4)) is not bi-non-crossing for ('l', 'l', 'l', 'l')"),
    ("partitions-over-different-chi", lambda: zero_partition("lr").leq(zero_partition("ll")),
     BifreeInputError, "partitions live over different chi sequences"),
    # Gaussian families
    ("covariance-shape", lambda: gf.Covariance(1, 1, np.eye(3)),
     BifreeInputError, "covariance must be 2x2, got (3, 3)"),
    ("covariance-float-arity", lambda: gf.Covariance(1.0, 1, np.eye(2)),
     BifreeInputError, "covariance field 'n' must be an integer, got 1.0"),
    ("covariance-bool-arity", lambda: gf.Covariance(1, True, np.eye(2)),
     BifreeInputError, "covariance field 'm' must be an integer, got True"),
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
    ("grid-float-size", lambda: bp.GridSpec(3.5, 3),
     BifreeInputError, "grid field 'nx' must be an integer, got 3.5"),
    ("grid-bool-size", lambda: bp.GridSpec(3, True),
     BifreeInputError, "grid field 'ny' must be an integer, got True"),
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



TENTH = Fraction(1, 10)
CUMULANT_READERS = {
    "CumulantSpec": lambda v: CumulantSpec(1, 1, {(("l", 1),): v}).kappa((("l", 1),)),
    "spec_from_json_dict": lambda v: spec_from_json_dict(
        {"n": 1, "m": 1, "entries": [{"pattern": [["l", 1]], "value": v}]}).kappa((("l", 1),)),
    "gaussian_cumulant_spec": lambda v: gaussian_cumulant_spec(1, 1, [[1, v], [v, 1]]).kappa((("l", 1), ("r", 1))),
    "TableMomentFunctional": lambda v: TableMomentFunctional(MODE, {(X1,): v}).phi((X1,)),
    "parse_poly-coefficient": lambda v: parse_poly(f"{v}*X1", MODE).coeff((X1,)),
    "parse_poly-bare-token": lambda v: parse_poly(f"{v} X1", MODE).coeff((X1,)),
}


@pytest.mark.parametrize("reader", CUMULANT_READERS.values(), ids=CUMULANT_READERS)
@pytest.mark.parametrize("value", [0.1, "1/10", TENTH, "1e-1"], ids=["float", "slash", "Fraction", "exponent"])
def test_one_rational_reads_alike_through_every_reader(reader, value):
    read = reader(value)
    assert read == TENTH and type(read) is Fraction


def test_a_bare_number_is_a_scalar_term():
    assert parse_poly("0.1 + 1e3 - 3/4", MODE) == NCPolynomial.one().scale(Fraction(1, 10) + 1000 - Fraction(3, 4))
