"""Golden-example self-test: closed-form facts checked against the library.

Each check re-derives a known value (a lattice join, worked difference
quotients, the semicircular pair's conjugate variable, Fisher/entropy/dimension
closed forms, the two-variable semicircular density) and raises on any mismatch,
also under ``python -O``.  ``run_selftest`` prints one PASS/FAIL line per item.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import bipartite_num as bp
from . import gaussfam as gf
from .bnclattice import BNCPartition, hat_embed, hat_zero, join, one_partition
from .cumulant import (
    CumulantMomentFunctional,
    cumulant_chi,
    gaussian_cumulant_spec,
)
from .derivation import QuotientKind, adjoint_apply, bifree_dq, conjugate_check
from .ncalg import (
    NCPolynomial,
    TensorPoly,
    bipartite_mode,
    format_tensor,
    free_mode,
    lvar,
    parse_word,
    rvar,
    tensor_star,
)

WORKED_LEFT_WORD = "y1 X1 y1 x1 y2 X1 y3 y1 x2"
WORKED_LEFT = "y1 y1 y2 y3 y1 ⊗ x1 X1 x2 + y1 X1 y1 x1 y2 y3 y1 ⊗ x2"
WORKED_LEFT_FLIPPED = "1 ⊗ y1 y1 x1 y2 X1 y3 y1 x2 + X1 x1 ⊗ y1 y1 y2 y3 y1 x2"

WORKED_RIGHT_WORD = "Y1 x1 Y1 x2 y1 x1 y2 Y1 x3"
WORKED_RIGHT = (
    "x1 x2 x1 x3 ⊗ Y1 y1 y2 Y1 + Y1 x1 x2 x1 x3 ⊗ y1 y2 Y1"
    " + Y1 x1 Y1 x2 y1 x1 y2 x3 ⊗ 1"
)
WORKED_RIGHT_FLIPPED = (
    "1 ⊗ x1 Y1 x2 y1 x1 y2 Y1 x3 + Y1 ⊗ x1 x2 y1 x1 y2 Y1 x3"
    " + Y1 Y1 y1 y2 ⊗ x1 x2 x1 x3"
)


def _require(ok: bool, detail: object) -> None:
    if not ok:  # an explicit raise, which ``python -O`` keeps
        raise AssertionError(detail)


def _semicircular_pair(c: Fraction):
    mode = bipartite_mode(1, 1)
    spec = gaussian_cumulant_spec(1, 1, [[1, c], [c, 1]], degree_bound=10)
    return mode, CumulantMomentFunctional(mode, spec)


def _semicircular_xi(c: Fraction, mode) -> NCPolynomial:
    scale = 1 / (1 - c * c)
    return (
        NCPolynomial.from_letter(lvar(1), scale)
        - NCPolynomial.from_letter(rvar(1), c * scale)
    )


def check_tensor_star_swap() -> None:
    mode = free_mode(1, 1)
    a = parse_word("x1 X1", mode)
    b = parse_word("y1 y2", mode)
    t = TensorPoly.from_words(a, b)
    expected = TensorPoly.from_words(parse_word("y2 y1", mode), parse_word("X1 x1", mode))
    _require(tensor_star(t) == expected, "tensor_star does not swap and reverse the legs")
    _require(tensor_star(TensorPoly.one()) == TensorPoly.one(), "tensor_star moves 1 ⊗ 1")


def check_hat_embedding() -> None:
    chi = ("l", "r", "l")
    chi_prime = ("l", "r")  # positions 3..4
    pi = one_partition(chi)
    top = hat_embed(pi, chi_prime)
    _require(top.blocks == one_partition(top.chi).blocks, f"top embeds as {top.blocks}")
    bottom = hat_zero(chi, chi_prime)
    _require(bottom.blocks == ((1,), (2,), (3, 4)), f"hat_zero gives {bottom.blocks}")


def check_lattice_join() -> None:
    # {1,3} and {2,4} cross in the order 1,2,3,4 of llll, not in the
    # relabelled order 1,3,4,2 of lrlr
    for chi, expected in (("llll", ((1, 2, 3, 4),)), ("lrlr", ((1, 3), (2, 4)))):
        sigma = BNCPartition(tuple(chi), ((1, 3), (2,), (4,)))
        pi = BNCPartition(tuple(chi), ((2, 4), (1,), (3,)))
        got = join(sigma, pi).blocks
        _require(got == expected, f"{{1,3}} v {{2,4}} over {chi} gives {got}")


def check_central_limit_cumulants() -> None:
    c = Fraction(1, 2)
    mode, phi = _semicircular_pair(c)
    s, t = (lvar(1),), (rvar(1),)
    _require(cumulant_chi(phi, ("l", "r"), [s, t]) == c, "pair cumulant is not c")
    letters = {"l": s, "r": t}
    for labels in (("l", "l", "l"), ("l", "r", "l"), ("r", "r", "l"), ("r", "l", "r")):
        args = [letters[lab] for lab in labels]
        _require(cumulant_chi(phi, labels, args) == 0, f"cumulant {labels} does not vanish")


def _check_worked(word_text: str, kind: QuotientKind, expected: str) -> None:
    mode = free_mode(1, 1)
    p = NCPolynomial.from_word(parse_word(word_text, mode))
    got = format_tensor(bifree_dq(p, kind, mode))
    _require(got == expected, f"got {got!r}")


def check_worked_left() -> None:
    _check_worked(WORKED_LEFT_WORD, QuotientKind("l", 1), WORKED_LEFT)


def check_worked_right() -> None:
    _check_worked(WORKED_RIGHT_WORD, QuotientKind("r", 1), WORKED_RIGHT)


def check_worked_flipped_left() -> None:
    _check_worked(WORKED_LEFT_WORD, QuotientKind("l", 1, flipped=True), WORKED_LEFT_FLIPPED)


def check_worked_flipped_right() -> None:
    _check_worked(WORKED_RIGHT_WORD, QuotientKind("r", 1, flipped=True), WORKED_RIGHT_FLIPPED)


def check_conjugate_semicircular() -> None:
    c = Fraction(1, 2)
    mode, phi = _semicircular_pair(c)
    xi = _semicircular_xi(c, mode)
    report = conjugate_check(phi, QuotientKind("l", 1), xi, max_degree=6)
    _require(report.passed, report.first_failure)
    eta = (
        NCPolynomial.from_letter(rvar(1), 1 / (1 - c * c))
        - NCPolynomial.from_letter(lvar(1), c / (1 - c * c))
    )
    report = conjugate_check(phi, QuotientKind("r", 1), eta, max_degree=6)
    _require(report.passed, report.first_failure)


def check_conjugate_independent() -> None:
    mode, phi = _semicircular_pair(Fraction(0))
    xi = NCPolynomial.from_letter(lvar(1))  # pure-left one-variable conjugate
    report = conjugate_check(phi, QuotientKind("l", 1), xi, max_degree=6)
    _require(report.passed, report.first_failure)


def check_adjoint_at_unit() -> None:
    c = Fraction(1, 2)
    mode, phi = _semicircular_pair(c)
    xi = _semicircular_xi(c, mode)
    out = adjoint_apply(phi, xi, TensorPoly.one(), QuotientKind("l", 1, flipped=True))
    _require(out == xi, f"adjoint at 1 ⊗ 1 gives {out}")


def check_fisher_closed_form() -> None:
    cov = gf.Covariance(1, 1, np.array([[1.0, 0.5], [0.5, 1.0]]))
    _require(abs(gf.fisher(cov) - 8.0 / 3.0) < 1e-12, f"fisher {gf.fisher(cov)}, expected 8/3")
    degenerate = gf.Covariance(1, 1, np.array([[1.0, 1.0], [1.0, 1.0]]))
    _require(gf.fisher(degenerate) == math.inf, "singular covariance has finite fisher")


def check_conjugate_coefficients() -> None:
    c = 0.5
    cov = gf.Covariance(1, 1, np.array([[1.0, c], [c, 1.0]]))
    b = gf.conjugate_coeffs(cov, 1)
    expected = np.array([1.0, -c]) / (1.0 - c * c)
    _require(np.allclose(b, expected, atol=1e-12), f"coefficients {b}, expected {expected}")


def check_entropy_closed_instance() -> None:
    cov = gf.Covariance(1, 1, np.array([[1.0, 0.5], [0.5, 1.0]]))
    expected = math.log(2 * math.pi * math.e) + 0.5 * math.log(0.75)
    _require(abs(gf.entropy_closed(cov) - expected) < 1e-12, gf.entropy_closed(cov))


def check_dimension_degenerate() -> None:
    full = gf.Covariance(1, 1, np.array([[1.0, 0.5], [0.5, 1.0]]))
    line = gf.Covariance(1, 1, np.array([[1.0, 1.0], [1.0, 1.0]]))
    _require(gf.entropy_dimension(full) == 2, "full-rank dimension is not 2")
    _require(gf.entropy_dimension(line) == 1, "rank-one dimension is not 1")


def check_semicircular_origin() -> None:
    grid = bp.semicircular_density(0.0, bp.GridSpec(129, 129))
    sampled = grid.values[64, 64] * grid.raw_mass  # undo unit-mass normalization
    _require(abs(sampled - 1.0 / math.pi ** 2) < 1e-12, f"density at the origin {sampled}")


def make_grid_checks(fast: bool):
    n = 192 if fast else 512
    tol = 0.05 if fast else 0.02

    def check_independent_field_constant() -> None:
        grid = bp.semicircular_density(0.0, bp.GridSpec(n, n))
        fld = bp.conjugate_field(grid)
        target = np.where(fld.mask, 0.0, np.broadcast_to(grid.x[:, None], fld.xi_left.shape))
        err = bp.field_l2_error(grid, fld.xi_left, target)
        _require(err < tol, f"relative L2 error {err:.4f} exceeds {tol}")
        # constant across y on the unmasked interior
        rows = slice(n // 4, 3 * n // 4)
        shielded = np.where(~fld.mask, fld.xi_left, np.nan)[rows]
        column_spread = float(np.nanmax(np.nanstd(shielded, axis=1)))
        _require(column_spread < 0.1, f"field varies across y: {column_spread:.4f}")

    def check_linear_field() -> None:
        c = 0.5
        grid = bp.semicircular_density(c, bp.GridSpec(n, n))
        fld = bp.conjugate_field(grid)
        target = (grid.x[:, None] - c * grid.y[None, :]) / (1.0 - c * c)
        err = bp.field_l2_error(grid, fld.xi_left, np.where(fld.mask, 0.0, target))
        _require(err < tol, f"relative L2 error {err:.4f} exceeds {tol}")

    def check_numeric_fisher() -> None:
        for c in (0.0, 0.5):
            grid = bp.semicircular_density(c, bp.GridSpec(n, n))
            value = bp.fisher_numeric(grid)
            target = 2.0 / (1.0 - c * c)
            _require(abs(value - target) / target < tol, (c, value, target))

    return [
        ("independent-conjugate-field-constant", check_independent_field_constant),
        ("linear-conjugate-field", check_linear_field),
        ("numeric-fisher-semicircular", check_numeric_fisher),
    ]


def all_checks(fast: bool = False):
    checks = [
        ("tensor-star-swap", check_tensor_star_swap),
        ("hat-embedding", check_hat_embedding),
        ("lattice-join", check_lattice_join),
        ("central-limit-pair-cumulants", check_central_limit_cumulants),
        ("difference-quotient-left", check_worked_left),
        ("difference-quotient-right", check_worked_right),
        ("difference-quotient-flipped-left", check_worked_flipped_left),
        ("difference-quotient-flipped-right", check_worked_flipped_right),
        ("conjugate-variable-semicircular-pair", check_conjugate_semicircular),
        ("conjugate-variable-independent-pair", check_conjugate_independent),
        ("adjoint-at-unit", check_adjoint_at_unit),
        ("fisher-closed-form", check_fisher_closed_form),
        ("conjugate-coefficients-2x2", check_conjugate_coefficients),
        ("entropy-closed-form-instance", check_entropy_closed_instance),
        ("entropy-dimension-degenerate", check_dimension_degenerate),
        ("semicircular-density-origin", check_semicircular_origin),
    ]
    checks.extend(make_grid_checks(fast))
    return checks


def run_selftest(fast: bool = False) -> int:
    checks = all_checks(fast)
    failures = 0
    for name, fn in checks:
        try:
            fn()
        except Exception as exc:  # report and keep going
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    print(
        f"{'OK' if not failures else 'FAILED'}: "
        f"{len(checks) - failures}/{len(checks)} golden checks passed"
    )
    return 0 if not failures else 1
