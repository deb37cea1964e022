"""Central-limit (Gaussian) families from a covariance matrix.

A covariance over n left and m right coordinates determines a family whose
mixed moments are sums over bi-non-crossing pair partitions, computed by a
pair recursion over intervals of the relabelled order of ``sigma_chi``.  The
same moments fall out of the full Fock space, where lefts act on the head of
a word and rights on its tail; the field operators are applied without a
matrix, by contracting one tensor per word length, and serve as an
independent oracle.  Closed forms:
polynomial conjugate variables solve A b = e_k, Fisher information is
Tr(A^-1), entropy is (n+m)/2 log(2 pi e) + 1/2 log det A, and the entropy
dimension is rank(A), decided once per covariance: an eigenvalue counts
when it exceeds ``SINGULAR_TOL`` times the largest.  So the Fisher
information is finite, the entropy finite, the conjugate variables exist
and the dimension is n+m all together or not at all.  The entropy is also
recovered numerically by integrating the Fisher information of the family
perturbed along A + tI, by a step-halving trapezoid rule in s = log t.

Infinity and minus infinity are returned as ``math.inf`` / ``-math.inf``,
never as sentinel floats.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from ._io import BifreeInputError, NonConvergenceError, integer, read_fields
from .bnclattice import sigma_chi

Pattern = Sequence[tuple[str, int]]

LOG_2PIE = math.log(2 * math.pi * math.e)

#: An eigenvalue counts toward the rank when it exceeds this times the largest.
SINGULAR_TOL = 1e-12
#: Decreasing epsilons on which the limit form of the dimension is extrapolated.
DIMENSION_EPS = tuple(0.25 * 0.5 ** i for i in range(10))


class SingularCovarianceError(BifreeInputError):
    """The covariance is singular: no polynomial conjugate variables exist."""


class RankAmbiguityWarning(UserWarning):
    """An eigenvalue sits too close to the rank threshold to classify."""


@dataclass(frozen=True)
class Covariance:
    """Symmetric positive semidefinite covariance over n lefts and m rights."""

    n: int
    m: int
    A: np.ndarray
    # eigenvalues of A, ascending, clipped at 0 after the PSD check, and their
    # rank: every closed form reads these, so singularity is decided once
    _eigs: np.ndarray = field(init=False, compare=False, repr=False)
    _rank: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        k = integer(self.n, "covariance field 'n'") + integer(self.m, "covariance field 'm'")
        A = np.asarray(self.A, dtype=float)
        if A.shape != (k, k):
            raise BifreeInputError(f"covariance must be {k}x{k}, got {A.shape}")
        if not np.isfinite(A).all():
            raise BifreeInputError("covariance entries must be finite")
        scale = max(1.0, float(np.abs(A).max(initial=0.0)))
        if np.abs(A - A.T).max(initial=0.0) > 1e-10 * scale:
            raise BifreeInputError("covariance must be symmetric")
        A = 0.5 * (A + A.T)
        eigs = np.linalg.eigvalsh(A)
        if k and eigs[0] < -1e-10 * scale:
            raise BifreeInputError("covariance must be positive semidefinite")
        eigs = np.maximum(eigs, 0.0)
        rank = int((eigs > SINGULAR_TOL * eigs.max(initial=0.0)).sum())
        A.setflags(write=False)
        eigs.setflags(write=False)
        for name, value in (("A", A), ("_eigs", eigs), ("_rank", rank)):
            object.__setattr__(self, name, value)

    @property
    def size(self) -> int:
        return self.n + self.m

    def flat_index(self, side: str, index: int) -> int:
        if side == "l":
            if not 1 <= index <= self.n:
                raise BifreeInputError(f"left index {index} out of range 1..{self.n}")
            return index - 1
        if side == "r":
            if not 1 <= index <= self.m:
                raise BifreeInputError(f"right index {index} out of range 1..{self.m}")
            return self.n + index - 1
        raise BifreeInputError(f"side must be 'l' or 'r', got {side!r}")

    def to_json_dict(self) -> dict:
        return {"n": self.n, "m": self.m, "matrix": self.A.tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Covariance":
        fields = read_fields(data, "covariance", {"n": None, "m": None, "matrix": partial(np.asarray, dtype=float)})
        return cls(fields["n"], fields["m"], fields["matrix"])


def gaussian_moment(cov: Covariance, pattern: Pattern) -> float:
    """Mixed moment by the combinatorial formula: sum over bi-non-crossing
    pair partitions of products of covariance entries.  Through ``sigma_chi``
    these are the non-crossing pairings of the relabelled order, summed by
    the recursion M(i, j) = sum_p A[i, p] M(i+1, p) M(p+1, j) over the
    half-open interval [i, j), p = i+1, i+3, ...; zero for odd length."""
    pattern = [(side, index) for side, index in pattern]
    flats = [cov.flat_index(side, index) for side, index in pattern]
    if not flats:
        return 1.0
    if len(flats) % 2:
        return 0.0
    A = cov.A.tolist()
    coords = [flats[v - 1] for v in sigma_chi([side for side, _ in pattern])]

    @lru_cache(maxsize=None)
    def interval(i: int, j: int) -> float:
        # sum over the non-crossing pairings of relabelled positions i..j-1
        if i == j:
            return 1.0
        row = A[coords[i]]
        return sum(
            row[coords[p]] * interval(i + 1, p) * interval(p + 1, j) for p in range(i + 1, j, 2)
        )

    return interval(0, len(coords))


# -- Fock model --------------------------------------------------------------------


@dataclass(frozen=True)
class FockModel:
    """Truncated full Fock space over the n+m coordinates whose vacuum moments
    realize the family.

    A vector is held as one tensor per level, level L of shape (k,)*L with
    axis 0 the head of a word and axis -1 its tail.  Coordinate c acts by
    creation plus annihilation: a left creation puts e_c on the head axis and
    a left annihilation contracts the head axis with A[:, c]; rights do the
    same on the tail.  Moments of total degree <= depth are unaffected by
    the truncation.
    """

    cov: Covariance
    depth: int


def build_fock_model(cov: Covariance, depth: int) -> FockModel:
    if cov.size == 0:
        raise BifreeInputError("empty covariance")
    if depth < 0:
        raise BifreeInputError("depth must be nonnegative")
    return FockModel(cov, depth)


def fock_moment(model: FockModel, pattern: Pattern) -> float:
    """Vacuum expectation of the product of field operators for ``pattern``.

    The operators are applied right to left.  Only levels that can still
    return to the vacuum are carried: after s of N operators, level L needs
    L <= N - s, so no tensor has more than N/2 axes.
    """
    pattern = [(side, index) for side, index in pattern]
    if len(pattern) > model.depth:
        raise BifreeInputError(
            f"pattern length {len(pattern)} exceeds truncation depth {model.depth}"
        )
    cov = model.cov
    unit = np.eye(cov.size)
    remaining = len(pattern)
    levels = {0: np.ones(())}
    for side, index in reversed(pattern):
        c = cov.flat_index(side, index)
        axis = 0 if side == "l" else -1
        remaining -= 1
        out: dict[int, np.ndarray] = {}
        for level, vec in levels.items():
            if level < remaining:
                factors = (unit[c], vec) if axis == 0 else (vec, unit[c])
                out[level + 1] = out.get(level + 1, 0.0) + np.multiply.outer(*factors)
            if level:
                down = np.tensordot(vec, cov.A[:, c], axes=([axis], [0]))
                out[level - 1] = out.get(level - 1, 0.0) + down
        levels = out
    return float(levels.get(0, 0.0))


# -- closed forms ----------------------------------------------------------------


def conjugate_coeffs(cov: Covariance, k: int) -> np.ndarray:
    """Coefficients of the k-th polynomial conjugate variable (1-based k):
    the solution of A b = e_k, i.e. column k of the inverse covariance."""
    if not 1 <= k <= cov.size:
        raise BifreeInputError(f"k must be in 1..{cov.size}")
    if cov._rank < cov.size:
        raise SingularCovarianceError("singular covariance: no polynomial conjugate variable "
                                      "(Fisher information is infinite)")
    e = np.zeros(cov.size)
    e[k - 1] = 1.0
    return np.linalg.solve(cov.A, e)


def fisher(cov: Covariance) -> float:
    """Fisher information Tr(A^-1); infinity when A is singular."""
    return fisher_perturbed(cov, 0.0)


def fisher_perturbed(cov: Covariance, t: float) -> float:
    """Fisher information along the perturbation A + tI: the sum of
    1/(lambda_i + t) over the eigenvalues lambda_i of A, each clipped at 0.
    That sum is finite for t > 0; at t = 0 a singular A gives infinity."""
    if not (math.isfinite(t) and t >= 0):
        raise BifreeInputError(f"t must be finite and nonnegative, got {t}")
    if t == 0 and cov._rank < cov.size:
        return math.inf
    return float((1.0 / (cov._eigs + t)).sum())


def entropy_closed(cov: Covariance) -> float:
    """(n+m)/2 log(2 pi e) + 1/2 log det A; minus infinity when A is singular."""
    if cov._rank < cov.size:
        return -math.inf
    return 0.5 * cov.size * LOG_2PIE + 0.5 * float(np.log(cov._eigs).sum())


# -- entropy by quadrature --------------------------------------------------------


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_bound: float
    evaluations: int


def entropy_quadrature(
    fisher_fn: Callable[[float], float],
    n_plus_m: int,
    tol: float = 1e-9,
) -> QuadResult:
    """Entropy from a Fisher profile t -> Phi(t) of the perturbed family:

        (n+m)/2 log(2 pi e) + 1/2 ∫_0^∞ ( (n+m)/(1+t) - Phi(t) ) dt.

    In s = log t the integrand ((n+m)/(1+t) - Phi(t)) t decays exponentially
    at both ends and is analytic in a strip, where the trapezoid rule
    converges geometrically (Trefethen and Weideman, SIAM Review 56, 2014).
    The rule runs over [log t_lo, log t_hi] and halves its step, reusing
    every earlier point, until two levels differ by less than ``tol``; a
    rule still short of that after a fixed number of halvings raises
    ``NonConvergenceError``.  The cuts are t_lo = 1e-3 tol / max(Phi(0), n+m, 1)
    and t_hi = max(1e8, 1e3 |c2 - (n+m)| / tol), with c2 from the expansion
    Phi(t) = (n+m)/t - c2/t^2 + O(1/t^3); the piece below t_lo is
    ((n+m) - Phi(0)) t_lo and the one above t_hi integrates that expansion
    in closed form.  The returned error bound is half the sum of the last
    level difference, t_lo max(Phi(0), n+m, 1) and a rounding floor of
    1e-15 (n+m) per unit of s.  A profile diverging like nu/t at 0, or
    infinite at 0 (degenerate covariance), yields minus infinity.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise BifreeInputError(f"tol must be finite and positive, got {tol}")
    k = n_plus_m

    # Degenerate families: t * Phi(t) tends to the nullity, not to 0, or
    # Phi(0) is infinite.
    probe_small = 1e-12
    if probe_small * fisher_fn(probe_small) > 0.5:
        return QuadResult(-math.inf, math.inf, 1)
    phi0 = fisher_fn(0.0)
    if phi0 == math.inf:
        return QuadResult(-math.inf, math.inf, 2)

    t2 = 1e8
    c2 = max(0.0, t2 * (k - t2 * fisher_fn(t2)))
    # Past either cut the integrand, and with it the endpoint derivative that
    # the trapezoid rule on a finite interval misses, is below 1e-3 tol.
    scale = max(phi0, k, 1.0)
    t_lo = 1e-3 * tol / scale
    t_hi = max(1e8, 1e3 * abs(c2 - k) / tol)
    s_lo, s_hi = math.log(t_lo), math.log(t_hi)

    def integrand(s: float) -> float:
        t = math.exp(s)
        return (k / (1.0 + t) - fisher_fn(t)) * t

    # 24 panels, halved at most 5 times to 768: a rule that fails costs
    # under 800 profile calls.
    panels = 24
    h = (s_hi - s_lo) / panels
    total = 0.5 * (integrand(s_lo) + integrand(s_hi))
    total += sum(integrand(s_lo + i * h) for i in range(1, panels))
    level = h * total
    for _ in range(5):
        total += sum(integrand(s_lo + (i + 0.5) * h) for i in range(panels))
        panels *= 2
        h *= 0.5
        diff = abs(h * total - level)
        level = h * total
        if diff < tol:
            break
    else:
        raise NonConvergenceError(
            f"trapezoid rule in log t still changed by {diff:.3e} at {panels} panels"
        )

    head = (k - phi0) * t_lo
    tail = -k * math.log1p(1.0 / t_hi) + c2 / t_hi
    value = 0.5 * k * LOG_2PIE + 0.5 * (head + level + tail)
    bound = 0.5 * (diff + t_lo * scale + 1e-15 * k * (s_hi - s_lo))
    # panels + 1 nodes and the three probes
    return QuadResult(value, bound, panels + 4)


# -- entropy dimension -------------------------------------------------------------


def entropy_dimension(cov: Covariance) -> int:
    """Closed form: the rank of A, the count of eigenvalues above
    ``SINGULAR_TOL`` times the largest (0 when A is 0), so n+m exactly when
    the Fisher information is finite.  Eigenvalues within a factor of 10 of
    that cut raise ``RankAmbiguityWarning`` rather than pass silently."""
    cut = SINGULAR_TOL * cov._eigs.max(initial=0.0)
    ambiguous = [float(s) for s in cov._eigs if cut / 10.0 < s < cut * 10.0]
    if ambiguous:
        warnings.warn(f"eigenvalues {ambiguous} lie within a factor of 10 of the rank threshold "
                      f"{cut:.3e}; rank decision is ambiguous", RankAmbiguityWarning, stacklevel=2)
    return cov._rank


def _extrapolate_to_zero(xs: Sequence[float], ys: Sequence[float]) -> float:
    # Neville tableau evaluated at 0.
    xs = list(xs)
    p = list(ys)
    n = len(p)
    for j in range(1, n):
        for i in range(n - j):
            p[i] = (xs[i + j] * p[i] - xs[i] * p[i + 1]) / (xs[i + j] - xs[i])
    return p[0]


def entropy_dimension_limit(fisher_fn: Callable[[float], float], n_plus_m: int) -> float:
    """Limit form of the dimension: (n+m) - lim eps * Phi(eps) as eps -> 0+,
    evaluated on ``DIMENSION_EPS`` with Richardson extrapolation.  It cannot
    see an eigenvalue far below the smallest epsilon (about 4.9e-4): on
    diag(1, 1e-10) it gives about 1, where the closed form gives 2."""
    values = [eps * fisher_fn(eps) for eps in DIMENSION_EPS]
    return n_plus_m - _extrapolate_to_zero(DIMENSION_EPS, values)
