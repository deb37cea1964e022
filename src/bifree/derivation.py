"""Symbolic difference quotients, conjugate-variable checks, and adjoint recursion.

Four quotients act on noncommutative polynomials.  On a word, each occurrence
of the target variable splits the word into a prefix A and suffix B; writing
``own`` for the side subword (relative order kept) of the target's side and
``other`` for that of the opposite side:

* left, right:                  (A · other(B)) ⊗ own(B)
* flipped left, flipped right:  own(A) ⊗ (other(A) · B)

These are the compositions of the side-splitting homomorphisms and the
collapse map with the free derivation.  In bipartite mode the quotient acts
on the canonical representative of each word, and the legs of a normal form
are normal forms again: the prefix of a left target holds only lefts and the
suffix of a right target only rights (the maps descend to the commutation
quotient, which the test suite verifies).

The quotients, the scalar identity, ``conjugate_check`` and the adjoints of
the flipped quotients all take their terms from this one leg formula,
``_legs``, and form no tensor product.

``conjugate_check`` walks the words degree by degree.  A degree at which no
word Z w (w a term of xi) and no leg pair of Z has a length in the moment
functional's reach is 0 = 0 word for word, so its words are counted by a
closed form and never read; under a pair-only (Gaussian) specification with
a linear xi, those are the even degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import TYPE_CHECKING, Iterator

from ._io import BifreeInputError, integer
from .ncalg import (
    LEFT,
    RIGHT,
    VAR,
    AlgebraMode,
    Letter,
    NCPolynomial,
    TensorPoly,
    Word,
    normal_form,
    normalize_poly,
)

if TYPE_CHECKING:
    from .cumulant import MomentFunctional


@dataclass(frozen=True)
class QuotientKind:
    """Which quotient to apply: side, target variable index, flipped or not."""

    side: str
    index: int
    flipped: bool = False

    def __post_init__(self) -> None:
        if self.side not in (LEFT, RIGHT):
            raise BifreeInputError(f"side must be 'l' or 'r', got {self.side!r}")
        if integer(self.index, "quotient index") < 1:
            raise BifreeInputError("target index must be positive")

    @property
    def target(self) -> Letter:
        return Letter(self.side, self.index, VAR)


def _lefts(word: Word) -> Word:
    return tuple(l for l in word if l.side == LEFT)


def _rights(word: Word) -> Word:
    return tuple(l for l in word if l.side == RIGHT)


def _legs(word: Word, kind: QuotientKind) -> Iterator[tuple[Word, Word]]:
    """The legs of ``kind``'s quotient of one word, one pair per occurrence
    of the target (see module docstring); normal forms for a normal form."""
    own, other = (_lefts, _rights) if kind.side == LEFT else (_rights, _lefts)
    target = kind.target
    for pos, current in enumerate(word):
        if current == target:
            prefix, suffix = word[:pos], word[pos + 1:]
            if kind.flipped:
                yield own(prefix), other(prefix) + suffix
            else:
                yield prefix + other(suffix), own(suffix)


def free_dq(p: NCPolynomial, letter: Letter, mode: AlgebraMode) -> TensorPoly:
    """Free difference quotient: prefix ⊗ suffix over occurrences of ``letter``.

    The target must be a declared variable.  In bipartite mode the quotient
    acts on the canonical representative of each word.
    """
    if letter.kind != VAR:
        raise BifreeInputError(f"cannot differentiate in the subalgebra symbol {letter.token()}")
    mode.check_letter(letter)
    pairs = []
    for word, coeff in p.items():
        mode.check_word(word)
        word = normal_form(word, mode)
        for pos, current in enumerate(word):
            if current == letter:
                pairs.append(((word[:pos], word[pos + 1:]), coeff))
    return TensorPoly.from_pairs(pairs)


def bifree_dq(p: NCPolynomial, kind: QuotientKind, mode: AlgebraMode) -> TensorPoly:
    """One of the four two-faced difference quotients (see module docstring)."""
    mode.check_letter(kind.target)
    pairs = []
    for word, coeff in p.items():
        mode.check_word(word)
        for legs in _legs(normal_form(word, mode), kind):
            pairs.append((legs, coeff))
    return TensorPoly.from_pairs(pairs)


def scalar_identity_residual(p: NCPolynomial, mode: AlgebraMode) -> TensorPoly:
    """Residual of the commutator identity characterizing scalars.

    For a bipartite polynomial P in the declared variables, the sum of the
    left-quotient commutators minus the leg-swapped sum of the right-quotient
    commutators equals P ⊗ 1 - 1 ⊗ P; the returned tensor is the left side
    minus the right side and vanishes identically.  Each leg pair a ⊗ b of
    the quotient in t gives the commutator terms a·t ⊗ b - a ⊗ t·b, read
    from ``_legs`` and summed once.
    """
    if not mode.bipartite:
        raise BifreeInputError("the scalar identity lives in bipartite mode")
    for word, _ in p.items():
        for letter in word:
            if letter.kind != VAR:
                raise BifreeInputError("the scalar identity covers variables only")
    kinds = [QuotientKind(LEFT, i) for i in range(1, mode.left_arity + 1)]
    kinds += [QuotientKind(RIGHT, j) for j in range(1, mode.right_arity + 1)]
    pairs = []
    for word, c in normalize_poly(p, mode).items():
        mode.check_word(word)
        for kind in kinds:
            t = (kind.target,)
            for a, b in _legs(word, kind):
                at, tb = normal_form(a + t, mode), normal_form(t + b, mode)
                if kind.side == LEFT:
                    pairs += [((at, b), c), ((a, tb), -c)]
                else:
                    pairs += [((b, at), -c), ((tb, a), c)]
        pairs += [((word, ()), -c), (((), word), c)]
    return TensorPoly.from_pairs(pairs)


# -- conjugate variables -------------------------------------------------------


def enumerate_words(mode: AlgebraMode, max_degree: int) -> Iterator[Word]:
    """Canonical words in the declared variables up to the degree bound.

    Bipartite mode yields normal forms (left word times right word); free
    mode yields every word.  The empty word comes first, then by degree.
    """
    for degree in range(max_degree + 1):
        yield from _degree_words(mode, degree)


def _degree_words(mode: AlgebraMode, degree: int) -> Iterator[Word]:
    """The canonical words of one degree, in ``enumerate_words`` order."""
    lefts = [Letter(LEFT, i + 1, VAR) for i in range(mode.left_arity)]
    rights = [Letter(RIGHT, j + 1, VAR) for j in range(mode.right_arity)]
    if not mode.bipartite:
        yield from product(lefts + rights, repeat=degree)
        return
    for a in range(degree, -1, -1):
        for lw in product(lefts, repeat=a):
            for rw in product(rights, repeat=degree - a):
                yield lw + rw


def _degree_count(mode: AlgebraMode, degree: int) -> int:
    """How many words ``_degree_words`` yields, by a closed form."""
    n, m = mode.left_arity, mode.right_arity
    if not mode.bipartite:
        return (n + m) ** degree
    return sum(n ** a * m ** (degree - a) for a in range(degree + 1))


@dataclass(frozen=True)
class ConjugateReport:
    """Outcome of checking the defining moment identity on a finite word set."""

    kind: QuotientKind
    max_degree: int
    checked: int
    failures: tuple[tuple[Word, Fraction, Fraction], ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def first_failure(self) -> tuple[Word, Fraction, Fraction] | None:
        return self.failures[0] if self.failures else None


def conjugate_check(
    phi: MomentFunctional,
    kind: QuotientKind,
    xi: NCPolynomial,
    max_degree: int,
    mode: AlgebraMode | None = None,
) -> ConjugateReport:
    """Compare phi(Z xi) with (phi ⊗ phi) of the quotient of Z, exactly,
    for every word Z in the declared variables up to ``max_degree``.

    xi and the target are checked, and xi brought to normal form, once; a
    check whose words would take phi past its degree bound raises
    ``DegreeBoundError``, and an xi letter that phi does not cover raises,
    before phi is read.  By linearity the left side is the sum of c phi(Z w)
    over xi's terms c w, so no product polynomial is built; in bipartite
    mode the normal form of Z w is spliced from the sides of Z and w, split
    once.  The right side reads the legs of each Z, a normal form, directly.
    Both sides are summed per denominator as ints and compared by
    cross-multiplication; only a failure is turned into ``Fraction``s.

    A degree d is dead when no length d + l of an xi term and no pair of leg
    lengths a + (d - 1 - a) lies in phi's reach: both sides of every word of
    degree d are then 0, so its words pass unread and are only counted.
    """
    if kind.flipped:
        raise BifreeInputError("conjugate variables pair with the non-flipped quotients")
    if max_degree < 0:
        raise BifreeInputError(f"max_degree must be nonnegative, got {max_degree}")
    mode = mode or phi.mode
    mode.check_letter(kind.target)
    for word, _ in xi.items():
        mode.check_word(word)
    xi = normalize_poly(xi, mode)
    # the longest word read is Z w, or with xi zero a leg of Z = target^max_degree
    phi._check_degree(max_degree - 1 if xi.is_zero else max_degree + xi.degree())
    for word, _ in xi.items():
        phi._check_letters(word)
    if mode.bipartite:
        # Z = L·R and each term of xi is L'·R', so the normal form of Z w is L·L'·R·R'
        split = [(_lefts(w), _rights(w), c) for w, c in xi.items()]

        def times_xi(word: Word):
            k = len(_lefts(word))
            return ((word[:k] + left + word[k:] + right, c) for left, right, c in split)
    else:
        xi_terms = list(xi.items())

        def times_xi(word: Word):
            return ((word + w, c) for w, c in xi_terms)

    reach = phi._reach
    xi_lengths = {len(w) for w, _ in xi.items()}
    checked = 0
    failures: list[tuple[Word, Fraction, Fraction]] = []
    for degree in range(max_degree + 1):
        checked += _degree_count(mode, degree)
        if not (any(degree + l in reach for l in xi_lengths)
                or any(a in reach and degree - 1 - a in reach for a in range(degree))):
            continue
        for word in _degree_words(mode, degree):
            lhs_num, lhs_den = phi._poly_pair(times_xi(word))
            rhs_num, rhs_den = phi._tensor_pair((legs, 1) for legs in _legs(word, kind))
            if lhs_num * rhs_den != rhs_num * lhs_den:
                failures.append((word, Fraction(lhs_num, lhs_den), Fraction(rhs_num, rhs_den)))
    return ConjugateReport(kind, max_degree, checked, tuple(failures))


# -- adjoints of the flipped quotients ------------------------------------------


def _validate_adjoint_leg(word: Word, side: str, which: str) -> None:
    for letter in word:
        if letter.side != side:
            raise BifreeInputError(
                f"{which} tensor leg must be pure-{'left' if side == LEFT else 'right'}; "
                f"got letter {letter.token()} (adjoint domain beyond this span is unsettled)"
            )


def adjoint_apply(
    phi: MomentFunctional,
    xi: NCPolynomial,
    eta: TensorPoly,
    kind: QuotientKind,
    mode: AlgebraMode | None = None,
) -> NCPolynomial:
    """Apply the adjoint of a flipped quotient to a polynomial tensor.

    ``xi`` is the value of the adjoint at 1 ⊗ 1 (the conjugate variable).  A
    term u ⊗ v with u from the quotient's own side and v from the opposite
    side is peeled as (u ⊗ 1)(1 ⊗ v)(1 ⊗ 1), giving

        u v xi - (phi ⊗ id)( dq(u*)^[*] (1 ⊗ v) )

    where ^[*] is the componentwise involution.  The result is independent of
    how u is peeled into factors.
    """
    if not kind.flipped:
        raise BifreeInputError("adjoint_apply takes a flipped quotient kind")
    mode = mode or phi.mode
    mode.check_letter(kind.target)
    for word, _ in xi.items():
        mode.check_word(word)
    own_side = kind.side
    other_side = RIGHT if own_side == LEFT else LEFT
    terms = []
    for (u, v), coeff in eta.items():
        _validate_adjoint_leg(u, own_side, "first")
        _validate_adjoint_leg(v, other_side, "second")
        mode.check_word(u + v)
        terms.extend((normal_form(u + v + w, mode), coeff * c) for w, c in xi.items())
        # the correction: each leg pair a ⊗ b of dq(u*) takes away phi(a*) b* v;
        # u is single-sided, so u* is its own normal form
        for a, b in _legs(u[::-1], kind):
            terms.append((normal_form(b[::-1] + v, mode), -coeff * phi.phi(a[::-1])))
    return NCPolynomial.from_pairs(terms)
