"""Exact symbolic algebra of noncommutative polynomials in left and right letters.

Letters come in two sides and two kinds: indexed variables (``X1..Xn`` on the
left, ``Y1..Ym`` on the right) and opaque subalgebra symbols (``x1, x2, ...``
and ``y1, y2, ...``).  Polynomials are finite linear combinations of words
with exact rational coefficients.  Two regimes exist:

* ``free`` -- no relations at all;
* ``bipartite`` -- every left letter commutes with every right letter, and
  words are stored in the canonical normal form with all left letters first
  (relative order within each side preserved).

All values are immutable after construction and every operation is pure, so
everything here is safe to share between threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple

from ._io import BifreeInputError, integer, rational

LEFT = "l"
RIGHT = "r"
VAR = "var"
SYM = "sym"

STRAIGHT = "straight"
OPPOSITE = "opposite-second-leg"


class ArityError(BifreeInputError):
    """A letter is outside the declared arities, or arities disagree."""


class Letter(NamedTuple):
    side: str
    index: int
    kind: str = VAR

    def sort_key(self) -> tuple[int, int, int]:
        return (0 if self.side == LEFT else 1, 0 if self.kind == VAR else 1, self.index)

    def token(self) -> str:
        if self.kind == VAR:
            return ("X" if self.side == LEFT else "Y") + str(self.index)
        return ("x" if self.side == LEFT else "y") + str(self.index)


def lvar(i: int) -> Letter:
    return Letter(LEFT, integer(i, "letter index"), VAR)


def rvar(j: int) -> Letter:
    return Letter(RIGHT, integer(j, "letter index"), VAR)


def lsym(i: int) -> Letter:
    return Letter(LEFT, integer(i, "letter index"), SYM)


def rsym(j: int) -> Letter:
    return Letter(RIGHT, integer(j, "letter index"), SYM)


Word = tuple[Letter, ...]
EMPTY_WORD: Word = ()


@dataclass(frozen=True)
class AlgebraMode:
    """Computation regime: ``free`` or ``bipartite``, plus variable arities.

    Arities bound the *variable* indices only; subalgebra symbols may use any
    positive index (the side subalgebras are not finitely generated).
    """

    mode: str
    left_arity: int
    right_arity: int

    def __post_init__(self) -> None:
        if self.mode not in ("free", "bipartite"):
            raise BifreeInputError(f"unknown mode {self.mode!r}")
        if min(integer(self.left_arity, "left arity"), integer(self.right_arity, "right arity")) < 0:
            raise BifreeInputError("arities must be nonnegative")

    @property
    def bipartite(self) -> bool:
        return self.mode == "bipartite"

    def check_letter(self, letter: Letter) -> None:
        if letter.index < 1:
            raise ArityError(f"letter index must be positive: {letter}")
        if letter.kind == VAR:
            arity = self.left_arity if letter.side == LEFT else self.right_arity
            if letter.index > arity:
                raise ArityError(
                    f"variable {letter.token()} exceeds declared arity {arity}"
                )

    def check_word(self, word: Word) -> None:
        for letter in word:
            self.check_letter(letter)


def free_mode(n: int, m: int) -> AlgebraMode:
    return AlgebraMode("free", n, m)


def bipartite_mode(n: int, m: int) -> AlgebraMode:
    return AlgebraMode("bipartite", n, m)


def normal_form(word: Word, mode: AlgebraMode) -> Word:
    """Canonical representative of a word.

    In bipartite mode all left letters are moved before all right letters (a
    stable partition by side, valid because only left-right commutations
    hold).  In free mode the word is returned unchanged.
    """
    if not mode.bipartite:
        return word
    return tuple(l for l in word if l.side == LEFT) + tuple(
        l for l in word if l.side == RIGHT
    )


def word_sort_key(word: Word) -> tuple:
    return (len(word), tuple(l.sort_key() for l in word))


def format_word(word: Word) -> str:
    if not word:
        return "1"
    return " ".join(l.token() for l in word)


def _accumulate(terms: dict, pairs: Iterable[tuple[object, Fraction]]) -> dict:
    """Add ``pairs`` into ``terms`` in place, dropping keys whose sum is zero."""
    for key, coeff in pairs:
        if coeff:
            acc = terms.get(key)
            if acc is None:
                terms[key] = coeff
            else:
                acc = acc + coeff
                if acc:
                    terms[key] = acc
                else:
                    del terms[key]
    return terms


class _LinearCombination:
    """Finitely many keys with nonzero rational coefficients.

    A subclass fixes the key: ``_key`` normalizes one and ``_key_literal``
    writes it in literal syntax.  Equality is type-strict, so a polynomial
    never equals a tensor, not even the zero ones.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | None = None):
        data = {}
        if terms:
            for key, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff:
                    data[self._key(key)] = coeff
        self._terms = data

    @classmethod
    def _of(cls, terms: dict):
        combo = cls.__new__(cls)
        combo._terms = terms
        return combo

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[object, Fraction | int]]):
        # stored coefficients are exactly Fraction: only other types are converted
        return cls._of(_accumulate({}, (
            (cls._key(k), c if type(c) is Fraction else Fraction(c)) for k, c in pairs
        )))

    def items(self) -> Iterator[tuple[object, Fraction]]:
        return iter(self._terms.items())

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other):
        return self._of(_accumulate(dict(self._terms), other._terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._of({k: -c for k, c in self._terms.items()})

    def scale(self, coeff: Fraction | int):
        coeff = Fraction(coeff)
        return self._of({k: c * coeff for k, c in self._terms.items()} if coeff else {})

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({_format_literal(self)!r})"


class NCPolynomial(_LinearCombination):
    """A noncommutative polynomial: finitely many words with rational coefficients."""

    __slots__ = ()
    _key = staticmethod(tuple)
    _key_literal = staticmethod(format_word)

    @classmethod
    def one(cls) -> "NCPolynomial":
        return cls({EMPTY_WORD: Fraction(1)})

    @classmethod
    def from_word(cls, word: Word, coeff: Fraction | int = 1) -> "NCPolynomial":
        return cls({tuple(word): Fraction(coeff)})

    @classmethod
    def from_letter(cls, letter: Letter, coeff: Fraction | int = 1) -> "NCPolynomial":
        return cls({(letter,): Fraction(coeff)})

    def coeff(self, word: Word) -> Fraction:
        return self._terms.get(tuple(word), Fraction(0))

    def degree(self) -> int:
        return max((len(w) for w in self._terms), default=0)

    def sorted_terms(self) -> list[tuple[Word, Fraction]]:
        return sorted(self._terms.items(), key=lambda kv: word_sort_key(kv[0]))


def normalize_poly(p: NCPolynomial, mode: AlgebraMode) -> NCPolynomial:
    if not mode.bipartite:
        return p
    return NCPolynomial.from_pairs((normal_form(w, mode), c) for w, c in p.items())


def mul(p: NCPolynomial, q: NCPolynomial, mode: AlgebraMode) -> NCPolynomial:
    """Bilinear concatenation product; re-normalized in bipartite mode."""
    pairs = []
    for wp, cp in p.items():
        mode.check_word(wp)
        for wq, cq in q.items():
            pairs.append((normal_form(wp + wq, mode), cp * cq))
    for wq, _ in q.items():
        mode.check_word(wq)
    return NCPolynomial.from_pairs(pairs)


def star(p: NCPolynomial) -> NCPolynomial:
    """Involution: words reversed, letters self-adjoint, coefficients rational."""
    return NCPolynomial.from_pairs((tuple(reversed(w)), c) for w, c in p.items())


class TensorPoly(_LinearCombination):
    """An element of the tensor square: rational combination of word pairs."""

    __slots__ = ()

    @staticmethod
    def _key(key: tuple[Word, Word]) -> tuple[Word, Word]:
        w1, w2 = key
        return (tuple(w1), tuple(w2))

    @staticmethod
    def _key_literal(key: tuple[Word, Word]) -> str:
        return f"{format_word(key[0])} ⊗ {format_word(key[1])}"

    @classmethod
    def one(cls) -> "TensorPoly":
        return cls({(EMPTY_WORD, EMPTY_WORD): Fraction(1)})

    @classmethod
    def from_words(cls, w1: Word, w2: Word, coeff: Fraction | int = 1) -> "TensorPoly":
        return cls({(tuple(w1), tuple(w2)): Fraction(coeff)})

    def sorted_terms(self) -> list[tuple[tuple[Word, Word], Fraction]]:
        def key(kv):
            (w1, w2), _ = kv
            return (len(w1) + len(w2), word_sort_key(w1), word_sort_key(w2))

        return sorted(self._terms.items(), key=key)


def tensor_of(p: NCPolynomial, q: NCPolynomial) -> TensorPoly:
    """Elementary tensor of two polynomials, extended bilinearly."""
    return TensorPoly.from_pairs(
        (((wp, wq)), cp * cq) for wp, cp in p.items() for wq, cq in q.items()
    )


def tensor_mul(s: TensorPoly, t: TensorPoly, convention: str, mode: AlgebraMode) -> TensorPoly:
    """Product on the tensor square under the named multiplication convention.

    ``straight`` multiplies both legs in order; ``opposite-second-leg``
    reverses the order of multiplication in the second leg.
    """
    if convention not in (STRAIGHT, OPPOSITE):
        raise BifreeInputError(f"unknown convention {convention!r}")
    pairs = []
    for (a1, a2), ca in s.items():
        mode.check_word(a1)
        mode.check_word(a2)
        for (b1, b2), cb in t.items():
            first = normal_form(a1 + b1, mode)
            if convention == STRAIGHT:
                second = normal_form(a2 + b2, mode)
            else:
                second = normal_form(b2 + a2, mode)
            pairs.append(((first, second), ca * cb))
    for (b1, b2), _ in t.items():
        mode.check_word(b1)
        mode.check_word(b2)
    return TensorPoly.from_pairs(pairs)


def tensor_star(t: TensorPoly) -> TensorPoly:
    """Adjoint on the tensor square: legs swapped and starred individually."""
    return TensorPoly.from_pairs(
        (((tuple(reversed(w2)), tuple(reversed(w1)))), c) for (w1, w2), c in t.items()
    )


def normalize_tensor(t: TensorPoly, mode: AlgebraMode) -> TensorPoly:
    if not mode.bipartite:
        return t
    return TensorPoly.from_pairs(
        (((normal_form(w1, mode), normal_form(w2, mode))), c) for (w1, w2), c in t.items()
    )


# ---------------------------------------------------------------------------
# Literal syntax.
#
# A polynomial literal is a list of terms joined by the standalone tokens
# ``+`` / ``-``; a term is an optional rational coefficient (``3/4*``
# attached, or a bare number for a scalar term) followed by letter tokens
# separated by spaces, e.g. ``3/4*X1 Y2 X1 + x1 - 2``.  Every coefficient
# and every token that is not a letter is read by ``_io.rational`` (``0.1``
# is 1/10).  ``1`` denotes the empty word.  Tensor literals put ``⊗``
# between the two legs of each term.
# ---------------------------------------------------------------------------

_LETTER_RE = re.compile(r"^([XYxy])(\d+)$")

_TOKEN_SIDE = {"X": (LEFT, VAR), "Y": (RIGHT, VAR), "x": (LEFT, SYM), "y": (RIGHT, SYM)}


def letter_from_token(token: str) -> Letter:
    match = _LETTER_RE.match(token)
    if not match:
        raise BifreeInputError(f"bad letter token {token!r}")
    side, kind = _TOKEN_SIDE[match.group(1)]
    return Letter(side, int(match.group(2)), kind)


def _literal_terms(text: str) -> list[tuple[Fraction, list[Word]]]:
    """The terms of a polynomial or tensor literal as (coefficient, legs).

    Legs are split at ``⊗`` (or ``(x)``); their letters are as written, with
    no normal form and no arity check.
    """
    terms = []
    sign, coeff, legs = 1, Fraction(1), None
    for token in text.replace("⊗", " ⊗ ").replace("(x)", " ⊗ ").split() + ["+"]:
        if token in ("+", "-"):
            if legs is not None:
                terms.append((sign * coeff, [tuple(leg) for leg in legs]))
            sign, coeff, legs = (-1 if token == "-" else 1), Fraction(1), None
            continue
        if legs is None:
            legs = [[]]
        if token == "⊗":
            legs.append([])
            continue
        if "*" in token:
            number, _, token = token.partition("*")
            coeff *= rational(number, "coefficient")
        if _LETTER_RE.match(token):
            legs[-1].append(letter_from_token(token))
        elif token:
            coeff *= rational(token, "a token that is not a letter")
    return terms


def _checked(word: Word, mode: AlgebraMode) -> Word:
    word = normal_form(word, mode)
    mode.check_word(word)
    return word


def parse_word(text: str, mode: AlgebraMode) -> Word:
    terms = _literal_terms(text) or [(Fraction(1), [EMPTY_WORD])]
    if len(terms) != 1 or terms[0][0] != 1 or len(terms[0][1]) != 1:
        raise BifreeInputError(f"not a word: {text!r}")
    return _checked(terms[0][1][0], mode)


def parse_poly(text: str, mode: AlgebraMode) -> NCPolynomial:
    pairs: list[tuple[Word, Fraction]] = []
    for coeff, legs in _literal_terms(text):
        if len(legs) != 1:
            raise BifreeInputError(f"polynomial term with ⊗: {text!r}")
        pairs.append((_checked(legs[0], mode), coeff))
    return NCPolynomial.from_pairs(pairs)


def parse_tensor(text: str, mode: AlgebraMode) -> TensorPoly:
    pairs: list[tuple[tuple[Word, Word], Fraction]] = []
    for coeff, legs in _literal_terms(text):
        if legs == [EMPTY_WORD] and not coeff:
            continue  # a zero term; format_tensor writes the zero tensor as "0"
        if len(legs) != 2:
            problem = "missing ⊗" if len(legs) < 2 else "with more than one ⊗"
            raise BifreeInputError(f"tensor term {problem}: {text!r}")
        pairs.append(((_checked(legs[0], mode), _checked(legs[1], mode)), coeff))
    return TensorPoly.from_pairs(pairs)


def _format_literal(combo: _LinearCombination) -> str:
    pieces = []
    for key, coeff in combo.sorted_terms():
        body = combo._key_literal(key)
        mag = abs(coeff)
        if mag != 1:
            body = str(mag) if body == "1" else f"{mag}*{body}"
        pieces.append(("- " if coeff < 0 else "+ " if pieces else "") + body)
    return " ".join(pieces) or "0"


def format_poly(p: NCPolynomial) -> str:
    return _format_literal(p)


def format_tensor(t: TensorPoly) -> str:
    return _format_literal(t)
