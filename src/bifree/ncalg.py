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

LEFT = "l"
RIGHT = "r"
VAR = "var"
SYM = "sym"

STRAIGHT = "straight"
OPPOSITE = "opposite-second-leg"


class ArityError(ValueError):
    """A letter is outside the declared arities, or arities disagree."""


class Letter(NamedTuple):
    side: str
    index: int
    kind: str = VAR

    @property
    def is_left(self) -> bool:
        return self.side == LEFT

    def sort_key(self) -> tuple[int, int, int]:
        return (0 if self.side == LEFT else 1, 0 if self.kind == VAR else 1, self.index)

    def token(self) -> str:
        if self.kind == VAR:
            return ("X" if self.side == LEFT else "Y") + str(self.index)
        return ("x" if self.side == LEFT else "y") + str(self.index)


def lvar(i: int) -> Letter:
    return Letter(LEFT, i, VAR)


def rvar(j: int) -> Letter:
    return Letter(RIGHT, j, VAR)


def lsym(i: int) -> Letter:
    return Letter(LEFT, i, SYM)


def rsym(j: int) -> Letter:
    return Letter(RIGHT, j, SYM)


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
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.left_arity < 0 or self.right_arity < 0:
            raise ValueError("arities must be nonnegative")

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


def _clean(terms: Iterable[tuple[Word, Fraction]]) -> dict[Word, Fraction]:
    out: dict[Word, Fraction] = {}
    for word, coeff in terms:
        if coeff:
            acc = out.get(word)
            if acc is None:
                out[word] = coeff
            else:
                acc = acc + coeff
                if acc:
                    out[word] = acc
                else:
                    del out[word]
    return out


class NCPolynomial:
    """A noncommutative polynomial: finitely many words with rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Word, Fraction | int] | None = None):
        data = {}
        if terms:
            for word, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff:
                    data[tuple(word)] = coeff
        self._terms = data

    @classmethod
    def zero(cls) -> "NCPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "NCPolynomial":
        return cls({EMPTY_WORD: Fraction(1)})

    @classmethod
    def from_word(cls, word: Word, coeff: Fraction | int = 1) -> "NCPolynomial":
        return cls({tuple(word): Fraction(coeff)})

    @classmethod
    def from_letter(cls, letter: Letter, coeff: Fraction | int = 1) -> "NCPolynomial":
        return cls({(letter,): Fraction(coeff)})

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Word, Fraction | int]]) -> "NCPolynomial":
        poly = cls()
        poly._terms = _clean((tuple(w), Fraction(c)) for w, c in pairs)
        return poly

    def items(self) -> Iterator[tuple[Word, Fraction]]:
        return iter(self._terms.items())

    def coeff(self, word: Word) -> Fraction:
        return self._terms.get(tuple(word), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        return max((len(w) for w in self._terms), default=0)

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "NCPolynomial") -> "NCPolynomial":
        out = dict(self._terms)
        for word, coeff in other._terms.items():
            acc = out.get(word, Fraction(0)) + coeff
            if acc:
                out[word] = acc
            else:
                out.pop(word, None)
        poly = NCPolynomial()
        poly._terms = out
        return poly

    def __sub__(self, other: "NCPolynomial") -> "NCPolynomial":
        return self + (-other)

    def __neg__(self) -> "NCPolynomial":
        poly = NCPolynomial()
        poly._terms = {w: -c for w, c in self._terms.items()}
        return poly

    def scale(self, coeff: Fraction | int) -> "NCPolynomial":
        coeff = Fraction(coeff)
        poly = NCPolynomial()
        if coeff:
            poly._terms = {w: c * coeff for w, c in self._terms.items()}
        return poly

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NCPolynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def sorted_terms(self) -> list[tuple[Word, Fraction]]:
        return sorted(self._terms.items(), key=lambda kv: word_sort_key(kv[0]))

    def __repr__(self) -> str:
        return f"NCPolynomial({format_poly(self)!r})"


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


class TensorPoly:
    """An element of the tensor square: rational combination of word pairs."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[Word, Word], Fraction | int] | None = None):
        data = {}
        if terms:
            for (w1, w2), coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff:
                    data[(tuple(w1), tuple(w2))] = coeff
        self._terms = data

    @classmethod
    def zero(cls) -> "TensorPoly":
        return cls()

    @classmethod
    def one(cls) -> "TensorPoly":
        return cls({(EMPTY_WORD, EMPTY_WORD): Fraction(1)})

    @classmethod
    def from_words(cls, w1: Word, w2: Word, coeff: Fraction | int = 1) -> "TensorPoly":
        return cls({(tuple(w1), tuple(w2)): Fraction(coeff)})

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[tuple[Word, Word], Fraction | int]]
    ) -> "TensorPoly":
        data: dict[tuple[Word, Word], Fraction] = {}
        for key, coeff in pairs:
            coeff = Fraction(coeff)
            if not coeff:
                continue
            key = (tuple(key[0]), tuple(key[1]))
            acc = data.get(key, Fraction(0)) + coeff
            if acc:
                data[key] = acc
            else:
                data.pop(key, None)
        t = cls()
        t._terms = data
        return t

    def items(self) -> Iterator[tuple[tuple[Word, Word], Fraction]]:
        return iter(self._terms.items())

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "TensorPoly") -> "TensorPoly":
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            acc = out.get(key, Fraction(0)) + coeff
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
        t = TensorPoly()
        t._terms = out
        return t

    def __sub__(self, other: "TensorPoly") -> "TensorPoly":
        return self + (-other)

    def __neg__(self) -> "TensorPoly":
        t = TensorPoly()
        t._terms = {k: -c for k, c in self._terms.items()}
        return t

    def scale(self, coeff: Fraction | int) -> "TensorPoly":
        coeff = Fraction(coeff)
        t = TensorPoly()
        if coeff:
            t._terms = {k: c * coeff for k, c in self._terms.items()}
        return t

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TensorPoly) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def sorted_terms(self) -> list[tuple[tuple[Word, Word], Fraction]]:
        def key(kv):
            (w1, w2), _ = kv
            return (len(w1) + len(w2), word_sort_key(w1), word_sort_key(w2))

        return sorted(self._terms.items(), key=key)

    def __repr__(self) -> str:
        return f"TensorPoly({format_tensor(self)!r})"


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
        raise ValueError(f"unknown convention {convention!r}")
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


def tensor_swap(t: TensorPoly) -> TensorPoly:
    """Swap the two tensor legs without applying the involution."""
    return TensorPoly.from_pairs((((w2, w1)), c) for (w1, w2), c in t.items())


def tensor_cw_star(t: TensorPoly) -> TensorPoly:
    """Componentwise involution: each leg starred in place, no leg swap."""
    return TensorPoly.from_pairs(
        (((tuple(reversed(w1)), tuple(reversed(w2)))), c) for (w1, w2), c in t.items()
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
# separated by spaces, e.g. ``3/4*X1 Y2 X1 + x1 - 2``.  ``1`` denotes the
# empty word.  Tensor literals put ``⊗`` between the two legs of each term.
# ---------------------------------------------------------------------------

_LETTER_RE = re.compile(r"^([XYxy])(\d+)$")
_NUMBER_RE = re.compile(r"^[+-]?\d+(/\d+)?$")

_TOKEN_SIDE = {"X": (LEFT, VAR), "Y": (RIGHT, VAR), "x": (LEFT, SYM), "y": (RIGHT, SYM)}


def letter_from_token(token: str) -> Letter:
    match = _LETTER_RE.match(token)
    if not match:
        raise ValueError(f"bad letter token {token!r}")
    side, kind = _TOKEN_SIDE[match.group(1)]
    return Letter(side, int(match.group(2)), kind)


def format_word(word: Word) -> str:
    if not word:
        return "1"
    return " ".join(l.token() for l in word)


def parse_word(text: str, mode: AlgebraMode) -> Word:
    tokens = text.split()
    letters = []
    for token in tokens:
        if token == "1":
            continue
        letters.append(letter_from_token(token))
    word = normal_form(tuple(letters), mode)
    mode.check_word(word)
    return word


class _TermAccumulator:
    def __init__(self) -> None:
        self.sign = 1
        self.coeff = Fraction(1)
        self.letters: list[Letter] = []
        self.open = False

    def commit(self, sink) -> None:
        if self.open:
            sink(tuple(self.letters), self.sign * self.coeff)
        self.sign = 1
        self.coeff = Fraction(1)
        self.letters = []
        self.open = False


def _parse_terms(text: str, on_term) -> None:
    acc = _TermAccumulator()
    for token in text.split():
        if token == "+":
            acc.commit(on_term)
            continue
        if token == "-":
            acc.commit(on_term)
            acc.sign = -1
            continue
        acc.open = True
        if token == "1":
            continue
        if "*" in token:
            num, _, rest = token.partition("*")
            acc.coeff *= Fraction(num)
            if rest and rest != "1":
                acc.letters.append(letter_from_token(rest))
            continue
        if _NUMBER_RE.match(token):
            acc.coeff *= Fraction(token)
            continue
        acc.letters.append(letter_from_token(token))
    acc.commit(on_term)


def parse_poly(text: str, mode: AlgebraMode) -> NCPolynomial:
    pairs: list[tuple[Word, Fraction]] = []

    def sink(word: Word, coeff: Fraction) -> None:
        word = normal_form(word, mode)
        mode.check_word(word)
        pairs.append((word, coeff))

    _parse_terms(text, sink)
    return NCPolynomial.from_pairs(pairs)


def _format_term_body(coeff: Fraction, body: str, is_unit: bool) -> str:
    mag = abs(coeff)
    if is_unit:
        return str(mag)
    if mag == 1:
        return body
    return f"{mag}*{body}"


def _join_terms(rendered: list[tuple[Fraction, str]]) -> str:
    if not rendered:
        return "0"
    pieces = []
    for i, (coeff, body) in enumerate(rendered):
        if i == 0:
            pieces.append(("- " + body) if coeff < 0 else body)
        else:
            pieces.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(pieces)


def format_poly(p: NCPolynomial) -> str:
    rendered = []
    for word, coeff in p.sorted_terms():
        body = _format_term_body(coeff, format_word(word), is_unit=not word)
        rendered.append((coeff, body))
    return _join_terms(rendered)


def parse_tensor(text: str, mode: AlgebraMode) -> TensorPoly:
    pairs: list[tuple[tuple[Word, Word], Fraction]] = []

    # Split into sign-separated terms first, then split each on the tensor sign.
    acc_terms: list[tuple[str, int]] = []
    sign = 1
    current: list[str] = []
    for token in text.split():
        if token in ("+", "-"):
            if current:
                acc_terms.append((" ".join(current), sign))
                current = []
            sign = -1 if token == "-" else 1
            continue
        current.append(token)
    if current:
        acc_terms.append((" ".join(current), sign))

    for term, term_sign in acc_terms:
        if "⊗" in term:
            left_text, _, right_text = term.partition("⊗")
        elif "(x)" in term:
            left_text, _, right_text = term.partition("(x)")
        elif _NUMBER_RE.match(term) and not Fraction(term):
            continue  # a zero term; format_tensor writes the zero tensor as "0"
        else:
            raise ValueError(f"tensor term missing ⊗: {term!r}")
        coeff = Fraction(term_sign)
        legs = []
        for leg_text in (left_text, right_text):
            letters: list[Letter] = []
            for token in leg_text.split():
                if token == "1":
                    continue
                if "*" in token:
                    num, _, rest = token.partition("*")
                    coeff *= Fraction(num)
                    if rest and rest != "1":
                        letters.append(letter_from_token(rest))
                    continue
                if _NUMBER_RE.match(token):
                    coeff *= Fraction(token)
                    continue
                letters.append(letter_from_token(token))
            word = normal_form(tuple(letters), mode)
            mode.check_word(word)
            legs.append(word)
        pairs.append(((legs[0], legs[1]), coeff))
    return TensorPoly.from_pairs(pairs)


def format_tensor(t: TensorPoly) -> str:
    rendered = []
    for (w1, w2), coeff in t.sorted_terms():
        body = f"{format_word(w1)} ⊗ {format_word(w2)}"
        mag = abs(coeff)
        if mag != 1:
            body = f"{mag}*{body}"
        rendered.append((coeff, body))
    return _join_terms(rendered)
