"""Moment functionals, partitioned moments, and cumulants over bi-non-crossing lattices.

A moment functional assigns an exact rational to every word up to a degree
bound.  Every functional reads one memo of reduced pairs (below), keyed by
checked normal forms, through ``MomentFunctional._phi_pair``.  An explicit
word table fills the memo at construction and answers a miss with 0.  A
cumulant specification (a map from letter patterns to rationals) fills it
on demand: moments sum block-factored cumulants by first-block recursion:
phi(a_1...a_n) = sum over blocks V holding the first relabelled position of
kappa_V times the moments of the gaps V leaves, each gap a subword answered
by the functional's own memo.  A word or gap whose length no sum of the
spec's block sizes reaches has no partition with nonzero cumulants, so it
is 0 without recursion.  ``moments_from_cumulants`` asks a fresh
free-mode functional for the moment of its single-letter arguments.  The
inverse transform recovers cumulants from moments by Mobius inversion: the
lattice walk of ``bnclattice`` visits NC(k) in the relabelled order with
mu(pi, 1) and the blocks in positions, and phi is asked once per distinct
block; that walk (``_bnc_walk``) is the one lattice internal read here.
The product-in-the-last-entry expansion is lattice work:
``expand_product_last_entry`` lives in ``bnclattice`` and is imported
from there.

Inside these sums an exact value is a reduced (numerator, denominator) pair
of ints with a positive denominator: terms are summed per denominator as
ints and folded once (``_fold``).  The public functions return ``Fraction``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from ._io import BifreeInputError, integer, json_object, load_json, rational, read_fields, write_files
from .bnclattice import (
    ENUMERATION_CAP,
    BNCPartition,
    CapExceededError,
    ChiSeq,
    _bnc_walk,
    expand_product_last_entry,
    sigma_chi,
    validate_chi,
)
from .ncalg import (
    LEFT,
    RIGHT,
    VAR,
    AlgebraMode,
    Letter,
    NCPolynomial,
    Word,
    mul,
    normal_form,
    star,
)

#: A cumulant pattern: the ordered (side, index) pairs of the entries.
Pattern = tuple[tuple[str, int], ...]

DEFAULT_DEGREE_BOUND = 10
#: The largest degree bound a spec may declare: a cumulant-backed functional
#: builds its reachable lengths up to the bound, and no word near this length
#: is computable anyway.
MAX_DEGREE_BOUND = 1000


class DegreeBoundError(BifreeInputError):
    """A word or argument list exceeds the functional's degree bound."""


@dataclass(frozen=True)
class CumulantSpec:
    """Finitely supported cumulant data: pattern -> rational, default 0."""

    n: int
    m: int
    entries: Mapping[Pattern, Fraction]
    degree_bound: int = DEFAULT_DEGREE_BOUND

    def __post_init__(self) -> None:
        if min(integer(getattr(self, k), f"cumulant spec field {k!r}") for k in ("n", "m", "degree_bound")) < 0:
            raise BifreeInputError("arities and degree bound must be nonnegative")
        if self.degree_bound > MAX_DEGREE_BOUND:
            raise BifreeInputError(f"degree bound {self.degree_bound} exceeds the cap {MAX_DEGREE_BOUND}")
        clean: dict[Pattern, Fraction] = {}
        for pattern, value in self.entries.items():
            pattern = tuple((side, index) for side, index in pattern)
            for side, index in pattern:
                if side not in (LEFT, RIGHT):
                    raise BifreeInputError(f"bad side {side!r} in pattern")
                arity = self.n if side == LEFT else self.m
                if not 1 <= integer(index, "cumulant spec pattern index") <= arity:
                    raise BifreeInputError(f"pattern index {index} out of range for side {side}")
            if len(pattern) > self.degree_bound:
                raise DegreeBoundError("pattern longer than degree bound")
            value = rational(value, "cumulant spec entry field 'value'")
            if value:
                clean[pattern] = value
        object.__setattr__(self, "entries", clean)

    def kappa(self, pattern: Pattern) -> Fraction:
        return self.entries.get(tuple(pattern), Fraction(0))

    def with_entry(self, pattern: Pattern, value: Fraction | int) -> "CumulantSpec":
        entries = dict(self.entries)
        entries[tuple(pattern)] = value
        return CumulantSpec(self.n, self.m, entries, self.degree_bound)


def pattern_of_letters(letters: Sequence[Letter]) -> Pattern:
    return tuple((l.side, l.index) for l in letters)


def gaussian_cumulant_spec(
    n: int, m: int, cov: Sequence[Sequence[Fraction | int]],
    degree_bound: int = DEFAULT_DEGREE_BOUND,
) -> CumulantSpec:
    """Central-limit cumulant data from a covariance table.

    ``cov`` is an (n+m) x (n+m) symmetric table indexed with lefts first.
    Only the pair cumulants are nonzero.
    """
    k = integer(n, "cumulant spec field 'n'") + integer(m, "cumulant spec field 'm'")
    if len(cov) != k or any(len(row) != k for row in cov):
        raise BifreeInputError("covariance table has wrong shape")
    letters = [(LEFT, i + 1) for i in range(n)] + [(RIGHT, j + 1) for j in range(m)]
    entries: dict[Pattern, Fraction] = {}
    for a in range(k):
        for b in range(k):
            value = rational(cov[a][b], "covariance table entry")
            if rational(cov[b][a], "covariance table entry") != value:
                raise BifreeInputError("covariance table must be symmetric")
            if value:
                entries[(letters[a], letters[b])] = value
    return CumulantSpec(n, m, entries, degree_bound)


#: A reduced exact value: (numerator, denominator), the denominator positive.
Pair = tuple[int, int]


def _fold(sums: Mapping[int, int]) -> Pair:
    """The reduced sum of ``numerator / denominator`` over ``sums``, a map
    from each positive denominator to its summed numerators."""
    den = math.lcm(*sums) if sums else 1
    num = sum(n * (den // d) for d, n in sums.items())
    g = math.gcd(num, den)
    return num // g, den // g


class MomentFunctional:
    """Base class: a unital linear functional on words, exact and memoized.

    Every read goes through ``_phi_pair``: one memo from checked normal forms
    to reduced (numerator, denominator) pairs, which a subclass fills at
    construction and extends through ``_miss``.  ``phi`` turns a pair into a
    ``Fraction``.

    ``_reach`` holds every word length at which a moment can be nonzero (it
    may hold more); a word of any other length has moment 0, which lets a
    caller skip whole degrees unread.  ``_check_letters`` raises for a word
    with a letter the functional does not cover, before any miss is filled.
    """

    mode: AlgebraMode
    degree_bound: int
    _memo: dict[Word, Pair]
    _reach: set[int]

    def _miss(self, word: Word) -> Pair:
        """The moment of a checked normal form that the memo does not hold."""
        raise NotImplementedError

    def _check_letters(self, word: Word) -> None:
        """Raise unless the functional covers every letter of ``word``."""

    def phi(self, word: Word) -> Fraction:
        return Fraction(*self._phi_pair(word))

    def _phi_pair(self, word: Word) -> Pair:
        word = tuple(word)
        cached = self._memo.get(word)  # keys are checked normal forms
        if cached is not None:
            return cached
        word = normal_form(word, self.mode)
        self._check_degree(len(word))
        cached = self._memo.get(word)
        if cached is not None:
            return cached
        self.mode.check_word(word)
        value = self._memo[word] = self._miss(word)
        return value

    def _check_degree(self, degree: int) -> None:
        if degree > self.degree_bound:
            raise DegreeBoundError(
                f"degree {degree} exceeds bound {self.degree_bound}"
            )

    def phi_poly(self, p: NCPolynomial) -> Fraction:
        return Fraction(*self._poly_pair(p.items()))

    def _poly_pair(self, terms: Iterable[tuple[Word, Fraction]]) -> Pair:
        """The sum of c phi(w) over (w, c) terms, as a reduced pair."""
        sums: dict[int, int] = {}
        for w, c in terms:
            num, den = self._phi_pair(w)
            if num:
                den *= c.denominator
                sums[den] = sums.get(den, 0) + c.numerator * num
        return _fold(sums)

    def _tensor_pair(self, terms: Iterable[tuple[tuple[Word, Word], Fraction]]) -> Pair:
        """The sum of c phi(w1) phi(w2) over ((w1, w2), c) terms, as a reduced pair."""
        sums: dict[int, int] = {}
        for (w1, w2), c in terms:
            num1, den1 = self._phi_pair(w1)
            num2, den2 = self._phi_pair(w2)
            if num1 and num2:
                den = c.denominator * den1 * den2
                sums[den] = sums.get(den, 0) + c.numerator * num1 * num2
        return _fold(sums)

    def inner(self, a: NCPolynomial, b: NCPolynomial) -> Fraction:
        """Sesquilinear pairing <a, b> = phi(b* a) (rational coefficients)."""
        return self.phi_poly(mul(star(b), a, self.mode))


class TableMomentFunctional(MomentFunctional):
    """Moment functional backed by an explicit word table (default 0)."""

    def __init__(
        self,
        mode: AlgebraMode,
        table: Mapping[Word, Fraction | int],
        degree_bound: int = DEFAULT_DEGREE_BOUND,
    ):
        self.mode = mode
        self.degree_bound = integer(degree_bound, "table degree bound")
        memo: dict[Word, Pair] = {}
        for word, value in table.items():
            word = normal_form(tuple(word), mode)
            mode.check_word(word)
            if len(word) > degree_bound:
                raise DegreeBoundError("table word exceeds degree bound")
            value = rational(value, "table moment")
            memo[word] = (value.numerator, value.denominator)
        if memo.get((), (1, 1)) != (1, 1):
            raise BifreeInputError("the empty word must have moment 1")
        memo[()] = (1, 1)
        self._memo = memo
        # a miss is 0, so only the lengths of nonzero entries reach
        self._reach = {len(word) for word, (num, _) in memo.items() if num}

    def _miss(self, word: Word) -> Pair:
        return (0, 1)


class CumulantMomentFunctional(MomentFunctional):
    """Moments computed on demand from a cumulant specification; memoized.

    A missing moment recurses on the first block of the relabelled order
    (the bi-non-crossing lattice over the word's sides is NC(n) through
    ``sigma_chi``): each block V holding the first position contributes
    kappa_V times the moments of the gaps it leaves, and every gap moment is
    read through the memo, which it fills on a miss.  A checked word, gap or
    rest of a length no sum of block sizes reaches is 0 without recursion.
    """

    def __init__(self, mode: AlgebraMode, spec: CumulantSpec):
        if mode.left_arity != spec.n or mode.right_arity != spec.m:
            raise BifreeInputError("mode arities disagree with the cumulant data")
        self.mode = mode
        self.spec = spec
        self.degree_bound = spec.degree_bound
        self._memo = {(): (1, 1)}
        self._kappas = {
            pattern: (value.numerator, value.denominator)
            for pattern, value in spec.entries.items()
        }
        self._sizes = {len(pattern) for pattern in spec.entries}
        self._longest = max(self._sizes, default=0)
        # the lengths 0..degree_bound that sums of block sizes reach
        self._reach = {0}
        for total in range(1, self.degree_bound + 1):
            if any(total - s in self._reach for s in self._sizes):
                self._reach.add(total)

    def _check_letters(self, word: Word) -> None:
        for letter in word:
            if letter.kind != VAR:
                raise BifreeInputError("cumulant-backed functionals cover variables only")

    def _miss(self, word: Word) -> Pair:
        self._check_letters(word)
        reach = self._reach
        if len(word) not in reach:
            return (0, 1)
        # the first-block sum, skipping gaps and rests of unreachable length;
        # a gap (relabelled positions i..j-1 read back in original order) of a
        # bipartite normal form is a normal form again (lefts before rights),
        # hence a memo key once computed
        perm = sigma_chi(tuple(l.side for l in word))
        size = len(word)
        moment = self._phi_pair
        sums: dict[int, int] = {}
        stack = [((0,), 1, 1)]
        while stack:
            block, num, den = stack.pop()
            last = block[-1]
            if len(block) in self._sizes and size - last - 1 in reach:
                kappa = self._kappas.get(
                    pattern_of_letters([word[p - 1] for p in sorted(perm[v] for v in block)])
                )
                if kappa:
                    rest_num, rest_den = moment(tuple(word[p - 1] for p in sorted(perm[last + 1:])))
                    d = den * kappa[1] * rest_den
                    sums[d] = sums.get(d, 0) + num * kappa[0] * rest_num
            if len(block) < self._longest:
                for nxt in range(last + 1, size):
                    if nxt - last - 1 not in reach:
                        continue
                    gap_num, gap_den = moment(tuple(word[p - 1] for p in sorted(perm[last + 1:nxt])))
                    if gap_num:
                        stack.append((block + (nxt,), num * gap_num, den * gap_den))
        return _fold(sums)


def _block_word(args: Sequence[Word], block: Sequence[int]) -> Word:
    # the arguments at the ascending positions of ``block``, multiplied in order
    out: list[Letter] = []
    for position in block:
        out.extend(args[position - 1])
    return tuple(out)


def moment_pi(phi: MomentFunctional, pi: BNCPartition, args: Sequence[Word]) -> Fraction:
    """Partitioned moment: product over blocks of phi of the in-block product,
    factors multiplied in increasing position order."""
    if len(args) != len(pi.chi):
        raise BifreeInputError("argument count must match |chi|")
    phi._check_degree(sum(len(w) for w in args))
    num = den = 1
    for block in pi.blocks:
        block_num, block_den = phi._phi_pair(_block_word(args, block))
        num *= block_num
        den *= block_den
    return Fraction(num, den)


def cumulant_chi(phi: MomentFunctional, chi: Sequence[str], args: Sequence[Word]) -> Fraction:
    """Mobius-inversion cumulant of the arguments against the functional: the
    sum over NC(k), in the relabelled order of ``sigma_chi``, of partitioned
    moments times mu(pi, 1), which the lattice walk visits with each
    partition's blocks in positions.  phi is asked once per distinct block,
    and a term stops at its first zero factor."""
    chi = validate_chi(chi)
    if len(args) != len(chi):
        raise BifreeInputError("argument count must match |chi|")
    k = len(chi)
    if k > ENUMERATION_CAP:
        raise CapExceededError(f"|chi| = {k} exceeds cap {ENUMERATION_CAP}")
    phi._check_degree(sum(len(w) for w in args))
    moments: dict[tuple[int, ...], Pair] = {}  # block of positions -> its moment
    sums: dict[int, int] = {}

    def visit(starts: list, mu: int) -> None:
        num = den = 1
        for block in filter(None, starts):
            value = moments.get(block)
            if value is None:
                value = moments[block] = phi._phi_pair(_block_word(args, block))
            if not value[0]:
                return
            num *= value[0]
            den *= value[1]
        sums[den] = sums.get(den, 0) + num * mu

    _bnc_walk(sigma_chi(chi), visit)
    return Fraction(*_fold(sums))


def cumulant_pi(phi: MomentFunctional, pi: BNCPartition, args: Sequence[Word]) -> Fraction:
    """Block-factored cumulant: product of cumulants of the restricted arguments."""
    value = Fraction(1)
    for block in pi.blocks:
        ordered = sorted(block)
        chi_v = tuple(pi.chi[p - 1] for p in ordered)
        args_v = [args[p - 1] for p in ordered]
        value *= cumulant_chi(phi, chi_v, args_v)
    return value


def moments_from_cumulants(
    spec: CumulantSpec, chi: Sequence[str], args: Sequence[Word]
) -> Fraction:
    """Moment of single-letter arguments under a cumulant specification: the
    sum over the lattice of block-factored cumulants, answered by a fresh
    free-mode ``CumulantMomentFunctional``."""
    chi = validate_chi(chi)
    if len(args) != len(chi):
        raise BifreeInputError("argument count must match |chi|")
    letters: list[Letter] = []
    for word, label in zip(args, chi):
        if len(word) != 1:
            raise BifreeInputError("cumulant-specified moments take single letters")
        letter = word[0]
        if letter.side != label:
            raise BifreeInputError(f"argument side {letter.side} disagrees with chi label {label}")
        letters.append(letter)
    if len(letters) > spec.degree_bound:
        raise DegreeBoundError("degree bound exceeded")
    return CumulantMomentFunctional(AlgebraMode("free", spec.n, spec.m), spec).phi(tuple(letters))


# -- mixed-cumulant vanishing -------------------------------------------------


@dataclass(frozen=True)
class VanishingViolation:
    chi: ChiSeq
    args: tuple[Word, ...]
    value: Fraction


@dataclass(frozen=True)
class VanishingReport:
    checked: int
    violations: tuple[VanishingViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def check_mixed_vanishing(
    spec: CumulantSpec,
    grouping: Mapping[tuple[str, int], object],
    max_degree: int = 4,
    max_product_len: int = 2,
) -> VanishingReport:
    """Verify that cumulants with a one-group product in the last entry vanish
    whenever an earlier entry comes from a different group.

    ``grouping`` maps (side, index) variable keys to group labels.  All
    cumulants with at most ``max_degree`` total letters are checked, the last
    entry ranging over products of up to ``max_product_len`` letters from a
    single group.  Violations are collected, not raised.
    """
    mode = AlgebraMode("free", spec.n, spec.m)
    phi = CumulantMomentFunctional(mode, spec)
    letters = [Letter(LEFT, i + 1, VAR) for i in range(spec.n)] + [
        Letter(RIGHT, j + 1, VAR) for j in range(spec.m)
    ]
    by_group: dict[object, list[Letter]] = {}
    for letter in letters:
        by_group.setdefault(grouping[(letter.side, letter.index)], []).append(letter)

    checked = 0
    violations: list[VanishingViolation] = []
    for pool in by_group.values():
        for product_len in range(1, max_product_len + 1):
            for last_word in itertools.product(pool, repeat=product_len):
                for front_len in range(1, max_degree - product_len + 1):
                    for front in itertools.product(letters, repeat=front_len):
                        if all(l in pool for l in front):
                            continue  # omega constant: nothing to check
                        chi = tuple(l.side for l in front) + ("l",)
                        args = [(l,) for l in front] + [last_word]
                        value = cumulant_chi(phi, chi, args)
                        checked += 1
                        if value:
                            violations.append(
                                VanishingViolation(chi, tuple(args), value)
                            )
    return VanishingReport(checked, tuple(violations))


# -- JSON ---------------------------------------------------------------------


def spec_to_json_dict(spec: CumulantSpec) -> dict:
    return {
        "n": spec.n,
        "m": spec.m,
        "degree_bound": spec.degree_bound,
        "entries": [
            {"pattern": [[side, index] for side, index in pattern], "value": str(value)}
            for pattern, value in sorted(spec.entries.items())
        ],
    }


def spec_from_json_dict(data: Mapping) -> CumulantSpec:
    fields = read_fields(data, "cumulant spec", dict.fromkeys(("n", "m", "entries", "degree_bound")),
                         {"entries": [], "degree_bound": DEFAULT_DEGREE_BOUND})
    if not isinstance(fields["entries"], list):
        raise BifreeInputError(f"cumulant spec JSON field 'entries' is not a list: {fields['entries']!r}")
    entries: dict[Pattern, object] = {}
    for item in fields["entries"]:
        entry = read_fields(item, "cumulant spec entry", dict.fromkeys(("pattern", "value")))
        try:  # pairs, hashable: neither side nor index a list or an object
            pattern = tuple((side, index) for side, index in entry["pattern"])
            repeated = pattern in entries
        except (TypeError, ValueError):
            raise BifreeInputError("cumulant spec entry JSON field 'pattern' is not a list of pairs: "
                                   f"{entry['pattern']!r}") from None
        if repeated:
            raise BifreeInputError(f"cumulant spec repeats the pattern {pattern}")
        entries[pattern] = entry["value"]
    return CumulantSpec(fields["n"], fields["m"], entries, fields["degree_bound"])


def save_spec(spec: CumulantSpec, path: str) -> None:
    write_files({path: json_object(spec_to_json_dict(spec))}, overwrite=True)


def load_spec(path: str) -> CumulantSpec:
    return load_json(path, spec_from_json_dict)
