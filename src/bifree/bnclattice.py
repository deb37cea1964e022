"""Bi-non-crossing partition lattices.

A side sequence ``chi`` (entries ``"l"`` / ``"r"``) induces the permutation
that lists the left positions in increasing order followed by the right
positions in decreasing order.  A set partition of ``{1..k}`` is
bi-non-crossing when it becomes non-crossing after relabelling through the
inverse of that permutation, so the lattice is isomorphic to NC(k).  This
module enumerates the lattice (NC(k) generated with a stack of open blocks,
then relabelled), computes the refinement order, joins (union-find and one
stack pass that merges crossing blocks), the Mobius function, and the
bottom-block embedding used to expand products sitting in the last entry of
a cumulant.  mu(pi, 1_k) is a product over the Kreweras complement of pi:
the NC(k) generator carries it face by face for every partition it yields,
and ``mobius`` forms it from the blocks of each interval.  Sums of
block-factored cumulants over the lattice (moments) live with the moment
functionals in ``cumulant``.

Everything is pure; enumeration is memoized per side sequence, so
concurrent readers are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

ChiSeq = tuple[str, ...]

#: Exhaustive lattice work beyond this length is impractical (Catalan growth).
ENUMERATION_CAP = 12


class CapExceededError(ValueError):
    """The requested chi sequence is longer than the enumeration cap."""


def validate_chi(chi: Sequence[str]) -> ChiSeq:
    chi = tuple(chi)
    if not chi:
        raise ValueError("chi must be nonempty")
    for label in chi:
        if label not in ("l", "r"):
            raise ValueError(f"chi labels must be 'l' or 'r', got {label!r}")
    return chi


def sigma_chi(chi: Sequence[str]) -> tuple[int, ...]:
    """Permutation sending position j to the j-th entry of
    [left positions ascending, right positions descending] (all 1-based)."""
    return _sigma(validate_chi(chi))


def _sigma(chi: ChiSeq) -> tuple[int, ...]:
    # sigma_chi of an already validated chi
    lefts = [i for i, label in enumerate(chi, 1) if label == "l"]
    rights = [i for i, label in enumerate(chi, 1) if label == "r"]
    return tuple(lefts + rights[::-1])


def _inverse_perm(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v - 1] = i + 1
    return tuple(inv)


Blocks = tuple[tuple[int, ...], ...]


def canonical_blocks(blocks: Iterable[Iterable[int]]) -> Blocks:
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))


def _checked_blocks(blocks: Iterable[Iterable[int]]) -> Blocks:
    """``canonical_blocks`` of blocks that must each be a nonempty run of ints."""
    out = []
    for block in blocks:
        block = tuple(block)
        if not block or not all(isinstance(e, int) for e in block):
            raise ValueError(f"a block must be a nonempty collection of ints, got {block!r}")
        out.append(block)
    return canonical_blocks(out)


def is_bnc(blocks: Iterable[Iterable[int]], chi: Sequence[str]) -> bool:
    """Whether the given set partition of ``{1..len(chi)}`` is bi-non-crossing:
    relabelled, it must come through the non-crossing pass unmerged."""
    return _is_bnc(_checked_blocks(blocks), validate_chi(chi))


def _is_bnc(blocks: Blocks, chi: ChiSeq) -> bool:
    # is_bnc of checked blocks over a validated chi
    covered = sorted(e for b in blocks for e in b)
    if covered != list(range(1, len(chi) + 1)):
        raise ValueError("blocks must partition {1..k}")
    inv = _inverse_perm(_sigma(chi))
    relabeled = [[inv[e - 1] - 1 for e in b] for b in blocks]
    return len(_noncrossing_join(len(chi), relabeled)) == len(blocks)


@dataclass(frozen=True, slots=True)
class BNCPartition:
    """A bi-non-crossing partition together with its side sequence."""

    chi: ChiSeq
    blocks: Blocks

    def __post_init__(self) -> None:
        chi = validate_chi(self.chi)
        blocks = _checked_blocks(self.blocks)
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "blocks", blocks)
        if not _is_bnc(blocks, chi):
            raise ValueError(f"partition {blocks} is not bi-non-crossing for {chi}")

    def leq(self, other: "BNCPartition") -> bool:
        """Refinement order: every block of ``self`` fits inside a block of ``other``."""
        _check_same_chi(self, other)
        lookup = {}
        for idx, b in enumerate(other.blocks):
            for e in b:
                lookup[e] = idx
        return all(len({lookup[e] for e in b}) == 1 for b in self.blocks)

    def __repr__(self) -> str:
        inner = ", ".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        return f"BNCPartition({''.join(self.chi)}: {inner})"


def _check_same_chi(a: BNCPartition, b: BNCPartition) -> None:
    if a.chi != b.chi:
        raise ValueError("partitions live over different chi sequences")


def zero_partition(chi: Sequence[str]) -> BNCPartition:
    chi = validate_chi(chi)
    return BNCPartition(chi, tuple((i,) for i in range(1, len(chi) + 1)))


def one_partition(chi: Sequence[str]) -> BNCPartition:
    chi = validate_chi(chi)
    return BNCPartition(chi, (tuple(range(1, len(chi) + 1)),))


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def _mu_top(n: int) -> tuple[int, ...]:
    """mu(0_s, 1_s) = (-1)^(s-1) Cat(s-1) for s < n (0 at s = 0)."""
    return (0,) + tuple((-1) ** (s - 1) * catalan(s - 1) for s in range(1, n))


#: The factor of mu(pi, 1) that one Kreweras block of size s contributes.
_MU_TOP = _mu_top(ENUMERATION_CAP + 1)


def _nc_partitions(k: int):
    """Non-crossing partitions pi of {0..k-1} with mu(pi, 1_k), as pairs
    (blocks, mu): ascending blocks ordered by first element, in the lex order
    of their restricted-growth strings.  The blocks that can take the next
    element without crossing form a stack of open blocks; giving the element
    to one of them closes every block above it.

    mu is the product of (-1)^(s-1) Cat(s-1) over the block sizes s of the
    Kreweras complement (Nica-Speicher, Lectures 9-10), whose points sit one
    after each element.  ``faces[j]`` counts the points met so far in the
    frontier face under stack level j-1 (``faces[0]`` the outer face).  When
    an element joins open block d, the faces above d close into one Kreweras
    block together with the point before the element; a new block adds that
    point to the innermost face.  At the end the faces left and the last
    point form the outer Kreweras block.

    ``blocks`` is the generator's own list, changed in place on the next
    step: every consumer reads it before asking for the next partition and
    keeps no reference to it.
    """
    if k <= 1:
        yield ([(0,)] if k else []), 1
        return
    mu_top = _MU_TOP if k < len(_MU_TOP) else _mu_top(k + 1)
    blocks: list[tuple[int, ...]] = [(0,)]
    stack = [0]  # indices of the open blocks, oldest first
    faces = [0, 0]  # Kreweras points per frontier face, outermost first

    def rec(i: int, mu: int, total: int):  # total = sum(faces)
        if i == k - 1:  # the last element: close every face directly
            inner = 0  # points in faces[:depth + 1]
            for depth, b in enumerate(stack):
                inner += faces[depth]
                block = blocks[b]
                blocks[b] = block + (i,)
                yield blocks, mu * mu_top[total - inner + 1] * mu_top[inner + 1]
                blocks[b] = block
            blocks.append((i,))
            yield blocks, mu * mu_top[total + 2]
            blocks.pop()
            return
        for depth, b in enumerate(stack):
            above = stack[depth + 1:]
            del stack[depth + 1:]
            closed = faces[depth + 1:]
            del faces[depth + 1:]
            faces.append(0)
            size = sum(closed)
            block = blocks[b]
            blocks[b] = block + (i,)
            yield from rec(i + 1, mu * mu_top[size + 1], total - size)
            blocks[b] = block
            faces.pop()
            faces.extend(closed)
            stack.extend(above)
        faces[-1] += 1
        faces.append(0)
        stack.append(len(blocks))
        blocks.append((i,))
        yield from rec(i + 1, mu, total + 1)
        blocks.pop()
        stack.pop()
        faces.pop()
        faces[-1] -= 1

    yield from rec(1, 1, 0)


_new = object.__new__
_set_chi = BNCPartition.chi.__set__
_set_blocks = BNCPartition.blocks.__set__


def _unchecked(chi: ChiSeq, blocks: Blocks) -> BNCPartition:
    # construction bypass for partitions that are bi-non-crossing by build
    part = _new(BNCPartition)
    _set_chi(part, chi)
    _set_blocks(part, blocks)
    return part


class _Positions(dict):
    """Relabelled block -> its original positions, ascending, made on first read."""

    __slots__ = ("perm",)

    def __init__(self, perm: tuple[int, ...]):
        self.perm = perm

    def __missing__(self, block: tuple[int, ...]) -> tuple[int, ...]:
        value = self[block] = tuple(sorted(map(self.perm.__getitem__, block)))
        return value


@lru_cache(maxsize=None)
def _enumerate_bnc_cached(chi: ChiSeq) -> tuple[BNCPartition, ...]:
    relabel = _Positions(_sigma(chi)).__getitem__
    # disjoint blocks, so sorting them orders them by first element
    return tuple(
        _unchecked(chi, tuple(sorted(map(relabel, blocks))))
        for blocks, _ in _nc_partitions(len(chi))
    )


def enumerate_bnc(chi: Sequence[str]) -> tuple[BNCPartition, ...]:
    """All bi-non-crossing partitions for ``chi`` in a fixed deterministic order
    (non-crossing restricted-growth strings in lex order, then relabelled)."""
    chi = validate_chi(chi)
    if len(chi) > ENUMERATION_CAP:
        raise CapExceededError(f"|chi| = {len(chi)} exceeds cap {ENUMERATION_CAP}")
    return _enumerate_bnc_cached(chi)


# -- join ------------------------------------------------------------------


def _noncrossing_join(k: int, sets: Iterable[Sequence[int]]) -> list[list[int]]:
    """Blocks of the finest non-crossing partition of {0..k-1} that keeps
    each of ``sets`` inside one block, ascending and ordered by first element.
    After a union-find pass, one left-to-right pass keeps the open blocks
    (seen, with elements still to come) on a stack: an element of an open
    block crosses every block above it, so those merge into it."""
    parent = list(range(k))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for members in sets:
        root = find(members[0])
        for e in members[1:]:
            parent[find(e)] = root
    last = [0] * k
    for i in range(k):
        last[find(i)] = i
    opened = [False] * k
    stack: list[int] = []
    for i in range(k):
        r = find(i)
        if opened[r]:
            while stack[-1] != r:
                c = stack.pop()
                parent[c] = r
                last[r] = max(last[r], last[c])
        else:
            opened[r] = True
            stack.append(r)
        if last[r] == i:
            stack.pop()
    blocks: dict[int, list[int]] = {}
    for i in range(k):
        blocks.setdefault(find(i), []).append(i)
    return list(blocks.values())


def join(sigma: BNCPartition, pi: BNCPartition) -> BNCPartition:
    """Least upper bound inside the bi-non-crossing lattice: the finest
    non-crossing partition, in relabelled positions, above both."""
    _check_same_chi(sigma, pi)
    perm = _sigma(sigma.chi)
    rank = [0] * (len(perm) + 1)  # position -> relabelled index, from 0
    for r, e in enumerate(perm):
        rank[e] = r
    # a singleton merges nothing in the union-find
    relabeled = [[rank[e] for e in b] for b in sigma.blocks + pi.blocks if len(b) > 1]
    joined = _noncrossing_join(len(perm), relabeled)
    positions = (tuple(sorted(map(perm.__getitem__, b))) for b in joined)
    return _unchecked(sigma.chi, tuple(sorted(positions)))


# -- Mobius function --------------------------------------------------------


def _kreweras_mobius(blocks: Iterable[Iterable[int]], n: int) -> int:
    """mu(sigma, 1_n) in NC(n), sigma given by its blocks over 0..n-1: the
    product of (-1)^(s-1) Cat(s-1) over the block sizes s of the Kreweras
    complement sigma^-1 gamma_n (Nica-Speicher, Lectures 9-10).  For the
    intervals of ``mobius``; ``_nc_partitions`` yields the same value for
    every partition of NC(n)."""
    pred = list(range(n))  # sigma^-1, each block a cycle in increasing order
    for block in blocks:
        b = sorted(block)
        for x, y in zip(b, b[1:] + b[:1]):
            pred[y] = x
    seen, value = [False] * n, 1
    for start in range(n):
        s, i = 0, start
        while not seen[i]:
            seen[i] = True
            s, i = s + 1, pred[(i + 1) % n]
        if s:
            value *= (-1) ** (s - 1) * catalan(s - 1)
    return value


def mobius(sigma: BNCPartition, pi: BNCPartition) -> int:
    """Mobius function: through ``sigma_chi``, [sigma, pi] is an interval of
    NC(k), a product over the blocks V of pi of [sigma restricted to V, 1_V],
    each ranked in relabelled order and given by the Kreweras product."""
    _check_same_chi(sigma, pi)
    if not sigma.leq(pi):
        raise ValueError("mobius requires sigma <= pi")
    inv = _inverse_perm(_sigma(sigma.chi))
    value = 1
    for block in pi.blocks:
        rank = {e: r for r, e in enumerate(sorted(block, key=lambda e: inv[e - 1]))}
        inner = [[rank[e] for e in b] for b in sigma.blocks if b[0] in rank]
        value *= _kreweras_mobius(inner, len(block))
    return value


# -- hat embedding -----------------------------------------------------------


def hat_chi(chi: Sequence[str], chi_prime: Sequence[str]) -> ChiSeq:
    """Extended side sequence: ``chi`` on 1..p-1, ``chi_prime`` on p..q,
    where ``chi_prime`` starts at position p = len(chi)."""
    chi = validate_chi(chi)
    chi_prime = validate_chi(chi_prime)
    if len(chi_prime) < 2:
        raise ValueError("chi_prime must cover at least positions p..p+1")
    return chi[:-1] + chi_prime


def hat_embed(pi: BNCPartition, chi_prime: Sequence[str]) -> BNCPartition:
    """Embed a partition over ``chi`` into the extended lattice by adding the
    new positions p+1..q to the block containing p."""
    chi_prime = validate_chi(chi_prime)
    extended = hat_chi(pi.chi, chi_prime)
    p = len(pi.chi)
    q = len(extended)
    blocks = []
    for block in pi.blocks:
        if p in block:
            blocks.append(tuple(sorted(set(block) | set(range(p + 1, q + 1)))))
        else:
            blocks.append(block)
    return BNCPartition(extended, canonical_blocks(blocks))


def hat_zero(chi: Sequence[str], chi_prime: Sequence[str]) -> BNCPartition:
    """Image of the discrete partition: singletons 1..p-1 plus the block {p..q}."""
    chi = validate_chi(chi)
    extended = hat_chi(chi, chi_prime)
    p = len(chi)
    q = len(extended)
    blocks = [(i,) for i in range(1, p)] + [tuple(range(p, q + 1))]
    return BNCPartition(extended, canonical_blocks(blocks))
