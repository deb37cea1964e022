"""Bi-non-crossing partition lattices.

A side sequence ``chi`` (entries ``"l"`` / ``"r"``) induces the permutation
that lists the left positions in increasing order followed by the right
positions in decreasing order.  A set partition of ``{1..k}`` is
bi-non-crossing when it becomes non-crossing after relabelling through the
inverse of that permutation, so the lattice is isomorphic to NC(k).  This
module enumerates the lattice, computes the refinement order, joins, the
Mobius function (a Kreweras-complement product), lattice sums of
block-factored weights (a recursion over intervals), and the bottom-block
embedding used to expand products sitting in the last entry of a cumulant.

Everything is pure; enumeration is memoized per side sequence, so
concurrent readers are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Collection, Iterable, Sequence

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
    chi = validate_chi(chi)
    lefts = [i + 1 for i, label in enumerate(chi) if label == "l"]
    rights = [i + 1 for i, label in enumerate(chi) if label == "r"]
    return tuple(lefts + rights[::-1])


def _inverse_perm(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v - 1] = i + 1
    return tuple(inv)


Blocks = tuple[tuple[int, ...], ...]


def canonical_blocks(blocks: Iterable[Iterable[int]]) -> Blocks:
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))


def _is_noncrossing(blocks: Blocks) -> bool:
    # Two blocks cross iff their merged, block-labelled element list
    # alternates at least four times.
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            merged = sorted(
                [(e, 0) for e in blocks[i]] + [(e, 1) for e in blocks[j]]
            )
            runs = 1
            for (_, a), (_, b) in zip(merged, merged[1:]):
                if a != b:
                    runs += 1
            if runs >= 4:
                return False
    return True


def is_bnc(blocks: Iterable[Iterable[int]], chi: Sequence[str]) -> bool:
    """Whether the given set partition of ``{1..len(chi)}`` is bi-non-crossing."""
    chi = validate_chi(chi)
    blocks = canonical_blocks(blocks)
    covered = sorted(e for b in blocks for e in b)
    if covered != list(range(1, len(chi) + 1)):
        raise ValueError("blocks must partition {1..k}")
    inv = _inverse_perm(sigma_chi(chi))
    relabeled = canonical_blocks(tuple(inv[e - 1] for e in b) for b in blocks)
    return _is_noncrossing(relabeled)


@dataclass(frozen=True)
class BNCPartition:
    """A bi-non-crossing partition together with its side sequence."""

    chi: ChiSeq
    blocks: Blocks

    def __post_init__(self) -> None:
        object.__setattr__(self, "chi", validate_chi(self.chi))
        object.__setattr__(self, "blocks", canonical_blocks(self.blocks))
        if not is_bnc(self.blocks, self.chi):
            raise ValueError(f"partition {self.blocks} is not bi-non-crossing for {self.chi}")

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


def _noncrossing_rgs(k: int):
    """Restricted-growth strings of non-crossing partitions of {0..k-1}, lex order."""
    assignment = [0] * k
    blocks: list[list[int]] = []

    def admissible(i: int, b: int) -> bool:
        top = blocks[b][-1]
        for j in range(top + 1, i):
            if blocks[assignment[j]][0] < top:
                return False
        return True

    def rec(i: int):
        if i == k:
            yield tuple(assignment)
            return
        for b in range(len(blocks) + 1):
            if b < len(blocks) and not admissible(i, b):
                continue
            assignment[i] = b
            if b == len(blocks):
                blocks.append([i])
                yield from rec(i + 1)
                blocks.pop()
            else:
                blocks[b].append(i)
                yield from rec(i + 1)
                blocks[b].pop()

    yield from rec(0)


def _unchecked(chi: ChiSeq, blocks: Blocks) -> BNCPartition:
    # construction bypass for partitions that are bi-non-crossing by build
    part = object.__new__(BNCPartition)
    object.__setattr__(part, "chi", chi)
    object.__setattr__(part, "blocks", blocks)
    return part


@lru_cache(maxsize=None)
def _enumerate_bnc_cached(chi: ChiSeq) -> tuple[BNCPartition, ...]:
    k = len(chi)
    perm = sigma_chi(chi)
    out = []
    for rgs in _noncrossing_rgs(k):
        nblocks = max(rgs) + 1
        blocks: list[list[int]] = [[] for _ in range(nblocks)]
        for pos, b in enumerate(rgs):
            blocks[b].append(perm[pos])
        out.append(_unchecked(chi, canonical_blocks(blocks)))
    return tuple(out)


def enumerate_bnc(chi: Sequence[str], cap: int = ENUMERATION_CAP) -> tuple[BNCPartition, ...]:
    """All bi-non-crossing partitions for ``chi`` in a fixed deterministic order
    (non-crossing restricted-growth strings in lex order, then relabelled)."""
    chi = validate_chi(chi)
    if len(chi) > cap:
        raise CapExceededError(f"|chi| = {len(chi)} exceeds cap {cap}")
    return _enumerate_bnc_cached(chi)


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


# -- join ------------------------------------------------------------------


def _set_join(a: Blocks, b: Blocks, k: int) -> list[set[int]]:
    parent = list(range(k + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for blocks in (a, b):
        for block in blocks:
            for e in block[1:]:
                union(block[0], e)
    groups: dict[int, set[int]] = {}
    for e in range(1, k + 1):
        groups.setdefault(find(e), set()).add(e)
    return list(groups.values())


def _nc_closure(blocks: list[set[int]]) -> list[set[int]]:
    # Smallest non-crossing coarsening: merge crossing pairs until stable.
    merged = True
    while merged:
        merged = False
        n = len(blocks)
        for i in range(n):
            for j in range(i + 1, n):
                pair = canonical_blocks([blocks[i], blocks[j]])
                if not _is_noncrossing(pair):
                    blocks[i] |= blocks[j]
                    del blocks[j]
                    merged = True
                    break
            if merged:
                break
    return blocks


def join(sigma: BNCPartition, pi: BNCPartition) -> BNCPartition:
    """Least upper bound inside the bi-non-crossing lattice."""
    _check_same_chi(sigma, pi)
    chi = sigma.chi
    k = len(chi)
    inv = _inverse_perm(sigma_chi(chi))
    perm = sigma_chi(chi)

    def relabel(blocks: Blocks, table: tuple[int, ...]) -> Blocks:
        return canonical_blocks(tuple(table[e - 1] for e in b) for b in blocks)

    a = relabel(sigma.blocks, inv)
    b = relabel(pi.blocks, inv)
    joined = _set_join(a, b, k)
    joined = _nc_closure(joined)
    return BNCPartition(chi, relabel(canonical_blocks(joined), perm))


# -- Mobius function and interval sums ---------------------------------------


def _kreweras_mobius(blocks: Iterable[Iterable[int]], n: int) -> int:
    """mu(sigma, 1_n) in NC(n), sigma given by its blocks over 1..n: the
    product of (-1)^(s-1) Cat(s-1) over the block sizes s of the Kreweras
    complement sigma^-1 gamma_n (Nica-Speicher, Lectures 9-10)."""
    pred = list(range(n + 1))  # sigma^-1, each block a cycle in increasing order
    for block in blocks:
        b = sorted(block)
        for x, y in zip(b, b[1:] + b[:1]):
            pred[y] = x
    seen, value = set(), 1
    for start in range(1, n + 1):
        s, i = 0, start
        while i not in seen:
            seen.add(i)
            s, i = s + 1, pred[i % n + 1]
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
    inv = _inverse_perm(sigma_chi(sigma.chi))
    value = 1
    for block in pi.blocks:
        rank = {e: r for r, e in enumerate(sorted(block, key=lambda e: inv[e - 1]), 1)}
        inner = [[rank[e] for e in b] for b in sigma.blocks if b[0] in rank]
        value *= _kreweras_mobius(inner, len(block))
    return value


def _nc_block_sum(chi: ChiSeq, sizes: Collection[int], weight: Callable[[tuple[int, ...]], Any]):
    """Sum over the lattice of the product of ``weight(V)`` over the blocks V
    of partitions whose block sizes all lie in ``sizes``, by first-block
    recursion over intervals of the relabelled order (the gaps the first
    block leaves are intervals again), memoized for this call only.
    ``weight`` sees V in original positions, ascending."""
    perm = sigma_chi(chi)
    longest = max(sizes, default=0)

    @lru_cache(maxsize=None)
    def interval(i: int, j: int):
        # sum over non-crossing partitions of relabelled positions i..j-1
        if i == j:
            return 1
        total = 0
        stack = [((i,), 1)]
        while stack:
            block, gaps = stack.pop()
            last = block[-1]
            if len(block) in sizes:
                w = weight(tuple(sorted(perm[v] for v in block)))
                if w:
                    total += w * gaps * interval(last + 1, j)
            if len(block) < longest:
                for nxt in range(last + 1, j):
                    gap = interval(last + 1, nxt)
                    if gap:
                        stack.append((block + (nxt,), gaps * gap))
        return total

    return interval(0, len(chi))


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
