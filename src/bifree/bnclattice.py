"""Bi-non-crossing partition lattices.

A side sequence ``chi`` (entries ``"l"`` / ``"r"``) induces the permutation
that lists the left positions in increasing order followed by the right
positions in decreasing order.  A set partition of ``{1..k}`` is
bi-non-crossing when it becomes non-crossing after relabelling through the
inverse of that permutation, so the lattice is isomorphic to NC(k).  This
module enumerates the lattice (one walk over NC(k) with a stack of open
blocks, which carries each block as its positions and hands every partition
to a visitor already canonical), computes the refinement order, joins,
the Mobius function, the bottom-block embedding, and the expansion of a
product sitting in the last entry of a cumulant (``cumulant`` re-exports
it), a walk of its own over the kept partitions only.  Joins and the
bi-non-crossing check of every validated partition take one non-crossing
closure of int bitmasks, bit r for relabelled index r (``_nc_closure``, the
bits from ``_chi_bits``); no other module knows that encoding.  mu(pi, 1_k)
is a product over the Kreweras complement of pi: the walk carries it face by
face for every partition it visits, and ``mobius`` forms it from the blocks
of each interval.  Sums of block-factored cumulants over the lattice
(moments) live with the moment functionals in ``cumulant``.

Everything is pure; enumeration is memoized per side sequence, so
concurrent readers are safe.  A cold enumeration pauses the cyclic
collector and turns it back on only if it was on at entry, so a thread that
turns it off while another thread's enumeration runs finds it on again after.
"""

from __future__ import annotations

import bisect
import gc
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from ._io import BifreeInputError

ChiSeq = tuple[str, ...]

#: Exhaustive lattice work beyond this length is impractical (Catalan growth).
ENUMERATION_CAP = 12


class CapExceededError(BifreeInputError):
    """The requested chi sequence is longer than the enumeration cap."""


def validate_chi(chi: Sequence[str]) -> ChiSeq:
    chi = tuple(chi)
    if not chi:
        raise BifreeInputError("chi must be nonempty")
    for label in chi:
        if label not in ("l", "r"):
            raise BifreeInputError(f"chi labels must be 'l' or 'r', got {label!r}")
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
    """``canonical_blocks`` of blocks that must each be a nonempty run of
    ints (``bool`` is not one)."""
    out = []
    for block in blocks:
        block = tuple(block)
        if not block or not all(type(e) is int for e in block):
            raise BifreeInputError(f"a block must be a nonempty collection of ints, got {block!r}")
        out.append(block)
    return canonical_blocks(out)


def is_bnc(blocks: Iterable[Iterable[int]], chi: Sequence[str]) -> bool:
    """Whether the given set partition of ``{1..len(chi)}`` is bi-non-crossing:
    as bitmasks of relabelled indices, its blocks must come through the
    non-crossing closure unmerged."""
    return _is_bnc(_checked_blocks(blocks), validate_chi(chi))


def _is_bnc(blocks: Blocks, chi: ChiSeq) -> bool:
    # is_bnc of checked blocks over a validated chi; the partition check
    # comes first, so every entry indexes ``bits`` inside 1..k
    covered = sorted(e for b in blocks for e in b)
    if covered != list(range(1, len(chi) + 1)):
        raise BifreeInputError("blocks must partition {1..k}")
    bits = _chi_bits(chi)
    masks = [sum(map(bits.__getitem__, b)) for b in blocks if len(b) > 1]
    return len(_nc_closure(len(chi), masks)) == len(masks)


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
            raise BifreeInputError(f"partition {blocks} is not bi-non-crossing for {chi}")

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
        raise BifreeInputError("partitions live over different chi sequences")


def zero_partition(chi: Sequence[str]) -> BNCPartition:
    chi = validate_chi(chi)
    return BNCPartition(chi, tuple((i,) for i in range(1, len(chi) + 1)))


def one_partition(chi: Sequence[str]) -> BNCPartition:
    chi = validate_chi(chi)
    return BNCPartition(chi, (tuple(range(1, len(chi) + 1)),))


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


#: The factor of mu(pi, 1) that one Kreweras block of size s <= the cap
#: contributes: mu(0_s, 1_s) = (-1)^(s-1) Cat(s-1) (0 at s = 0).
_MU_TOP = (0,) + tuple((-1) ** (s - 1) * catalan(s - 1) for s in range(1, ENUMERATION_CAP + 1))


def _bnc_walk(perm: Sequence[int], visit: Callable[[list, int], object]) -> None:
    """Call ``visit(starts, mu)`` for every non-crossing partition pi of the
    relabelled order 0..k-1, read back through ``perm`` (k = len(perm) <= the
    cap, positions up to k, as sigma_chi's 1..k) as blocks of positions,
    with mu(pi, 1_k).  ``starts[e]`` is the block whose
    first position is e, ascending, and None where no block starts, so the
    blocks in ``starts`` are the canonical blocks of the partition.  The
    partitions come in the lex order of their relabelled restricted-growth
    strings.  The blocks that can take the next element without crossing
    form a stack of open blocks; giving the element to one of them closes
    every block above it.

    mu is the product of (-1)^(s-1) Cat(s-1) over the block sizes s of the
    Kreweras complement (Nica-Speicher, Lectures 9-10), whose points sit one
    after each element.  ``faces[j]`` counts the points met so far in the
    frontier face under stack level j-1 (``faces[0]`` the outer face).  When
    an element joins open block d, the faces above d close into one Kreweras
    block together with the point before the element; a new block adds that
    point to the innermost face.  At the end the faces left and the last
    point form the outer Kreweras block.

    Every singleton is made once, and a block grows by position p through
    one dict per p (``_grown``), so equal blocks are one object across the
    walk.  ``starts`` is the walk's own list, changed in place after
    ``visit`` returns: a visitor reads it and keeps no reference to it.
    The walk leaves no reference cycle, so its state and the visitor are
    freed when it returns.
    """
    k = len(perm)
    starts: list = [None] * (k + 1)
    if k <= 1:
        if k:
            starts[perm[0]] = (perm[0],)
        visit(starts, 1)
        return
    mu_top = _MU_TOP
    levels = [(p, (p,), {}) for p in perm]  # per element: its position, singleton, growth
    stack = [levels[0][1]]  # the open blocks, oldest first
    starts[perm[0]] = stack[0]
    faces = [0, 0]  # Kreweras points per frontier face, outermost first

    def rec(i: int, mu: int, total: int) -> None:  # total = sum(faces)
        p, single, grow = levels[i]
        if i == k - 1:  # the last element: close every face directly
            inner = 0  # points in faces[:depth + 1]
            for depth, block in enumerate(stack):
                inner += faces[depth]
                new = grow.get(block) or _grown(grow, block, p)
                starts[block[0]] = None
                starts[new[0]] = new
                visit(starts, mu * mu_top[total - inner + 1] * mu_top[inner + 1])
                starts[new[0]] = None
                starts[block[0]] = block
            starts[p] = single
            visit(starts, mu * mu_top[total + 2])
            starts[p] = None
            return
        for depth, block in enumerate(stack):
            above = stack[depth + 1:]
            del stack[depth + 1:]
            closed = faces[depth + 1:]
            del faces[depth + 1:]
            faces.append(0)
            size = sum(closed)
            new = stack[depth] = grow.get(block) or _grown(grow, block, p)
            starts[block[0]] = None
            starts[new[0]] = new
            rec(i + 1, mu * mu_top[size + 1], total - size)
            starts[new[0]] = None
            starts[block[0]] = stack[depth] = block
            faces.pop()
            faces.extend(closed)
            stack.extend(above)
        faces[-1] += 1
        faces.append(0)
        starts[p] = single
        stack.append(single)
        rec(i + 1, mu, total + 1)
        stack.pop()
        starts[p] = None
        faces.pop()
        faces[-1] -= 1

    try:
        rec(1, 1, 0)
    finally:
        del rec  # rec reaches itself through its closure cell


def _grown(grow: dict, block: tuple[int, ...], p: int) -> tuple[int, ...]:
    """``block`` with position p inserted, ascending, kept in ``grow`` under ``block``."""
    j = bisect.bisect(block, p)
    value = grow[block] = block[:j] + (p,) + block[j:]
    return value


_new = object.__new__
_set_chi = BNCPartition.chi.__set__
_set_blocks = BNCPartition.blocks.__set__


def _unchecked(chi: ChiSeq, blocks: Blocks) -> BNCPartition:
    # construction bypass for partitions that are bi-non-crossing by build
    part = _new(BNCPartition)
    _set_chi(part, chi)
    _set_blocks(part, blocks)
    return part


@lru_cache(maxsize=None)
def _enumerate_bnc_cached(chi: ChiSeq) -> tuple[BNCPartition, ...]:
    out: list[BNCPartition] = []
    append = out.append
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        _bnc_walk(_sigma(chi), lambda starts, mu: append(_unchecked(chi, tuple(filter(None, starts)))))
        return tuple(out)
    finally:
        if was_enabled:
            gc.enable()


def enumerate_bnc(chi: Sequence[str]) -> tuple[BNCPartition, ...]:
    """All bi-non-crossing partitions for ``chi`` in a fixed deterministic order
    (the lex order of their relabelled restricted-growth strings).

    Every lattice is kept for the life of the process, equal blocks shared:
    one of length 12 (208,012 partitions) holds about 31 MB.  A cold call
    builds it with the cyclic collector paused, as no partition can form a
    cycle, and leaves the collector on or off as it found it."""
    chi = validate_chi(chi)
    if len(chi) > ENUMERATION_CAP:
        raise CapExceededError(f"|chi| = {len(chi)} exceeds cap {ENUMERATION_CAP}")
    return _enumerate_bnc_cached(chi)


# -- join ------------------------------------------------------------------


@lru_cache(maxsize=4096)
def _chi_bits(chi: ChiSeq) -> tuple[int, ...]:
    """``bits[e]`` for the positions e in 1..k of a validated chi: 1 << r
    where e = sigma_chi[r], the bit of its relabelled index (``bits[0]`` is
    0).  Built once per chi (4,096 kept: every side sequence of length 12)."""
    bits = [0] * (len(chi) + 1)
    for r, e in enumerate(_sigma(chi)):
        bits[e] = 1 << r
    return tuple(bits)


def _nc_closure(k: int, masks: Iterable[int]) -> list[int]:
    """Blocks, as bitmasks, of the finest non-crossing partition of the bits
    0..k-1 that keeps each of ``masks`` (nonempty) inside one block; a bit
    no mask covers is a singleton and is left out.

    The sets come in order of their lowest bit, those sharing it ORed into
    one (they meet).  The open blocks sit on a stack, each in one gap of the
    block below it.  A top block that ends below the new set's lowest bit is
    done.  A top block with a bit inside the set's span crosses or meets it,
    so it merges in and the span widens; a top block without one holds the
    set in one of its gaps, and so does every block under it.  The span
    keeps the set's own lowest bit: a block under the merged one has no bit
    between the two lowest bits, as the merged block sat in one of its gaps.
    """
    by_low = [0] * k
    for m in masks:
        by_low[(m & -m).bit_length() - 1] |= m
    done: list[int] = []
    stack: list[int] = []
    for m in by_low:
        if not m:
            continue
        low = m & -m
        while stack and stack[-1] < low:
            done.append(stack.pop())
        while stack and stack[-1] & ((1 << m.bit_length()) - low):
            m |= stack.pop()
        stack.append(m)
    return done + stack


def join(sigma: BNCPartition, pi: BNCPartition) -> BNCPartition:
    """Least upper bound inside the bi-non-crossing lattice: the finest
    non-crossing partition, in relabelled positions, above both, from the
    bitmask closure of the blocks of two or more positions (a singleton
    merges nothing)."""
    _check_same_chi(sigma, pi)
    k = len(sigma.chi)
    bits = _chi_bits(sigma.chi)
    masks = [sum(map(bits.__getitem__, b)) for b in sigma.blocks + pi.blocks if len(b) > 1]
    closed = _nc_closure(k, masks)
    blocks: dict[int, list[int]] = {}  # closed mask -> its positions, by first position
    for e in range(1, k + 1):
        bit = bits[e]
        for m in closed:
            if m & bit:
                break
        else:  # no mask covers e: a singleton
            m = bit
        blocks.setdefault(m, []).append(e)
    return _unchecked(sigma.chi, tuple(map(tuple, blocks.values())))


# -- Mobius function --------------------------------------------------------


def _kreweras_mobius(blocks: Iterable[Iterable[int]], n: int) -> int:
    """mu(sigma, 1_n) in NC(n), sigma given by its blocks over 0..n-1: the
    product of (-1)^(s-1) Cat(s-1) over the block sizes s of the Kreweras
    complement sigma^-1 gamma_n (Nica-Speicher, Lectures 9-10).  For the
    intervals of ``mobius``; ``_bnc_walk`` carries the same value to every
    partition it visits."""
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
        raise BifreeInputError("mobius requires sigma <= pi")
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
        raise BifreeInputError("chi_prime must cover at least positions p..p+1")
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


def expand_product_last_entry(
    pi: BNCPartition, chi: Sequence[str], chi_prime: Sequence[str]
) -> tuple[BNCPartition, ...]:
    """Partitions realizing a product in the last entry.

    Returns the partitions sigma over the extended side sequence whose join
    with the bottom-block embedding of the discrete partition equals the
    embedding of ``pi``; summing block-factored cumulants over them expands a
    cumulant whose last entry is the product of the new letters.

    sigma <= sigma v bottom = pi_hat, and the bottom embedding is discrete
    on every block of pi_hat but the one S holding p..q, so sigma keeps
    pi's other blocks whole and splits S into a non-crossing partition of
    its relabelled order, in which the product positions I = p..q are
    contiguous.  The join is pi_hat exactly when every block inside S meets
    I (Krawczyk-Speicher).  So the walk, in ``_bnc_walk``'s order, never
    closes a block that has not met I, never leaves one open at the end,
    and never opens one that the positions of I still to come cannot reach.
    """
    chi = validate_chi(chi)
    if pi.chi != chi:
        raise BifreeInputError("pi must live over chi")
    extended = hat_chi(chi, chi_prime)
    p = len(chi)
    kept = [b for b in pi.blocks if p not in b]
    (block,) = [b for b in pi.blocks if p in b]
    order = [e for e in _sigma(extended) if e >= p or e in block]  # S, relabelled
    room = [sum(f >= p for f in order[i + 1:]) for i in range(len(order))]  # I after i
    blocks: list[list[int]] = []  # sigma's blocks inside S, in the order they open
    out = []

    def rec(i: int, stack: list[int], unmet: int) -> None:
        # stack: open blocks, oldest first; the first unmet miss I, each needing a later I position
        if i == len(order):
            inner = [tuple(sorted(b)) for b in blocks]
            out.append(_unchecked(extended, tuple(sorted(kept + inner))))
            return
        e = order[i]  # in I when e >= p
        for depth in range(max(unmet - 1, 0), len(stack)):  # closes only met blocks
            left = unmet - 1 if e >= p and depth == unmet - 1 else unmet
            if left <= room[i]:
                blocks[stack[depth]].append(e)
                rec(i + 1, stack[:depth + 1], left)
                blocks[stack[depth]].pop()
        if unmet + (e < p) <= room[i]:
            blocks.append([e])
            rec(i + 1, stack + [len(blocks) - 1], unmet + (e < p))
            blocks.pop()

    rec(0, [], 0)
    del rec  # rec reaches itself through its closure cell
    return tuple(out)


def hat_zero(chi: Sequence[str], chi_prime: Sequence[str]) -> BNCPartition:
    """Image of the discrete partition: singletons 1..p-1 plus the block {p..q}."""
    chi = validate_chi(chi)
    extended = hat_chi(chi, chi_prime)
    p = len(chi)
    q = len(extended)
    blocks = [(i,) for i in range(1, p)] + [tuple(range(p, q + 1))]
    return BNCPartition(extended, canonical_blocks(blocks))
