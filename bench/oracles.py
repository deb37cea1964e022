"""Independent reference values for the benchmark's correctness checks.

Nothing here calls ``bifree``.  The bi-non-crossing lattice of a side
sequence chi is order-isomorphic to the non-crossing lattice NC(k) through
the permutation that lists left positions ascending and right positions
descending, so the oracles work on NC(k) and map blocks back to positions:

* Mobius values come from the Kreweras complement: on each block V of pi,
  mu(sigma, pi) multiplies (-1)^(s-1) Cat(s-1) over the block sizes s of the
  Kreweras complement of sigma restricted to V.
* Moments of a "multiplicative" cumulant spec (kappa of a pattern is
  w[len] times the product of per-letter values u) come from Kreweras'
  count of non-crossing partitions with a given block-size profile.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Sequence


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def sigma_positions(chi: Sequence[str]) -> list[int]:
    """1-based positions: lefts ascending, then rights descending."""
    lefts = [i + 1 for i, side in enumerate(chi) if side == "l"]
    rights = [i + 1 for i, side in enumerate(chi) if side == "r"]
    return lefts + rights[::-1]


def to_positions(nc_blocks, chi: Sequence[str]) -> tuple[tuple[int, ...], ...]:
    """Blocks of an NC(k) partition (0-based) as 1-based positions of chi."""
    perm = sigma_positions(chi)
    return tuple(
        sorted((tuple(sorted(perm[e] for e in block)) for block in nc_blocks),
               key=lambda b: b[0])
    )


def nc_partitions(k: int) -> Iterator[list[list[int]]]:
    """Every non-crossing partition of range(k), once each.

    Element i either opens a block or joins a block that is still open;
    joining closes every block opened after the joined one (those are nested
    inside the new gap and can take no later element).
    """
    blocks: list[list[int]] = []
    stack: list[int] = []

    def rec(i: int):
        if i == k:
            yield [list(b) for b in blocks]
            return
        blocks.append([i])
        stack.append(len(blocks) - 1)
        yield from rec(i + 1)
        stack.pop()
        blocks.pop()
        for depth in range(len(stack) - 1, -1, -1):
            closed = stack[depth + 1:]
            del stack[depth + 1:]
            blocks[stack[depth]].append(i)
            yield from rec(i + 1)
            blocks[stack[depth]].pop()
            stack.extend(closed)

    yield from rec(0)


def random_nc_partition(rng, k: int) -> list[list[int]]:
    """A non-crossing partition of range(k) drawn by the same open-block walk."""
    blocks: list[list[int]] = []
    stack: list[int] = []
    for i in range(k):
        choice = rng.randrange(len(stack) + 1)
        if choice == len(stack):
            blocks.append([i])
            stack.append(len(blocks) - 1)
        else:
            del stack[choice + 1:]
            blocks[stack[choice]].append(i)
    return blocks


def nc_with_profile(rng, sizes: Sequence[int]) -> list[list[int]]:
    """A non-crossing partition with the given block sizes: consecutive runs
    in a seeded order, then rotated around the circle (rotation keeps
    partitions non-crossing)."""
    sizes = list(sizes)
    rng.shuffle(sizes)
    k = sum(sizes)
    shift = rng.randrange(k)
    blocks, start = [], 0
    for s in sizes:
        blocks.append(sorted((start + j + shift) % k for j in range(s)))
        start += s
    return blocks


def _kreweras_sizes(blocks: Sequence[Sequence[int]], n: int) -> list[int]:
    # Kreweras complement as the permutation pi^-1 gamma, gamma = (0 1 ... n-1)
    inverse = list(range(n))
    for block in blocks:
        b = sorted(block)
        for a, nxt in zip(b, b[1:] + b[:1]):
            inverse[nxt] = a
    seen = [False] * n
    sizes = []
    for start in range(n):
        if seen[start]:
            continue
        size, i = 0, start
        while not seen[i]:
            seen[i] = True
            size += 1
            i = inverse[(i + 1) % n]
        sizes.append(size)
    return sizes


def _mobius_full(size: int) -> int:
    return (-1) ** (size - 1) * catalan(size - 1)


def nc_mobius(sigma, pi) -> int:
    """mu(sigma, pi) on NC(k) for sigma <= pi (blocks over range(k))."""
    value = 1
    for outer in pi:
        rank = {e: r for r, e in enumerate(sorted(outer))}
        inner = [[rank[e] for e in b] for b in sigma if b[0] in rank]
        for s in _kreweras_sizes(inner, len(outer)):
            value *= _mobius_full(s)
    return value


def refines(fine, coarse) -> bool:
    """Every block of ``fine`` lies inside one block of ``coarse``."""
    where = {e: i for i, b in enumerate(coarse) for e in b}
    return all(len({where[e] for e in b}) == 1 for b in fine)


def cumulant_from_table(table, word, chi) -> Fraction:
    """Mobius-inversion cumulant of single letters against a word table."""
    k = len(chi)
    perm = sigma_positions(chi)
    top = [list(range(k))]
    total = Fraction(0)
    for rho in nc_partitions(k):
        product = Fraction(1)
        for block in rho:
            sub = tuple(word[p - 1] for p in sorted(perm[e] for e in block))
            product *= table.get(sub, 0)
            if not product:
                break
        if product:
            total += product * nc_mobius(rho, top)
    return total


def _profiles(k: int, max_size: int, smallest: int = 1):
    # multisets of block sizes summing to k, as {size: count}
    if k == 0:
        yield {}
        return
    for s in range(smallest, min(k, max_size) + 1):
        for rest in _profiles(k - s, max_size, s):
            out = dict(rest)
            out[s] = out.get(s, 0) + 1
            yield out


def multiplicative_moment(weights: dict[int, Fraction], letter_product: Fraction, k: int) -> Fraction:
    """Moment of k letters when kappa(pattern) = weights[len] * prod(u).

    Every lattice element contributes letter_product times the product of
    its block weights; Kreweras: NC(k) has k! / ((k-b+1)! prod m_s!)
    partitions with m_s blocks of size s and b blocks in all.
    """
    total = Fraction(0)
    for profile in _profiles(k, max(weights)):
        blocks = sum(profile.values())
        count = math.factorial(k) // math.factorial(k - blocks + 1)
        weight = Fraction(1)
        for size, mult in profile.items():
            count //= math.factorial(mult)
            weight *= weights[size] ** mult
        total += count * weight
    return total * letter_product


def fraction_inverse(a: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse by Gauss-Jordan elimination (a must be invertible)."""
    n = len(a)
    rows = [list(map(Fraction, r)) + [Fraction(int(i == j)) for j in range(n)]
            for i, r in enumerate(a)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        scale = rows[col][col]
        rows[col] = [x / scale for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [r[n:] for r in rows]


def evaluate(word, values) -> Fraction:
    """Scalar evaluation of a word (a homomorphism in either mode)."""
    out = Fraction(1)
    for letter in word:
        out *= values[letter]
    return out
