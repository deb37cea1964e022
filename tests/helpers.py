"""Shared deterministic random generators and brute-force oracles for the
test suite."""

from __future__ import annotations

import csv
import io
import json
import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
from hypothesis import strategies as st

from bifree.bipartite_num import (
    _FFT_ROWS,
    MASK_THRESHOLD,
    DensityGrid,
    FieldConfig,
    GridSpec,
    _AxisKernel,
    axes_to_json_dict,
    conjugate_field,
    density_to_json_dict,
    grid_from_spec,
    marginals,
)
from bifree.bnclattice import (
    BNCPartition,
    _inverse_perm,
    _unchecked,
    canonical_blocks,
    enumerate_bnc,
    hat_chi,
    hat_embed,
    hat_zero,
    is_bnc,
    join,
    mobius,
    one_partition,
    sigma_chi,
    zero_partition,
)
from bifree.cumulant import TableMomentFunctional, moment_pi, pattern_of_letters
from bifree import derivation
from bifree.derivation import ConjugateReport, QuotientKind, enumerate_words
from bifree.ncalg import (
    LEFT,
    RIGHT,
    STRAIGHT,
    AlgebraMode,
    Letter,
    NCPolynomial,
    TensorPoly,
    Word,
    lsym,
    lvar,
    mul,
    normal_form,
    normalize_poly,
    rsym,
    rvar,
    star,
    tensor_mul,
    tensor_of,
)


def var_letters(mode: AlgebraMode) -> list[Letter]:
    return [lvar(i + 1) for i in range(mode.left_arity)] + [
        rvar(j + 1) for j in range(mode.right_arity)
    ]


def mixed_letters(mode: AlgebraMode, n_syms: int = 2) -> list[Letter]:
    return (
        var_letters(mode)
        + [lsym(i + 1) for i in range(n_syms)]
        + [rsym(i + 1) for i in range(n_syms)]
    )


def rand_frac(rng: random.Random, span: int = 4) -> Fraction:
    num = rng.randint(-span, span)
    return Fraction(num if num else 1, rng.randint(1, span))


def rand_word(rng: random.Random, letters, max_len: int, mode: AlgebraMode) -> Word:
    w = tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len)))
    return normal_form(w, mode)


def rand_poly(
    rng: random.Random,
    mode: AlgebraMode,
    letters=None,
    max_terms: int = 4,
    max_len: int = 4,
) -> NCPolynomial:
    letters = letters or var_letters(mode)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[rand_word(rng, letters, max_len, mode)] = rand_frac(rng)
    return NCPolynomial(terms)


def rand_functional(
    rng: random.Random, mode: AlgebraMode, degree_bound: int
) -> TableMomentFunctional:
    """A completely random moment table on canonical words up to the bound."""
    table = {}
    for word in enumerate_words(mode, degree_bound):
        table[word] = rand_frac(rng) if word else Fraction(1)
    return TableMomentFunctional(mode, table, degree_bound)


def fraction_inverse(a):
    """Exact inverse of a square table of rationals by Gauss-Jordan elimination."""
    k = len(a)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(k)]
            for i, row in enumerate(a)]
    for col in range(k):
        pivot = next(r for r in range(col, k) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(k):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [row[k:] for row in rows]


def rand_chi(rng: random.Random, k: int) -> tuple[str, ...]:
    return tuple(rng.choice("lr") for _ in range(k))


def rand_psd(rng: np.random.Generator, k: int, rank: int | None = None) -> np.ndarray:
    r = rank if rank is not None else k
    b = rng.normal(size=(k, r))
    return b @ b.T


def rand_psd_spectrum(
    rng: np.random.Generator, k: int, rank: int, lo: float = 0.5, hi: float = 3.0
) -> np.ndarray:
    """Rank-``rank`` PSD matrix whose nonzero eigenvalues stay in [lo, hi]."""
    q, _ = np.linalg.qr(rng.normal(size=(k, k)))
    eigs = np.zeros(k)
    eigs[:rank] = rng.uniform(lo, hi, size=rank)
    return (q * eigs) @ q.T


def rank_by_svd(a: np.ndarray, tol: float) -> int:
    """Numerical rank from a singular value decomposition of its own: the
    singular values above ``tol`` times the largest."""
    svals = np.linalg.svd(a, compute_uv=False)
    top = float(svals.max(initial=0.0))
    return int((svals > tol * top).sum()) if top else 0


def all_set_partitions(k: int):
    """Every set partition of {1..k} via unrestricted growth strings."""

    def rec(i: int, assignment: list[int], nblocks: int):
        if i == k:
            blocks: list[list[int]] = [[] for _ in range(nblocks)]
            for pos, b in enumerate(assignment):
                blocks[b].append(pos + 1)
            yield tuple(tuple(b) for b in blocks)
            return
        for b in range(nblocks + 1):
            assignment.append(b)
            yield from rec(i + 1, assignment, max(nblocks, b + 1))
            assignment.pop()

    yield from rec(0, [], 0)


# -- enumeration oracles ---------------------------------------------------------
# Definitions by brute force over the lattice, kept only to check the library's
# closed forms and interval recursions.


def mobius_by_recursion(lattice):
    """mu(sigma, pi) on ``lattice`` from the defining recursion
    sum_{sigma <= rho <= pi} mu(rho, pi) = [sigma == pi], memoized per lattice."""
    memo: dict = {}

    def mu(sigma, pi) -> int:
        key = (sigma.blocks, pi.blocks)
        if key not in memo:
            if sigma == pi:
                memo[key] = 1
            else:
                memo[key] = -sum(
                    mu(rho, pi)
                    for rho in lattice
                    if rho != sigma and sigma.leq(rho) and rho.leq(pi)
                )
        return memo[key]

    return mu


def moment_by_lattice_sum(spec, chi, word) -> Fraction:
    """Sum over the whole lattice of block-factored cumulants of single letters."""
    total = Fraction(0)
    for pi in enumerate_bnc(chi):
        product = Fraction(1)
        for block in pi.blocks:
            product *= spec.kappa(pattern_of_letters([word[p - 1] for p in block]))
        total += product
    return total


def moment_by_interval_recursion(spec, chi, word) -> Fraction:
    """The same sum by first-block recursion over intervals of the relabelled
    order (the gaps the first block leaves are intervals again), memoized for
    this call only and sharing nothing with the library's functionals."""
    perm = sigma_chi(chi)
    sizes = {len(pattern) for pattern in spec.entries}
    longest = max(sizes, default=0)

    @lru_cache(maxsize=None)
    def interval(i: int, j: int) -> Fraction:
        # sum over non-crossing partitions of relabelled positions i..j-1
        if i == j:
            return Fraction(1)
        total = Fraction(0)
        stack = [((i,), Fraction(1))]
        while stack:
            block, gaps = stack.pop()
            last = block[-1]
            if len(block) in sizes:
                letters = [word[p - 1] for p in sorted(perm[v] for v in block)]
                kappa = spec.kappa(pattern_of_letters(letters))
                if kappa:
                    total += kappa * gaps * interval(last + 1, j)
            if len(block) < longest:
                for nxt in range(last + 1, j):
                    gap = interval(last + 1, nxt)
                    if gap:
                        stack.append((block + (nxt,), gaps * gap))
        return total

    return interval(0, len(chi))


def pair_partitions(k: int):
    """All perfect matchings of range(k) as tuples of index pairs."""
    if k % 2:
        return
    if k == 0:
        yield ()
        return

    def rec(free: list[int]):
        if not free:
            yield ()
            return
        head = free[0]
        for pos in range(1, len(free)):
            rest = free[1:pos] + free[pos + 1:]
            for tail in rec(rest):
                yield ((head, free[pos]),) + tail

    yield from rec(list(range(k)))


def gaussian_moment_by_pairings(cov, pattern) -> float:
    """Sum over every pairing that is bi-non-crossing of covariance products."""
    if not pattern:
        return 1.0
    chi = tuple(side for side, _ in pattern)
    flats = [cov.flat_index(side, index) for side, index in pattern]
    total = 0.0
    for matching in pair_partitions(len(pattern)):
        if is_bnc([(a + 1, b + 1) for a, b in matching], chi):
            total += math.prod(cov.A[flats[a], flats[b]] for a, b in matching)
    return total


def nc_block_type_count(sizes) -> int:
    """Non-crossing partitions of {1..n} whose block sizes are the multiset
    ``sizes`` (Kreweras): n! / ((n - b + 1)! prod_i m_i!) with b blocks and
    m_i blocks of size i."""
    n, b = sum(sizes), len(sizes)
    denominator = math.factorial(n - b + 1)
    for size in set(sizes):
        denominator *= math.factorial(sizes.count(size))
    return math.factorial(n) // denominator


def integer_partitions(n: int, largest: int):
    """Partitions of n into parts of size at most ``largest``, as tuples."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in integer_partitions(n - part, part):
            yield (part,) + rest


def noncrossing_rgs(k: int):
    """Restricted-growth strings of non-crossing partitions of {0..k-1} in lex
    order, each new entry checked against every earlier position."""
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


def nc_partitions_by_stack(k: int):
    """Non-crossing partitions of {0..k-1} as tuples of ascending blocks, in
    the lex order of their restricted-growth strings, from a stack of open
    blocks without the Mobius value: the enumeration order to keep."""
    blocks: list[tuple[int, ...]] = []
    stack: list[int] = []  # indices of the open blocks, oldest first

    def rec(i: int):
        if i == k - 1:  # the last element: yield each choice directly
            for b in stack:
                block = blocks[b]
                blocks[b] = block + (i,)
                yield tuple(blocks)
                blocks[b] = block
            yield (*blocks, (i,))
            return
        for depth, b in enumerate(stack):
            above = stack[depth + 1:]
            del stack[depth + 1:]
            block = blocks[b]
            blocks[b] = block + (i,)
            yield from rec(i + 1)
            blocks[b] = block
            stack.extend(above)
        stack.append(len(blocks))
        blocks.append((i,))
        yield from rec(i + 1)
        blocks.pop()
        stack.pop()

    if k:
        yield from rec(0)
    else:
        yield ()


@lru_cache(maxsize=None)
def noncrossing_rgs_table(k: int) -> tuple:
    return tuple(noncrossing_rgs(k))


def rand_nc_rgs(rng: random.Random, k: int) -> tuple[int, ...]:
    """A restricted-growth string of a non-crossing partition of {0..k-1}:
    each element opens a block or joins an open one, closing every block
    opened after it."""
    rgs: list[int] = []
    stack: list[int] = []  # the open blocks, oldest first
    for _ in range(k):
        depth = rng.randrange(len(stack) + 1)
        if depth == len(stack):
            stack.append(max(rgs, default=-1) + 1)
        else:
            del stack[depth + 1:]
        rgs.append(stack[depth])
    return tuple(rgs)


def rand_set_partition(rng: random.Random, k: int, max_blocks: int):
    """Blocks of a random set partition of {1..k} into at most ``max_blocks``
    blocks, as a random growth string, so most of them cross."""
    blocks: list[list[int]] = []
    for e in range(1, k + 1):
        b = rng.randrange(min(len(blocks) + 1, max_blocks))
        if b == len(blocks):
            blocks.append([])
        blocks[b].append(e)
    return tuple(map(tuple, blocks))


def rgs_bnc_blocks(rgs, chi):
    """Blocks, in original positions, of the partition of ``chi`` whose
    relabelled restricted-growth string is ``rgs``."""
    perm = sigma_chi(chi)
    blocks: list[list[int]] = [[] for _ in range(max(rgs) + 1)]
    for pos, b in enumerate(rgs):
        blocks[b].append(perm[pos])
    return canonical_blocks(blocks)


def bnc_partitions(chi):
    """Hypothesis strategy: a bi-non-crossing partition of ``chi``."""
    return st.sampled_from(noncrossing_rgs_table(len(chi))).map(
        lambda rgs: BNCPartition(chi, rgs_bnc_blocks(rgs, chi))
    )


def is_noncrossing_by_pairs(blocks) -> bool:
    """No two blocks cross: their merged, block-labelled element list never
    alternates four times."""
    blocks = [sorted(b) for b in blocks]
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            merged = sorted([(e, 0) for e in blocks[i]] + [(e, 1) for e in blocks[j]])
            runs = 1 + sum(a != b for (_, a), (_, b) in zip(merged, merged[1:]))
            if runs >= 4:
                return False
    return True


def is_bnc_by_pairs(blocks, chi) -> bool:
    inv = _inverse_perm(sigma_chi(chi))
    return is_noncrossing_by_pairs([[inv[e - 1] for e in b] for b in blocks])


def join_by_closure(sigma, pi):
    """Blocks of the join: union the two partitions, then merge crossing pairs
    of blocks, in relabelled positions, until none cross."""
    perm = sigma_chi(sigma.chi)
    inv = _inverse_perm(perm)
    blocks = [{inv[e - 1] for e in b} for b in sigma.blocks]
    for b in pi.blocks:
        touched = {inv[e - 1] for e in b}
        for other in [x for x in blocks if x & touched]:
            blocks.remove(other)
            touched |= other
        blocks.append(touched)
    merged = True
    while merged:
        merged = False
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                if not is_noncrossing_by_pairs([blocks[i], blocks[j]]):
                    blocks[i] |= blocks.pop(j)
                    merged = True
                    break
            if merged:
                break
    return canonical_blocks([perm[v - 1] for v in b] for b in blocks)


def expand_by_lattice_filter(pi, chi, chi_prime) -> set:
    """Blocks of every partition of the extended lattice whose join with the
    bottom-block embedding is the embedding of ``pi``."""
    pi_hat = hat_embed(pi, chi_prime)
    bottom = hat_zero(chi, chi_prime)
    return {
        sigma.blocks
        for sigma in enumerate_bnc(hat_chi(chi, chi_prime))
        if join_by_closure(sigma, bottom) == pi_hat.blocks
    }


def expand_by_join(pi, chi, chi_prime) -> tuple:
    """The product expansion in the walk's order: every non-crossing
    partition of the split block in its relabelled order, from
    ``nc_partitions_by_stack`` (the lex order of restricted-growth strings),
    kept only if its full join with the bottom-block embedding equals the
    embedding of ``pi``."""
    pi_hat = hat_embed(pi, chi_prime)
    bottom = hat_zero(chi, chi_prime)
    extended = pi_hat.chi
    p = len(chi)
    inv = _inverse_perm(sigma_chi(extended))
    kept = [b for b in pi_hat.blocks if p not in b]
    (split,) = [b for b in pi_hat.blocks if p in b]
    order = sorted(split, key=lambda e: inv[e - 1])
    out = []
    for blocks in nc_partitions_by_stack(len(order)):
        sigma = _unchecked(extended, canonical_blocks(kept + [[order[v] for v in b] for b in blocks]))
        if join(sigma, bottom).blocks == pi_hat.blocks:
            out.append(sigma)
    return tuple(out)


def bifree_dq_by_branches(p: NCPolynomial, kind, mode: AlgebraMode) -> TensorPoly:
    """The four quotients as four written-out branches, both legs of every
    term brought to normal form again."""
    target = kind.target
    mode.check_letter(target)
    pairs = []
    for word, coeff in p.items():
        mode.check_word(word)
        word = normal_form(word, mode)
        for pos, current in enumerate(word):
            if current != target:
                continue
            prefix, suffix = word[:pos], word[pos + 1:]
            lefts_pre = tuple(l for l in prefix if l.side == LEFT)
            rights_pre = tuple(l for l in prefix if l.side == RIGHT)
            lefts_suf = tuple(l for l in suffix if l.side == LEFT)
            rights_suf = tuple(l for l in suffix if l.side == RIGHT)
            if not kind.flipped:
                if kind.side == LEFT:
                    first, second = prefix + rights_suf, lefts_suf
                else:
                    first, second = prefix + lefts_suf, rights_suf
            else:
                if kind.side == LEFT:
                    first, second = lefts_pre, rights_pre + suffix
                else:
                    first, second = rights_pre, lefts_pre + suffix
            pairs.append(((normal_form(first, mode), normal_form(second, mode)), coeff))
    return TensorPoly.from_pairs(pairs)


def free_dq_by_leibniz(p: NCPolynomial, letter: Letter, mode: AlgebraMode) -> TensorPoly:
    """The free quotient of each canonical word by the Leibniz rule, peeling
    the first letter: dq(l w) = [l is the target] 1 ⊗ w + (l ⊗ 1) dq(w)."""
    one = NCPolynomial.one()

    def dq(word: Word) -> TensorPoly:
        if not word:
            return TensorPoly.zero()
        head, rest = word[0], word[1:]
        out = tensor_mul(tensor_of(NCPolynomial.from_letter(head), one), dq(rest), STRAIGHT, mode)
        if head == letter:
            out = out + TensorPoly.from_words((), rest)
        return out

    total = TensorPoly.zero()
    for word, coeff in p.items():
        total = total + dq(normal_form(word, mode)).scale(coeff)
    return total


def adjoint_apply_by_tensors(phi, xi, eta, kind, mode=None) -> NCPolynomial:
    """The adjoint of a flipped quotient term by term in tensor products:
    u v xi - (phi ⊗ id)(dq(u*)^[*] (1 ⊗ v)) for each term u ⊗ v of ``eta``,
    with ^[*] the involution applied to each leg in place."""
    mode = mode or phi.mode
    out = NCPolynomial.zero()
    for (u, v), coeff in eta.items():
        u_poly = NCPolynomial.from_word(u)
        v_poly = NCPolynomial.from_word(v)
        main = mul(mul(u_poly, v_poly, mode), xi, mode)
        d = bifree_dq_by_branches(star(u_poly), kind, mode)
        d_star = TensorPoly.from_pairs(((w1[::-1], w2[::-1]), c) for (w1, w2), c in d.items())
        prod = tensor_mul(d_star, tensor_of(NCPolynomial.one(), v_poly), STRAIGHT, mode)
        correction = NCPolynomial.zero()
        for (w1, w2), c in prod.items():
            correction = correction + NCPolynomial.from_word(w2, c * phi.phi(w1))
        out = out + (main - correction).scale(coeff)
    return out


def scalar_identity_residual_by_tensors(p: NCPolynomial, mode: AlgebraMode) -> TensorPoly:
    """The scalar-identity residual by tensor products of the library's
    quotients: the sum over t of d_t·(t ⊗ 1) - (1 ⊗ t)·d_t, the right
    sum with its legs swapped, minus (P ⊗ 1 - 1 ⊗ P)."""
    p = normalize_poly(p, mode)
    one = NCPolynomial.one()
    acc = TensorPoly.zero()
    for side, arity in ((LEFT, mode.left_arity), (RIGHT, mode.right_arity)):
        for i in range(1, arity + 1):
            t = NCPolynomial.from_letter(Letter(side, i))
            d = derivation.bifree_dq(p, QuotientKind(side, i), mode)
            term = tensor_mul(d, tensor_of(t, one), STRAIGHT, mode)
            term = term - tensor_mul(tensor_of(one, t), d, STRAIGHT, mode)
            if side == RIGHT:
                term = -TensorPoly.from_pairs(((w2, w1), c) for (w1, w2), c in term.items())
            acc = acc + term
    return acc - tensor_of(p, one) + tensor_of(one, p)


def conjugate_check_by_fractions(phi, kind, xi, max_degree, mode=None) -> ConjugateReport:
    """The defining identity word by word in ``Fraction`` arithmetic: phi of
    the product polynomial Z xi against (phi ⊗ phi) of the quotient of Z."""
    mode = mode or phi.mode
    checked = 0
    failures = []
    for word in enumerate_words(mode, max_degree):
        z = NCPolynomial.from_word(word)
        lhs = sum((c * phi.phi(w) for w, c in mul(z, xi, mode).items()), Fraction(0))
        rhs = sum(
            (c * phi.phi(w1) * phi.phi(w2)
             for (w1, w2), c in bifree_dq_by_branches(z, kind, mode).items()),
            Fraction(0),
        )
        checked += 1
        if lhs != rhs:
            failures.append((word, lhs, rhs))
    return ConjugateReport(kind, max_degree, checked, tuple(failures))


def cumulant_by_lattice_sum(phi, chi, args) -> Fraction:
    """Mobius inversion over the enumerated lattice."""
    top = one_partition(chi)
    return sum(
        (moment_pi(phi, pi, args) * mobius(pi, top) for pi in enumerate_bnc(chi)),
        Fraction(0),
    )


def hilbert_kernel_matrix(points: np.ndarray, eps: float) -> np.ndarray:
    """The n x n regularized Hilbert kernel (x_i - x_j)/((x_i - x_j)^2 + eps^2)."""
    diff = points[:, None] - points[None, :]
    return diff / (diff * diff + eps * eps)


def hilbert_rows_by_matrix(values, points, weights, eps: float, richardson: bool = False):
    """The kernel applied to a 1-D array or each row of a 2-D one as a dense
    product; under ``richardson``, twice the kernel at eps/2 minus the one at eps."""
    kernel = hilbert_kernel_matrix(points, eps)
    if richardson:
        kernel = 2.0 * hilbert_kernel_matrix(points, 0.5 * eps) - kernel
    return (values * weights) @ kernel.T


def conjugate_field_by_matrix(g: DensityGrid, eps_x: float, eps_y: float, richardson: bool = False):
    """(xi_left, xi_right, mask) from dense kernel products, by the formula of
    the ``bipartite_num`` module docstring."""
    fx = g.values @ g.wy
    fy = g.values.T @ g.wx
    fx, fy = fx / float(g.wx @ fx), fy / float(g.wy @ fy)
    hx = hilbert_rows_by_matrix(fx, g.x, g.wx, eps_x, richardson)
    hy = hilbert_rows_by_matrix(fy, g.y, g.wy, eps_y, richardson)
    gx = hilbert_rows_by_matrix(g.values.T, g.x, g.wx, eps_x, richardson).T
    gy = hilbert_rows_by_matrix(g.values, g.y, g.wy, eps_y, richardson)
    mask = g.values < MASK_THRESHOLD * float(g.values.max())
    safe = np.where(mask, 1.0, g.values)
    xi_left = np.where(mask, 0.0, hx[:, None] + fx[:, None] * gx / safe)
    xi_right = np.where(mask, 0.0, hy[None, :] + fy[None, :] * gy / safe)
    return xi_left, xi_right, mask


def fields_by_allocating_blocks(g: DensityGrid, cfg: FieldConfig):
    """(xi_left, xi_right, mask, fisher) by the block path of ``bipartite_num``
    with a fresh array at every step: ``rfft(x, n)`` pads each block itself,
    the divide skips the masked points and a boolean index zeroes them.
    ``fisher`` adds the per-block quadratures in block order, x axis first."""
    eps_x = cfg.eps if cfg.eps is not None else float(g.x[1] - g.x[0])
    eps_y = cfg.eps if cfg.eps is not None else float(g.y[1] - g.y[0])
    marg_x, marg_y = marginals(g)
    threshold = MASK_THRESHOLD * float(g.values.max())
    fields, sums = [], []
    for values_all, points, weights, eps, f, across, name in (
        (g.values.T, g.x, g.wx, eps_x, marg_x.samples, g.wy, "x"),
        (g.values, g.y, g.wy, eps_y, marg_y.samples, g.wx, "y"),
    ):
        kernel = _AxisKernel.build(points, weights, eps, cfg.richardson, name)

        def rows(v):
            block = np.fft.rfft(np.multiply(v, weights, order="C"), kernel.size)
            block *= kernel.spectrum
            return np.fft.irfft(block, kernel.size)[:, :points.size]

        h = rows(f[None, :])[0]
        field = np.empty(values_all.shape)
        for start in range(0, values_all.shape[0], _FFT_ROWS):
            part = slice(start, start + _FFT_ROWS)
            values = np.ascontiguousarray(values_all[part])
            xi = rows(values)
            xi *= f
            low = values < threshold
            np.divide(xi, values, out=xi, where=~low)
            xi += h
            xi[low] = 0.0
            field[part] = xi
            integrand = xi * xi
            integrand *= values
            sums.append(float(across[part] @ (integrand @ weights)))
        fields.append(field)
    mask = g.values < threshold
    return np.ascontiguousarray(fields[0].T), fields[1], mask, sum(sums)


def product_gap_fraction_by_outer(g: DensityGrid) -> float:
    """Share of the grid that is masked but inside the product of the marginal
    supports, from the full outer product of the marginals."""
    fx = g.values @ g.wy
    fy = g.values.T @ g.wx
    fx, fy = fx / float(g.wx @ fx), fy / float(g.wy @ fy)
    mask = g.values < MASK_THRESHOLD * float(g.values.max())
    outer = np.multiply.outer(fx, fy)
    return float(np.mean(mask & (outer > MASK_THRESHOLD * float(outer.max()))))


def marchenko_pastur(lam: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` uniform points on [a, b] = [(1 - sqrt(lam))^2, (1 + sqrt(lam))^2]
    and the free Poisson (Marchenko-Pastur) density with rate ``lam`` > 1 and
    jump 1 there, sqrt((b - x)(x - a)) / (2 pi x).  Its free Fisher
    information, (4 pi^2 / 3) times the integral of its cube, is 1/(lam - 1)."""
    a, b = (1.0 - math.sqrt(lam)) ** 2, (1.0 + math.sqrt(lam)) ** 2
    x = np.linspace(a, b, n)
    return x, np.sqrt(np.clip((b - x) * (x - a), 0.0, None)) / (2.0 * math.pi * x)


def semicircular_density_by_broadcast(c: float, spec: GridSpec) -> DensityGrid:
    """The semicircular density of ``bipartite_num`` evaluated on the full
    grid by broadcasting, then checked and normalized by ``make_density_grid``."""
    if not -1.0 < c < 1.0:
        raise ValueError("the covariance must satisfy |c| < 1")

    def fn(x, y):
        num = (1.0 - c * c) / (4.0 * math.pi ** 2) * np.sqrt(
            np.clip(4.0 - x * x, 0.0, None)
        ) * np.sqrt(np.clip(4.0 - y * y, 0.0, None))
        den = (1.0 - c * c) ** 2 - c * (1.0 + c * c) * x * y + c * c * (x * x + y * y)
        return num / den

    return grid_from_spec(spec, fn)


# -- the CLI writers' text, built whole: a full payload in one json.dumps --------


def conjugate_json_whole(g: DensityGrid, cfg: FieldConfig | None = None) -> str:
    """The ``bipartite conjugate`` JSON text, from full ``tolist()`` copies."""
    fld = conjugate_field(g, cfg)
    return json.dumps({
        **axes_to_json_dict(g),
        "eps_x": fld.eps_x,
        "eps_y": fld.eps_y,
        "xi_left": fld.xi_left.tolist(),
        "xi_right": fld.xi_right.tolist(),
        "mask": fld.mask.astype(int).tolist(),
    })


def density_json_whole(g: DensityGrid) -> str:
    """The ``save_density`` text, without its closing newline."""
    return json.dumps(density_to_json_dict(g))


def density_csv_whole(g: DensityGrid, csv_name: str) -> tuple[str, str]:
    """The ``save_density_csv`` header (without its closing newline) and the
    values as ``csv.writer`` writes the full list of rows."""
    values = io.StringIO()
    csv.writer(values).writerows(g.values.tolist())
    return json.dumps({**axes_to_json_dict(g), "values_csv": csv_name}), values.getvalue()


def lattice_payload_whole(chi: str) -> dict:
    partitions = enumerate_bnc(chi)
    return {
        "chi": chi,
        "count": len(partitions),
        "partitions": [[list(b) for b in p.blocks] for p in partitions],
        "mobius_0_to_1": mobius(zero_partition(chi), one_partition(chi)),
    }


def lattice_json_whole(chi: str) -> str:
    """The ``lattice --format json`` text, without the closing newline."""
    return json.dumps(lattice_payload_whole(chi))


def lattice_text_whole(chi: str) -> str:
    """The ``lattice --format text`` text, without the closing newline."""
    p = lattice_payload_whole(chi)
    lines = [f"chi = {p['chi']}", f"count = {p['count']}", f"mobius(0,1) = {p['mobius_0_to_1']}"]
    lines += [str(blocks) for blocks in p["partitions"]]
    return "\n".join(lines)
