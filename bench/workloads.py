"""The four benchmark workloads as seeded, fixed-composition job lists.

A job is one call (or a short chain of calls) into ``bifree``'s public API or
one ``python -m bifree.cli`` invocation.  ``build`` returns the jobs of one
round; the seed picks contents (side sequences, letters, rational values,
covariances, grid parameters) but never how many jobs of each class a round
has or their sizes, so every seed gives a run of the same shape.  Each job's
``check`` compares its output with an independent identity and runs after
all timing is done.

Why each workload exists:

* ``lattice-cold``: cold lattice enumeration, Mobius recursion and
  moment/cumulant sums on mostly fresh side sequences (``bnclattice`` and
  ``cumulant`` do the work).  A fixed share of jobs revisits a sequence seen
  earlier in the round.
* ``conjugate-verify``: exact conjugate-variable verification for rational
  Gaussian families; after each family's first check the moment memo answers
  most ``phi`` calls, so ``ncalg`` and ``derivation`` do the work.
* ``numeric``: Gaussian-family closed forms, quadrature, pairing sums and the
  Fock oracle, and dense-kernel grid Fisher information.  The exact layer is
  nearly idle here.
* ``cli-session``: a scripted shell session covering every subcommand, each
  invocation timed from spawn to exit, so interpreter start and import count.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import bifree as B
import oracles as O


@dataclass
class Job:
    label: str  # job class: same label, same size, in every round and seed
    run: Callable[[], object]
    check: Callable[[object], bool]
    reuse: bool = False  # revisits a side sequence seen earlier in the round
    calibration: str = "loop"  # the worker's calibration task that tracks this kind of work


class Context:
    """Per-round inputs: the seeded generator, the tiny switch and a working directory."""

    def __init__(self, workload: str, seed: int, round_index: int, tiny: bool, workdir: str):
        self.rng = random.Random(f"{workload}:{seed}:{round_index}")
        self.np_rng = np.random.default_rng([seed, round_index, len(workload)])
        self.tiny = tiny
        self.workdir = workdir
        self.facts: dict[str, object] = {}  # reported alongside the metrics
        self.child_peak_kb = 0  # largest peak RSS of a CLI invocation so far


def _interleaved(rng, jobs: list[Job]) -> list[Job]:
    """The jobs in a seeded random order.  A class's jobs then run at many
    moments of the round instead of in one stretch, so the latency
    percentiles do not hang on how fast the machine ran during that stretch."""
    jobs = list(jobs)
    rng.shuffle(jobs)
    return jobs


def _rational(rng, nums=(-3, -2, -1, 1, 2, 3), dens=(1, 2, 3, 4)) -> Fraction:
    return Fraction(rng.choice(nums), rng.choice(dens))


# -- lattice-cold ----------------------------------------------------------------

LETTERS_22 = (B.lvar(1), B.lvar(2), B.rvar(1), B.rvar(2))


def _word_for(rng, chi):
    return tuple(rng.choice([l for l in LETTERS_22 if l.side == side]) for side in chi)


class _FreshChi:
    """Side sequences never handed out before in this round, per length."""

    def __init__(self, rng):
        self.rng = rng
        self.used: set = set()

    def __call__(self, k: int) -> tuple[str, ...]:
        while True:
            chi = tuple(self.rng.choice("lr") for _ in range(k))
            if chi not in self.used:
                self.used.add(chi)
                return chi


def _multiplicative_spec(rng, max_block: int, degree_bound: int):
    """kappa(pattern) = w[len(pattern)] * prod(u[letter]) for lengths <= max_block."""
    weights = {s: _rational(rng) for s in range(1, max_block + 1)}
    u = {l: _rational(rng, nums=(1, 2, 3), dens=(1, 2, 3)) for l in LETTERS_22}
    entries = {}
    for size in range(1, max_block + 1):
        for pattern in itertools.product(LETTERS_22, repeat=size):
            entries[tuple((l.side, l.index) for l in pattern)] = weights[size] * O.evaluate(pattern, u)
    return B.CumulantSpec(2, 2, entries, degree_bound=degree_bound), weights, u


def _table_job(rng, chi, label, reuse=False):
    word = _word_for(rng, chi)
    table = {}
    for r in range(1, len(chi) + 1):
        for idx in itertools.combinations(range(len(chi)), r):
            table[tuple(word[i] for i in idx)] = _rational(rng, nums=tuple(range(-5, 6)), dens=(1, 2, 3, 5))
    phi = B.TableMomentFunctional(B.free_mode(2, 2), table, degree_bound=12)
    args = [(l,) for l in word]
    return Job(label, lambda: B.cumulant_chi(phi, chi, args),
               lambda out: out == O.cumulant_from_table(table, word, chi), reuse)


def lattice_cold(ctx: Context) -> list[Job]:
    rng, tiny = ctx.rng, ctx.tiny
    fresh = _FreshChi(rng)
    spec, weights, u = _multiplicative_spec(rng, max_block=4, degree_bound=12)
    cum_phi = B.CumulantMomentFunctional(B.free_mode(2, 2), spec)
    jobs: list[Job] = []
    cold: dict[str, list] = {}  # chis whose lattice work a class already did

    def counts(full, small):
        return small if tiny else full

    # class counts put the median inside the joins and the 90th percentile
    # inside the cold k=6 plateau (cumulants and mu(0,1) at k=6); at most
    # half of the 2^k side sequences of a length are drawn fresh
    for k, n in counts([(4, 4), (5, 16), (6, 14), (7, 2)], [(4, 2), (5, 2)]):
        for _ in range(n):
            chi = fresh(k)
            cold.setdefault(f"table{k}", []).append(chi)
            jobs.append(_table_job(rng, chi, f"cumulant_chi/table/k{k}"))

    for k, n in counts([(5, 2), (6, 2)], [(4, 1)]):
        for _ in range(n):
            word = _word_for(rng, fresh(k))
            chi = tuple(l.side for l in word)
            pattern = tuple((l.side, l.index) for l in word)
            jobs.append(Job(f"cumulant_chi/spec/k{k}",
                            lambda chi=chi, word=word: B.cumulant_chi(cum_phi, chi, [(l,) for l in word]),
                            lambda out, pattern=pattern: out == spec.kappa(pattern)))

    # pair-and-singleton data: most lattice terms stop at their first long block
    pairs, pair_weights, pair_u = _multiplicative_spec(rng, max_block=2, degree_bound=12)
    for k in counts([8, 8, 9, 10], [6, 7]):
        word = _word_for(rng, fresh(k))
        chi = tuple(l.side for l in word)
        expected = O.multiplicative_moment(pair_weights, O.evaluate(word, pair_u), k)
        jobs.append(Job(f"moments_from_cumulants/k{k}",
                        lambda chi=chi, word=word: B.moments_from_cumulants(pairs, chi, [(l,) for l in word]),
                        lambda out, expected=expected: out == expected))

    for sizes, n in counts([((4, 2, 1), 2), ((3, 3, 2), 1)], [((2, 2, 1), 1)]):
        for _ in range(n):
            k = sum(sizes)
            chi = fresh(k)
            top_nc = O.nc_with_profile(rng, sizes)
            top = B.BNCPartition(chi, O.to_positions(top_nc, chi))
            expected = O.nc_mobius([[i] for i in range(k)], top_nc)
            jobs.append(Job(f"mobius/zero-to-profile/k{k}",
                            lambda chi=chi, top=top: B.mobius(B.zero_partition(chi), top),
                            lambda out, expected=expected: out == expected))

    def mobius01(chi, reuse=False):
        k = len(chi)
        return Job(f"mobius/zero-one/k{k}" + ("/seen" if reuse else ""),
                   lambda: B.mobius(B.zero_partition(chi), B.one_partition(chi)),
                   lambda out: out == (-1) ** (k - 1) * O.catalan(k - 1), reuse)

    for k in counts([6, 6, 7], [5]):
        chi = fresh(k)
        cold.setdefault(f"mobius{k}", []).append(chi)
        jobs.append(mobius01(chi))

    def enumerate_job(chi, reuse=False):
        k = len(chi)
        return Job(f"enumerate_bnc/k{k}" + ("/seen" if reuse else ""),
                   lambda: B.enumerate_bnc(chi),
                   lambda out: len(out) == O.catalan(k) and len(set(out)) == len(out), reuse)

    for k in counts([9, 10], [7]):
        chi = fresh(k)
        cold.setdefault(f"enumerate{k}", []).append(chi)
        jobs.append(enumerate_job(chi))

    # join touches no cache, so its side sequences need not be fresh.  One job
    # joins one pair at each length 6..12: every job then does the same work,
    # and the median lands inside one narrow class rather than on the slope
    # between join lengths.
    def join_ok(outs, join_pairs):
        for out, (pa, pb) in zip(outs, join_pairs):
            covered = sorted(e for block in out.blocks for e in block)
            if not (covered == list(range(1, len(pa.chi) + 1))
                    and O.refines(pa.blocks, out.blocks) and O.refines(pb.blocks, out.blocks)):
                return False
        return len(outs) == len(join_pairs)

    for _ in range(counts(119, 4)):
        join_pairs = []
        for k in range(6, 13):
            chi = tuple(rng.choice("lr") for _ in range(k))
            join_pairs.append(tuple(B.BNCPartition(chi, O.to_positions(O.random_nc_partition(rng, k), chi))
                                    for _ in range(2)))
        jobs.append(Job("join/k6-12", lambda join_pairs=join_pairs: [B.join(pa, pb) for pa, pb in join_pairs],
                        lambda outs, join_pairs=join_pairs: join_ok(outs, join_pairs)))

    for base, extra, n in counts([(4, 4, 3), (5, 4, 1)], [(3, 3, 1)]):
        for _ in range(n):
            extended = fresh(base + extra - 1)
            chi, chi_prime = extended[:base], extended[base - 1:]
            pi = B.BNCPartition(chi, O.to_positions(O.random_nc_partition(rng, base), chi))
            p, q = base, len(extended)
            hat_blocks = tuple(
                tuple(sorted(set(b) | set(range(p + 1, q + 1)))) if p in b else b
                for b in pi.blocks
            )

            def expand_ok(out, hat_blocks=hat_blocks):
                blocks = [s.blocks for s in out]
                return (len(set(blocks)) == len(blocks)
                        and any(O.refines(hat_blocks, b) for b in blocks)
                        and all(O.refines(b, hat_blocks) for b in blocks))

            jobs.append(Job(f"expand_product_last_entry/k{q}",
                            lambda pi=pi, chi=chi, chi_prime=chi_prime:
                                B.expand_product_last_entry(pi, chi, chi_prime),
                            expand_ok))

    jobs = _interleaved(rng, jobs)
    # revisits: fixed in number, on sequences an earlier class of the round used
    if not tiny:
        jobs.append(_table_job(rng, rng.choice(cold["table7"]), "cumulant_chi/table/k7/seen", reuse=True))
        jobs.append(_table_job(rng, rng.choice(cold["table6"]), "cumulant_chi/table/k6/seen", reuse=True))
        jobs.append(mobius01(rng.choice(cold["mobius7"]), reuse=True))
        jobs.append(enumerate_job(rng.choice(cold["enumerate10"]), reuse=True))
    ctx.facts["reuse_share"] = sum(j.reuse for j in jobs) / len(jobs)
    return jobs


# -- conjugate-verify ------------------------------------------------------------

#: (mode, n, m) -> max_degree of the conjugate checks; fixed, never seeded.
FAMILIES = {
    ("bipartite", 1, 1): 8,
    ("free", 1, 1): 5,
    ("bipartite", 1, 2): 5,
    ("free", 1, 2): 4,
    ("bipartite", 2, 1): 5,
    ("free", 2, 1): 4,
    ("bipartite", 2, 2): 4,
    ("free", 2, 2): 3,
}
TINY_FAMILIES = {("bipartite", 1, 1): 3, ("free", 1, 1): 2}


def _rational_covariance(rng, k):
    # unit variances, covariances +-1/4 or +-1/5: diagonally dominant for k <= 4,
    # and entries of one size, so exact arithmetic costs about the same per seed
    a = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            a[i][j] = a[j][i] = Fraction(rng.choice((-1, 1)), rng.choice((4, 5)))
    return a


def _random_poly(rng, letters, terms, max_len, normal):
    """Seeded letters and coefficients; term count and word lengths are fixed."""
    pairs = []
    for i in range(terms):
        word = tuple(rng.choice(letters) for _ in range(1 + i % max_len))
        if normal:
            word = tuple(l for l in word if l.side == "l") + tuple(l for l in word if l.side == "r")
        pairs.append((word, _rational(rng)))
    return B.NCPolynomial.from_pairs(pairs)


def _eval_poly(p, values) -> Fraction:
    return sum((c * O.evaluate(w, values) for w, c in p.items()), Fraction(0))


def _eval_tensor(t, first, second) -> Fraction:
    return sum((c * O.evaluate(a, first) * O.evaluate(b, second) for (a, b), c in t.items()), Fraction(0))


def _adjoint_pairing_holds(phi, mode, image, eta, kind) -> bool:
    # <adjoint(eta), p> = <eta, flipped_dq(p)> on every word p of degree <= 1
    def inner(a, b):
        return phi.inner(B.NCPolynomial.from_word(a), B.NCPolynomial.from_word(b))

    letters = [B.lvar(i + 1) for i in range(mode.left_arity)] + [B.rvar(j + 1) for j in range(mode.right_arity)]
    for degree in range(2):
        for word in itertools.product(letters, repeat=degree):
            p = B.NCPolynomial.from_word(word)
            lhs = phi.inner(image, p)
            rhs = sum((cs * ct * inner(s1, t1) * inner(s2, t2)
                       for (s1, s2), cs in eta.items()
                       for (t1, t2), ct in B.bifree_dq(p, kind, mode).items()), Fraction(0))
            if lhs != rhs:
                return False
    return True


def _family_jobs(rng, mode_name, n, m, degree) -> list[Job]:
    tag = f"{mode_name}{n}{m}"
    k = n + m
    mode = B.AlgebraMode(mode_name, n, m)
    cov = _rational_covariance(rng, k)
    inverse = O.fraction_inverse(cov)
    # the bound leaves room for the adjoint pairing check (degree <= 7)
    phi = B.CumulantMomentFunctional(mode, B.gaussian_cumulant_spec(n, m, cov, degree_bound=max(degree + 2, 8)))
    letters = [B.lvar(i + 1) for i in range(n)] + [B.rvar(j + 1) for j in range(m)]
    kinds = [("l", i + 1) for i in range(n)] + [("r", j + 1) for j in range(m)]
    xis = {kind: B.NCPolynomial({(letters[j],): inverse[row][j] for j in range(k)})
           for row, kind in enumerate(kinds)}
    jobs: list[Job] = []

    def check(label, kind, xi, must_pass):
        return Job(label, lambda: B.conjugate_check(phi, B.QuotientKind(*kind), xi, degree, mode),
                   lambda out: out.checked > 0 and out.passed == must_pass)

    # the family's first check fills the moment memo cold; the memo answers
    # most phi calls of the later ones, so the two are classes of their own
    for i, (kind, xi) in enumerate(xis.items()):
        jobs.append(check(f"conjugate_check/{tag}" + ("/first" if i == 0 else ""), kind, xi, True))
    kind = rng.choice(kinds)
    bad = xis[kind] + B.NCPolynomial.from_letter(rng.choice(letters), _rational(rng))
    jobs.append(check(f"conjugate_check/{tag}/perturbed", kind, bad, False))

    def adjoint(xi, eta, flipped):
        return Job(f"adjoint_apply/{tag}", lambda: B.adjoint_apply(phi, xi, eta, flipped, mode),
                   lambda out: _adjoint_pairing_holds(phi, mode, out, eta, flipped))

    for kind, xi in xis.items():
        own = [l for l in letters if l.side == kind[0]]
        other = [l for l in letters if l.side != kind[0]]
        eta = B.TensorPoly.from_pairs(
            ((tuple(rng.choice(own) for _ in range(rng.randint(0, 2))),
              tuple(rng.choice(other) for _ in range(rng.randint(0, 2)))), _rational(rng))
            for _ in range(6)
        )
        jobs.append(adjoint(xi, eta, B.QuotientKind(*kind, flipped=True)))

    normal = mode.bipartite
    if normal:
        residual_input = _random_poly(rng, letters, 6, 5, normal)
        jobs.append(Job(f"scalar_identity_residual/{tag}",
                        lambda: B.scalar_identity_residual(residual_input, mode), lambda out: out.is_zero))

    alphabet = letters + [B.lsym(1), B.lsym(2), B.rsym(1)]
    values = {l: _rational(rng, nums=(1, 2, 3, 5, 7), dens=(1, 2, 3)) for l in alphabet}
    second = {l: _rational(rng, nums=(1, 2, 3, 5, 7), dens=(1, 2, 3)) for l in alphabet}
    p0, p1, p2, p3 = (_random_poly(rng, alphabet, 12, 6, normal) for _ in range(4))

    def dq_ok(out, p, target):
        # scalar evaluation turns each quotient into the partial derivative
        expected = sum((c * w.count(target) * O.evaluate(w, values) for w, c in p.items()), Fraction(0))
        return _eval_tensor(out, values, values) * values[target] == expected

    dq_kind = B.QuotientKind(*rng.choice(kinds), flipped=rng.random() < 0.5)
    jobs.append(Job(f"bifree_dq/{tag}", lambda: B.bifree_dq(p0, dq_kind, mode),
                    lambda out: dq_ok(out, p0, dq_kind.target)))
    target = rng.choice(letters)
    jobs.append(Job(f"free_dq/{tag}", lambda: B.free_dq(p1, target, mode), lambda out: dq_ok(out, p1, target)))

    def mul(a, b):
        return Job(f"mul/{tag}", lambda: B.mul(a, b, mode),
                   lambda out: _eval_poly(out, values) == _eval_poly(a, values) * _eval_poly(b, values))

    jobs += [mul(p0, p1), mul(p2, p3)]
    s = B.TensorPoly.from_pairs(((w, v), c) for (w, c), (v, _) in zip(p0.items(), p1.items()))
    t = B.TensorPoly.from_pairs(((w, v), c) for (w, c), (v, _) in zip(p2.items(), p3.items()))
    convention = rng.choice(("straight", "opposite-second-leg"))
    jobs.append(Job(f"tensor_mul/{tag}", lambda: B.tensor_mul(s, t, convention, mode),
                    lambda out: _eval_tensor(out, values, second)
                    == _eval_tensor(s, values, second) * _eval_tensor(t, values, second)))
    jobs.append(Job(f"poly_roundtrip/{tag}", lambda: B.parse_poly(B.format_poly(p2), mode), lambda out: out == p2))
    jobs.append(Job(f"tensor_roundtrip/{tag}", lambda: B.parse_tensor(B.format_tensor(t), mode), lambda out: out == t))
    return jobs


def conjugate_verify(ctx: Context) -> list[Job]:
    jobs: list[Job] = []
    for (mode_name, n, m), degree in (TINY_FAMILIES if ctx.tiny else FAMILIES).items():
        jobs += _family_jobs(ctx.rng, mode_name, n, m, degree)
    return jobs


# -- numeric ---------------------------------------------------------------------


def _psd(np_rng, size, rank):
    q, _ = np.linalg.qr(np_rng.standard_normal((size, size)))
    eigs = np.concatenate([np_rng.uniform(0.5, 2.0, rank), np.zeros(size - rank)])
    return (q * eigs) @ q.T


def _close(a, b, rel):
    return abs(a - b) <= rel * max(1.0, abs(b))


def _closed_forms_ok(out, full, eigs, size, rank) -> bool:
    fisher, entropy, dimension = out
    if not full:
        return fisher == math.inf and entropy == -math.inf and dimension == rank
    closed_entropy = 0.5 * size * math.log(2 * math.pi * math.e) + 0.5 * float(np.log(eigs).sum())
    return (_close(fisher, float(np.sum(1.0 / eigs)), 1e-9) and _close(entropy, closed_entropy, 1e-9)
            and dimension == rank)


def _random_pattern(rng, n, m, length):
    sides = [("l", i + 1) for i in range(n)] + [("r", j + 1) for j in range(m)]
    return [rng.choice(sides) for _ in range(length)]


def numeric(ctx: Context) -> list[Job]:
    rng, np_rng, tiny = ctx.rng, ctx.np_rng, ctx.tiny
    jobs: list[Job] = []

    for size in ((2, 3) if tiny else (2, 3, 4, 5, 6)):
        for rank in (size, size - 1):
            n = size // 2
            a = _psd(np_rng, size, rank)
            cov = B.Covariance(n, size - n, a)
            eigs = np.linalg.eigvalsh(cov.A)
            full = rank == size
            profile = functools.partial(B.fisher_perturbed, cov)
            label = f"{size}x{size}/{'full' if full else 'deficient'}"
            closed_forms = (full, eigs, size, rank)
            jobs.append(Job(f"fisher+entropy_closed+entropy_dimension/{label}",
                            lambda cov=cov: (B.fisher(cov), B.entropy_closed(cov), B.entropy_dimension(cov)),
                            lambda out, facts=closed_forms: _closed_forms_ok(out, *facts)))
            jobs.append(Job(f"entropy_quadrature/{label}",
                            lambda profile=profile, size=size: B.entropy_quadrature(profile, size),
                            lambda out, cov=cov: (abs(out.value - B.entropy_closed(cov)) <= out.error_bound
                                                  if math.isfinite(out.value) else out.value == B.entropy_closed(cov))))
            jobs.append(Job(f"entropy_dimension_limit/{label}",
                            lambda profile=profile, size=size: B.entropy_dimension_limit(profile, size),
                            lambda out, rank=rank: round(out) == rank))

    # moments by pairing sums, each checked against the Fock oracle built by
    # a job of its own (the oracle's moments are read in the check, outside
    # the timed spans).  Class counts put the median in the middle of the
    # length-8 moments (about 3 ms) and the 90th percentile in the middle of
    # the length-10 ones (about 30 ms), so neither percentile sits on the
    # step between two classes.
    fock_cases = [((2, 2), 4, [4, 4]), ((1, 1), 8, [6, 8])] if tiny else \
        [((2, 2), 8, [8] * 131), ((1, 1), 12, [10] * 17 + [12, 12])]
    for (n, m), depth, lengths in fock_cases:
        cov = B.Covariance(n, m, _psd(np_rng, n + m, n + m))
        model_box = {}

        def build(cov=cov, depth=depth, box=model_box):
            box["model"] = B.build_fock_model(cov, depth)
            return box["model"]

        jobs.append(Job(f"build_fock_model/{n + m}coords/depth{depth}", build,
                        lambda out, cov=cov: _close(B.fock_moment(out, [("l", 1), ("l", 1)]), float(cov.A[0, 0]), 1e-12)))
        for length in lengths:
            pattern = _random_pattern(rng, n, m, length)
            jobs.append(Job(f"gaussian_moment/k{length}",
                            lambda cov=cov, pattern=pattern: B.gaussian_moment(cov, pattern),
                            lambda out, pattern=pattern, box=model_box:
                                _close(out, B.fock_moment(box["model"], pattern), 1e-9)))

    for n in ((128,) if tiny else (512, 1024, 2048)):
        c = rng.choice((-0.5, -0.4, -0.3, 0.3, 0.4, 0.5))
        target = 2.0 / (1.0 - c * c)
        box = {}

        def make(c=c, n=n, box=box):
            box["grid"] = B.semicircular_density(c, B.GridSpec(n, n))
            return box["grid"]

        jobs.append(Job(f"semicircular_density/n{n}", make,
                        lambda out, n=n: out.nx == out.ny == n and abs(out.mass() - 1.0) < 1e-9,
                        calibration="array"))
        jobs.append(Job(f"marginals/n{n}", lambda box=box: B.marginals(box["grid"]),
                        lambda out: all(abs(d.mass - 1.0) < 1e-9 for d in out), calibration="array"))
        jobs.append(Job(f"conjugate_field/n{n}", lambda box=box: B.conjugate_field(box["grid"]),
                        lambda out, box=box, target=target, tol=0.1 if tiny else 0.02:
                            abs(float(box["grid"].wx @ ((out.xi_left ** 2 + out.xi_right ** 2) * box["grid"].values)
                                      @ box["grid"].wy) - target) <= tol * target,
                        calibration="array"))
        # Richardson doubles the kernel work: at n=2048 it alone would take a
        # third of the round, so the largest grid runs plain only
        for richardson in ((False, True) if n < 2048 else (False,)):
            jobs.append(Job(f"fisher_numeric/n{n}" + ("/richardson" if richardson else ""),
                            lambda box=box, r=richardson: B.fisher_numeric(box["grid"], B.FieldConfig(richardson=r)),
                            lambda out, target=target, tol=0.1 if tiny else 0.02: abs(out - target) <= tol * target,
                            calibration="array"))
    # the Fock models come first, since the checks read them; the grid jobs
    # run last in a fixed order, so which large arrays are alive together,
    # and with them the peak RSS, does not depend on the seed
    grid = ("semicircular_density/", "marginals/", "conjugate_field/", "fisher_numeric/")
    return ([j for j in jobs if j.label.startswith("build_fock_model/")]
            + _interleaved(rng, [j for j in jobs if not j.label.startswith(("build_fock_model/",) + grid)])
            + [j for j in jobs if j.label.startswith(grid)])


# -- cli-session -----------------------------------------------------------------


def _cli_job(ctx, label, argv, check):
    def run():
        # waited for by hand, so the invocation's own peak RSS is known: the
        # worker's calibration processes are children too
        with tempfile.TemporaryFile() as stderr:
            proc = subprocess.Popen([sys.executable, "-m", "bifree.cli", *argv], cwd=ctx.workdir,
                                    stdout=subprocess.PIPE, stderr=stderr, text=True)
            timer = threading.Timer(120, proc.kill)
            timer.start()
            try:
                stdout = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        ctx.child_peak_kb = max(ctx.child_peak_kb, usage.ru_maxrss)
        return proc.returncode, stdout

    def checked(out):
        code, stdout = out
        return code == 0 and check(stdout)

    return Job(f"cli/{label}", run, checked, calibration="import")


def _write_json(ctx, name, payload):
    path = os.path.join(ctx.workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return name


def _read_json(ctx, name):
    with open(os.path.join(ctx.workdir, name), encoding="utf-8") as handle:
        return json.load(handle)


def cli_session(ctx: Context) -> list[Job]:
    rng, tiny = ctx.rng, ctx.tiny
    jobs: list[Job] = []
    spec, weights, u = _multiplicative_spec(rng, max_block=3, degree_bound=10)
    spec_file = _write_json(ctx, "spec.json", {
        "n": 2, "m": 2, "degree_bound": 10,
        "entries": [{"pattern": [list(p) for p in pattern], "value": str(v)} for pattern, v in spec.entries.items()],
    })
    c = Fraction(rng.choice((-3, -1, 1, 3)), 4)
    gauss = {"n": 1, "m": 1, "degree_bound": 10,
             "entries": [{"pattern": [list(a), list(b)], "value": str(v)}
                         for (a, b, v) in ((("l", 1), ("l", 1), 1), (("r", 1), ("r", 1), 1),
                                           (("l", 1), ("r", 1), c), (("r", 1), ("l", 1), c))]}
    gauss_file = _write_json(ctx, "gauss.json", gauss)
    size = 2 if tiny else 4
    cov = B.Covariance(size // 2, size - size // 2, _psd(ctx.np_rng, size, size))
    cov_file = _write_json(ctx, "cov.json", cov.to_json_dict())

    def number(text):
        return float(text.strip())

    k = rng.choice((4, 5, 6))
    chi = "".join(rng.choice("lr") for _ in range(k))
    jobs.append(_cli_job(ctx, "lattice", ["lattice", "--chi", chi], lambda out: (
        json.loads(out)["count"] == O.catalan(k)
        and json.loads(out)["mobius_0_to_1"] == B.mobius(B.zero_partition(chi), B.one_partition(chi)))))

    word = _word_for(rng, tuple(rng.choice("lr") for _ in range(3)))
    text = " ".join(l.token() for l in word)
    jobs.append(_cli_job(ctx, "cumulants", ["cumulants", "--spec", spec_file, "--word", text], lambda out, word=word: (
        Fraction(json.loads(out)["value"])
        == B.cumulant_chi(B.CumulantMomentFunctional(B.free_mode(2, 2), spec),
                          tuple(l.side for l in word), [(l,) for l in word]))))

    word = _word_for(rng, tuple(rng.choice("lr") for _ in range(6)))
    text = " ".join(l.token() for l in word)
    jobs.append(_cli_job(ctx, "moments", ["moments", "--spec", spec_file, "--word", text], lambda out, word=word: (
        Fraction(json.loads(out)["value"])
        == O.multiplicative_moment(weights, O.evaluate(word, u), len(word)))))

    for flipped in (False, True):
        mode = B.AlgebraMode("free" if flipped else "bipartite", 2, 1)
        alphabet = [B.lvar(1), B.lvar(2), B.rvar(1)] + ([B.lsym(1), B.rsym(2)] if flipped else [])
        poly = B.format_poly(_random_poly(rng, alphabet, 3, 4, not flipped))
        side = rng.choice(("left", "right"))
        argv = ["dq", "--side", side, "--index", "1", "--mode", mode.mode,
                "--left-arity", "2", "--right-arity", "1"] + (["--flipped"] if flipped else []) + [poly]
        kind = B.QuotientKind(side[0], 1, flipped)
        jobs.append(_cli_job(ctx, "dq", argv, lambda out, poly=poly, kind=kind, mode=mode: (
            out.strip() == B.format_tensor(B.bifree_dq(B.parse_poly(poly, mode), kind, mode)))))

    scale = 1 / (1 - c * c)
    xi = f"{scale}*X1 - {c * scale}*Y1" if c > 0 else f"{scale}*X1 + {-c * scale}*Y1"
    degree = 3 if tiny else 6
    jobs.append(_cli_job(ctx, "conjugate-check",
                         ["conjugate-check", "--spec", gauss_file, "--xi", xi, "--max-degree", str(degree)],
                         lambda out: json.loads(out)["passed"] is True
                         and json.loads(out)["checked"] == (degree + 1) * (degree + 2) // 2))

    jobs.append(_cli_job(ctx, "gaussian.fisher", ["gaussian", "fisher", "--cov", cov_file],
                         lambda out: _close(number(out), B.fisher(cov), 1e-9)))
    jobs.append(_cli_job(ctx, "gaussian.entropy",
                         ["gaussian", "entropy", "--cov", cov_file, "--method", "quadrature", "--format", "json"],
                         lambda out: abs(json.loads(out)["entropy"] - B.entropy_closed(cov))
                         <= json.loads(out)["error_bound"] + 1e-11 * abs(B.entropy_closed(cov))))
    jobs.append(_cli_job(ctx, "gaussian.dimension", ["gaussian", "dimension", "--cov", cov_file, "--method", "limit"],
                         lambda out: round(number(out)) == size))
    pattern = _random_pattern(rng, size // 2, size - size // 2, 6)
    jobs.append(_cli_job(ctx, "gaussian.moments",
                         ["gaussian", "moments", "--cov", cov_file, "--pattern",
                          " ".join(f"{s}{i}" for s, i in pattern), "--depth", "6", "--format", "json"],
                         lambda out: _close(json.loads(out)["moment"], B.gaussian_moment(cov, pattern), 1e-9)
                         and _close(json.loads(out)["fock"], json.loads(out)["moment"], 1e-9)))

    grid_c = rng.choice((-0.5, -0.3, 0.3, 0.5))
    # n=384, not the README's 512: the invocation then costs about what
    # ``bipartite conjugate`` and ``selftest`` cost, so the 90th percentile
    # lies inside that group of three instead of on the step below one
    # slowest invocation
    n = 128 if tiny else 384
    jobs.append(_cli_job(ctx, "bipartite.make-semicircular",
                         ["bipartite", "make-semicircular", "--c", str(grid_c), "--n", str(n), "--out", "grid.json"],
                         lambda out: _read_json(ctx, "grid.json")["nx"] == n))
    jobs.append(_cli_job(ctx, "bipartite.fisher", ["bipartite", "fisher", "--grid", "grid.json"],
                         lambda out: _close(number(out), B.fisher_numeric(B.semicircular_density(grid_c, B.GridSpec(n, n))), 1e-9)))
    field_n = 64 if tiny else 256
    field_c = rng.choice((-0.5, -0.3, 0.3, 0.5))

    def field_ok(out):
        written = _read_json(ctx, "field.json")
        field = B.conjugate_field(B.semicircular_density(field_c, B.GridSpec(field_n, field_n)))
        return (np.allclose(written["xi_left"], field.xi_left, rtol=1e-9, atol=1e-9)
                and np.allclose(written["xi_right"], field.xi_right, rtol=1e-9, atol=1e-9))

    jobs.append(_cli_job(ctx, "bipartite.conjugate",
                         ["bipartite", "conjugate", "--c", str(field_c), "--n", str(field_n), "--out", "field.json"],
                         field_ok))
    jobs.append(_cli_job(ctx, "selftest", ["selftest", "--fast"],
                         lambda out: "FAIL" not in out and out.count("PASS") > 0))
    return jobs


WORKLOADS = {
    "lattice-cold": lattice_cold,
    "conjugate-verify": conjugate_verify,
    "numeric": numeric,
    "cli-session": cli_session,
}
