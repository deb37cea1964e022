import copy
import gc
import pickle
import random
import re
import threading
import weakref
from dataclasses import FrozenInstanceError
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifree import bnclattice
from bifree.bnclattice import (
    BNCPartition,
    CapExceededError,
    _bnc_walk,
    _enumerate_bnc_cached,
    _kreweras_mobius,
    canonical_blocks,
    catalan,
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
from bifree.cumulant import TableMomentFunctional, cumulant_chi
from bifree.ncalg import free_mode, lvar, rvar
from helpers import (
    all_set_partitions,
    bnc_partitions,
    is_bnc_by_pairs,
    join_by_closure,
    mobius_by_recursion,
    nc_partitions_by_stack,
    noncrossing_rgs,
    rand_chi,
    rand_nc_rgs,
    rand_set_partition,
    rgs_bnc_blocks,
)

LRLR = ("l", "r", "l", "r")


def all_chis(k):
    return [tuple(c) for c in product("lr", repeat=k)]


def chis(max_size):
    return st.lists(st.sampled_from("lr"), min_size=1, max_size=max_size).map(tuple)


@pytest.fixture
def collector():
    """Put the cyclic collector back as the test found it."""
    was_enabled = gc.isenabled()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


class TestSigmaChi:
    def test_lr(self):
        assert sigma_chi(("l", "r")) == (1, 2)

    def test_rl(self):
        assert sigma_chi(("r", "l")) == (2, 1)

    def test_lrlr(self):
        assert sigma_chi(LRLR) == (1, 3, 4, 2)

    def test_always_a_bijection(self):
        rng = random.Random(2)
        for k in range(1, 12):
            chi = rand_chi(rng, k)
            assert sorted(sigma_chi(chi)) == list(range(1, k + 1))


class TestEnumeration:
    def test_single_point(self):
        assert len(enumerate_bnc(("l",))) == 1

    @pytest.mark.parametrize("chi", all_chis(3))
    def test_three_points_always_five(self, chi):
        assert len(enumerate_bnc(chi)) == 5

    def test_four_points(self):
        assert len(enumerate_bnc(LRLR)) == 14

    def test_catalan_counts_up_to_seven(self):
        rng = random.Random(4)
        for k in range(1, 8):
            for chi in (("l",) * k, ("r",) * k, rand_chi(rng, k)):
                assert len(enumerate_bnc(chi)) == catalan(k)

    def test_matches_brute_force_filter(self):
        rng = random.Random(11)
        for k in range(1, 7):
            chi = rand_chi(rng, k)
            expected = {
                tuple(sorted(p, key=lambda b: b[0]))
                for p in all_set_partitions(k)
                if is_bnc(p, chi)
            }
            got = {p.blocks for p in enumerate_bnc(chi)}
            assert got == expected

    def test_cap(self):
        with pytest.raises(CapExceededError):
            enumerate_bnc(("l",) * 13)

    def test_deterministic_order(self):
        # relabelled restricted-growth strings in lex order
        rng = random.Random(19)
        for k in range(1, 10):
            for chi in (("l",) * k, rand_chi(rng, k)):
                expected = [rgs_bnc_blocks(rgs, chi) for rgs in noncrossing_rgs(k)]
                assert [p.blocks for p in enumerate_bnc(chi)] == expected

    @given(chis(max_size=7))
    @settings(max_examples=30, deadline=None)
    def test_is_bnc_matches_pairwise_crossing_check(self, chi):
        for blocks in all_set_partitions(len(chi)):
            assert is_bnc(blocks, chi) == is_bnc_by_pairs(blocks, chi), (chi, blocks)


    @pytest.mark.parametrize("k", [8, 9, 10, 11, 12, 40])
    def test_is_bnc_matches_pairwise_crossing_check_on_random_partitions(self, k):
        # odd cases: a random set partition into at most 4 blocks, mostly
        # crossing; even cases: a random bi-non-crossing partition with one
        # entry moved to another block, which may or may not cross
        rng = random.Random(700 + k)
        verdicts = set()
        for case in range(67):
            chi = rand_chi(rng, k)
            if case % 2:
                blocks = rand_set_partition(rng, k, rng.randint(1, 4))
            else:
                lists = [list(b) for b in rgs_bnc_blocks(rand_nc_rgs(rng, k), chi)]
                source = rng.choice([b for b in lists if len(b) > 1] or lists)
                entry = source.pop(rng.randrange(len(source)))
                rng.choice([b for b in lists if b is not source] or [source]).append(entry)
                blocks = [b for b in lists if b]
            verdict = is_bnc(blocks, chi)
            assert verdict == is_bnc_by_pairs(blocks, chi), (chi, blocks)
            verdicts.add(verdict)
        assert verdicts == {True, False}


def walk(perm):
    """(blocks, mu) for every partition ``_bnc_walk`` visits, blocks read off ``starts``."""
    got = []
    _bnc_walk(perm, lambda starts, mu: got.append((tuple(filter(None, starts)), mu)))
    return got


class TestNCGenerator:
    @pytest.mark.parametrize("k", range(12))
    def test_identity_walk_is_the_stack_order_with_the_kreweras_mu(self, k):
        got = walk(tuple(range(k)))
        assert [blocks for blocks, _ in got] == list(nc_partitions_by_stack(k))
        for blocks, mu in got:
            assert mu == _kreweras_mobius(blocks, k), blocks

    def test_positions_are_read_through_the_perm(self):
        # the positions 1..k in any relabelled order, as sigma_chi gives them
        rng = random.Random(23)
        for k in range(1, 9):
            for _ in range(3):
                perm = rng.sample(range(1, k + 1), k)
                expected = [canonical_blocks([perm[v] for v in b] for b in blocks)
                            for blocks in nc_partitions_by_stack(k)]
                assert [blocks for blocks, _ in walk(perm)] == expected, perm

    def test_the_visitor_is_freed_when_the_walk_returns(self, collector):
        # with the collector off, only plain reference counting frees it,
        # so a reference cycle left by the walk would keep it alive
        gc.disable()
        for perm in ((), (1,), (2, 1), tuple(range(1, 8))):
            seen = []

            def visit(starts, mu):
                seen.append(mu)

            ref = weakref.ref(visit)
            _bnc_walk(perm, visit)
            del visit
            assert ref() is None, perm
            assert len(seen) == catalan(len(perm))

    def test_equal_blocks_are_one_object(self):
        lattice = enumerate_bnc(("r", "l", "r", "r", "l", "l", "r", "l", "r", "r"))
        blocks = [b for p in lattice for b in p.blocks]
        assert len({id(b) for b in blocks}) == len(set(blocks))

    def test_enumerated_partitions_outlive_later_lattice_work(self):
        chi = ("l", "r", "r", "l", "r", "l")
        lattice = enumerate_bnc(chi)
        before = [p.blocks for p in lattice]
        assert len(set(before)) == catalan(len(chi))
        enumerate_bnc(("r", "l") * 4)
        word = (lvar(1), rvar(1), rvar(2), lvar(2), rvar(1), lvar(1))
        table = {word[:j]: j for j in range(1, len(word) + 1)}
        phi = TableMomentFunctional(free_mode(2, 2), table)
        cumulant_chi(phi, tuple(l.side for l in word), [(l,) for l in word])
        assert [p.blocks for p in lattice] == before
        assert enumerate_bnc(chi) is lattice


class TestCollectorPause:
    # _enumerate_bnc_cached.__wrapped__ builds a lattice cold every call

    @pytest.mark.parametrize("enabled", [True, False])
    def test_the_collector_is_left_as_found(self, collector, enabled):
        (gc.enable if enabled else gc.disable)()
        lattice = _enumerate_bnc_cached.__wrapped__(tuple("rllrlrr"))
        assert len(lattice) == catalan(7)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_the_collector_is_left_as_found_when_the_walk_raises(self, collector, monkeypatch, enabled):
        def broken(perm, visit):
            assert not gc.isenabled()
            raise RuntimeError("walk failed")

        monkeypatch.setattr(bnclattice, "_bnc_walk", broken)
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(RuntimeError, match="walk failed"):
            _enumerate_bnc_cached.__wrapped__(tuple("lrrl"))
        assert gc.isenabled() is enabled

    def test_no_collection_starts_during_a_cold_build(self, collector):
        gc.enable()
        starts = []

        def hook(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.callbacks.append(hook)
        try:
            lattice = _enumerate_bnc_cached.__wrapped__(tuple("rlrrllrlr"))
        finally:
            gc.callbacks.remove(hook)
        assert len(lattice) == catalan(9)
        assert starts == []

    def test_concurrent_cold_builds(self, collector):
        gc.enable()
        chis = [tuple("rlrrllrlrr"), tuple("llrrlrlrrl")]
        serial = [[p.blocks for p in _enumerate_bnc_cached.__wrapped__(chi)] for chi in chis]
        barrier = threading.Barrier(len(chis), timeout=60)
        got = [None] * len(chis)

        def build(n):
            barrier.wait()
            got[n] = [p.blocks for p in _enumerate_bnc_cached.__wrapped__(chis[n])]

        threads = [threading.Thread(target=build, args=(n,)) for n in range(len(chis))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert got == serial
        assert gc.isenabled()


class TestBlockChecks:
    @pytest.mark.parametrize("chi, blocks, bad", [
        (("l",), ((), (1,)), "()"),
        (("l", "r"), ((1, 2.0),), "(1, 2.0)"),
        (("l", "r"), ((1,), ("2",)), "('2',)"),
        (("l", "r"), ((True,), (2,)), "(True,)"),
    ])
    def test_malformed_block_is_named(self, chi, blocks, bad):
        with pytest.raises(ValueError, match=re.escape(bad)):
            BNCPartition(chi, blocks)
        with pytest.raises(ValueError, match=re.escape(bad)):
            is_bnc(blocks, chi)

    @pytest.mark.parametrize("blocks", [
        ((0, 2), (3, 4)),          # an entry of 0
        ((0, 1, 2), (3, 4)),       # an entry of 0 besides 1..k
        ((-1, 2), (3, 4)),         # a negative entry
        ((1, 2), (3, -4)),         # a negative entry that would index 1..k from the end
        ((1, 2), (3, 5)),          # k + 1
        ((1, 2), (3, 4, 5)),       # k + 1 besides 1..k
        ((1, 2), (2, 3), (4,)),    # a repeat across blocks
        ((1, 1, 2), (3, 4)),       # a repeat inside a block
        ((1, 2), (4,)),            # a missing entry
    ])
    def test_blocks_that_do_not_partition_are_refused(self, blocks):
        message = re.escape("blocks must partition {1..k}")
        with pytest.raises(ValueError, match=message):
            BNCPartition(LRLR, blocks)
        with pytest.raises(ValueError, match=message):
            is_bnc(blocks, LRLR)

    def test_empty_block_in_a_list(self):
        with pytest.raises(ValueError, match=re.escape("()")):
            is_bnc([[]], "l")


class TestSlottedPartition:
    def test_frozen(self):
        pi = enumerate_bnc(LRLR)[3]
        with pytest.raises(FrozenInstanceError):
            pi.blocks = ((1, 2, 3, 4),)
        with pytest.raises(FrozenInstanceError):
            pi.chi = ("l",) * 4
        assert not hasattr(pi, "__dict__")

    def test_pickle_and_deepcopy_round_trip(self):
        for pi in enumerate_bnc(("r", "l", "l", "r")):
            for copied in (pickle.loads(pickle.dumps(pi)), copy.deepcopy(pi)):
                assert copied == pi and hash(copied) == hash(pi)
                assert copied.chi == pi.chi and copied.blocks == pi.blocks

    def test_unchecked_equals_checked(self):
        rng = random.Random(31)
        for k in range(1, 8):
            chi = rand_chi(rng, k)
            lattice = enumerate_bnc(chi)
            built = [join(rng.choice(lattice), rng.choice(lattice)) for _ in range(10)]
            for pi in lattice + tuple(built):
                checked = BNCPartition(chi, pi.blocks)
                assert pi == checked and hash(pi) == hash(checked)

    def test_repr(self):
        assert repr(enumerate_bnc(("l", "r", "l"))[2]) == "BNCPartition(lrl: {1,2}, {3})"
        assert repr(BNCPartition(LRLR, ((2, 4), (1,), (3,)))) == "BNCPartition(lrlr: {1}, {2,4}, {3})"


class TestJoin:
    def test_with_bottom(self):
        for pi in enumerate_bnc(LRLR):
            assert join(zero_partition(LRLR), pi) == pi

    def test_idempotent(self):
        for pi in enumerate_bnc(LRLR):
            assert join(pi, pi) == pi

    def test_crossingish_example(self):
        sigma = BNCPartition(LRLR, ((1, 3), (2,), (4,)))
        pi = BNCPartition(LRLR, ((2, 4), (1,), (3,)))
        assert join(sigma, pi).blocks == ((1, 3), (2, 4))

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_pairwise_closure(self, data):
        chi = data.draw(chis(max_size=9))
        sigma = data.draw(bnc_partitions(chi))
        pi = data.draw(bnc_partitions(chi))
        assert join(sigma, pi).blocks == join_by_closure(sigma, pi)

    @pytest.mark.parametrize("k", [10, 11, 12, 40, 70])
    def test_matches_pairwise_closure_at_bench_sizes_and_past_a_word(self, k):
        # k = 70 needs masks wider than a 64-bit word
        rng = random.Random(600 + k)
        for _ in range(42):
            chi = rand_chi(rng, k)
            sigma, pi = (BNCPartition(chi, rgs_bnc_blocks(rand_nc_rgs(rng, k), chi))
                         for _ in range(2))
            assert join(sigma, pi).blocks == join_by_closure(sigma, pi), (chi, sigma, pi)

    def test_least_upper_bound_randomized(self):
        rng = random.Random(23)
        for k in range(2, 6):
            chi = rand_chi(rng, k)
            lattice = enumerate_bnc(chi)
            for _ in range(30):
                sigma = rng.choice(lattice)
                pi = rng.choice(lattice)
                j = join(sigma, pi)
                assert sigma.leq(j) and pi.leq(j)
                for rho in lattice:
                    if sigma.leq(rho) and pi.leq(rho):
                        assert j.leq(rho)


class TestMobius:
    def test_reflexive(self):
        for pi in enumerate_bnc(("l", "r", "l")):
            assert mobius(pi, pi) == 1

    def test_two_points(self):
        chi = ("l", "r")
        assert mobius(zero_partition(chi), one_partition(chi)) == -1

    def test_three_points(self):
        chi = ("r", "l", "r")
        assert mobius(zero_partition(chi), one_partition(chi)) == 2

    def test_incomparable_rejected(self):
        sigma = BNCPartition(LRLR, ((1, 3), (2,), (4,)))
        pi = BNCPartition(LRLR, ((2, 4), (1,), (3,)))
        with pytest.raises(ValueError):
            mobius(sigma, pi)

    def test_defining_identity_exhaustive(self):
        rng = random.Random(31)
        for k in range(1, 7):
            chi = rand_chi(rng, k)
            lattice = enumerate_bnc(chi)
            for pi in lattice:
                below = [s for s in lattice if s.leq(pi)]
                for sigma in below:
                    total = sum(
                        mobius(rho, pi)
                        for rho in below
                        if sigma.leq(rho)
                    )
                    assert total == (1 if sigma == pi else 0), (chi, sigma, pi)

    def test_full_interval_signed_catalan(self):
        # cross-check of the recursion against the closed form
        rng = random.Random(5)
        for k in [*range(1, 8), 13, 20, 40]:  # past the enumeration cap too
            chi = rand_chi(rng, k)
            value = mobius(zero_partition(chi), one_partition(chi))
            assert value == (-1) ** (k - 1) * catalan(k - 1)

    @given(chis(max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_matches_defining_recursion_on_every_interval(self, chi):
        lattice = enumerate_bnc(chi)
        oracle = mobius_by_recursion(lattice)
        for pi in lattice:
            for sigma in lattice:
                if sigma.leq(pi):
                    assert mobius(sigma, pi) == oracle(sigma, pi), (chi, sigma, pi)

    def test_block_factorization(self):
        # mu(sigma, pi) equals the product over blocks of pi of the full-interval
        # mu of the restricted partitions
        rng = random.Random(77)
        for _ in range(40):
            k = rng.randint(2, 6)
            chi = rand_chi(rng, k)
            lattice = enumerate_bnc(chi)
            pi = rng.choice(lattice)
            below = [s for s in lattice if s.leq(pi)]
            sigma = rng.choice(below)
            product_value = 1
            for block in pi.blocks:
                order = {e: i + 1 for i, e in enumerate(sorted(block))}
                sub_chi = tuple(chi[e - 1] for e in sorted(block))
                sub_blocks = [
                    tuple(order[e] for e in b)
                    for b in sigma.blocks
                    if b[0] in order
                ]
                sub = BNCPartition(sub_chi, tuple(sub_blocks))
                product_value *= mobius(sub, one_partition(sub_chi))
            assert mobius(sigma, pi) == product_value

    def test_partial_inversion(self):
        # with f(pi) = sum_{sigma <= pi} g(sigma):
        # sum_{sigma <= rho <= pi} f(rho) mu(rho, pi) = sum_{omega v sigma = pi} g(omega)
        from fractions import Fraction

        rng = random.Random(13)
        for k in range(1, 6):
            chi = rand_chi(rng, k)
            lattice = enumerate_bnc(chi)
            g = {p.blocks: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for p in lattice}
            f = {
                pi.blocks: sum(g[s.blocks] for s in lattice if s.leq(pi))
                for pi in lattice
            }
            for _ in range(10):
                pi = rng.choice(lattice)
                below = [s for s in lattice if s.leq(pi)]
                sigma = rng.choice(below)
                lhs = sum(
                    f[rho.blocks] * mobius(rho, pi)
                    for rho in below
                    if sigma.leq(rho)
                )
                rhs = sum(
                    g[omega.blocks]
                    for omega in lattice
                    if join(omega, sigma) == pi
                )
                assert lhs == rhs


class TestHatEmbedding:
    def test_top_maps_to_top(self):
        for chi_len, prime_len in ((2, 2), (3, 2), (3, 3)):
            chi = ("l", "r", "l")[:chi_len]
            chi_prime = ("r", "l", "r")[:prime_len]
            top = hat_embed(one_partition(chi), chi_prime)
            assert top == one_partition(hat_chi(chi, chi_prime))

    def test_bottom_formula(self):
        chi = ("l", "r")
        chi_prime = ("l", "r")  # positions 2..3
        assert hat_zero(chi, chi_prime).blocks == ((1,), (2, 3))
        embedded = hat_embed(zero_partition(chi), chi_prime)
        assert embedded.blocks == ((1,), (2, 3))

    def test_order_preservation_exhaustive(self):
        rng = random.Random(3)
        for k in range(2, 6):
            chi = rand_chi(rng, k)
            chi_prime = rand_chi(rng, rng.randint(2, 3))
            lattice = enumerate_bnc(chi)
            for sigma in lattice:
                for pi in lattice:
                    if sigma.leq(pi):
                        assert hat_embed(sigma, chi_prime).leq(hat_embed(pi, chi_prime))

    def test_mobius_preserved(self):
        rng = random.Random(41)
        for p in range(2, 5):
            chi = rand_chi(rng, p)
            for extra in (1, 2):
                chi_prime = rand_chi(rng, extra + 1)
                lattice = enumerate_bnc(chi)
                for sigma in lattice:
                    for pi in lattice:
                        if sigma.leq(pi):
                            assert mobius(sigma, pi) == mobius(
                                hat_embed(sigma, chi_prime), hat_embed(pi, chi_prime)
                            )

    def test_image_is_interval_above_hat_zero(self):
        chi = ("l", "r", "l")
        chi_prime = ("l", "l")
        bottom = hat_zero(chi, chi_prime)
        extended = hat_chi(chi, chi_prime)
        image = {hat_embed(p, chi_prime).blocks for p in enumerate_bnc(chi)}
        interval = {
            p.blocks for p in enumerate_bnc(extended) if bottom.leq(p)
        }
        assert image == interval
