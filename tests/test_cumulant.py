import json
import math
import random
import re
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifree.bnclattice import (
    ENUMERATION_CAP,
    BNCPartition,
    canonical_blocks,
    enumerate_bnc,
    hat_embed,
    hat_zero,
    join,
    one_partition,
    sigma_chi,
    zero_partition,
)
from bifree.cumulant import (
    CumulantMomentFunctional,
    CumulantSpec,
    DegreeBoundError,
    TableMomentFunctional,
    check_mixed_vanishing,
    cumulant_chi,
    cumulant_pi,
    expand_product_last_entry,
    gaussian_cumulant_spec,
    load_spec,
    moment_pi,
    moments_from_cumulants,
    pattern_of_letters,
    save_spec,
    spec_from_json_dict,
    spec_to_json_dict,
)
from bifree.derivation import enumerate_words
from bifree.ncalg import ArityError, bipartite_mode, free_mode, lsym, lvar, normal_form, rvar
from helpers import (
    bnc_partitions,
    cumulant_by_lattice_sum,
    expand_by_join,
    expand_by_lattice_filter,
    integer_partitions,
    moment_by_interval_recursion,
    moment_by_lattice_sum,
    nc_block_type_count,
    rand_chi,
    rand_frac,
    rand_functional,
    rand_nc_rgs,
    rgs_bnc_blocks,
)

HALF = Fraction(1, 2)
S, T = (lvar(1),), (rvar(1),)


def semicircular_pair(c):
    mode = bipartite_mode(1, 1)
    spec = gaussian_cumulant_spec(1, 1, [[1, c], [c, 1]])
    return spec, CumulantMomentFunctional(mode, spec)


def letters_for_chi(chi, rng=None, arities=(2, 2)):
    out = []
    for label in chi:
        arity = arities[0] if label == "l" else arities[1]
        idx = rng.randint(1, arity) if rng else 1
        out.append((lvar(idx) if label == "l" else rvar(idx),))
    return out


@st.composite
def table_cases(draw, max_size):
    """A word over l1, l2, r1, r2 with a table functional that puts a random
    rational (zero included) on each of its subsequences."""
    letters = (lvar(1), lvar(2), rvar(1), rvar(2))
    word = draw(st.lists(st.sampled_from(letters), min_size=1, max_size=max_size))
    value = st.fractions(min_value=-3, max_value=3, max_denominator=5)
    table = {
        tuple(word[i] for i in idx): draw(value)
        for r in range(1, len(word) + 1)
        for idx in combinations(range(len(word)), r)
    }
    phi = TableMomentFunctional(free_mode(2, 2), table)
    return phi, tuple(l.side for l in word), [(l,) for l in word]


class TestMomentPi:
    def test_full_partition_is_plain_moment(self):
        rng = random.Random(2)
        phi = rand_functional(rng, free_mode(1, 1), 6)
        chi = ("l", "r", "l")
        args = [S, T, S]
        word = S + T + S
        assert moment_pi(phi, one_partition(chi), args) == phi.phi(word)

    def test_singletons_factorize(self):
        rng = random.Random(3)
        phi = rand_functional(rng, free_mode(1, 1), 6)
        chi = ("l", "r")
        assert moment_pi(phi, zero_partition(chi), [S, T]) == phi.phi(S) * phi.phi(T)

    def test_centred_family_singletons_vanish(self):
        _, phi = semicircular_pair(HALF)
        pi = zero_partition(("l", "r"))
        assert moment_pi(phi, pi, [S, T]) == 0

    def test_degree_bound(self):
        rng = random.Random(4)
        phi = rand_functional(rng, free_mode(1, 1), 3)
        chi = ("l",) * 4
        with pytest.raises(DegreeBoundError):
            moment_pi(phi, one_partition(chi), [S, S, S, S])


class TestCumulantChi:
    def test_order_two_formula(self):
        rng = random.Random(5)
        phi = rand_functional(rng, free_mode(1, 1), 6)
        value = cumulant_chi(phi, ("l", "r"), [S, T])
        assert value == phi.phi(S + T) - phi.phi(S) * phi.phi(T)

    def test_gaussian_pair_covariance(self):
        _, phi = semicircular_pair(HALF)
        assert cumulant_chi(phi, ("l", "r"), [S, T]) == HALF

    def test_gaussian_third_order_vanishes(self):
        _, phi = semicircular_pair(HALF)
        pool = {"l": S, "r": T}
        for chi in product("lr", repeat=3):
            args = [pool[label] for label in chi]
            assert cumulant_chi(phi, chi, args) == 0

    def test_last_entry_side_independence(self):
        rng = random.Random(6)
        mode = free_mode(2, 2)
        for k in range(1, 6):
            phi = rand_functional(rng, mode, k + 1)
            chi = rand_chi(rng, k)
            args = letters_for_chi(chi, rng)
            left_last = cumulant_chi(phi, chi + ("l",), args + [S])
            right_last = cumulant_chi(phi, chi + ("r",), args + [S])
            assert left_last == right_last

    @given(table_cases(max_size=7))
    @settings(max_examples=60, deadline=None)
    def test_matches_lattice_sum(self, case):
        phi, chi, args = case
        assert cumulant_chi(phi, chi, args) == cumulant_by_lattice_sum(phi, chi, args)

    def test_matches_lattice_sum_with_many_zero_moments(self):
        # about half the table is zero, so many lattice terms stop early
        rng = random.Random(44)
        letters = (lvar(1), lvar(2), rvar(1), rvar(2))
        for k in (1, 2, 5, 8):
            word = [rng.choice(letters) for _ in range(k)]
            table = {
                tuple(word[i] for i in idx): rand_frac(rng) if rng.random() < 0.5 else 0
                for r in range(1, k + 1)
                for idx in combinations(range(k), r)
            }
            phi = TableMomentFunctional(free_mode(2, 2), table)
            chi, args = tuple(l.side for l in word), [(l,) for l in word]
            assert cumulant_chi(phi, chi, args) == cumulant_by_lattice_sum(phi, chi, args)

    def test_bipartite_commutation_invariance(self):
        # swapping an adjacent left-right pair of entries leaves kappa unchanged
        rng = random.Random(8)
        mode = bipartite_mode(2, 2)
        for _ in range(40):
            k = rng.randint(2, 5)
            phi = rand_functional(rng, mode, k)
            chi = list(rand_chi(rng, k))
            args = letters_for_chi(chi, rng)
            swaps = [i for i in range(k - 1) if chi[i] != chi[i + 1]]
            if not swaps:
                continue
            i = rng.choice(swaps)
            chi2 = list(chi)
            chi2[i], chi2[i + 1] = chi2[i + 1], chi2[i]
            args2 = list(args)
            args2[i], args2[i + 1] = args2[i + 1], args2[i]
            assert cumulant_chi(phi, tuple(chi), args) == cumulant_chi(
                phi, tuple(chi2), args2
            )


class TestMomentsFromCumulants:
    def test_semicircular_fourth_moment(self):
        spec, _ = semicircular_pair(Fraction(0))
        assert moments_from_cumulants(spec, ("l",) * 4, [S] * 4) == 2

    def test_interleaved_pair_moment(self):
        spec, _ = semicircular_pair(HALF)
        value = moments_from_cumulants(spec, ("l", "r", "l", "r"), [S, T, S, T])
        assert value == 1 + HALF * HALF

    def test_first_order_only(self):
        a = Fraction(3, 7)
        spec = CumulantSpec(1, 1, {(("l", 1),): a})
        for k in range(1, 6):
            assert moments_from_cumulants(spec, ("l",) * k, [S] * k) == a ** k

    def test_side_mismatch_rejected(self):
        spec, _ = semicircular_pair(HALF)
        with pytest.raises(ValueError):
            moments_from_cumulants(spec, ("l",), [T])

    def test_symbols_and_undeclared_letters_rejected(self):
        spec = CumulantSpec(1, 1, {(("l", 1),): Fraction(3, 7)})
        with pytest.raises(ValueError, match="variables only"):
            moments_from_cumulants(spec, ("l",), [(lsym(1),)])
        with pytest.raises(ArityError):
            moments_from_cumulants(spec, ("l",), [(lvar(5),)])

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_lattice_sum(self, data):
        n, m = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
        letter = st.one_of(
            st.integers(1, n).map(lambda i: ("l", i)),
            st.integers(1, m).map(lambda j: ("r", j)),
        )
        value = st.fractions(min_value=-3, max_value=3, max_denominator=5)
        entries = data.draw(st.dictionaries(
            st.lists(letter, min_size=1, max_size=4).map(tuple), value, max_size=40
        ))
        spec = CumulantSpec(n, m, entries)
        word = tuple(lvar(i) if side == "l" else rvar(i)
                     for side, i in data.draw(st.lists(letter, min_size=1, max_size=7)))
        chi = tuple(l.side for l in word)
        expected = moment_by_lattice_sum(spec, chi, word)
        assert moment_by_interval_recursion(spec, chi, word) == expected
        assert moments_from_cumulants(spec, chi, [(l,) for l in word]) == expected

    def test_kreweras_block_type_count_past_the_cap(self):
        # kappa depends on the block length only, so the moment counts the
        # non-crossing partitions of each block type
        k = 14
        weight = {1: Fraction(2), 2: Fraction(-1, 3), 3: Fraction(5, 7), 4: Fraction(3, 2)}
        entries = {
            tuple(zip(sides, (1,) * size)): w
            for size, w in weight.items()
            for sides in product("lr", repeat=size)
        }
        spec = CumulantSpec(1, 1, entries, degree_bound=k)
        expected = sum(
            nc_block_type_count(sizes) * math.prod(weight[s] for s in sizes)
            for sizes in integer_partitions(k, 4)
        )
        rng = random.Random(14)
        phi = CumulantMomentFunctional(free_mode(1, 1), spec)
        assert k > ENUMERATION_CAP
        for _ in range(3):
            chi = rand_chi(rng, k)
            word = tuple(lvar(1) if side == "l" else rvar(1) for side in chi)
            assert moments_from_cumulants(spec, chi, [(l,) for l in word]) == expected
            assert phi.phi(word) == expected


class TestRoundTrips:
    def chis(self, rng, k):
        if k <= 3:
            return [tuple(c) for c in product("lr", repeat=k)]
        return [rand_chi(rng, k) for _ in range(8)]

    def test_spec_to_moments_to_cumulants(self):
        rng = random.Random(12)
        mode = free_mode(2, 2)
        for k in range(1, 7):
            for chi in self.chis(rng, k):
                entries = {}
                for length in range(1, k + 1):
                    for _ in range(3):
                        sub = rand_chi(rng, length)
                        pattern = tuple(
                            ("l", rng.randint(1, 2)) if lab == "l" else ("r", rng.randint(1, 2))
                            for lab in sub
                        )
                        entries[pattern] = rand_frac(rng)
                spec = CumulantSpec(2, 2, entries, degree_bound=k + 1)
                phi = CumulantMomentFunctional(mode, spec)
                args = letters_for_chi(chi, rng)
                pattern = pattern_of_letters([w[0] for w in args])
                assert cumulant_chi(phi, chi, args) == spec.kappa(pattern)

    def test_moments_to_cumulants_to_moments(self):
        rng = random.Random(13)
        mode = free_mode(1, 1)
        for k in range(1, 7):
            phi = rand_functional(rng, mode, k)
            entries = {}
            for word in enumerate_words(mode, k):
                if not word:
                    continue
                chi = tuple(l.side for l in word)
                entries[pattern_of_letters(word)] = cumulant_chi(
                    phi, chi, [(l,) for l in word]
                )
            spec = CumulantSpec(1, 1, entries, degree_bound=k)
            for word in enumerate_words(mode, k):
                if not word:
                    continue
                chi = tuple(l.side for l in word)
                assert (
                    moments_from_cumulants(spec, chi, [(l,) for l in word])
                    == phi.phi(word)
                )


class TestProductExpansion:
    def test_two_point_moment_consistency(self):
        rng = random.Random(14)
        phi = rand_functional(rng, free_mode(1, 1), 4)
        chi, chi_prime = ("l",), ("l", "r")
        sigmas = expand_product_last_entry(one_partition(chi), chi, chi_prime)
        assert len(sigmas) == 2  # both partitions of a 2-element set
        total = sum(cumulant_pi(phi, s, [S, T]) for s in sigmas)
        assert total == phi.phi(S + T)

    def test_three_point_expansion_structure(self):
        chi, chi_prime = ("l", "l"), ("l", "l")
        sigmas = expand_product_last_entry(one_partition(chi), chi, chi_prime)
        got = {s.blocks for s in sigmas}
        assert got == {((1, 2, 3),), ((1, 2), (3,)), ((1, 3), (2,))}

    def test_against_direct_cumulant_200_random(self):
        rng = random.Random(15)
        mode = free_mode(2, 2)
        pool = [lvar(1), lvar(2), rvar(1), rvar(2)]
        for _ in range(200):
            total_len = rng.randint(2, 5)
            p = rng.randint(1, total_len - 1)
            q_minus_p = total_len - p
            letters = [rng.choice(pool) for _ in range(total_len)]
            # every moment read is of a subsequence of the letters
            table = {
                tuple(letters[i] for i in idx): rand_frac(rng)
                for r in range(1, total_len + 1)
                for idx in combinations(range(total_len), r)
            }
            phi = TableMomentFunctional(mode, table)
            chi = tuple(l.side for l in letters[: p - 1]) + ("l",)
            chi_prime = tuple(l.side for l in letters[p - 1 :])
            # direct: the product word sits in the last entry
            direct_args = [(l,) for l in letters[: p - 1]] + [tuple(letters[p - 1 :])]
            direct = cumulant_chi(phi, chi, direct_args)
            expanded_args = [(l,) for l in letters]
            sigmas = expand_product_last_entry(one_partition(chi), chi, chi_prime)
            expanded = sum(cumulant_pi(phi, s, expanded_args) for s in sigmas)
            assert direct == expanded


    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_whole_lattice_filter(self, data):
        extended = tuple(data.draw(st.lists(st.sampled_from("lr"), min_size=2, max_size=8)))
        p = data.draw(st.integers(1, len(extended) - 1))
        # position p may take either side in the extended sequence
        chi = extended[:p - 1] + (data.draw(st.sampled_from("lr")),)
        chi_prime = extended[p - 1:]
        pi = data.draw(bnc_partitions(chi))
        got = [s.blocks for s in expand_product_last_entry(pi, chi, chi_prime)]
        assert len(set(got)) == len(got)
        assert set(got) == expand_by_lattice_filter(pi, chi, chi_prime)

    def test_matches_join_oracle_in_order(self):
        # deciding on the split block keeps the same partitions, in the same
        # order, as a full join with the bottom-block embedding
        rng = random.Random(22)
        for _ in range(150):
            chi = rand_chi(rng, rng.randint(1, 6))
            # the first side of chi_prime is drawn on its own, so position p
            # may change side in the extended sequence
            chi_prime = rand_chi(rng, rng.randint(3, 5))
            pi = rng.choice(enumerate_bnc(chi))
            got = expand_product_last_entry(pi, chi, chi_prime)
            expected = expand_by_join(pi, chi, chi_prime)
            assert [(s.chi, s.blocks) for s in got] == [(s.chi, s.blocks) for s in expected]

    @pytest.mark.parametrize("k", [13, 21])
    def test_split_block_past_the_cap(self, k):
        # a split block of k positions, p changing side: sigma v bottom = 1
        # exactly for 1_k and for the two-block partitions that cut the
        # relabelled circle between p and q, which sit next to each other
        # (two non-crossing blocks are two arcs of it); the walk gives them
        # in the lex order of their relabelled restricted-growth strings.
        # NC(21) has Cat(21) ~ 2.4e10 partitions, so k = 21 finishes only
        # if the walk visits about as many partitions as it keeps
        rng = random.Random(31)
        chi = rand_chi(rng, k - 1)
        chi_prime = ("r" if chi[-1] == "l" else "l", rng.choice("lr"))
        order = sigma_chi(chi[:-1] + chi_prime)  # relabelled index -> position
        assert len(order) == k > ENUMERATION_CAP
        after = max(order.index(k - 1), order.index(k))  # the arc after the p, q cut
        rgs = [(0,) * k]
        for j in range(1, k):
            arc = {(after + t) % k for t in range(j)}
            rgs.append(tuple(int((r in arc) != (0 in arc)) for r in range(k)))
        expected = [
            canonical_blocks([order[r] for r in range(k) if g[r] == label] for label in set(g))
            for g in sorted(rgs)
        ]
        got = expand_product_last_entry(one_partition(chi), chi, chi_prime)
        assert [s.blocks for s in got] == expected

    def test_large_split_block_is_sound(self):
        # a general pi whose block at p, with the new positions, gives a split
        # block of 20 or more: each partition is bi-non-crossing by the
        # checked constructor and joins the bottom embedding to pi_hat, with
        # join and hat_embed, which have no enumeration cap
        rng = random.Random(37)
        for _ in range(4):
            chi = rand_chi(rng, 24)
            chi_prime = rand_chi(rng, rng.randint(3, 5))
            # pi: one block around p, and a random non-crossing partition in
            # a gap of six relabelled indices away from p
            at_p = sigma_chi(chi).index(len(chi))
            gap = rng.choice([g for g in range(len(chi) - 5) if not g <= at_p < g + 6])
            inner = iter(rand_nc_rgs(rng, 6))
            rgs = [1 + next(inner) if gap <= r < gap + 6 else 0 for r in range(len(chi))]
            pi = BNCPartition(chi, rgs_bnc_blocks(rgs, chi))
            (block,) = [b for b in pi.blocks if len(chi) in b]
            assert len(block) + len(chi_prime) - 1 >= 20
            bottom, pi_hat = hat_zero(chi, chi_prime), hat_embed(pi, chi_prime)
            got = expand_product_last_entry(pi, chi, chi_prime)
            assert len(got) >= 1
            assert len({s.blocks for s in got}) == len(got)
            for s in got:
                assert join(BNCPartition(s.chi, s.blocks), bottom) == pi_hat, s

    @pytest.mark.parametrize("pi_chi, chi, chi_prime, message", [
        ("ll", "lx", "ll", "chi labels must be 'l' or 'r'"),
        ("ll", "lr", "ll", "pi must live over chi"),
        ("ll", "ll", "lq", "chi labels must be 'l' or 'r'"),
        ("ll", "ll", "", "chi must be nonempty"),
        ("ll", "ll", "r", "chi_prime must cover at least positions p..p+1"),
    ])
    def test_errors(self, pi_chi, chi, chi_prime, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            expand_product_last_entry(one_partition(pi_chi), chi, chi_prime)

    def test_one_object(self):
        # the cumulant module and the package export the lattice's function
        import bifree
        import bifree.bnclattice
        import bifree.cumulant

        fn = bifree.bnclattice.expand_product_last_entry
        assert bifree.expand_product_last_entry is fn
        assert bifree.cumulant.expand_product_last_entry is fn


def test_no_whole_lattice_enumeration(monkeypatch):
    # cumulants and expansions work on NC(k) and on [0, pi_hat], never on
    # the enumerated lattice
    import bifree.bnclattice
    import bifree.cumulant

    rng = random.Random(29)
    chi = rand_chi(rng, 7)
    args = letters_for_chi(chi, rng)
    word = tuple(a[0] for a in args)
    table = {
        tuple(word[i] for i in idx): rand_frac(rng)
        for r in range(1, 8)
        for idx in combinations(range(7), r)
    }
    phi = TableMomentFunctional(free_mode(2, 2), table)
    expected_cumulant = cumulant_by_lattice_sum(phi, chi, args)
    extended = rand_chi(rng, 8)
    base, chi_prime = extended[:4], extended[3:]
    pi = BNCPartition(base, rgs_bnc_blocks((0, 1, 1, 0), base))
    expected_expansion = expand_by_lattice_filter(pi, base, chi_prime)

    def refuse(*args, **kwargs):
        raise AssertionError("whole-lattice enumeration")

    monkeypatch.setattr(bifree.cumulant, "enumerate_bnc", refuse, raising=False)
    monkeypatch.setattr(bifree.bnclattice, "enumerate_bnc", refuse)
    monkeypatch.setattr(bifree.bnclattice, "_enumerate_bnc_cached", refuse)
    assert cumulant_chi(phi, chi, args) == expected_cumulant
    got = {s.blocks for s in expand_product_last_entry(pi, base, chi_prime)}
    assert got == expected_expansion


class TestMixedVanishing:
    def block_diagonal_spec(self):
        # two pairs: group 1 = (l1, r1) with covariance 1/2, group 2 = (l2, r2)
        # with covariance 1/3; no cross-group cumulants
        c1, c2 = Fraction(1, 2), Fraction(1, 3)
        z = Fraction(0)
        cov = [
            [1, z, c1, z],
            [z, 1, z, c2],
            [c1, z, 1, z],
            [z, c2, z, 1],
        ]
        return gaussian_cumulant_spec(2, 2, cov)

    GROUPS = {("l", 1): 1, ("r", 1): 1, ("l", 2): 2, ("r", 2): 2}

    def test_block_diagonal_passes(self):
        report = check_mixed_vanishing(self.block_diagonal_spec(), self.GROUPS, max_degree=4)
        assert report.passed
        assert report.checked > 0

    def test_single_group_vacuous(self):
        spec = gaussian_cumulant_spec(1, 1, [[1, HALF], [HALF, 1]])
        groups = {("l", 1): 1, ("r", 1): 1}
        report = check_mixed_vanishing(spec, groups, max_degree=4)
        assert report.passed
        assert report.checked == 0

    def test_corrupted_spec_reported(self):
        spec = self.block_diagonal_spec().with_entry((("l", 1), ("l", 2)), 1)
        spec = spec.with_entry((("l", 2), ("l", 1)), 1)
        report = check_mixed_vanishing(spec, self.GROUPS, max_degree=3)
        assert not report.passed
        assert report.violations


class TestSpecJson:
    def test_round_trip(self, tmp_path):
        spec = gaussian_cumulant_spec(1, 1, [[1, HALF], [HALF, 1]], degree_bound=8)
        path = tmp_path / "spec.json"
        save_spec(spec, str(path))
        assert path.read_text() == json.dumps(spec_to_json_dict(spec)) + "\n"
        loaded = load_spec(str(path))
        assert loaded.n == spec.n and loaded.m == spec.m
        assert loaded.degree_bound == spec.degree_bound
        assert dict(loaded.entries) == dict(spec.entries)

    def test_dict_round_trip(self):
        spec = CumulantSpec(2, 1, {(("l", 2), ("r", 1)): Fraction(-5, 3)})
        assert spec_from_json_dict(spec_to_json_dict(spec)).entries == spec.entries


class TestFunctionals:
    def test_empty_word_moment_is_one(self):
        mode = free_mode(1, 1)
        phi = TableMomentFunctional(mode, {(): Fraction(1), S: HALF})
        assert phi.phi(()) == 1
        with pytest.raises(ValueError):
            TableMomentFunctional(mode, {(): Fraction(2)})

    def test_bipartite_table_constant_on_classes(self):
        mode = bipartite_mode(1, 1)
        phi = TableMomentFunctional(mode, {S + T: Fraction(5)})
        assert phi.phi(T + S) == 5

    def test_table_rejects_undeclared_letters(self):
        phi = TableMomentFunctional(free_mode(1, 1), {S: HALF})
        assert phi.phi(S) == HALF
        assert phi.phi(T) == 0
        with pytest.raises(ArityError):
            phi.phi((lvar(5), rvar(7)))

    def test_table_checks_every_miss_and_keeps_checked_normal_forms(self):
        # a rejected word stays out of the memo, so asking again raises again;
        # what the memo holds is a reduced pair under a checked normal form
        mode = bipartite_mode(1, 1)
        phi = TableMomentFunctional(mode, {T + S: Fraction(4, 6), S: 0}, degree_bound=3)
        for _ in range(2):
            with pytest.raises(ArityError):
                phi.phi((rvar(7), lvar(5)))
            with pytest.raises(DegreeBoundError):
                phi.phi(T + S * 3)
        assert phi.phi(T + S) == Fraction(2, 3)
        assert phi.phi(T + S + S) == 0
        assert phi._memo == {(): (1, 1), S + T: (2, 3), S: (0, 1), S + S + T: (0, 1)}

    def test_cumulant_backed_degree_bound(self):
        spec, phi = semicircular_pair(HALF)
        with pytest.raises(DegreeBoundError):
            phi.phi(S * 11)

    def test_cumulant_backed_rejects_undeclared_letters(self):
        spec, _ = semicircular_pair(HALF)
        phi = CumulantMomentFunctional(free_mode(1, 1), spec)
        with pytest.raises(ArityError):
            phi.phi((lvar(5), rvar(7)))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_cumulant_backed_first_block_recursion_matches_oracle(self, data):
        # phi recurses on the first block through its memo; every answer and
        # every memo entry must be the rational the interval recursion gives
        n, m = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
        letter = st.one_of(
            st.integers(1, n).map(lambda i: ("l", i)),
            st.integers(1, m).map(lambda j: ("r", j)),
        )
        value = st.fractions(min_value=-3, max_value=3, max_denominator=5)
        entries = data.draw(st.dictionaries(
            st.lists(letter, min_size=1, max_size=4).map(tuple), value, max_size=40
        ))
        spec = CumulantSpec(n, m, entries)
        mode = data.draw(st.sampled_from([free_mode, bipartite_mode]))(n, m)
        phi = CumulantMomentFunctional(mode, spec)

        def oracle(word):
            word = normal_form(word, mode)
            if not word:
                return Fraction(1)
            return moment_by_interval_recursion(spec, tuple(l.side for l in word), word)

        words = data.draw(st.lists(st.lists(letter, max_size=9), min_size=1, max_size=6))
        for sides in words:
            word = tuple(lvar(i) if side == "l" else rvar(i) for side, i in sides)
            got = phi.phi(word)
            assert type(got) is Fraction and got == oracle(word)
        # the memo holds reduced int pairs with a positive denominator
        for word, pair in phi._memo.items():
            assert normal_form(word, mode) == word
            num, den = pair
            assert type(pair) is tuple and len(pair) == 2
            assert type(num) is int and type(den) is int
            assert den > 0 and math.gcd(num, den) == 1
            assert Fraction(*pair) == oracle(word)

    def test_cumulant_backed_raw_word_lookup_keeps_checks(self):
        spec, phi = semicircular_pair(HALF)
        for k in range(1, 11):
            phi.phi(S * k)
            phi.phi(S * (k - 1) + T)
        assert phi.phi(T + S) == phi.phi(S + T) == HALF
        with pytest.raises(ArityError):
            phi.phi((lvar(5), rvar(7)))
        with pytest.raises(DegreeBoundError):
            phi.phi(S * 11)
        with pytest.raises(DegreeBoundError):
            phi.phi(T + S * 10)

    def test_cumulant_backed_matches_direct_sum(self):
        spec, phi = semicircular_pair(HALF)
        word = S + T + S + T + S + S
        assert phi.phi(word) == moment_by_interval_recursion(
            spec, tuple(l.side for l in word), word
        )

    def test_unreachable_length_keeps_the_checks_in_order(self, monkeypatch):
        # under a pair-only spec every odd length is 0 without recursion, but
        # a symbol, an undeclared letter or a word past the bound still raises,
        # every time, and leaves nothing in the memo
        import bifree.cumulant

        spec, phi = semicircular_pair(HALF)

        def no_recursion(chi):
            raise AssertionError("an unreachable length needs no first-block sum")

        monkeypatch.setattr(bifree.cumulant, "sigma_chi", no_recursion)
        assert phi._reach == set(range(0, 11, 2))
        for _ in range(2):
            with pytest.raises(ValueError, match="variables only"):
                phi.phi((lsym(1),))
            with pytest.raises(ArityError):
                phi.phi((lvar(5),))
            with pytest.raises(DegreeBoundError):
                phi.phi(S * 11)
        assert phi._memo == {(): (1, 1)}
        assert phi.phi(S * 3) == 0
        assert phi._memo == {(): (1, 1), S * 3: (0, 1)}

    def test_unreachable_gaps_are_never_asked(self):
        # a pair-only spec: no even word's first-block sum asks for an odd gap
        # or rest, so the memo holds even lengths only
        spec, phi = semicircular_pair(HALF)
        word = S + T + T + S + S + T + S + T + T + S
        assert phi.phi(word) == Fraction(465, 32)
        assert all(len(key) % 2 == 0 for key in phi._memo)
        # a spec of sizes 3 and 4 reaches every length but 1, 2 and 5
        spec = CumulantSpec(1, 1, {(("l", 1),) * 3: Fraction(2), (("l", 1),) * 4: Fraction(-1, 3)})
        phi = CumulantMomentFunctional(free_mode(1, 1), spec)
        assert phi._reach == {0, 3, 4, 6, 7, 8, 9, 10}
        assert phi.phi(S * 9) == moment_by_interval_recursion(spec, ("l",) * 9, S * 9)
        assert not {1, 2, 5} & {len(key) for key in phi._memo}

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_cumulant_backed_gapped_block_sizes_match_oracles(self, data):
        # block sizes drawn from {2}, {3}, {4}, {2, 4}, {3, 4} or none, so some
        # lengths are no sum of them: such a word or gap is 0 without recursion
        n, m = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
        letter = st.one_of(
            st.integers(1, n).map(lambda i: ("l", i)),
            st.integers(1, m).map(lambda j: ("r", j)),
        )
        sizes = data.draw(st.sampled_from([(), (2,), (3,), (4,), (2, 4), (3, 4)]))
        entries = {}
        if sizes:
            pattern = st.sampled_from(sizes).flatmap(
                lambda k: st.lists(letter, min_size=k, max_size=k).map(tuple)
            )
            value = st.fractions(min_value=-3, max_value=3, max_denominator=5)
            entries = data.draw(st.dictionaries(pattern, value, max_size=30))
        spec = CumulantSpec(n, m, entries)
        mode = data.draw(st.sampled_from([free_mode, bipartite_mode]))(n, m)
        phi = CumulantMomentFunctional(mode, spec)

        def oracle(word):
            word = normal_form(word, mode)
            if not word:
                return Fraction(1)
            return moment_by_interval_recursion(spec, tuple(l.side for l in word), word)

        words = data.draw(st.lists(st.lists(letter, max_size=9), min_size=1, max_size=6))
        for sides in words:
            word = tuple(lvar(i) if side == "l" else rvar(i) for side, i in sides)
            got = phi.phi(word)
            assert type(got) is Fraction and got == oracle(word)
            if 0 < len(word) <= 7:
                word = normal_form(word, mode)
                assert got == moment_by_lattice_sum(spec, tuple(l.side for l in word), word)
        for word, pair in phi._memo.items():
            assert normal_form(word, mode) == word
            num, den = pair
            assert type(pair) is tuple and len(pair) == 2
            assert type(num) is int and type(den) is int
            assert den > 0 and math.gcd(num, den) == 1
            assert Fraction(*pair) == oracle(word)
