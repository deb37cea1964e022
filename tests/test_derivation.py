import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifree import derivation
from bifree.cumulant import (
    CumulantMomentFunctional,
    CumulantSpec,
    DegreeBoundError,
    TableMomentFunctional,
    gaussian_cumulant_spec,
)
from bifree.derivation import (
    QuotientKind,
    adjoint_apply,
    bifree_dq,
    conjugate_check,
    enumerate_words,
    free_dq,
    scalar_identity_residual,
)
from bifree.ncalg import (
    STRAIGHT,
    ArityError,
    NCPolynomial,
    TensorPoly,
    bipartite_mode,
    format_tensor,
    free_mode,
    lsym,
    lvar,
    mul,
    normal_form,
    normalize_tensor,
    parse_poly,
    parse_tensor,
    parse_word,
    rsym,
    rvar,
    star,
    tensor_mul,
    tensor_of,
    tensor_star,
)
from helpers import (
    adjoint_apply_by_tensors,
    bifree_dq_by_branches,
    conjugate_check_by_fractions,
    fraction_inverse,
    free_dq_by_leibniz,
    mixed_letters,
    rand_frac,
    rand_functional,
    rand_poly,
    rand_word,
    scalar_identity_residual_by_tensors,
    var_letters,
)

FREE = free_mode(2, 2)
BIP = bipartite_mode(2, 2)
LETTERS = mixed_letters(FREE)
HALF = Fraction(1, 2)

KL = QuotientKind("l", 1)
KR = QuotientKind("r", 1)
KL_FLIP = QuotientKind("l", 1, flipped=True)
KR_FLIP = QuotientKind("r", 1, flipped=True)

WORKED_LEFT_WORD = "y1 X1 y1 x1 y2 X1 y3 y1 x2"
WORKED_RIGHT_WORD = "Y1 x1 Y1 x2 y1 x1 y2 Y1 x3"


def word_poly(text, mode=FREE):
    return NCPolynomial.from_word(parse_word(text, mode))


def semicircular_phi(c):
    mode = bipartite_mode(1, 1)
    spec = gaussian_cumulant_spec(1, 1, [[1, c], [c, 1]], degree_bound=10)
    return mode, CumulantMomentFunctional(mode, spec)


def semicircular_xi(c):
    scale = 1 / (1 - c * c)
    return NCPolynomial.from_letter(lvar(1), scale) - NCPolynomial.from_letter(
        rvar(1), c * scale
    )


class TestFreeDq:
    def test_variable(self):
        m = free_mode(1, 0)
        assert free_dq(word_poly("X1", m), lvar(1), m) == TensorPoly.one()

    def test_leibniz_square(self):
        m = free_mode(1, 0)
        assert free_dq(word_poly("X1 X1", m), lvar(1), m) == parse_tensor(
            "1 ⊗ X1 + X1 ⊗ 1", m
        )

    def test_symbols_annihilated(self):
        m = free_mode(1, 0)
        assert free_dq(word_poly("x1 X1 x2", m), lvar(1), m) == parse_tensor(
            "x1 ⊗ x2", m
        )

    def test_unknown_letter(self):
        with pytest.raises(Exception):
            free_dq(word_poly("X1"), lvar(3), BIP)
        with pytest.raises(ValueError):
            free_dq(word_poly("x1"), lsym(1), FREE)


class TestWorkedExamples:
    def test_left(self):
        mode = free_mode(1, 1)
        out = bifree_dq(word_poly(WORKED_LEFT_WORD, mode), KL, mode)
        assert format_tensor(out) == (
            "y1 y1 y2 y3 y1 ⊗ x1 X1 x2 + y1 X1 y1 x1 y2 y3 y1 ⊗ x2"
        )

    def test_right(self):
        mode = free_mode(1, 1)
        out = bifree_dq(word_poly(WORKED_RIGHT_WORD, mode), KR, mode)
        assert format_tensor(out) == (
            "x1 x2 x1 x3 ⊗ Y1 y1 y2 Y1 + Y1 x1 x2 x1 x3 ⊗ y1 y2 Y1"
            " + Y1 x1 Y1 x2 y1 x1 y2 x3 ⊗ 1"
        )

    def test_flipped_left(self):
        mode = free_mode(1, 1)
        out = bifree_dq(word_poly(WORKED_LEFT_WORD, mode), KL_FLIP, mode)
        assert format_tensor(out) == (
            "1 ⊗ y1 y1 x1 y2 X1 y3 y1 x2 + X1 x1 ⊗ y1 y1 y2 y3 y1 x2"
        )

    def test_flipped_right(self):
        mode = free_mode(1, 1)
        out = bifree_dq(word_poly(WORKED_RIGHT_WORD, mode), KR_FLIP, mode)
        assert format_tensor(out) == (
            "1 ⊗ x1 Y1 x2 y1 x1 y2 Y1 x3 + Y1 ⊗ x1 x2 y1 x1 y2 Y1 x3"
            " + Y1 Y1 y1 y2 ⊗ x1 x2 x1 x3"
        )

    def test_bipartite_partial_derivative(self):
        mode = bipartite_mode(1, 1)
        out = bifree_dq(parse_poly("X1 X1 Y1", mode), QuotientKind("l", 1), mode)
        assert format_tensor(out) == "Y1 ⊗ X1 + X1 Y1 ⊗ 1"

    def test_left_output_second_leg_pure_left(self):
        rng = random.Random(17)
        for _ in range(50):
            p = rand_poly(rng, FREE, LETTERS, 3, 5)
            for (w1, w2), _ in bifree_dq(p, KL, FREE).items():
                assert all(l.side == "l" for l in w2)
            for (w1, w2), _ in bifree_dq(p, KL_FLIP, FREE).items():
                assert all(l.side == "l" for l in w1)


class TestLegOracles:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_branch_oracle(self, data):
        # random polynomials with symbols, both modes, all four kinds
        mode = data.draw(st.sampled_from([FREE, BIP]))
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        p = rand_poly(rng, mode, mixed_letters(mode), 4, 6)
        side = data.draw(st.sampled_from(["l", "r"]))
        kind = QuotientKind(side, data.draw(st.integers(1, 2)), data.draw(st.booleans()))
        assert bifree_dq(p, kind, mode) == bifree_dq_by_branches(p, kind, mode)
        assert free_dq(p, kind.target, mode) == free_dq_by_leibniz(p, kind.target, mode)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_legs_of_normal_forms_are_normal_forms(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        word = rand_word(rng, mixed_letters(BIP), 8, BIP)
        side = data.draw(st.sampled_from(["l", "r"]))
        kind = QuotientKind(side, data.draw(st.integers(1, 2)), data.draw(st.booleans()))
        for (w1, w2), _ in bifree_dq(NCPolynomial.from_word(word), kind, BIP).items():
            assert normal_form(w1, BIP) == w1
            assert normal_form(w2, BIP) == w2


class TestQuotientLaws:
    def test_restriction_to_pure_left(self):
        rng = random.Random(19)
        pure_left = [lvar(1), lvar(2), lsym(1), lsym(2)]
        for _ in range(100):
            p = rand_poly(rng, FREE, pure_left, 3, 5)
            base = free_dq(p, lvar(1), FREE)
            assert bifree_dq(p, KL, FREE) == base
            assert bifree_dq(p, KL_FLIP, FREE) == base

    def test_flip_law(self):
        rng = random.Random(23)
        for _ in range(200):
            p = rand_poly(rng, FREE, LETTERS, 3, 5)
            for kind, flip in ((KL, KL_FLIP), (KR, KR_FLIP)):
                assert bifree_dq(p, flip, FREE) == tensor_star(
                    bifree_dq(star(p), kind, FREE)
                )

    def test_bipartite_invariance_under_commutation(self):
        # the quotient of a word equals the quotient of any commutation-equivalent
        # word once both outputs are normalized
        rng = random.Random(29)
        checked = 0
        while checked < 100:
            w = [rng.choice(LETTERS) for _ in range(rng.randint(2, 6))]
            i = rng.randrange(len(w) - 1)
            if w[i].side == w[i + 1].side:
                continue
            swapped = list(w)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            for kind in (KL, KR, KL_FLIP, KR_FLIP):
                a = normalize_tensor(
                    bifree_dq(NCPolynomial.from_word(tuple(w)), kind, FREE), BIP
                )
                b = normalize_tensor(
                    bifree_dq(NCPolynomial.from_word(tuple(swapped)), kind, FREE), BIP
                )
                assert a == b
            checked += 1

    def test_leibniz_left_factor(self):
        # flipped-left on C*M for pure-left C: dq(C)(1 ⊗ M) + (C ⊗ 1)dq(M)
        rng = random.Random(31)
        pure_left = [lvar(1), lvar(2), lsym(1)]
        one = NCPolynomial.one()
        for _ in range(100):
            c = rand_poly(rng, FREE, pure_left, 2, 3)
            m = rand_poly(rng, FREE, LETTERS, 2, 3)
            lhs = bifree_dq(mul(c, m, FREE), KL_FLIP, FREE)
            rhs = tensor_mul(
                bifree_dq(c, KL_FLIP, FREE), tensor_of(one, m), STRAIGHT, FREE
            ) + tensor_mul(tensor_of(c, one), bifree_dq(m, KL_FLIP, FREE), STRAIGHT, FREE)
            assert lhs == rhs

    def test_leibniz_right_sandwich(self):
        # flipped-left on D1*M*D2 for pure-right D1, D2: (1 ⊗ D1)dq(M)(1 ⊗ D2)
        rng = random.Random(37)
        pure_right = [rvar(1), rvar(2), rsym(1)]
        one = NCPolynomial.one()
        for _ in range(100):
            d1 = rand_poly(rng, FREE, pure_right, 2, 2)
            d2 = rand_poly(rng, FREE, pure_right, 2, 2)
            m = rand_poly(rng, FREE, LETTERS, 2, 3)
            lhs = bifree_dq(mul(mul(d1, m, FREE), d2, FREE), KL_FLIP, FREE)
            rhs = tensor_mul(
                tensor_mul(tensor_of(one, d1), bifree_dq(m, KL_FLIP, FREE), STRAIGHT, FREE),
                tensor_of(one, d2),
                STRAIGHT,
                FREE,
            )
            assert lhs == rhs


def dq_on_leg(t, kind, leg, mode):
    """Apply a quotient to one leg of a rank-2 tensor, yielding a rank-3 dict."""
    out = {}
    for (w1, w2), c in t.items():
        target = w1 if leg == 0 else w2
        d = bifree_dq(NCPolynomial.from_word(target), kind, mode)
        for (a, b), cc in d.items():
            key = (a, b, w2) if leg == 0 else (w1, a, b)
            out[key] = out.get(key, Fraction(0)) + c * cc
    return {k: v for k, v in out.items() if v}


class TestComposition:
    def test_left_left(self):
        rng = random.Random(41)
        for _ in range(120):
            p = rand_poly(rng, FREE, LETTERS, 3, 5)
            d = bifree_dq(p, KL, FREE)
            assert dq_on_leg(d, KL, 0, FREE) == dq_on_leg(d, KL, 1, FREE)

    def test_right_right(self):
        rng = random.Random(43)
        for _ in range(120):
            p = rand_poly(rng, FREE, LETTERS, 3, 5)
            d = bifree_dq(p, KR, FREE)
            assert dq_on_leg(d, KR, 0, FREE) == dq_on_leg(d, KR, 1, FREE)

    def test_mixed_with_leg_swap(self):
        # (dq_l ⊗ id) ∘ dq_r agrees with (dq_r ⊗ id) ∘ dq_l after swapping the
        # last two legs
        rng = random.Random(47)
        for _ in range(120):
            p = rand_poly(rng, FREE, LETTERS, 3, 5)
            lhs = dq_on_leg(bifree_dq(p, KR, FREE), KL, 0, FREE)
            rhs = {
                (a, c, b): v
                for (a, b, c), v in dq_on_leg(bifree_dq(p, KL, FREE), KR, 0, FREE).items()
            }
            assert lhs == rhs


class TestScalarIdentity:
    def test_simple_word(self):
        assert scalar_identity_residual(parse_poly("X1 Y1", BIP), BIP).is_zero

    def test_unit(self):
        assert scalar_identity_residual(NCPolynomial.one(), BIP).is_zero

    def test_random_bipartite_polynomials(self):
        rng = random.Random(53)
        letters = [lvar(1), lvar(2), rvar(1), rvar(2)]
        for _ in range(60):
            p = rand_poly(rng, BIP, letters, 4, 5)
            assert scalar_identity_residual(p, BIP).is_zero

    def test_wrong_leg_formula_shows(self, monkeypatch):
        # the residual is assembled from the legs alone: with the free
        # quotient's legs in place of the two-faced ones it cannot vanish, and
        # it must still equal the tensor products of the quotients it reads
        def free_legs(word, kind):
            return ((word[:pos], word[pos + 1:]) for pos, l in enumerate(word) if l == kind.target)

        monkeypatch.setattr(derivation, "_legs", free_legs)
        p = parse_poly("X1 Y1 X1", BIP)
        residual = scalar_identity_residual(p, BIP)
        assert not residual.is_zero
        assert residual == scalar_identity_residual_by_tensors(p, BIP)
        rng = random.Random(59)
        for _ in range(30):
            p = rand_poly(rng, BIP, var_letters(BIP), 4, 5)
            assert scalar_identity_residual(p, BIP) == scalar_identity_residual_by_tensors(p, BIP)

    def test_rejects_undeclared_variables(self):
        for letter in (lvar(3), rvar(3)):
            with pytest.raises(ArityError):
                scalar_identity_residual(NCPolynomial.from_word((lvar(1), letter)), BIP)

    def test_rejects_free_mode(self):
        with pytest.raises(ValueError):
            scalar_identity_residual(NCPolynomial.one(), FREE)

    def test_rejects_symbols(self):
        with pytest.raises(ValueError):
            scalar_identity_residual(word_poly("x1", BIP), BIP)


class TestConjugateCheck:
    def test_semicircular_pair_passes(self):
        mode, phi = semicircular_phi(HALF)
        report = conjugate_check(phi, KL, semicircular_xi(HALF), 6)
        assert report.passed
        assert report.checked == 28  # bipartite words of degree <= 6

    def test_wrong_candidate_fails_at_first_right_word(self):
        mode, phi = semicircular_phi(HALF)
        report = conjugate_check(phi, KL, NCPolynomial.from_letter(lvar(1)), 3)
        assert not report.passed
        word, lhs, rhs = report.first_failure
        assert word == (rvar(1),)
        assert (lhs, rhs) == (HALF, 0)

    def test_independent_pair_pure_left_conjugate(self):
        mode, phi = semicircular_phi(Fraction(0))
        report = conjugate_check(phi, KL, NCPolynomial.from_letter(lvar(1)), 6)
        assert report.passed

    def test_free_mode_checks_every_word(self):
        # without imposing commutation the identity still holds on all words
        c = HALF
        mode = free_mode(1, 1)
        phi = CumulantMomentFunctional(
            mode, gaussian_cumulant_spec(1, 1, [[1, c], [c, 1]])
        )
        report = conjugate_check(phi, KL, semicircular_xi(c), 5, mode)
        assert report.passed
        assert report.checked == 63  # all words over two letters up to degree 5

    def test_right_side(self):
        mode, phi = semicircular_phi(HALF)
        eta = NCPolynomial.from_letter(rvar(1), 1 / (1 - HALF * HALF)) - (
            NCPolynomial.from_letter(lvar(1), HALF / (1 - HALF * HALF))
        )
        report = conjugate_check(phi, KR, eta, 5)
        assert report.passed

    def test_scaling_law(self):
        # the conjugate variable of the family scaled by lambda is xi / lambda:
        # for the pair with covariance lambda^2 A the candidate is
        # (coefficients of A's conjugate) / lambda^2
        lam2 = Fraction(9, 4)  # lambda^2
        c = Fraction(1, 2)
        mode = bipartite_mode(1, 1)
        scaled_cov = [[lam2, lam2 * c], [lam2 * c, lam2]]
        phi = CumulantMomentFunctional(
            mode, gaussian_cumulant_spec(1, 1, scaled_cov, degree_bound=10)
        )
        xi = semicircular_xi(c).scale(1 / lam2)
        report = conjugate_check(phi, KL, xi, 5)
        assert report.passed, report.first_failure

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_fraction_oracle(self, data):
        # same words checked, same failures in the same order, same Fractions
        n, m = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
        mode = data.draw(st.sampled_from([free_mode, bipartite_mode]))(n, m)
        letters = var_letters(mode)
        row = data.draw(st.integers(0, n + m - 1))
        kind = QuotientKind(letters[row].side, letters[row].index)
        max_degree = data.draw(st.integers(0, 3 if mode.bipartite else 2))
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        if data.draw(st.booleans()):
            # a rational Gaussian family and its true conjugate variable:
            # unit variances and covariances of at most 1/4, so invertible
            small = [Fraction(s, d) for s in (-1, 1) for d in (4, 5, 8)] + [Fraction(0)]
            cov = [[Fraction(1)] * (n + m) for _ in range(n + m)]
            for i in range(n + m):
                for j in range(i + 1, n + m):
                    cov[i][j] = cov[j][i] = rng.choice(small)
            spec = gaussian_cumulant_spec(n, m, cov, degree_bound=max_degree + 2)
            phi = CumulantMomentFunctional(mode, spec)
            inverse = fraction_inverse(cov)
            xi = NCPolynomial({(l,): inverse[row][j] for j, l in enumerate(letters)})
            true_xi = True
        else:
            phi = rand_functional(rng, mode, max_degree + 2)
            xi = rand_poly(rng, mode, max_terms=3, max_len=2)
            true_xi = False
        if data.draw(st.booleans()):
            xi = xi + NCPolynomial.from_letter(rng.choice(letters), rand_frac(rng))
            true_xi = False
        if data.draw(st.booleans()):
            # two words with one normal form in bipartite mode, maybe cancelling
            left, right = lvar(1), rvar(1)
            coeff = rand_frac(rng)
            other = -coeff if rng.random() < 0.5 else rand_frac(rng)
            xi = xi + NCPolynomial({(left, right): coeff, (right, left): other})
            true_xi = False
        report = conjugate_check(phi, kind, xi, max_degree, mode)
        assert report == conjugate_check_by_fractions(phi, kind, xi, max_degree, mode)
        for _, lhs, rhs in report.failures:
            assert type(lhs) is Fraction and type(rhs) is Fraction
        if true_xi:
            assert report.passed

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", [KL, KR, QuotientKind("l", 2), QuotientKind("r", 2)],
                             ids=["l1", "r1", "l2", "r2"])
    @pytest.mark.parametrize("mode", [FREE, BIP], ids=["free", "bipartite"])
    def test_xi_on_both_sides_matches_fraction_oracle(self, monkeypatch, mode, kind, seed):
        # every xi word mixes the sides, so in bipartite mode Z w is spliced at
        # Z's left count; a random phi tells every misplaced letter apart
        rng = random.Random(seed)
        phi = rand_functional(rng, mode, 6)
        asked = []
        pair = phi._phi_pair
        monkeypatch.setattr(phi, "_phi_pair", lambda word: asked.append(word) or pair(word))
        letters = var_letters(mode)
        terms = {}
        while len(terms) < 3:
            word = (lvar(rng.randint(1, 2)), rvar(rng.randint(1, 2)))[::rng.choice((1, -1))]
            extra = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
            terms[extra[:1] + word + extra[1:]] = rand_frac(rng)
        xi = NCPolynomial(terms)
        report = conjugate_check(phi, kind, xi, 2, mode)
        assert report == conjugate_check_by_fractions(phi, kind, xi, 2, mode)
        assert report.failures  # a random xi fails, so the left sides' values are compared
        # phi normalizes what it is given, so only this shows a spliced word
        # that is not a normal form
        assert asked and all(normal_form(w, mode) == w for w in asked)

    def test_degree_bound_raises_before_phi_is_read(self):
        # without the early check, the 5,461 words of degree <= 6 would be
        # checked before phi(Z xi) reached degree 8, past the bound
        cov = [[1, HALF, 0, 0], [HALF, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        mode = free_mode(2, 2)
        phi = CumulantMomentFunctional(mode, gaussian_cumulant_spec(2, 2, cov, degree_bound=7))
        xi = NCPolynomial.from_letter(lvar(1))
        with pytest.raises(DegreeBoundError):
            conjugate_check(phi, KL, xi, 7, mode)
        assert phi._memo == {(): (1, 1)}

    def test_zero_xi_past_degree_bound_raises(self):
        # with xi zero the longest word read is a leg of target^max_degree
        mode, phi = semicircular_phi(HALF)
        assert conjugate_check(phi, KL, NCPolynomial.zero(), 11).checked == 78  # 1 + ... + 12
        with pytest.raises(DegreeBoundError):
            conjugate_check(phi, KL, NCPolynomial.zero(), 12)

    @pytest.mark.parametrize("max_degree", [0, 1])
    @pytest.mark.parametrize("xi", ["x1", "X1 + x1"])
    def test_symbol_xi_refused_when_no_word_reads_it(self, xi, max_degree):
        # under the pair spec degree 0 is dead, so phi(xi) itself is never read
        mode, phi = semicircular_phi(HALF)
        with pytest.raises(ValueError, match="variables only"):
            conjugate_check(phi, KL, parse_poly(xi, mode), max_degree)

    @pytest.mark.parametrize("kind", [KL, KR, QuotientKind("l", 2)], ids=["l1", "r1", "l2"])
    @pytest.mark.parametrize("mode", [FREE, BIP], ids=["free", "bipartite"])
    def test_gapped_reach_matches_fraction_oracle(self, mode, kind):
        # nonzero moments only at lengths 0 and 3 (a table), or 0, 3, 6, 9
        # (cumulants of size 3): dead and live degrees alternate unevenly
        rng = random.Random(31)
        letters = var_letters(mode)
        table = {normal_form(tuple(rng.choice(letters) for _ in range(3)), mode): rand_frac(rng)
                 for _ in range(12)}
        triples = {tuple((l.side, l.index) for l in rng.choices(letters, k=3)): rand_frac(rng)
                   for _ in range(6)}
        functionals = [
            TableMomentFunctional(mode, table, 9),
            CumulantMomentFunctional(mode, CumulantSpec(2, 2, triples, degree_bound=9)),
        ]
        assert [phi._reach for phi in functionals] == [{0, 3}, {0, 3, 6, 9}]
        for phi in functionals:
            for xi in (NCPolynomial.zero(), rand_poly(rng, mode, letters, max_terms=3, max_len=2)):
                report = conjugate_check(phi, kind, xi, 5, mode)
                assert report == conjugate_check_by_fractions(phi, kind, xi, 5, mode)
                assert report.checked == len(list(enumerate_words(mode, 5)))

    def test_pair_spec_reads_nothing_at_even_degrees(self, monkeypatch):
        # pair cumulants only: phi(Z xi) has length d + 1 and each leg pair
        # length d - 1 in all, so every word of even degree d is 0 = 0
        mode, phi = semicircular_phi(HALF)
        xi = semicircular_xi(HALF)
        assert conjugate_check(phi, KL, xi, 8).passed  # warm: no miss recurses below
        asked = []
        pair = phi._phi_pair
        monkeypatch.setattr(phi, "_phi_pair", lambda word: asked.append(word) or pair(word))
        reads = []
        for max_degree in range(9):
            asked.clear()
            assert conjugate_check(phi, KL, xi, max_degree).passed
            reads.append(len(asked))
        for degree in range(9):
            before = reads[degree - 1] if degree else 0
            assert (reads[degree] > before) == (degree % 2 == 1), (degree, reads)

    def test_flipped_kind_rejected(self):
        mode, phi = semicircular_phi(HALF)
        with pytest.raises(ValueError):
            conjugate_check(phi, KL_FLIP, semicircular_xi(HALF), 3)

    def test_negative_degree_rejected(self):
        mode, phi = semicircular_phi(HALF)
        with pytest.raises(ValueError, match="max_degree"):
            conjugate_check(phi, KL, semicircular_xi(HALF), -1)


class TestAdjoint:
    def setup_method(self):
        self.mode, self.phi = semicircular_phi(HALF)
        self.xi = semicircular_xi(HALF)

    def test_unit(self):
        assert adjoint_apply(self.phi, self.xi, TensorPoly.one(), KL_FLIP) == self.xi

    def test_opposite_side_factor(self):
        eta = TensorPoly.from_words((), (rvar(1),))
        expected = mul(NCPolynomial.from_letter(rvar(1)), self.xi, self.mode)
        assert adjoint_apply(self.phi, self.xi, eta, KL_FLIP) == expected

    def test_own_side_factor(self):
        eta = TensorPoly.from_words((lvar(1),), ())
        expected = mul(NCPolynomial.from_letter(lvar(1)), self.xi, self.mode)
        expected = expected - NCPolynomial.one()
        assert adjoint_apply(self.phi, self.xi, eta, KL_FLIP) == expected

    def _tensor_inner(self, s, t):
        total = Fraction(0)
        for (s1, s2), cs in s.items():
            for (t1, t2), ct in t.items():
                total += (
                    cs
                    * ct
                    * self.phi.inner(
                        NCPolynomial.from_word(s1), NCPolynomial.from_word(t1)
                    )
                    * self.phi.inner(
                        NCPolynomial.from_word(s2), NCPolynomial.from_word(t2)
                    )
                )
        return total

    def test_adjoint_pairing(self):
        # <adjoint(eta), p>_phi = <eta, flipped_dq(p)>_(phi ⊗ phi) for all words p
        etas = [
            TensorPoly.one(),
            TensorPoly.from_words((lvar(1),), ()),
            TensorPoly.from_words((), (rvar(1),)),
            TensorPoly.from_words((lvar(1),), (rvar(1),)),
            TensorPoly.from_words((lvar(1), lvar(1)), (rvar(1),)),
        ]
        for eta in etas:
            image = adjoint_apply(self.phi, self.xi, eta, KL_FLIP)
            for word in enumerate_words(self.mode, 6):
                p = NCPolynomial.from_word(word)
                lhs = self.phi.inner(image, p)
                rhs = self._tensor_inner(eta, bifree_dq(p, KL_FLIP, self.mode))
                assert lhs == rhs, (eta, word)

    def test_peeling_order_independent(self):
        # peel own-side letters one at a time and compare with the one-shot form
        def letterwise(u, v):
            if not u:
                return mul(NCPolynomial.from_word(v), self.xi, self.mode)
            head, rest = u[0], u[1:]
            tail = letterwise(rest, v)
            main = mul(NCPolynomial.from_letter(head), tail, self.mode)
            d = bifree_dq(NCPolynomial.from_letter(head), KL_FLIP, self.mode)
            correction = NCPolynomial.zero()
            for (w1, w2), c in tensor_mul(
                d, TensorPoly.from_words(rest, v), STRAIGHT, self.mode
            ).items():
                correction = correction + NCPolynomial.from_word(
                    w2, c * self.phi.phi(w1)
                )
            return main - correction

        for u in ((), (lvar(1),), (lvar(1), lvar(1)), (lvar(1),) * 3):
            for v in ((), (rvar(1),), (rvar(1), rvar(1))):
                eta = TensorPoly.from_words(u, v)
                assert adjoint_apply(self.phi, self.xi, eta, KL_FLIP) == letterwise(u, v)

    def test_right_flipped_adjoint_pairing(self):
        c = HALF
        eta_var = NCPolynomial.from_letter(rvar(1), 1 / (1 - c * c)) - (
            NCPolynomial.from_letter(lvar(1), c / (1 - c * c))
        )
        image = adjoint_apply(self.phi, eta_var, TensorPoly.one(), KR_FLIP)
        assert image == eta_var

    def test_linear_in_eta(self):
        a = TensorPoly.from_words((lvar(1),), (rvar(1),))
        b = TensorPoly.one()
        combined = a.scale(Fraction(2, 3)) + b.scale(-3)
        expected = adjoint_apply(self.phi, self.xi, a, KL_FLIP).scale(
            Fraction(2, 3)
        ) + adjoint_apply(self.phi, self.xi, b, KL_FLIP).scale(-3)
        assert adjoint_apply(self.phi, self.xi, combined, KL_FLIP) == expected

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_tensor_oracle(self, data):
        # random xi, random pure-leg eta, both flipped kinds, both modes
        mode = data.draw(st.sampled_from([free_mode(2, 2), bipartite_mode(2, 2)]))
        side = data.draw(st.sampled_from(["l", "r"]))
        kind = QuotientKind(side, data.draw(st.integers(1, 2)), flipped=True)
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        letters = mixed_letters(mode)
        phi = rand_functional(rng, mode, 4)  # phi reads the own-side legs of u*
        xi = rand_poly(rng, mode, letters, 3, 3)
        own = [l for l in letters if l.side == side]
        other = [l for l in letters if l.side != side]
        eta = TensorPoly.from_pairs(
            ((rand_word(rng, own, 5, mode), rand_word(rng, other, 3, mode)), rand_frac(rng))
            for _ in range(rng.randint(1, 6))
        )
        assert adjoint_apply(phi, xi, eta, kind, mode) == adjoint_apply_by_tensors(
            phi, xi, eta, kind, mode
        )

    def test_rejects_mixed_leg(self):
        eta = TensorPoly.from_words((lvar(1), rvar(1)), ())
        with pytest.raises(ValueError):
            adjoint_apply(self.phi, self.xi, eta, KL_FLIP)

    def test_rejects_non_flipped(self):
        with pytest.raises(ValueError):
            adjoint_apply(self.phi, self.xi, TensorPoly.one(), KL)

    def test_checks_xi_and_target_before_eta(self):
        # xi and the target are checked once up front, so an empty eta does
        # not let an undeclared letter through
        with pytest.raises(ArityError):
            adjoint_apply(self.phi, NCPolynomial.from_letter(lvar(2)), TensorPoly.zero(), KL_FLIP)
        with pytest.raises(ArityError):
            adjoint_apply(self.phi, self.xi, TensorPoly.zero(), QuotientKind("r", 2, flipped=True))
