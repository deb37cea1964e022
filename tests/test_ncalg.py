import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")
from hypothesis import strategies as st

from bifree.ncalg import (
    OPPOSITE,
    STRAIGHT,
    ArityError,
    NCPolynomial,
    TensorPoly,
    bipartite_mode,
    format_poly,
    format_tensor,
    free_mode,
    lsym,
    lvar,
    mul,
    normal_form,
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
from helpers import mixed_letters, rand_poly

FREE = free_mode(2, 2)
BIP = bipartite_mode(2, 2)

LETTERS = mixed_letters(FREE)


@st.composite
def words(draw, max_len=5):
    return tuple(draw(st.lists(st.sampled_from(LETTERS), max_size=max_len)))


@st.composite
def polys(draw, mode):
    terms = draw(
        st.dictionaries(
            words(),
            st.fractions(max_denominator=6),
            max_size=4,
        )
    )
    return NCPolynomial({normal_form(w, mode): c for w, c in terms.items()})


class _FractionSubclass(Fraction):
    pass


class TestFromPairs:
    @pytest.mark.parametrize("cls", [NCPolynomial, TensorPoly])
    def test_coefficients_are_exactly_fractions(self, cls):
        # an exact Fraction is kept, an int, a bool or a subclass converted
        x, y = (lvar(1),), (rvar(1),)
        keys = [x, y, x + y, ()] if cls is NCPolynomial else [(x, y), (y, x), (x, x), ((), y)]
        coeffs = [Fraction(2, 3), 3, True, _FractionSubclass(1, 2)]
        combo = cls.from_pairs(list(zip(keys, coeffs)) + [(keys[0], Fraction(1, 3))])
        assert dict(combo.items()) == dict(zip(keys, [1, 3, 1, Fraction(1, 2)]))
        assert all(type(c) is Fraction for _, c in combo.items())

    def test_exact_fraction_not_rebuilt(self):
        c = Fraction(2, 3)
        ((_, kept),) = NCPolynomial.from_pairs([((lvar(1),), c)]).items()
        assert kept is c


class TestMul:
    def test_single_concatenation_bipartite(self):
        p = parse_poly("X1", BIP)
        q = parse_poly("Y1", BIP)
        assert mul(p, q, BIP) == parse_poly("X1 Y1", BIP)

    def test_distributivity_free(self):
        x, y = parse_poly("X1", FREE), parse_poly("Y1", FREE)
        result = mul(x + y, x - y, FREE)
        assert result == parse_poly("X1 X1 - X1 Y1 + Y1 X1 - Y1 Y1", FREE)

    def test_normal_form_merges_cross_terms(self):
        x, y = parse_poly("X1", BIP), parse_poly("Y1", BIP)
        result = mul(x + y, x - y, BIP)
        assert result == parse_poly("X1 X1 - Y1 Y1", BIP)

    def test_arity_mismatch(self):
        small = bipartite_mode(1, 1)
        p = NCPolynomial.from_letter(lvar(2))
        with pytest.raises(ArityError):
            mul(p, p, small)

    def test_associative_and_unital_500_random_triples(self):
        rng = random.Random(101)
        one = NCPolynomial.one()
        for mode in (FREE, BIP):
            for _ in range(500):
                p = rand_poly(rng, mode, LETTERS, max_terms=2, max_len=3)
                q = rand_poly(rng, mode, LETTERS, max_terms=2, max_len=3)
                r = rand_poly(rng, mode, LETTERS, max_terms=2, max_len=3)
                assert mul(mul(p, q, mode), r, mode) == mul(p, mul(q, r, mode), mode)
                assert mul(p, one, mode) == p == mul(one, p, mode)

    def test_pure_left_commutes_with_pure_right_bipartite(self):
        rng = random.Random(7)
        left = [lvar(1), lvar(2), lsym(1)]
        right = [rvar(1), rvar(2), rsym(1)]
        for _ in range(100):
            p = rand_poly(rng, BIP, left, max_len=4)
            q = rand_poly(rng, BIP, right, max_len=4)
            assert mul(p, q, BIP) == mul(q, p, BIP)


class TestStar:
    def test_word_reversal(self):
        p = parse_poly("X1 X2 Y1", FREE)
        assert star(p) == parse_poly("Y1 X2 X1", FREE)

    def test_self_adjoint_letter_with_coefficient(self):
        p = parse_poly("2/3*X1", FREE)
        assert star(p) == p

    def test_commutator_flips(self):
        p = parse_poly("X1 Y1 - Y1 X1", FREE)
        assert star(p) == parse_poly("Y1 X1 - X1 Y1", FREE)

    def test_antihomomorphism_500_random_pairs(self):
        rng = random.Random(55)
        for _ in range(500):
            p = rand_poly(rng, FREE, LETTERS, max_terms=3, max_len=3)
            q = rand_poly(rng, FREE, LETTERS, max_terms=3, max_len=3)
            assert star(mul(p, q, FREE)) == mul(star(q), star(p), FREE)


class TestNormalForm:
    def test_stable_partition_by_side(self):
        w = parse_word("Y1 X1 Y2 X2", FREE)
        assert normal_form(w, BIP) == parse_word("X1 X2 Y1 Y2", FREE)

    def test_identity_on_one_sided(self):
        w = parse_word("X1 X2", FREE)
        assert normal_form(w, BIP) == w

    def test_repeated_swaps(self):
        w = parse_word("Y1 X1 Y1 X1", FREE)
        assert normal_form(w, BIP) == parse_word("X1 X1 Y1 Y1", FREE)

    @given(words())
    def test_idempotent_and_side_ordered(self, w):
        nf = normal_form(w, BIP)
        assert normal_form(nf, BIP) == nf
        sides = [l.side for l in nf]
        assert sides == sorted(sides)  # 'l' < 'r'
        assert [l for l in w if l.side == "l"] == [l for l in nf if l.side == "l"]
        assert [l for l in w if l.side == "r"] == [l for l in nf if l.side == "r"]


class TestTensor:
    def test_straight_product(self):
        x1 = tensor_of(parse_poly("X1", FREE), NCPolynomial.one())
        y1 = tensor_of(NCPolynomial.one(), parse_poly("Y1", FREE))
        assert tensor_mul(x1, y1, STRAIGHT, FREE) == parse_tensor("X1 ⊗ Y1", FREE)

    def test_second_leg_conventions(self):
        a = tensor_of(NCPolynomial.one(), parse_poly("x1", FREE))
        b = tensor_of(NCPolynomial.one(), parse_poly("x2", FREE))
        assert tensor_mul(a, b, STRAIGHT, FREE) == parse_tensor("1 ⊗ x1 x2", FREE)
        assert tensor_mul(a, b, OPPOSITE, FREE) == parse_tensor("1 ⊗ x2 x1", FREE)

    def test_square(self):
        t = parse_tensor("X1 ⊗ Y1", FREE)
        assert tensor_mul(t, t, STRAIGHT, FREE) == parse_tensor("X1 X1 ⊗ Y1 Y1", FREE)

    def test_star_swaps_and_stars(self):
        t = parse_tensor("x1 X1 ⊗ y1 y2", FREE)
        assert tensor_star(t) == parse_tensor("y2 y1 ⊗ X1 x1", FREE)

    def test_star_fixes_unit(self):
        assert tensor_star(TensorPoly.one()) == TensorPoly.one()

    def test_star_componentwise_free(self):
        t = parse_tensor("X1 ⊗ X1 Y1", FREE)
        assert tensor_star(t) == parse_tensor("Y1 X1 ⊗ X1", FREE)

    def test_star_involution_and_antihomomorphism(self):
        rng = random.Random(9)
        for _ in range(200):
            s = tensor_of(
                rand_poly(rng, FREE, LETTERS, 2, 3), rand_poly(rng, FREE, LETTERS, 2, 3)
            )
            t = tensor_of(
                rand_poly(rng, FREE, LETTERS, 2, 3), rand_poly(rng, FREE, LETTERS, 2, 3)
            )
            assert tensor_star(tensor_star(s)) == s
            assert tensor_star(tensor_mul(s, t, STRAIGHT, FREE)) == tensor_mul(
                tensor_star(t), tensor_star(s), STRAIGHT, FREE
            )


class TestLiterals:
    @pytest.mark.parametrize(
        "text",
        [
            "X1 Y2 X1",
            "3/4*X1 Y2 X1 + X2 - 1/2*Y1",
            "1",
            "- 2",
            "- X1 + 5*y3",
            "x1 y1 x2",
            "0",
        ],
    )
    def test_round_trip_specific(self, text):
        p = parse_poly(text, FREE)
        assert parse_poly(format_poly(p), FREE) == p

    @given(polys(FREE))
    @settings(max_examples=200)
    def test_round_trip_free(self, p):
        assert parse_poly(format_poly(p), FREE) == p

    @given(polys(BIP))
    @settings(max_examples=200)
    def test_round_trip_bipartite(self, p):
        assert parse_poly(format_poly(p), BIP) == p

    def test_tensor_round_trip(self):
        rng = random.Random(21)
        for _ in range(100):
            t = tensor_of(
                rand_poly(rng, FREE, LETTERS, 3, 3), rand_poly(rng, FREE, LETTERS, 3, 3)
            )
            assert parse_tensor(format_tensor(t), FREE) == t
        zero = TensorPoly({})
        assert format_tensor(zero) == "0"
        assert parse_tensor(format_tensor(zero), FREE) == zero

    def test_canonical_order_degree_then_lex(self):
        p = parse_poly("Y1 + X1 X1 + X1 + 1", FREE)
        assert format_poly(p) == "1 + X1 + Y1 + X1 X1"

    def test_arity_validation(self):
        with pytest.raises(ArityError):
            parse_poly("X3", BIP)
