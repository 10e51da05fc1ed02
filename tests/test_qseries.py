import random
from fractions import Fraction as F

import pytest
import reference_series as reference

from moontrace import modular
from moontrace.qseries import MarkerPoly, MarkerSeries, RationalSeries, TruncationError

DENOMS = (1, 2, 8, 24, 48)


def rand_series(rng, order=6, lo=-3):
    d = rng.choice(DENOMS)
    terms = {}
    for _ in range(rng.randrange(1, 7)):
        e = F(rng.randrange(lo * d, order * d), d)
        terms[e] = terms.get(e, 0) + F(rng.randrange(-9, 10), rng.randrange(1, 5))
    return RationalSeries.from_terms(terms, order)


def test_from_terms_basic():
    s = RationalSeries.from_terms({0: 1, 2: -24, F(1, 2): 3}, 5)
    assert s.coeff(0) == 1
    assert s.coeff(2) == -24
    assert s.coeff(F(1, 2)) == 3
    assert s.coeff(1) == 0
    assert s.valuation() == 0
    assert s.support() == [0, F(1, 2), 2]


def test_zero_and_one():
    z = RationalSeries.zero(4)
    assert z.is_zero()
    assert z.valuation() == 4  # no known term: valuation degenerates to the order
    o = RationalSeries.one(4)
    assert o.coeff(0) == 1 and not o.is_zero()


def test_coeff_beyond_order_raises():
    s = RationalSeries.from_terms({1: 1}, 3)
    assert s.coeff(F(5, 2)) == 0
    with pytest.raises(TruncationError):
        s.coeff(3)
    with pytest.raises(TruncationError):
        s.coeff(7)


def test_denominator_normalizes():
    # exponents on (1/48)Z that all live on (1/2)Z must collapse
    s = RationalSeries.from_terms({F(24, 48): 1, F(72, 48): 5}, 4)
    assert s.denom == 2
    assert s.coeff(F(1, 2)) == 1 and s.coeff(F(3, 2)) == 5


def test_add_cancellation_drops_terms():
    a = RationalSeries.from_terms({1: 3, 2: 5}, 6)
    b = RationalSeries.from_terms({1: -3, 2: 1}, 6)
    c = a + b
    assert c.support() == [2]
    assert c.coeff(2) == 6


def test_mul_order_is_valuation_aware():
    # unknown tail of a enters the product at order_a + val(b), and symmetrically
    a = RationalSeries.from_terms({0: 1}, 5)
    b = RationalSeries.from_terms({2: 1}, 7)
    assert (a * b).order == min(5 + 2, 7 + 0)
    assert (b * b).order == 7 + 2


def test_scalar_ops():
    a = RationalSeries.from_terms({1: 6}, 4)
    assert (a * F(1, 3)).coeff(1) == 2
    assert (a / 3).coeff(1) == 2
    assert (2 * a).coeff(1) == 12
    assert (a + 1).coeff(0) == 1
    assert (1 - a).coeff(1) == -6


def test_pow_zero_keeps_order():
    a = RationalSeries.from_terms({1: 1}, 5)
    p = a.pow_int(0)
    assert p == RationalSeries.one(5)
    assert p.order == 5


def test_invert_loses_two_valuations():
    # val v, order o -> inverse certified through o - 2v
    a = RationalSeries.from_terms({2: 1, 3: 1}, 10)
    inv = a.invert()
    assert inv.order == 10 - 4
    assert (a * inv) == RationalSeries.one(6)
    with pytest.raises(TruncationError):
        RationalSeries.zero(4).invert()


def test_invert_negative_exponents():
    a = RationalSeries.from_terms({-1: 1, 0: 24}, 3)
    inv = a.invert()
    assert inv.valuation() == 1
    assert inv.coeff(1) == 1
    assert inv.coeff(2) == -24


def test_truncate_only_weakens():
    a = RationalSeries.from_terms({1: 1, 4: 9}, 6)
    t = a.truncate(3)
    assert t.order == 3
    assert t.support() == [1]
    assert a.truncate(100).order == 6  # cannot invent knowledge


def test_eq_compares_below_min_order():
    a = RationalSeries.from_terms({1: 1, 5: 7}, 8)
    b = RationalSeries.from_terms({1: 1}, 3)
    assert a == b
    assert b == a
    c = RationalSeries.from_terms({2: 1}, 3)
    assert a != c


def test_exp_series():
    a = RationalSeries.from_terms({1: 1}, 6)
    e = a.exp_series()
    for k in range(6):
        assert e.coeff(k) == F(1, [1, 1, 2, 6, 24, 120][k])
    with pytest.raises(ValueError):
        RationalSeries.from_terms({0: 1}, 4).exp_series()


def test_exp_is_a_homomorphism():
    rng = random.Random(7)
    for _ in range(20):
        a = rand_series(rng, order=5, lo=1)
        b = rand_series(rng, order=5, lo=1)
        if a.is_zero() or b.is_zero():
            continue
        assert (a + b).exp_series() == a.exp_series() * b.exp_series()


def test_q_derive_product_rule():
    rng = random.Random(11)
    for _ in range(20):
        a = rand_series(rng)
        b = rand_series(rng)
        left = (a * b).q_derive()
        right = a.q_derive() * b + a * b.q_derive()
        assert left == right


def test_rescale_is_a_ring_map():
    rng = random.Random(13)
    for _ in range(20):
        a = rand_series(rng)
        b = rand_series(rng)
        r = rng.choice([2, 3, F(1, 2), F(3, 2)])
        assert (a * b).rescale(r) == a.rescale(r) * b.rescale(r)
        assert (a + b).rescale(r) == a.rescale(r) + b.rescale(r)
    a = rand_series(rng)
    assert a.rescale(2).rescale(F(1, 2)) == a
    with pytest.raises(ValueError):
        a.rescale(0)


def test_ring_axioms_randomized():
    rng = random.Random(2026)
    for _ in range(40):
        a = rand_series(rng)
        b = rand_series(rng)
        c = rand_series(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == RationalSeries.zero(a.order)


def test_division_roundtrip():
    rng = random.Random(3)
    for _ in range(10):
        a = rand_series(rng)
        b = rand_series(rng, lo=0)
        if b.is_zero() or b.valuation() >= b.order:
            continue
        assert (a * b) / b == a


def test_json_roundtrip():
    rng = random.Random(5)
    for _ in range(15):
        a = rand_series(rng)
        obj = a.to_json_obj()
        back = RationalSeries.from_json_obj(obj)
        assert back.denom == a.denom
        assert back.order == a.order
        assert back.terms == a.terms
        assert back.to_json_obj() == obj
    with pytest.raises(ValueError):
        RationalSeries.from_json_obj({"denominator": 0, "order_num": 1, "terms": []})


def test_json_obj_shape():
    s = RationalSeries.from_terms({F(1, 8): 2, 1: -1}, F(5, 2))
    obj = s.to_json_obj()
    assert obj["denominator"] == 8
    assert obj["order_num"] == 20
    assert obj["terms"] == [{"exp_num": 1, "coeff": "2"}, {"exp_num": 8, "coeff": "-1"}]


# --- marker polynomials -----------------------------------------------------

def test_marker_poly_basics():
    p = MarkerPoly((1, 2, 3))
    assert p.degree == 2
    assert p.eval(2) == 1 + 4 + 12
    assert p.eval(-1) == 1 - 2 + 3
    assert MarkerPoly(()).degree == -1
    assert not MarkerPoly((0, 0))
    assert MarkerPoly.const(5) == 5
    assert MarkerPoly.x_power(3, 2).coeffs == (0, 0, 0, 2)


def test_marker_poly_arithmetic():
    rng = random.Random(17)
    for _ in range(30):
        a = MarkerPoly([rng.randrange(-5, 6) for _ in range(rng.randrange(4))])
        b = MarkerPoly([rng.randrange(-5, 6) for _ in range(rng.randrange(4))])
        x0 = F(rng.randrange(-3, 4))
        assert (a + b).eval(x0) == a.eval(x0) + b.eval(x0)
        assert (a * b).eval(x0) == a.eval(x0) * b.eval(x0)
        assert (a - b).eval(x0) == a.eval(x0) - b.eval(x0)
        assert (-a).eval(x0) == -a.eval(x0)


def test_marker_series_eval():
    f = MarkerSeries.from_terms({1: MarkerPoly((0, 1)), 2: MarkerPoly((3, 0, -1))}, 4)
    plus = f.eval_marker(1)
    minus = f.eval_marker(-1)
    assert plus.coeff(1) == 1 and plus.coeff(2) == 2
    assert minus.coeff(1) == -1 and minus.coeff(2) == 2
    with pytest.raises(ValueError):
        f.eval_marker(2)


def test_marker_series_invert_needs_constant_lead():
    ok = MarkerSeries.from_terms({0: 2, 1: MarkerPoly((0, 1))}, 4)
    inv = ok.invert()
    assert (ok * inv) == MarkerSeries.one(4)
    bad = MarkerSeries.from_terms({0: MarkerPoly((0, 1))}, 4)
    with pytest.raises(ValueError):
        bad.invert()


def test_marker_series_mul_matches_eval():
    rng = random.Random(23)
    for _ in range(15):
        ra = rand_series(rng)
        rb = rand_series(rng)
        # tag every term of ra with one marker power, then evaluate back
        a = MarkerSeries.from_terms(
            {e: MarkerPoly.x_power(1, ra.coeff(e)) for e in ra.support()}, ra.order
        )
        b = MarkerSeries.from_terms({e: rb.coeff(e) for e in rb.support()}, rb.order)
        for x0 in (1, -1):
            assert (a * b).eval_marker(x0) == (ra * rb) * F(x0)


# --- differential checks against the reference kernel -----------------------

MIXED_DENOMS = (1, 2, 3, 8, 24)


def rand_coeff(rng):
    """A small rational, or now and then one with a few hundred bits."""
    if rng.random() < 0.2:
        return F(rng.randrange(-2**300, 2**300), rng.choice((1, 3, 2**64 + 13)))
    return F(rng.randrange(-9, 10), rng.choice((1, 2, 3, 7, 720)))


def rand_kernel_series(rng, cls, lo=-3, hi=6, max_terms=8, const_lead=False):
    """Random series on a mixed denominator; negative valuations; sometimes zero."""
    d = rng.choice(MIXED_DENOMS)
    terms = {}
    for _ in range(rng.randrange(0, max_terms)):
        e = F(rng.randrange(lo * d, hi * d), d)
        if cls is MarkerSeries:
            terms[e] = MarkerPoly([rand_coeff(rng) for _ in range(rng.randrange(1, 4))])
        else:
            terms[e] = rand_coeff(rng)
    order = F(rng.randrange(lo * d, hi * d + d), d)
    s = cls.from_terms(terms, order)
    if const_lead and cls is MarkerSeries and not s.is_zero():
        lead = s.valuation()
        s = s - cls.monomial(s.coeff(lead), lead, order) + cls.monomial(rand_coeff(rng) or 1, lead, order)
    return s


def same(a, b):
    return (a.denom, a.terms, a.order) == (b.denom, b.terms, b.order)


@pytest.mark.parametrize("cls", [RationalSeries, MarkerSeries])
def test_mul_matches_reference_kernel(cls):
    rng = random.Random(4046)
    for _ in range(300):
        a = rand_kernel_series(rng, cls)
        b = rand_kernel_series(rng, cls)
        assert same(a * b, reference.mul(a, b)), (a, b)
    # zero operands: the product is empty but its order is still sound
    a = rand_kernel_series(rng, cls, max_terms=1) + cls.monomial(5, F(-1, 3), 4)
    for zero in (cls.zero(F(7, 2)), cls.zero(-2)):
        assert same(a * zero, reference.mul(a, zero)) and (a * zero).is_zero()
        assert same(zero * zero, reference.mul(zero, zero))


@pytest.mark.parametrize("cls", [RationalSeries, MarkerSeries])
def test_invert_matches_reference_kernel(cls):
    rng = random.Random(1978)
    checked = 0
    while checked < 40:
        s = rand_kernel_series(rng, cls, lo=-1, hi=2, const_lead=True)
        if s.is_zero():
            with pytest.raises(TruncationError):
                s.invert()
            continue
        assert same(s.invert(), reference.invert(s)), s
        checked += 1


@pytest.mark.parametrize("order", [F(1, 3), F(7, 2), 41, 90])
def test_eta_theta_sums_match_products(order):
    assert same(modular.eta(order), reference.eta_product(order))
    for which in (1, 2, 3):
        assert same(modular.theta(which, order), reference.theta_product(which, order)), which
