"""The e_4, e_6 polynomial ring and the vacuum traces built on it.

Every ring operation is checked against the q-series it stands for, and the
ring route of `vacuum_zpoint` against the recursion on q-series
(`reference_series.vacuum_zpoints`), strictly: lattice, terms and order.
"""
from fractions import Fraction as F

import pytest

from reference_series import vacuum_zpoints

from moontrace import modular, ring, virasoro
from moontrace.qseries import RationalSeries, TruncationError


def evaluate(p, order):
    """sum c_ab e_4^a e_6^b as a q-series, from powers of the library's series."""
    e4, e6 = modular.eisenstein(4, order), modular.eisenstein(6, order)
    acc = RationalSeries.zero(order)
    for (a, b), c in p.items():
        acc = acc + e4.pow_int(a) * e6.pow_int(b) * c
    return acc


def test_weierstrass_eisenstein_matches_series():
    for k in range(8, 68, 2):
        p = ring.eisenstein(k)
        assert all(4 * a + 6 * b == k for a, b in p), k
        assert evaluate(p, 30) == modular.eisenstein(k, 30), k
    with pytest.raises(ValueError):
        ring.eisenstein(2)


def test_serre_matches_series_derivative():
    assert ring.serre({(1, 0): 1}) == {(0, 1): 14}
    assert ring.serre({(0, 1): 1}) == {(2, 0): F(60, 7)}
    # a derivation: products and sums follow from the two generators
    for p in ({(1, 0): 1}, {(0, 1): 1}, {(2, 1): F(3, 5)}, {(3, 0): 2, (0, 2): F(-1, 7)}):
        a, b = next(iter(p))
        want = modular.serre_derive(evaluate(p, 30), 4 * a + 6 * b)
        assert evaluate(ring.serre(p), 30) == want, p


def test_ring_arithmetic():
    p, q = {(1, 0): F(1, 2), (0, 1): 3}, {(1, 0): F(-1, 2), (2, 0): 1}
    assert ring.add(p, q) == {(0, 1): 3, (2, 0): 1}
    assert ring.scale(p, 0) == {}
    assert ring.mul(p, q) == {(2, 0): F(-1, 4), (3, 0): F(1, 2), (1, 1): F(-3, 2), (2, 1): 3}
    assert evaluate(ring.mul(p, q), 20) == evaluate(p, 20) * evaluate(q, 20)


def test_delta_and_j():
    assert evaluate(ring.delta(), 30) == modular.delta(30)
    assert ring.expand(virasoro._vacuum_numerator(0), 30) == modular.jfunction(30)
    e8_delta = ring.mul(ring.eisenstein(8), ring.delta())
    assert ring.expand(e8_delta, 30) == modular.eisenstein(8, 30)


# (largest k, orders): the prototype grid, power-of-two table boundaries included
GRID = (
    (16, (20, 60, 200)),
    (32, (20, 60)),
    (10, (F(1, 2), 1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129)),
)


def mismatches(grid):
    """(k, order) of every ring-route trace that differs from the series oracle."""
    out = []
    for kmax, orders in grid:
        for order in orders:
            oracle = vacuum_zpoints(kmax, order)
            out += [(k, order) for k in range(kmax + 1)
                    if virasoro.vacuum_zpoint(k, order) != oracle[k]]
    return out


def test_vacuum_matches_series_oracle():
    assert mismatches(GRID) == []
    assert mismatches([(3, (F(-1, 2), 0))]) == []


@pytest.mark.parametrize("order", [-1, F(-3, 2)])
def test_vacuum_refusals_match_oracle(order):
    with pytest.raises(TruncationError) as ours:
        virasoro.vacuum_zpoint(2, order)
    with pytest.raises(TruncationError) as oracle:
        vacuum_zpoints(2, order)
    assert str(ours.value) == str(oracle.value) == "jfunction needs a positive truncation order"
    with pytest.raises(ValueError, match="nonnegative"):
        virasoro.vacuum_zpoint(-1, 20)


@pytest.fixture
def fresh_numerators():
    virasoro._vacuum_numerator.cache_clear()
    yield
    virasoro._vacuum_numerator.cache_clear()


def test_wrong_ramanujan_constant_is_caught(monkeypatch, fresh_numerators):
    monkeypatch.setattr(ring, "SERRE_E6", F(61, 7))
    assert mismatches([(4, (20,))])
