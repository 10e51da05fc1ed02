from fractions import Fraction as F

import pytest
import reference_series as reference

from moontrace import modular
from moontrace.qseries import RationalSeries, TruncationError


def test_bernoulli_against_recurrence():
    for k in range(0, 21, 2):
        assert modular.bernoulli(k) == reference.bernoulli(k), k
    assert reference.bernoulli(12) == F(-691, 2730)


def test_eisenstein_normalization():
    # constant term -B_k/k!, q-coefficient 2/(k-1)!
    e2 = modular.eisenstein(2, 6)
    assert e2.coeff(0) == F(-1, 12)
    assert [e2.coeff(n) for n in range(1, 6)] == [2, 6, 8, 14, 12]
    e4 = modular.eisenstein(4, 5)
    assert e4.coeff(0) == F(1, 720)
    assert [e4.coeff(n) for n in range(1, 5)] == [F(1, 3), 3, F(28, 3), F(73, 3)]
    e6 = modular.eisenstein(6, 3)
    assert e6.coeff(0) == F(-1, 30240)
    assert e6.coeff(1) == F(2, 120)
    with pytest.raises(ValueError):
        modular.eisenstein(3, 5)


TABLE_ORDERS = (F(1, 3), 1, 15, 16, 17, F(31, 2), 63, 64, 65, 129, 200)


def _same(a, b):
    return (a.denom, a.terms, a.order) == (b.denom, b.terms, b.order)


@pytest.mark.parametrize("k", range(2, 17, 2))
def test_eisenstein_table_matches_trial_division(k):
    # cold tables, then tables built after a call at a larger order
    expect = {n: reference.eisenstein(k, n) for n in TABLE_ORDERS}
    modular._eisenstein_table.cache_clear()
    for n in TABLE_ORDERS:
        assert _same(modular.eisenstein(k, n), expect[n]), n
    modular._eisenstein_table.cache_clear()
    modular.eisenstein(k, 400)
    for n in TABLE_ORDERS:
        assert _same(modular.eisenstein(k, n), expect[n]), n
    # every call gets its own series, never the cached table
    assert modular.eisenstein(k, 20).terms is not modular.eisenstein(k, 20).terms


def test_delta_and_j_tables_match_reference_routes():
    # each reference is built once at the largest order and cut to the others
    # (the slow reference inverse keeps j to orders <= 65)
    d = reference.pow_int(reference.eta_product(200), 24)
    for n in TABLE_ORDERS:
        assert _same(modular.delta(n), d.truncate(n)), n
    head = 67
    d_inv = reference.invert(reference.pow_int(reference.eta_product(head), 24))
    raw = reference.mul(reference.pow_int(reference.eisenstein(4, head), 3), d_inv)
    raw = raw * (1 / raw.coeff(-1))
    j = raw - raw.coeff(0)
    for n in TABLE_ORDERS[:9]:
        assert _same(modular.jfunction(n), j.truncate(n)), n


def test_table_edges():
    for order in (0, F(-1, 2), -3):
        empty = modular.eisenstein(4, order)
        assert empty.is_zero() and empty.order == order and empty.denom == 1
        with pytest.raises(TruncationError):
            modular.delta(order)
        with pytest.raises(TruncationError):
            modular.jfunction(order)
    assert _same(modular.eisenstein(4, 60), modular.eisenstein(4, F(60)))
    # tables are keyed by power-of-two order, so 200 orders build five
    modular._eisenstein_table.cache_clear()
    for n in range(1, 201):
        modular.eisenstein(4, n)
    info = modular._eisenstein_table.cache_info()
    assert info.currsize <= 5 and info.hits >= 195


def test_eta_pentagonal():
    e = modular.eta(13)
    # q^{1/24} (1 - q - q^2 + q^5 + q^7 - q^12 - ...)
    expect = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1}
    for n, c in expect.items():
        assert e.coeff(n + F(1, 24)) == c, n
    for n in (3, 4, 6, 8, 9, 10, 11):
        assert e.coeff(n + F(1, 24)) == 0, n


def test_delta_is_eta_24():
    d = modular.delta(9)
    assert [d.coeff(n) for n in range(1, 9)] == [1, -24, 252, -1472, 4830, -6048, -16744, 84480]
    assert d == modular.eta(9).pow_int(24)


def test_delta_inverse():
    inv = modular.delta(5).invert()
    assert inv.valuation() == -1
    assert [inv.coeff(n) for n in range(-1, 3)] == [1, 24, 324, 3200]


def test_jfunction_constant_removed():
    j = modular.jfunction(4)
    assert j.coeff(-1) == 1
    assert j.coeff(0) == 0
    assert j.coeff(1) == 196884
    assert j.coeff(2) == 21493760
    assert j.coeff(3) == 864299970


def test_theta_products_match_sums():
    # the library sums theta over Z; the reference multiplies out the products
    for which in (1, 2, 3):
        assert modular.theta(which, 20) == reference.theta_product(which, 20), which
    with pytest.raises(ValueError):
        modular.theta(4, 5)


def test_theta_quartic():
    t1, t2, t3 = (modular.theta(i, 20) for i in (1, 2, 3))
    assert (t1.pow_int(4) + t2.pow_int(4) - t3.pow_int(4)).is_zero()


def test_theta_eta_quotients():
    order = F(16)
    head = order + 4
    e = modular.eta(head)
    e2t = modular.eta(2 * head).rescale(2)       # eta(2 tau)
    eh = modular.eta(2 * head).rescale(F(1, 2))  # eta(tau/2)
    assert modular.theta(1, order) == (e2t.pow_int(2) * e.invert() * 2).truncate(order)
    assert modular.theta(2, order) == (eh.pow_int(2) * e.invert()).truncate(order)
    assert modular.theta(3, order) == (
        e.pow_int(5) * (eh.pow_int(2) * e2t.pow_int(2)).invert()
    ).truncate(order)


def test_serre_derivative():
    d = modular.delta(16)
    assert modular.serre_derive(d, 12).is_zero()
    # weight 4 -> weight 6, still holomorphic
    e4 = modular.eisenstein(4, 12)
    img = modular.serre_derive(e4, 4)
    m6 = modular.space_basis("M", 6, 12)
    coeffs = modular.fit(img, m6)
    assert coeffs is not None and any(coeffs)
    # weight 0: plain q d/dq
    one = RationalSeries.one(8)
    assert modular.serre_derive(one, 0).is_zero()


def test_space_dims():
    dims = {0: 1, 2: 0, 4: 1, 6: 1, 8: 1, 10: 1, 12: 2, 14: 1, 16: 2}
    for w, d in dims.items():
        assert modular.space_basis("M", w, 8).dim == d, w
    assert modular.space_basis("S", 8, 8).dim == 0
    assert modular.space_basis("S", 12, 8).dim == 1
    assert modular.space_basis("S", 16, 8).dim == 1
    assert modular.space_basis("F", 0, 8).dim == 1
    with pytest.raises(ValueError):
        modular.space_basis("X", 4, 8)
    with pytest.raises(ValueError):
        modular.space_basis("M", 5, 8)
    with pytest.raises(ValueError):
        modular.space_basis("M", -4, 8)


def _dim_M(k):
    if k < 0 or k % 2:
        return 0
    return k // 12 + (0 if k % 12 == 2 else 1)


def _dim_F(k):
    # weight 2 is the exception: the residue theorem kills the constant term
    # of E4^2 E6 / Delta, so that candidate already lies in F_2
    return 1 if k == 2 else max(0, _dim_M(k + 12) - 1)


def test_space_dims_match_formulas():
    for k in range(0, 62, 2):
        assert modular.space_basis("M", k, 24).dim == _dim_M(k), k
        assert modular.space_basis("S", k, 24).dim == _dim_M(k - 12), k
    for k in range(-12, 62, 2):
        assert modular.space_basis("F", k, 24).dim == _dim_F(k), k


@pytest.mark.parametrize("weight, order", [(12, 1), (24, 2), (36, 3), (48, 4)])
def test_short_f_basis_refused(weight, order):
    with pytest.raises(ValueError, match=f"F_{weight}"):
        modular.space_basis("F", weight, order)
    assert modular.space_basis("F", weight, order + 1).dim == _dim_F(weight)


def test_space_labels_and_json():
    s12 = modular.space_basis("S", 12, 8)
    assert s12.labels == ("Delta*1",)
    assert s12.basis[0] == modular.delta(8)
    obj = s12.to_json_obj()
    assert obj["kind"] == "S" and obj["weight"] == 12
    assert len(obj["basis"]) == 1 and obj["labels"] == ["Delta*1"]


def test_f0_generator():
    f0 = modular.space_basis("F", 0, 8)
    gen = f0.basis[0]
    assert gen.coeff(-1) == 1
    assert gen.coeff(0) == 0  # constant-free by construction
    assert gen.coeff(1) == 196884


def test_fit_membership():
    d = modular.delta(10)
    assert modular.fit(d, modular.space_basis("S", 12, 10)) == [1]
    # j has a pole, M_4 does not contain it
    assert modular.fit(modular.jfunction(6), modular.space_basis("M", 4, 6)) is None
    # zero against an empty space fits with no coefficients
    z = RationalSeries.zero(6)
    assert modular.fit(z, modular.space_basis("S", 8, 6)) == []
    assert modular.fit(d, modular.space_basis("S", 8, 6)) is None


def test_fit_needs_enough_terms():
    d = modular.delta(14)
    with pytest.raises(TruncationError):
        modular.fit(d.truncate(1), modular.space_basis("S", 12, 14))


def test_fit_two_dim_space():
    # M_12 is 2-dimensional; Delta must decompose with zero residual
    m12 = modular.space_basis("M", 12, 10)
    coeffs = modular.fit(modular.delta(10), m12)
    assert coeffs is not None
    recon = RationalSeries.zero(10)
    for c, b in zip(coeffs, m12.basis):
        recon = recon + b * c
    assert recon == modular.delta(10)
