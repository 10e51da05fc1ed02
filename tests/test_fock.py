import random
import warnings
from collections import Counter
from fractions import Fraction as F
from math import comb, factorial

import pytest

import reference_fock
from moontrace import fock, modular, ring
from moontrace.qseries import MarkerPoly, MarkerSeries, RationalSeries

# the fixed norms of the verify examples, plus a seeded draw of other even norms
ORACLE_NORMS = (2, 16, 24, 32, 512) + tuple(
    random.Random("fock-oracle").sample(range(4, 1026, 2), 3)
)


def test_closed_trace_low_orders():
    # q-coefficient is -(L-1) x for every L; grade-2 split frozen per L
    for L, q1, q2 in [(2, -1, None), (16, -15, (-7, 97)), (24, -23, (-11, 241))]:
        f = fock.closed_trace_A(L, 3)
        assert f.coeff(0) == MarkerPoly.const(1)
        assert f.coeff(1) == MarkerPoly.x_power(1, q1), L
        if q2:
            assert f.coeff(2) == MarkerPoly.x_power(1, q2[0]) + MarkerPoly.x_power(2, q2[1])


def test_closed_trace_deeper_frozen():
    f = fock.closed_trace_A(16, 5)
    assert f.coeff(3) == MarkerPoly((0, F(-13, 3), 105, F(-1037, 3)))
    assert f.coeff(4) == MarkerPoly((0, -3, 82, -679, 705))


def product_formula_trace(L, max_grade):
    # independent route: the diagonal entry of a partition state factorizes
    # over its distinct modes as sum_p C(k,p) (-L/i)^p / p!
    terms = {}
    for g in range(max_grade + 1):
        by_count = {}
        for part in fock._partitions(g, list(range(g, 0, -1))):
            diag = F(1)
            for i, k in Counter(part).items():
                diag *= sum(comb(k, p) * F(-L, i) ** p / factorial(p) for p in range(k + 1))
            by_count[len(part)] = by_count.get(len(part), F(0)) + diag
        top = max(by_count)
        terms[g] = MarkerPoly([by_count.get(d, 0) for d in range(top + 1)])
    return MarkerSeries.from_terms(terms, max_grade + 1)


def test_product_formula_route():
    for L in (2, 16, 24):
        assert product_formula_trace(L, 4) == fock.closed_trace_A(L, 5), L


@pytest.mark.parametrize("units", range(7))
def test_twisted_tables_match_walk(units):
    walk = reference_fock.twisted_traces(ORACLE_NORMS, units)
    for L in ORACLE_NORMS:
        assert fock.brute_twisted_trace(L, units) == walk[L], L


@pytest.mark.parametrize("grade", range(4))
def test_rank_24_tables_match_walk(grade):
    walk = reference_fock.traces_M1(ORACLE_NORMS, grade)
    for L in ORACLE_NORMS:
        assert fock.brute_trace_M1(L, grade) == walk[L], L


@pytest.mark.parametrize("grade", range(7))
def test_single_oscillator_table_matches_enumeration(grade):
    for L in ORACLE_NORMS:
        assert fock.brute_trace_A(L, grade) == reference_fock.trace_A(L, grade), L


def test_oracle_uses_no_closed_form(monkeypatch):
    expect = {
        "A": fock.closed_trace_A(24, 5),
        "M1": fock.closed_trace_M1(24, 3),
        "twisted": fock.twisted_closed_trace(24, 4),
        "total": fock.z_total(16, 4),
    }

    def refuse(*_args, **_kwargs):
        raise AssertionError("the brute-force oracle reached a closed form")

    monkeypatch.setattr(MarkerSeries, "exp_series", refuse)
    for name in ("_marker_trace", "closed_trace_A", "closed_trace_M1",
                 "twisted_closed_trace"):
        monkeypatch.setattr(fock, name, refuse)
    assert fock.brute_trace_A(24, 4) == expect["A"]
    assert fock.brute_trace_M1(24, 2) == expect["M1"]
    assert fock.brute_twisted_trace(24, 4) == expect["twisted"]
    assert fock.z_total_brute(16, 4) == expect["total"]


def test_brute_matches_closed_single_oscillator():
    for L in (2, 16, 24):
        assert fock.brute_trace_A(L, 5) == fock.closed_trace_A(L, 6), L


def test_brute_matches_closed_rank_24():
    for L in (16, 24):
        assert fock.brute_trace_M1(L, 3) == fock.closed_trace_M1(L, 4), L


def test_twisted_leading_structure():
    g = fock.twisted_closed_trace(16, F(7, 2))
    assert g.valuation() == F(3, 2)
    assert g.coeff(F(3, 2)) == MarkerPoly.const(1)
    assert g.coeff(2) == MarkerPoly.x_power(1, 24 - 2 * 16)
    g24 = fock.twisted_closed_trace(24, 3)
    assert g24.coeff(2) == MarkerPoly.x_power(1, 24 - 2 * 24)


def test_brute_matches_closed_twisted():
    # half-odd-integer modes only; two grades above the q^{3/2} floor
    for L in (16, 24):
        assert fock.brute_twisted_trace(L, 4) == fock.twisted_closed_trace(L, 4), L


def test_untwisted_closed_form_frozen():
    # L = 24 collapses to a rescaled discriminant
    z = fock.z_untwisted(24, 9)
    # delta(5) rescaled by 2 is known through q^10, z only through q^9
    assert z == modular.delta(5).rescale(2).truncate(9)
    assert z.coeff(2) == 1 and z.coeff(4) == -24 and z.coeff(3) == 0


def eta_quotient_untwisted(L, order):
    """The untwisted sector as eta(2t)^{2L-24} / eta(t)^{L-24}, without theta1."""
    order = F(order)
    e1 = modular.eta(order + 4)
    return (e1.rescale(2).pow_int(2 * L - 24) * e1.pow_int(24 - L)).truncate(order)


def z_untwisted_routes(L, order):
    """Three independent routes to the untwisted contribution."""
    order = F(order)
    shift = F(L, 8) - 1
    marker = fock.closed_trace_M1(L, order - shift).eval_marker(-1)._shift(shift)
    return {
        "eta_quotient": eta_quotient_untwisted(L, order),
        "theta_form": fock.z_untwisted(L, order),
        "marker_trace": marker.truncate(order),
    }


def z_twisted_routes(L, order):
    """Closed theta form and the marker-trace route to the twisted contribution."""
    order = F(order)
    g = fock.twisted_closed_trace(L, order + 1)
    diff = g.eval_marker(1) - g.eval_marker(-1)
    marker = (diff._shift(F(-1)) * F(2) ** (12 - L)).truncate(order)
    return {"theta_form": fock.z_twisted(L, order), "marker_trace": marker}


def test_untwisted_routes_agree():
    # order 12 reaches the rank-24 marker trace at q^6 and beyond for every L
    for L in (16, 24, 32, 48):
        for order in (6, 12):
            r = z_untwisted_routes(L, order)
            assert r["eta_quotient"] == r["theta_form"], (L, order)
            assert r["theta_form"] == r["marker_trace"], (L, order)


def test_twisted_routes_agree():
    for L in (16, 24, 32, 48):
        for order in (6, 12):
            r = z_twisted_routes(L, order)
            assert r["theta_form"] == r["marker_trace"], (L, order)


def outcome(f, *args):
    """A series, or a refusal as (type, message)."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def test_closed_forms_match_product_construction():
    # every marker degree, not only x = +-1; the reference is built once per
    # norm at the top order and cut (exact), except where the closed form refuses
    closed = {(1, False): fock.closed_trace_A, (24, False): fock.closed_trace_M1,
              (24, True): fock.twisted_closed_trace}
    low = [F(k, 2) for k in range(1, 15)]
    for (rank, half), f in closed.items():
        grid = [(L, low) for L in (2, 16, 24, 512)] + ([(24, [12])] if rank == 24 else [])
        for L, orders in grid:
            ref = reference_fock.closed_trace(L, orders[-1], rank, half)
            for order in orders:
                if half and order <= F(3, 2):
                    expect = outcome(reference_fock.closed_trace, L, order, rank, half)
                else:
                    expect = outcome(ref.truncate, order)
                assert outcome(f, L, order) == expect, (f.__name__, L, order)


EXPLORATION_NORMS = tuple(random.Random("z-untwisted").sample(
    [L for L in range(2, 514, 2) if L < 16 or L % 8], 2
))


@pytest.mark.parametrize("L", (16, 24, 32, 48, 512) + EXPLORATION_NORMS)
def test_untwisted_theta_form_matches_eta_quotient(L):
    # z_untwisted computes the theta form only; the eta quotient is its oracle
    for order in (F(1, 2), F(7, 2), 20, 62, 90):
        if L in EXPLORATION_NORMS:
            with pytest.warns(RuntimeWarning):
                z = fock.z_untwisted(L, order)
        else:
            z = fock.z_untwisted(L, order)
        assert z == eta_quotient_untwisted(L, order), (L, order)


def test_z_total_norm_16_vanishes():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # realizable norms must not warn
        z = fock.z_total(16, 9)
    assert z.is_zero()


def test_z_total_norm_24_frozen():
    z = fock.z_total(24, 7)
    expect = [F(-3, 256), F(9, 32), F(-189, 64), F(69, 4), F(-7245, 128), F(567, 8)]
    assert [z.coeff(n) for n in range(1, 7)] == expect
    assert z == modular.delta(7) * F(-3, 256)


def test_z_total_norm_32_frozen():
    z = fock.z_total(32, 7)
    de4 = (modular.delta(7) * modular.eisenstein(4, 6)).truncate(7)
    assert z == de4 * F(-225, 4096)


def z_series_oracle(L, order):
    """z_total by the series route: the two theta-form sectors, summed."""
    return fock.z_untwisted(L, order) + fock.z_twisted(L, order)


@pytest.mark.parametrize("L", range(16, 129, 8))
def test_z_total_ring_route_matches_series_oracle(L):
    # the series oracle takes under 0.1 s at each of these norms and orders
    for order in (20, 60, 200):
        assert fock.z_total(L, order) == z_series_oracle(L, order), (L, order)


def test_z_total_ring_route_order_grid():
    # every order from -2 to 10 in quarters: the same series, or the same refusal
    for L in (16, 24, 32, 40, 48):
        for k in range(-8, 41):
            order = F(k, 4)
            assert outcome(fock.z_total, L, order) == outcome(z_series_oracle, L, order), (L, order)


def test_z_total_ring_route_uses_no_theta_product(monkeypatch):
    expect = {L: fock.z_total(L, 30) for L in (16, 24, 32, 48, 64)}

    def refuse(*_args, **_kwargs):
        raise AssertionError("the ring route reached a theta or eta product")

    for module, name in ((modular, "theta"), (modular, "eta"),
                         (fock, "z_untwisted"), (fock, "z_twisted")):
        monkeypatch.setattr(module, name, refuse)
    # uncached, so the form and its monomial table are rebuilt under the patches
    monkeypatch.setattr(fock, "_z_form", fock._z_form.__wrapped__)
    monkeypatch.setattr(modular, "_space_table", modular._space_table.__wrapped__)
    for L, z in expect.items():
        assert fock.z_total(L, 30) == z, L


def t_image(p):
    """P(-A, A + B) for P = {(i, j): c} in A^i B^j: the image under T."""
    out = {}
    for (i, j), c in p.items():
        for k in range(j + 1):
            key = (i + k, j - k)
            out[key] = out.get(key, 0) + (-1) ** i * comb(j, k) * c
    return {m: c for m, c in out.items() if c}


def s_image(p, weight):
    """(-1)^(w/2) P(B, A): the image under S of a weight-w form."""
    return {(j, i): (-1) ** (weight // 2) * c for (i, j), c in p.items() if c}


def is_level_one(p, weight):
    """Whether the Gamma(2) form P(A, B) of weight w is fixed by T and S."""
    p = {m: c for m, c in p.items() if c}
    return t_image(p) == p and s_image(p, weight) == p


def test_sector_forms_are_level_one():
    for L in range(24, 129, 8):
        assert is_level_one(fock._sector_form(L), L // 2), L


@pytest.mark.parametrize("L", (24, 32, 48, 64, 128))
def test_perturbed_sector_form_fails_s_or_t(L):
    # raising any one coefficient of A^i B^(deg - i) by 1 leaves level one
    form, deg = fock._sector_form(L), L // 4
    for i in range(deg + 1):
        bumped = ring.add(form, {(i, deg - i): 1})
        assert not is_level_one(bumped, L // 2), (L, i)


def test_theta_quartic_eisenstein_forms():
    # E4 and 2 E6 in A = theta1^4, B = theta2^4 against the Eisenstein series
    # scaled to constant term 1 (and 2)
    a, b = modular.theta(1, 12).pow_int(4), modular.theta(2, 12).pow_int(4)
    for poly, k, const in ((fock._E4_AB, 4, 1), (fock._TWO_E6_AB, 6, 2)):
        assert is_level_one(poly, k)
        acc = RationalSeries.zero(12)
        for (i, j), c in poly.items():
            acc = acc + a.pow_int(i) * b.pow_int(j) * c
        e = modular.eisenstein(k, 12)
        assert acc == e * (const / e.coeff(0)), k


def test_brute_assembly_matches_closed():
    for L in (16, 24):
        assert fock.z_total_brute(L, F(7, 2)) == fock.z_total(L, F(7, 2)), L


def test_norm_guards():
    with pytest.raises(ValueError):
        fock.z_total(7, 3)
    with pytest.raises(ValueError):
        fock.closed_trace_A(0, 3)
    with pytest.raises(ValueError):
        fock.brute_trace_M1(-2, 2)


def test_realizable_norms():
    assert [L for L in range(0, 66, 2) if fock._realizable(L)] == [16, 24, 32, 40, 48, 56, 64]


def test_unrealizable_z_total_warns_once_at_its_caller():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fock.z_total(20, 3)
    assert [w.category for w in caught] == [RuntimeWarning]
    assert caught[0].filename == __file__


def test_unrealizable_norm_warns():
    with pytest.warns(RuntimeWarning):
        z = fock.z_total(20, 3)
    # the half-integer tails genuinely survive at norms off the 8Z+16 grid
    assert any(e.denominator == 2 for e in z.support())
