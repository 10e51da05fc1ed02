"""Free-boson (Fock space) traces, closed form and brute force.

The closed forms track a marker x grading states by particle count:

    trace over one oscillator line with the vertex-operator zero mode:
        exp( sum_{n>0} -L x q^n / (n (1 - x q^n)) ) / prod (1 - x q^n)
    rank-24 version: same exponential over prod (1 - x q^n)^{24}
    half-integer (twisted) version g(q, x): overall q^{3/2} shift,
        exponent sum over n + 1/2, and prod (1 - x q^{n-1/2})^{-24}.

The brute-force oracle never touches those formulas: it enumerates Fock basis
states and computes each diagonal matrix entry of the degree-zero component of
E^-(mu, z) E^+(mu, z) by applying the truncated exponentials as actual
operators with [lam(s), lam(t)] = s L delta_{s+t,0}.  Both mu = +lam and
mu = -lam are computed and must agree.

Sector assembly (norm L = <lam, lam>):

    z_untwisted = q^{L/8 - 1} * (rank-24 trace at x = -1)
                = eta(2t)^{2L-24} / eta(t)^{L-24}
                = eta^{12} (theta1/2)^{L-12}
    z_twisted   = q^{-1} 2^{12-L} (g(q,1) - g(q,-1))
                = eta^{12} { (theta2/2)^{L-12} - (theta3/2)^{L-12} }
    z_total     = z_untwisted + z_twisted
"""
from __future__ import annotations

import warnings
from fractions import Fraction

from . import modular
from .qseries import MarkerPoly, MarkerSeries, RationalSeries, RouteDisagreement

__all__ = [
    "closed_trace_A",
    "closed_trace_M1",
    "twisted_closed_trace",
    "brute_trace_A",
    "brute_trace_M1",
    "brute_twisted_trace",
    "z_untwisted",
    "z_twisted",
    "z_total",
    "z_untwisted_routes",
    "z_twisted_routes",
    "z_total_brute",
]

RANK = 24


def _check_norm(L: int):
    if L <= 0 or L % 2:
        raise ValueError("the norm L must be a positive even integer")


def _warn_unrealizable(L: int):
    if L < 16 or L % 8:
        warnings.warn(
            f"norm {L} is not of the form 4<a,a> for a norm->=4 even lattice "
            "vector; formula-exploration mode",
            RuntimeWarning,
            stacklevel=3,
        )


# --- closed forms -----------------------------------------------------------

def _exp_argument(L: int, order: Fraction, half_shift: bool) -> MarkerSeries:
    """sum over oscillator modes of -L x^i q^{mode*i} / (mode * i-th power)."""
    terms: dict = {}
    num = 1
    while True:
        mode = Fraction(2 * num - 1, 2) if half_shift else Fraction(num)
        if mode >= order:
            break
        i = 1
        while mode * i < order:
            e = mode * i
            poly = MarkerPoly.x_power(i, -Fraction(L) / mode)
            terms[e] = terms.get(e, MarkerPoly(())) + poly
            i += 1
        num += 1
    return MarkerSeries.from_terms(terms.items(), order)


def _geometric(mode: Fraction, order: Fraction) -> MarkerSeries:
    """1 / (1 - x q^mode) as an explicit geometric sum."""
    terms = {}
    i = 0
    while mode * i < order:
        terms[mode * i] = MarkerPoly.x_power(i)
        i += 1
    return MarkerSeries.from_terms(terms.items(), order)


def closed_trace_A(L: int, order) -> MarkerSeries:
    """Single-oscillator trace with the zero-mode insertion; marker x counts particles."""
    _check_norm(L)
    order = Fraction(order)
    acc = _exp_argument(L, order, half_shift=False).exp_series()
    n = 1
    while n < order:
        acc = acc * _geometric(Fraction(n), order)
        n += 1
    return acc


def closed_trace_M1(L: int, order) -> MarkerSeries:
    """Rank-24 trace: the same exponential over prod (1 - x q^n)^{24}."""
    _check_norm(L)
    order = Fraction(order)
    acc = _exp_argument(L, order, half_shift=False).exp_series()
    n = 1
    while n < order:
        acc = acc * _geometric(Fraction(n), order).pow_int(RANK)
        n += 1
    return acc


def twisted_closed_trace(L: int, order) -> MarkerSeries:
    """Half-integer-mode trace g(q, x), including the overall q^{3/2} shift."""
    _check_norm(L)
    order = Fraction(order)
    inner = order - Fraction(3, 2)
    acc = _exp_argument(L, inner, half_shift=True).exp_series()
    n = 1
    while Fraction(2 * n - 1, 2) < inner:
        acc = acc * _geometric(Fraction(2 * n - 1, 2), inner).pow_int(RANK)
        n += 1
    return acc._shift(Fraction(3, 2))


# --- brute-force oracle -----------------------------------------------------

def _partitions(total, parts):
    """All partitions of `total` into entries drawn from the list `parts`."""
    if total == 0:
        return [()]
    out = []
    for idx, p in enumerate(parts):
        if p <= total:
            for rest in _partitions(total - p, parts[idx:]):
                out.append((p,) + rest)
    return out


def _diag_entry(state, L: int, sign: int) -> Fraction:
    """Diagonal entry of the degree-zero part of E^-(mu,z) E^+(mu,z) on `state`.

    `state` is a descending tuple of oscillator modes (ints or Fractions);
    mu = sign * lam.  Pure operator algebra: apply the truncated exponential
    of annihilators, then of creators, and read the original state's
    coefficient.
    """
    grade = sum(state)

    # exp of sum_n (sign/n) lam(n): annihilators; lam(n) on lam(-n)^m gives m n L
    vec = {state: Fraction(1)}
    total = dict(vec)
    cur = vec
    k = 0
    while cur:
        k += 1
        nxt: dict = {}
        for st, amp in cur.items():
            for n in set(st):
                mult = st.count(n)
                reduced = list(st)
                reduced.remove(n)
                key = tuple(reduced)
                # (sign/n) * mult * (n L) = sign * mult * L
                nxt[key] = nxt.get(key, Fraction(0)) + amp * sign * mult * L
        cur = {st: amp / k for st, amp in nxt.items() if amp}
        for st, amp in cur.items():
            total[st] = total.get(st, Fraction(0)) + amp

    # exp of sum_n (-sign/n) lam(-n): creators; only paths back to `state` matter
    modes = sorted({m for m in state}) or []
    result = total.get(state, Fraction(0))
    cur = total
    k = 0
    while cur:
        k += 1
        nxt = {}
        for st, amp in cur.items():
            room = grade - sum(st)
            if room <= 0:
                continue
            for n in modes:
                if n > room:
                    break
                key = tuple(sorted(st + (n,), reverse=True))
                nxt[key] = nxt.get(key, Fraction(0)) + amp * (-Fraction(sign) / n)
        cur = {st: amp / k for st, amp in nxt.items() if amp}
        result += cur.get(state, Fraction(0))
    return result


def _diag(state, L: int) -> Fraction:
    """Diagonal entry; computes both operator signs and insists they agree."""
    plus = _diag_entry(state, L, +1)
    minus = _diag_entry(state, L, -1)
    if plus != minus:
        raise RouteDisagreement(f"E^+(0) and E^-(0) disagree on {state}")
    return plus


def brute_trace_A(L: int, max_grade: int) -> MarkerSeries:
    """Single-oscillator trace by state enumeration, known through q^max_grade."""
    _check_norm(L)
    terms: dict = {}
    parts = list(range(max_grade, 0, -1))
    for g in range(max_grade + 1):
        for p in _partitions(g, parts):
            d = _diag(p, L)
            if d:
                e = Fraction(g)
                terms[e] = terms.get(e, MarkerPoly(())) + MarkerPoly.x_power(len(p), d)
    return MarkerSeries.from_terms(terms.items(), max_grade + 1)


def _colored_trace(L: int, units: int, unit_values, mode_of_unit, order) -> MarkerSeries:
    """Full 24-oscillator enumeration; the insertion acts on oscillator 0 only.

    `units` bounds the total grade in integer units, `unit_values` lists the
    unit sizes single oscillator modes may take, and `mode_of_unit(s)` maps a
    unit count to the q-exponent it carries.  States are walked one by one.
    """
    all_parts = {
        s: _partitions(s, [u for u in range(units, 0, -1) if u in unit_values])
        for s in range(units + 1)
    }
    diag_memo = {}
    for s in range(units + 1):
        for p in all_parts[s]:
            state = tuple(mode_of_unit(u) for u in p)
            diag_memo[p] = _diag(state, L)

    acc: dict = {}

    def leaf(used, count, amp):
        key = (used, count)
        acc[key] = acc.get(key, Fraction(0)) + amp

    def walk(color, budget, used, count, amp):
        if color == RANK:
            leaf(used, count, amp)
            return
        if budget == 0:
            # every remaining oscillator is forced into its ground state
            leaf(used, count, amp)
            return
        for s in range(budget + 1):
            for p in all_parts[s]:
                if color == 0:
                    d = diag_memo[p]
                    if d:
                        walk(1, budget - s, used + s, count + len(p), amp * d)
                else:
                    walk(color + 1, budget - s, used + s, count + len(p), amp)

    walk(0, units, 0, 0, Fraction(1))
    terms: dict = {}
    for (used, count), amp in acc.items():
        if amp:
            e = mode_of_unit(used)
            terms[e] = terms.get(e, MarkerPoly(())) + MarkerPoly.x_power(count, amp)
    return MarkerSeries.from_terms(terms.items(), order)


def brute_trace_M1(L: int, max_grade: int) -> MarkerSeries:
    """Rank-24 trace by full state enumeration through q^max_grade."""
    _check_norm(L)
    values = set(range(1, max_grade + 1))
    return _colored_trace(L, max_grade, values, Fraction, Fraction(max_grade + 1))


def brute_twisted_trace(L: int, max_units: int) -> MarkerSeries:
    """Half-integer-mode rank-24 trace by enumeration, with the q^{3/2} shift.

    `max_units` bounds the grade in half-integer units (grade = units/2); the
    oscillator modes themselves are the half-odd-integers u/2 for odd u.
    """
    _check_norm(L)
    values = {u for u in range(1, max_units + 1) if u % 2}
    raw = _colored_trace(
        L, max_units, values, lambda u: Fraction(u, 2), Fraction(max_units + 1, 2)
    )
    return raw._shift(Fraction(3, 2))


# --- sector assembly --------------------------------------------------------

def z_untwisted(L: int, order) -> RationalSeries:
    """Untwisted-sector contribution.

    Computes both closed forms, eta(2t)^{2L-24}/eta(t)^{L-24} and
    eta^{12} (theta1/2)^{L-12}, and insists they agree before returning.
    """
    _check_norm(L)
    _warn_unrealizable(L)
    order = Fraction(order)
    head = order + 4
    theta_form = (
        modular.eta(head).pow_int(12) * (modular.theta(1, head) / 2).pow_int(L - 12)
    ).truncate(order)
    e1 = modular.eta(head)
    quotient = (e1.rescale(2).pow_int(2 * L - 24) * e1.pow_int(24 - L)).truncate(order)
    if theta_form != quotient:
        raise RouteDisagreement("untwisted closed forms disagree")
    return theta_form


def z_twisted(L: int, order) -> RationalSeries:
    """Twisted-sector contribution eta^{12} { (theta2/2)^{L-12} - (theta3/2)^{L-12} }.

    The q^{1/2}-exponent terms always cancel between the two theta powers
    (swapping them flips the sign of q^{1/2}); a leftover means a bug.
    """
    _check_norm(L)
    _warn_unrealizable(L)
    order = Fraction(order)
    head = order + 4
    t2 = (modular.theta(2, head) / 2).pow_int(L - 12)
    t3 = (modular.theta(3, head) / 2).pow_int(L - 12)
    out = (modular.eta(head).pow_int(12) * (t2 - t3)).truncate(order)
    if any(e.denominator != 1 for e in out.support()):
        raise RouteDisagreement("half-integer exponents failed to cancel in z_twisted")
    return out


def z_total(L: int, order) -> RationalSeries:
    """Full trace series.

    For realizable norms (multiples of 8, at least 16) the half-integer
    exponents must cancel between the sectors and a leftover raises; for
    exploration norms the honest sum is returned, fractional tail included.
    """
    out = z_untwisted(L, order) + z_twisted(L, order)
    realizable = L >= 16 and L % 8 == 0
    if realizable and any(e.denominator != 1 for e in out.support()):
        raise RouteDisagreement("half-integer exponents failed to cancel in z_total")
    return out


def z_untwisted_routes(L: int, order) -> dict:
    """Three independent routes to the untwisted contribution, for verification."""
    _check_norm(L)
    order = Fraction(order)
    head = order + 4
    e1 = modular.eta(head)
    e2 = e1.rescale(2)
    quotient = (e2.pow_int(2 * L - 24) * e1.pow_int(24 - L)).truncate(order)
    theta_form = z_untwisted(L, order)
    shift = Fraction(L, 8) - 1
    trace_order = order - shift
    f = closed_trace_M1(L, trace_order)
    marker_route = f.eval_marker(-1)._shift(shift).truncate(order)
    return {
        "eta_quotient": quotient,
        "theta_form": theta_form,
        "marker_trace": marker_route,
    }


def z_twisted_routes(L: int, order) -> dict:
    """Closed theta form and the marker-trace route to the twisted contribution."""
    _check_norm(L)
    order = Fraction(order)
    theta_form = z_twisted(L, order)
    g = twisted_closed_trace(L, order + 1)
    diff = g.eval_marker(1) - g.eval_marker(-1)
    trace_route = (diff._shift(Fraction(-1)) * Fraction(2) ** (12 - L)).truncate(order)
    return {"theta_form": theta_form, "marker_trace": trace_route}


def z_total_brute(L: int, order) -> RationalSeries:
    """Assemble z_total from the brute-force oracles in both sectors.

    Expensive (full state enumeration); meant for low orders.
    """
    _check_norm(L)
    order = Fraction(order)
    shift = Fraction(L, 8) - 1
    g_unt = 0
    while Fraction(g_unt + 1) + shift < order:
        g_unt += 1
    zu = brute_trace_M1(L, g_unt).eval_marker(-1)._shift(shift)
    units = 0
    while Fraction(units + 1, 2) + Fraction(1, 2) < order:
        units += 1
    tw = brute_twisted_trace(L, units)
    diff = tw.eval_marker(1) - tw.eval_marker(-1)
    zt = diff._shift(Fraction(-1)) * Fraction(2) ** (12 - L)
    return (zu + zt).truncate(order)
