"""Free-boson (Fock space) traces, closed form and brute force.

The closed forms track a marker x grading states by particle count.  Each is
one exponential, `_marker_trace(L, order, rank, half)`, over the oscillator
modes m (the positive integers, or with `half` the half-odd integers):

    exp( sum_{m, i >= 1} (rank/i - L/m) x^i q^{m i} )
        = exp( sum_m -L x q^m / (m (1 - x q^m)) ) / prod_m (1 - x q^m)^rank

The -L/m part is the vertex-operator zero mode's insertion, the rank/i part
the log of the free-oscillator product.  `closed_trace_A` is rank 1,
`closed_trace_M1` rank 24, and the twisted g(q, x) rank 24 over half-odd
modes with an overall q^{3/2} shift.

The brute-force oracle never touches those formulas: it enumerates Fock basis
states and computes each diagonal matrix entry of the degree-zero component of
E^-(mu, z) E^+(mu, z) by applying the truncated exponentials as actual
operators with [lam(s), lam(t)] = s L delta_{s+t,0}.  Both mu = +lam and
mu = -lam are computed and must agree.  One kernel, `_colored_trace(L, units,
rank, half)`, enumerates the states of one oscillator and tabulates them by
(grade units, particle count): oscillator 0, which carries the insertion,
sums its diagonal entries per cell, and each of the other rank - 1 counts its
states per cell.  The trace is the first table convolved with the
(rank - 1)st convolution power of the second, which is the state-by-state sum
grouped by cell, with no product formula involved.

Sector assembly (norm L = <lam, lam>):

    z_untwisted = q^{L/8 - 1} * (rank-24 trace at x = -1)
                = eta(2t)^{2L-24} / eta(t)^{L-24}
                = eta^{12} (theta1/2)^{L-12}
    z_twisted   = q^{-1} 2^{12-L} (g(q,1) - g(q,-1))
                = eta^{12} { (theta2/2)^{L-12} - (theta3/2)^{L-12} }
    z_total     = z_untwisted + z_twisted

Only the theta forms are computed here.  The eta-quotient form follows from
theta1 = 2 eta(2t)^2 / eta, which `moontrace verify` checks among the theta
eta-quotients; the tests compare the other forms with the theta forms.

`z_total` takes one of two routes.  For realizable norms (L = 8n >= 16) it is
a level-one form of weight L/2: in A = theta1^4, B = theta2^4 the sector
formulas become a polynomial, projected exactly onto Q[e4, e6] once per norm
(`_z_form`, cached) and cut from the cached monomial table at each call, with
no theta product.  Exploration norms take the series route, the sum of the
two sectors above, which the tests also use as the ring route's oracle.
"""
from __future__ import annotations

import warnings
from fractions import Fraction
from functools import cache
from math import comb
from types import MappingProxyType

from . import modular, ring
from ._linalg import solve_in_span
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
    "z_total_brute",
]

RANK = 24


def _check_norm(L: int):
    if L <= 0 or L % 2:
        raise ValueError("the norm L must be a positive even integer")


def _warn_unrealizable(L: int):
    """Warn at the caller of the public function that called this one."""
    if not _realizable(L):
        warnings.warn(
            f"norm {L} is not of the form 4<a,a> for a norm->=4 even lattice "
            "vector; formula-exploration mode",
            RuntimeWarning,
            stacklevel=3,
        )


# --- closed forms -----------------------------------------------------------

def _marker_trace(L: int, order: Fraction, rank: int, half: bool) -> MarkerSeries:
    """exp of sum_{m, i >= 1} (rank/i - L/m) x^i q^{m i}, m over the modes below order."""
    terms: dict = {}
    m = Fraction(1, 2) if half else 1
    while m < order:
        i = 1
        while m * i < order:
            poly = MarkerPoly.x_power(i, Fraction(rank, i) - Fraction(L) / m)
            terms[m * i] = terms.get(m * i, MarkerPoly(())) + poly
            i += 1
        m += 1
    return MarkerSeries.from_terms(terms.items(), order).exp_series()


def closed_trace_A(L: int, order) -> MarkerSeries:
    """Single-oscillator trace with the zero-mode insertion; marker x counts particles."""
    _check_norm(L)
    return _marker_trace(L, Fraction(order), 1, False)


def closed_trace_M1(L: int, order) -> MarkerSeries:
    """Rank-24 trace: the same exponential over prod (1 - x q^n)^{24}."""
    _check_norm(L)
    return _marker_trace(L, Fraction(order), RANK, False)


def twisted_closed_trace(L: int, order) -> MarkerSeries:
    """Half-integer-mode trace g(q, x), including the overall q^{3/2} shift."""
    _check_norm(L)
    inner = Fraction(order) - Fraction(3, 2)
    return _marker_trace(L, inner, RANK, True)._shift(Fraction(3, 2))


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


def _convolve(a, b):
    """2-D convolution of (units, count) tables, cut above the tables' size."""
    size = len(a)
    out = [[0] * size for _ in range(size)]
    for s1, row1 in enumerate(a):
        for c1, x in enumerate(row1):
            if not x:
                continue
            for s2 in range(size - s1):
                row_out, row2 = out[s1 + s2], b[s2]
                for c2 in range(size - c1):
                    if row2[c2]:
                        row_out[c1 + c2] += x * row2[c2]
    return out


def _colored_trace(L: int, units: int, rank: int, half: bool) -> MarkerSeries:
    """Rank-`rank` trace by state enumeration; the insertion acts on oscillator 0 only.

    Grades count in units of 1, or of 1/2 with `half` (then a single mode is
    an odd number of units); `units` bounds the total grade.  `diag0[s][c]`
    sums `_diag` over one oscillator's states of s units and c particles, and
    `free[s][c]` counts them.  The trace is `diag0` convolved with `rank - 1`
    copies of `free`, cut above `units`, by binary powering.  No closed form
    -- 1/(1 - x q^n), `exp_series` -- is used.
    """
    # integer modes stay ints: Fraction modes slow every `_diag` call
    unit = Fraction(1, 2) if half else 1
    size = max(units + 1, 0)
    parts = [u for u in range(units, 0, -1) if u % 2 or not half]
    diag0 = [[Fraction(0)] * size for _ in range(size)]
    free = [[0] * size for _ in range(size)]
    for s in range(size):
        for p in _partitions(s, parts):
            diag0[s][len(p)] += _diag(tuple(u * unit for u in p), L)
            free[s][len(p)] += 1
    acc, n = diag0, rank - 1
    while n:
        if n & 1:
            acc = _convolve(acc, free)
        n >>= 1
        if n:
            free = _convolve(free, free)
    terms = {s * unit: MarkerPoly(row) for s, row in enumerate(acc)}
    return MarkerSeries.from_terms(terms.items(), (units + 1) * unit)


def brute_trace_A(L: int, max_grade: int) -> MarkerSeries:
    """Single-oscillator trace by state enumeration, known through q^max_grade."""
    _check_norm(L)
    return _colored_trace(L, max_grade, 1, False)


def brute_trace_M1(L: int, max_grade: int) -> MarkerSeries:
    """Rank-24 trace by full state enumeration through q^max_grade."""
    _check_norm(L)
    return _colored_trace(L, max_grade, RANK, False)


def brute_twisted_trace(L: int, max_units: int) -> MarkerSeries:
    """Half-integer-mode rank-24 trace by enumeration, with the q^{3/2} shift.

    `max_units` bounds the grade in half-integer units (grade = units/2); the
    oscillator modes themselves are the half-odd-integers u/2 for odd u.
    """
    _check_norm(L)
    return _colored_trace(L, max_units, RANK, True)._shift(Fraction(3, 2))


# --- sector assembly --------------------------------------------------------

def z_untwisted(L: int, order) -> RationalSeries:
    """Untwisted-sector contribution eta^{12} (theta1/2)^{L-12}.

    This equals eta(2t)^{2L-24}/eta(t)^{L-24} because theta1 = 2 eta(2t)^2/eta,
    an identity `moontrace verify` checks among the theta eta-quotients; the
    tests compare the two forms as a differential oracle.
    """
    _check_norm(L)
    _warn_unrealizable(L)
    return _untwisted(L, Fraction(order))


def _untwisted(L: int, order: Fraction) -> RationalSeries:
    head = order + 4
    return (
        modular.eta(head).pow_int(12) * (modular.theta(1, head) / 2).pow_int(L - 12)
    ).truncate(order)


def z_twisted(L: int, order) -> RationalSeries:
    """Twisted-sector contribution eta^{12} { (theta2/2)^{L-12} - (theta3/2)^{L-12} }.

    The q^{1/2}-exponent terms always cancel between the two theta powers
    (swapping them flips the sign of q^{1/2}); a leftover means a bug.
    """
    _check_norm(L)
    _warn_unrealizable(L)
    return _twisted(L, Fraction(order))


def _twisted(L: int, order: Fraction) -> RationalSeries:
    head = order + 4
    t2 = (modular.theta(2, head) / 2).pow_int(L - 12)
    t3 = (modular.theta(3, head) / 2).pow_int(L - 12)
    out = (modular.eta(head).pow_int(12) * (t2 - t3)).truncate(order)
    if any(e.denominator != 1 for e in out.support()):
        raise RouteDisagreement("half-integer exponents failed to cancel in z_twisted")
    return out


# E4 = A^2 + AB + B^2 and 2 E6 = (A + 2B)(2A + B)(B - A) in A = theta1^4,
# B = theta2^4 (theta(1), theta(2)); E4 and E6 have constant term 1
_E4_AB = {(2, 0): 1, (1, 1): 1, (0, 2): 1}
_TWO_E6_AB = {(3, 0): -2, (2, 1): -3, (1, 2): 3, (0, 3): 2}


def _sector_form(L: int) -> dict:
    """16^(m+1) z_total(L) as an integer polynomial {(i, j): c} in A^i B^j.

    A = theta1^4, B = theta2^4 and C = theta3^4 = A + B (Jacobi), with
    eta^12 = ABC/16 and m = (L - 12)/4; the sector formulas read
    z_total = ABC (A^m + B^m - C^m) / 16^(m+1), and for odd m
    A^m + B^m - C^m = -sum_{0<j<m} C(m, j) A^j B^(m-j).
    """
    m = (L - 12) // 4
    ab_tail = {(j + 1, m - j + 1): -comb(m, j) for j in range(1, m)}
    return ring.mul(ab_tail, {(1, 0): 1, (0, 1): 1})


@cache
def _z_form(L: int) -> MappingProxyType:
    """z_total(L) for realizable L as an exact element {(a, b): c} of Q[e4, e6].

    One `solve_in_span` projects `_sector_form` onto the monomials
    E4^a (2 E6)^b (`_E4_AB`, `_TWO_E6_AB`), then rescales once by E4 = 720 e4,
    2 E6 = -60480 e6 and 16^-(m+1).  No solution means the form is not level
    one: a broken sector formula.
    """
    target, deg = _sector_form(L), L // 4
    pairs = [((deg - 3 * b) // 2, b) for b in range(0, deg // 3 + 1, 2)]
    fours, sixes = [{(0, 0): 1}], [{(0, 0): 1}]
    while len(fours) <= pairs[0][0]:
        fours.append(ring.mul(fours[-1], _E4_AB))
    while len(sixes) <= pairs[-1][1]:
        sixes.append(ring.mul(sixes[-1], _TWO_E6_AB))
    columns = [[mono.get((i, deg - i), 0) for i in range(deg + 1)]
               for a, b in pairs for mono in [ring.mul(fours[a], sixes[b])]]
    x = solve_in_span(columns, [target.get((i, deg - i), 0) for i in range(deg + 1)])
    if x is None:
        raise RouteDisagreement(f"the sector form of norm {L} is not a level-one form")
    scale = Fraction(1, 16 ** ((L - 8) // 4))
    return MappingProxyType({(a, b): c * 720**a * (-60480)**b * scale
                             for (a, b), c in zip(pairs, x) if c})


def z_total(L: int, order) -> RationalSeries:
    """Full trace series.

    For realizable norms (multiples of 8, at least 16) it is the level-one
    form `_z_form(L)`, cut from the cached monomial table; for exploration
    norms the honest sum of the sectors is returned, fractional tail included.
    """
    if _realizable(L):
        return ring.series(_z_form(L), order)
    _check_norm(L)
    _warn_unrealizable(L)  # once, at z_total's caller; the sectors stay quiet
    return _untwisted(L, Fraction(order)) + _twisted(L, Fraction(order))


def _realizable(L: int) -> bool:
    """Whether L = 4<a,a> for an even lattice vector a of norm >= 4: a multiple of 8, >= 16."""
    return L >= 16 and L % 8 == 0


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
