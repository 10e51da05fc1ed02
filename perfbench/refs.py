"""Independent references for the benchmark's correctness gate.

Everything here is plain integer (or Fraction) arithmetic on coefficient lists
and never calls into moontrace, so a wrong library result cannot also make its
reference wrong.  Series are compared as {exponent: coefficient} maps read
through the public `order`, `support()` and `coeff()` accessors.
"""
from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from functools import lru_cache


# --- comparison helpers -------------------------------------------------------

def terms_of(series) -> dict:
    """{Fraction exponent: coefficient} of a library series, via public accessors."""
    return {e: series.coeff(e) for e in series.support()}


def digest(obj) -> str:
    """Stable hash of a JSON-serialisable value (key order and spacing ignored)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def compare_series(series, expected: dict, order) -> str | None:
    """None if `series` is known exactly through `order` and matches `expected`.

    `expected` maps exponents to coefficients and must cover every exponent
    below `order`; missing keys mean zero.
    """
    order = Fraction(order)
    if series.order < order:
        return f"order {series.order} below {order}"
    got = {e: c for e, c in terms_of(series).items() if e < order}
    want = {Fraction(e): Fraction(c) for e, c in expected.items() if c and Fraction(e) < order}
    if got != want:
        bad = sorted(set(got) ^ set(want) | {e for e in got if e in want and got[e] != want[e]})
        return f"coefficients differ at q^{bad[0]}" if bad else "coefficients differ"
    return None


# --- integer power series (lists indexed by exponent, truncated at n) ---------

def series_mul(a, b, n):
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i]):
                out[i + j] += x * y
    return out


def series_pow(a, e, n):
    out = [1] + [0] * (n - 1)
    base = list(a[:n]) + [0] * max(0, n - len(a))
    while e:
        if e & 1:
            out = series_mul(out, base, n)
        e >>= 1
        if e:
            base = series_mul(base, base, n)
    return out


def series_inverse(a, n):
    """Inverse of an integer series with constant term 1."""
    if a[0] != 1:
        raise ValueError("constant term must be 1")
    inv = [1] + [0] * (n - 1)
    for m in range(1, n):
        inv[m] = -sum(a[k] * inv[m - k] for k in range(1, min(m, len(a) - 1) + 1))
    return inv


@lru_cache(maxsize=None)
def euler(n):
    """prod_{k>=1} (1 - q^k) through q^(n-1), from Euler's pentagonal-number theorem."""
    out = [0] * n
    k = 0
    while True:
        hit = False
        for m in ((k * (3 * k - 1)) // 2, (k * (3 * k + 1)) // 2) if k else (0,):
            if m < n:
                out[m] = -1 if k % 2 else 1
                hit = True
        if not hit:
            return tuple(out)
        k += 1


@lru_cache(maxsize=None)
def tau(n):
    """Ramanujan tau(0..n-1) (tau(0) = 0), from Delta = q * prod (1 - q^k)^24."""
    return tuple([0] + series_pow(euler(n), 24, n - 1)) if n > 1 else (0,) * n


def sigma(power, m):
    return sum(d**power for d in range(1, m + 1) if m % d == 0)


@lru_cache(maxsize=None)
def eisenstein_normalized(k, n):
    """E_k with constant term 1 (k = 4 or 6): 1 + c sum sigma_{k-1}(m) q^m."""
    c = {4: 240, 6: -504}[k]
    return tuple([1] + [c * sigma(k - 1, m) for m in range(1, n)])


# --- modular references ------------------------------------------------------------

def delta_ref(order) -> dict:
    n = math.ceil(Fraction(order))
    return dict(enumerate(tau(n)))


def eta_ref(order) -> dict:
    """q^(1/24) prod (1 - q^k)."""
    order = Fraction(order)
    return {m + Fraction(1, 24): c for m, c in enumerate(euler(math.ceil(order)))
            if m + Fraction(1, 24) < order}


BERNOULLI = {2: Fraction(1, 6), 4: Fraction(-1, 30), 6: Fraction(1, 42)}


def eisenstein_ref(k, order) -> dict:
    """-B_k/k! + (2/(k-1)!) sum sigma_{k-1}(n) q^n, the library's normalization."""
    n = math.ceil(Fraction(order))
    lead = Fraction(2, math.factorial(k - 1))
    return {0: -BERNOULLI[k] / math.factorial(k),
            **{m: lead * sigma(k - 1, m) for m in range(1, n)}}


def z_total_ref(L, order) -> dict:
    """z_total(16) = 0 and z_total(24) = -(3/256) Delta."""
    if L == 16:
        return {}
    if L == 24:
        return {e: Fraction(-3 * c, 256) for e, c in delta_ref(order).items()}
    raise ValueError(f"no independent reference for z_total({L})")


def j_ref(order) -> dict:
    """j = E4^3 / Delta - 744, with exponents from -1."""
    n = math.ceil(Fraction(order)) + 1  # coefficients of q^-1 .. q^(order-1)
    e4cubed = series_pow(eisenstein_normalized(4, n), 3, n)
    delta_over_q = list(tau(n + 1)[1:])
    quotient = series_mul(e4cubed, series_inverse(delta_over_q, n), n)
    out = {Fraction(m - 1): c for m, c in enumerate(quotient)}
    out[Fraction(0)] -= 744
    return out


def theta_ref(which, order) -> dict:
    """theta(1) = sum q^((n+1/2)^2/2), theta(2) = sum (-1)^n q^(n^2/2), theta(3) = sum q^(n^2/2)."""
    order = Fraction(order)
    out: dict = {}
    n = 0
    while True:
        added = False
        for m in {n, -n} if which != 1 else {n, -n - 1}:
            e = Fraction((2 * m + 1) ** 2, 8) if which == 1 else Fraction(m * m, 2)
            if e < order:
                sign = (-1) ** (m % 2) if which == 2 else 1
                out[e] = out.get(e, 0) + sign
                added = True
        if not added:
            return out
        n += 1


def monomial_ref(a, b, n) -> list:
    """E4^a E6^b (constant term 1) through q^(n-1)."""
    out = series_pow(eisenstein_normalized(4, n), a, n)
    return series_mul(out, series_pow(eisenstein_normalized(6, n), b, n), n)


def cusp_monomial_ref(a, b, order) -> dict:
    """Delta * E4^a * E6^b."""
    n = math.ceil(Fraction(order))
    return dict(enumerate([0] + series_mul(list(tau(n + 1)[1:]), monomial_ref(a, b, n), n)[: n - 1]))


def pole_ref(weight, order) -> dict:
    """An element of the pole-allowed space F_weight, exponents from -1.

    Takes the first two monomials g1, g2 of weight + 12 and returns
    (c2 g1 - c1 g2) / Delta, where c_i is the constant term of g_i / Delta,
    so the result has no constant term.
    """
    n = math.ceil(Fraction(order)) + 1
    inv = series_inverse(list(tau(n + 1)[1:]), n)
    pairs = [(a, (weight + 12 - 4 * a) // 6) for a in range((weight + 12) // 4, -1, -1)
             if (weight + 12 - 4 * a) % 6 == 0]
    if len(pairs) < 2:
        raise ValueError(f"F_{weight} has no reference element")
    q1, q2 = (series_mul(monomial_ref(a, b, n), inv, n) for a, b in pairs[:2])
    c1, c2 = q1[1], q2[1]
    return {Fraction(m - 1): c2 * x - c1 * y for m, (x, y) in enumerate(zip(q1, q2))}


# --- lattice references --------------------------------------------------------

def _count_by_norm(rank, maxnorm, fold):
    """{(norm, state): count} over x in Z^rank with norm <= maxnorm.

    `fold(i, state, x_i)` folds coordinate i into a small state (starting at 0)
    that tells which vectors belong to the lattice or how to sign them.
    """
    bound = math.isqrt(maxnorm)
    table = {(0, 0): 1}
    for i in range(rank):
        nxt: dict = {}
        for (norm, state), cnt in table.items():
            for x in range(-bound, bound + 1):
                nn = norm + x * x
                if nn <= maxnorm:
                    key = (nn, fold(i, state, x))
                    nxt[key] = nxt.get(key, 0) + cnt
        table = nxt
    return table


def root_lattice_theta_ref(kind, n, order) -> dict:
    """Theta series sum q^(norm/2) of A_n, D_n or E_8, below `order`."""
    order = Fraction(order)
    maxnorm = math.ceil(2 * order) - 1
    if kind == "E":
        if n != 8:
            raise ValueError("only E8 has a reference")
        m = math.ceil(order)
        return {0: 1, **{k: 240 * sigma(3, k) for k in range(1, m)}}
    if kind == "A":    # x in Z^(n+1) with coordinate sum 0
        table = _count_by_norm(n + 1, maxnorm, lambda i, s, x: s + x)
    elif kind == "D":  # x in Z^n with even coordinate sum
        table = _count_by_norm(n, maxnorm, lambda i, s, x: (s + x) % 2)
    else:
        raise ValueError(f"unknown root system {kind}")
    return {Fraction(norm, 2): c for (norm, state), c in table.items() if state == 0}


def signed_cubic_theta_ref(rank, odd, order) -> dict:
    """Theta of Z^rank with x signed by (-1)^(x_1 + ... + x_odd), below `order`.

    This is A^(rank-odd) B^odd with A = sum q^(x^2/2), B = sum (-1)^x q^(x^2/2):
    the twisted theta of Z^rank for the character vector xi = (1/2, .., 1/2, 0, ..).
    """
    order = Fraction(order)
    table = _count_by_norm(rank, math.ceil(2 * order) - 1, lambda i, s, x: (s + x * (i < odd)) % 2)
    out: dict = {}
    for (norm, parity), c in table.items():
        out[Fraction(norm, 2)] = out.get(Fraction(norm, 2), 0) + (-c if parity else c)
    return {e: c for e, c in out.items() if c}
