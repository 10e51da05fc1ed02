"""Slow reference routes kept as differential oracles for the series kernel.

`mul` is the dict-of-Fraction double loop over term pairs and `invert` the
chain of truncated products sum (-u)^k; the library replaces them with
Kronecker substitution and Newton iteration.  `eta_product` and
`theta_product` build eta and the theta constants from their infinite
products; the library sums them instead.  `eisenstein` finds each
sigma_{k-1}(n) by trial division and B_k by the binomial recurrence; the
library cuts E_k from a divisor-sieve table and inverts (e^t - 1)/t.  Only
the series' public attributes and accessors are used, so the oracle shares no
code path with the kernel it checks.
"""
from fractions import Fraction
from math import comb, factorial, lcm

from moontrace.qseries import MarkerPoly, RationalSeries, TruncationError


def mul(a, b):
    """Product with the sound order min(o_a + v_b, o_b + v_a), term pair by term pair."""
    bound = min(a.order + b.valuation(), b.order + a.valuation())
    d = lcm(a.denom, b.denom)
    scaled_bound = bound * d
    ta = {e * (d // a.denom): c for e, c in a.terms.items()}
    tb = {e * (d // b.denom): c for e, c in b.terms.items()}
    out = {}
    for e1, c1 in ta.items():
        for e2, c2 in tb.items():
            e = e1 + e2
            if e < scaled_bound:
                out[e] = out.get(e, 0) + c1 * c2
    return type(a)(d, out, bound)


def pow_int(s, n):
    """s^n for n >= 1 by repeated squaring over `mul`."""
    acc = None
    while n:
        if n & 1:
            acc = s if acc is None else mul(acc, s)
        n >>= 1
        if n:
            s = mul(s, s)
    return acc


def _scaled_shift(s, shift, scale, order):
    """q^shift * scale * s, known through `order`."""
    return type(s).from_terms({e + shift: s.coeff(e) * scale for e in s.support()}, order)


def invert(s):
    """Inverse through o - 2v as 1/lead * q^-v * sum_k (-u)^k with b = 1 + u."""
    if s.is_zero():
        raise TruncationError("cannot invert a series with no known nonzero term")
    v = s.valuation()
    lead = s.coeff(v)
    if isinstance(lead, MarkerPoly):
        if lead.degree != 0:
            raise ValueError("cannot invert a marker-dependent leading coefficient")
        lead = lead.coeffs[0]
    recip = 1 / lead
    b = _scaled_shift(s, -v, recip, s.order - v)
    target = b.order
    minus_u = -(b - 1)
    acc = t = type(s).one(target)
    while True:
        t = mul(t, minus_u).truncate(target)
        if t.is_zero():
            break
        acc = acc + t
    return _scaled_shift(acc, -v, recip, target - v)


def _product(factors, order):
    acc = RationalSeries.one(order)
    for f in factors:
        acc = mul(acc, f)
    return acc


def _binomials(step, start, sign, order):
    """The factors 1 + sign * q^(start + n*step) for every exponent below `order`."""
    out = []
    e = Fraction(start)
    while e < order:
        out.append(RationalSeries.from_terms({0: 1, e: sign}, order))
        e += step
    return out


def eta_product(order):
    """q^{1/24} prod_{n>=1} (1 - q^n)."""
    order = Fraction(order)
    acc = _product(_binomials(1, 1, -1, order), order)
    return _scaled_shift(acc, Fraction(1, 24), 1, order)


def theta_product(which, order):
    """theta(1) = 2 q^{1/8} prod (1-q^n)(1+q^n)^2, theta(2|3) = prod (1-q^n)(1-+q^{n-1/2})^2."""
    order = Fraction(order)
    factors = _binomials(1, 1, -1, order)
    if which == 1:
        factors += 2 * _binomials(1, 1, 1, order)
        return _scaled_shift(_product(factors, order), Fraction(1, 8), 2, order)
    factors += 2 * _binomials(1, Fraction(1, 2), -1 if which == 2 else 1, order)
    return _product(factors, order)


def bernoulli(k):
    """B_k from sum_{j<=n} C(n+1, j) B_j = 0 for n >= 1, B_0 = 1."""
    b = [Fraction(1)]
    for n in range(1, k + 1):
        b.append(-sum(comb(n + 1, j) * b[j] for j in range(n)) / (n + 1))
    return b[k]


def eisenstein(k, order):
    """-B_k/k! + (2/(k-1)!) sum sigma_{k-1}(n) q^n, each sigma by trial division."""
    order = Fraction(order)
    terms = {0: -bernoulli(k) / factorial(k)}
    lead = Fraction(2, factorial(k - 1))
    n = 1
    while n < order:
        terms[n] = lead * sum(d ** (k - 1) for d in range(1, n + 1) if n % d == 0)
        n += 1
    return RationalSeries.from_terms(terms, order)
