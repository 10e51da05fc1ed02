"""Slow reference routes kept as differential oracles for the series kernel.

`mul` is the dict-of-Fraction double loop over term pairs and `invert` the
chain of truncated products sum (-u)^k; the library replaces them with
Kronecker substitution and Newton iteration.  `eta_product` and
`theta_product` build eta and the theta constants from their infinite
products; the library sums them instead.  `eisenstein` finds each
sigma_{k-1}(n) by trial division and B_k by the binomial recurrence; the
library cuts E_k from a divisor-sieve table and inverts (e^t - 1)/t.
`space_basis` builds and certifies each form space at the requested order,
reading coefficients with `coeff` and eliminating over Fraction
(`reference_linalg`); the library cuts it from a table and certifies it from
the table's pivot exponents.  `vacuum_zpoints` runs the vacuum trace
recursion on truncated q-series; the library runs it on exact numerators in
Q[e_4, e_6] and expands once.  Apart from that recursion, which checks the
ring route and not the kernel, only the series' public attributes and
accessors are used, so the oracle shares no code path with the kernel it
checks.
"""
from fractions import Fraction
from math import comb, factorial, lcm

import reference_linalg as linalg

from moontrace import modular
from moontrace.modular import FormSpace, delta, eisenstein
from moontrace.qseries import MarkerPoly, RationalSeries, TruncationError
from moontrace.virasoro import compute_nl


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


def _coeff_rows(series_list, bound):
    """Coefficient matrix over the union of supports below `bound`."""
    exps = sorted({e for s in series_list for e in s.support() if e < bound})
    return [[s.coeff(e) for s in series_list] for e in exps], exps


def _certify_independent(basis, order, what):
    if not basis:
        return
    bound = min(b.order for b in basis)
    rows, _ = _coeff_rows(basis, bound)
    if linalg.rank(rows) != len(basis):
        raise ValueError(f"order {order} too small to certify independence of {what}")


def space_basis(kind, weight, order):
    """M_k, S_k or F_k built from E_4^a E_6^b at `order` and certified there."""
    if kind not in ("M", "S", "F"):
        raise ValueError("space kind must be 'M', 'S', or 'F'")
    if weight % 2 or (weight < 0 and kind != "F"):
        raise ValueError("weight must be a nonnegative even integer")
    order = Fraction(order)

    if kind == "M":
        if weight == 0:
            basis = (RationalSeries.one(order),)
            labels = ("1",)
        else:
            e4 = eisenstein(4, order)
            e6 = eisenstein(6, order)
            basis_list, labels_list = [], []
            for b in range(weight // 6 + 1):
                rem = weight - 6 * b
                if rem % 4:
                    continue
                a = rem // 4
                basis_list.append(e4.pow_int(a) * e6.pow_int(b))
                labels_list.append(f"E4^{a}*E6^{b}")
            basis, labels = tuple(basis_list), tuple(labels_list)
        _certify_independent(basis, order, f"M_{weight}")
        return FormSpace("M", weight, basis, labels)

    if kind == "S":
        if weight < 12:
            return FormSpace("S", weight, (), ())
        inner = space_basis("M", weight - 12, order)
        d = delta(order)
        basis = tuple(d * b for b in inner.basis)
        labels = tuple(f"Delta*{lab}" for lab in inner.labels)
        _certify_independent(basis, order, f"S_{weight}")
        return FormSpace("S", weight, basis, labels)

    # kind == 'F': quotients by Delta with the constant term removed
    inner = space_basis("M", weight + 12, order + 2)
    dinv = delta(order + 2).invert()
    candidates = [b * dinv for b in inner.basis]
    kernel = linalg.nullspace([[c.coeff(0) for c in candidates]])
    combos = []
    for vec in kernel:
        acc = RationalSeries.zero(order)
        for x, cand in zip(vec, candidates):
            if x:
                acc = acc + cand * x
        combos.append(acc.truncate(order))
    if not combos:
        return FormSpace("F", weight, (), ())
    bound = min(c.order for c in combos)
    rows, exps = _coeff_rows(combos, bound)
    # rows of `mat` are the combos' coefficient vectors
    mat = [[rows[i][j] for i in range(len(rows))] for j in range(len(combos))]
    red, pivots = linalg.rref(mat)
    if len(pivots) < len(kernel):
        raise ValueError(f"order {order} too small to certify independence of F_{weight}")
    basis = tuple(RationalSeries.from_terms({e: c for e, c in zip(exps, red[i]) if c}, bound)
                  for i in range(len(pivots)))
    labels = tuple(f"F{weight}[{i}]" for i in range(len(pivots)))
    return FormSpace("F", weight, basis, labels)


def vacuum_zpoints(kmax, order):
    """The traces of L[-2]^k on the vacuum for k = 0..kmax, by the recursion on
    q-series: z_0 = j, z_r = D z_{r-1} + sum_l n_l(r) e_2l z_{r-l}, each step a
    Serre derivative or a truncated product, cut at `order` at the end."""
    order = Fraction(order)
    z = [modular.jfunction(order + 1)]
    etable = {l: modular.eisenstein(2 * l, order + 2) for l in range(2, kmax + 2)}
    for r in range(1, kmax + 1):
        cur = modular.serre_derive(z[r - 1], 2 * (r - 1))
        for l in range(2, r + 1):
            nl = compute_nl(r, l)
            if nl:
                cur = cur + etable[l] * z[r - l] * nl
        z.append(cur)
    return [x.truncate(order) for x in z]
