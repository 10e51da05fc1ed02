"""Modular objects as exact truncated q-series.

Normalizations: the Eisenstein series of weight k is
-B_k/k! + (2/(k-1)!) * sum sigma_{k-1}(n) q^n (so the constant is not 1), the
weight-2 quasimodular case is allowed, and the Serre derivative of a weight-k
form f is q*df/dq + k*E_2*f.  Holomorphic spaces of weight k are spanned by
monomials E_4^a E_6^b with 4a + 6b = k; cusp spaces multiply by Delta; the
pole-allowed spaces divide weight-(k+12) forms by Delta and remove the
constant term.

E_k, Delta, j and the form spaces are each built once per power-of-two order
(at least 16) and every call is cut from that table with `truncate`, which
copies; the sigma_{k-1}(n) of E_k come from one divisor sieve over the table's
range, and 1/Delta from the integer recurrence of prod (1 - q^n)^-24.  A space
is certified at the requested order from its table's pivot exponents and, if
short, refused as a space built at that order would be.  Fits, certificates
and ideal membership read coefficients through `coeff_vectors` and eliminate
fraction-free (`_linalg`); the per-order Fraction routes are the tests'
differential oracles (`reference_series.space_basis`, `reference_linalg`).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import ceil, factorial, lcm

from . import _linalg
from .qseries import RationalSeries, TruncationError

__all__ = [
    "bernoulli",
    "eisenstein",
    "eta",
    "delta",
    "theta",
    "jfunction",
    "serre_derive",
    "FormSpace",
    "coeff_vectors",
    "space_basis",
    "fit",
]

def _table_order(order) -> int:
    """Smallest power of two (at least 16) not below ceil(order): a table at it
    covers every index below `order`, and one is built only as order doubles."""
    return max(16, 1 << max(0, ceil(order) - 1).bit_length())


@cache
def _bernoulli_table(top: int) -> tuple:
    f = RationalSeries.from_terms(
        {j: Fraction(1, factorial(j + 1)) for j in range(top + 1)}, top + 1
    )
    g = f.invert()
    return tuple(g.coeff(j) * factorial(j) for j in range(top + 1))


def bernoulli(k: int) -> Fraction:
    """k-th Bernoulli number from the t/(e^t - 1) generating function.

    Computed by inverting the series (e^t - 1)/t = sum t^j/(j+1)!; the
    convention gives bernoulli(1) = -1/2.  Tables cover indices up to a power
    of two, so a new table is built only when k doubles.
    """
    if k < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    return _bernoulli_table(_table_order(k))[k]


@cache
def _eisenstein_table(k: int, top: int) -> RationalSeries:
    # divisor sieve: sigma[n] = sum of d^(k-1) over d | n, for every n < top
    sigma = [0] * top
    for d in range(1, top):
        p = d ** (k - 1)
        for m in range(d, top, d):
            sigma[m] += p
    lead = Fraction(2, factorial(k - 1))
    terms = {n: lead * s for n, s in enumerate(sigma)}
    terms[0] = -bernoulli(k) / factorial(k)
    return RationalSeries(1, terms, top)


def eisenstein(k: int, order) -> RationalSeries:
    """Weight-k Eisenstein series through the given order (k even, k >= 2)."""
    if k < 2 or k % 2:
        raise ValueError("Eisenstein weight must be an even integer >= 2")
    order = Fraction(order)
    return _eisenstein_table(k, _table_order(order)).truncate(order)


def eta(order) -> RationalSeries:
    """Dedekind eta q^{1/24} prod_{n>=1} (1 - q^n), truncated at `order`.

    Summed by Euler's pentagonal number theorem,
    prod (1 - q^n) = sum_{k in Z} (-1)^k q^{k(3k-1)/2}, in O(order) terms.
    """
    order = Fraction(order)
    if order <= 0:
        raise TruncationError("eta needs a positive truncation order")
    terms = {}
    k = 0
    while k * (3 * k - 1) // 2 + Fraction(1, 24) < order:
        for p in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            terms[p + Fraction(1, 24)] = (-1) ** k
        k += 1
    return RationalSeries.from_terms(terms, order)


@cache
def _delta_table(top: int) -> RationalSeries:
    return eta(top).pow_int(24)


def delta(order) -> RationalSeries:
    """Discriminant form eta^24 = q - 24q^2 + 252q^3 - ..."""
    order = Fraction(order)
    if order <= 0:
        raise TruncationError("delta needs a positive truncation order")
    return _delta_table(_table_order(order)).truncate(order)


def theta(which: int, order) -> RationalSeries:
    """Theta constants on the (1/8)Z exponent lattice, summed in O(order) terms.

    The Jacobi triple product turns each product into a sum over Z:
    theta(1) = 2 q^{1/8} prod (1-q^n)(1+q^n)^2     = 2 sum_{n>=0} q^{(2n+1)^2/8}
    theta(2) =           prod (1-q^n)(1-q^{n-1/2})^2 = sum_{n in Z} (-1)^n q^{n^2/2}
    theta(3) =           prod (1-q^n)(1+q^{n-1/2})^2 = sum_{n in Z} q^{n^2/2}
    """
    if which not in (1, 2, 3):
        raise ValueError("theta index must be 1, 2, or 3")
    order = Fraction(order)
    if order <= 0:
        raise TruncationError("theta needs a positive truncation order")
    terms = {}
    n = 0
    while (e := Fraction((2 * n + 1) ** 2, 8) if which == 1 else Fraction(n * n, 2)) < order:
        sign = -1 if which == 2 and n % 2 else 1
        terms[e] = sign if which != 1 and n == 0 else 2 * sign
        n += 1
    return RationalSeries.from_terms(terms, order)


@cache
def _delta_inverse(top: int) -> RationalSeries:
    """1/Delta = q^-1 prod (1 - q^n)^-24 through order `top`, shared by j and F_k.

    The product's logarithmic derivative is 24 sum sigma(n) q^n, so its
    integer coefficients satisfy n a_n = 24 sum_{k=1}^{n} sigma(k) a_{n-k}.
    """
    sigma = [0] * (top + 1)
    for d in range(1, top + 1):
        for m in range(d, top + 1, d):
            sigma[m] += d
    a = [1]
    for n in range(1, top + 1):
        a.append(24 * sum(sigma[k] * a[n - k] for k in range(1, n + 1)) // n)
    return RationalSeries(1, {n - 1: Fraction(c) for n, c in enumerate(a)}, top)


@cache
def _jfunction_table(top: int) -> RationalSeries:
    raw = eisenstein(4, top + 2).pow_int(3) * _delta_inverse(top)
    raw = raw * (Fraction(1) / raw.coeff(-1))
    return raw - raw.coeff(0)


def jfunction(order) -> RationalSeries:
    """Hauptmodul normalized to q^{-1} + 0 + 196884 q + ... (constant removed)."""
    order = Fraction(order)
    if order <= 0:
        raise TruncationError("jfunction needs a positive truncation order")
    return _jfunction_table(_table_order(order)).truncate(order)


def serre_derive(f: RationalSeries, weight) -> RationalSeries:
    """Serre derivative q*df/dq + weight*E_2*f (raises weight by 2)."""
    weight = Fraction(weight)
    df = f.q_derive()
    if weight == 0:
        return df
    e2_order = f.order - min(f.valuation(), Fraction(0)) + 1
    return df + eisenstein(2, e2_order) * f * weight


@dataclass(frozen=True)
class FormSpace:
    """An exact basis of a finite-dimensional space of q-expansions."""

    kind: str  # 'M' holomorphic, 'S' cusp, 'F' pole-allowed constant-free
    weight: int
    basis: tuple
    labels: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "weight": self.weight,
            "basis": [b.to_json_obj() for b in self.basis],
            "labels": list(self.labels),
        }


def coeff_vectors(series, bound):
    """Coefficient vectors of `series` over the union of their exponents below `bound`.

    The series are aligned once to their common exponent denominator d and read
    through `terms`.  Returns (d, exps, vectors): the sorted exponents scaled by
    d, and for each series its coefficients at those exponents.
    """
    d = lcm(*(s.denom for s in series))
    limit = ceil(bound * d)
    aligned = [s.terms if s.denom == d else {e * (d // s.denom): c for e, c in s.terms.items()}
               for s in series]
    exps = sorted({e for terms in aligned for e in terms if e < limit})
    zero = Fraction(0)
    return d, exps, [[terms.get(e, zero) for e in exps] for terms in aligned]


def _powers(x: RationalSeries, first: int, step: int, count: int) -> list:
    """x^first, x^(first + step), ... (count of them, None for x^0), one product a step."""
    out = [x.pow_int(first) if first else None]
    stepped = x.pow_int(step) if count > 1 else None
    for _ in range(count - 1):
        out.append(stepped if out[-1] is None else out[-1] * stepped)
    return out


def _monomials(weight: int, order):
    """E_4^a E_6^b with 4a + 6b = weight at `order`, by increasing b, and their labels.

    Along the list b steps by 2 and a by -3, so the powers come one product
    apart; a factor x^0 = 1 is left out rather than multiplied in.
    """
    if weight == 0:
        return (RationalSeries.one(order),), ("1",)
    pairs = [((weight - 6 * b) // 4, b) for b in range(weight // 6 + 1)
             if (weight - 6 * b) % 4 == 0]
    if not pairs:
        return (), ()
    fours = _powers(eisenstein(4, order), pairs[-1][0], 3, len(pairs))[::-1]
    sixes = _powers(eisenstein(6, order), pairs[0][1], 2, len(pairs))
    basis = tuple(y if x is None else x if y is None else x * y for x, y in zip(fours, sixes))
    return basis, tuple(f"E4^{a}*E6^{b}" for a, b in pairs)


@cache
def _space_table(kind: str, weight: int, top: int):
    """A form space at order `top`: (basis, labels, pivot exponents, dimension).

    The pivot exponents are those of the pivot columns of the reduced echelon
    form of the coefficient rows, over ascending exponents: the cut at order o
    has rank #{pivot exponents < o}.  S multiplies the M table at the same
    `top` by Delta; F builds its M_{k+12} candidates directly at top + 2, not
    through a cut, which would build an M table at twice the order.  The F
    basis is that echelon form of the constant-free combinations g/Delta, and
    its dimension is their number, so a table short of it certifies no order.
    """
    if kind == "M":
        basis, labels = _monomials(weight, top)
    elif kind == "S":
        if weight < 12:
            return (), (), (), 0
        inner, inner_labels, _, _ = _space_table("M", weight - 12, top)
        basis = tuple(_delta_table(top) * b for b in inner)
        labels = tuple(f"Delta*{lab}" for lab in inner_labels)
    else:
        dinv = _delta_inverse(top)
        candidates = [b * dinv for b in _monomials(weight + 12, top + 2)[0]]
        basis = []
        for vec in _linalg.nullspace([[c.coeff(0) for c in candidates]]):
            acc = RationalSeries.zero(top)
            for x, cand in zip(vec, candidates):
                if x:
                    acc = acc + cand * x
            basis.append(acc)
    d, exps, rows = coeff_vectors(basis, top)
    red, pivots = _linalg.rref(rows)
    dim = len(basis)
    if kind == "F":
        basis = tuple(RationalSeries(d, {e: c for e, c in zip(exps, row) if c}, top)
                      for row in red[:len(pivots)])
        labels = tuple(f"F{weight}[{i}]" for i in range(len(basis)))
    return basis, labels, tuple(Fraction(exps[c], d) for c in pivots), dim


def _refuse(kind: str, weight: int, order: Fraction, short: bool):
    """Raise what building the space directly at `order` raises, if anything.

    As in that construction the inner M space refuses first (at order + 2 for
    F), then Delta and its inverse, then F's constant-term row; a cut with
    fewer pivot exponents below `order` than the dimension raises last.
    """
    if kind == "S" and weight >= 12:
        space_basis("M", weight - 12, order)
        delta(order)  # TruncationError at order <= 0
    elif kind == "F":
        inner = space_basis("M", weight + 12, order + 2)
        dinv = delta(order + 2).invert()  # TruncationError at order <= -1
        if inner.basis:
            (inner.basis[0] * dinv).coeff(0)  # TruncationError at order <= 0
    if short:
        raise ValueError(f"order {order} too small to certify independence of {kind}_{weight}")


def space_basis(kind: str, weight: int, order) -> FormSpace:
    """Exact basis of M_k (holomorphic), S_k (cusp), or F_k (pole-allowed).

    F_k elements are g/Delta for g in M_{k+12}, restricted to zero constant
    term; the returned basis is in echelon form by leading exponent.  Raises
    ValueError when `order` is too small to certify the full dimension.  Each
    space is cut from a table at the power-of-two order above `order` and
    certified at `order` from the table's pivot exponents.
    """
    if kind not in ("M", "S", "F"):
        raise ValueError("space kind must be 'M', 'S', or 'F'")
    # F_k needs M_{k+12}, so F stops at weight -12
    if weight % 2 or weight < (-12 if kind == "F" else 0):
        raise ValueError("weight must be a nonnegative even integer")
    order = Fraction(order)
    basis, labels, pivots, dim = _space_table(kind, weight, _table_order(order))
    short = sum(1 for e in pivots if e < order) < dim
    if short or order <= 0:
        _refuse(kind, weight, order, short)
    return FormSpace(kind, weight, tuple(b.truncate(order) for b in basis), labels)


def _solve(columns, f: RationalSeries):
    """Exact c with sum c_i columns[i] = f below every order involved, or None."""
    if not columns:
        return [] if f.is_zero() else None
    bound = min([f.order] + [col.order for col in columns])
    *vectors, target = coeff_vectors((*columns, f), bound)[2]
    return _linalg.solve_in_span(vectors, target)


def fit(f: RationalSeries, space: FormSpace):
    """Exact coefficients expressing f in the space's basis, or None.

    The fit must hold at every exponent known to both sides (`_solve`, shared
    with the ideal slice); there is no least-squares fallback.
    """
    bound = min([f.order] + [b.order for b in space.basis])
    if any(b.valuation() >= bound for b in space.basis):
        raise TruncationError("truncation order too small to attempt a fit")
    return _solve(space.basis, f)
