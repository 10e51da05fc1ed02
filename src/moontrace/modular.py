"""Modular objects as exact truncated q-series.

Normalizations: the Eisenstein series of weight k is
-B_k/k! + (2/(k-1)!) * sum sigma_{k-1}(n) q^n (so the constant is not 1), the
weight-2 quasimodular case is allowed, and the Serre derivative of a weight-k
form f is q*df/dq + k*E_2*f.  Holomorphic spaces of weight k are spanned by
monomials E_4^a E_6^b with 4a + 6b = k; cusp spaces multiply by Delta; the
pole-allowed spaces divide weight-(k+12) forms by Delta and remove the
constant term.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial

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
    "space_basis",
    "fit",
]

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
    return _bernoulli_table(max(16, 1 << k.bit_length()))[k]


def _sigma(power: int, n: int) -> int:
    return sum(d**power for d in range(1, n + 1) if n % d == 0)


def eisenstein(k: int, order) -> RationalSeries:
    """Weight-k Eisenstein series through the given order (k even, k >= 2)."""
    if k < 2 or k % 2:
        raise ValueError("Eisenstein weight must be an even integer >= 2")
    order = Fraction(order)
    terms = {0: -bernoulli(k) / factorial(k)}
    lead = Fraction(2, factorial(k - 1))
    n = 1
    while n < order:
        terms[n] = lead * _sigma(k - 1, n)
        n += 1
    return RationalSeries.from_terms(terms, order)


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


def delta(order) -> RationalSeries:
    """Discriminant form eta^24 = q - 24q^2 + 252q^3 - ..."""
    order = Fraction(order)
    return eta(order).pow_int(24).truncate(order)


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


def jfunction(order) -> RationalSeries:
    """Hauptmodul normalized to q^{-1} + 0 + 196884 q + ... (constant removed)."""
    order = Fraction(order)
    head = order + 2
    raw = eisenstein(4, head).pow_int(3) * delta(head).invert()
    raw = raw * (Fraction(1) / raw.coeff(-1))
    return (raw - raw.coeff(0)).truncate(order)


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


def _coeff_rows(series_list, bound):
    """Coefficient matrix over the union of supports below `bound`."""
    exps = sorted({e for s in series_list for e in s.support() if e < bound})
    return [[s.coeff(e) for s in series_list] for e in exps], exps


def _certify_independent(basis, order, what: str):
    if not basis:
        return
    bound = min(b.order for b in basis)
    rows, _ = _coeff_rows(basis, bound)
    if _linalg.rank(rows) != len(basis):
        raise ValueError(f"order {order} too small to certify independence of {what}")


def space_basis(kind: str, weight: int, order) -> FormSpace:
    """Exact basis of M_k (holomorphic), S_k (cusp), or F_k (pole-allowed).

    F_k elements are g/Delta for g in M_{k+12}, restricted to zero constant
    term; the returned basis is in echelon form by leading exponent.
    """
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
        space = FormSpace("M", weight, basis, labels)
        _certify_independent(basis, order, f"M_{weight}")
        return space

    if kind == "S":
        if weight < 12:
            return FormSpace("S", weight, (), ())
        inner = space_basis("M", weight - 12, order)
        d = delta(order)
        basis = tuple(d * b for b in inner.basis)
        labels = tuple(f"Delta*{lab}" for lab in inner.labels)
        space = FormSpace("S", weight, basis, labels)
        _certify_independent(basis, order, f"S_{weight}")
        return space

    # kind == 'F': quotients by Delta with the constant term removed
    inner = space_basis("M", weight + 12, order + 2)
    dinv = delta(order + 2).invert()
    candidates = [b * dinv for b in inner.basis]
    const_row = [[c.coeff(0) for c in candidates]]
    kernel = _linalg.nullspace(const_row)
    combos = []
    for vec in kernel:
        acc = RationalSeries.zero(order)
        for x, cand in zip(vec, candidates):
            if x:
                acc = acc + cand * x
        combos.append(acc.truncate(order))
    if combos:
        bound = min(c.order for c in combos)
        rows, exps = _coeff_rows(combos, bound)
        # echelonize the coefficient matrix (columns = combos) transposed:
        # rows of `mat` are the combos' coefficient vectors
        mat = [[rows[i][j] for i in range(len(rows))] for j in range(len(combos))]
        red, pivots = _linalg.rref(mat)
        basis_list, labels_list = [], []
        for i, _ in enumerate(pivots):
            acc = RationalSeries.from_terms(
                {e: c for e, c in zip(exps, red[i]) if c}, bound
            )
            basis_list.append(acc)
            labels_list.append(f"F{weight}[{i}]")
        basis, labels = tuple(basis_list), tuple(labels_list)
    else:
        basis, labels = (), ()
    space = FormSpace("F", weight, basis, labels)
    _certify_independent(basis, order, f"F_{weight}")
    return space


def fit(f: RationalSeries, space: FormSpace):
    """Exact coefficients expressing f in the space's basis, or None.

    The fit must hold at every exponent known to both sides; there is no
    least-squares fallback.
    """
    if not space.basis:
        return [] if f.is_zero() else None
    bound = min([f.order] + [b.order for b in space.basis])
    if bound <= max((b.valuation() for b in space.basis), default=Fraction(0)):
        raise TruncationError("truncation order too small to attempt a fit")
    exps = sorted(
        {e for s in (f, *space.basis) for e in s.support() if e < bound}
    )
    columns = [[b.coeff(e) for e in exps] for b in space.basis]
    target = [f.coeff(e) for e in exps]
    return _linalg.solve_in_span(columns, target)
