"""Level-one forms as exact polynomials {(a, b): Fraction} in e_4 and e_6.

e_k is the library's Eisenstein series (`modular.eisenstein`), -B_k/k! E_k.
There Ramanujan's equations read D e_4 = 14 e_6 and D e_6 = (60/7) e_4^2 for
the Serre derivative D, a derivation of the graded ring, and the Weierstrass
recurrence gives every e_2l with no constant, so Serre derivatives and
Eisenstein products are exact and need no truncation order; only `series`
(p as a q-series) and `expand` (p/Delta) take one.  Nothing is built at import.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from types import MappingProxyType

from . import modular
from .qseries import RationalSeries

SERRE_E4 = Fraction(14)          # D e_4 = 14 e_6
SERRE_E6 = Fraction(60, 7)       # D e_6 = (60/7) e_4^2


def _collect(pairs) -> dict:
    out = {}
    for m, c in pairs:
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def add(p, q) -> dict:
    return _collect([*p.items(), *q.items()])


def scale(p, c) -> dict:
    return {m: x * c for m, x in p.items()} if c else {}


def mul(p, q) -> dict:
    return _collect(((a1 + a2, b1 + b2), c1 * c2)
                    for (a1, b1), c1 in p.items() for (a2, b2), c2 in q.items())


def serre(p) -> dict:
    """D p, with D(e_4^a e_6^b) = 14a e_4^(a-1) e_6^(b+1) + (60/7)b e_4^(a+2) e_6^(b-1)."""
    return _collect([((a - 1, b + 1), SERRE_E4 * a * c) for (a, b), c in p.items() if a]
                    + [((a + 2, b - 1), SERRE_E6 * b * c) for (a, b), c in p.items() if b])


@cache
def eisenstein(k: int) -> MappingProxyType:
    """e_k for even k >= 4, by (2n+1)(n-3)(2n-1) e_2n = 3 sum_{j=2}^{n-2}
    (2j-1)(2n-2j-1) e_2j e_2(n-j) with n = k/2."""
    if k < 4 or k % 2:
        raise ValueError("Eisenstein weight must be an even integer >= 4")
    n, acc = k // 2, {}
    if n < 4:
        return MappingProxyType({(1, 0) if n == 2 else (0, 1): Fraction(1)})
    for j in range(2, n - 1):
        acc = add(acc, scale(mul(eisenstein(2 * j), eisenstein(2 * (n - j))),
                             (2 * j - 1) * (2 * n - 2 * j - 1)))
    return MappingProxyType(scale(acc, Fraction(3, (2 * n + 1) * (n - 3) * (2 * n - 1))))


def delta() -> dict:
    """Delta = (E_4^3 - E_6^2)/1728 with E_4 = 720 e_4 and E_6 = -30240 e_6."""
    return {(3, 0): Fraction(720**3, 1728), (0, 2): Fraction(-(30240**2), 1728)}


def series(p, order):
    """The q-series of p through `order`, for p homogeneous of weight w.

    Sums c_ab e_4^a e_6^b from the cached M_w monomial table (ordered by b, so
    e_4^a e_6^b sits at b // 2), each cut at `order`.
    """
    order = Fraction(order)
    acc = RationalSeries.zero(order)
    if p:
        a, b = next(iter(p))
        basis = modular._space_table("M", 4 * a + 6 * b, modular._table_order(order))[0]
        for (a, b), c in p.items():
            acc = acc + basis[b // 2].truncate(order) * c
    return acc


def expand(p, order):
    """The q-series of p/Delta through `order`: `series` through order + 1
    (1/Delta has valuation -1), multiplied once by 1/Delta."""
    top = Fraction(order) + 1
    return series(p, top) * modular._delta_inverse(modular._table_order(top)).truncate(top)
