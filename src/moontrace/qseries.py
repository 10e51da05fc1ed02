"""Exact truncated q-series over the rationals.

Series live on an exponent lattice (1/D)*Z for a positive integer denominator
D, with Fraction coefficients and an explicit rational truncation order: terms
with exponent >= order are unknown, not zero.  All operations propagate a sound
order bound, so a result never claims coefficients it cannot know.  Equality
is exact: `a == b` holds when the lattice, the terms and the order all match,
so a result that lost certified order compares unequal; to compare two series
at a common order, truncate both to it first.

Two series types share the arithmetic core:

* RationalSeries -- plain Fraction coefficients.
* MarkerSeries   -- coefficients are polynomials in a bookkeeping marker x
  (used to grade traces by particle count); evaluation at x = +1/-1 returns a
  RationalSeries.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "TruncationError",
    "RouteDisagreement",
    "MarkerPoly",
    "RationalSeries",
    "MarkerSeries",
]


class TruncationError(ValueError):
    """A computation needs coefficients beyond the known truncation order."""


class RouteDisagreement(ArithmeticError):
    """Two independent routes to the same quantity disagree: an identity failed."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"expected a rational value, got {type(x).__name__}")


class MarkerPoly:
    """Polynomial in the marker variable x with Fraction coefficients.

    Immutable; `coeffs[d]` is the coefficient of x^d, trailing zeros stripped.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c) -> "MarkerPoly":
        return cls((c,))

    @classmethod
    def x_power(cls, d: int, c=1) -> "MarkerPoly":
        return cls((0,) * d + (_as_fraction(c),))

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is -1 by convention
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, MarkerPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == MarkerPoly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self) -> "MarkerPoly":
        return MarkerPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other) -> "MarkerPoly":
        if isinstance(other, (int, Fraction)):
            other = MarkerPoly.const(other)
        elif not isinstance(other, MarkerPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return MarkerPoly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "MarkerPoly":
        return self + (-other if isinstance(other, MarkerPoly) else MarkerPoly.const(-_as_fraction(other)))

    def __mul__(self, other) -> "MarkerPoly":
        if isinstance(other, (int, Fraction)):
            return MarkerPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, MarkerPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return MarkerPoly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return MarkerPoly(out)

    __rmul__ = __mul__

    def eval(self, x0) -> Fraction:
        x0 = _as_fraction(x0)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    def __repr__(self) -> str:
        parts = [str(c) if d == 0 else f"{c}*x" if d == 1 else f"{c}*x^{d}"
                 for d, c in enumerate(self.coeffs) if c]
        return "MarkerPoly(" + (" + ".join(parts) or "0") + ")"


def _ceil_scaled(order: Fraction, denom: int) -> int:
    """Exponents k/denom below `order` are exactly the integers k below this."""
    return -(-order.numerator * denom // order.denominator)


def _numerators(terms: dict, step: int, stride: int):
    """Clear {offset: digits} to one denominator, laid out densely.

    Digit j of the term at offset e lands at index (e // step) * stride + j.
    """
    den = lcm(*(x.denominator for digits in terms.values() for x in digits))
    out = [0] * ((max(terms) // step + 1) * stride)
    for e, digits in terms.items():
        base = e // step * stride
        for j, x in enumerate(digits):
            out[base + j] = x.numerator * (den // x.denominator)
    return den, out


def _pack(nums: list, width: int) -> int:
    """sum nums[i] * 256^(width*i) for signed nums, built from byte strings."""
    pos = b"".join((n if n > 0 else 0).to_bytes(width, "little") for n in nums)
    neg = b"".join((-n if n < 0 else 0).to_bytes(width, "little") for n in nums)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


class _SeriesBase:
    """Shared arithmetic for truncated series; coefficient type set by subclass."""

    __slots__ = ("denom", "terms", "order")

    # subclasses define _wrap (a value as a coefficient) and _digits /
    # _from_digits (a coefficient to and from its tuple of Fraction digits,
    # one per marker degree), which is all the product kernel needs

    def __init__(self, denom: int, terms: dict, order):
        """sum terms[k] q^(k/denom) + O(q^order), normalized: zero terms and
        terms at or beyond the order are dropped, and denom is reduced to the
        coarsest lattice that holds the rest."""
        if denom <= 0:
            raise ValueError("denominator must be positive")
        self.order = _as_fraction(order)
        limit = _ceil_scaled(self.order, denom)
        terms = {e: c for e, c in terms.items() if c and e < limit}
        g = gcd(denom, *terms)
        self.denom = denom // g
        self.terms = {e // g: c for e, c in terms.items()} if g > 1 else terms

    # constructors ---------------------------------------------------------
    @classmethod
    def from_terms(cls, terms, order):
        """Build from {exponent: coefficient}; exponents rational."""
        items = terms.items() if hasattr(terms, "items") else terms
        pairs = [(_as_fraction(e), cls._wrap(c)) for e, c in items]
        denom = lcm(*(e.denominator for e, _ in pairs))
        scaled = {}
        for e, c in pairs:
            k = int(e * denom)
            scaled[k] = scaled.get(k, cls._wrap(0)) + c
        return cls(denom, scaled, order)

    @classmethod
    def zero(cls, order):
        return cls(1, {}, order)

    @classmethod
    def one(cls, order):
        return cls.monomial(1, 0, order)

    @classmethod
    def monomial(cls, coeff, exponent, order):
        return cls.from_terms([(exponent, coeff)], order)

    # queries ----------------------------------------------------------------
    def valuation(self) -> Fraction:
        """Smallest exponent with a nonzero coefficient; `order` if none known."""
        if not self.terms:
            return self.order
        return Fraction(min(self.terms), self.denom)

    def coeff(self, exponent):
        """Coefficient at a rational exponent; TruncationError beyond order."""
        e = _as_fraction(exponent)
        if e >= self.order:
            raise TruncationError(f"coefficient at q^{e} is beyond order {self.order}")
        scaled = e * self.denom
        if scaled.denominator != 1:
            return self._wrap(0)
        return self.terms.get(int(scaled), self._wrap(0))

    def support(self):
        """Sorted list of exponents carrying nonzero coefficients."""
        return sorted(Fraction(e, self.denom) for e in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # alignment --------------------------------------------------------------
    def _aligned(self, other):
        d = lcm(self.denom, other.denom)
        fa, fb = d // self.denom, d // other.denom
        ta = self.terms if fa == 1 else {e * fa: c for e, c in self.terms.items()}
        tb = other.terms if fb == 1 else {e * fb: c for e, c in other.terms.items()}
        return d, ta, tb

    # arithmetic ---------------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.monomial(other, 0, self.order)
        if type(other) is not type(self):
            return NotImplemented
        d, ta, tb = self._aligned(other)
        out = dict(ta)
        for e, c in tb.items():
            out[e] = out.get(e, self._wrap(0)) + c
        return type(self)(d, out, min(self.order, other.order))

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.denom, {e: -c for e, c in self.terms.items()}, self.order)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.monomial(other, 0, self.order)
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _cmul(self, c):
        """Scale every coefficient by c (a coefficient-type or rational value)."""
        if not c:
            return type(self)(1, {}, self.order)
        return type(self)(self.denom, {e: v * c for e, v in self.terms.items()}, self.order)

    @classmethod
    def _product(cls, ta: dict, tb: dict, limit: int) -> dict:
        """Exact product of two term dicts on one exponent lattice, below `limit`.

        Kronecker substitution: each operand is cleared to one integer
        denominator and its numerators become the base-256^width digits of a
        single integer, the marker degree j of exponent slot i at digit
        i * stride + j.  One big-integer product then holds every coefficient;
        the width leaves room for the signed digit sums, which are read back
        through a bias of half a digit.
        """
        if not ta or not tb:
            return {}
        lo_a, lo_b = min(ta), min(tb)
        base = lo_a + lo_b
        if base >= limit:
            return {}
        ta = {e - lo_a: cls._digits(c) for e, c in ta.items() if e + lo_b < limit}
        tb = {e - lo_b: cls._digits(c) for e, c in tb.items() if e + lo_a < limit}
        step = gcd(*ta, *tb) or 1
        stride = max(map(len, ta.values())) + max(map(len, tb.values())) - 1
        den_a, xa = _numerators(ta, step, stride)
        den_b, xb = _numerators(tb, step, stride)
        bits = (max(map(abs, xa)).bit_length() + max(map(abs, xb)).bit_length()
                + min(len(xa), len(xb)).bit_length())
        width = bits // 8 + 1
        slots = min((limit - base - 1) // step + 1, (len(xa) + len(xb)) // stride - 1)
        n = slots * stride
        half = 1 << (8 * width - 1)
        bias = int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")
        packed = (_pack(xa, width) * _pack(xb, width) + bias) & ((1 << 8 * width * n) - 1)
        raw = packed.to_bytes(width * n, "little")
        den = den_a * den_b
        out = {}
        for i in range(slots):
            at = i * stride * width
            digits = [int.from_bytes(raw[k:k + width], "little") - half
                      for k in range(at, at + stride * width, width)]
            if any(digits):
                out[base + i * step] = cls._from_digits([Fraction(x, den) for x in digits])
        return out

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._cmul(_as_fraction(other))
        if type(other) is not type(self):
            return NotImplemented
        # sound order: each factor's unknown tail enters at order + other's valuation
        bound = min(self.order + other.valuation(), other.order + self.valuation())
        d, ta, tb = self._aligned(other)
        return type(self)(d, self._product(ta, tb, _ceil_scaled(bound, d)), bound)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._cmul(Fraction(1, 1) / _as_fraction(other))
        if type(other) is type(self):
            return self * other.invert()
        return NotImplemented

    def pow_int(self, n: int):
        """Integer power by repeated squaring; negative n inverts first."""
        if n < 0:
            return self.invert().pow_int(-n)
        if n == 0:
            return self.one(self.order)
        base = self
        result = None
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def _shift(self, e: Fraction):
        """Multiply by q^e exactly (pure reindexing; no knowledge change)."""
        e = _as_fraction(e)
        d = lcm(self.denom, e.denominator)
        f = d // self.denom
        k = int(e * d)
        return type(self)(d, {x * f + k: c for x, c in self.terms.items()}, self.order + e)

    def invert(self):
        """Multiplicative inverse.

        Requires a nonzero leading term with an invertible coefficient.  For a
        series of valuation v and order o the inverse is sound through o - 2v.
        Newton iteration doubles the known precision p of g = 1/b each step:
        if b g = 1 mod q^p then b g (2 - b g) = 1 mod q^{2p}.
        """
        if not self.terms:
            raise TruncationError("cannot invert a series with no known nonzero term")
        v = self.valuation()
        lead = self._digits(self.terms[int(v * self.denom)])
        if len(lead) != 1:
            raise ValueError("cannot invert a marker-dependent leading coefficient")
        recip = 1 / lead[0]
        # b = 1 + u with val(u) > 0, known through order - v
        b = self._shift(-v)._cmul(recip)
        limit = _ceil_scaled(b.order, b.denom)
        g = {0: self._wrap(1)}
        p = min((e for e in b.terms if e), default=limit)
        while p < limit:
            p = min(2 * p, limit)
            # 1 - b g vanishes below the old precision, so g * (1 - b g) only adds terms
            err = {e: -c for e, c in self._product(b.terms, g, p).items() if e}
            g.update(self._product(g, err, p))
        return type(self)(b.denom, g, b.order)._shift(-v)._cmul(recip)

    def exp_series(self):
        """exp of a series with positive valuation (order preserved)."""
        if self.terms and self.valuation() <= 0:
            raise ValueError("exp_series requires positive valuation")
        target = self.order
        if target <= 0:
            raise TruncationError("exp_series needs a positive truncation order")
        acc = t = self.one(target)
        k = 1
        while (t := (t * self).truncate(target)._cmul(Fraction(1, k))).terms:
            acc = acc + t
            k += 1
        return acc

    def q_derive(self):
        """Apply q * d/dq (each term scales by its exponent)."""
        out = {e: c * Fraction(e, self.denom) for e, c in self.terms.items() if e}
        return type(self)(self.denom, out, self.order)

    def rescale(self, r):
        """Substitute q -> q^r for rational r > 0 (a ring map; order scales)."""
        r = _as_fraction(r)
        if r <= 0:
            raise ValueError("rescale factor must be positive")
        d = self.denom * r.denominator
        out = {e * r.numerator: c for e, c in self.terms.items()}
        return type(self)(d, out, self.order * r)

    def truncate(self, order):
        """Weaken the truncation order (never claims new knowledge)."""
        order = min(self.order, _as_fraction(order))
        return type(self)(self.denom, self.terms, order)

    # comparison -----------------------------------------------------------
    def __eq__(self, other) -> bool:
        """Exact: same lattice, terms and truncation order.  Series known to
        different orders differ; to compare at a common order, truncate first.
        A number compares as the constant series at `self.order`."""
        if isinstance(other, (int, Fraction)):
            other = self.monomial(other, 0, self.order)
        if type(other) is not type(self):
            return NotImplemented
        return (self.denom, self.terms, self.order) == (other.denom, other.terms, other.order)

    __hash__ = None

    def __repr__(self):
        name = type(self).__name__
        parts = [f"q^{Fraction(e, self.denom)}: {self.terms[e]}" for e in sorted(self.terms)[:8]]
        more = ", ..." if len(self.terms) > 8 else ""
        return f"{name}({{{', '.join(parts)}{more}}}, order={self.order})"


class RationalSeries(_SeriesBase):
    """Truncated q-series with Fraction coefficients on a (1/D)Z exponent lattice."""

    __slots__ = ()

    _wrap = staticmethod(_as_fraction)
    _digits = staticmethod(lambda c: (c,))
    _from_digits = staticmethod(lambda digits: digits[0])

    def __str__(self):
        if not self.terms:
            return f"0 + O(q^{self.order})"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            exp = Fraction(e, self.denom)
            if exp == 0:
                parts.append(f"{c}")
            elif exp == 1:
                parts.append(f"{c}*q")
            else:
                parts.append(f"{c}*q^({exp})")
        return " + ".join(parts) + f" + O(q^{self.order})"

    # canonical JSON interchange -------------------------------------------
    def to_json_obj(self) -> dict:
        d = lcm(self.denom, self.order.denominator)
        f = d // self.denom
        terms = [
            {"exp_num": e * f, "coeff": str(self.terms[e])}
            for e in sorted(self.terms)
        ]
        return {"denominator": d, "order_num": int(self.order * d), "terms": terms}

    @classmethod
    def from_json_obj(cls, obj) -> "RationalSeries":
        d = int(obj["denominator"])
        if d <= 0:
            raise ValueError("denominator must be positive")
        order = Fraction(int(obj["order_num"]), d)
        terms = {int(t["exp_num"]): Fraction(t["coeff"]) for t in obj["terms"]}
        return cls(d, terms, order)


class MarkerSeries(_SeriesBase):
    """Truncated q-series whose coefficients are MarkerPoly values in x."""

    __slots__ = ()

    @staticmethod
    def _wrap(c):
        if isinstance(c, MarkerPoly):
            return c
        return MarkerPoly.const(_as_fraction(c))

    _digits = staticmethod(lambda c: c.coeffs)
    _from_digits = MarkerPoly

    def eval_marker(self, x0) -> RationalSeries:
        """Evaluate the marker at x0 in {+1, -1}, collapsing to a RationalSeries."""
        x0 = _as_fraction(x0)
        if x0 not in (1, -1):
            raise ValueError("marker evaluation is only supported at +1 and -1")
        out = {e: c.eval(x0) for e, c in self.terms.items()}
        return RationalSeries(self.denom, out, self.order)
