"""Integral lattices, short-vector enumeration, theta series, eta products,
and the equivariant two-sector trace assembled from them.

A lattice is its Gram matrix.  Construction reduces the basis by integral LLL
(Cohen, GTM 138, Alg. 2.6.7), which works on the Gram matrix in integers: it
keeps the unimodular transform to the reduced basis, the reduced basis's
leading minors D_k (all positive, which certifies definiteness) and its
integral Gram-Schmidt coefficients lambda_kj, i.e. a fraction-free LDL.  The
Fincke-Pohst short-vector walk runs on that reduced basis with integer norm
budgets and maps the vectors it finds back to the caller's coordinates.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import modular
from ._leech import LEECH_GRAM
from ._linalg import int_kernel
from .qseries import RationalSeries, TruncationError

__all__ = [
    "Lattice",
    "CycleShape",
    "EquivariantSpec",
    "enumerate_vectors",
    "theta_series",
    "twisted_theta",
    "eta_product",
    "equivariant_z",
    "fixed_sublattice_from_automorphism",
    "leech_lattice",
    "identity_spec",
]


def _integer(x) -> int:
    """x as an int; ValueError unless it is integral (2.0 and Fraction(4, 2) are)."""
    if isinstance(x, int):
        return int(x)
    try:
        q = Fraction(x)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{x!r} is not an integer") from None
    if q.denominator != 1:
        raise ValueError(f"{x!r} is not an integer")
    return q.numerator


def _integer_rows(rows):
    return tuple(tuple(_integer(x) for x in row) for row in rows)


def _numerators(v):
    """(integer numerators, least common denominator) of a rational vector."""
    q = [x if isinstance(x, int) else Fraction(x) for x in v]
    den = math.lcm(*(x.denominator for x in q))
    return [x.numerator * (den // x.denominator) for x in q], den


def _lll(g):
    """Integral LLL with delta = 99/100 on the Gram matrix g.

    Returns (u, d, lam).  The rows of the unimodular u are the reduced basis
    in the caller's coordinates.  d[k] is the k-th leading minor of the
    reduced Gram u g u^T (d[0] = 1) and lam[k][j] = d[j + 1] mu_kj (j < k) are
    its integral Gram-Schmidt coefficients, so b*_k has squared length
    d[k + 1] / d[k].  Raises ValueError when a leading minor of g is not
    positive, i.e. g is not positive definite.
    """
    n = len(g)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    d = [1] * (n + 1)
    lam = [[0] * k for k in range(n)]

    def size_reduce(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            u[k] = [a - q * b for a, b in zip(u[k], u[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swap(k):
        u[k], u[k - 1] = u[k - 1], u[k]
        lam[k], lam[k - 1] = lam[k - 1] + lam[k][k - 1:], lam[k][:k - 1]
        c = lam[k][k - 1]
        b = (d[k - 1] * d[k + 1] + c * c) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - c * t) // d[k]
            lam[i][k - 1] = (b * t + c * lam[i][k]) // d[k + 1]
        d[k] = b

    k, kmax = 0, -1
    while k < n:
        if k > kmax:
            # first visit: b_k is still e_k; extend the Gram-Schmidt data
            kmax = k
            for j in range(k + 1):
                s = sum(map(mul, u[j], (row[k] for row in g)))
                for i in range(j):
                    s = (d[i + 1] * s - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = s
                elif s <= 0:
                    raise ValueError("gram matrix is not positive definite")
                else:
                    d[k + 1] = s
            if k == 0:
                k = 1
                continue
        size_reduce(k, k - 1)
        c = lam[k][k - 1]
        if 100 * d[k + 1] * d[k - 1] < 99 * d[k] * d[k] - 100 * c * c:
            swap(k)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    return tuple(map(tuple, u)), tuple(d), tuple(map(tuple, lam))


class Lattice:
    """Positive-definite integral lattice given by its Gram matrix.

    Rank 0 is allowed (the ambient-fixed sublattice of the identity).
    """

    __slots__ = ("gram", "_basis", "_minors", "_lam")

    def __init__(self, gram):
        g = _integer_rows(gram)
        r = len(g)
        if any(len(row) != r for row in g):
            raise ValueError("gram matrix must be square")
        for i in range(r):
            for j in range(i):
                if g[i][j] != g[j][i]:
                    raise ValueError("gram matrix must be symmetric")
        self.gram = g
        self._basis, self._minors, self._lam = _lll(g)

    @property
    def _pivots(self):
        """Squared Gram-Schmidt lengths of the reduced basis; their product is det(gram)."""
        m = self._minors
        return tuple(Fraction(b, a) for a, b in zip(m, m[1:]))

    @property
    def rank(self) -> int:
        return len(self.gram)

    def inner(self, v, w) -> Fraction:
        """<v, w> for rational coordinate vectors, summed in integers over common denominators."""
        nv, dv = _numerators(v)
        nw, dw = _numerators(w)
        if not len(nv) == len(nw) == self.rank:
            raise ValueError("vectors must have the lattice's rank")
        s = sum(a * sum(map(mul, row, nw)) for a, row in zip(nv, self.gram) if a)
        return Fraction(s, dv * dw)

    def norm(self, v) -> Fraction:
        return self.inner(v, v)

    def to_json_obj(self) -> dict:
        return {"rank": self.rank, "gram": [list(row) for row in self.gram]}

    @classmethod
    def from_json_obj(cls, obj) -> "Lattice":
        lat = cls(obj["gram"])
        if lat.rank != obj["rank"]:
            raise ValueError("declared rank does not match the gram matrix")
        return lat

    def __eq__(self, other):
        return isinstance(other, Lattice) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def __repr__(self):
        return f"Lattice(rank={self.rank})"


def leech_lattice() -> Lattice:
    return Lattice(LEECH_GRAM)


def _walk(lat: Lattice, maxnorm: int, leaf) -> int:
    """Fincke-Pohst walk in integers over the LLL-reduced basis.

    With d = lat._minors and L_k = sum_{i>k} lam_ik x_i, the norm of
    sum x_k b_k is sum_k (d_{k+1} x_k + L_k)^2 / (d_k d_{k+1}).  Scaled by
    the common multiple `scale` of the d_k d_{k+1}, every budget is an
    integer, and level k admits the x_k with
    w_k (d_{k+1} x_k + L_k)^2 <= budget, w_k = scale / (d_k d_{k+1}).
    Only one of each pair +-v is visited: its last nonzero coordinate is
    positive.  leaf(x, rest) is called once per pair of nonzero vectors of
    norm <= maxnorm, with x the reduced coordinates (a list the walk reuses)
    and rest = scale * (maxnorm - norm).  Returns `scale`.
    """
    d, lam = lat._minors, lat._lam
    n = lat.rank
    scale = math.lcm(*(d[k] * d[k + 1] for k in range(n)))
    w = [scale // (d[k] * d[k + 1]) for k in range(n)]
    x = [0] * n

    def descend(k, lo, hi, budget, centre):
        # x_k runs over lo..hi; children with an empty range are not entered
        dk, wk, c = d[k + 1], w[k], centre[k]
        if not k:
            for xk in range(lo, hi + 1):
                x[0] = xk
                y = dk * xk + c
                leaf(x, budget - wk * y * y)
            x[0] = 0
            return
        lk, dn, wn, cn = lam[k], d[k], w[k - 1], centre[k - 1]
        ln = lk[k - 1]
        for xk in range(lo, hi + 1):
            y = dk * xk + c
            rest = budget - wk * y * y
            t = math.isqrt(rest // wn)
            yn = cn + ln * xk
            lon, hin = -((t + yn) // dn), (t - yn) // dn
            if lon <= hin:
                x[k] = xk
                descend(k - 1, lon, hin, rest,
                        [a + b * xk for a, b in zip(centre, lk)] if xk else centre)
        x[k] = 0

    top, zeros = scale * maxnorm, [0] * n
    for k in range(n):
        # the vectors whose last nonzero coordinate is x_k >= 1
        hi = math.isqrt(top // w[k]) // d[k + 1]
        if hi >= 1:
            descend(k, 1, hi, top, zeros)
    return scale


def enumerate_vectors(lat: Lattice, maxnorm: int):
    """All lattice vectors of norm <= maxnorm, in the caller's coordinates,
    lexicographically sorted.  A rational maxnorm is floored.
    """
    if maxnorm < 0:
        raise ValueError("maxnorm must be nonnegative")
    basis = lat._basis
    out = [(0,) * lat.rank]

    def leaf(x, _rest):
        v = [0] * len(x)
        for c, row in zip(x, basis):
            if c:
                v = [a + c * b for a, b in zip(v, row)]
        out.append(tuple(v))
        out.append(tuple(-a for a in v))

    _walk(lat, math.floor(maxnorm), leaf)
    out.sort()
    return out


def _half_norm_bound(order: Fraction) -> int:
    """Largest integer norm m with m/2 strictly below `order`."""
    maxnorm = int(2 * order)
    if maxnorm == 2 * order:
        maxnorm -= 1
    return maxnorm


def _theta(lat: Lattice, order, parity=None) -> RationalSeries:
    """Sum of q^{norm/2} over the vectors with norm/2 below `order`.

    With `parity` (one integer per reduced basis vector) the vector with
    reduced coordinates x is signed (-1)^(x . parity).  Only counts are kept.
    """
    order = Fraction(order)
    if order <= 0:
        return RationalSeries.zero(order)
    maxnorm = _half_norm_bound(order)
    rests: dict = {}
    if parity is None:
        def leaf(_x, rest):
            rests[rest] = rests.get(rest, 0) + 1
    else:
        def leaf(x, rest):
            sign = -1 if sum(map(mul, x, parity)) & 1 else 1
            rests[rest] = rests.get(rest, 0) + sign

    scale = _walk(lat, maxnorm, leaf)
    terms = [(Fraction(0), Fraction(1))]
    # each visited vector stands for the pair +-v, which has one sign
    terms += [(Fraction(maxnorm - rest // scale, 2), Fraction(2 * c)) for rest, c in rests.items()]
    return RationalSeries.from_terms(terms, order)


def theta_series(lat: Lattice, order) -> RationalSeries:
    """Sum of q^{norm/2} over all lattice vectors with norm/2 below `order`."""
    return _theta(lat, order)


@dataclass(frozen=True)
class CycleShape:
    """Formal product data for an eta product: pairs (a_i, m_i), m_i nonzero."""

    pairs: tuple

    def __init__(self, pairs):
        norm = tuple((_integer(a), _integer(m)) for a, m in pairs)
        seen = set()
        for a, m in norm:
            if a <= 0:
                raise ValueError("cycle lengths must be positive")
            if m == 0:
                raise ValueError("cycle multiplicities must be nonzero")
            if a in seen:
                raise ValueError("cycle lengths must be distinct")
            seen.add(a)
        object.__setattr__(self, "pairs", norm)

    @property
    def degree(self) -> int:
        return sum(a * m for a, m in self.pairs)

    def check_rank(self, rank: int):
        if self.degree != rank:
            raise ValueError(f"cycle shape degree {self.degree} != rank {rank}")

    def to_json_obj(self):
        return [[a, m] for a, m in self.pairs]

    @classmethod
    def from_json_obj(cls, obj) -> "CycleShape":
        return cls(tuple((a, m) for a, m in obj))


def eta_product(shape: CycleShape, scale, order) -> RationalSeries:
    """prod over (a, m) of eta(a * scale * tau)^m, truncated at `order`."""
    scale = Fraction(scale)
    if scale <= 0:
        raise ValueError("scale must be positive")
    order = Fraction(order)
    margin = Fraction(3)
    for _ in range(6):
        out = None
        for a, m in shape.pairs:
            r = a * scale
            base = modular.eta((order + margin) / r).pow_int(m).rescale(r)
            out = base if out is None else out * base
        if out is None:
            return RationalSeries.one(order)
        if out.order >= order:
            return out.truncate(order)
        margin *= 2
    raise TruncationError("could not reach the requested order")


class EquivariantSpec:
    """Inputs of the equivariant trace: ambient lattice, the sublattice fixed
    by -a (with its embedding), the character vector xi, the vector alpha,
    the opaque twisted-sector trace trT, and the two frame shapes.
    """

    __slots__ = (
        "ambient",
        "fixed_sublattice",
        "embedding",
        "xi",
        "alpha",
        "trT",
        "shape_a",
        "shape_minus_a",
    )

    def __init__(
        self,
        ambient: Lattice,
        fixed_sublattice: Lattice,
        embedding,
        xi,
        alpha,
        trT,
        shape_a: CycleShape,
        shape_minus_a: CycleShape,
    ):
        self.ambient = ambient
        self.fixed_sublattice = fixed_sublattice
        emb = _integer_rows(embedding)
        if len(emb) != fixed_sublattice.rank:
            raise ValueError("embedding must have one row per sublattice basis vector")
        for row in emb:
            if len(row) != ambient.rank:
                raise ValueError("embedding rows must have ambient length")
        self.embedding = emb
        # the embedding must induce exactly the declared Gram
        for i, ri in enumerate(emb):
            for j, rj in enumerate(emb):
                if ambient.inner(ri, rj) != fixed_sublattice.gram[i][j]:
                    raise ValueError("embedding does not induce the sublattice gram")
        self.xi = tuple(Fraction(x) for x in xi)
        if len(self.xi) != ambient.rank:
            raise ValueError("xi must have ambient length")
        self.alpha = tuple(_integer(x) for x in alpha)
        if len(self.alpha) != ambient.rank:
            raise ValueError("alpha must have ambient length")
        # 2 xi must pair integrally with the ambient lattice (phases are +-1)
        for i in range(ambient.rank):
            basis = [0] * ambient.rank
            basis[i] = 1
            if (2 * ambient.inner(self.xi, basis)).denominator != 1:
                raise ValueError("2*xi must pair integrally with the lattice")
        # alpha is orthogonal to the fixed sublattice
        for row in emb:
            if ambient.inner(self.alpha, row) != 0:
                raise ValueError("alpha must be orthogonal to the fixed sublattice")
        self.trT = Fraction(trT)
        # the frame shapes of a and -a on a rank-n lattice have degree n
        for shape in (shape_a, shape_minus_a):
            shape.check_rank(ambient.rank)
        self.shape_a = shape_a
        self.shape_minus_a = shape_minus_a

    def to_json_obj(self) -> dict:
        return {
            "ambient": self.ambient.to_json_obj(),
            "fixed_sublattice": {
                **self.fixed_sublattice.to_json_obj(),
                "embedding": [list(r) for r in self.embedding],
            },
            "xi": [str(x) for x in self.xi],
            "alpha": list(self.alpha),
            "trT": str(self.trT),
            "shape_a": self.shape_a.to_json_obj(),
            "shape_minus_a": self.shape_minus_a.to_json_obj(),
        }

    @classmethod
    def from_json_obj(cls, obj) -> "EquivariantSpec":
        """Spec from its JSON document.  A document of the wrong structure (not
        an object, a field missing or of the wrong JSON type) raises ValueError."""
        # every JSON value is read and converted inside the try, so a TypeError
        # here is the document's; the spec's own checks run after it
        try:
            sub = obj["fixed_sublattice"]
            fields = dict(
                ambient=Lattice.from_json_obj(obj["ambient"]),
                fixed_sublattice=Lattice.from_json_obj(sub),
                embedding=[list(row) for row in sub["embedding"]],
                xi=[Fraction(x) for x in obj["xi"]],
                alpha=list(obj["alpha"]),
                trT=Fraction(obj["trT"]),
                shape_a=CycleShape.from_json_obj(obj["shape_a"]),
                shape_minus_a=CycleShape.from_json_obj(obj["shape_minus_a"]),
            )
        except KeyError as exc:
            raise ValueError(f"spec lacks the field {exc}") from exc
        except TypeError as exc:
            raise ValueError(f"spec has the wrong structure: {exc}") from exc
        return cls(**fields)

    @classmethod
    def load(cls, path) -> "EquivariantSpec":
        with open(path) as fh:
            return cls.from_json_obj(json.load(fh))

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_obj(), fh, indent=1)
            fh.write("\n")


def _phase(pairing: Fraction) -> int:
    """e^{2 pi i p} for half-integral p; anything else is out of scope."""
    doubled = 2 * pairing
    if doubled.denominator != 1:
        raise ValueError(f"pairing {pairing} is not half-integral; phase not in {{+1,-1}}")
    return -1 if doubled.numerator % 2 else 1


def twisted_theta(spec: EquivariantSpec, order) -> RationalSeries:
    """Theta series of the fixed sublattice, each vector signed by its xi-phase."""
    # 2<xi, emb_i> is an integer for each sublattice basis vector; carried to
    # the reduced basis, its parity signs every vector
    doubled = [_integer(2 * spec.ambient.inner(spec.xi, row)) for row in spec.embedding]
    parity = [sum(map(mul, row, doubled)) for row in spec.fixed_sublattice._basis]
    return _theta(spec.fixed_sublattice, order, parity)


def equivariant_z(spec: EquivariantSpec, L: int, order) -> RationalSeries:
    """Two-sector equivariant trace.

    First summand: phase(<xi,alpha>) * twisted_theta / eta_{-a}(tau) * (theta1/2)^L.
    Second: trT * ( eta_a(tau)/eta_a(tau/2) * (theta2/2)^L
                    - eta_{-a}(tau)/eta_{-a}(tau/2) * (theta3/2)^L ).
    The theta factor sums over the -a-fixed sublattice.
    """
    if L <= 0 or L % 2:
        raise ValueError("L must be a positive even integer")
    order = Fraction(order)
    head = order + 4
    sign = _phase(spec.ambient.inner(spec.xi, spec.alpha))
    th = twisted_theta(spec, head)
    e_minus = eta_product(spec.shape_minus_a, 1, head)
    t1 = (modular.theta(1, head) / 2).pow_int(L)
    first = (th / e_minus) * t1 * sign

    e_a = eta_product(spec.shape_a, 1, head)
    e_a_half = eta_product(spec.shape_a, Fraction(1, 2), head)
    e_minus_half = eta_product(spec.shape_minus_a, Fraction(1, 2), head)
    t2 = (modular.theta(2, head) / 2).pow_int(L)
    t3 = (modular.theta(3, head) / 2).pow_int(L)
    second = ((e_a / e_a_half) * t2 - (e_minus / e_minus_half) * t3) * spec.trT
    return (first + second).truncate(order)


def fixed_sublattice_from_automorphism(ambient: Lattice, matrix):
    """Sublattice fixed by -a: the saturated left integer kernel of a + 1.

    Row i of `matrix` is the image of basis vector i (a acts on coordinate
    rows, v -> v @ a), so a preserves the Gram exactly when its rows have
    the Gram as their inner products.  Returns (sublattice, embedding rows).
    """
    r = ambient.rank
    a = _integer_rows(matrix)
    if len(a) != r or any(len(row) != r for row in a):
        raise ValueError("automorphism must be square of ambient rank")
    if [[ambient.inner(x, y) for y in a] for x in a] != [list(row) for row in ambient.gram]:
        raise ValueError("matrix does not preserve the gram form")
    a_plus = [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(a)]
    emb = [tuple(v) for v in int_kernel(a_plus)]
    gram = [[ambient.inner(x, y) for y in emb] for x in emb]
    return Lattice(gram), emb


_IDENTITY_ALPHA_INDEX = {16: 1, 24: 0}  # bundled basis vectors of norm L/4


def identity_spec(L: int) -> EquivariantSpec:
    """Spec for a = identity on the Leech lattice: rank-0 fixed sublattice,
    xi = 0, trT = 2^12, frame shapes 1^24 and 1^-24 2^24.
    """
    amb = leech_lattice()
    try:
        idx = _IDENTITY_ALPHA_INDEX[L]
    except KeyError:
        raise ValueError(f"no bundled alpha of norm {L}/4 for the identity spec")
    alpha = [0] * amb.rank
    alpha[idx] = 1
    return EquivariantSpec(
        ambient=amb,
        fixed_sublattice=Lattice(()),
        embedding=(),
        xi=[0] * amb.rank,
        alpha=alpha,
        trT=Fraction(2) ** 12,
        shape_a=CycleShape([(1, 24)]),
        shape_minus_a=CycleShape([(1, -24), (2, 24)]),
    )
