"""Virasoro operator algebra and the trace recursion for 1-point functions.

Words of modes L[n] act on a highest-weight vector: positive modes annihilate
it, L[0] reads the weight, and on the vacuum L[-1] annihilates as well.
`normal_order` straightens any word into canonical words (modes weakly
increasing, all <= -1), returned as a read-only {word: coefficient} mapping,
by [L[m], L[n]] = (m - n) L[m+n] + (c/12)(m^3 - m) delta_{m+n,0} at the
moonshine module's central charge c = CENTRAL_CHARGE = 24.

The trace recursion converts a leading L[-2] into a Serre derivative plus a
finite Eisenstein tail, and a leading L[-1] kills the trace; deeper negative
modes are first rewritten through (n-2) L[-n] = [L[-1], L[-n+1]].
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from types import MappingProxyType

from . import modular, ring
from .qseries import RationalSeries, RouteDisagreement, TruncationError

__all__ = [
    "HighestWeight",
    "HWSeed",
    "normal_order",
    "compute_nl",
    "descendant_zpoint",
    "descendant_zpoints",
    "vacuum_zpoint",
    "partial_ideal_member",
]

VirWord = tuple  # tuple of int modes; rightmost mode acts on the vector first

CENTRAL_CHARGE = Fraction(24)


@dataclass(frozen=True)
class HighestWeight:
    """Highest-weight context at c = CENTRAL_CHARGE: L[0] eigenvalue, vacuum flag."""

    h: Fraction
    vacuum: bool = False

    def __post_init__(self):
        object.__setattr__(self, "h", Fraction(self.h))
        if self.vacuum and self.h != 0:
            raise ValueError("the vacuum has weight 0")


@dataclass
class HWSeed:
    """A highest-weight vector together with its known 1-point series."""

    weight: int
    series: RationalSeries
    vacuum: bool = False

    def context(self) -> HighestWeight:
        return HighestWeight(Fraction(self.weight), self.vacuum)


@cache
def _reduce(word: VirWord, hw: HighestWeight) -> MappingProxyType:
    """Straighten `word` acting on the hw vector; returns {canonical word: coeff}.

    The result is cached, so it is handed out as a read-only mapping.
    """
    if not word:
        out = {(): Fraction(1)}
    else:
        last = word[-1]
        if last > 0:
            out = {}
        elif last == 0:
            out = {}
            if hw.h:
                out = {w: c * hw.h for w, c in _reduce(word[:-1], hw).items()}
        elif last == -1 and hw.vacuum:
            out = {}
        else:
            inv = next(
                (i for i in range(len(word) - 1) if word[i] > word[i + 1]), None
            )
            if inv is None:
                out = {word: Fraction(1)}
            else:
                m, n = word[inv], word[inv + 1]
                out = dict(_reduce(word[:inv] + (n, m) + word[inv + 2 :], hw))
                comm = _reduce(word[:inv] + (m + n,) + word[inv + 2 :], hw)
                for w, c in comm.items():
                    out[w] = out.get(w, Fraction(0)) + (m - n) * c
                if m + n == 0:
                    central = _reduce(word[:inv] + word[inv + 2 :], hw)
                    scale = CENTRAL_CHARGE / 12 * (m**3 - m)
                    for w, c in central.items():
                        out[w] = out.get(w, Fraction(0)) + scale * c
                out = {w: c for w, c in out.items() if c}
    return MappingProxyType(out)


def normal_order(word, hw: HighestWeight) -> MappingProxyType:
    """A mode word applied to the hw vector, as read-only {canonical word: coeff}."""
    return _reduce(tuple(word), hw)


def compute_nl(k: int, l: int) -> Fraction:
    """Scalar n_l with L[2l-2] L[-2]^{k-1} vac = n_l L[-2]^{k-l} vac.

    Computed by normal ordering, never assumed; returns 0 for l > k.  The
    result is checked to be a pure multiple of the expected word.
    """
    if k < 1 or l < 1:
        raise ValueError("compute_nl needs k >= 1 and l >= 1")
    if l > k:
        return Fraction(0)
    hw = HighestWeight(0, vacuum=True)
    word = (2 * l - 2,) + (-2,) * (k - 1)
    combo = _reduce(word, hw)
    expected = (-2,) * (k - l)
    stray = set(combo) - {expected}
    if stray:
        raise RouteDisagreement(f"L[{2*l-2}] on L[-2]^{k-1} is not a multiple of L[-2]^{k-l}")
    return combo.get(expected, Fraction(0))


def descendant_zpoint(word, seed: HWSeed, order) -> RationalSeries:
    """1-point series of `word` applied to the seed's highest-weight vector.

    The word may contain any nonpositive modes.  The seed series must be known
    to at least the requested order.
    """
    return descendant_zpoints([word], seed, order)[0]


def descendant_zpoints(words, seed: HWSeed, order) -> list:
    """`descendant_zpoint` of each word, in order, from one shared recursion.

    Words share their sub-words' series (one cache for all of them), and the
    Eisenstein table is sized to the heaviest word.
    """
    words = [tuple(word) for word in words]
    if any(n > 0 for word in words for n in word):
        raise ValueError("descendant words use nonpositive modes")
    order = Fraction(order)
    if seed.series.order < order:
        raise TruncationError(
            f"seed series order {seed.series.order} is below the requested {order}"
        )
    hw = seed.context()
    total_weight = max((-sum(word) for word in words), default=0)
    e_order = max(seed.series.order, order) + 2
    etable = {l: modular.eisenstein(2 * l, e_order) for l in range(2, total_weight // 2 + 3)}
    zero = RationalSeries.zero(seed.series.order)
    cache: dict = {}

    def z_word(w: VirWord) -> RationalSeries:
        if w in cache:
            return cache[w]
        if not w:
            res = seed.series
        elif w[0] == -1:
            res = zero
        elif w[0] == -2:
            x = w[1:]
            wt_x = Fraction(seed.weight) + sum(-n for n in x)
            res = modular.serre_derive(z_combo_of(x), wt_x)
            added = sum(-n for n in x)
            l = 2
            while 2 * l - 2 <= added:
                lifted = _reduce((2 * l - 2,) + x, hw)
                if lifted:
                    res = res + etable[l] * z_of_terms(lifted)
                l += 1
        else:
            # leading mode <= -3: split off via L[-m] = [L[-1], L[-m+1]]/(m-2);
            # the L[-1]-leading piece has zero trace.  Recurse on the raw word:
            # re-sorting could regenerate deep leading modes and cycle, while
            # the raw rewrite strictly shrinks the leading depth.
            m = -w[0]
            res = z_word((-(m - 1), -1) + w[1:]) * Fraction(-1, m - 2)
        cache[w] = res
        return res

    def z_combo_of(w: VirWord) -> RationalSeries:
        return z_of_terms(_reduce(w, hw))

    def z_of_terms(terms: dict) -> RationalSeries:
        acc = zero
        for w, c in terms.items():
            acc = acc + z_word(w) * c
        return acc

    out = []
    for word in words:
        result = z_combo_of(word)
        if result.order < order:
            raise TruncationError(
                f"attainable order {result.order} fell below the requested {order}"
            )
        out.append(result.truncate(order))
    return out


@cache
def _vacuum_numerator(k: int) -> MappingProxyType:
    """P_k in Q[e_4, e_6] with vacuum_zpoint(k) = P_k/Delta.

    P_0 = E_4^3 - 744 Delta gives j.  D Delta = 0, so the Serre derivative of
    P/Delta is D(P)/Delta, and P_r = D P_{r-1} + sum_l n_l(r) e_2l P_{r-l}.
    """
    if k == 0:
        return MappingProxyType(ring.add({(3, 0): Fraction(720**3)}, ring.scale(ring.delta(), -744)))
    out = ring.serre(_vacuum_numerator(k - 1))
    for l in range(2, k + 1):
        nl = compute_nl(k, l)
        if nl:
            out = ring.add(out, ring.scale(ring.mul(ring.eisenstein(2 * l), _vacuum_numerator(k - l)), nl))
    return MappingProxyType(out)


def vacuum_zpoint(k: int, order) -> RationalSeries:
    """1-point series of L[-2]^k applied to the vacuum.

    Runs the same recursion specialized along L[-2]-powers, with the
    off-diagonal lifts collapsed to the scalars from compute_nl, on exact
    numerators in Q[e_4, e_6] (`ring`): Serre derivatives and Eisenstein
    products close on that ring, so no step truncates and no order is lost,
    and the numerator is expanded over Delta once, at `order`.  Must agree
    with descendant_zpoint on the word (-2,)*k.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    order = Fraction(order)
    if order <= -1:
        raise TruncationError("jfunction needs a positive truncation order")
    return ring.expand(_vacuum_numerator(k), order)


def partial_ideal_member(
    f: RationalSeries, gen: RationalSeries, gen_weight: int, target_weight: int, order
):
    """Decompose f as sum_j m_j * D^j(gen) with m_j holomorphic of the right weight.

    D is the Serre derivative iterated from gen_weight upward; m_j runs over
    the weight-(target_weight - gen_weight - 2j) holomorphic basis, so a span
    of 2k takes D^0 .. D^k (k derivatives) and an odd or negative span leaves
    only f = 0 in the slice.  Returns a list of (j, basis label, coefficient)
    triples, or None when f is outside the ideal slice.
    """
    order = Fraction(order)
    span = target_weight - gen_weight
    if span < 0 or span % 2:
        return [] if f.is_zero() else None
    columns, keys, cur = [], [], gen
    for j in range(span // 2 + 1):
        if j:
            cur = modular.serre_derive(cur, gen_weight + 2 * j - 2)
        sp = modular.space_basis("M", span - 2 * j, order)
        columns += [b * cur for b in sp.basis]
        keys += [(j, lab) for lab in sp.labels]
    sol = modular._solve(columns, f)
    return None if sol is None else [(j, lab, c) for (j, lab), c in zip(keys, sol) if c]
