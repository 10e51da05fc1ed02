"""Virasoro operator algebra and the trace recursion for 1-point functions.

Words of modes L[n] act on a highest-weight vector: positive modes annihilate
it, L[0] reads the weight, and on the vacuum L[-1] annihilates as well.
`normal_order` straightens any word into canonical combinations (modes weakly
increasing, all <= -1) using

    [L[m], L[n]] = (m - n) L[m+n] + (c/12)(m^3 - m) delta_{m+n,0}.

The trace recursion converts a leading L[-2] into a Serre derivative plus a
finite Eisenstein tail, and a leading L[-1] kills the trace; deeper negative
modes are first rewritten through (n-2) L[-n] = [L[-1], L[-n+1]].
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from types import MappingProxyType

from . import modular
from .qseries import RationalSeries, RouteDisagreement, TruncationError

__all__ = [
    "HighestWeight",
    "VirCombo",
    "HWSeed",
    "normal_order",
    "apply_word",
    "compute_nl",
    "reduce_word",
    "descendant_zpoint",
    "vacuum_zpoint",
    "partial_ideal_member",
]

VirWord = tuple  # tuple of int modes; rightmost mode acts on the vector first

CENTRAL_CHARGE = Fraction(24)


@dataclass(frozen=True)
class HighestWeight:
    """Highest-weight context: L[0] eigenvalue, central charge, vacuum flag."""

    h: Fraction
    c: Fraction = CENTRAL_CHARGE
    vacuum: bool = False

    def __post_init__(self):
        object.__setattr__(self, "h", Fraction(self.h))
        object.__setattr__(self, "c", Fraction(self.c))
        if self.vacuum and self.h != 0:
            raise ValueError("the vacuum has weight 0")


@dataclass
class HWSeed:
    """A highest-weight vector together with its known 1-point series."""

    weight: int
    series: RationalSeries
    vacuum: bool = False

    def context(self) -> HighestWeight:
        return HighestWeight(Fraction(self.weight), CENTRAL_CHARGE, self.vacuum)


class VirCombo:
    """Rational combination of canonical Virasoro words over a fixed context."""

    __slots__ = ("hw", "terms")

    def __init__(self, hw: HighestWeight, terms=None):
        self.hw = hw
        self.terms = {
            tuple(w): Fraction(c) for w, c in (terms or {}).items() if c
        }

    def __eq__(self, other):
        if not isinstance(other, VirCombo):
            return NotImplemented
        return self.hw == other.hw and self.terms == other.terms

    def __repr__(self):
        def wname(w):
            return "1" if not w else "".join(f"L[{n}]" for n in w)

        body = " + ".join(f"{c}*{wname(w)}" for w, c in sorted(self.terms.items()))
        return f"VirCombo({body or '0'})"

    def to_json_obj(self) -> dict:
        return {
            "h": str(self.hw.h),
            "c": str(self.hw.c),
            "vacuum": self.hw.vacuum,
            "terms": [
                {"word": list(w), "coeff": str(c)}
                for w, c in sorted(self.terms.items())
            ],
        }


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
                    scale = hw.c / 12 * (m**3 - m)
                    for w, c in central.items():
                        out[w] = out.get(w, Fraction(0)) + scale * c
                out = {w: c for w, c in out.items() if c}
    return MappingProxyType(out)


def normal_order(word, hw: HighestWeight) -> VirCombo:
    """Canonical form of a mode word applied to a highest-weight vector."""
    return VirCombo(hw, _reduce(tuple(word), hw))


def apply_word(word, combo: VirCombo) -> VirCombo:
    """Left-apply a mode word to an already-canonical combination."""
    word = tuple(word)
    out: dict = {}
    for w, c in combo.terms.items():
        for w2, c2 in _reduce(word + w, combo.hw).items():
            out[w2] = out.get(w2, Fraction(0)) + c * c2
    return VirCombo(combo.hw, out)


def compute_nl(k: int, l: int) -> Fraction:
    """Scalar n_l with L[2l-2] L[-2]^{k-1} vac = n_l L[-2]^{k-l} vac.

    Computed by normal ordering, never assumed; returns 0 for l > k.  The
    result is checked to be a pure multiple of the expected word.
    """
    if k < 1 or l < 1:
        raise ValueError("compute_nl needs k >= 1 and l >= 1")
    if l > k:
        return Fraction(0)
    hw = HighestWeight(0, CENTRAL_CHARGE, vacuum=True)
    word = (2 * l - 2,) + (-2,) * (k - 1)
    combo = _reduce(word, hw)
    expected = (-2,) * (k - l)
    stray = set(combo) - {expected}
    if stray:
        raise RouteDisagreement(f"L[{2*l-2}] on L[-2]^{k-1} is not a multiple of L[-2]^{k-l}")
    return combo.get(expected, Fraction(0))


def reduce_word(word) -> dict:
    """Rewrite a word of negative modes using only L[-1] and L[-2].

    Uses (n-2) L[-n] = [L[-1], L[-n+1]] for n >= 3; returns {word: coeff}.
    This is an operator identity, independent of any highest-weight context.
    """
    word = tuple(word)
    if any(n >= 0 for n in word):
        raise ValueError("reduce_word expects strictly negative modes")
    deep = next((i for i, n in enumerate(word) if n <= -3), None)
    if deep is None:
        return {word: Fraction(1)}
    n = -word[deep]
    pre, post = word[:deep], word[deep + 1 :]
    scale = Fraction(1, n - 2)
    out: dict = {}
    for w, c in reduce_word(pre + (-1, -(n - 1)) + post).items():
        out[w] = out.get(w, Fraction(0)) + scale * c
    for w, c in reduce_word(pre + (-(n - 1), -1) + post).items():
        out[w] = out.get(w, Fraction(0)) - scale * c
    return {w: c for w, c in out.items() if c}


def descendant_zpoint(word, seed: HWSeed, order) -> RationalSeries:
    """1-point series of `word` applied to the seed's highest-weight vector.

    The word may contain any nonpositive modes.  The seed series must be known
    to at least the requested order.
    """
    word = tuple(word)
    if any(n > 0 for n in word):
        raise ValueError("descendant words use nonpositive modes")
    order = Fraction(order)
    if seed.series.order < order:
        raise TruncationError(
            f"seed series order {seed.series.order} is below the requested {order}"
        )
    hw = seed.context()
    total_weight = -sum(word)
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

    result = z_combo_of(word)
    if result.order < order:
        raise TruncationError(
            f"attainable order {result.order} fell below the requested {order}"
        )
    return result.truncate(order)


def vacuum_zpoint(k: int, order) -> RationalSeries:
    """1-point series of L[-2]^k applied to the vacuum.

    Runs the same recursion specialized along L[-2]-powers, with the
    off-diagonal lifts collapsed to the scalars from compute_nl.  Must agree
    with descendant_zpoint on the word (-2,)*k.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    order = Fraction(order)
    e_order = order + 2
    z = [modular.jfunction(order + 1)]
    etable = {l: modular.eisenstein(2 * l, e_order) for l in range(2, k + 2)}
    for r in range(1, k + 1):
        cur = modular.serre_derive(z[r - 1], 2 * (r - 1))
        for l in range(2, r + 1):
            nl = compute_nl(r, l)
            if nl:
                cur = cur + etable[l] * z[r - l] * nl
        z.append(cur)
    return z[k].truncate(order)


def partial_ideal_member(
    f: RationalSeries, gen: RationalSeries, gen_weight: int, target_weight: int, order
):
    """Decompose f as sum_j m_j * D^j(gen) with m_j holomorphic of the right weight.

    D is the Serre derivative iterated from gen_weight upward; m_j runs over
    the weight-(target_weight - gen_weight - 2j) holomorphic basis.  Returns a
    list of (j, basis label, coefficient) triples, or None when f is outside
    the ideal slice.
    """
    order = Fraction(order)
    columns = []
    keys = []
    cur = gen
    j = 0
    while target_weight - gen_weight - 2 * j >= 0:
        w = target_weight - gen_weight - 2 * j
        if w % 2 == 0:
            sp = modular.space_basis("M", w, order)
            for b, lab in zip(sp.basis, sp.labels):
                columns.append(b * cur)
                keys.append((j, lab))
        cur = modular.serre_derive(cur, gen_weight + 2 * j)
        j += 1
    if not columns:
        return [] if f.is_zero() else None
    bound = min([f.order] + [col.order for col in columns])
    exps = sorted({e for s in (f, *columns) for e in s.support() if e < bound})
    mat = [[col.coeff(e) for e in exps] for col in columns]
    target = [f.coeff(e) for e in exps]
    from ._linalg import solve_in_span

    sol = solve_in_span(mat, target)
    if sol is None:
        return None
    return [(jj, lab, c) for (jj, lab), c in zip(keys, sol) if c]
