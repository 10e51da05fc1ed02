"""Virasoro word helpers with no library caller, kept as test oracles.

`reduce_word` rewrites deep modes through (n-2) L[-n] = [L[-1], L[-n+1]]
until only L[-1] and L[-2] remain: the operator identity that
`descendant_zpoints` applies inline to a word's leading deep mode, so the
traces of a deep word and of its rewriting must agree.  `apply_word` applies
a word to a canonical combination one term at a time, the second route to
`normal_order` on the concatenated word.  `partial_ideal_member` is the ideal
slice computed the long way, with a Serre power at every step of the weight
walk whether or not a column uses it; the library's slice must agree.
"""
from fractions import Fraction

from moontrace import modular
from moontrace._linalg import solve_in_span
from moontrace.qseries import RationalSeries
from moontrace.virasoro import HighestWeight, normal_order


def apply_word(word, combo, hw: HighestWeight) -> dict:
    """Left-apply a mode word to a canonical {word: coeff} combination at `hw`."""
    word = tuple(word)
    out: dict = {}
    for w, c in combo.items():
        for w2, c2 in normal_order(word + w, hw).items():
            out[w2] = out.get(w2, Fraction(0)) + c * c2
    return {w: c for w, c in out.items() if c}


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
    *mat, target = modular.coeff_vectors((*columns, f), bound)[2]
    sol = solve_in_span(mat, target)
    if sol is None:
        return None
    return [(jj, lab, c) for (jj, lab), c in zip(keys, sol) if c]
