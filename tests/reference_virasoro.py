"""Virasoro word helpers with no library caller, kept as test oracles.

`reduce_word` rewrites deep modes through (n-2) L[-n] = [L[-1], L[-n+1]]
until only L[-1] and L[-2] remain: the operator identity that
`descendant_zpoints` applies inline to a word's leading deep mode, so the
traces of a deep word and of its rewriting must agree.  `apply_word` applies
a word to a canonical combination one term at a time, the second route to
`normal_order` on the concatenated word.
"""
from fractions import Fraction

from moontrace.virasoro import VirCombo, normal_order


def apply_word(word, combo: VirCombo) -> VirCombo:
    """Left-apply a mode word to an already-canonical combination."""
    word = tuple(word)
    out: dict = {}
    for w, c in combo.terms.items():
        for w2, c2 in normal_order(word + w, combo.hw).terms.items():
            out[w2] = out.get(w2, Fraction(0)) + c * c2
    return VirCombo(combo.hw, out)


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
