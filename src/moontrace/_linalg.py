"""Exact linear algebra over the rationals and the integers.

Small dense routines backing form-space fits, kernel extraction, and lattice
sublattice computation.  Everything is exact, with no floating point anywhere.
There are two eliminations: `_eliminate`, fraction-free Gauss-Jordan behind
`rref`, `rank`, `solve_in_span` and `nullspace`, and `row_hnf`, the integer
row Hermite normal form, on which `int_kernel` is built.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm

__all__ = ["rref", "rank", "solve_in_span", "nullspace", "int_kernel", "row_hnf"]


def _eliminate(rows):
    """Gauss-Jordan on rational rows, each cleared to integers by one lcm.

    Bareiss' rule (Math. Comp. 22, 1968), row <- (p row - row[c] pivot_row) / d
    for pivot p after pivot d, divides exactly: every entry stays a minor.
    Returns (m, pivots, d): m's first len(pivots) rows are d times the nonzero
    rows of the reduced row echelon form, the rest are zero.
    """
    m = [[x.numerator * (den // x.denominator) for x in row]
         for row in rows for den in [lcm(*(x.denominator for x in row))]]
    pivots, d = [], 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        prow, p = m[r], m[r][c]
        for i, row in enumerate(m):
            if i != r:
                f = row[c]
                m[i] = [(p * x - f * y) // d for x, y in zip(row, prow)]
        d = p
        pivots.append(c)
    return m, pivots, d


def rref(rows):
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    m, pivots, d = _eliminate(rows)
    return [[Fraction(x, d) for x in row] for row in m], pivots


def rank(rows) -> int:
    return len(_eliminate(rows)[1])


def solve_in_span(columns, target):
    """Coefficients x with sum_j x_j * columns[j] = target exactly, or None when
    target is outside the span; free coefficients (dependent columns) are 0."""
    ncols = len(columns)
    m, pivots, d = _eliminate([*col, t] for *col, t in zip(*columns, target))
    if ncols in pivots:
        return None  # inconsistent: pivot in the target column
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = Fraction(m[r][ncols], d)
    return x


def nullspace(rows):
    """Basis of the rational kernel {x : rows @ x = 0}, one list per vector."""
    if not rows:
        return []
    m, pivots, d = _eliminate(rows)
    basis = []
    for f in (c for c in range(len(rows[0])) if c not in pivots):
        v = [Fraction(int(c == f)) for c in range(len(rows[0]))]
        for r, c in enumerate(pivots):
            v[c] = Fraction(-m[r][f], d)
        basis.append(v)
    return basis


def row_hnf(rows):
    """Row Hermite normal form over Z (nonzero rows only, pivots positive)."""
    m = [list(map(int, r)) for r in rows]
    if not m:
        return []
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        changed = True
        while changed:
            changed = False
            for i in range(r + 1, len(m)):
                if m[i][c]:
                    q = m[i][c] // m[r][c]
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                    if m[i][c]:
                        m[r], m[i] = m[i], m[r]
                        changed = True
        if m[r][c] < 0:
            m[r] = [-a for a in m[r]]
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return [row for row in m if any(row)]


def int_kernel(rows):
    """Basis of the left integer kernel {x in Z^n : x @ rows = 0}, n = len(rows).

    The row HNF of [rows | I_n] records each row's unimodular combination in
    its I-part; the I-parts of the rows whose rows-part is zero are a saturated
    basis of the kernel, already in row HNF (Cohen, GTM 138, section 2.4).
    """
    k = len(rows[0]) if rows else 0
    aug = [[*row, *(int(i == j) for j in range(len(rows)))] for i, row in enumerate(rows)]
    return [row[k:] for row in row_hnf(aug) if not any(row[:k])]
