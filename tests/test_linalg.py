"""Fraction-free elimination in `_linalg` against the Fraction oracle.

Every routine must return exactly what `reference_linalg` returns: the RREF
and its pivot columns are unique, and so is the solution with free
coefficients set to zero.
"""
import random
from fractions import Fraction as F

import pytest
import reference_linalg as reference

from moontrace import _linalg


def _entry(rng, bits, dens):
    return F(rng.randint(-(1 << bits), 1 << bits), rng.choice(dens))


def _matrix(rng, nrows, ncols, bits=3, dens=(1, 2, 3, 7)):
    """Random rows, some zero, repeated or combined from earlier rows; some
    columns repeated or combined from earlier columns."""
    rows = []
    for _ in range(nrows):
        roll = rng.random()
        if roll < 0.15:
            rows.append([F(0)] * ncols)
        elif roll < 0.4 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            c = _entry(rng, 2, dens)
            rows.append([x + c * y for x, y in zip(a, b)])
        else:
            rows.append([_entry(rng, bits, dens) for _ in range(ncols)])
    for j in range(1, ncols):
        roll = rng.random()
        if roll < 0.2:
            src = rng.randrange(j)
            for row in rows:
                row[j] = row[src]
        elif roll < 0.35:
            a, b = rng.randrange(j), rng.randrange(j)
            for row in rows:
                row[j] = 2 * row[a] - row[b]
    return rows


def _check(rows):
    got, want = _linalg.rref(rows), reference.rref(rows)
    assert got == want, rows
    assert all(type(x) is F for row in got[0] for x in row)
    assert _linalg.rank(rows) == reference.rank(rows)
    assert _linalg.nullspace(rows) == reference.nullspace(rows)


def _check_solve(columns, target):
    got = _linalg.solve_in_span(columns, target)
    assert got == reference.solve_in_span(columns, target), (columns, target)
    assert got is None or all(type(x) is F for x in got)
    return got


@pytest.mark.parametrize("bits, dens", [(3, (1, 2, 3, 7)), (300, (1, 3, 2**61 - 1, 10**30 + 57))])
def test_random_matrices_match_reference(bits, dens):
    rng = random.Random(f"linalg-{bits}")
    shapes = [(0, 0), (0, 4), (1, 1), (1, 6), (6, 1), (3, 0)]
    shapes += [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(60 if bits < 100 else 15)]
    inconsistent = 0
    for nrows, ncols in shapes:
        rows = _matrix(rng, nrows, ncols, bits, dens) if ncols else [[] for _ in range(nrows)]
        _check(rows)
        columns = [[row[j] for row in rows] for j in range(ncols)]
        # a target inside the span, and one off it wherever the span is short
        x = [_entry(rng, bits, dens) for _ in range(ncols)]
        inside = [sum((c * col[i] for c, col in zip(x, columns)), F(0)) for i in range(nrows)]
        assert _check_solve(columns, inside) is not None
        outside = [_entry(rng, bits, dens) for _ in range(nrows)]
        inconsistent += _check_solve(columns, outside) is None
    assert inconsistent >= 5


def test_inconsistent_targets_return_none():
    # duplicate and zero columns span one line; the targets leave it
    columns = [[F(1), F(2), F(0)], [F(1), F(2), F(0)], [F(0)] * 3]
    assert _check_solve(columns, [F(1), F(2), F(1)]) is None
    assert _check_solve(columns, [F(1, 2), F(1), F(0)]) == [F(1, 2), 0, 0]
    assert _check_solve([], [F(0), F(3)]) is None
    assert _check_solve([], [F(0), F(0)]) == []
    assert _check_solve([[F(5)]], [F(0)]) == [0]
    assert _linalg.rref([[F(0)] * 3] * 2) == ([[0] * 3] * 2, [])


def _cartan(kind, n):
    g = [[2 * (i == j) for j in range(n)] for i in range(n)]
    edges = [(i, i + 1) for i in range(n - 2)]
    edges.append(({"A": n - 2, "D": n - 3, "E": 2}[kind], n - 1))
    for a, b in edges:
        g[a][b] = g[b][a] = -1
    return g


def test_gram_solves_match_reference():
    # as in the lattice tests: xi with <xi, e_i> = p_i / 2 for a character p
    # of L/2L, on root lattices and random Grams B B^T
    rng = random.Random("linalg-gram")
    grams = [_cartan("A", 6), _cartan("D", 8), _cartan("E", 8)]
    for n in (2, 5, 8):
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        grams.append([[sum(x * y for x, y in zip(r, s)) for s in b] for r in b])
    for gram in grams:
        rows = [[F(x) for x in row] for row in gram]
        _check_solve(rows, [F(rng.randint(0, 1), 2) for _ in gram])
        _check(rows)


@pytest.mark.parametrize("bits", [3, 12])
def test_int_kernel_matches_reference(bits):
    # the left kernel of m is the right kernel of m^T, which the former column
    # elimination computed; zero columns leave every row in the kernel, a case
    # the former route could not be given (m^T has no rows to carry n)
    rng = random.Random(f"linalg-int-kernel-{bits}")
    for _ in range(300 if bits < 10 else 60):
        nrows, ncols = rng.randint(1, 7), rng.randint(0, 6)
        rows = [[int(x) for x in row] for row in _matrix(rng, nrows, ncols, bits, (1,))]
        got = _linalg.int_kernel(rows)
        assert len(got) == nrows - _linalg.rank(rows), rows
        for v in got:
            assert all(type(x) is int for x in v)
            assert all(sum(x * row[j] for x, row in zip(v, rows)) == 0 for j in range(ncols))
        if ncols:
            assert got == reference.int_kernel([list(c) for c in zip(*rows)]), rows
        else:
            assert got == [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    assert _linalg.int_kernel([]) == []
