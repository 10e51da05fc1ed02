"""Gauss-Jordan elimination over `Fraction`, the differential oracle for `_linalg`.

`rref`, `rank`, `solve_in_span` and `nullspace` here reduce one Fraction cell
at a time; the library clears each row to integers and runs fraction-free
(Bareiss) elimination instead.  Each function takes and returns what its
library namesake does, so `test_linalg.py` compares the two directly.

`int_kernel` is the library's former integer kernel, kept verbatim: a column
Euclid elimination with its own unimodular transform, giving the right kernel
{x : rows @ x = 0}.  Only its final canonicalisation, `row_hnf`, is shared with
the library, whose left kernel is one `row_hnf` of [rows | I]; so the library's
`int_kernel(m)` must equal this `int_kernel(transpose(m))`.
"""
from fractions import Fraction

from moontrace._linalg import row_hnf


def rref(rows):
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def solve_in_span(columns, target):
    """Solve sum_j x_j * columns[j] = target exactly.

    columns and target are equal-length sequences of Fractions.  Returns the
    coefficient list, or None when target is outside the span.  Free
    coefficients (if the columns are dependent) are set to zero.
    """
    ncols = len(columns)
    nrows = len(target)
    aug = [[columns[j][i] for j in range(ncols)] + [target[i]] for i in range(nrows)]
    m, pivots = rref(aug)
    if ncols in pivots:
        return None  # inconsistent: pivot in the target column
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = m[r][ncols]
    return x


def nullspace(rows):
    """Basis of the rational kernel {x : rows @ x = 0}, one list per vector."""
    if not rows:
        return []
    m, pivots = rref(rows)
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -m[r][f]
        basis.append(v)
    return basis


def int_kernel(rows):
    """Basis of the integer kernel {x in Z^n : rows @ x = 0}.

    Column-style HNF with a unimodular transform; the returned basis is
    saturated (it spans the full integer kernel, not a finite-index piece)
    and canonicalized through row_hnf for determinism.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    a = [list(map(int, r)) for r in rows]
    u = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def col(mat, j):
        return [mat[i][j] for i in range(len(mat))]

    def addmul_col(mat, dst, src, q):
        for i in range(len(mat)):
            mat[i][dst] -= q * mat[i][src]

    def swap_col(mat, i, j):
        for row in mat:
            row[i], row[j] = row[j], row[i]

    c = 0
    for r in range(nrows):
        piv = next((j for j in range(c, ncols) if a[r][j]), None)
        if piv is None:
            continue
        swap_col(a, c, piv)
        swap_col(u, c, piv)
        changed = True
        while changed:
            changed = False
            for j in range(c + 1, ncols):
                if a[r][j]:
                    q = a[r][j] // a[r][c]
                    addmul_col(a, j, c, q)
                    addmul_col(u, j, c, q)
                    if a[r][j]:
                        swap_col(a, c, j)
                        swap_col(u, c, j)
                        changed = True
        c += 1
        if c == ncols:
            break
    kernel = [col(u, j) for j in range(c, ncols) if not any(col(a, j))]
    return row_hnf(kernel)
