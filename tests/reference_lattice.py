"""Slow reference routes kept as differential oracles for the lattice kernel.

`ldl` is the all-Fraction LDL decomposition of a Gram matrix on the caller's
basis and `enumerate_with_norms` the Fincke-Pohst walk over it, propagating
exact rational norm budgets.  The library reduces the basis with integral LLL
first and walks in integers; these routes share none of that code.

`fixed_sublattice_from_automorphism` is the library's former route, kept
verbatim: it checks the isometry by an explicit sum a g a^T and takes the
integer kernel of the transpose of a + 1 with the former column elimination
(`reference_linalg.int_kernel`).
"""
from fractions import Fraction

from reference_linalg import int_kernel

from moontrace.lattice import Lattice, _integer_rows


def ldl(gram):
    """(pivots d, unitriangular mu) with gram = mu^T diag(d) mu; ValueError if not definite."""
    r = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    d = []
    mu = [[Fraction(0)] * r for _ in range(r)]
    for k in range(r):
        piv = a[k][k]
        if piv <= 0:
            raise ValueError("gram matrix is not positive definite")
        d.append(piv)
        mu[k][k] = Fraction(1)
        for j in range(k + 1, r):
            mu[k][j] = a[k][j] / piv
        for i in range(k + 1, r):
            for j in range(k + 1, r):
                a[i][j] -= a[i][k] * a[k][j] / piv
    return d, mu


def enumerate_with_norms(gram, maxnorm):
    """(vector, norm) pairs for all vectors of norm <= maxnorm, lex sorted.

    At level i the norm splits off d_i (x_i + sum mu_ij x_j)^2, bounding x_i by
    an exact rational inequality; the consumed budget is the norm.
    """
    if maxnorm < 0:
        raise ValueError("maxnorm must be nonnegative")
    r = len(gram)
    if r == 0:
        return [((), Fraction(0))]
    d, mu = ldl(gram)
    top = Fraction(maxnorm)
    out = []
    coords = [0] * r

    def descend(level, budget):
        if level < 0:
            out.append((tuple(coords), top - budget))
            return
        murow = mu[level]
        c = Fraction(0)
        for j in range(level + 1, r):
            if coords[j]:
                c += murow[j] * coords[j]
        # integer x with d[level] (x + c)^2 <= budget, scanned outward from -c
        center = round(-c)
        x = center
        while d[level] * (x + c) ** 2 <= budget:
            coords[level] = x
            descend(level - 1, budget - d[level] * (x + c) ** 2)
            x += 1
        x = center - 1
        while d[level] * (x + c) ** 2 <= budget:
            coords[level] = x
            descend(level - 1, budget - d[level] * (x + c) ** 2)
            x -= 1

    descend(r - 1, top)
    out.sort()
    return out


def fixed_sublattice_from_automorphism(ambient: Lattice, matrix):
    """Sublattice fixed by -a, i.e. the saturated integer kernel of (a + 1).

    `matrix` acts on coordinate rows (v -> v @ a) and must preserve the Gram.
    Returns (sublattice, embedding rows).
    """
    r = ambient.rank
    a = _integer_rows(matrix)
    if len(a) != r or any(len(row) != r for row in a):
        raise ValueError("automorphism must be square of ambient rank")
    g = ambient.gram
    aga = [
        [
            sum(a[i][k] * g[k][l] * a[j][l] for k in range(r) for l in range(r))
            for j in range(r)
        ]
        for i in range(r)
    ]
    if aga != [list(row) for row in g]:
        raise ValueError("matrix does not preserve the gram form")
    a_plus = [[a[i][j] + (i == j) for j in range(r)] for i in range(r)]
    # right kernel of (a+1)^T is the left kernel of (a+1): rows v with v(a+1)=0
    transpose = [[a_plus[j][i] for j in range(r)] for i in range(r)]
    basis = int_kernel(transpose)
    emb = [tuple(v) for v in basis]
    gram = [[ambient.inner(x, y) for y in emb] for x in emb]
    return Lattice(gram), emb
