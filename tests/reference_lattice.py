"""Slow reference routes kept as differential oracles for the lattice kernel.

`ldl` is the all-Fraction LDL decomposition of a Gram matrix on the caller's
basis and `enumerate_with_norms` the Fincke-Pohst walk over it, propagating
exact rational norm budgets.  The library reduces the basis with integral LLL
first and walks in integers; these routes share none of that code.
"""
from fractions import Fraction


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
