"""lattice: theta series and vector enumeration on skewed bases.

Each pass takes theta series of E8 and of smaller root lattices given by
unimodular skews of their Cartan Gram matrices, and twisted theta series of a
skewed Z^8 with half-integral character vectors; even passes also enumerate
the Leech lattice to norm 2.  The skews change basis quality, which is what a
reduction step (LLL) would change; the series kernel only assembles counts.
"""
from __future__ import annotations

import math
from fractions import Fraction

import refs
from common import InProcessWorkload, Op, rng_for

LEECH_NORM = 2
# (root system, rank, theta order, operations per pass, skew cost band)
ROOT_OPS = [("E", 8, 3, 10, (2.0, 2.4)), ("E", 8, 2, 10, (2.0, 2.4))]
ROOT_OPS += [("A", n, order, 1, (1.5, 2.0)) for n in range(2, 8) for order in (3, 4, 5)]
ROOT_OPS += [("D", n, order, 1, (1.5, 2.0)) for n in range(4, 8) for order in (3, 4, 5)]
TWISTED_RANK = 8
TWISTED_ODD = (1, 2, 4, 5, 7)     # signed coordinates of xi, one operation each
TWISTED_ORDER = Fraction(5, 2)
TWISTED_BAND = (1.5, 2.0)
POOL_SEED = "skew-pool"          # fixes the skews; see LatticeWorkload


def cartan(kind, n):
    """Cartan (Gram) matrix of A_n, D_n or E_n on simple roots."""
    g = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 2):
        g[i][i + 1] = g[i + 1][i] = -1
    j = {"A": n - 2, "D": n - 3, "E": 2}[kind]
    g[j][n - 1] = g[n - 1][j] = -1
    return g


def transform(g, u):
    """u g u^T in exact integers."""
    n = len(g)
    ug = [[sum(u[i][k] * g[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(ug[i][k] * u[j][k] for k in range(n)) for j in range(n)] for i in range(n)]


def enumeration_estimate(g, maxnorm):
    """Gaussian-heuristic count of the nodes a Fincke-Pohst walk visits (floats)."""
    n = len(g)
    a = [[float(x) for x in row] for row in g]
    pivots = []
    for k in range(n):
        p = a[k][k]
        pivots.append(p)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] -= a[i][k] * a[k][j] / p
    total, volume = 0.0, 1.0
    for k in range(1, n + 1):
        volume *= math.sqrt(pivots[n - k])
        ball = math.pi ** (k / 2) / math.gamma(k / 2 + 1)
        total += ball * maxnorm ** (k / 2) / volume
    return total


def skew(g, rng, maxnorm, band):
    """A unimodular u, drawn from `rng`, such that u g u^T costs `band` times g.

    u is a product of elementary row operations with coefficients +-1, so it
    is unimodular.  The cost is the Gaussian-heuristic node count of the
    enumeration; candidates outside the band are rejected.
    """
    n = len(g)
    base = enumeration_estimate(g, maxnorm)
    for attempt in range(10000):
        u = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(2 * n + attempt % n):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-1, 1))
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        if band[0] <= enumeration_estimate(transform(g, u), maxnorm) / base <= band[1]:
            return u
    raise RuntimeError("no skew in the requested cost band")


def flip_signs(u, rng):
    """u with a seeded random sign on each row (still unimodular)."""
    return [[sign * x for x in row] for row, sign in zip(u, (rng.choice((-1, 1)) for _ in u))]


def unimodular_inverse(u):
    n = len(u)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(u)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c])
        m[c], m[p] = m[p], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [[int(x) for x in row[n:]] for row in m]


def half_norm_bound(order):
    return math.ceil(2 * Fraction(order)) - 1


class LatticeWorkload(InProcessWorkload):
    def __init__(self, seed):
        super().__init__(seed)
        # The skews come from a pool fixed by POOL_SEED, one per root system,
        # rank and order; the workload seed changes the signs of the basis
        # vectors, per operation.  A sign change permutes the Fincke-Pohst
        # search tree without changing its size, so every seed, and every
        # operation of a group, does the same enumeration work on a different
        # Gram matrix.
        pool, signs = rng_for(POOL_SEED, "lattice-skews"), rng_for(seed, "lattice-signs")
        # Gram matrices are made here, in plain integers.  Each theta operation
        # builds its Lattice (the LDL) from one, as a caller with a new basis
        # would; set-up builds the Leech lattice and the twisted-theta specs.
        self.root_inputs = []
        for kind, n, order, count, band in ROOT_OPS:
            g = cartan(kind, n)
            u = skew(g, pool, half_norm_bound(order), band)
            for _ in range(count):
                self.root_inputs.append((kind, n, order, transform(g, flip_signs(u, signs))))
        self.twisted_inputs = []
        identity = [[int(i == j) for j in range(TWISTED_RANK)] for i in range(TWISTED_RANK)]
        for odd in TWISTED_ODD:
            u = flip_signs(skew(identity, pool, half_norm_bound(TWISTED_ORDER), TWISTED_BAND), signs)
            xi_std = [Fraction(1, 2) if i < odd else Fraction(0) for i in range(TWISTED_RANK)]
            inv = unimodular_inverse(u)
            xi = [sum(xi_std[k] * inv[k][j] for k in range(TWISTED_RANK))
                  for j in range(TWISTED_RANK)]
            self.twisted_inputs.append((odd, transform(identity, u), xi))

    def build_inputs(self):
        lattice = self.modules["lattice"]
        self.leech = lattice.leech_lattice()
        shape = lattice.CycleShape([(1, TWISTED_RANK)])
        self.specs = []
        for odd, gram, xi in self.twisted_inputs:
            lat = lattice.Lattice(gram)
            rows = [[int(i == j) for j in range(TWISTED_RANK)] for i in range(TWISTED_RANK)]
            spec = lattice.EquivariantSpec(lat, lat, rows, xi, [0] * TWISTED_RANK, 1, shape, shape)
            self.specs.append((odd, spec))

    def ops(self, leech=True):
        lattice = self.modules["lattice"]
        zero = (0,) * self.leech.rank
        out = []
        if leech:
            out.append(Op("enumerate_vectors(Leech,2)",
                          lambda: lattice.enumerate_vectors(self.leech, LEECH_NORM),
                          lambda r: None if [tuple(v) for v in r] == [zero] else
                          f"{len(r)} vectors of norm <= 2, expected only zero"))
        for kind, n, order, gram in self.root_inputs:
            out.append(Op(f"theta_series({kind}{n},{order})",
                          lambda gram=gram, order=order: lattice.theta_series(lattice.Lattice(gram), order),
                          lambda r, kind=kind, n=n, order=order: refs.compare_series(
                              r, refs.root_lattice_theta_ref(kind, n, order), order)))
        for odd, spec in self.specs:
            out.append(Op(f"twisted_theta(Z8,odd={odd})",
                          lambda spec=spec: lattice.twisted_theta(spec, TWISTED_ORDER),
                          lambda r, odd=odd: refs.compare_series(
                              r, refs.signed_cubic_theta_ref(TWISTED_RANK, odd, TWISTED_ORDER),
                              TWISTED_ORDER)))
        return out

    def warmup(self):
        lattice = self.modules["lattice"]
        gram = self.root_inputs[-1][3]
        return [Op("theta_series(warm-up)", lambda: lattice.theta_series(lattice.Lattice(gram), 2),
                   lambda r: None)]

    def make_pass(self, index):
        """Every theta operation; the Leech enumeration (6 s) in even passes only."""
        ops = self.ops(leech=index % 2 == 0)
        rng_for(self.seed, "lattice-order", index).shuffle(ops)
        return ops
