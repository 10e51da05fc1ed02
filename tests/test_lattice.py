import random
from fractions import Fraction as F

import pytest
import reference_lattice as reference

from moontrace import fock, modular
from moontrace._linalg import solve_in_span
from moontrace.qseries import RationalSeries
from moontrace.lattice import (
    CycleShape,
    EquivariantSpec,
    Lattice,
    enumerate_vectors,
    equivariant_z,
    eta_product,
    fixed_sublattice_from_automorphism,
    identity_spec,
    leech_lattice,
    theta_series,
    twisted_theta,
)

L2 = Lattice([[2]])


def test_lattice_validation():
    with pytest.raises(ValueError):
        Lattice([[1, 2], [2, 1]])  # indefinite
    with pytest.raises(ValueError):
        Lattice([[1, 1], [1, 1]])  # singular
    with pytest.raises(ValueError):
        Lattice([[2, 0, 0], [0, 2, 3], [0, 3, 2]])  # indefinite past the first minor
    with pytest.raises(ValueError):
        Lattice([[0]])
    with pytest.raises(ValueError):
        Lattice([[1, 2], [3, 1]])  # not symmetric
    with pytest.raises(ValueError):
        Lattice([[1, 2]])  # not square
    assert Lattice([]).rank == 0


def test_lattice_json_and_eq():
    obj = L2.to_json_obj()
    assert obj == {"rank": 1, "gram": [[2]]}
    assert Lattice.from_json_obj(obj) == L2
    assert hash(Lattice.from_json_obj(obj)) == hash(L2)
    with pytest.raises(ValueError):
        Lattice.from_json_obj({"rank": 2, "gram": [[2]]})


def test_rank_one_enumeration():
    assert enumerate_vectors(L2, 4) == [(-1,), (0,), (1,)]
    assert enumerate_vectors(L2, 0) == [(0,)]
    th = theta_series(L2, 12)
    assert [th.coeff(k) for k in range(11)] == [1, 2, 0, 0, 2, 0, 0, 0, 0, 2, 0]


def test_rank_zero_theta():
    th = theta_series(Lattice([]), 5)
    assert th == th.one(5)


def test_negation_closure():
    lat = Lattice([[2, 1, 0], [1, 4, -1], [0, -1, 6]])
    vs = enumerate_vectors(lat, 9)
    assert len(vs) % 2 == 1  # zero is self-paired, everything else comes in +- pairs
    s = set(vs)
    assert all(tuple(-x for x in v) in s for v in vs)
    assert all(lat.norm(v) <= 9 for v in vs)
    with pytest.raises(ValueError):
        lat.norm([1, 0])


def test_e8_theta_and_fit():
    # E8 via its Cartan matrix: path 1..7, node 8 hung on node 3
    adj = {(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 8)}
    gram = [[2 if i == j else 0 for j in range(8)] for i in range(8)]
    for a, b in adj:
        gram[a - 1][b - 1] = gram[b - 1][a - 1] = -1
    e8 = Lattice(gram)
    det = 1
    for p in e8._pivots:
        det *= p
    assert det == 1
    th = theta_series(e8, 6)
    assert [th.coeff(k) for k in range(6)] == [1, 240, 2160, 6720, 17520, 30240]
    assert modular.fit(th, modular.space_basis("M", 4, 6)) == [720]


def test_cycle_shape_validation():
    with pytest.raises(ValueError):
        CycleShape([(1, 2), (1, 3)])  # duplicate length
    with pytest.raises(ValueError):
        CycleShape([(0, 2)])
    with pytest.raises(ValueError):
        CycleShape([(2, 0)])
    s = CycleShape([(1, -24), (2, 24)])
    assert s.degree == 24
    s.check_rank(24)
    with pytest.raises(ValueError):
        s.check_rank(23)
    assert CycleShape.from_json_obj(s.to_json_obj()).pairs == s.pairs


def test_eta_products():
    N = F(12)
    assert eta_product(CycleShape([(1, 24)]), 1, N) == modular.delta(N)
    frame = eta_product(CycleShape([(1, -24), (2, 24)]), 1, N)
    # second route: Delta(2 tau) / Delta(tau)
    other = modular.delta(N + 2).rescale(2) / modular.delta(N + 2)
    assert frame == other.truncate(N)
    assert frame.coeff(1) == 1 and frame.coeff(2) == 24 and frame.coeff(3) == 300
    # half scale reaches the (1/48)Z exponent lattice
    assert eta_product(CycleShape([(1, 1)]), F(1, 2), 2).valuation() == F(1, 48)
    with pytest.raises(ValueError):
        eta_product(CycleShape([(1, 1)]), 0, 2)


def _spec_rank1(xi):
    return EquivariantSpec(
        ambient=L2, fixed_sublattice=L2, embedding=[[1]],
        xi=xi, alpha=[0], trT=0,
        shape_a=CycleShape([(1, 1)]), shape_minus_a=CycleShape([(2, 1)]),
    )


def test_twisted_theta_phases():
    # <xi, n e> = n/2 makes the signs alternate with n
    tw = twisted_theta(_spec_rank1([F(1, 4)]), 12)
    assert [tw.coeff(k) for k in range(11)] == [1, -2, 0, 0, 2, 0, 0, 0, 0, -2, 0]
    assert twisted_theta(_spec_rank1([0]), 12) == theta_series(L2, 12)
    with pytest.raises(ValueError):
        _spec_rank1([F(1, 3)])  # 2 xi must pair integrally


def test_spec_validation():
    with pytest.raises(ValueError):
        EquivariantSpec(
            ambient=L2, fixed_sublattice=Lattice([[4]]), embedding=[[1]],
            xi=[0], alpha=[0], trT=0,
            shape_a=CycleShape([(1, 1)]), shape_minus_a=CycleShape([(2, 1)]),
        )  # embedding induces gram 2, not 4
    amb = Lattice([[2, 0], [0, 4]])
    with pytest.raises(ValueError):
        EquivariantSpec(
            ambient=amb, fixed_sublattice=Lattice([[2]]), embedding=[[1, 0]],
            xi=[0, 0], alpha=[1, 0], trT=0,
            shape_a=CycleShape([(1, 2)]), shape_minus_a=CycleShape([(2, 2), (1, -2)]),
        )  # alpha not orthogonal to the sublattice


def test_fixed_sublattice_routes():
    amb = Lattice([[2, 0], [0, 4]])
    sub, emb = fixed_sublattice_from_automorphism(amb, [[-1, 0], [0, 1]])
    assert sub.gram == ((2,),) and emb == [(1, 0)]
    sub2, emb2 = fixed_sublattice_from_automorphism(amb, [[1, 0], [0, 1]])
    assert sub2.rank == 0 and emb2 == []
    sub3, _ = fixed_sublattice_from_automorphism(amb, [[-1, 0], [0, -1]])
    assert sub3.rank == 2
    with pytest.raises(ValueError):
        fixed_sublattice_from_automorphism(amb, [[0, 1], [1, 0]])  # not an isometry


def test_swap_automorphism_fixed_line():
    amb = Lattice([[2, 0], [0, 2]])
    sub, emb = fixed_sublattice_from_automorphism(amb, [[0, 1], [1, 0]])
    # -a fixes the anti-diagonal line; its generator has norm 4
    assert sub.rank == 1
    assert sub.gram[0][0] == 4
    assert amb.norm(emb[0]) == 4


def test_leech_certificate():
    ll = leech_lattice()
    assert ll.rank == 24
    det = 1
    for p in ll._pivots:
        det *= p
    assert det == 1
    assert all(ll.gram[i][i] % 2 == 0 for i in range(24))
    assert all(x == int(x) for row in ll.gram for x in row)
    assert enumerate_vectors(ll, 2) == [(0,) * 24]  # no roots
    # even and unimodular puts the theta series in the 2-dimensional M_12,
    # where 1 + 0 q already fixes it: the counted q^2 must fit, and q^3 is a
    # prediction
    th = theta_series(ll, F(5, 2))
    assert [th.coeff(k) for k in range(3)] == [1, 0, 196560]
    coeffs = modular.fit(th, modular.space_basis("M", 12, F(5, 2)))
    assert coeffs is not None
    basis = modular.space_basis("M", 12, 4).basis
    assert sum(c * b.coeff(2) for c, b in zip(coeffs, basis)) == 196560
    assert sum(c * b.coeff(3) for c, b in zip(coeffs, basis)) == 16773120


def test_identity_spec_shape():
    spec = identity_spec(24)
    assert spec.fixed_sublattice.rank == 0
    assert spec.trT == 2 ** 12
    assert all(x == 0 for x in spec.xi)
    assert spec.ambient.norm(spec.alpha) == 6
    assert identity_spec(16).ambient.norm(identity_spec(16).alpha) == 4
    with pytest.raises(ValueError):
        identity_spec(40)


def test_identity_case_matches_z_total():
    for L in (16, 24):
        assert equivariant_z(identity_spec(L), L, 11) == fock.z_total(L, 11), L


def test_phase_flip_and_trT_linearity():
    spec = identity_spec(16)
    # xi = e_5 / 2 pairs with alpha = e_1 to 1/2 (gram[1][5] = 1): sign flips
    flip_xi = [F(1, 2) if i == 5 else F(0) for i in range(24)]
    assert spec.ambient.inner(flip_xi, spec.alpha) == F(1, 2)

    def variant(xi, trT):
        return EquivariantSpec(
            spec.ambient, spec.fixed_sublattice, spec.embedding,
            xi, spec.alpha, trT, spec.shape_a, spec.shape_minus_a,
        )

    order = 6
    first_plain = equivariant_z(variant(spec.xi, 0), 16, order)
    first_flip = equivariant_z(variant(flip_xi, 0), 16, order)
    assert first_flip == first_plain * F(-1)
    # the trT part is unaffected by xi and linear in trT
    z_plain = equivariant_z(variant(spec.xi, spec.trT), 16, order)
    z_flip = equivariant_z(variant(flip_xi, spec.trT), 16, order)
    assert z_flip - first_flip == z_plain - first_plain
    half = equivariant_z(variant(spec.xi, spec.trT / 2), 16, order)
    assert (half - first_plain) * 2 == z_plain - first_plain


def test_equivariant_z_guards():
    spec = identity_spec(16)
    with pytest.raises(ValueError):
        equivariant_z(spec, 15, 4)
    with pytest.raises(ValueError):
        equivariant_z(spec, 0, 4)


def test_spec_json_roundtrip(tmp_path):
    spec = identity_spec(16)
    obj = spec.to_json_obj()
    back = EquivariantSpec.from_json_obj(obj)
    assert back.to_json_obj() == obj
    assert equivariant_z(back, 16, 5) == equivariant_z(spec, 16, 5)
    path = tmp_path / "spec16.json"
    spec.save(path)
    loaded = EquivariantSpec.load(path)
    assert loaded.to_json_obj() == obj


# --- integral LLL and the integer walk against the Fraction reference ------


def _root_gram(kind, n):
    """Cartan matrix of A_n, D_n or E_8 (Z^n for kind "Z")."""
    if kind == "Z":
        return [[int(i == j) for j in range(n)] for i in range(n)]
    g = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    edges = [(i, i + 1) for i in range(n - 2)]
    edges.append(({"A": n - 2, "D": n - 3, "E": 2}[kind], n - 1))
    for a, b in edges:
        if a >= 0:
            g[a][b] = g[b][a] = -1
    return g


def _transform(g, u):
    n = len(g)
    return [[sum(u[i][a] * g[a][b] * u[j][b] for a in range(n) for b in range(n))
             for j in range(n)] for i in range(n)]


def _skewed(kind, n, rng):
    """A seeded unimodular change of basis of a root lattice or Z^n."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return _transform(_root_gram(kind, n), u)


def _random_definite(n, rng):
    """B B^T for a seeded integer matrix B of full rank."""
    while True:
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        g = [[sum(x * y for x, y in zip(r, s)) for s in b] for r in b]
        try:
            reference.ldl(g)
        except ValueError:
            continue
        return g


# (family, rank, maxnorm); maxnorm runs over 0..8 and rank over 0..8
DIFFERENTIAL_CASES = [("Z", 0, 3)]
DIFFERENTIAL_CASES += [("Z", n, m) for n, m in [(1, 8), (2, 8), (3, 7), (4, 5), (5, 4), (6, 3), (7, 1), (8, 2)]]
DIFFERENTIAL_CASES += [("A", n, m) for n, m in [(1, 8), (2, 7), (3, 6), (4, 6), (5, 5), (6, 4), (7, 4), (8, 4)]]
DIFFERENTIAL_CASES += [("D", n, m) for n, m in [(4, 5), (5, 4), (6, 4), (7, 1), (8, 4)]]
DIFFERENTIAL_CASES += [("E", 8, 4), ("E", 8, 0)]
DIFFERENTIAL_CASES += [("R", n, m) for n, m in [(1, 8), (2, 8), (3, 8), (4, 6), (5, 5), (6, 5), (7, 3), (8, 3)]]


@pytest.mark.parametrize("family,rank,maxnorm", DIFFERENTIAL_CASES)
def test_walk_matches_reference(family, rank, maxnorm):
    rng = random.Random(f"lattice-{family}{rank}-{maxnorm}")
    gram = _random_definite(rank, rng) if family == "R" else _skewed(family, rank, rng)
    lat = Lattice(gram)
    pairs = reference.enumerate_with_norms(gram, maxnorm)
    vectors = [v for v, _ in pairs]
    assert enumerate_vectors(lat, maxnorm) == vectors
    # a rational maxnorm is floored
    assert enumerate_vectors(lat, F(2 * maxnorm + 1, 2)) == vectors
    order = F(maxnorm + 1, 2)
    counts = {}
    for _, n in pairs:
        counts[n] = counts.get(n, 0) + 1
    expected = RationalSeries.from_terms([(n / 2, F(c)) for n, c in counts.items()], order)
    assert theta_series(lat, order) == expected

    # a character of L/2L: 2 <xi, e_i> = p_i, so v is signed (-1)^(p . v)
    p = [rng.randint(0, 1) for _ in range(rank)]
    xi = solve_in_span([[F(x) for x in row] for row in gram], [F(c, 2) for c in p]) if rank else []
    spec = EquivariantSpec(
        ambient=lat, fixed_sublattice=lat,
        embedding=[[int(i == j) for j in range(rank)] for i in range(rank)],
        xi=xi, alpha=[0] * rank, trT=0,
        shape_a=CycleShape([(1, rank)] if rank else []),
        shape_minus_a=CycleShape([(1, rank)] if rank else []),
    )
    signed = {}
    for v, n in pairs:
        pairing = sum(xi[i] * gram[i][j] * v[j] for i in range(rank) for j in range(rank))
        assert (2 * pairing).denominator == 1
        signed[n] = signed.get(n, 0) + (-1 if (2 * pairing).numerator % 2 else 1)
    expected = RationalSeries.from_terms([(n / 2, F(c)) for n, c in signed.items()], order)
    assert twisted_theta(spec, order) == expected


def _det(m):
    a = [[F(x) for x in row] for row in m]
    n, det = len(a), F(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return 0
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def _check_reduced(lat):
    """U unimodular; (D, lambda) the exact LDL of U G U^T, size-reduced and Lovasz."""
    u, d, lam = lat._basis, lat._minors, lat._lam
    n = lat.rank
    assert all(isinstance(x, int) for row in u for x in row)
    assert abs(_det(u)) == 1
    reduced = _transform(lat.gram, u)
    pivots, mu = reference.ldl(reduced)
    assert d[0] == 1
    assert [F(d[k + 1], d[k]) for k in range(n)] == pivots == list(lat._pivots)
    for k in range(n):
        assert d[k + 1] == _det([row[:k + 1] for row in reduced[:k + 1]])
        for j in range(k):
            assert F(lam[k][j], d[j + 1]) == mu[j][k]
            assert 2 * abs(lam[k][j]) <= d[j + 1]  # size reduced
        if k:
            # Lovasz condition with delta = 99/100 (which implies delta = 3/4)
            assert 100 * d[k + 1] * d[k - 1] >= 99 * d[k] ** 2 - 100 * lam[k][k - 1] ** 2
    return reduced


@pytest.mark.parametrize("seed", range(12))
def test_lll_invariants(seed):
    rng = random.Random(f"lll-{seed}")
    n = 1 + seed % 8
    kind = "R" if seed % 3 == 0 else rng.choice("ZA" + "D" * (n >= 4) + "E" * (n == 8))
    gram = _random_definite(n, rng) if kind == "R" else _skewed(kind, n, rng)
    _check_reduced(Lattice(gram))


def test_lll_reduces_leech_to_norm_4_basis():
    reduced = _check_reduced(leech_lattice())
    assert [reduced[i][i] for i in range(24)] == [4] * 24


def test_non_integral_entries_refused():
    for gram in ([[2.5]], [[F(5, 2)]], [[2, 1], [1, 6.7]], [["x"]], [[None]]):
        with pytest.raises(ValueError):
            Lattice(gram)
    assert Lattice([[2.0]]) == L2 == Lattice([[F(4, 2)]])
    good = dict(ambient=L2, fixed_sublattice=L2, embedding=[[1]], xi=[0], alpha=[0],
                trT=0, shape_a=CycleShape([(1, 1)]), shape_minus_a=CycleShape([(2, 1)]))
    EquivariantSpec(**good)
    for field, value in (("embedding", [[1.5]]), ("alpha", [F(1, 2)]), ("alpha", [0.25])):
        with pytest.raises(ValueError):
            EquivariantSpec(**{**good, field: value})
    with pytest.raises(ValueError):
        CycleShape([(1.5, 2)])
    with pytest.raises(ValueError):
        fixed_sublattice_from_automorphism(L2, [[-0.5]])
