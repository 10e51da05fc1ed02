import random
from fractions import Fraction as F

import pytest

import reference_virasoro
from reference_virasoro import apply_word, reduce_word

from moontrace import fock, identities, modular, virasoro
from moontrace.qseries import RationalSeries
from moontrace.virasoro import (
    CENTRAL_CHARGE,
    HWSeed,
    HighestWeight,
    compute_nl,
    descendant_zpoint,
    descendant_zpoints,
    normal_order,
    partial_ideal_member,
    vacuum_zpoint,
)


def test_commutator_basics():
    h = HighestWeight(F(5, 2))
    # L1 L-1 v = 2h v
    assert normal_order((1, -1), h) == {(): F(5)}
    # L2 L-2 v = (4h + c/2) v
    assert normal_order((2, -2), h) == {(): 4 * F(5, 2) + CENTRAL_CHARGE / 2}
    # positive modes annihilate a primary vector
    assert normal_order((3,), h) == {}
    assert normal_order((-2, 1), h) == {}


def test_vacuum_kills_deg_one():
    vac = HighestWeight(0, vacuum=True)
    assert normal_order((-1,), vac) == {}
    assert normal_order((1, -1), vac) == {}
    with pytest.raises(ValueError):
        HighestWeight(1, vacuum=True)


def test_normal_order_is_a_module_morphism():
    # reducing w1+w2 at once must equal applying w1 to the reduction of w2
    rng = random.Random(41)
    contexts = [
        HighestWeight(0, vacuum=True),
        HighestWeight(0),
        HighestWeight(F(1, 2)),
        HighestWeight(12),
    ]
    for _ in range(60):
        hw = rng.choice(contexts)
        w1 = tuple(rng.randrange(-4, 5) for _ in range(rng.randrange(0, 3)))
        w2 = tuple(rng.randrange(-4, 5) for _ in range(rng.randrange(0, 4)))
        two_step = apply_word(w1, normal_order(w2, hw), hw)
        one_step = normal_order(w1 + w2, hw)
        assert two_step == one_step, (w1, w2, hw)


def test_nl_scalars():
    # frozen table, computed by normal ordering at c = 24
    table = {
        2: [2, 12],
        3: [4, 32, 72],
        4: [6, 60, 264, 576],
        5: [8, 96, 624, 2688, 5760],
        6: [10, 140, 1200, 7680, 32640, 69120],
    }
    for k, row in table.items():
        assert [compute_nl(k, l) for l in range(1, k + 1)] == row, k
        assert all(x > 0 for x in row)
    assert compute_nl(2, 3) == 0
    with pytest.raises(ValueError):
        compute_nl(0, 1)


def test_reduce_word():
    assert reduce_word((-3,)) == {(-1, -2): F(1), (-2, -1): F(-1)}
    # every output word uses only modes -1 and -2, weight is conserved
    out = reduce_word((-4, -3))
    assert out
    for w in out:
        assert set(w) <= {-1, -2}
        assert sum(w) == -7
    with pytest.raises(ValueError):
        reduce_word((-2, 0))


def vacuum_seed(order):
    return HWSeed(0, modular.jfunction(order), vacuum=True)


def test_vacuum_matches_descendant():
    for order in (4, 20):
        for k in range(9):
            direct = vacuum_zpoint(k, order)
            via_word = descendant_zpoint((-2,) * k, vacuum_seed(order + 4), order)
            assert direct == via_word, (k, order)


def test_vacuum_k2_frozen():
    v2 = vacuum_zpoint(2, 4)
    assert v2.coeff(-1) == F(71, 60)
    assert v2.coeff(0) == 0
    assert v2.coeff(1) == F(836877, 5)
    assert v2.coeff(2) == F(242231552, 3)
    assert v2.coeff(3) == F(15256661121, 2)


def test_deep_word_frozen():
    d33 = descendant_zpoint((-3, -3), vacuum_seed(10), 6)
    assert d33.coeff(-1) == F(31, 1260)
    assert d33.coeff(0) == 0
    assert d33.coeff(1) == F(-63519, 35)
    assert d33.coeff(2) == F(-133673984, 63)
    assert d33.coeff(3) == F(-4583054601, 14)
    assert d33.coeff(4) == F(-686587674624, 35)
    assert d33.coeff(5) == F(-41841701881250, 63)


def test_deep_words_match_reduced_route():
    # the trace of a deep word must equal the weighted traces of its
    # {-1,-2}-rewriting; guards the raw-word recursion against cycling
    seed = vacuum_seed(9)
    for word in ((-3, -3), (-4, -2), (-5, -1), (-3, -2, -1)):
        direct = descendant_zpoint(word, seed, 4)
        acc = RationalSeries.zero(4)
        for w, c in reduce_word(word).items():
            acc = acc + descendant_zpoint(w, seed, 4) * c
        assert direct == acc, word


def test_shared_word_cache_matches_one_word_at_a_time():
    # one recursion for all words must give each word's own series, and refuse
    # a positive mode anywhere before any work
    seed = vacuum_seed(9)
    words = [(), (-2,), (-3, -3), (-1, -2), (-2, -2, -2), (-4, -2)]
    shared = descendant_zpoints(words, seed, 5)
    for word, z in zip(words, shared, strict=True):
        assert z == descendant_zpoint(word, vacuum_seed(9), 5), word
    with pytest.raises(ValueError):
        descendant_zpoints([(-2,), (-2, 1)], seed, 5)


def test_leading_minus_one_traceless():
    seed = vacuum_seed(6)
    assert descendant_zpoint((-1, -2), seed, 3).is_zero()
    assert descendant_zpoint((-1,), HWSeed(12, modular.delta(6)), 3).is_zero()


def test_primary_seed_weight_two_descendant():
    # Serre kills Delta at weight 12, and L2 annihilates a primary vector,
    # so the L[-2] descendant of a Delta seed has zero trace
    seed = HWSeed(12, modular.delta(8))
    assert descendant_zpoint((-2,), seed, 4).is_zero()


def test_ideal_membership():
    order = F(8)
    gen = modular.delta(order + 2)
    e4 = modular.eisenstein(4, order)
    member = (gen * e4).truncate(order)
    sol = partial_ideal_member(member, gen, 12, 16, order)
    assert sol == [(0, "E4^1*E6^0", 1)]
    # bumping one coefficient must break membership
    broken = member + RationalSeries.monomial(1, 1, order)
    assert partial_ideal_member(broken, gen, 12, 16, order) is None


def test_ideal_membership_descendant():
    order = F(8)
    seed = HWSeed(12, modular.delta(order + 4))
    f = descendant_zpoint((-2, -2), seed, order)
    sol = partial_ideal_member(f, seed.series.truncate(order), 12, 16, order)
    assert sol is not None
    # reconstruct and compare: membership really is a decomposition
    cur = seed.series.truncate(order)
    derivs = [cur]
    for j in range(3):
        cur = modular.serre_derive(cur, 12 + 2 * j)
        derivs.append(cur)
    recon = RationalSeries.zero(order)
    for j, label, c in sol:
        sp = modular.space_basis("M", 16 - 12 - 2 * j, order)
        b = sp.basis[list(sp.labels).index(label)]
        recon = recon + b * derivs[j] * c
    assert recon == f


def _ideal_cases(L, orders):
    """(f, gen, gen weight, target weight, order) over the z_total seed of norm L.

    f runs over the traces of the 29 canonical words of added weight up to 6;
    the targets are the word's weight, two above it, and the odd or negative
    spans around the seed weight.
    """
    weight = L // 2
    words = identities._canonical_words(6)
    for order in orders:
        seed_series = fock.z_total(L, order + 2)
        gen = seed_series.truncate(order)
        traces = descendant_zpoints(words, HWSeed(weight, seed_series), order)
        for word, z in zip(words, traces):
            added = -sum(word)
            for target in (weight + added, weight + added + 2,
                           weight + 1, weight - 1, weight - 2):
                yield z, gen, weight, target, order


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:  # the same refusal counts as agreement
        return type(exc), str(exc)


@pytest.mark.parametrize("L", range(16, 65, 8))
def test_ideal_slice_matches_reference(L):
    # the library slice computes only the Serre powers its columns use; the
    # reference computes one at every step of the weight walk
    for case in _ideal_cases(L, (F(1), F(3, 2), F(2), F(20), F(60))):
        want = _outcome(reference_virasoro.partial_ideal_member, *case)
        assert _outcome(partial_ideal_member, *case) == want, (L, case[3:])


def test_ideal_slice_serre_call_count(monkeypatch):
    calls = []
    serre_derive = modular.serre_derive

    def counted(*args):
        calls.append(args)
        return serre_derive(*args)

    monkeypatch.setattr(modular, "serre_derive", counted)
    order = F(8)
    gen = modular.delta(order)
    # odd and negative spans take none, a span of 2k takes k
    expected = {13: 0, 15: 0, 11: 0, 10: 0, 12: 0, 14: 1, 16: 2, 18: 3, 20: 4}
    for target, derivatives in expected.items():
        calls.clear()
        partial_ideal_member(gen * modular.eisenstein(4, order), gen, 12, target, order)
        assert len(calls) == derivatives, target
