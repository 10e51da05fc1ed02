"""deep-series: high-order library calls in one warmed-up process, one caller.

Dense Fraction products, inverses and powers dominate every operation, so this
workload shows the series kernel (qseries), the modular constructors, the Fock
closed forms and the Virasoro recursion.  It never enumerates lattice vectors
and never runs the brute-force oracle.
"""
from __future__ import annotations

from fractions import Fraction

import refs
from common import Cycler, InProcessWorkload, Op, load_reference, rng_for

# Pass p runs every kind once, each at an order N drawn from BANDS[p % 2], so
# every run of two passes does nearly the same work whatever the seed.
BANDS = ((60, 64), (88, 92))
ORDERS = tuple(N for lo, hi in BANDS for N in range(lo, hi + 1))
WARM_ORDER = 24
Z_NORMS = (16, 24, 32, 48)
VACUUM_KS = tuple(range(7))
SEED_WEIGHT = 12                      # z_total(24) seeds the descendant words
CUSP_MONOMIALS = ((1, 0), (0, 1), (2, 0), (1, 1), (3, 0))   # Delta * E4^a E6^b
POLE_WEIGHTS = (0, 4, 6, 8, 10)
E4_SCALE, E6_SCALE = 720, -30240      # library E4, E6 times these have constant 1


def weight_words(max_weight):
    """Every word L[-p1] ... L[-pk] with p1 >= ... >= pk >= 1 and sum <= max_weight."""
    def parts(total, largest):
        if total == 0:
            yield ()
            return
        for p in range(min(total, largest), 0, -1):
            for rest in parts(total - p, p):
                yield (p,) + rest
    return [tuple(-p for p in part) for t in range(1, max_weight + 1) for part in parts(t, t)]


WORDS = weight_words(6)


def word_key(word):
    return ",".join(str(n) for n in word)


def kinds():
    out = ["eta", "delta", "jfunction", "theta-quartic", "serre-delta", "space:S", "space:F"]
    out += [f"eisenstein:{k}" for k in (2, 4, 6)]
    out += [f"z_total:{L}" for L in Z_NORMS] + [f"vacuum:{k}" for k in VACUUM_KS]
    return out + [f"word:{word_key(w)}" for w in WORDS]


def reference_cases():
    """(reference key, kind, N, cusp monomial, pole weight) of every operation
    whose check compares against an output recorded at the seed commit."""
    for N in ORDERS:
        for L in (32, 48):
            yield f"z_total:{L}:{N}", f"z_total:{L}", N, None, None
        for k in VACUUM_KS:
            yield f"vacuum:{k}:{N}", f"vacuum:{k}", N, None, None
        for w in WORDS:
            yield f"word:{word_key(w)}:{N}", f"word:{word_key(w)}", N, None, None
        for a, b in CUSP_MONOMIALS:
            yield f"space:S:{12 + 4 * a + 6 * b}:{N}", "space:S", N, (a, b), None
        for w in POLE_WEIGHTS:
            yield f"space:F:{w}:{N}", "space:F", N, None, w


def digest_object(kind, result):
    """The JSON form of an operation's result that its reference digest covers."""
    if kind.startswith("word:"):
        z, member = result
        return [z.to_json_obj(), [[j, lab, str(c)] for j, lab, c in member]]
    if kind.startswith("space:"):
        return result[0].to_json_obj()
    return result.to_json_obj()


class DeepSeries(InProcessWorkload):
    def __init__(self, seed, reference=None):
        super().__init__(seed)
        self.reference = load_reference()["deep"] if reference is None else reference
        self.cusp_cycle = Cycler(seed, "cusp", CUSP_MONOMIALS)
        self.pole_cycle = Cycler(seed, "pole", POLE_WEIGHTS)

    def build_inputs(self):
        """The weight-12 seed series -(3/256) Delta per order, built from tau(n)."""
        series_cls = self.modules["qseries"].RationalSeries
        hw_seed = self.modules["virasoro"].HWSeed
        self.seeds = {}
        for N in (*ORDERS, WARM_ORDER):
            series = series_cls.from_terms(refs.z_total_ref(24, N + 2), N + 2)
            self.seeds[N] = hw_seed(weight=SEED_WEIGHT, series=series)

    # --- operations --------------------------------------------------------------
    def op(self, kind, N, cusp=None, pole=None, checked=True):
        m = self.modules
        modular, fock, virasoro = m["modular"], m["fock"], m["virasoro"]
        ref = self.reference
        name, _, param = kind.partition(":")
        if name == "eta":
            return Op(f"eta({N})", lambda: modular.eta(N),
                      lambda r: refs.compare_series(r, refs.eta_ref(N), N))
        if name == "eisenstein":
            k = int(param)
            return Op(f"eisenstein({k},{N})", lambda: modular.eisenstein(k, N),
                      lambda r: refs.compare_series(r, refs.eisenstein_ref(k, N), N))
        if name == "serre-delta":
            return Op(f"serre_derive(delta({N + 1}),12)",
                      lambda: modular.serre_derive(modular.delta(N + 1), 12).truncate(N),
                      lambda r: refs.compare_series(r, {}, N))
        if name == "delta":
            return Op(f"delta({N})", lambda: modular.delta(N),
                      lambda r: refs.compare_series(r, refs.delta_ref(N), N))
        if name == "jfunction":
            return Op(f"jfunction({N})", lambda: modular.jfunction(N),
                      lambda r: refs.compare_series(r, refs.j_ref(N), N))
        if name == "theta-quartic":
            def quartic():
                t = [modular.theta(i, N) for i in (1, 2, 3)]
                return t, t[0].pow_int(4) + t[1].pow_int(4) - t[2].pow_int(4)
            return Op(f"theta-quartic({N})", quartic, lambda r: check_quartic(r, N))
        if name == "z_total":
            L = int(param)
            label = f"z_total({L},{N})"
            if L in (16, 24):
                return Op(label, lambda: fock.z_total(L, N),
                          lambda r: refs.compare_series(r, refs.z_total_ref(L, N), N))
            key = f"z_total:{L}:{N}"
            return Op(label, lambda: fock.z_total(L, N),
                      lambda r: check_digest(digest_object(kind, r), ref, key, checked))
        if name == "vacuum":
            k = int(param)
            key = f"vacuum:{k}:{N}"

            def check_vacuum(r):
                if k == 0 and (err := refs.compare_series(r, refs.j_ref(N), N)):
                    return err
                return check_digest(digest_object(kind, r), ref, key, checked)
            return Op(f"vacuum_zpoint({k},{N})", lambda: virasoro.vacuum_zpoint(k, N), check_vacuum)
        if name == "word":
            word = tuple(int(x) for x in param.split(","))
            seed = self.seeds[N]
            added = -sum(word)
            key = f"word:{param}:{N}"

            def descend():
                z = virasoro.descendant_zpoint(word, seed, N)
                member = virasoro.partial_ideal_member(
                    z, seed.series.truncate(N), SEED_WEIGHT, SEED_WEIGHT + added, N)
                return z, member

            def check_word(r):
                z, member = r
                if member is None:
                    return "not an ideal member"
                return check_digest(digest_object(kind, r), ref, key, checked)
            return Op(f"descendant_zpoint({list(word)},{N})", descend, check_word)
        if name == "space" and param == "S":
            a, b = cusp or CUSP_MONOMIALS[0]
            weight = 12 + 4 * a + 6 * b
            target = m["qseries"].RationalSeries.from_terms(refs.cusp_monomial_ref(a, b, N), N)
            key = f"space:S:{weight}:{N}"

            def fit_cusp():
                space = modular.space_basis("S", weight, N)
                return space, modular.fit(target, space)

            def check_cusp(r):
                space, coeffs = r
                want = [E4_SCALE**a * E6_SCALE**b if lab == f"Delta*E4^{a}*E6^{b}" else 0
                        for lab in space.labels]
                if coeffs != want:
                    return f"fit {coeffs} != {want}"
                return check_digest(digest_object(kind, r), ref, key, checked)
            return Op(f"space_basis+fit(S_{weight},{N})", fit_cusp, check_cusp)
        if name == "space" and param == "F":
            weight = POLE_WEIGHTS[0] if pole is None else pole
            expected = refs.pole_ref(weight, N)
            target = m["qseries"].RationalSeries.from_terms(expected, N)
            key = f"space:F:{weight}:{N}"

            def fit_pole():
                space = modular.space_basis("F", weight, N)
                return space, modular.fit(target, space)

            def check_pole(r):
                space, coeffs = r
                if coeffs is None:
                    return "no fit"
                if (err := check_combination(space.basis, coeffs, expected)):
                    return err
                return check_digest(digest_object(kind, r), ref, key, checked)
            return Op(f"space_basis+fit(F_{weight},{N})", fit_pole, check_pole)
        raise ValueError(f"unknown operation kind {kind!r}")

    def warmup(self):
        """Every kind once at a low order: fills the Bernoulli and normal-order caches."""
        return [self.op(k, WARM_ORDER, checked=False) for k in kinds()]

    def make_pass(self, index):
        lo, hi = BANDS[index % len(BANDS)]
        orders = rng_for(self.seed, "deep-orders", index)
        ops = [self.op(k, orders.randint(lo, hi), self.cusp_cycle.pick(index),
                       self.pole_cycle.pick(index)) for k in kinds()]
        rng_for(self.seed, "deep-order", index).shuffle(ops)
        return ops


def check_digest(obj, reference, key, checked=True):
    if not checked:
        return None
    want = reference.get(key)
    if want is None:
        return f"no reference digest for {key}"
    return None if refs.digest(obj) == want else f"digest of {key} differs from the seed's"


def check_quartic(result, N):
    thetas, residual = result
    for i, t in enumerate(thetas, 1):
        if (err := refs.compare_series(t, refs.theta_ref(i, N), N)):
            return f"theta{i}: {err}"
    if residual.support():
        return "theta quartic residual is not zero"
    if residual.order < N:
        return f"residual order {residual.order} below {N}"
    return None


def check_combination(basis, coeffs, expected):
    """sum c_i basis_i must equal `expected` wherever every basis element is known."""
    bound = min(b.order for b in basis)
    exps = {e for e in expected if e < bound} | {e for b in basis for e in b.support() if e < bound}
    for e in exps:
        got = sum((c * b.coeff(e) for c, b in zip(coeffs, basis)), Fraction(0))
        if got != expected.get(e, 0):
            return f"fit recombination differs at q^{e}"
    return None
