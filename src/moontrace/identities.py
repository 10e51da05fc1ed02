"""The identities `moontrace verify` checks, and the one entry point that runs them.

Each check takes the requested order (and its parameter, if it has one) and
returns `(ok, certified_order, routes)`: whether the routes agree, the order
through which that verdict holds, and the routes themselves by name.
"""
from __future__ import annotations

from fractions import Fraction

from . import fock, lattice, modular, virasoro

# brute-force depth caps so `verify` stays interactive at the default order
ORACLE_GRADE_CAP = 6        # single-oscillator brute force, q-grade
TWISTED_UNIT_CAP = 6        # rank-24 twisted brute force, half-integer units

# largest accepted parameters; every request within them finishes in about
# a minute at most, anything beyond is refused up front
MAX_NORM = 512              # the L of identity parameters (and the CLI's --norm)
MAX_K = 32                  # the KMAX of the vacuum-trace check (and the CLI's --k)


def _theta_quartic(order):
    t = [modular.theta(i, order) for i in (1, 2, 3)]
    residual = t[0].pow_int(4) + t[1].pow_int(4) - t[2].pow_int(4)
    ok = residual.is_zero()
    return ok, residual.order, {"residual": residual}


def _theta_eta_quotients(order):
    head = order + 2
    eta1 = modular.eta(head)
    eta2 = modular.eta(head).rescale(2)
    eta_half = modular.eta(2 * head).rescale(Fraction(1, 2))
    quotients = {
        1: (eta2.pow_int(2) / eta1) * 2,
        2: eta_half.pow_int(2) / eta1,
        3: eta1.pow_int(5) / (eta_half.pow_int(2) * eta2.pow_int(2)),
    }
    routes = {}
    ok = True
    certified = order
    for i, quo in quotients.items():
        prod = modular.theta(i, order)
        quo = quo.truncate(order)
        routes[f"theta{i}_product"] = prod
        routes[f"theta{i}_quotient"] = quo
        certified = min(certified, prod.order, quo.order)
        ok = ok and prod == quo
    return ok, certified, routes


def _serre_delta(order):
    residual = modular.serre_derive(modular.delta(order + 1), 12).truncate(order)
    return residual.is_zero(), residual.order, {"residual": residual}


def _fock_oracle(order, L):
    if order < 2:
        raise ValueError("the Fock oracle needs order at least 2: below it both "
                         "legs are the bare q^0")
    grade = min(ORACLE_GRADE_CAP, int(order) - 1)
    closed = fock.closed_trace_A(L, grade + 1)
    brute = fock.brute_trace_A(L, grade)
    ok = brute == closed
    return ok, min(brute.order, closed.order), {"closed": closed, "brute": brute}


def _twisted_oracle(order, L):
    if order < Fraction(5, 2):
        raise ValueError("the twisted oracle needs order at least 5/2: below it "
                         "both legs are the bare q^{3/2}")
    units = min(TWISTED_UNIT_CAP, int(2 * order) - 4)
    closed = fock.twisted_closed_trace(L, Fraction(units + 4, 2))
    brute = fock.brute_twisted_trace(L, units)
    ok = brute == closed
    return ok, min(brute.order, closed.order), {"closed": closed, "brute": brute}


def _equivariant_identity(order, L):
    spec = lattice.identity_spec(L)
    via_lattice = lattice.equivariant_z(spec, L, order)
    via_fock = fock.z_total(L, order)
    ok = via_lattice == via_fock
    certified = min(via_lattice.order, via_fock.order)
    return ok, certified, {"equivariant": via_lattice, "two_sector": via_fock}


def _vacuum_traces(order, kmax):
    ok = True
    certified = order
    routes = {}
    for k in range(kmax + 1):
        z = virasoro.vacuum_zpoint(k, order)
        lead = z.coeff(Fraction(-1))
        sign_ok = (lead > 0) if k % 2 == 0 else (lead < 0)
        const_ok = z.coeff(Fraction(0)) == 0
        space = modular.space_basis("F", 2 * k, order)
        coeffs = modular.fit(z, space)
        routes[f"k={k}"] = (
            f"leading {lead}*q^-1, constant 0: {const_ok}, "
            f"fits F_{2 * k}: {coeffs is not None}"
        )
        certified = min(certified, z.order)
        ok = ok and sign_ok and const_ok and coeffs is not None
    return ok, certified, routes


def _canonical_words(max_added):
    """L[-p1] ... L[-pk] for every partition p1 >= ... >= pk of 1..max_added."""
    return [tuple(-p for p in part) for total in range(1, max_added + 1)
            for part in fock._partitions(total, list(range(total, 0, -1)))]


def _ideal(order, L):
    weight = L // 2
    if weight % 2:
        raise ValueError("the seed weight L/2 must be even")
    seed_series = fock.z_total(L, order + 2)
    seed = virasoro.HWSeed(weight=weight, series=seed_series)
    ok = True
    certified = order
    routes = {}
    for word in _canonical_words(6):
        added = -sum(word)
        z = virasoro.descendant_zpoint(word, seed, order)
        decomposition = virasoro.partial_ideal_member(
            z, seed_series.truncate(order), weight, weight + added, order
        )
        member = decomposition is not None
        routes[f"word L{list(word)}"] = (
            f"trace order {z.order}, ideal member: {member}"
        )
        certified = min(certified, z.order)
        ok = ok and member
    return ok, certified, routes


# name -> (check, default parameter, largest parameter); None for no parameter
IDENTITIES = {
    "theta-quartic": (_theta_quartic, None, None),
    "theta-eta-quotients": (_theta_eta_quotients, None, None),
    "serre-delta-zero": (_serre_delta, None, None),
    "fock-oracle": (_fock_oracle, 24, MAX_NORM),
    "twisted-oracle": (_twisted_oracle, 24, MAX_NORM),
    "equivariant-identity-case": (_equivariant_identity, 24, MAX_NORM),
    "prop31": (_vacuum_traces, 5, MAX_K),
    "ideal": (_ideal, 24, MAX_NORM),
}


def verify(identity: str, order) -> tuple:
    """Check `identity` ("name" or "name:PARAM") through `order`.

    Returns `(ok, certified_order, routes)`.  An unknown name, a parameter
    the identity does not take or one outside its range raises ValueError
    before any work starts.
    """
    name, _, suffix = identity.partition(":")
    if name not in IDENTITIES:
        raise ValueError(f"unknown identity {identity!r}")
    check, default, limit = IDENTITIES[name]
    order = Fraction(order)
    if default is None:
        if suffix:
            raise ValueError(f"identity {name!r} takes no parameter")
        return check(order)
    param = int(suffix) if suffix else default
    # a negative KMAX would check nothing and pass vacuously
    if not 0 <= param <= limit:
        raise ValueError(f"the parameter of {name!r} must lie in 0..{limit}")
    return check(order, param)
