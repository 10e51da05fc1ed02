"""Command-line front end.

Subcommands expose q-expansions, identity verification (closed form against
brute-force oracle where one exists), trace computations, and form-space
bases.  Output is deterministic for fixed inputs; exit status is 0 on
success, 1 when a verification fails, 2 on usage or input errors.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import fock, lattice, modular, virasoro
from .qseries import RouteDisagreement, TruncationError

# brute-force depth caps so `verify` stays interactive at the default order
ORACLE_GRADE_CAP = 6        # single-oscillator brute force, q-grade
TWISTED_UNIT_CAP = 6        # rank-24 twisted brute force, half-integer units

# largest accepted inputs (in absolute value); every request within them
# finishes in about a minute at most, anything beyond is refused up front
MAX_ORDER = 200             # --order
MAX_NORM = 512              # --norm and the L of identity parameters
MAX_K = 32                  # --k and prop31:KMAX
MAX_WEIGHT = 128            # spaces --weight


def _fraction(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("order must be at least 1")
    return value


def _bounded(limit: int, parse=int):
    """argparse type: `parse` the text and refuse values beyond +-limit."""
    def check(text: str):
        value = parse(text)
        if abs(value) > limit:
            raise argparse.ArgumentTypeError(f"{value} exceeds the limit {limit}")
        return value
    check.__name__ = parse.__name__
    return check


def _series_payload(s, fmt: str):
    if fmt == "json" and hasattr(s, "to_json_obj"):
        return s.to_json_obj()
    return str(s)


def _emit(obj: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(obj, indent=2))
    else:
        for key, value in obj.items():
            if isinstance(value, dict):
                print(f"{key}:")
                for k2, v2 in value.items():
                    print(f"  {k2}: {v2}")
            else:
                print(f"{key}: {value}")


# --- expand -----------------------------------------------------------------

def _cmd_expand(args) -> int:
    what, _, suffix = args.what.partition(":")
    order = args.order
    expansions = {
        "eta": modular.eta, "delta": modular.delta, "jfunction": modular.jfunction,
        "eisenstein": lambda o: modular.eisenstein(int(suffix or 4), o),
        "theta": lambda o: modular.theta(int(suffix or 1), o),
    }
    if what not in expansions:
        raise ValueError(f"unknown expansion {args.what!r}")
    series = expansions[what](order)
    _emit(
        {"what": args.what, "order": str(order), "series": _series_payload(series, args.format)},
        args.format,
    )
    return 0


# --- verify -----------------------------------------------------------------

def _verify_theta_quartic(order, _skip):
    t = [modular.theta(i, order) for i in (1, 2, 3)]
    residual = t[0].pow_int(4) + t[1].pow_int(4) - t[2].pow_int(4)
    ok = residual.is_zero()
    return ok, residual.order, {"residual": residual}


def _verify_theta_eta_quotients(order, _skip):
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


def _verify_serre_delta(order, _skip):
    residual = modular.serre_derive(modular.delta(order + 1), 12).truncate(order)
    return residual.is_zero(), residual.order, {"residual": residual}


def _verify_fock_oracle(order, skip, L):
    grade = min(ORACLE_GRADE_CAP, int(order) - 1)
    closed = fock.closed_trace_A(L, grade + 1)
    if skip:
        return None, Fraction(0), {"closed": closed}
    brute = fock.brute_trace_A(L, grade)
    ok = brute == closed
    return ok, min(brute.order, closed.order), {"closed": closed, "brute": brute}


def _verify_twisted_oracle(order, skip, L):
    units = max(1, min(TWISTED_UNIT_CAP, int(2 * order) - 4))
    closed = fock.twisted_closed_trace(L, Fraction(units + 4, 2))
    if skip:
        return None, Fraction(0), {"closed": closed}
    brute = fock.brute_twisted_trace(L, units)
    ok = brute == closed
    return ok, min(brute.order, closed.order), {"closed": closed, "brute": brute}


def _verify_equivariant_identity(order, _skip, L):
    spec = lattice.identity_spec(L)
    via_lattice = lattice.equivariant_z(spec, L, order)
    via_fock = fock.z_total(L, order)
    ok = via_lattice == via_fock
    certified = min(via_lattice.order, via_fock.order)
    return ok, certified, {"equivariant": via_lattice, "two_sector": via_fock}


def _verify_prop31(order, _skip, kmax):
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


def _verify_ideal(order, _skip, L):
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


def _cmd_verify(args) -> int:
    name, _, suffix = args.identity.partition(":")
    # name -> (check, default parameter, largest parameter)
    checks = {
        "theta-quartic": (_verify_theta_quartic, None, None),
        "theta-eta-quotients": (_verify_theta_eta_quotients, None, None),
        "serre-delta-zero": (_verify_serre_delta, None, None),
        "fock-oracle": (_verify_fock_oracle, 24, MAX_NORM),
        "twisted-oracle": (_verify_twisted_oracle, 24, MAX_NORM),
        "equivariant-identity-case": (_verify_equivariant_identity, 24, MAX_NORM),
        "prop31": (_verify_prop31, 5, MAX_K),
        "ideal": (_verify_ideal, 24, MAX_NORM),
    }
    if name not in checks:
        raise ValueError(f"unknown identity {args.identity!r}")
    func, default_arg, limit = checks[name]
    if default_arg is None:
        if suffix:
            raise ValueError(f"identity {name!r} takes no parameter")
        ok, certified, routes = func(args.order, args.skip_oracle)
    else:
        arg = int(suffix) if suffix else default_arg
        # a negative prop31:KMAX would check nothing and pass vacuously
        if not 0 <= arg <= limit:
            raise ValueError(f"the parameter of {name!r} must lie in 0..{limit}")
        ok, certified, routes = func(args.order, args.skip_oracle, arg)
    status = "skipped" if ok is None else ("ok" if ok else "fail")
    payload = {
        "identity": args.identity,
        "requested_order": str(args.order),
        "certified_order": str(certified),
        "status": status,
    }
    if ok is not None:
        payload["agree"] = ok
    payload["routes"] = {k: _series_payload(v, args.format) for k, v in routes.items()}
    _emit(payload, args.format)
    return 0 if status in ("ok", "skipped") else 1


# --- traces and spaces ------------------------------------------------------

def _cmd_vacuum_trace(args) -> int:
    series = virasoro.vacuum_zpoint(args.k, args.order)
    _emit(
        {"k": args.k, "order": str(args.order), "series": _series_payload(series, args.format)},
        args.format,
    )
    return 0


def _cmd_lattice_trace(args) -> int:
    L = args.norm
    z = fock.z_total(L, args.order)
    weight = L // 2
    payload = {
        "norm": L,
        "order": str(args.order),
        "series": _series_payload(z, args.format),
    }
    realizable = L >= 16 and L % 8 == 0
    fits = None
    if weight % 2 == 0:
        space = modular.space_basis("S", weight, args.order)
        coeffs = modular.fit(z, space)
        fits = {
            "space": f"S_{weight}",
            "dim": space.dim,
            "coefficients": None if coeffs is None else [str(c) for c in coeffs],
        }
    payload["fits"] = fits
    _emit(payload, args.format)
    if realizable and (fits is None or fits["coefficients"] is None):
        return 1
    return 0


def _cmd_equivariant(args) -> int:
    spec = lattice.EquivariantSpec.load(args.spec)
    series = lattice.equivariant_z(spec, args.norm, args.order)
    _emit(
        {
            "spec": args.spec,
            "norm": args.norm,
            "order": str(args.order),
            "series": _series_payload(series, args.format),
        },
        args.format,
    )
    return 0


def _cmd_spaces(args) -> int:
    space = modular.space_basis(args.kind, args.weight, args.order)
    if args.format == "json":
        _emit(space.to_json_obj(), "json")
    else:
        print(f"kind: {space.kind}")
        print(f"weight: {space.weight}")
        print(f"dim: {space.dim}")
        for label, basis in zip(space.labels, space.basis):
            print(f"{label}: {basis}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--order", type=_bounded(MAX_ORDER, _fraction), default=Fraction(20),
        help=f"q-expansion truncation order (default 20, at most {MAX_ORDER})",
    )
    common.add_argument(
        "--format", choices=("json", "text"), default="json",
        help="output format (default json)",
    )

    parser = argparse.ArgumentParser(
        prog="moontrace",
        description="Exact-arithmetic trace functions of the moonshine module",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", parents=[common], help="print a named q-expansion")
    p.add_argument(
        "--what", required=True,
        help="eta, delta, jfunction, eisenstein:K, or theta:I",
    )
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("verify", parents=[common], help="check a stated identity")
    p.add_argument(
        "--identity", required=True,
        help="theta-quartic, theta-eta-quotients, serre-delta-zero, "
        "fock-oracle:L, twisted-oracle:L, equivariant-identity-case:L, "
        "prop31:KMAX, or ideal:L",
    )
    p.add_argument(
        "--skip-oracle", action="store_true",
        help="skip brute-force oracle recomputation (status becomes 'skipped')",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("vacuum-trace", parents=[common], help="vacuum descendant trace")
    p.add_argument("--k", type=_bounded(MAX_K), required=True,
                   help=f"number of weight-2 modes (at most {MAX_K})")
    p.set_defaults(func=_cmd_vacuum_trace)

    p = sub.add_parser(
        "lattice-trace", parents=[common],
        help="two-sector trace for a norm, with its cusp-space fit",
    )
    p.add_argument("--norm", type=_bounded(MAX_NORM), required=True,
                   help=f"norm <lambda,lambda> (at most {MAX_NORM})")
    p.set_defaults(func=_cmd_lattice_trace)

    p = sub.add_parser(
        "equivariant", parents=[common], help="equivariant trace from a spec file"
    )
    p.add_argument("--spec", required=True, help="path to an EquivariantSpec JSON file")
    p.add_argument("--norm", type=_bounded(MAX_NORM), required=True,
                   help=f"exponent L (at most {MAX_NORM})")
    p.set_defaults(func=_cmd_equivariant)

    p = sub.add_parser("spaces", parents=[common], help="print a form-space basis")
    p.add_argument("--kind", choices=("M", "S", "F"), required=True)
    p.add_argument("--weight", type=_bounded(MAX_WEIGHT), required=True,
                   help=f"weight (at most {MAX_WEIGHT} in absolute value)")
    p.set_defaults(func=_cmd_spaces)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except RouteDisagreement as exc:
        print(f"identity failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TruncationError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
