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

from . import fock, identities, lattice, modular, virasoro
from .identities import MAX_K, MAX_NORM
from .qseries import RouteDisagreement, TruncationError

# largest accepted inputs (in absolute value); every request within them
# finishes in about a minute at most, anything beyond is refused up front
# (MAX_NORM and MAX_K come from the identity registry)
MAX_ORDER = 200             # --order
MAX_WEIGHT = 128            # spaces --weight and the K of eisenstein:K


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
    if what == "eisenstein" and int(suffix or 4) > MAX_WEIGHT:
        raise ValueError(f"eisenstein weight {suffix} exceeds the limit {MAX_WEIGHT}")
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

def _cmd_verify(args) -> int:
    ok, certified, routes = identities.verify(args.identity, args.order)
    payload = {
        "identity": args.identity,
        "requested_order": str(args.order),
        "certified_order": str(certified),
        "status": "ok" if ok else "fail",
        "agree": ok,
        "routes": {k: _series_payload(v, args.format) for k, v in routes.items()},
    }
    _emit(payload, args.format)
    return 0 if ok else 1


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
        help=f"eta, delta, jfunction, eisenstein:K (K at most {MAX_WEIGHT}), or theta:I",
    )
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("verify", parents=[common], help="check a stated identity")
    p.add_argument(
        "--identity", required=True,
        help=", ".join(
            name if default is None else f"{name}:N (default {default}, at most {limit})"
            for name, (_, default, limit) in identities.IDENTITIES.items()
        ),
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
