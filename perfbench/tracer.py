"""Spans around moontrace's public functions, installed from outside the package.

`Tracer.install` replaces each listed function (and each listed series method)
with a wrapper that records one span: name, start, end, parent span and
operation id.  Spans stay in memory; `layer_metrics` turns them into calls,
busy time (outermost spans of a name only, so recursion is not counted twice)
and self time (duration minus the time covered by child spans).  A few counts
are taken at the same boundaries: operand term pairs and result coefficient
bits of series products, matrix cells handed to `rref`, and lattice vectors
returned by enumeration and theta series.
"""
from __future__ import annotations

import statistics
import sys
from fractions import Fraction
from functools import wraps
from time import perf_counter

SERIES_CLASSES = ("RationalSeries", "MarkerSeries")
SERIES_METHODS = {
    "mul": ("__mul__", "__rmul__"),
    "add": ("__add__", "__radd__"),
    "invert": ("invert",),
    "pow_int": ("pow_int",),
    "exp_series": ("exp_series",),
}
# metric layer -> (module under moontrace, public functions)
FUNCTIONS = {
    "modular": ("modular", ("eta", "theta", "eisenstein", "delta", "jfunction",
                            "serre_derive", "space_basis", "fit")),
    "linalg": ("_linalg", ("rref", "rank", "nullspace", "solve_in_span")),
    "virasoro": ("virasoro", ("descendant_zpoint", "vacuum_zpoint", "partial_ideal_member",
                              "compute_nl", "normal_order")),
    "fock": ("fock", ("z_total", "z_untwisted", "z_twisted", "closed_trace_A",
                      "closed_trace_M1", "twisted_closed_trace", "brute_trace_A",
                      "brute_trace_M1", "brute_twisted_trace", "z_total_brute")),
    "lattice": ("lattice", ("enumerate_vectors", "theta_series", "twisted_theta",
                            "eta_product", "equivariant_z")),
}
LATTICE_INIT = "lattice.Lattice.init"
CLI_SUBCOMMANDS = ("expand", "verify", "vacuum-trace", "lattice-trace", "equivariant", "spaces")
# counts taken at span boundaries: name -> unit (summed; MAXIMA keep the largest)
COUNTS = {
    "qseries.mul.term_pairs": "count",
    "linalg.cells": "count",
    "lattice.vectors": "count",
}
MAXIMA = {"qseries.mul.max_coeff_bits": "bits"}

_MISSING = object()


def span_names() -> list:
    names = [f"qseries.{short}" for short in SERIES_METHODS]
    for layer, (_, funcs) in FUNCTIONS.items():
        names += [f"{layer}.{f}" for f in funcs]
        if layer == "lattice":
            names.insert(names.index("lattice.enumerate_vectors"), LATTICE_INIT)
    return names


def per_layer_metrics() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in span_names():
        out += [(f"{name}.calls", "count"), (f"{name}.busy_s", "s"), (f"{name}.self_s", "s")]
    out += list(COUNTS.items()) + list(MAXIMA.items())
    out.append(("cli.process_start_s", "s"))
    out += [(f"cli.{sub}.busy_s", "s") for sub in CLI_SUBCOMMANDS]
    out += [("trace.overhead_s", "s"), ("trace.overhead_pct", "%")]
    return out


def _term_count(series) -> int:
    terms = getattr(series, "terms", None)
    if isinstance(terms, (dict, list, tuple)):
        return len(terms)
    return len(series.support())


def _coeff_bits(value) -> int:
    if isinstance(value, (int, Fraction)):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    return max((_coeff_bits(c) for c in getattr(value, "coeffs", ())), default=0)


def _max_coeff_bits(series) -> int:
    terms = getattr(series, "terms", None)
    values = terms.values() if isinstance(terms, dict) else (series.coeff(e) for e in series.support())
    return max((_coeff_bits(c) for c in values), default=0)


class Tracer:
    """In-memory span recorder; one per benchmark run."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, op id, outermost]
        self.stack = []
        self.active = {}     # name -> open spans of that name
        self.op_id = None
        self.counts = dict.fromkeys(COUNTS, 0)
        self.maxima = dict.fromkeys(MAXIMA, 0)
        self._patches = []

    # --- recording -------------------------------------------------------------
    def span(self, name, fn, before=None, after=None):
        """Wrap `fn` so each call records a span named `name`."""
        spans, stack, active = self.spans, self.stack, self.active

        @wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args)
            index = len(spans)
            depth = active.get(name, 0)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, depth == 0]
            spans.append(record)
            stack.append(index)
            active[name] = depth + 1
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
                active[name] = depth
            if after is not None:
                after(self, result)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def install(self, modules: dict):
        """Wrap every listed function in the freshly imported moontrace modules.

        `modules` maps module names under moontrace ('qseries', 'modular', ...)
        to module objects.  A function bound under the same name in another
        moontrace module (a `from x import f`) is replaced there too.  Names a
        future version no longer has are reported and skipped.
        """
        qseries = modules["qseries"]
        hooks = {"mul": (_count_pairs, _count_bits)}
        for cls_name in SERIES_CLASSES:
            cls = getattr(qseries, cls_name)
            for short, attrs in SERIES_METHODS.items():
                before, after = hooks.get(short, (None, None))
                for attr in attrs:
                    fn = getattr(cls, attr, None)
                    if fn is None:
                        print(f"trace: {cls_name}.{attr} not found", file=sys.stderr)
                        continue
                    self._patch(cls, attr, self.span(f"qseries.{short}", fn, before, after))
        fn_hooks = {
            "linalg.rref": (_count_cells, None),
            "lattice.enumerate_vectors": (None, _count_vectors),
            "lattice.theta_series": (None, _count_theta_vectors),
        }
        for layer, (modname, funcs) in FUNCTIONS.items():
            home = modules[modname]
            for fname in funcs:
                fn = getattr(home, fname, None)
                if fn is None:
                    print(f"trace: {modname}.{fname} not found", file=sys.stderr)
                    continue
                name = f"{layer}.{fname}"
                wrapper = self.span(name, fn, *fn_hooks.get(name, (None, None)))
                for mod in modules.values():
                    if getattr(mod, fname, None) is fn:
                        self._patch(mod, fname, wrapper)
        lattice_cls = modules["lattice"].Lattice
        self._patch(lattice_cls, "__init__", self.span(LATTICE_INIT, lattice_cls.__init__))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # --- merging spans recorded in another process ------------------------------
    def merge(self, spans, counts, maxima, op_id):
        base = len(self.spans)
        for name, start, end, parent, _, outer in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, op_id, outer])
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value
        for key, value in maxima.items():
            self.maxima[key] = max(self.maxima.get(key, 0), value)

    def export(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "maxima": self.maxima}


def _count_pairs(tracer, args):
    if len(args) == 2 and hasattr(args[1], "support"):
        tracer.counts["qseries.mul.term_pairs"] += _term_count(args[0]) * _term_count(args[1])


def _count_bits(tracer, result):
    if hasattr(result, "support"):
        bits = _max_coeff_bits(result)
        if bits > tracer.maxima["qseries.mul.max_coeff_bits"]:
            tracer.maxima["qseries.mul.max_coeff_bits"] = bits


def _count_cells(tracer, args):
    rows = args[0]
    tracer.counts["linalg.cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _count_vectors(tracer, result):
    tracer.counts["lattice.vectors"] += len(result)


def _count_theta_vectors(tracer, result):
    tracer.counts["lattice.vectors"] += int(sum(result.coeff(e) for e in result.support()))


def layer_metrics(spans) -> dict:
    """{span name: {'calls', 'busy_s', 'self_s'}} over a list of span records."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _, _, outer) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        if outer:
            row["busy_s"] += end - start
        row["self_s"] += end - start - child_time[i]
    return out


def per_layer_report(tracer, traced_passes, process_starts, overhead_s, overhead_pct) -> dict:
    """Every per-layer metric, per traced pass, as {name: {'value', 'unit'}}."""
    rows = layer_metrics(tracer.spans)
    scale = 1.0 / max(traced_passes, 1)
    values = {}
    for name in span_names():
        row = rows.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        values[f"{name}.calls"] = row["calls"] * scale
        values[f"{name}.busy_s"] = row["busy_s"] * scale
        values[f"{name}.self_s"] = row["self_s"] * scale
    for key in COUNTS:
        values[key] = tracer.counts.get(key, 0) * scale
    for key in MAXIMA:
        values[key] = tracer.maxima.get(key, 0)
    values["cli.process_start_s"] = statistics.median(process_starts) if process_starts else 0.0
    for sub in CLI_SUBCOMMANDS:
        values[f"cli.{sub}.busy_s"] = rows.get(f"cli.{sub}", {"busy_s": 0.0})["busy_s"] * scale
    values["trace.overhead_s"] = overhead_s
    values["trace.overhead_pct"] = overhead_pct
    units = dict(per_layer_metrics())
    return {name: {"value": values[name], "unit": units[name]} for name, _ in per_layer_metrics()}
