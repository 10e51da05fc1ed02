"""cli-session: a closed loop of fresh `moontrace` processes, one client.

Each request starts a new interpreter at the default --order 20, so it pays
process start, import, cold library caches and the capped brute-force oracle,
as a command-line user does.  Every subcommand is in the mix, plus a few
malformed requests that must exit 2.
"""
from __future__ import annotations

import contextlib
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

import refs
from common import (
    HERE, OUT, ROOT, SRC, Op, fresh_import, load_reference, peak_rss_mb, rng_for, stratify,
)

ORDER = 20                    # the CLI default; requests do not pass --order
NORMS = (16, 24, 32)
KS = tuple(range(6))
SPEC_NORMS = (16, 24)         # the bundled identity specs
EISENSTEIN_WEIGHTS = (4, 6, 8, 10, 12)
SPACE_WEIGHTS = {"M": (4, 8, 12, 16, 20, 24), "S": (12, 16, 20, 24, 28, 32), "F": (0, 2, 4, 6, 8, 10)}
SPEC_DIR = OUT / "specs"


def spec_path(name):
    """A spec file's path as passed on the command line (relative to the root)."""
    return str((SPEC_DIR / f"{name}.json").relative_to(ROOT))


MALFORMED = (
    ("expand", "--what", "bogus"),
    ("expand", "--what", "delta", "--order", "0"),
    ("verify", "--identity", "no-such-identity"),
    ("vacuum-trace", "--k", "-1"),
    ("lattice-trace", "--norm", "7"),
    ("spaces", "--kind", "S", "--weight", "3"),
    ("equivariant", "--spec", spec_path("missing"), "--norm", "16"),
)
REQUEST_TIMEOUT_S = 120


def pass_slots():
    """(family, domain of argument vectors) per request of a pass.

    A family listed several times takes several requests per pass; its
    members spread over the domain (see common.Cycler).
    """
    slots = [
        ("verify:quartic", [("verify", "--identity", "theta-quartic")]),
        ("verify:quotients", [("verify", "--identity", "theta-eta-quotients")]),
        ("verify:serre", [("verify", "--identity", "serre-delta-zero")]),
        ("verify:fock", [("verify", "--identity", f"fock-oracle:{L}") for L in NORMS]),
        ("verify:twisted", [("verify", "--identity", f"twisted-oracle:{L}") for L in NORMS]),
        ("verify:equivariant",
         [("verify", "--identity", f"equivariant-identity-case:{L}") for L in SPEC_NORMS]),
        ("verify:prop31", [("verify", "--identity", f"prop31:{k}") for k in KS]),
        ("verify:ideal", [("verify", "--identity", f"ideal:{L}") for L in NORMS]),
    ]
    slots += 3 * [
        ("expand:eta", [("expand", "--what", "eta")]),
        ("expand:delta", [("expand", "--what", "delta")]),
        ("expand:j", [("expand", "--what", "jfunction")]),
        ("expand:eisenstein", [("expand", "--what", f"eisenstein:{k}") for k in EISENSTEIN_WEIGHTS]),
        ("expand:theta", [("expand", "--what", f"theta:{t}") for t in (1, 2, 3)]),
    ]
    slots += 4 * [
        ("vacuum", [("vacuum-trace", "--k", str(k)) for k in KS]),
        ("lattice", [("lattice-trace", "--norm", str(L)) for L in NORMS]),
    ]
    for kind, weights in SPACE_WEIGHTS.items():
        slots += 4 * [(f"spaces:{kind}", [("spaces", "--kind", kind, "--weight", str(w)) for w in weights])]
    slots += 5 * [("equivariant", [("equivariant", "--spec", spec_path(f"identity-{s}"), "--norm", str(L))
                                   for s in SPEC_NORMS for L in NORMS])]
    slots += 2 * [("malformed", list(MALFORMED))]
    return slots


def request_domain():
    """Every distinct request a pass can draw."""
    seen = {}
    for _, domain in pass_slots():
        for argv in domain:
            seen[argv] = None
    return list(seen)


def request_key(argv):
    return " ".join(argv)


class _JsonSeries:
    """A series read back from CLI JSON, with the accessors refs.compare_series uses."""

    def __init__(self, obj):
        d = int(obj["denominator"])
        self.terms = {Fraction(int(t["exp_num"]), d): Fraction(t["coeff"]) for t in obj["terms"]}
        self.order = Fraction(int(obj["order_num"]), d)

    def support(self):
        return sorted(self.terms)

    def coeff(self, e):
        return self.terms.get(e, Fraction(0))


def independent_check(argv, payload):
    """Checks against plain-integer references, where one exists."""
    cmd = argv[0]
    if cmd == "expand":
        what = argv[2]
        series = _JsonSeries(payload["series"])
        if what == "delta":
            return refs.compare_series(series, refs.delta_ref(ORDER), ORDER)
        if what == "jfunction":
            return refs.compare_series(series, refs.j_ref(ORDER), ORDER)
        if what.startswith("theta:"):
            return refs.compare_series(series, refs.theta_ref(int(what[6:]), ORDER), ORDER)
    if cmd == "vacuum-trace" and argv[2] == "0":
        return refs.compare_series(_JsonSeries(payload["series"]), refs.j_ref(ORDER), ORDER)
    if cmd in ("lattice-trace", "equivariant"):
        L = int(argv[-1])
        if L in (16, 24):
            return refs.compare_series(_JsonSeries(payload["series"]), refs.z_total_ref(L, ORDER), ORDER)
    return None


def check_response(argv, code, stdout, reference):
    """None if a request's exit code and output are right, else the reason."""
    want = reference.get(request_key(argv))
    if want is None:
        return "no reference for this request"
    if code != want["exit"]:
        return f"exit {code}, expected {want['exit']}"
    if code == 2:
        return None if not stdout.strip() else "malformed request printed a result"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    if argv[0] == "verify":
        if payload.get("status") != "ok" or payload.get("agree") is not True:
            return f"status {payload.get('status')!r}"
        if not payload.get("routes"):
            return "verify reported no routes"
        if Fraction(payload["certified_order"]) < Fraction(want["certified_order"]):
            return f"certified order {payload['certified_order']} below the seed's {want['certified_order']}"
        return None
    if (err := independent_check(argv, payload)):
        return err
    return None if refs.digest(payload) == want["digest"] else "output differs from the seed's"


def run_request(argv, traced_out=None, probe=None):
    """One fresh process; returns (exit code, stdout).  With `probe`, speed
    samples are taken while it runs (common.SpeedProbe.communicate)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if traced_out is None:
        cmd = [sys.executable, "-m", "moontrace.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(traced_out), repr(time.time()), *argv]
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            if probe is None:
                stdout, _ = proc.communicate(timeout=REQUEST_TIMEOUT_S)
            else:
                stdout, _ = probe.communicate(proc, REQUEST_TIMEOUT_S)
        except BaseException:
            proc.kill()
            raise
    return proc.returncode, stdout


class CliSession:
    def __init__(self, seed, reference=None):
        self.seed = seed
        self.reference = load_reference()["cli"] if reference is None else reference
        self.slots = stratify(seed, pass_slots())
        self.tracer = None
        self.probe = None
        self.process_starts = []

    def setup(self):
        """Import, then write the bundled identity specs (Leech Gram, LDL) as files."""
        lattice = fresh_import()["lattice"]
        SPEC_DIR.mkdir(parents=True, exist_ok=True)
        for L in SPEC_NORMS:
            lattice.identity_spec(L).save(ROOT / spec_path(f"identity-{L}"))

    def set_tracing(self, tracer):
        self.tracer = tracer

    @contextlib.contextmanager
    def sampling(self, probe):
        """Speed samples inside a request: the child is stopped for each."""
        self.probe = probe
        try:
            yield
        finally:
            self.probe = None

    def request(self, argv):
        def call():
            if self.tracer is None:
                return run_request(argv, probe=self.probe)
            trace_file = OUT / "child-trace.json"
            trace_file.unlink(missing_ok=True)
            result = run_request(argv, trace_file)
            # a child that died before writing its spans leaves no file
            if trace_file.exists():
                with open(trace_file) as fh:
                    child = json.load(fh)
                self.tracer.merge(child["spans"], child["counts"], child["maxima"], self.tracer.op_id)
                self.process_starts.append(child["process_start_s"])
                trace_file.unlink()
            return result
        return Op(request_key(argv), call,
                  lambda r: check_response(argv, r[0], r[1], self.reference))

    def warmup(self):
        return [self.request(("expand", "--what", "eta"))]

    def make_pass(self, index):
        ops = [self.request(cycler.pick(index, member)) for cycler, member in self.slots]
        rng_for(self.seed, "cli-order", index).shuffle(ops)
        return ops

    def peak_rss_mb(self):
        return peak_rss_mb(resource.RUSAGE_CHILDREN)
