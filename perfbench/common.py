"""Pieces shared by the workloads: operations, fresh imports, seeded schedules,
and the speed probe that scales measured times to a fixed machine speed."""
from __future__ import annotations

import bisect
import contextlib
import gc
import importlib
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

MODULES = ("qseries", "modular", "_linalg", "virasoro", "fock", "lattice", "cli")
PROBE_REF_S = 0.0012      # the probe kernel's time at reference speed (see SpeedProbe)
PROBE_REPEATS = 5
PROBE_INTERVAL_S = 0.1    # between speed samples inside an operation


@dataclass
class Op:
    """One operation: a call returning one certified result, and its check.

    `check(result)` returns None when the result is right and a short reason
    otherwise.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]


def fresh_import() -> dict:
    """Import moontrace from this checkout's src, dropping any earlier import.

    Dropping the modules makes every set-up pay the import and start from
    cold library caches, as a new process would.
    """
    for name in [m for m in sys.modules if m == "moontrace" or m.startswith("moontrace.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"moontrace.{name}") for name in MODULES}
    origin = Path(sys.modules["moontrace"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"moontrace was imported from {origin}, not from {SRC}")
    return modules


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def rng_for(seed, *labels) -> random.Random:
    """A generator fixed by the workload seed and a label, independent of call order."""
    return random.Random(":".join(str(x) for x in (seed, *labels)))


class Cycler:
    """Seeded stratified choice for a family of `members` operation slots.

    Member m of pass p takes domain[perm[(p + offset[m]) % len(domain)]], with
    `perm` and the member offsets seeded.  Each member uses every value once
    over len(domain) passes, and within one pass the members spread evenly
    over the domain, so the work a run draws depends on the seed far less
    than independent draws would.
    """

    def __init__(self, seed, family, domain, members=1):
        self.domain = list(domain)
        rng = rng_for(seed, "cycle", family)
        self.perm = rng.sample(range(len(self.domain)), len(self.domain))
        self.offsets = rng.sample(range(members), members)

    def pick(self, pass_index, member=0):
        return self.domain[self.perm[(pass_index + self.offsets[member]) % len(self.domain)]]


def stratify(seed, slots):
    """(Cycler, member) for each (family, domain) slot; a family may repeat."""
    members = Counter(family for family, _ in slots)
    cyclers = {family: Cycler(seed, family, domain, members[family]) for family, domain in slots}
    seen = Counter()
    out = []
    for family, _ in slots:
        out.append((cyclers[family], seen[family]))
        seen[family] += 1
    return out


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class InProcessWorkload:
    """A workload whose operations are library calls in this process."""

    def __init__(self, seed):
        self.seed = seed
        self.modules: dict = {}
        self.process_starts: list = []   # only the cli workload starts processes
        self._tracer = None

    def setup(self):
        self.modules = fresh_import()
        self.build_inputs()

    def build_inputs(self):
        raise NotImplementedError

    def set_tracing(self, tracer):
        """Install `tracer`'s wrappers, or remove the installed ones when None."""
        if tracer is None:
            self._tracer.uninstall()
        else:
            tracer.install(self.modules)
        self._tracer = tracer

    def sampling(self, probe):
        """Speed samples inside an operation: a timer signal interrupts it."""
        return probe.during()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()


def probe_kernel():
    """Fixed pure-Python work of the kind the library does: word-size and big
    integer arithmetic, Fraction sums and dict updates (about 1 ms)."""
    acc = {}
    x, f = 1, Fraction(0)
    for i in range(1, 300):
        x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        acc[x % 61] = acc.get(x % 61, 0) + (x >> 40)
        f += Fraction(x % 1000 + 1, i % 24 + 1)
    return f, acc


class SpeedProbe:
    """How fast this machine runs Python right now, sampled around operations.

    The machine is shared: its speed for the same pure-Python work drifts by
    up to 1.5x within a minute and jumps within a second, for the library
    and for this kernel alike.  `sample()` times the kernel (median of
    PROBE_REPEATS runs, with the collector off so the library's live objects
    do not slow it).  `factor(start, end)` is PROBE_REF_S over the mean of
    the samples taken just before `start`, inside [start, end] and just after
    `end`; a time measured in [start, end], times the factor, is the time at
    reference speed.
    """

    def __init__(self):
        self.times: list = []     # perf_counter() at the end of each sample
        self.seconds: list = []   # kernel time of each sample
        self.inside = 0.0         # time taken by samples inside an operation (caller resets)

    def sample(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            runs = []
            for _ in range(PROBE_REPEATS):
                start = time.perf_counter()
                probe_kernel()
                runs.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        self.times.append(time.perf_counter())
        self.seconds.append(statistics.median(runs))

    @contextlib.contextmanager
    def during(self):
        """Sample every PROBE_INTERVAL_S while the block runs in this process.

        A timer signal interrupts the block for each sample; the samples'
        time is added to `inside`, for the caller to subtract from its timing.
        """
        def tick(signum, frame):
            start = time.perf_counter()
            self.sample()
            self.inside += time.perf_counter() - start

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def communicate(self, proc, timeout):
        """`proc.communicate()`, sampling every PROBE_INTERVAL_S meanwhile.

        The child is stopped for each sample, so the sample runs on the CPU
        the two share instead of competing with the child for it.  The pauses
        are added to `inside`, for the caller to subtract from its timing.
        """
        deadline = time.monotonic() + timeout
        while True:
            try:
                return proc.communicate(timeout=PROBE_INTERVAL_S)
            except subprocess.TimeoutExpired:
                if time.monotonic() > deadline:
                    raise
            start = time.perf_counter()
            proc.send_signal(signal.SIGSTOP)
            try:
                self.sample()
            finally:
                proc.send_signal(signal.SIGCONT)
            self.inside += time.perf_counter() - start

    def factor(self, start, end) -> float:
        before = bisect.bisect_left(self.times, start)
        after = bisect.bisect_left(self.times, end)
        near = self.seconds[max(before - 1, 0):after + 1]
        if not near:
            raise RuntimeError("no speed sample around the measured interval")
        return PROBE_REF_S / statistics.fmean(near)
