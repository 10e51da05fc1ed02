"""moontrace benchmark: one workload, one seed, one line of JSON results.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that has src/moontrace.  Set-up runs
SETUP_REPEATS times and reports the median.  The measured loop then runs
whole passes (each pass is the same mix of operations, in a seeded order and
with seeded parameters) until the operations have taken --seconds and at
least MIN_OPS operations are done, so p90 has ten samples above it.  Every
result is checked; a failed check counts in `failed`.  The end-to-end times
are scaled to a reference machine speed with speed samples taken around
each operation (common.SpeedProbe); the measured times are printed too.

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 each pass
runs twice, once plain and once with spans recorded around the library's
public functions, and the metrics are per-layer values per traced pass plus
the tracing overhead (traced minus plain time).  The last line of stdout is
the result JSON; a full record (environment, every sample, failures) and the
spans go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

from common import OUT, PROBE_REF_S, SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
MIN_OPS = 100
MEASURE_CAP_S = 110     # stop starting passes after this, so a run ends within 180 s
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("throughput_ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def make_workload(name, seed):
    """A workload: setup(), warmup() and make_pass(i) -> [Op], set_tracing(tracer
    or None), peak_rss_mb(), and process_starts (child start times, traced)."""
    if name == "cli-session":
        from cli_session import CliSession
        return CliSession(seed)
    if name == "deep-series":
        from deep_series import DeepSeries
        return DeepSeries(seed)
    if name == "lattice":
        from lattice_load import LatticeWorkload
        return LatticeWorkload(seed)
    raise SystemExit(f"unknown workload {name!r}")


class Tally:
    """Runs operations, times them, and counts attempts and failures.

    A speed sample is taken before every operation (and by `close()` after
    the last), so each measured time can be scaled to reference speed.  With
    `sampling`, a workload's `sampling(probe)`, samples are also taken while
    an operation runs, and their time is left out of the operation's.
    """

    def __init__(self, probe=None, sampling=None):
        self.probe = SpeedProbe() if probe is None else probe
        self.sampling = sampling
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.samples = []

    def run(self, op, tracer=None, record=True) -> float:
        self.attempted += 1
        if tracer is not None:
            tracer.op_id = self.attempted
        self.probe.sample()
        self.probe.inside = 0.0
        error = None
        with self.sampling(self.probe) if self.sampling else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # an operation that raises is a failed operation
                error = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
        elapsed = end - start - self.probe.inside
        if error is None:
            try:
                error = op.check(result)
            except Exception as exc:  # a result the check cannot read is wrong
                error = f"check raised {type(exc).__name__}: {exc}"
        if error:
            self.failed += 1
            self.failures.append({"op": op.label, "error": error})
        if record:
            self.samples.append({"op": op.label, "start": start, "end": end, "s": elapsed,
                                 "ok": not error})
        return elapsed

    def scaled_s(self, sample) -> float:
        """A sample's time at reference speed, from the speed samples around it."""
        return sample["s"] * self.probe.factor(sample["start"], sample["end"])

    def close(self):
        """Take the last speed sample and store each sample's scaled time."""
        self.probe.sample()
        for sample in self.samples:
            sample["scaled_s"] = self.scaled_s(sample)


def percentile(values, q):
    """Harrell-Davis estimate of the q-th percentile, q in (0, 100).

    A weighted mean of all order statistics: the i-th smallest of n gets the
    Beta((n+1)p, (n+1)(1-p)) probability of ((i-1)/n, i/n].  Unlike a single
    order statistic it does not jump when operations of different cost trade
    ranks (F. E. Harrell and C. E. Davis, Biometrika 69 (1982) 635-640).
    """
    ordered = sorted(values)
    n, p = len(ordered), q / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    steps = 8   # Simpson's rule on each interval
    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (n * steps)
        inner = sum((4 if j % 2 else 2) * density(lo + j * h) for j in range(1, steps))
        weights.append(h / 3 * (density(lo) + inner + density(lo + steps * h)))
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def measure(workload, tally, seconds):
    """Whole passes until the operations took `seconds` at reference speed and
    MIN_OPS are done.  Scaling first keeps the number of passes, and so the
    operation mix, the same on a slow and a fast stretch of the machine."""
    spent, passes = 0.0, 0
    while passes == 0 or ((spent < seconds or len(tally.samples) < MIN_OPS)
                          and time.perf_counter() - tally.samples[0]["start"] < MEASURE_CAP_S):
        for op in workload.make_pass(passes):
            tally.run(op)
            spent += tally.scaled_s(tally.samples[-1])
        passes += 1
    return passes


def measure_traced(workload, tally, seconds, tracer):
    """Plain and traced copies of each pass, alternating which goes first."""
    plain_s = traced_s = 0.0
    passes = traced_ops = 0
    while passes == 0 or (plain_s + traced_s < seconds and plain_s + traced_s < MEASURE_CAP_S):
        ops = workload.make_pass(passes)
        traced_ops += len(ops)
        for traced in ((False, True) if passes % 2 == 0 else (True, False)):
            if traced:
                workload.set_tracing(tracer)
            try:
                spent = sum(tally.run(op, tracer if traced else None) for op in ops)
            finally:
                if traced:
                    workload.set_tracing(None)
            if traced:
                traced_s += spent
            else:
                plain_s += spent
        passes += 1
    return plain_s, traced_s, passes, traced_ops


def environment(seed):
    def git_sha():
        head = ROOT / ".git" / "HEAD"
        if not head.is_file():
            return None
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return None

    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-session", "deep-series", "lattice"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "moontrace" / "__init__.py").is_file():
        print(f"error: no moontrace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from tracer import Tracer, per_layer_report

    env = environment(args.seed)
    # One CPU for the benchmark and the processes it starts, so that the
    # speed samples and the measured work run on the same shared core.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env["cpu"] = cpu
    workload = make_workload(args.workload, args.seed)
    probe = SpeedProbe()
    setups = []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        start = time.perf_counter()
        workload.setup()
        setups.append((start, time.perf_counter() - start))
    # samples inside operations would add their time to the traced spans
    tally = Tally(probe, sampling=None if args.trace else workload.sampling)
    for op in workload.warmup():
        tally.run(op, record=False)

    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "environment": env, "probe_ref_s": PROBE_REF_S}
    if args.trace:
        tracer = Tracer()
        plain_s, traced_s, passes, traced_ops = measure_traced(workload, tally, args.seconds, tracer)
        tally.close()
        metrics = per_layer_report(
            tracer, passes, workload.process_starts,
            (traced_s - plain_s) / traced_ops, 100.0 * (traced_s - plain_s) / plain_s)
        record.update(passes=passes, plain_s=plain_s, traced_s=traced_s)
    else:
        passes = measure(workload, tally, args.seconds)
        tally.close()

        def end_to_end(setup_times, latencies):
            return {
                "setup_s": statistics.median(setup_times),
                "latency_p50_s": percentile(latencies, 50),
                "latency_p90_s": percentile(latencies, 90),
                "throughput_ops_per_s": len(latencies) / sum(latencies),
                "peak_rss_mb": workload.peak_rss_mb(),
            }
        values = end_to_end([s * probe.factor(start, start + s) for start, s in setups],
                            [x["scaled_s"] for x in tally.samples])
        measured = end_to_end([s for _, s in setups], [x["s"] for x in tally.samples])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        record.update(passes=passes, samples=len(tally.samples), measured=measured,
                      speed_factor=PROBE_REF_S / statistics.median(probe.seconds))
    record["setup_times_s"] = [s for _, s in setups]
    record["probe_samples"] = [[at, s] for at, s in zip(probe.times, probe.seconds)]

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record.update(metrics=metrics, attempted=tally.attempted, failed=tally.failed,
                  failures=tally.failures, operations=tally.samples)
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(OUT / f"{stem}-spans.json", "w") as fh:
            json.dump(tracer.export(), fh)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} passes {record['passes']}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"samples {record['samples']} (latency percentiles over this many operations)")
        print(f"speed_factor {record['speed_factor']:.4g} (median; times above are measured "
              f"times scaled to reference speed)")
        print("measured " + " ".join(f"{name}={value:.6g}" for name, value in measured.items()))
    print(f"error_rate {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    for failure in tally.failures[:10]:
        print(f"FAILED {failure['op']}: {failure['error']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
