"""The benchmark's own tests: its correctness gate cannot pass vacuously.

usage: python3 -m pytest perfbench/test_perfbench.py -q
"""
import copy
import json
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import refs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from cli_session import check_response, run_request  # noqa: E402
import common  # noqa: E402
from common import Op, fresh_import, load_reference  # noqa: E402
from deep_series import DeepSeries  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def reference():
    return load_reference()


def _response(argv):
    code, stdout = run_request(argv)
    assert code == 0
    return json.loads(stdout)


def test_cli_output_matches_and_corruption_fails(reference):
    argv = ("expand", "--what", "delta")
    payload = _response(argv)
    assert check_response(argv, 0, json.dumps(payload), reference["cli"]) is None
    bad = copy.deepcopy(payload)
    bad["series"]["terms"][1]["coeff"] = str(Fraction(bad["series"]["terms"][1]["coeff"]) + 1)
    assert check_response(argv, 0, json.dumps(bad), reference["cli"]) is not None
    assert check_response(argv, 1, json.dumps(payload), reference["cli"]) is not None


def test_corrupted_series_without_independent_reference_fails(reference):
    argv = ("expand", "--what", "eisenstein:6")
    payload = _response(argv)
    assert check_response(argv, 0, json.dumps(payload), reference["cli"]) is None
    payload["series"]["terms"].pop()
    assert check_response(argv, 0, json.dumps(payload), reference["cli"]) is not None


def test_verify_needs_routes_and_the_seed_certified_order(reference):
    argv = ("verify", "--identity", "theta-quartic")
    payload = _response(argv)
    assert check_response(argv, 0, json.dumps(payload), reference["cli"]) is None
    for mutate in (
        lambda p: p.update(routes={}),
        lambda p: p.update(certified_order=str(Fraction(p["certified_order"]) - 1)),
        lambda p: p.update(status="skipped"),
        lambda p: p.update(agree=False),
    ):
        bad = copy.deepcopy(payload)
        mutate(bad)
        assert check_response(argv, 0, json.dumps(bad), reference["cli"]) is not None


def test_malformed_request_must_exit_2(reference):
    argv = ("expand", "--what", "bogus")
    assert check_response(argv, 2, "", reference["cli"]) is None
    assert check_response(argv, 0, "{}", reference["cli"]) is not None


def test_library_checks_reject_corrupted_results(reference):
    deep = DeepSeries(0)
    deep.modules = fresh_import()
    deep.build_inputs()
    series = deep.modules["qseries"].RationalSeries
    op = deep.op("delta", 60)
    good = op.call()
    assert op.check(good) is None
    assert op.check(good + series.monomial(1, 7, 60)) is not None
    assert op.check(good.truncate(59)) is not None   # lower order than asked
    op = deep.op("z_total:32", 60)
    good = op.call()
    assert op.check(good) is None
    assert op.check(good * 2) is not None            # recorded digest catches it
    assert deep.op("z_total:32", 70).check(good) is not None   # no recorded digest


def test_leech_check_rejects_extra_vectors():
    from lattice_load import LatticeWorkload
    workload = LatticeWorkload.__new__(LatticeWorkload)
    workload.modules = fresh_import()
    workload.leech = workload.modules["lattice"].leech_lattice()
    workload.root_inputs, workload.specs = [], []
    leech_op = workload.ops()[0]
    zero = (0,) * 24
    assert leech_op.check([zero]) is None
    assert leech_op.check([zero, (1,) + zero[1:]]) is not None
    assert leech_op.check([]) is not None


def test_failures_count_as_failed_operations():
    tally = run.Tally()
    tally.run(Op("ok", lambda: 1, lambda r: None))
    tally.run(Op("wrong", lambda: 1, lambda r: "wrong output"))
    tally.run(Op("raises", lambda: 1 / 0, lambda r: None))
    tally.run(Op("bad check", lambda: None, lambda r: r.support()))
    assert (tally.attempted, tally.failed) == (4, 3)


def test_scaling_uses_the_speed_samples_around_the_operation():
    ref = common.PROBE_REF_S
    probe = common.SpeedProbe()
    with pytest.raises(RuntimeError):
        probe.factor(0.0, 1.0)                     # no sample at all
    probe.times = [0.0, 1.0, 100.0, 101.0]
    probe.seconds = [ref, ref, 2 * ref, 2 * ref]
    assert probe.factor(0.5, 0.6) == 1.0           # normal speed around the operation
    assert probe.factor(100.2, 100.5) == 0.5       # half speed: the measured time halves
    assert probe.factor(1.5, 99.0) == 1 / 1.5      # the samples just before and after
    assert probe.factor(0.5, 100.5) == 1 / 1.5     # ... and those inside
    tally = run.Tally(probe)
    tally.samples = [{"op": "x", "start": 100.2, "end": 100.6, "s": 0.4, "ok": True}]
    assert tally.scaled_s(tally.samples[0]) == 0.2


def test_samples_inside_an_operation_are_left_out_of_its_time():
    def work():
        deadline = time.perf_counter() + 0.7
        while time.perf_counter() < deadline:
            pass
    tally = run.Tally(sampling=lambda probe: probe.during())
    tally.run(Op("busy", work, lambda r: None))
    sample = tally.samples[0]
    inside = [t for t in tally.probe.times if sample["start"] < t < sample["end"]]
    assert len(inside) >= 2
    assert tally.probe.inside > 0
    assert sample["s"] == sample["end"] - sample["start"] - tally.probe.inside


def test_a_child_process_is_sampled_while_it_runs():
    probe = common.SpeedProbe()
    busy = "import time\nt = time.perf_counter() + 0.7\nwhile time.perf_counter() < t: pass\nprint('done')"
    with subprocess.Popen([sys.executable, "-c", busy], stdout=subprocess.PIPE, text=True) as proc:
        stdout, _ = probe.communicate(proc, 60)
    assert stdout == "done\n" and proc.returncode == 0
    assert len(probe.times) >= 2 and probe.inside > 0


def test_metric_names_and_benchmark_file_agree():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert per_layer == tracer.per_layer_metrics()
    assert end_to_end == list(run.END_TO_END)
    names = [n for n, _ in per_layer + end_to_end] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(per_layer) <= 128


def test_percentiles_are_harrell_davis_estimates():
    assert run.percentile([0.25] * 100, 90) == pytest.approx(0.25)
    ramp = list(range(1, 102))
    assert run.percentile(ramp, 50) == pytest.approx(51, abs=0.01)
    assert 90 < run.percentile(ramp, 90) < 93
    assert run.percentile(ramp[::-1], 90) == run.percentile(ramp, 90)


def test_self_time_subtracts_children():
    spans = [
        ["outer", 0.0, 10.0, -1, 1, True],
        ["inner", 1.0, 4.0, 0, 1, True],
        ["outer", 5.0, 7.0, 0, 1, False],   # recursion: not busy twice
    ]
    rows = tracer.layer_metrics(spans)
    assert rows["outer"] == {"calls": 2, "busy_s": 10.0, "self_s": 5.0 + 2.0}
    assert rows["inner"] == {"calls": 1, "busy_s": 3.0, "self_s": 3.0}


def test_references_are_independent_of_the_library():
    # spot values from the literature
    assert refs.tau(6)[1:] == (1, -24, 252, -1472, 4830)
    j = refs.j_ref(3)
    assert (j[-1], j[0], j[1], j[2]) == (1, 0, 196884, 21493760)
    assert refs.root_lattice_theta_ref("D", 4, 2)[1] == 24
    assert refs.root_lattice_theta_ref("E", 8, 3) == {0: 1, 1: 240, 2: 2160}
