"""Golden CLI output: exit code and stdout digest of a fixed set of requests.

`cli_golden.json` holds, for each request below, the exit code and the
sha256 of stdout.  Any change to what the CLI prints for these requests
fails this test.  Regenerate the file only for a deliberate change of CLI
output, named in CHANGES.md:

    PYTHONPATH=src python tests/test_cli_golden.py --write

Spec requests name `identity-16.json` and `identity-24.json` relative to the
working directory, which the test sets to a directory holding those files,
so the path echoed in the JSON output is fixed.
"""
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

from moontrace import cli
from moontrace.lattice import identity_spec

GOLDEN = Path(__file__).with_name("cli_golden.json")
SPEC_NORMS = (16, 24)


def _default_order_requests():
    """One of each request the cli-session benchmark draws, at the default order."""
    norms = (16, 24, 32)
    ks = range(6)
    reqs = [
        ("verify", "--identity", "theta-quartic"),
        ("verify", "--identity", "theta-eta-quotients"),
        ("verify", "--identity", "serre-delta-zero"),
        *(("verify", "--identity", f"fock-oracle:{L}") for L in norms),
        *(("verify", "--identity", f"twisted-oracle:{L}") for L in norms),
        *(("verify", "--identity", f"equivariant-identity-case:{L}") for L in SPEC_NORMS),
        *(("verify", "--identity", f"prop31:{k}") for k in ks),
        *(("verify", "--identity", f"ideal:{L}") for L in norms),
        ("expand", "--what", "eta"),
        ("expand", "--what", "delta"),
        ("expand", "--what", "jfunction"),
        *(("expand", "--what", f"eisenstein:{k}") for k in (4, 6, 8, 10, 12)),
        *(("expand", "--what", f"theta:{t}") for t in (1, 2, 3)),
        *(("vacuum-trace", "--k", str(k)) for k in ks),
        *(("lattice-trace", "--norm", str(L)) for L in norms),
    ]
    weights = {"M": (4, 8, 12, 16, 20, 24), "S": (12, 16, 20, 24, 28, 32), "F": (0, 2, 4, 6, 8, 10)}
    for kind, ws in weights.items():
        reqs += [("spaces", "--kind", kind, "--weight", str(w)) for w in ws]
    reqs += [("equivariant", "--spec", f"identity-{s}.json", "--norm", str(L))
             for s in SPEC_NORMS for L in norms]
    reqs += [
        ("expand", "--what", "bogus"),
        ("expand", "--what", "delta", "--order", "0"),
        ("verify", "--identity", "no-such-identity"),
        ("vacuum-trace", "--k", "-1"),
        ("lattice-trace", "--norm", "7"),
        ("spaces", "--kind", "S", "--weight", "3"),
        ("equivariant", "--spec", "missing.json", "--norm", "16"),
    ]
    return reqs


def _low_order_requests():
    """Orders near and below the certification bound, where refusals live."""
    reqs = []
    for order in ("1", "3/2", "2", "5/2", "3", "20"):
        reqs += [("lattice-trace", "--norm", str(L), "--order", order)
                 for L in (2, 16, 24, 30, 32, 48)]
        reqs += [("verify", "--identity", f"equivariant-identity-case:{L}", "--order", order)
                 for L in SPEC_NORMS]
        reqs += [("verify", "--identity", f"ideal:{L}", "--order", order)
                 for L in (16, 24, 32)]
    return reqs


REQUESTS = list(dict.fromkeys(_default_order_requests() + _low_order_requests()))


def _key(argv):
    return " ".join(argv)


def run_request(argv):
    """(exit code, sha256 of stdout) of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        # norms 2 and 30 warn that they are not realizable; stderr is not compared
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def write_specs(directory):
    for L in SPEC_NORMS:
        identity_spec(L).save(Path(directory) / f"identity-{L}.json")


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("specs")
    write_specs(directory)
    return directory


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_lists_exactly_these_requests(golden):
    assert sorted(golden) == sorted(_key(argv) for argv in REQUESTS)


@pytest.mark.parametrize("argv", REQUESTS, ids=_key)
def test_cli_output_matches_golden(argv, golden, spec_dir, monkeypatch):
    monkeypatch.chdir(spec_dir)
    code, digest = run_request(argv)
    assert {"exit": code, "stdout_sha256": digest} == golden[_key(argv)]


def _write_golden():
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        write_specs(directory)
        os.chdir(directory)
        try:
            golden = {}
            for argv in REQUESTS:
                code, digest = run_request(argv)
                golden[_key(argv)] = {"exit": code, "stdout_sha256": digest}
        finally:
            os.chdir(cwd)
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    _write_golden()
