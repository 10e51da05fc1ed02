"""Record the reference outputs the benchmark compares against.

usage: python3 perfbench/make_reference.py

Run this once, at the commit whose outputs are the reference (the seed commit
of the benchmark); later commits must reproduce them.  It runs every request
the cli-session workload can draw and every deep-series operation whose check
needs a recorded output, and writes perfbench/reference.json:

  cli:  request -> exit code, digest of the JSON output, certified order
  deep: operation key -> digest of the result's JSON form
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import refs  # noqa: E402
from cli_session import (  # noqa: E402
    MALFORMED, CliSession, independent_check, request_domain, request_key, run_request,
)
from common import REFERENCE  # noqa: E402
from deep_series import DeepSeries, digest_object, reference_cases  # noqa: E402


def cli_reference():
    session = CliSession(0, reference={})
    session.setup()
    out = {}
    for argv in request_domain():
        code, stdout = run_request(argv)
        if code != (2 if argv in MALFORMED else 0):
            raise SystemExit(f"{request_key(argv)}: unexpected exit {code}")
        entry = {"exit": code, "digest": None, "certified_order": None}
        if code == 0:
            payload = json.loads(stdout)
            if (err := independent_check(argv, payload)):
                raise SystemExit(f"{request_key(argv)}: {err}")
            entry["digest"] = refs.digest(payload)
            entry["certified_order"] = payload.get("certified_order")
        out[request_key(argv)] = entry
        print(f"cli {request_key(argv)}: exit {code}", flush=True)
    return out


def deep_reference():
    deep = DeepSeries(0, reference={})
    deep.setup()
    out = {}
    for key, kind, N, cusp, pole in reference_cases():
        op = deep.op(kind, N, cusp, pole, checked=False)
        result = op.call()
        if (err := op.check(result)):
            raise SystemExit(f"{key}: {err}")
        out[key] = refs.digest(digest_object(kind, result))
        print(f"deep {key}", flush=True)
    return out


def main():
    reference = {"cli": cli_reference(), "deep": deep_reference()}
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
