"""Run one `moontrace` request with spans recorded, for the traced cli-session.

usage: python3 perfbench/traced_cli.py OUT_JSON SPAWN_TIME ARG...

SPAWN_TIME is the parent's wall clock just before it started this process, so
process_start_s covers interpreter start plus `import moontrace.cli`.  Spans,
counts and that start time go to OUT_JSON; stdout and the exit code are the
request's own.
"""
import json
import sys
import time
from pathlib import Path

out_path, spawn_time, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
here = Path(__file__).resolve().parent
sys.path.insert(0, str(here.parent / "src"))

import moontrace.cli as cli  # noqa: E402

process_start_s = time.time() - spawn_time
sys.path.insert(0, str(here))
from tracer import CLI_SUBCOMMANDS, Tracer  # noqa: E402

modules = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
           if name.startswith("moontrace.") and mod is not None}
tracer = Tracer()
tracer.install(modules)
main = cli.main
if argv and argv[0] in CLI_SUBCOMMANDS:
    main = tracer.span(f"cli.{argv[0]}", cli.main)
code = 1
try:
    code = main(argv)
except SystemExit as exc:  # argparse rejects bad arguments this way
    code = exc.code
finally:
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump({**tracer.export(), "process_start_s": process_start_s}, fh)
sys.exit(code)
