"""One traced CLI process: time the import, wrap the layers, run the subcommand.

    python3 perfbench/cli_child.py SPANS_JSON ARG...

Behaves like ``python -m exptails.cli ARG...`` (same stdout, same exit
status) and also writes {"import_s": ..., "spans": [...]} to SPANS_JSON.
"""

import json
import sys
from time import perf_counter

start = perf_counter()
import exptails.cli  # noqa: E402  (the import is what is being timed)

import_s = perf_counter() - start

import tracing  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    status = exptails.cli.run(argv)
    sys.stdout.flush()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
