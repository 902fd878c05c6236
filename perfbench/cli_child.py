"""Run one posmap CLI command under the tracer (the cli workload's traced runs).

Usage: python cli_child.py TOTALS.json <posmap arguments>...
Writes the process's additive span totals, including the time taken to
import posmap.cli, to TOTALS.json and exits with the command's exit code.
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()
import posmap.cli  # noqa: E402

import_s = perf_counter() - t0

from tracer import Tracer  # noqa: E402


def main() -> int:
    totals_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        return posmap.cli.main(argv)
    finally:
        tracer.active = False
        totals = tracer.raw_totals()
        totals["cli.import_s"] = import_s
        with open(totals_path, "w") as fh:
            json.dump(totals, fh)


if __name__ == "__main__":
    sys.exit(main())
