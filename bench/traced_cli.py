"""Run one cptree CLI command in this process with the layer wrappers installed.

Usage: python3 bench/traced_cli.py OUT_PREFIX <cptree arguments...>

Writes the spans to OUT_PREFIX.tsv and the counters to OUT_PREFIX.json, which
the parent run merges, and exits with the command's exit code. The import of
cptree.cli is timed as cli.import; the command itself is the cli.main span.
"""

import json
import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter_ns()
    import cptree.cli

    import_ns = time.perf_counter_ns() - t0

    from tracing import Tracer

    tracer = Tracer()
    tracer.add_covered("cli.import", import_ns)
    tracer.install()
    prefix = sys.argv[1]
    code = tracer.span("cli.main", cptree.cli.main)(sys.argv[2:])
    tracer.uninstall()
    tracer.write_spans(prefix + ".tsv")
    with open(prefix + ".json", "w", encoding="utf-8") as out:
        json.dump(tracer.summary(), out)
    sys.exit(code)
