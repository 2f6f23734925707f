"""One traced command-line invocation, for the traced cli-cold run.

    python perfbench/cli_traced.py SPANS.json OP_ID <cli arguments...>

Times the package import, installs the layer wrappers, runs
``zeta_explicit.cli.main`` on the arguments (its output goes to stdout
as usual) and writes the spans, the import time and the script's own
elapsed time to SPANS.json.
"""

import sys
import time

T0 = time.perf_counter()

import json  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    t = time.perf_counter()
    import zeta_explicit.cli as cli
    import_s = time.perf_counter() - t
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.op = op_id
    rc = cli.main(argv)
    sys.stdout.flush()
    record = tracer.dump()
    record["import_s"] = import_s
    record["script_s"] = time.perf_counter() - T0
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, separators=(",", ":"))
    return rc


if __name__ == "__main__":
    sys.exit(main())
