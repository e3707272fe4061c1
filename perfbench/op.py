"""Run one benchmark op in this (fresh) interpreter.

    python3 op.py REPORT OP_ID TRACE cli <mfrelay argv...>
    python3 op.py REPORT OP_ID TRACE <library op> <seed> [<args>...]

Times ``import mfrelay`` before anything else is imported, optionally
installs the tracer (TRACE = 1), runs the op and writes REPORT as JSON
lines: one record {"import_s", "mfrelay", "result"} and then one line per
span.  A CLI op writes its CSV to stdout exactly as ``mfrelay`` does; the
exit code is the CLI's.
"""

import sys
import time


def main(argv) -> int:
    report, op_id, trace, kind, *rest = argv
    start = time.perf_counter()
    import mfrelay
    import_s = time.perf_counter() - start

    import json

    if kind == "cli":
        import mfrelay.cli
    record = {"import_s": import_s, "mfrelay": mfrelay.__file__}
    tracer = None
    if trace == "1":
        import spans

        tracer = spans.Tracer(int(op_id))
        tracer.install(mfrelay)
    try:
        if kind == "cli":
            rc = mfrelay.cli.main(rest)
        else:
            import workloads

            record["result"] = workloads.LIBRARY_OPS[kind](mfrelay, int(rest[0]), *rest[1:])
            rc = 0
    finally:
        with open(report, "w") as fh:
            fh.write(json.dumps(record) + "\n")
            if tracer is not None:
                tracer.dump(fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
