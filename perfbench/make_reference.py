"""Record the reference CSVs the closed-form checks compare against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Runs every CLI op of every workload in-process at seed 0 and keeps the
columns that do not depend on the seed, in ``reference/<op>.csv``.
"""

import contextlib
import io
from pathlib import Path

import mfrelay.cli

import checks
import workloads


def main():
    out_dir = Path(__file__).resolve().parent / "reference"
    out_dir.mkdir(exist_ok=True)
    for ops in workloads.WORKLOADS.values():
        for name, argv in ops:
            if argv[0] != "cli":
                continue
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                if mfrelay.cli.main([*argv[1:], "--seed", "0"]) != 0:
                    raise SystemExit(f"{name} failed")
            table = checks.parse_csv(buf.getvalue())
            columns = [c for c in table.header if checks.seed_independent(c)]
            (out_dir / f"{name}.csv").write_text(checks.reference_text(table, columns))


if __name__ == "__main__":
    main()
