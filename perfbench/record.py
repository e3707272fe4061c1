"""Record one trajectory point: every workload, untraced and traced.

    python3 perfbench/record.py

Run from the root of a git checkout.  Every point is recorded the same
way, with seed 1 and the ``run_seconds`` of ``BENCHMARK.json``, so points
compare.  Writes ``perfbench/trajectory/<git sha>.json`` with the
environment record and the result line of each run, and prints the file
name.
"""

import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SEED = 1
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def main() -> int:
    point = {"seed": SEED, "seconds": SECONDS, "results": {}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                                   "--seed", str(SEED), "--seconds", str(SECONDS),
                                   "--trace", str(trace)], capture_output=True, text=True, check=True)
            lines = proc.stdout.splitlines()
            point["env"] = json.loads(next(l for l in lines if l.startswith("env "))[4:])
            point["results"].setdefault(workload, {})[f"trace{trace}"] = json.loads(lines[-1])
    out = HERE / "trajectory" / f"{point['env']['git_sha'] or 'unknown'}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
