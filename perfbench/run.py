"""mfrelay benchmark runner.

    python3 perfbench/run.py --workload {figures,sampling,vector_study} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  Each op runs in a fresh
interpreter (``op.py``), one at a time, in a closed loop from this
process; a pass runs every op of the workload once, and passes repeat
until S seconds have gone by.  Every output is checked (``checks.py``).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced passes and prints the per-layer metrics.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 165.0        # no op may run past this point of a run
TAIL_BEYOND = 10           # samples a reported tail percentile must have beyond it
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
ALL_OPS = [name for ops in workloads.WORKLOADS.values() for name, _ in ops]


@dataclass
class OpRun:
    name: str
    wall: float
    rss_mb: float
    import_s: float | None = None
    problems: list = field(default_factory=list)
    csv_bytes: int = 0
    identical: bool = False
    digits: float | None = None
    spans: list = field(default_factory=list)


@dataclass
class Pass:
    ops: list

    @property
    def wall(self) -> float:
        return sum(op.wall for op in self.ops)

    @property
    def peak_rss_mb(self) -> float:
        return max(op.rss_mb for op in self.ops)


class Bench:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root, self.workload, self.seed = root, workload, seed
        self.ops = workloads.op_argv(workload, seed)
        self.work = root / ".perfbench" / str(os.getpid())
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        self.started = time.perf_counter()
        self.first_csv = {}
        self.n_ops = 0
        self.vector = None

    def setup(self):
        """Byte-compile, warm the file cache, and evaluate the oracle."""
        self.work.mkdir(parents=True, exist_ok=True)
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(self.root / "src" / "mfrelay"),
                        str(HERE)], check=True, cwd=self.root, env=self.env,
                       stdout=subprocess.DEVNULL)
        subprocess.run([sys.executable, "-c", "import mfrelay"], check=True, cwd=self.root,
                       env=self.env)
        if self.workload == "vector_study":
            x = workloads.vector_inputs(self.seed)
            idx = workloads.oracle_indices(x, self.seed)
            for i in idx:
                for kind in ("mf", "af", "secrecy"):
                    checks.oracle(kind, x["ps"][i], x["pd"][i], 1.0, 1.0, 1.0, x["rd"][i], x["rs"][i])
            self.vector = (x, idx)
            sample = ",".join(map(str, idx))
            self.ops = [(name, argv + [sample]) for name, argv in self.ops]

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def run_op(self, name: str, argv: list, traced: bool) -> OpRun:
        op_id = self.n_ops
        self.n_ops += 1
        report = self.work / f"op{op_id}.jsonl"
        out, err = self.work / f"op{op_id}.out", self.work / f"op{op_id}.err"
        cmd = [sys.executable, str(HERE / "op.py"), str(report), str(op_id),
               "1" if traced else "0", *argv]
        timeout = max(1.0, RUN_LIMIT_S - self.elapsed())
        with open(out, "wb") as fo, open(err, "wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, cwd=self.root, env=self.env)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        run = OpRun(name=name, wall=wall, rss_mb=usage.ru_maxrss / 1024.0)
        try:
            self._check(run, proc.returncode, report, out, err)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            run.problems.append(f"unreadable output: {exc!r}")
        return run

    def _check(self, run: OpRun, rc: int, report: Path, out: Path, err: Path):
        if rc != 0:
            tail = err.read_text(errors="replace").strip().splitlines()[-1:]
            run.problems.append(f"exit code {rc} {tail}")
            return
        lines = report.read_text().splitlines()
        record = json.loads(lines[0])
        run.spans = [json.loads(line) for line in lines[1:]]
        run.import_s = record["import_s"]
        if not Path(record["mfrelay"]).resolve().is_relative_to(self.root / "src"):
            run.problems.append(f"imported mfrelay from {record['mfrelay']}, not this checkout")
        if run.name == "scan_scaling":
            run.problems += checks.check_scan(record["result"])
        elif run.name == "vector_study":
            problems, run.digits = checks.check_vector(record["result"], *self.vector)
            run.problems += problems
        else:
            text = out.read_text()
            run.csv_bytes = len(text.encode())
            if self.first_csv.setdefault(run.name, text) != text:
                run.problems.append("CSV differs from the first pass with the same seed")
            table = checks.parse_csv(text)
            ref = (HERE / "reference" / f"{run.name}.csv").read_text()
            problems, run.identical = checks.check_reference(table, ref)
            run.problems += problems
            if any(c.endswith("_mc") for c in table.header):
                run.problems += checks.check_mc(table)
            if run.name == "chain":
                run.problems += checks.check_chain(table)
            run.digits = checks.table_digits(table)

    def run_pass(self, traced: bool) -> Pass:
        return Pass([self.run_op(name, argv, traced) for name, argv in self.ops])

    def importtime(self) -> dict:
        """Cumulative first-import seconds of a few modules (-X importtime)."""
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mfrelay"],
                              cwd=self.root, env=self.env, capture_output=True, text=True,
                              check=True)
        out = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                out.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
        return out


def tail(values):
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples beyond it, or the maximum when there are
    too few samples for one."""
    xs = sorted(values)
    k = len(xs) - 1 - TAIL_BEYOND
    if k < 0:
        return xs[-1], 100.0, 0
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


def environment(root: Path) -> dict:
    sha = dirty = None
    if (root / ".git").exists():
        git = ["git", "-C", str(root)]
        sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
        dirty = bool(subprocess.run(git + ["status", "--porcelain", "--untracked-files=no", "--", "src"],
                                    capture_output=True, text=True).stdout.strip())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {"git_sha": sha or None, "src_dirty": dirty, "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"), "scipy": importlib.metadata.version("scipy"),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "threads": {k: os.environ.get(k) for k in THREAD_VARS}}


def end_to_end(passes, digits) -> tuple[dict, list]:
    walls = [p.wall for p in passes]
    tail_s, pct, beyond = tail(walls)
    imports = [op.import_s for p in passes for op in p.ops if op.import_s is not None]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "wall_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(imports) if imports else 0.0, "s"),
        "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in passes), "MB"),
        "closed_form_digits": (min(digits) if digits else 0.0, "digits"),
    }
    notes = [f"wall_s: median of {len(walls)} passes " + " ".join(f"{w:.3f}" for w in walls),
             f"wall_tail_s: p{pct:.0f} of {len(walls)} passes, {beyond} beyond it"
             + (" (too few passes for a percentile with ten beyond; this is the maximum)"
                if beyond < TAIL_BEYOND else ""),
             f"setup_s: median of {len(imports)} imports"]
    return metrics, notes


def per_layer(untraced, traced, imports: dict) -> dict:
    layers = [spans.layer_metrics([s for op in p.ops for s in op.spans]) for p in traced]
    layers = layers or [spans.layer_metrics([])]
    metrics = {k: (statistics.median(m[k] for m in layers), "") for k in layers[0]}
    all_imports = [op.import_s for p in untraced + traced for op in p.ops if op.import_s is not None]
    last = untraced[-1]
    metrics.update({
        "init.import_s": (statistics.median(all_imports) if all_imports else 0.0, "s"),
        "init.scipy_stats_import_s": (imports.get("scipy.stats", 0.0), "s"),
        "init.scipy_special_import_s": (imports.get("scipy.special", 0.0), "s"),
        "cli.csv_bytes": (sum(op.csv_bytes for op in last.ops), "bytes"),
        "cli.csv_identical": (sum(op.identical for op in last.ops), "count"),
        "trace.overhead_ratio": (statistics.median(p.wall for p in traced)
                                 / statistics.median(p.wall for p in untraced) if traced else 0.0,
                                 "ratio"),
    })
    for name in ALL_OPS:
        walls = [op.wall for p in untraced for op in p.ops if op.name == name]
        metrics[f"op.{name}.wall_s"] = (statistics.median(walls) if walls else 0.0, "s")
    units = {"calls": "count", "points": "count", "samples": "count", "symbols": "count",
             "self_s": "s", "points_per_s": "1/s", "samples_per_s": "1/s", "symbols_per_s": "1/s",
             "large_share": "ratio", "computed_bytes": "bytes", "draw_reuse_ratio": "ratio",
             "chain_passes": "count"}
    return {k: (v, u or units[k.rsplit(".", 1)[1]]) for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    root = Path.cwd().resolve()
    if not (root / "src" / "mfrelay" / "__init__.py").is_file():
        print(f"error: no mfrelay sources under {root / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.seed)
    try:
        bench.setup()
        imports = bench.importtime() if args.trace else {}
        untraced, traced = [], []
        t0 = time.perf_counter()
        while not untraced or (args.trace and not traced) or time.perf_counter() - t0 < args.seconds:
            if bench.elapsed() > RUN_LIMIT_S:
                break
            want_traced = args.trace and len(traced) < len(untraced)
            (traced if want_traced else untraced).append(bench.run_pass(want_traced))
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            bench.work.parent.rmdir()

    passes = untraced + traced
    ops = [op for p in passes for op in p.ops]
    failed = [op for op in ops if op.problems]
    digits = [op.digits for op in ops if op.digits is not None]
    if args.trace:
        metrics = per_layer(untraced, traced, imports)
        notes = [f"{len(untraced)} untraced and {len(traced)} traced passes"]
    else:
        metrics, notes = end_to_end(passes, digits)

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(environment(root), sort_keys=True))
    for name in ALL_OPS:
        walls = [op.wall for p in untraced for op in p.ops if op.name == name]
        if walls:
            print(f"op {name}: median {statistics.median(walls):.4f} s over {len(walls)} runs")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_ratio {len(failed) / len(ops):.6g} ({len(failed)} of {len(ops)} ops)")
    for op in failed:
        for problem in op.problems[:5]:
            print(f"FAILED {op.name}: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
