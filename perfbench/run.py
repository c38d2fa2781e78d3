"""normform benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a normform source checkout and imports the package
from ``src/``; nothing needs installing.  For S seconds it starts fresh
processes (perfbench/child.py) one at a time, each of which sets up the
workload and runs it once, and reports medians over those samples.  After
the samples, one more process runs the workload's oracles and the
shipped-config byte check.  With --trace 1 the samples alternate between
untraced and traced processes and the per-layer figures are reported.

Standard output ends with one JSON line,
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}};
the lines before it give provenance and, per metric, the median, quartiles
and sample count.  The exit code is 0 whenever that line is printed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
TIME_LIMIT_S = 165   # the whole run, children included, ends before this
IMPORTTIME_RUNS = 3
# Every sample runs with at most the two threads of the prime-count
# workload's own pool: no BLAS or OpenMP pool beside it.
CHILD_ENV = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_seconds(stderr: str) -> dict:
    """normform's cumulative import time, and the time of its outermost
    scipy imports, from ``python -X importtime`` output."""
    rows = []  # (depth, name, cumulative us), children before their parent
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue  # the header line
        raw = parts[2].rstrip()
        rows.append((len(raw) - len(raw.lstrip()), raw.strip(), cumulative))

    def is_scipy(name):
        return name == "scipy" or name.startswith("scipy.")

    normform = scipy = 0
    for i, (depth, name, cumulative) in enumerate(rows):
        if name == "normform":
            normform = cumulative
        elif is_scipy(name):
            parent = next((r[1] for r in rows[i + 1:] if r[0] < depth), "")
            if not is_scipy(parent):
                scipy += cumulative
    return {"import.normform.s": normform / 1e6, "import.scipy.s": scipy / 1e6}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


class Run:
    """One benchmark run: its child processes and the tally of checked outputs."""

    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.start = now()
        self.refs = json.loads((HERE / "references.json").read_text())
        self.configs = {name: ref for name, ref in self.refs["configs"].items()
                        if ref["workload"] == args.workload}
        self.first_outputs = None
        self.children = 0
        self.attempted = 0
        self.failed = 0

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {label}", file=sys.stderr)

    def left(self) -> float:
        return TIME_LIMIT_S - (now() - self.start)

    def spawn(self, cmd):
        """(returncode, stdout, stderr) of cmd, killed when the run is out of time."""
        proc = subprocess.Popen(cmd, cwd=ROOT, env=CHILD_ENV, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=max(self.left(), 1))
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            err += "\nkilled: the run is out of time\n"
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        return proc.returncode, out, err

    def child(self, mode: str):
        """Parsed result of one child process, or None if it failed."""
        self.children += 1
        cmd = [sys.executable, str(CHILD), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--mode", mode,
               "--work", str(self.work / f"{mode}-{self.children}")]
        t_spawn = now()
        rc, out, err = self.spawn(cmd)
        if rc != 0:
            sys.stderr.write(err)
            print(f"{mode} process exited with {rc}", file=sys.stderr)
            return None
        res = json.loads(out.strip().splitlines()[-1])
        res["t_spawn"] = t_spawn
        return res

    def sample(self, mode: str):
        """One run or trace sample with its outputs checked; None if it failed."""
        res = self.child(mode)
        if res is None:
            # every output of a failed process counts as failed
            for _ in range(len(self.first_outputs) if self.first_outputs else 1):
                self.check(f"{mode} process completed", False)
            return None
        ref = self.refs[self.args.workload]
        for key, value in sorted(res["outputs"].items()):
            if key in ref:
                self.check(f"{key} == reference", value == ref[key])
            elif self.first_outputs is not None:
                self.check(f"{key} repeats", value == self.first_outputs[key])
        if self.first_outputs is None:
            self.first_outputs = res["outputs"]
        for label, ok in res.get("checks", []):
            self.check(label, ok)
        return res

    def oracle_check(self) -> None:
        """Seeded oracles and shipped-config hashes; sample outputs against the oracles."""
        res = self.child("check")
        if res is None:
            res = {"checks": [("oracle process completed", False)],
                   "expected": {}, "config_sha256": {}}
        for label, ok in res["checks"]:
            self.check(label, ok)
        for name, ref in sorted(self.configs.items()):
            for fname, digest in sorted(ref["sha256"].items()):
                self.check(f"{name}: {fname} bytes unchanged",
                           res["config_sha256"].get(f"{name}/{fname}") == digest)
        for key, value in sorted(res["expected"].items()):
            self.check(f"{key} == oracle",
                       self.first_outputs is not None and self.first_outputs[key] == value)

    def importtime(self) -> dict:
        code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import normform"
        rc, _out, err = self.spawn([sys.executable, "-X", "importtime", "-c", code])
        self.check("import normform", rc == 0)
        return import_seconds(err)

    def samples(self, modes, at_least=1):
        """Cycle through modes until --seconds have passed and each mode has
        at_least samples; results per mode."""
        got = {m: [] for m in modes}
        deadline = self.start + self.args.seconds
        while True:
            for mode in modes:
                res = self.sample(mode)
                if res is not None:
                    got[mode].append(res)
            enough = all(len(v) >= at_least for v in got.values())
            if (now() >= deadline and enough) or self.left() < 30:
                return got


def end_to_end(samples):
    return {
        "wall_s": [s["t_last"] - s["t_ready"] for s in samples],
        "setup_s": [s["t_ready"] - s["t_spawn"] for s in samples],
        "peak_rss_mb": [s["peak_rss_kb"] / 1024 for s in samples],
    }


def per_layer(run, traced, untraced, imports):
    """Per-layer figures: counts from the first traced sample (they must repeat),
    times and ratios as medians over traced samples."""
    series = {name: [s["layers"][name] for s in traced] for name in traced[0]["layers"]}
    out = {}
    for name, values in series.items():
        if name.endswith((".self_s", ".cpu_util")):
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
            for v in values[1:]:
                run.check(f"{name} repeats across traced samples", v == values[0])
    for name in imports[0]:
        out[name] = statistics.median(r[name] for r in imports)
    out["trace.overhead_s"] = (statistics.median(end_to_end(traced)["wall_s"])
                               - statistics.median(end_to_end(untraced)["wall_s"]))
    return out


def provenance(args, spec) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    why = {w["name"]: w["why"] for w in spec["workloads"]}
    return {
        "workload": args.workload, "why": why[args.workload], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "mpmath": version("mpmath"),
        "nproc": os.cpu_count(),
        "gmpy2_importable": importlib.util.find_spec("gmpy2") is not None,
    }


def print_table(samples_by_metric, units):
    for name, values in samples_by_metric.items():
        q1, med, q3 = quartiles(values)
        print(f"{name:<46} median {med:.6g} {units[name]}  quartiles [{q1:.6g}, {q3:.6g}]"
              f"  min {min(values):.6g}  max {max(values):.6g}  n={len(values)}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="normform benchmark")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # SIGTERM unwinds like Ctrl-C, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "normform" / "__init__.py").is_file():
        print(f"no normform sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench_tmp"))
    try:
        run = Run(args, work)
        print(json.dumps({"provenance": provenance(args, spec)}))
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        if args.trace:
            imports = [run.importtime() for _ in range(IMPORTTIME_RUNS)]
            # two traced samples at least, so that their counts can be compared
            got = run.samples(("run", "trace"), at_least=2)
        else:
            got = run.samples(("run",))
        run.oracle_check()
        if not got["run"] or (args.trace and not got["trace"]):
            print("no sample completed", file=sys.stderr)
            return 1
        e2e = end_to_end(got["run"])
        if args.trace:
            metrics = per_layer(run, got["trace"], got["run"], imports)
            names = [m["name"] for m in spec["per_layer"]]
            print(f"per-layer figures, {len(got['trace'])} traced samples:")
            for name in names:
                print(f"  {name:<46} {metrics[name]:.6g} {units[name]}")
            print("self time by (function, parent), first traced sample:")
            for name, parent, calls, total, self_s in got["trace"][0]["table"][:25]:
                print(f"  {name:<40} <- {parent:<36} calls {calls:>9}  self {self_s:9.4f} s"
                      f"  total {total:9.4f} s")
        else:
            metrics = {k: statistics.median(v) for k, v in e2e.items()}
            names = [m["name"] for m in spec["end_to_end"]]
        print_table(e2e, units)
        print(f"checked outputs: {run.attempted}, failed: {run.failed}, "
              f"fail_frac: {run.failed / max(run.attempted, 1):.6g}")
        result = {
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
