"""homsim benchmark: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; homsim is imported from its src/. The
set-up is timed SETUPS times in fresh interpreters, then one worker
process runs the workload for S seconds in whole rounds (see worker.py).
The last line on stdout is {"correct", "attempted", "failed", "metrics"}:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Check failures go to stderr. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUPS = 3
TIME_LIMIT_S = 170.0
MAX_THREADS = 2

UNITS = {
    "peak_rss_mb": "MB", "simulate.peak_alloc_mb": "MB",
    "simulate.pulses_per_s": "1/s", "correlate.pair_deltas_per_s": "1/s",
    "simulate.thread_speedup": "ratio", "simulate.dead_time_loss": "ratio",
    "trace.overhead_pct": "%",
}


def unit(name: str) -> str:
    return UNITS.get(name) or ("s" if name.endswith("_s") else "count")


def import_times(stderr: str) -> dict:
    """Cumulative seconds of `import homsim` and `scipy.signal` (-X importtime)."""
    out = {"import.homsim_s": 0.0, "import.scipy_signal_s": 0.0}
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)\s*$", line)
        if m and m.group(2) in ("homsim", "scipy.signal"):
            out["import.%s_s" % m.group(2).replace(".", "_")] = int(m.group(1)) * 1e-6
    return out


def kill_group(proc: subprocess.Popen) -> None:
    """Stop a worker and anything it started, then wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def run_child(cmd, env, deadline: float):
    """Run cmd in its own process group; (code, stdout, stderr, seconds)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except BaseException:
        kill_group(proc)
        raise
    return proc.returncode, stdout, stderr, time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + TIME_LIMIT_S

    root = Path.cwd()
    src = root / "src"
    if not (src / "homsim" / "__init__.py").is_file():
        print("error: no src/homsim under %s; run from a homsim checkout" % root, file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r" % args.workload, file=sys.stderr)
        return 2

    threads = min(MAX_THREADS, len(os.sched_getaffinity(0)))
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH")))),
        HOMSIM_THREADS=str(threads),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    out_dir = HERE / "out"
    work = out_dir / ("work-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    work.mkdir(parents=True)
    try:
        worker = [sys.executable, str(HERE / "worker.py")]
        common = [args.workload, str(args.seed), str(work)]
        setup_s = []
        imports = []
        for _ in range(SETUPS):
            cmd = [sys.executable, "-X", "importtime"] + worker[1:] if args.trace else worker
            code, _, stderr, seconds = run_child(cmd + ["setup"] + common, env, deadline)
            if code != 0:
                print(stderr, file=sys.stderr)
                print("error: set-up exited %d" % code, file=sys.stderr)
                return 1
            setup_s.append(seconds)
            imports.append(import_times(stderr))

        result_file = work / "result.json"
        cmd = worker + ["run"] + common + [repr(args.seconds), str(args.trace), str(result_file)]
        code, stdout, stderr, _ = run_child(cmd, env, deadline)
        sys.stderr.write(stdout + stderr)
        if code != 0:
            print("error: workload exited %d" % code, file=sys.stderr)
            return 1
        res = json.loads(result_file.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rounds = res["rounds"]
    plain = [r for r in rounds if r["timed"] and not r["traced"]]
    if args.trace:
        metrics = dict(res["layers"])
        for key in imports[0]:
            metrics[key] = statistics.median(i[key] for i in imports)
        (out_dir / ("spans-%s-seed%d.json" % (args.workload, args.seed))).write_text(json.dumps(res["spans"]))
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "run_s": statistics.median(r["wall_s"] for r in plain),
            "cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    for failure in res["failures"]:
        print("check failed: %s" % failure, file=sys.stderr)
    line = json.dumps({
        "correct": not res["failures"],
        "attempted": len(rounds) * res["ops_per_round"],
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in sorted(metrics.items())},
    })
    with open(out_dir / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace}) + " " + line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
