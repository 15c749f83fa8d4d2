"""One workload in one process.

    worker.py setup WORKLOAD SEED WORKDIR
        import homsim and build the workload's inputs, nothing more;
    worker.py run WORKLOAD SEED WORKDIR SECONDS TRACE OUT_JSON
        build, run whole rounds until SECONDS have passed, check the
        outputs and write the round timings and checks to OUT_JSON.

Round 0 is checked in full, later rounds against it. In-process workloads
run it as a warm-up that is left out of the timings. With TRACE 1, timed
rounds alternate between traced and untraced, and the simulation is
profiled once more on one thread and under tracemalloc.
"""

# homsim comes first, so that -X importtime charges it all of its imports
import homsim as hs  # isort: skip

import json
import resource
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import spans
import workloads


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def profile(workload, threaded: float) -> dict:
    """Thread speed-up and peak allocation of the workload's simulation.

    threaded is the time the same simulation took in the traced rounds.
    """
    fn, args = workload.profile_run()
    with workloads.threads(1):
        start = time.perf_counter()
        fn(*args)
        single = time.perf_counter() - start
    tracemalloc.start()
    try:
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"simulate.thread_speedup": single / threaded, "simulate.peak_alloc_mb": peak / 1e6}


def layer_metrics(tracer, traced_rounds: list[int]) -> dict:
    """Per-layer medians over the traced rounds."""
    self_time = spans.self_times(tracer.spans)
    wall = defaultdict(lambda: defaultdict(float))
    data = defaultdict(lambda: defaultdict(int))
    for s in tracer.spans:
        wall[s["round"]][s["name"]] += s["end"] - s["start"]
        for key, value in s.get("data", {}).items():
            data[s["round"]][key] += value

    def median(fn):
        return statistics.median(fn(r) for r in traced_rounds)

    out = {}
    for name in (
        "simulate.run_simulation", "formats.write_ptg1", "formats.read_ptg1",
        "config.load_scenario", "correlate.cross_correlate",
        "correlate.estimate_background", "correlate.integrate_peaks",
        "correlate.timetrace", "fitting.fit_biexp_irf",
    ):
        out[name + "_s"] = median(lambda r: self_time[r][name])
    for command in workloads.CLI_COMMANDS:
        out["cli.%s_s" % command] = median(lambda r: wall[r]["cli." + command])
    out["cli.self_s"] = median(
        lambda r: sum(self_time[r]["cli." + c] for c in workloads.CLI_COMMANDS)
    )
    out["simulate.pulses_per_s"] = median(
        lambda r: data[r]["pulses"] / self_time[r]["simulate.run_simulation"]
    )
    out["correlate.pair_deltas_per_s"] = median(
        lambda r: data[r]["pair_deltas"] / self_time[r]["correlate.cross_correlate"]
    )
    # counts repeat exactly from round to round
    counts = data[traced_rounds[0]]
    for key in spans.COUNTERS:
        out["simulate." + key] = counts[key]
    out["simulate.dead_time_loss"] = counts["dead_time_pruned"] / (
        counts["photons_detected"] + counts["dark_counts"]
    )
    out["correlate.pair_deltas"] = counts["pair_deltas"]
    out["fitting.n_iter"] = counts["n_iter"]
    return out


def run(workload, seconds: float, trace: bool) -> dict:
    failures = workload.prepare()
    tracer = spans.Tracer()
    rounds = []
    first = None
    deadline = time.perf_counter() + seconds
    while True:
        # in-process workloads warm up for one round; then traced and
        # untraced rounds alternate
        k = len(rounds) - workload.warmup_rounds
        traced = trace and k >= 0 and k % 2 == 0
        tracer.round = len(rounds)
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        out, failed = workload.round(tracer if traced else spans.NullTracer())
        wall = time.perf_counter() - start
        rounds.append(
            {"timed": k >= 0, "traced": traced, "wall_s": wall, "cpu_s": cpu_seconds() - cpu0, "failed": failed}
        )
        if first is None:
            failures += workload.check(out)
            first = workload.summary(out)
        elif workload.summary(out) != first:
            failures.append("round %d gave other outputs than round 0" % (len(rounds) - 1))
        del out
        if time.perf_counter() >= deadline and k + 1 >= (2 if trace else 1):
            break
    usage = resource.RUSAGE_CHILDREN if workload.in_children else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    failures += workload.finish(first)
    result = {
        "rounds": rounds,
        "ops_per_round": workload.ops_per_round,
        "peak_rss_mb": peak_rss_mb,
        "failures": failures,
    }
    if trace:
        traced = [i for i, r in enumerate(rounds) if r["traced"]]
        plain = [r["wall_s"] for r in rounds if r["timed"] and not r["traced"]]
        traced_wall = statistics.median(rounds[i]["wall_s"] for i in traced)
        layers = layer_metrics(tracer, traced)
        layers["trace.overhead_pct"] = 100.0 * (traced_wall / statistics.median(plain) - 1.0)
        # the first simulation of a round is the one profile() repeats
        first_sim = {}
        for s in tracer.spans:
            if s["name"] == "simulate.run_simulation":
                first_sim.setdefault(s["round"], s["end"] - s["start"])
        layers.update(profile(workload, statistics.median(first_sim[r] for r in traced)))
        result["layers"] = layers
        result["spans"] = tracer.spans
    return result


def main(argv: list[str]) -> int:
    mode, name, seed, workdir = argv[:4]
    workload = workloads.WORKLOADS[name](int(seed), Path(workdir))
    workload.build(hs)
    if mode == "setup":
        return 0
    seconds, trace, out_path = float(argv[4]), argv[5] == "1", argv[6]
    result = run(workload, seconds, trace)
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
