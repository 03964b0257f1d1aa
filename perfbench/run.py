"""ccspnet benchmark runner.

    python3 perfbench/run.py --workload paper-train --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from --seed, runs passes of the workload's
work for about --seconds (at least one pass, and no further pass once one as
long as the last would end after --seconds), checks every
prediction against the reference recorded in perfbench/reference.json and
against the workload's own oracle, prints a table of metrics and, as its
last line, one JSON object with keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics. --trace 1 reports the per-layer
metrics and the tracing overhead: preparation, set-up and one pass under a
timing tracer, the same under a tracemalloc tracer, and untraced and
timing-traced passes in turn for the overhead.
`--workload all` runs every workload in a process of its own. Results and
spans are written to perfbench/out/.

Exit status: 0 when every check passed, 1 when a check failed or an
operation raised, 2 when the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE_FILE = BENCH_DIR / "reference.json"
# set-up runs at least SETUP_REPEATS times and for at least SETUP_SECONDS;
# setup_s is the median. The first set-ups of a process run cold (tens of
# percent slower on online-decode, whose set-up takes milliseconds), so a
# cheap set-up is repeated until the median is a warm one.
SETUP_REPEATS = 5
SETUP_SECONDS = 5.0

# the result line's metrics with --trace 0, the same on every workload
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]
# printed and saved, not in the result line. The per-trial figures and
# load_s are short stretches of a run (seconds or less) and vary by 20-30%
# from run to run on a shared two-core machine; the others exist on one
# workload each; accuracy varies with the seed's data and, like
# failed_share, is covered by the prediction checks (`correct`, `failed`).
WORKLOAD_SPECIFIC = [("preprocess_ms_per_trial", "ms"), ("predict_ms_per_trial", "ms"),
                     ("train_step_s", "s"), ("finalize_s", "s"), ("load_s", "s"),
                     ("decoder_train_s", "s"),
                     ("eval_s", "s"), ("decode_ms_p50", "ms"), ("decode_ms_tail", "ms"),
                     ("accuracy_pct", "%"), ("failed_share", "share")]
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0)
# Reported as the mean of their samples rather than the median. On a shared
# machine the CPU runs fast or slow for seconds at a time; a run's mean moves
# smoothly with the share of slow time while its median jumps between the
# two speeds, so the mean is the steadier figure from run to run (quartile
# spread over five seeds of online-decode: 4.5% for the mean, 8.5% for the
# median). Every timing's median and tail are printed and saved as well.
MEAN_METRICS = {"preprocess_ms_per_trial", "predict_ms_per_trial"}
# wall_s is the fastest pass, as timeit reports its runs: a slow stretch of
# the host only lengthens passes, so over online-decode's hundred passes the
# fastest is the steadier figure from run to run (quartile spread over ten
# seeds 0.08-0.19 for the fastest pass, 0.13-0.21 for the mean).
# paper-train and sd-synth measure one pass, whose time it is.
MIN_METRICS = {"wall_s"}


def percentile(values, q):
    """Linearly interpolated percentile, as numpy's default."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(values):
    """Median, mean, minimum, sample count, and the highest ladder percentile that has
    at least ten samples beyond it (None when there are too few samples)."""
    out = {"median": percentile(values, 50.0), "mean": sum(values) / len(values),
           "min": min(values), "n": len(values), "tail": None, "tail_label": None}
    for q in TAIL_LADDER:
        if len(values) * (100.0 - q) / 100.0 >= 10:
            out["tail"] = percentile(values, q)
            out["tail_label"] = f"p{q:g}"
            break
    return out


def blas_info():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "config": blas.get("openblas configuration"), "threads": None}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def environment(seed):
    import numpy as np
    import scipy
    with open("/proc/meminfo") as fh:
        total_kb = next(int(line.split()[1]) for line in fh if line.startswith("MemTotal"))
    return {"seed": seed, "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_info(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "ram_mb": total_kb / 1024,
            "machine": platform.machine()}


def load_reference(workload, seed):
    if not REFERENCE_FILE.exists():
        return None
    table = json.loads(REFERENCE_FILE.read_text())
    return table.get(workload, {}).get(str(seed))


def predictions_text(predictions):
    return "".join(str(int(p)) for p in predictions)


class Checker:
    """Counts operations attempted and failed, and collects the reasons."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = None

    def raised(self, exc):
        self.attempted += self.workload.units_per_cycle
        self.failed += self.workload.units_per_cycle
        self.problems.append(f"raised: {exc!r}")
        traceback.print_exc(file=sys.stderr)

    def cycle(self, cycle):
        """Compare a pass's predictions with the reference and the first pass."""
        self.attempted += self.workload.units_per_cycle
        got = predictions_text(cycle.predictions)
        if self.first is None:
            self.first = cycle
        expected = [(self.reference["predictions"] if self.reference else None, "reference"),
                    (predictions_text(self.first.predictions), "first pass")]
        bad = set()
        for want, what in expected:
            if want is None:
                continue
            for i, sl in enumerate(self.workload.unit_slices()):
                if got[sl] != want[sl]:
                    bad.add(i)
                    self.problems.append(f"unit {i} predictions differ from the {what}")
        if self.reference and cycle.accuracy_pct != self.reference["accuracy_pct"]:
            self.problems.append(f"accuracy {cycle.accuracy_pct} != reference "
                                 f"{self.reference['accuracy_pct']}")
        self.failed += len(bad)

    def oracle(self, cycle):
        bad = self.workload.oracle(cycle)
        self.failed += len(bad)
        self.problems += [f"unit {i} disagrees with the workload oracle" for i in bad]

    @property
    def correct(self):
        return not self.problems and self.failed == 0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run_untraced(workload, seconds, checker):
    setup_samples = dict(workload.prepare(), setup_s=[])
    setup_start = time.perf_counter()
    while (len(setup_samples["setup_s"]) < SETUP_REPEATS
           or time.perf_counter() - setup_start < SETUP_SECONDS):
        start = time.perf_counter()
        extra = workload.setup()
        setup_samples["setup_s"].append(time.perf_counter() - start)
        for key, values in extra.items():
            setup_samples.setdefault(key, []).extend(values)
    cycles = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        try:
            cycle = workload.cycle()
        except Exception as exc:  # count the failure, report what was measured
            checker.raised(exc)
            break
        cycles.append(cycle)
        checker.cycle(cycle)
        # start another pass only if one as long as this ends within `seconds`
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    if cycles:
        checker.oracle(cycles[-1])

    samples = dict(setup_samples)
    samples["wall_s"] = [c.wall_s for c in cycles]
    for c in cycles:
        for key, values in c.samples.items():
            samples.setdefault(key, []).extend(values)
    metrics = {}
    for name, values in samples.items():
        if values:
            summary = summarize(values)
            value = summary["min" if name in MIN_METRICS
                            else "mean" if name in MEAN_METRICS else "median"]
            metrics[name] = dict(summary, value=value, unit=unit_of(name))
    if "decode_ms" in metrics:
        decode = metrics.pop("decode_ms")
        metrics["decode_ms_p50"] = dict(decode, value=decode["median"])
        if decode["tail"] is not None:
            metrics["decode_ms_tail"] = dict(decode, value=decode["tail"])
    metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB", "n": 1}
    if cycles:
        metrics["accuracy_pct"] = {"value": cycles[0].accuracy_pct, "unit": "%",
                                   "n": len(cycles[0].labels)}
    metrics["failed_share"] = {"value": checker.failed / max(checker.attempted, 1),
                               "unit": "share", "n": checker.attempted}
    return metrics, cycles, samples


def unit_of(name):
    units = dict(END_TO_END + WORKLOAD_SPECIFIC)
    return units.get(name, "ms" if "_ms" in name else "s")


def phase_stats(tracer):
    """Aggregated span stats per benchmark phase ("setup", "measure") and in
    total. Spans of fold threads are assigned to a phase by start time."""
    from perfbench import tracer as tr

    spans = [s for s in tracer.spans if not s.name.startswith("bench.")]
    phases = {s.name[len("bench."):]: (s.t0, s.t1) for s in tracer.spans
              if s.name.startswith("bench.")}
    self_by_id = tr.self_times(tracer.spans)
    out = {phase: tr.aggregate([s for s in spans if lo <= s.t0 < hi], self_by_id)
           for phase, (lo, hi) in phases.items()}
    out["total"] = tr.aggregate(spans, self_by_id)
    return out


def run_traced(workload, seconds, checker):
    """Prepare, set-up and one pass under a timing tracer, the same again
    under a tracemalloc tracer for the allocation metrics. The timing
    tracer's overhead comes from untraced and timing-traced passes run in
    turn until `seconds` have gone by (one pair at least)."""
    from perfbench import tracer as tr
    from perfbench.workloads import SD_JOBS

    timing, memory = tr.Tracer(memory=False), tr.Tracer(memory=True)
    for tracer in (memory, timing):   # the passes below use the last set-up
        with tracer.installed():
            with tracer.span("bench.prepare"):
                workload.prepare(in_process=True)
            with tracer.span("bench.setup"):
                workload.setup()
    tracers, plain_s, traced_s = [timing, memory], [], []
    start = time.perf_counter()
    while not plain_s or time.perf_counter() - start < seconds:
        plain = workload.cycle()
        checker.cycle(plain)
        # the first traced pass gives the layer metrics; later ones only time
        tracer = timing if not plain_s else tr.Tracer(memory=False)
        with tracer.installed(), tracer.span("bench.measure"):
            traced = workload.cycle()
        checker.cycle(traced)
        plain_s.append(plain.wall_s)
        traced_s.append(traced.wall_s)
        if tracer is not timing:
            tracers.append(tracer)
            tracer.spans = []
    with memory.installed(), memory.span("bench.measure"):
        last = workload.cycle()
    checker.cycle(last)
    checker.oracle(last)
    for tracer in tracers:
        leftovers = tracer.leftover_wrappers()
        if leftovers:
            checker.problems.append(f"wrappers left installed: {leftovers}")

    time_stats, memory_stats = phase_stats(timing), phase_stats(memory)
    specs = tr.LAYER_METRICS + tr.WORKLOAD_LAYER_METRICS
    table = {phase: tr.layer_values(time_stats[phase], memory_stats.get(phase, {}), specs)
             for phase in time_stats}
    # median over pairs; with one pair (paper-train, sd-synth) it is within
    # the run-to-run noise of a pass
    overheads = [t - p for p, t in zip(plain_s, traced_s)]
    extra = {"trace.overhead_s": (percentile(overheads, 50.0), "s"),
             "trace.overhead_pairs": (len(overheads), "count"),
             "trace.untraced_wall_s": (percentile(plain_s, 50.0), "s"),
             "trace.traced_wall_s": (percentile(traced_s, 50.0), "s")}
    total = time_stats["total"]
    if "harness.fold" in total and "harness.run_sd" in total:
        extra["harness.parallel_efficiency"] = (
            total["harness.fold"]["busy_s"] / (total["harness.run_sd"]["busy_s"] * SD_JOBS),
            "share")
    measure = time_stats.get("measure", {})
    top = sorted(((st["self_s"], name) for name, st in measure.items()), reverse=True)[:5]
    spans = [dict(s.as_dict(), tracer=label)
             for label, tracer in (("timing", timing), ("memory", memory))
             for s in tracer.spans]
    return {"table": table, "extra": extra, "top_self": top, "spans": spans}


def print_metrics(metrics):
    print(f"{'metric':<26}{'value':>13}  {'unit':<6}{'n':>6}{'median':>13}  tail")
    for name, m in metrics.items():
        median = f"{m['median']:>13.6g}" if "median" in m else " " * 13
        tail = f"{m['tail_label']}={m['tail']:.6g}" if m.get("tail") is not None else ""
        print(f"{name:<26}{m['value']:>13.6g}  {m['unit']:<6}{m.get('n', 1):>6}{median}  {tail}")


def print_layers(traced):
    table = traced["table"]
    phases = [p for p in ("prepare", "setup", "measure", "total") if p in table]
    print(f"{'layer metric':<40}" + "".join(f"{p:>12}" for p in phases) + "  unit")
    for metric, (_, unit) in table["total"].items():
        row = "".join(f"{table[p][metric][0]:>12.6g}" for p in phases)
        print(f"{metric:<40}{row}  {unit}")
    for metric, (value, unit) in traced["extra"].items():
        print(f"{metric:<40}{value:>12.6g}  {unit}")
    if traced["extra"]["trace.overhead_pairs"][0] == 1:
        print("trace.overhead_s is one traced pass minus one untraced pass: "
              "within the run-to-run noise of a pass")
    print("largest self time in the measured pass:")
    for self_s, name in traced["top_self"]:
        print(f"  {name:<38}{self_s:>12.6g}  s")


def run_one(args):
    from perfbench import tracer as tr
    from perfbench.workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    workload = WORKLOADS[args.workload](args.seed, workdir)
    reference = load_reference(args.workload, args.seed)
    checker = Checker(workload, reference)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "params": workload.params(),
              "environment": environment(args.seed),
              "reference": "recorded" if reference else "none recorded for this seed; "
                           "first-pass and oracle checks only"}
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"{args.workload} seed {args.seed}: " + json.dumps(record["environment"]))
    try:
        if args.trace:
            traced = run_traced(workload, args.seconds, checker)
            print_layers(traced)
            values = {name: traced["table"]["total"][name]
                      for name, *_ in tr.LAYER_METRICS}
            values["trace.overhead_s"] = traced["extra"]["trace.overhead_s"]
            with open(f"{stem}-spans.jsonl", "w") as fh:
                for span in traced.pop("spans"):
                    fh.write(json.dumps(span) + "\n")
            record["layers"] = traced
        else:
            metrics, cycles, samples = run_untraced(workload, args.seconds, checker)
            print_metrics(metrics)
            values = {name: (metrics[name]["value"], unit) for name, unit in END_TO_END
                      if name in metrics}
            record["metrics"] = metrics
            record["samples"] = samples
            if cycles:
                record["predictions"] = predictions_text(cycles[0].predictions)
                record["accuracy_pct"] = cycles[0].accuracy_pct
    finally:
        workload.close()
        workdir.rmdir()
    record.update(correct=checker.correct, attempted=checker.attempted,
                  failed=checker.failed, problems=checker.problems)
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(f"reference: {record['reference']}")
    for problem in checker.problems:
        print(f"CHECK FAILED: {problem}")
    if args.record_reference and checker.correct and not args.trace:
        record_reference(args.workload, args.seed, record)
    print(json.dumps({"correct": checker.correct, "attempted": checker.attempted,
                      "failed": checker.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()}}))
    return 0 if checker.correct else 1


def record_reference(workload, seed, record):
    table = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
    table.setdefault(workload, {})[str(seed)] = {
        "predictions": record["predictions"], "accuracy_pct": record["accuracy_pct"]}
    REFERENCE_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def run_all(args):
    """Each workload in a process of its own; one combined result line."""
    from perfbench.workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper-train", "sd-synth", "online-decode", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this seed's predictions as the reference")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ccspnet" / "__init__.py").is_file():
        print(f"error: the ccspnet sources are not in {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import ccspnet
    if Path(ccspnet.__file__).resolve().parent != ROOT / "src" / "ccspnet":
        print(f"error: imported ccspnet from {ccspnet.__file__}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
