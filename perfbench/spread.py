"""Run one workload over several seeds and report, for each end-to-end
metric, the median and the quartile spread (Q3 - Q1) / median of its values,
next to the bound fixed in BENCHMARK.json.

    python3 perfbench/spread.py --workload sd-synth --seeds 1-10 --seconds 20

Each seed runs in its own process through run.py. --out writes the summary,
with the quartiles of the printed-only metrics too, as JSON. Exits 1 when a
run fails its checks or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", default=None,
                        help="defaults to run_seconds in BENCHMARK.json")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = str(args.seconds or spec["run_seconds"])
    values, printed, ok = {}, {}, True
    for seed in args.seeds:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= proc.returncode == 0 and result["correct"]
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        record = json.loads((BENCH_DIR / "out" / f"{args.workload}-seed{seed}-trace0.json")
                            .read_text())
        environment = record["environment"]
        for name, metric in record["metrics"].items():
            if name not in result["metrics"] and metric.get("value") is not None:
                printed.setdefault(name, []).append(metric["value"])

    summary = {}
    print(f"{'metric':<26}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        q1, median, q3 = statistics.quantiles(values[name], n=4)
        spread = (q3 - q1) / median
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "n": len(values[name]), "unit": metric["unit"]}
        flag = ""
        if spread > bound:
            flag = "  OVER BOUND"
            ok = False
        elif spread > bound / 3:
            flag = "  over a third of bound"
        print(f"{name:<26}{median:>12.6g}{q1:>12.6g}{q3:>12.6g}{spread:>9.4f}{bound:>7}{flag}")
    if args.out:
        others = {}
        for name, vals in printed.items():
            q1, median, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            others[name] = {"median": median, "q1": q1, "q3": q3, "n": len(vals)}
        args.out.write_text(json.dumps({"workload": args.workload, "seeds": args.seeds,
                                        "seconds": seconds, "environment": environment,
                                        "metrics": summary, "printed": others},
                                       indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
