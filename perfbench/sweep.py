"""Run ``run.py`` over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --workloads null_campaign_210h,cli_chain_6h --seeds 1-10

For every workload and metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the quartile distance as
a share of the median, against a third of the metric's bound in
``BENCHMARK.json``.  ``--json FILE`` also writes the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", required=True, help="comma-separated names, or 'all'")
    parser.add_argument("--seeds", default="1-10", help="range such as 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, help="write the summary here")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = ([w["name"] for w in spec["workloads"]] if args.workloads == "all"
             else args.workloads.split(","))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary = {}
    for name in names:
        runs, walls, printed = [], [], []
        for seed in seed_list(args.seeds):
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            walls.append(time.monotonic() - start)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            result_file = ROOT / "perfbench" / "out" / f"result-{name}-seed{seed}-trace{args.trace}.json"
            printed.append(json.loads(result_file.read_text())["end_to_end"])
            print(f"{name} seed {seed}: {walls[-1]:.1f} s, correct={runs[-1]['correct']}",
                  file=sys.stderr)
        metrics = {m: summarise([r["metrics"][m]["value"] for r in runs])
                   for m in runs[0]["metrics"]}
        if not args.trace:
            # printed but not in BENCHMARK.json: the drifting wall time itself
            metrics["wall_s (printed only)"] = summarise([e["wall_s"] for e in printed])
        summary[name] = {
            "seeds": seed_list(args.seeds),
            "all_correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "run_wall_s": summarise(walls),
            "metrics": metrics,
        }
        print(f"== {name}: all correct {summary[name]['all_correct']}, "
              f"run wall median {statistics.median(walls):.1f} s")
        for m, s in metrics.items():
            bound = bounds.get(m)
            flag = "" if bound is None or s["spread"] < bound / 3 else "  SPREAD >= bound/3"
            print(f"  {m:<44} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.2%}{flag}")
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
