"""vmbsim benchmark: one workload per call, measured in child processes.

Run from the root of a checkout:

    python3 perfbench/run.py --workload null_campaign_210h --seed 1 --seconds 20 --trace 0

Workloads, their reasons and the metric list are in ``BENCHMARK.json``; the
workloads themselves are in ``workloads.py``.  vmbsim is imported from the
checkout's ``src`` (pure Python, nothing to build).  Each workload runs
single-threaded in its own child process, one after another, so that its peak
RSS is its own.  ``setup_s`` is the median over ``SETUP_RUNS`` fresh processes,
each importing vmbsim, loading its data tables, building the inputs from the
seed and running one untimed warm-up on a small input.

``wall_s`` is the median iteration time.  The shared host's speed drifts by
tens of percent within minutes, so the time checked against the bound is
``wall_rel``: the median, over iterations, of iteration time divided by the
time of a reference unit around it (``reference.py``, fixed
work with no vmbsim code).  It moves with the program's speed, not the host's.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the ``end_to_end`` list; with ``--trace 1`` they are the
``per_layer`` list, from a run whose first half is untraced, whose second
half records spans (``spans.py``) and which ends with one iteration that
measures allocation peaks with tracemalloc.  The lines before it
print every metric with its unit, the machine and run stamp and any failed
check.  Full results and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_RUNS = 5
DEADLINE_S = 170.0

# Printed for every workload; BENCHMARK.json's end_to_end list is the subset
# that every workload has and that is never 0.
E2E_UNITS = {
    "wall_rel": "ref",
    "wall_s": "s",
    "wall_s_tail": "s",
    "meas_hours_per_s": "h/s",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
    "setup_s": "s",
    "failed_ratio": "1",
}


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git (unknown outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_stamp() -> dict:
    libc = ctypes.CDLL(None)
    libc.sysconf.argtypes = [ctypes.c_int]
    libc.sysconf.restype = ctypes.c_long
    # glibc's _SC_LEVEL2_CACHE_SIZE and _SC_LEVEL3_CACHE_SIZE
    l2, l3 = libc.sysconf(191), libc.sysconf(194)
    return {
        "nproc": os.cpu_count(),
        "ram_gb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 1e9,
        "l2_mib": l2 / 2**20 if l2 > 0 else None,
        "l3_mib": l3 / 2**20 if l3 > 0 else None,
        "git_commit": git_commit(),
        "note": "byte counts are file sizes or computed from array sizes; the L3 cache "
                "holds most arrays, so no memory-bandwidth claim is made",
    }


def run_worker(args, extra: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(OUT), *extra]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(report["vmbsim_file"]).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"vmbsim was imported from {report['vmbsim_file']}, not this checkout")
    return report


def tail(times: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, as (percentile, value)."""
    n = len(times)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(times)[n - 11]


def end_to_end(report: dict, setups: list[float]) -> dict[str, float | None]:
    times = report["times"]
    wall = statistics.median(times)
    t = tail(times)
    return {
        "wall_rel": statistics.median(t / r for t, r in zip(times, report["ref_times"])),
        "wall_s": wall,
        "wall_s_tail": t[1] if t else None,
        "meas_hours_per_s": report["meas_hours"] / wall if report["meas_hours"] else None,
        "peak_rss_mb": report["peak_rss_mb"],
        "output_mb": max(report["output_bytes"]) / 1e6,
        "setup_s": statistics.median(setups),
        "failed_ratio": report["failed"] / report["attempted"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "vmbsim" / "__init__.py").is_file():
        print(f"error: no vmbsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    try:
        setups = []
        if not args.trace:
            setups = [run_worker(args, ["--setup-only"], deadline)["setup_s"]
                      for _ in range(SETUP_RUNS - 1)]
        report = run_worker(args, [], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    setups.append(report["setup_s"])

    stamp = machine_stamp() | {
        "python": report["python"], "numpy": report["numpy"], "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
    }
    e2e = end_to_end(report, setups)
    print(f"# {json.dumps(stamp)}")
    for name, value in e2e.items():
        unit = E2E_UNITS[name]
        if name == "wall_s_tail":
            t = tail(report["times"])
            note = (f"p{t[0]:.1f} of {len(report['times'])} iterations" if t else
                    f"n/a: {len(report['times'])} iterations, a tail needs >= 11")
        else:
            note = {"wall_rel": "median of iteration time / reference-unit time around it",
                    "wall_s": f"median of {len(report['times'])} iterations",
                    "setup_s": f"median of {len(setups)} set-ups",
                    "output_mb": "exact count",
                    "failed_ratio": f"{report['failed']}/{report['attempted']}"}.get(name, "")
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<18} {shown:>12} {unit:<4} {note}")
    for failure in report["failures"]:
        print(f"FAILED {failure}")

    if args.trace:
        layers = report["layers"]
        known = set(report["wrapped"])
        metrics = {}
        for m in spec["per_layer"]:
            function = m["name"].rsplit(".", 1)[0]
            if m["name"] in layers:
                value = layers[m["name"]]
            elif function in known or function.startswith("cli."):
                value = 0.0       # the function was wrapped but this workload never called it
            else:
                print(f"error: per-layer metric {m['name']} names no traced function",
                      file=sys.stderr)
                return 1
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"{m['name']:<44} {value:>14.6g} {m['unit']}")
        print(f"trace overhead: traced wall {statistics.median(report['traced_times']):.4g} s"
              f" vs untraced {e2e['wall_s']:.4g} s; spans in {report['spans_file']}")
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    result = {"correct": report["failed"] == 0, "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}
    out_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(
        {"stamp": stamp, "result": result, "end_to_end": e2e, "report": report}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
