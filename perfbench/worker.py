"""One workload in its own process: set up, warm up, measure, report.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; prints one JSON report as
the last line of its standard output.  ``--setup-only`` stops after set-up.
With ``--trace 1`` the first half of the time is measured untraced, the
second half with the span recorder on, and one more iteration with the span
recorder and tracemalloc inside its MEMORY_SPANS on, for their memory peaks.

Untraced iterations are each followed by ``REF_SHARE`` of their time spent
timing a fixed reference unit (``reference.py``); an iteration's
reference time is the mean of the samples just before and just after it.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before numpy and vmbsim load

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import vmbsim  # noqa: E402
import vmbsim.limits  # noqa: E402
from reference import reference_time, reference_unit  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# Share of each iteration's time spent timing its reference unit after it.
REF_SHARE = 0.15


def _fresh(workdir: Path) -> Path:
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workdir


def _dir_bytes(workdir: Path) -> int:
    return sum(p.stat().st_size for p in workdir.iterdir())


class Tally:
    """Iteration times, output sizes and the attempted/failed ledger of one phase."""

    def __init__(self):
        self.times: list[float] = []
        self.ref_times: list[float] = []      # reference-unit time around each iteration
        self.output_bytes: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []


def measure(workload, seconds: float, workdir: Path, tally: Tally, recorder=None,
            reference: bool = False) -> None:
    """Run timed iterations within ``seconds`` (at least one).

    An iteration starts only if one of median length, with its reference time
    when ``reference`` is set, still ends inside the window, so a run lasts
    ``seconds`` at most, whatever the iteration length.
    """
    before = reference_time(0.0) if reference else 0.0
    start = time.perf_counter()
    share = 1.0 + REF_SHARE if reference else 1.0
    iteration = 0
    while iteration == 0 or (time.perf_counter() - start
                             + share * (statistics.median(tally.times) if tally.times else 0.0)
                             <= seconds):
        _fresh(workdir)
        if recorder is not None:
            recorder.iteration = iteration
            recorder.active = True
        iteration += 1
        t = time.perf_counter()
        try:
            result, failed_ops = workload.run(workdir)
            elapsed = time.perf_counter() - t
        except Exception:
            traceback.print_exc()
            tally.attempted += workload.n_ops
            tally.failed += workload.n_ops
            tally.failures.append("iteration raised")
            continue
        finally:
            if recorder is not None:
                recorder.active = False
        tally.times.append(elapsed)
        if reference:
            after = reference_time(REF_SHARE * elapsed)
            tally.ref_times.append((before + after) / 2)
            before = after
        tally.output_bytes.append(_dir_bytes(workdir))
        tally.attempted += workload.n_ops
        tally.failed += failed_ops
        try:
            checks = workload.check(result, workdir)
        except Exception:
            traceback.print_exc()
            checks = [("checks ran", False, "check raised")]
        tally.attempted += len(checks)
        tally.failed += sum(not ok for _, ok, _ in checks)
        tally.failures += [f"{name}: {detail}" for name, ok, detail in checks if not ok]
    if not tally.times:
        raise SystemExit(f"{workload.name}: no iteration completed")


def layer_metrics(timing: dict, iterations: int, memory: dict) -> dict[str, float]:
    """Per-iteration layer metrics named ``<layer>.<function>.<quantity>``.

    ``timing`` and ``memory`` are ``Recorder.totals`` of the timed iterations
    and of the one iteration run under tracemalloc.
    """
    out: dict[str, float] = {}
    for name, agg in timing.items():
        out[f"{name}.calls"] = agg["calls"] / iterations
        out[f"{name}.self_s"] = agg["self_s"] / iterations
        for key in ("samples", "blocks", "items", "bytes", "masses"):
            if key in agg:
                out[f"{name}.{key}"] = agg[key] / iterations
    for name, agg in memory.items():
        if "peak_alloc_bytes" in agg:
            out[f"{name}.peak_alloc_mb"] = agg["peak_alloc_bytes"] / 1e6

    def rate(work, self_s, scale):
        return out.get(work, 0.0) / scale / out[self_s] if out.get(self_s) else 0.0

    out["synth.synthesize_run.msamples_per_s"] = rate(
        "synth.synthesize_run.samples", "synth.synthesize_run.self_s", 1e6)
    for io_fn in ("apparatus.write_record", "apparatus.read_record"):
        out[f"{io_fn}.mb_per_s"] = rate(f"{io_fn}.bytes", f"{io_fn}.self_s", 1e6)
    records = out.get("pipeline.analyze_record.calls", 0.0)
    for fn in ("pipeline.demodulate", "pipeline.block_fft"):
        out[f"{fn}.calls_per_record"] = out.get(f"{fn}.calls", 0.0) / records if records else 0.0
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    # set-up: data tables, inputs from the seed, one untimed warm-up on a small input
    vmbsim.ReferenceResults.bundled()
    vmbsim.limits.load_context_curves()
    cls = WORKLOADS[args.workload]
    workload = cls(args.seed)
    workdir = args.out_dir / f"work-{args.workload}"
    warm = cls(args.seed, warmup=True)
    warm.run(_fresh(workdir))
    setup_s = time.perf_counter() - T0

    report = {
        "setup_s": setup_s,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "vmbsim_file": vmbsim.__file__,
    }
    if not args.setup_only:
        reference_unit()          # warm the reference unit, outside set-up
        untraced = Tally()
        seconds = args.seconds / 2 if args.trace else args.seconds
        measure(workload, seconds, workdir, untraced, reference=True)
        report.update(
            times=untraced.times,
            ref_times=untraced.ref_times,
            output_bytes=untraced.output_bytes,
            attempted=untraced.attempted,
            failed=untraced.failed,
            failures=untraced.failures,
            meas_hours=getattr(workload, "meas_hours", None),
        )
        if args.trace:
            # spans time the layers with tracemalloc off; one more iteration with
            # it on inside MEMORY_SPANS gives their allocation peaks
            recorder = Recorder()
            recorder.install()
            traced, memory_pass = Tally(), Tally()
            try:
                measure(workload, seconds, workdir, traced, recorder)
                timing = recorder.totals()
                recorder.phase = "tracemalloc"
                measure(workload, 0.0, workdir, memory_pass, recorder)
            finally:
                recorder.uninstall()
            spans_path = args.out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            recorder.write_jsonl(spans_path)
            layers = layer_metrics(timing, len(traced.times), recorder.totals("tracemalloc"))
            layers["trace.overhead_s"] = (
                statistics.median(traced.times) - statistics.median(untraced.times)
            )
            report.update(
                traced_times=traced.times,
                layers=layers,
                spans_file=str(spans_path),
                wrapped=sorted(recorder.wrapped),
                attempted=untraced.attempted + traced.attempted + memory_pass.attempted,
                failed=untraced.failed + traced.failed + memory_pass.failed,
                failures=untraced.failures + traced.failures + memory_pass.failures,
            )
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
