"""Span recorder that times vmbsim's public functions from outside the library.

``Recorder.install`` wraps every public module-level function of the layers in
``LAYERS`` and rebinds the wrapper under every name that holds the original in
any loaded ``vmbsim`` module.  Calls inside a module (``analyze_record`` calling
``block_fft``) and across modules (``cli`` calling ``pipeline.demodulate``)
therefore both open a span.  ``cli.main`` opens one span per subcommand,
named ``cli.<subcommand>``.

Each span records name, start, end, parent, iteration id, phase, counts and,
for ``MEMORY_SPANS`` in the "tracemalloc" phase, the tracemalloc peak inside
it.  Spans stay in memory until ``write_jsonl``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import tracemalloc
import types
from dataclasses import dataclass

LAYERS = ("synth", "pipeline", "apparatus", "limits")

# Spans whose allocation peak is reported.  tracemalloc runs only inside them,
# from a fresh start, so the peak counts what the call allocated on top of what
# existed before; it slows allocation-heavy Python code many-fold (np.savetxt
# inside write_record about twentyfold), so it stays off everywhere else.
MEMORY_SPANS = frozenset({"synth.synthesize_run", "pipeline.demodulate", "apparatus.read_record"})

# format_number runs once per number written to a file; a span per call would
# cost more than the call and swamp the spans around real work.
UNWRAPPED = frozenset({"apparatus.format_number"})


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Work counts taken at the layer boundary: from the arguments and the result,
# after the span has closed so that the counting is not timed.
COUNTERS = {
    "synth.synthesize_run": lambda a, k, r: {"samples": len(r)},
    "pipeline.demodulate": lambda a, k, r: {"samples": len(_arg(a, k, 0, "record"))},
    "pipeline.block_fft": lambda a, k, r: {"blocks": len(r)},
    "pipeline.weighted_average": lambda a, k, r: {
        "items": len(_arg(a, k, 0, "values_and_sigmas"))
    },
    "apparatus.write_record": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))},
    "apparatus.read_record": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    "limits.alp_exclusion": lambda a, k, r: {"masses": len(r.mass_grid_ev)},
    "limits.mcp_exclusion": lambda a, k, r: {"masses": len(r.mass_grid_ev)},
    "limits.write_curve": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))},
}


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    iteration: int | None
    phase: str
    end: float = 0.0
    counts: dict | None = None
    peak_alloc_bytes: int | None = None


class Recorder:
    """Collects spans around vmbsim calls while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.iteration: int | None = None
        self.active = False            # spans are recorded only while True
        self.phase = "timing"          # in phase "tracemalloc", MEMORY_SPANS trace allocations
        self._stack: list[int] = []    # indices of the open spans
        self._rebound: list[tuple[types.ModuleType, str, object]] = []
        self.wrapped: set[str] = set()  # span names of the wrapped functions, cli.main aside

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "vmbsim" or n.startswith("vmbsim.")]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"vmbsim.{layer}"]
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and name not in UNWRAPPED
                ):
                    wrappers[id(obj)] = self._wrap(obj, name)
        cli_main = sys.modules["vmbsim.cli"].main
        wrappers[id(cli_main)] = self._wrap(cli_main, None)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._rebound.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._rebound):
            setattr(mod, attr, obj)
        self._rebound.clear()

    def _wrap(self, fn, name):
        if name:
            self.wrapped.add(name)
        count = COUNTERS.get(name)
        is_average = name == "pipeline.weighted_average"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if is_average:
                # the callee starts with list(values_and_sigmas); doing it here
                # lets the items be counted
                args = (list(args[0]),) + args[1:]
            # cli.main(argv) is named after its subcommand
            index = self._open(name or f"cli.{_arg(args, kwargs, 0, 'argv')[0]}")
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                self.spans[index].counts = count(args, kwargs, result)
            return result

        return wrapper

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, 0.0, parent, self.iteration, self.phase)
        if self.phase == "tracemalloc" and name in MEMORY_SPANS and not tracemalloc.is_tracing():
            span.peak_alloc_bytes = 0
            tracemalloc.start()
        self._stack.append(index)
        self.spans.append(span)
        span.start = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        span = self.spans[index]
        if span.peak_alloc_bytes is not None:
            span.peak_alloc_bytes = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        span.end = end
        self._stack.pop()

    # -- results ------------------------------------------------------------

    def totals(self, phase: str = "timing") -> dict[str, dict]:
        """Per span name in ``phase``: calls, self seconds, summed counts and the largest peak.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the workloads are single-threaded.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[str, dict] = {}
        for span, children in zip(self.spans, child_time):
            if span.phase != phase:
                continue
            agg = out.setdefault(span.name, {"calls": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += span.end - span.start - children
            if span.peak_alloc_bytes is not None:
                agg["peak_alloc_bytes"] = max(agg.get("peak_alloc_bytes", 0), span.peak_alloc_bytes)
            for key, value in (span.counts or {}).items():
                agg[key] = agg.get(key, 0) + value
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                    "iteration": s.iteration, "phase": s.phase, "counts": s.counts,
                    "peak_alloc_bytes": s.peak_alloc_bytes,
                }) + "\n")
