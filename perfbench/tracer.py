"""Run one systolicsim CLI command with spans around its module boundaries.

    python3 tracer.py SRC_DIR SPANS_JSON RUN_ID -- <systolicsim arguments>

The child imports the package from SRC_DIR, wraps the public functions
listed in BOUNDARIES wherever the package binds them, then calls the same
``systolicsim.cli.main`` that ``python3 -m systolicsim.cli`` runs.  Spans
(name, start, end, parent, run id) and counters are kept in memory and
written to SPANS_JSON when the command returns.  A boundary whose module or
function no longer exists is listed under "absent" instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

# (span name, module, attribute); "Trace.x" names a method of trace.Trace.
BOUNDARIES = (
    ("config.load_config", "systolicsim.config", "load_config"),
    ("config.load_topology", "systolicsim.config", "load_topology"),
    ("engine.generate_traces", "systolicsim.engine", "generate_traces"),
    ("trace.init", "systolicsim.trace", "Trace.__init__"),
    ("trace.write_csv", "systolicsim.trace", "Trace.write_csv"),
    ("trace.read_csv", "systolicsim.trace", "Trace.read_csv"),
    ("memory.epochize", "systolicsim.memory", "epochize"),
    ("memory.dram_read_trace", "systolicsim.memory", "gen_dram_read_trace"),
    ("memory.dram_write_trace", "systolicsim.memory", "gen_dram_write_trace"),
    ("memory.bandwidth_report", "systolicsim.memory", "bandwidth_report"),
    ("metrics.layer_report", "systolicsim.metrics", "layer_report"),
    ("metrics.summarize_network", "systolicsim.metrics", "summarize_network"),
    ("simulate.simulate_layer", "systolicsim.simulate", "simulate_layer"),
    ("sweeps.run_sweep", "systolicsim.sweeps", "run_sweep"),
)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []      # [name, start, end, parent, run_id]
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.engine_keys: set = set()
        self.absent: list[str] = []
        self.hook_errors: list[str] = []

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def span(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                # the counters' own cost is a sibling span, so that it is not
                # charged to the layer that called this boundary
                hook = len(self.spans)
                self.spans.append(["bench.hook", time.perf_counter(), None, parent,
                                   self.run_id])
                try:
                    after(result, *args, **kwargs)
                except Exception:  # a changed return type must not stop the run
                    self.hook_errors.append(f"{name}: {traceback.format_exc(limit=1)}")
                finally:
                    self.spans[hook][2] = time.perf_counter()
            return result
        return wrapper

    # counters taken from each boundary's arguments and results

    def after_generate_traces(self, ts, layer, arch, *_):
        self.add("engine.calls", 1)
        self.add("engine.sram_events", len(ts.ifmap_reads) + len(ts.filter_reads)
                 + len(ts.ofmap_writes))
        self.add("mapping.folds", ts.plan.num_folds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.counts["engine.rss_hwm_mb"] = max(self.counts.get("engine.rss_hwm_mb", 0), rss_mb)
        self.engine_keys.add((repr(layer), arch.dataflow.value, arch.array_rows,
                              arch.array_cols))

    def after_epochize(self, epochs, *_args, **_kwargs):
        self.add("memory.epochize_calls", 1)
        self.add("memory.epochs", len(epochs))
        self.add("memory.multi_epoch_calls", int(len(epochs) > 1))
        if epochs:
            # footprint: distinct addresses over all epochs, counted on a
            # bitmap because a sort would dominate the tracer's own cost
            addresses = np.concatenate([e.addresses for e in epochs])
            lo = int(addresses.min())
            seen = np.zeros(int(addresses.max()) - lo + 1, dtype=bool)
            seen[addresses - lo] = True
            self.add("memory.epoch_bytes", sum(e.bytes for e in epochs))
            self.add("memory.footprint_bytes", int(seen.sum()) * epochs[0].word_bytes)

    def after_bandwidth_report(self, dram, *_args, **_kwargs):
        self.add("memory.dram_events", len(dram.read_trace) + len(dram.write_trace))

    def after_csv(self, _result, *args, **kwargs):
        path = kwargs.get("path", args[-1])
        self.add("trace.csv_bytes", os.path.getsize(path))

    def after_run_sweep(self, rows, *_args, **_kwargs):
        self.add("sweeps.cells", len(rows))
        self.add("sweeps.flagged_cells", sum(r["status"] != "ok" for r in rows))

    def install(self) -> None:
        hooks = {
            "engine.generate_traces": self.after_generate_traces,
            "memory.epochize": self.after_epochize,
            "memory.bandwidth_report": self.after_bandwidth_report,
            "trace.write_csv": self.after_csv,
            "trace.read_csv": self.after_csv,
            "sweeps.run_sweep": self.after_run_sweep,
        }
        for name, module_name, attr in BOUNDARIES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            if attr.startswith("Trace."):
                self._wrap_method(name, getattr(module, "Trace", None),
                                  attr.split(".", 1)[1], hooks.get(name))
            else:
                self._wrap_function(name, getattr(module, attr, None), hooks.get(name))

    def _wrap_function(self, name, original, after) -> None:
        if not callable(original):
            self.absent.append(name)
            return
        wrapper = self.span(name, original, after)
        # rebind every name the package bound to the original, so calls made
        # through `from .x import f` imports are traced too
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "systolicsim" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def _wrap_method(self, name, cls, method, after) -> None:
        raw = vars(cls).get(method) if cls is not None else None
        if raw is None:
            self.absent.append(name)
            return
        if isinstance(raw, classmethod):
            setattr(cls, method, classmethod(self.span(name, raw.__func__, after)))
        elif method == "__init__":
            setattr(cls, method, self._sorting_init(name, raw))
        else:
            setattr(cls, method, self.span(name, raw, after))

    def _sorting_init(self, name, init):
        """Span only the constructions that sort a nonempty trace."""
        traced = self.span(name, init)
        signature = inspect.signature(init)

        @functools.wraps(init)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            n = len(bound.arguments.get("cycles", ()))
            if bound.arguments.get("sort") and n:
                self.add("trace.sorts", 1)
                self.add("trace.sorted_events", n)
                return traced(*args, **kwargs)
            return init(*args, **kwargs)
        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "engine_keys": len(self.engine_keys), "absent": self.absent,
                       "hook_errors": self.hook_errors}, fh)


def main() -> int:
    src, out_path, run_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    sys.path.insert(0, src)
    import systolicsim.cli as cli
    tracer = Tracer(run_id)
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main())
