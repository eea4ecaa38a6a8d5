"""The benchmark's tracer must still fit the package.

``perfbench/tracer.py`` lists a boundary it cannot find as "absent" and runs
on, so a rename in the package would silently drop that module from the
benchmark's per-module split; and a hook that raises on a changed return
type fails the traced command.  These tests read the tracer and fail
instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from helpers import make_arch, write_topology
from systolicsim import simulate
from systolicsim.config import LayerSpec, load_topology
from systolicsim.engine import generate_traces
from systolicsim.memory import dram_demand, epochize
from systolicsim.simulate import simulate_layer
from systolicsim.sweeps import SweepSpec, run_sweep
from systolicsim.trace import Trace

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TRACER = _load_tracer()
BOUNDARIES = TRACER.BOUNDARIES


@pytest.mark.parametrize("name,module_name,attr", BOUNDARIES,
                         ids=[name for name, _, _ in BOUNDARIES])
def test_boundary_resolves(name, module_name, attr):
    module = importlib.import_module(module_name)
    if attr.startswith("Trace."):
        # the tracer wraps methods found in the class's own namespace
        assert attr.split(".", 1)[1] in vars(module.Trace), name
    else:
        assert callable(getattr(module, attr, None)), name


@pytest.mark.parametrize("dataflow", ["os", "ws", "is"])
def test_hooks_count_the_pipeline(dataflow, tmp_path):
    # 1 KB buffers hold 256 words; the ifmap (1024), filter (288) and ofmap
    # (1568 words) footprints all overflow them
    layer = LayerSpec("t", 16, 16, 3, 3, 4, 8, 1)
    arch = make_arch(4, 4, dataflow, ifmap_kb=1, filter_kb=1, ofmap_kb=1, word_bytes=4)
    tracer = TRACER.Tracer("test")
    ts = generate_traces(layer, arch)
    tracer.after_generate_traces(ts, layer, arch)
    for reads, capacity in ((ts.ifmap_reads, arch.ifmap_capacity_bytes),
                            (ts.filter_reads, arch.filter_capacity_bytes)):
        epochs = epochize(reads, capacity, arch.word_bytes)
        tracer.after_epochize(epochs, reads, capacity, arch.word_bytes)
    dram = dram_demand(ts, arch)
    tracer.after_bandwidth_report(dram)
    assert tracer.counts["memory.multi_epoch_calls"] == 2 and len(dram.write.bursts) > 1
    report = simulate_layer(layer, arch).report
    assert (tracer.counts["memory.dram_events"] * arch.word_bytes
            == report.dram_read_bytes + report.dram_write_bytes)
    # the tracer's wrapper passes a method's own arguments after its result:
    # the trace, or the class of the classmethod, then the path
    path, writes = tmp_path / "writes.csv", ts.ofmap_writes.collect()
    tracer.after_csv(writes.write_csv(path), writes, path)
    tracer.after_csv(Trace.read_csv(path), Trace, path)
    assert tracer.counts["trace.csv_bytes"] == 2 * path.stat().st_size > 0


def test_sweep_hook_counts_flagged_cells(tmp_path):
    write_topology(tmp_path / "topo.csv", [("l0", 6, 6, 3, 3, 2, 4, 1)])
    spec = SweepSpec("memory", [str(tmp_path / "topo.csv"), str(tmp_path / "none.csv")],
                     axis=(64,), dataflows=("os", "ws"))
    rows = run_sweep(spec, make_arch(4, 4))
    tracer = TRACER.Tracer("test")
    tracer.after_run_sweep(rows, spec, make_arch(4, 4))
    assert tracer.counts == {"sweeps.cells": 3, "sweeps.flagged_cells": 1}


def test_traced_engine_counts_match_the_summaries(monkeypatch, tmp_path):
    # a traced benchmark run checks engine.sram_events against the SRAM
    # columns of its summaries.  The tracer wraps generate_traces where
    # simulate_layer calls it, so each simulated (layer, arch) must call it
    # once, and its traces' lengths must be the events the report counts
    tracer = TRACER.Tracer("test")
    monkeypatch.setattr(simulate, "generate_traces", tracer.span(
        "engine.generate_traces", simulate.generate_traces, tracer.after_generate_traces))
    write_topology(tmp_path / "topo.csv", [("l0", 8, 8, 3, 3, 2, 5, 1),
                                           ("l1", 6, 7, 2, 2, 5, 3, 1)])
    layers = load_topology(tmp_path / "topo.csv")
    events = 0
    for dataflow in ("os", "ws", "is"):
        reports = [simulate_layer(layer, make_arch(4, 4, dataflow)).report for layer in layers]
        events += sum(l.sram_reads_ifmap + l.sram_reads_filter + l.sram_writes_ofmap
                      for l in reports)
    assert tracer.counts["engine.sram_events"] == events
    assert tracer.counts["engine.calls"] == len(layers) * 3
    rows = run_sweep(SweepSpec("memory", [str(tmp_path / "topo.csv")],
                               axis=(16, 32, 64)), make_arch(4, 4))
    assert len(rows) == 9 and all(r["status"] == "ok" for r in rows)
    # the memory study's SRAM traces do not depend on the buffer size
    assert tracer.counts["engine.sram_events"] == events * (1 + 3)
    assert tracer.counts["engine.calls"] == len(layers) * (3 + len(rows))
    assert not tracer.hook_errors
