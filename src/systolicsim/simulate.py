"""One-call pipeline: layer -> traces -> DRAM demand -> report -> trace files.

The engine's SRAM traces are streams, each written one segment at a time
as it is read, and each read at most once: ``epochize`` scans the ifmap and
filter traces (unless it has their epoch in closed form), and
``generate_traces`` writes the ofmap segments that hold the final writes,
for the drain.  The report's three ofmap figures (runtime, writes and
partial-sum re-reads) are closed forms of the fold grid, so without trace
files the rest of the ofmap trace is never written.  No SRAM trace is held
whole.  ``simulate_layer`` alone writes trace files: each SRAM file from
the segments it reads, which makes ``epochize`` scan both input traces and
``metrics.ofmap_figures`` read the whole ofmap trace, whose figures must
equal the closed forms; and each DRAM file from its bursts.  The report
comes from ``layer_report``, the only per-layer reducer, which ``report``
also calls on trace files read back from disk.  Neither it nor the memory
model depends on the order of a trace's events within a cycle, so the
engine's cycle-ordered traces feed both as they are.  A network is its
layers run one after another: its total is ``metrics.summarize_network``
over the layers' reports, in layer order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from . import engine, trace
from .config import ArchConfig, LayerSpec
from .engine import generate_traces
from .mapping import fold_plan, footprint_words, regions, workload_counts
from .memory import DramDemand, dram_demand
from .metrics import EnergyCostTable, LayerReport, layer_report, ofmap_figures

# an SRAM trace event is an int64 cycle and an int64 address
EVENT_BYTES = 16
# the most a pass over one chunk of events allocates, per event: the CSV
# writer's rows, at most 160 bytes of temporaries a row, are the most
CHUNK_TEMP_BYTES = 256


@dataclass
class LayerResult:
    report: LayerReport
    dram: DramDemand


def simulate_layer(layer: LayerSpec, arch: ArchConfig,
                   table: EnergyCostTable | None = None,
                   trace_paths: Sequence[str | Path] | None = None) -> LayerResult:
    """Simulate one layer.  With ``trace_paths``, its five trace files in
    ``cli.TRACE_KINDS`` order, also write them as ``run`` does: each SRAM
    trace as it is read, then each DRAM trace from its bursts, sorted.  The
    ofmap figures are the fold grid's closed forms; when the ofmap file is
    written, ``ofmap_figures`` counts them on it, and they must agree."""
    traces = generate_traces(layer, arch)
    writes = len(traces.ofmap_writes)
    ofmap = traces.total_cycles, writes, writes - len(traces.final_writes)
    if trace_paths is not None:
        traces = replace(traces, **{kind: getattr(traces, kind).tee_csv(path) for kind, path
                                    in zip(("ifmap_reads", "filter_reads", "ofmap_writes"),
                                           trace_paths)})
        figures = ofmap_figures(layer, arch, traces.ofmap_writes)
        assert figures == ofmap, (f"the ofmap trace gives (runtime, writes, partial reads) "
                                  f"{figures}, the fold grid {ofmap}")
    dram = dram_demand(traces, arch)
    report = layer_report(layer, arch, table, len(traces.ifmap_reads),
                          len(traces.filter_reads), ofmap,
                          dram.read_trace.cycle_segments(), dram.write_trace.cycle_segments())
    if trace_paths is not None:
        dram.read_trace.trace().write_csv(trace_paths[3])
        dram.write_trace.trace().write_csv(trace_paths[4])
    return LayerResult(report, dram)


def layer_peak_bytes(layer: LayerSpec, arch: ArchConfig) -> int:
    """The most memory ``simulate_layer`` needs for this layer, and ``run``
    to write its trace files, from closed forms.  No trace is held whole:

    - one segment of one SRAM trace;
    - the final writes, which the drain keeps;
    - the bitmap of the output region, a byte per byte, that
      ``metrics.ofmap_figures`` takes only when trace files are written
      (and ``report`` takes on the ofmap file); and the report's int32 DRAM
      events per cycle, over the ``FoldPlan.total_cycles`` cycles of the
      layer;
    - epochize's two int32 per word of the address region it scans (from
      ``mapping.regions``, which rejects offsets that overlap);
    - 24 bytes per DRAM read: the epochs' addresses, int64 at most, and
      the sorted trace of them that ``run`` writes.  An input buffer that
      holds the F words its trace reads (``mapping.footprint_words``, F
      int32 in closed form) fetches each once; others at most one per read;
    - the temporaries of a pass over ``trace.CHUNK_EVENTS`` events, the
      CSV writer's the largest.
    """
    counts = workload_counts(layer)
    plan = fold_plan(counts, arch)
    word = arch.word_bytes
    ifmap, filt, ofmap = (high - low for low, high in regions(layer, arch, counts))
    dram_reads = sum(words if words * word <= cap else reads for words, cap, reads in zip(
        footprint_words(layer, counts), (arch.ifmap_capacity_bytes, arch.filter_capacity_bytes),
        plan.sram_event_counts))
    segment = min(max(engine.SEGMENT_EVENTS, plan.largest_fold_events),
                  max(plan.sram_event_counts))
    return (EVENT_BYTES * (segment + ofmap // word) + ofmap + 4 * plan.total_cycles
            + 2 * 4 * max(ifmap, filt) // word + 3 * 8 * dram_reads
            + CHUNK_TEMP_BYTES * trace.CHUNK_EVENTS)
