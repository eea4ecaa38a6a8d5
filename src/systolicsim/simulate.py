"""One-call pipeline: layer -> traces -> DRAM demand -> report -> trace files.

The engine's SRAM traces are streams, each written one segment at a time
as it is read, and each read at most once: ``epochize`` scans the ifmap and
filter traces (unless it has their epoch in closed form) and
``metrics.layer_report`` the ofmap trace.  (The ofmap segments of the final
writes are also written once more, for the drain, by ``generate_traces``.)
So no SRAM trace is held whole.  ``simulate_layer`` alone writes trace
files: each SRAM file from the segments it reads, which makes ``epochize``
scan both input traces, and each DRAM file from its bursts.  The report
comes from ``layer_report``, the only per-layer reducer, which ``report``
also calls on trace files read back from disk.  Neither it nor the memory
model depends on the order of a trace's events within a cycle, so the
engine's cycle-ordered traces feed both as they are.
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
from .metrics import (EnergyCostTable, LayerReport, NetworkReport,
                      layer_report, summarize_network)

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
    trace as it is read, then each DRAM trace from its bursts, sorted."""
    traces = generate_traces(layer, arch)
    if trace_paths is not None:
        traces = replace(traces, **{kind: getattr(traces, kind).tee_csv(path) for kind, path
                                    in zip(("ifmap_reads", "filter_reads", "ofmap_writes"),
                                           trace_paths)})
    dram = dram_demand(traces, arch)
    report = layer_report(layer, arch, table, len(traces.ifmap_reads),
                          len(traces.filter_reads), traces.ofmap_writes,
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
    - the report's bitmap of the output region, a byte per byte, and its
      int32 DRAM events per cycle, over the ``FoldPlan.total_cycles``
      cycles of the layer;
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


def simulate_network(layers: list[LayerSpec], arch: ArchConfig,
                     table: EnergyCostTable | None = None) -> NetworkReport:
    """Layers execute serially in list order; traces are dropped after each
    layer to keep memory bounded."""
    reports = [simulate_layer(layer, arch, table).report for layer in layers]
    return summarize_network(reports)
