"""One-call pipeline: layer -> traces -> DRAM demand -> report.

The report comes from ``metrics.layer_report``, the only per-layer reducer,
which ``report`` also calls on trace files read back from disk.  Neither it
nor the memory model depends on the order of a trace's events within a
cycle, so the engine's cycle-ordered traces feed both as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import ArchConfig, LayerSpec
from .engine import TraceSet, generate_traces
from .mapping import fold_plan, workload_counts
from .memory import DramDemand, dram_demand
from .metrics import (EnergyCostTable, LayerReport, NetworkReport,
                      layer_report, summarize_network)
from .trace import SEGMENT_EVENTS

# an SRAM trace event is an int64 cycle and an int64 address
EVENT_BYTES = 16
# simulate_layer holds at most this many times its SRAM traces' bytes, plus
# SEGMENT_EVENTS events of temporaries; tests/test_memory_bound.py checks it
PEAK_TRACE_FACTOR = 1.3


@dataclass
class LayerResult:
    report: LayerReport
    traces: TraceSet
    dram: DramDemand


def simulate_layer(layer: LayerSpec, arch: ArchConfig,
                   table: EnergyCostTable | None = None) -> LayerResult:
    traces = generate_traces(layer, arch)
    dram = dram_demand(traces, arch)
    report = layer_report(layer, arch, table, len(traces.ifmap_reads),
                          len(traces.filter_reads), traces.ofmap_writes,
                          dram.read_trace.cycle_segments(), dram.write_trace.cycle_segments())
    return LayerResult(report, traces, dram)


def layer_peak_bytes(layer: LayerSpec, arch: ArchConfig) -> int:
    """The most memory ``simulate_layer`` needs for this layer, from the
    closed-form SRAM event count."""
    events = sum(fold_plan(workload_counts(layer), arch).sram_event_counts)
    return int(PEAK_TRACE_FACTOR * EVENT_BYTES * events) + EVENT_BYTES * SEGMENT_EVENTS


def simulate_network(layers: list[LayerSpec], arch: ArchConfig,
                     table: EnergyCostTable | None = None) -> NetworkReport:
    """Layers execute serially in list order; traces are dropped after each
    layer to keep memory bounded."""
    reports = [simulate_layer(layer, arch, table).report for layer in layers]
    return summarize_network(reports)
