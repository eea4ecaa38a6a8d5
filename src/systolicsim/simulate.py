"""One-call pipeline: layer -> traces -> DRAM demand -> report.

The report comes from ``metrics.layer_report``, the only per-layer reducer,
which ``report`` also calls on trace files read back from disk.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import ArchConfig, LayerSpec
from .engine import TraceSet, generate_traces
from .memory import DramDemand, dram_demand
from .metrics import (EnergyCostTable, LayerReport, NetworkReport,
                      layer_report, summarize_network)


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
                          dram.read_trace, dram.write_trace)
    return LayerResult(report, traces, dram)


def simulate_network(layers: list[LayerSpec], arch: ArchConfig,
                     table: EnergyCostTable | None = None) -> NetworkReport:
    """Layers execute serially in list order; traces are dropped after each
    layer to keep memory bounded."""
    reports = [simulate_layer(layer, arch, table).report for layer in layers]
    return summarize_network(reports)
