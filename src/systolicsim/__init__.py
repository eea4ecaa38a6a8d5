"""Cycle-accurate simulator for systolic-array DNN accelerators.

Generates per-cycle SRAM/DRAM address traces for convolution and GEMM layers
under output-, weight-, and input-stationary dataflows, and reduces them to
runtime, utilization, memory traffic, bandwidth, and energy reports.
"""

from .config import (ArchConfig, Dataflow, LayerSpec, load_config,
                     load_topology, lower_gemm, parse_config, parse_topology)
from .engine import TraceSet, generate_traces
from .mapping import FoldPlan, WorkloadCounts, workload_counts
from .memory import DramDemand, Epoch, dram_demand, epochize
from .metrics import EnergyCostTable, LayerReport, energy, summarize_network
from .simulate import LayerResult, simulate_layer

__version__ = "0.1.0"

__all__ = [
    "ArchConfig", "Dataflow", "DramDemand", "EnergyCostTable", "Epoch",
    "FoldPlan", "LayerReport", "LayerResult", "LayerSpec", "TraceSet",
    "WorkloadCounts", "dram_demand", "energy", "epochize", "generate_traces",
    "load_config", "load_topology", "lower_gemm", "parse_config",
    "parse_topology", "simulate_layer", "summarize_network", "workload_counts",
]
