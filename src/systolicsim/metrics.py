"""Per-layer and per-network reports reduced from traces.

``layer_report`` is the only function that builds a layer's report, from
its traces alone, so ``run`` and ``report`` cannot disagree;
``summarize_network`` adds the layer reports into the network total.

The summary CSV column order is a stable external contract; network.csv
repeats the per-layer rows and appends an aggregate "total" row.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .config import ArchConfig, LayerSpec
from .errors import ConfigError, SimulationError
from .mapping import fold_plan, workload_counts
from .trace import Trace, segments

SUMMARY_COLUMNS = (
    "layer", "dataflow", "rows", "cols", "total_cycles", "mapping_eff",
    "compute_util", "sram_rd_ifmap", "sram_rd_filter", "sram_wr_ofmap",
    "dram_rd_bytes", "dram_wr_bytes", "avg_rd_bw", "peak_rd_bw",
    "avg_wr_bw", "peak_wr_bw", "energy",
)


@dataclass(frozen=True)
class EnergyCostTable:
    """Linear energy model.  The defaults (1, 6, 6, 200) are arbitrary but
    plausible relative costs per MAC, SRAM word read/write, and DRAM byte;
    override via a cost-table file for anything quantitative."""

    e_mac: float = 1.0
    e_sram_read: float = 6.0
    e_sram_write: float = 6.0
    e_dram_access: float = 200.0

    def __post_init__(self):
        for f in ("e_mac", "e_sram_read", "e_sram_write", "e_dram_access"):
            if getattr(self, f) < 0:
                raise ConfigError(f"energy cost {f} must be non-negative")


def load_energy_table(path: str | Path) -> EnergyCostTable:
    """key = value lines; keys e_mac, e_sram_read, e_sram_write, e_dram_access."""
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"bad energy table line: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in ("e_mac", "e_sram_read", "e_sram_write", "e_dram_access"):
            raise ConfigError(f"unknown energy table key {key!r}")
        values[key] = float(val)
    return EnergyCostTable(**values)


def energy(macs: int, sram_reads: int, sram_writes: int, dram_bytes: int,
           table: EnergyCostTable) -> float:
    return (macs * table.e_mac + sram_reads * table.e_sram_read
            + sram_writes * table.e_sram_write + dram_bytes * table.e_dram_access)


@dataclass
class LayerReport:
    name: str
    dataflow: str
    rows: int
    cols: int
    total_cycles: int
    macs_total: int
    mapping_efficiency: float
    compute_utilization: float
    sram_reads_ifmap: int
    sram_reads_filter: int
    sram_writes_ofmap: int
    sram_reads_ofmap_partials: int
    dram_read_bytes: int
    dram_write_bytes: int
    avg_read_bw: float
    peak_read_bw: int
    avg_write_bw: float
    peak_write_bw: int
    energy: float
    # fold bookkeeping so network mapping efficiency aggregates exactly
    active_pe_folds: int = 0
    fold_pe_area: int = 0


def _dram_bytes(cycle_arrays: Iterable[np.ndarray], total_cycles: int,
                word_bytes: int) -> tuple[int, int]:
    """(bytes moved, most bytes moved in one cycle of [0, total_cycles)),
    given every DRAM event's cycle in arrays read once each, in any order;
    one ``bincount`` per segment of an array, over its own in-run cycles."""
    events, total = 0, np.zeros(0, np.int64)
    for cycles in cycle_arrays:
        events += len(cycles)
        for seg in segments(len(cycles)):
            part = cycles[seg]
            part = part[(part >= 0) & (part < total_cycles)]    # a copy
            if len(part):
                low = int(part.min())
                part -= low
                counts = np.bincount(part)
                if not len(total):
                    total = np.zeros(total_cycles, np.int64)
                total[low:low + len(counts)] += counts
    return events * word_bytes, int(total.max()) * word_bytes if len(total) else 0


def layer_report(layer: LayerSpec, arch: ArchConfig, table: EnergyCostTable | None,
                 ifmap_reads: int, filter_reads: int, ofmap_writes: Trace,
                 dram_reads: Iterable[np.ndarray],
                 dram_writes: Iterable[np.ndarray]) -> LayerReport:
    """Reduce one layer's traces to its report.  ``run`` and ``report`` both
    call this, so they agree by construction.  The SRAM reads enter as
    counts and each DRAM partition as its events' cycles, in arrays read
    once each, one at a time, in any order.  Runtime is one past the last
    output write; every write to an address after its first is a partial
    sum that the next reduction fold re-reads; DRAM bytes and bandwidths
    come from the DRAM cycles."""
    table = table or EnergyCostTable()
    if not len(ofmap_writes) or ofmap_writes.max_cycle < 0:
        raise SimulationError(f"layer {layer.name!r}: ofmap write trace has no "
                              "cycle >= 0, so no runtime")
    word = arch.word_bytes
    cycles = ofmap_writes.max_cycle + 1
    counts = workload_counts(layer)
    active, area = fold_plan(counts, arch).pe_totals
    # distinct write addresses, counted on a bitmap of the output region
    addresses = ofmap_writes.addresses
    region = counts.n_windows * counts.n_filters * word
    if (addresses.min() < arch.ofmap_offset
            or addresses.max() >= arch.ofmap_offset + region):
        raise SimulationError(f"layer {layer.name!r}: ofmap write outside the "
                              "layer's output region")
    written = np.zeros(region, dtype=bool)
    for seg in segments(len(addresses)):
        written[addresses[seg] - arch.ofmap_offset] = True
    partial_reads = len(ofmap_writes) - int(np.count_nonzero(written))
    dram_rd_bytes, peak_rd_bw = _dram_bytes(dram_reads, cycles, word)
    dram_wr_bytes, peak_wr_bw = _dram_bytes(dram_writes, cycles, word)
    return LayerReport(
        name=layer.name,
        dataflow=arch.dataflow.value,
        rows=arch.array_rows,
        cols=arch.array_cols,
        total_cycles=cycles,
        macs_total=counts.macs_total,
        mapping_efficiency=active / area,
        compute_utilization=counts.macs_total / (cycles * arch.array_rows * arch.array_cols),
        sram_reads_ifmap=ifmap_reads,
        sram_reads_filter=filter_reads,
        sram_writes_ofmap=len(ofmap_writes),
        sram_reads_ofmap_partials=partial_reads,
        dram_read_bytes=dram_rd_bytes,
        dram_write_bytes=dram_wr_bytes,
        avg_read_bw=dram_rd_bytes / cycles,
        peak_read_bw=peak_rd_bw,
        avg_write_bw=dram_wr_bytes / cycles,
        peak_write_bw=peak_wr_bw,
        energy=energy(counts.macs_total, ifmap_reads + filter_reads + partial_reads,
                      len(ofmap_writes), dram_rd_bytes + dram_wr_bytes, table),
        active_pe_folds=active,
        fold_pe_area=area,
    )


@dataclass
class NetworkReport:
    layers: list[LayerReport]
    total: LayerReport


def summarize_network(layers: list[LayerReport]) -> NetworkReport:
    """Serialized execution: cycles, accesses, and energy add across layers;
    utilizations aggregate from the summed integers; peaks take the max."""
    if not layers:
        raise ValueError("network has no layers")
    rows, cols = layers[0].rows, layers[0].cols
    cycles = sum(l.total_cycles for l in layers)
    macs = sum(l.macs_total for l in layers)
    dram_rd = sum(l.dram_read_bytes for l in layers)
    dram_wr = sum(l.dram_write_bytes for l in layers)
    active = sum(l.active_pe_folds for l in layers)
    area = sum(l.fold_pe_area for l in layers)
    total = LayerReport(
        name="total",
        dataflow=layers[0].dataflow,
        rows=rows,
        cols=cols,
        total_cycles=cycles,
        macs_total=macs,
        mapping_efficiency=active / area,
        compute_utilization=macs / (cycles * rows * cols),
        sram_reads_ifmap=sum(l.sram_reads_ifmap for l in layers),
        sram_reads_filter=sum(l.sram_reads_filter for l in layers),
        sram_writes_ofmap=sum(l.sram_writes_ofmap for l in layers),
        sram_reads_ofmap_partials=sum(l.sram_reads_ofmap_partials for l in layers),
        dram_read_bytes=dram_rd,
        dram_write_bytes=dram_wr,
        avg_read_bw=dram_rd / cycles,
        peak_read_bw=max(l.peak_read_bw for l in layers),
        avg_write_bw=dram_wr / cycles,
        peak_write_bw=max(l.peak_write_bw for l in layers),
        energy=sum(l.energy for l in layers),
        active_pe_folds=active,
        fold_pe_area=area,
    )
    return NetworkReport(list(layers), total)


def _csv_cell(value) -> str:
    """One CSV field of the summary and sweep CSVs: a float by ``repr``,
    anything else by ``str``, quoted when it holds a comma, a quote or a
    line break."""
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if any(ch in text for ch in ',"\n\r'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def csv_line(values) -> str:
    """One line of the summary and sweep CSVs."""
    return ",".join(_csv_cell(v) for v in values) + "\n"


def report_row(r: LayerReport) -> str:
    return csv_line((
        r.name, r.dataflow, r.rows, r.cols, r.total_cycles, r.mapping_efficiency,
        r.compute_utilization, r.sram_reads_ifmap, r.sram_reads_filter,
        r.sram_writes_ofmap, r.dram_read_bytes, r.dram_write_bytes,
        r.avg_read_bw, r.peak_read_bw, r.avg_write_bw, r.peak_write_bw, r.energy))


def summary_csv(layers: list[LayerReport]) -> str:
    return csv_line(SUMMARY_COLUMNS) + "".join(report_row(r) for r in layers)


def network_csv(net: NetworkReport) -> str:
    return summary_csv(net.layers + [net.total])
