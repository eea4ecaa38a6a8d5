"""Per-layer and per-network reports reduced from traces.

``layer_report`` is the only function that builds a layer's report, from
its traces alone, so ``run`` and ``report`` cannot disagree;
``summarize_network`` adds the layer reports into the network total, itself
a ``LayerReport``, whose ratios then follow from its summed counts as a
layer's do from its own.

The summary CSV column order is a stable external contract; network.csv
is the summary CSV of the layer reports followed by the total's "total"
row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable

import numpy as np

from .config import ArchConfig, LayerSpec
from .errors import ConfigError, SimulationError
from .mapping import fold_plan, regions, workload_counts
from .trace import Trace, TraceStream, chunks

# summary CSV column -> LayerReport attribute, in column order; the sweep
# studies fill their columns of the same names through this table
SUMMARY_FIELDS = {
    "layer": "name", "dataflow": "dataflow", "rows": "rows", "cols": "cols",
    "total_cycles": "total_cycles", "mapping_eff": "mapping_efficiency",
    "compute_util": "compute_utilization", "sram_rd_ifmap": "sram_reads_ifmap",
    "sram_rd_filter": "sram_reads_filter", "sram_wr_ofmap": "sram_writes_ofmap",
    "dram_rd_bytes": "dram_read_bytes", "dram_wr_bytes": "dram_write_bytes",
    "avg_rd_bw": "avg_read_bw", "peak_rd_bw": "peak_read_bw",
    "avg_wr_bw": "avg_write_bw", "peak_wr_bw": "peak_write_bw", "energy": "energy",
}
SUMMARY_COLUMNS = tuple(SUMMARY_FIELDS)


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
        for f in fields(self):
            cost = getattr(self, f.name)
            if not math.isfinite(cost) or cost < 0:
                raise ConfigError(f"energy cost {f.name} must be finite and non-negative, "
                                  f"not {cost}")


def load_energy_table(path: str | Path) -> EnergyCostTable:
    """key = value lines; each key, given at most once, sets that
    EnergyCostTable field."""
    keys, values, lines = {f.name for f in fields(EnergyCostTable)}, {}, {}
    for number, raw in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"bad energy table line: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise ConfigError(f"unknown energy table key {key!r}")
        if key in lines:
            raise ConfigError(f"energy table {path}: key {key} is given twice, on lines "
                              f"{lines[key]} and {number}")
        lines[key] = number
        try:
            values[key] = float(val)
        except ValueError:
            raise ConfigError(f"energy table {path}, line {number}: {key} = {val!r} "
                              "is not a number") from None
    return EnergyCostTable(**values)


def energy(macs: int, sram_reads: int, sram_writes: int, dram_bytes: int,
           table: EnergyCostTable) -> float:
    return (macs * table.e_mac + sram_reads * table.e_sram_read
            + sram_writes * table.e_sram_write + dram_bytes * table.e_dram_access)


@dataclass
class LayerReport:
    """What a layer's traces measure: counts, the two DRAM bandwidth peaks
    and energy.  The four ratios are properties over the counts."""
    name: str
    dataflow: str
    rows: int
    cols: int
    total_cycles: int
    macs_total: int
    sram_reads_ifmap: int
    sram_reads_filter: int
    sram_writes_ofmap: int
    sram_reads_ofmap_partials: int
    dram_read_bytes: int
    dram_write_bytes: int
    peak_read_bw: int
    peak_write_bw: int
    energy: float
    # fold bookkeeping so network mapping efficiency aggregates exactly
    active_pe_folds: int
    fold_pe_area: int

    @property
    def mapping_efficiency(self) -> float:
        return self.active_pe_folds / self.fold_pe_area

    @property
    def compute_utilization(self) -> float:
        return self.macs_total / (self.total_cycles * self.rows * self.cols)

    @property
    def avg_read_bw(self) -> float:
        return self.dram_read_bytes / self.total_cycles

    @property
    def avg_write_bw(self) -> float:
        return self.dram_write_bytes / self.total_cycles


def _dram_bytes(cycle_arrays: Iterable[np.ndarray], total_cycles: int,
                word_bytes: int) -> tuple[int, int]:
    """(bytes moved, most bytes moved in one cycle of [0, total_cycles)),
    given every DRAM event's cycle in arrays read once each, in any order;
    one ``bincount`` per chunk of an array, over its own in-run cycles,
    added into int32 per-cycle counts."""
    events, total = 0, np.zeros(0, np.int32)
    for cycles in cycle_arrays:
        events += len(cycles)
        for seg in chunks(len(cycles)):
            part = cycles[seg]
            part = part[(part >= 0) & (part < total_cycles)]    # a copy
            if len(part):
                low = int(part.min())
                part -= low
                counts = np.bincount(part)
                if not len(total):
                    total = np.zeros(total_cycles, np.int32)
                total[low:low + len(counts)] += counts
    # no cycle's count can exceed the events, so none wrapped round
    assert events <= np.iinfo(np.int32).max, f"{events} DRAM events overflow int32"
    return events * word_bytes, int(total.max()) * word_bytes if len(total) else 0


def layer_report(layer: LayerSpec, arch: ArchConfig, table: EnergyCostTable | None,
                 ifmap_reads: int, filter_reads: int, ofmap_writes: Trace | TraceStream,
                 dram_reads: Iterable[np.ndarray],
                 dram_writes: Iterable[np.ndarray]) -> LayerReport:
    """Reduce one layer's traces to its report.  ``run`` and ``report`` both
    call this, so they agree by construction.  The SRAM reads enter as
    counts, the ofmap writes as a trace or stream read once, segment by
    segment, and each DRAM partition as its events' cycles, in arrays read
    once each, one at a time, in any order.  Runtime is one past the last
    output write; every write to an address after its first is a partial
    sum that the next reduction fold re-reads; DRAM bytes and peak
    bandwidths come from the DRAM cycles.  Writes must fall in the output
    region of ``mapping.regions``, which rejects offsets that overlap."""
    table = table or EnergyCostTable()
    word = arch.word_bytes
    counts = workload_counts(layer)
    active, area = fold_plan(counts, arch).pe_totals
    # distinct write addresses, counted on a bitmap of the output region
    low, high = regions(layer, arch, counts)[2]
    written = np.zeros(high - low, dtype=bool)
    writes, last = 0, -1
    for seg in ofmap_writes.segments():
        addresses = seg.addresses
        if not len(addresses):
            continue
        if addresses.min() < low or addresses.max() >= high:
            raise SimulationError(f"layer {layer.name!r}: ofmap write outside the "
                                  "layer's output region")
        for chunk in chunks(len(addresses)):
            written[addresses[chunk] - low] = True
        writes += len(addresses)
        last = int(seg.cycles[-1])
    if last < 0:
        raise SimulationError(f"layer {layer.name!r}: ofmap write trace has no "
                              "cycle >= 0, so no runtime")
    cycles = last + 1
    partial_reads = writes - int(np.count_nonzero(written))
    dram_rd_bytes, peak_rd_bw = _dram_bytes(dram_reads, cycles, word)
    dram_wr_bytes, peak_wr_bw = _dram_bytes(dram_writes, cycles, word)
    return LayerReport(
        name=layer.name,
        dataflow=arch.dataflow.value,
        rows=arch.array_rows,
        cols=arch.array_cols,
        total_cycles=cycles,
        macs_total=counts.macs_total,
        sram_reads_ifmap=ifmap_reads,
        sram_reads_filter=filter_reads,
        sram_writes_ofmap=writes,
        sram_reads_ofmap_partials=partial_reads,
        dram_read_bytes=dram_rd_bytes,
        dram_write_bytes=dram_wr_bytes,
        peak_read_bw=peak_rd_bw,
        peak_write_bw=peak_wr_bw,
        energy=energy(counts.macs_total, ifmap_reads + filter_reads + partial_reads,
                      writes, dram_rd_bytes + dram_wr_bytes, table),
        active_pe_folds=active,
        fold_pe_area=area,
    )


def summarize_network(layers: list[LayerReport]) -> LayerReport:
    """The network's total, named "total", for layers run one after another:
    every count and energy add across layers, in layer order; the peaks
    take the max; dataflow and shape are the first layer's; the ratios
    follow from the summed counts."""
    if not layers:
        raise ValueError("network has no layers")
    shared, peaks = ("dataflow", "rows", "cols"), ("peak_read_bw", "peak_write_bw")
    total = {f.name: sum(getattr(l, f.name) for l in layers)
             for f in fields(LayerReport) if f.name not in ("name", *shared, *peaks)}
    total.update({f: getattr(layers[0], f) for f in shared})
    total.update({f: max(getattr(l, f) for l in layers) for f in peaks})
    return LayerReport(name="total", **total)


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
    return csv_line(getattr(r, attr) for attr in SUMMARY_FIELDS.values())


def summary_csv(layers: list[LayerReport]) -> str:
    return csv_line(SUMMARY_COLUMNS) + "".join(report_row(r) for r in layers)
