"""Design-space studies: dataflow vs array size, scratchpad sizing, array
aspect ratio, and scale-up vs scale-out.

Every study emits fully-keyed rows sharing one column schema so each cell is
reproducible in isolation from the CLI.  Per-cell failures of the simulator's
own error types are recorded in the status column and do not abort the
sweep; any other exception propagates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .config import ALL_DATAFLOWS, ArchConfig, LayerSpec, load_topology
from .errors import ConfigError, SimulationError, TopologyError
from .metrics import EnergyCostTable, LayerReport, csv_line
from .simulate import simulate_layer, simulate_network

DEFAULT_ARRAY_SIZES = (8, 16, 32, 64, 128)
DEFAULT_SRAM_SIZES_KB = (32, 64, 128, 256, 512, 1024, 2048)
DEFAULT_TOTAL_PES = 16384
DEFAULT_PE_LADDER = (64, 256, 1024, 4096, 16384)
NODE_SIDE = 8  # scale-out nodes are NODE_SIDE x NODE_SIDE arrays

SWEEP_COLUMNS = ("study", "workload", "layer", "dataflow", "rows", "cols",
                 "sram_kb", "pe_count", "mode", "total_cycles", "energy",
                 "dram_rd_bytes", "avg_rd_bw", "dram_filter_rd_bytes",
                 "avg_filter_rd_bw", "status")

STUDIES = ("dataflow", "memory", "aspect", "scale")

# what a cell may fail with and still be recorded as a flagged row; anything
# else is a program bug and propagates
CELL_ERRORS = (ConfigError, TopologyError, SimulationError)


@dataclass
class SweepSpec:
    study: str
    workloads: list[str]
    array_sizes: tuple[int, ...] = DEFAULT_ARRAY_SIZES
    sram_sizes_kb: tuple[int, ...] = DEFAULT_SRAM_SIZES_KB
    total_pes: int = DEFAULT_TOTAL_PES
    pe_ladder: tuple[int, ...] = DEFAULT_PE_LADDER
    dataflows: tuple[str, ...] = ALL_DATAFLOWS

    def __post_init__(self):
        """Reject bad axes before any cell runs, whichever study uses them."""
        if self.study not in STUDIES:
            raise ConfigError(f"unknown study {self.study!r}; choose from {STUDIES}")
        if not self.workloads:
            raise ConfigError("sweep needs at least one workload")
        for axis in ("array_sizes", "sram_sizes_kb", "pe_ladder", "dataflows"):
            if not getattr(self, axis):
                raise ConfigError(f"{axis} must be nonempty")
        for axis in ("array_sizes", "sram_sizes_kb"):
            if min(getattr(self, axis)) < 1:
                raise ConfigError(f"{axis} must be positive")
        if bad := set(self.dataflows) - set(ALL_DATAFLOWS):
            raise ConfigError(f"unknown dataflow {sorted(bad)[0]!r}; choose from "
                              f"{ALL_DATAFLOWS}")
        aspect_shapes(self.total_pes)  # raises ConfigError for a bad budget
        for pe in self.pe_ladder:
            if pe < 1 or math.isqrt(pe) ** 2 != pe or pe % (NODE_SIDE * NODE_SIDE):
                raise ConfigError(f"PE count {pe} is not a perfect square and a "
                                  f"multiple of {NODE_SIDE * NODE_SIDE}")


def _row(study, workload, **kv) -> dict:
    row = {c: "" for c in SWEEP_COLUMNS}
    row.update(study=study, workload=workload, status="ok")
    row.update(kv)
    return row


def aspect_shapes(total_pes: int) -> list[tuple[int, int]]:
    """All 2^k x (total/2^k) shapes with both sides >= 8."""
    if total_pes < 64 or total_pes & (total_pes - 1):
        raise ConfigError(f"total PEs {total_pes} is not a power of two >= 64")
    shapes = []
    k = 3
    while (1 << k) <= total_pes // 8:
        shapes.append((1 << k, total_pes >> k))
        k += 1
    return shapes


# Each study other than scale is a list of cells, every cell one network
# simulation: a cell's key columns, the arch overrides that make it, and
# the columns it fills from the network total.

def _dataflow_cells(spec: SweepSpec, base: ArchConfig):
    """Runtime and energy per (square array size, dataflow)."""
    for size in spec.array_sizes:
        for df in spec.dataflows:
            yield (dict(dataflow=df, rows=size, cols=size),
                   dict(array_rows=size, array_cols=size, dataflow=df))


def _memory_cells(spec: SweepSpec, base: ArchConfig):
    """Required DRAM read bandwidth per (dataflow, buffer size); IFMAP and
    filter buffers both get the swept size."""
    for df in spec.dataflows:
        for kb in spec.sram_sizes_kb:
            yield (dict(dataflow=df, sram_kb=kb, rows=base.array_rows,
                        cols=base.array_cols),
                   dict(ifmap_sram_kb=kb, filter_sram_kb=kb, dataflow=df))


def _aspect_cells(spec: SweepSpec, base: ArchConfig):
    """Runtime per (array shape, dataflow) at a fixed PE budget."""
    for r, c in aspect_shapes(spec.total_pes):
        for df in spec.dataflows:
            yield (dict(dataflow=df, rows=r, cols=c, pe_count=spec.total_pes),
                   dict(array_rows=r, array_cols=c, dataflow=df))


def _runtime_energy(total: LayerReport) -> dict:
    return dict(total_cycles=total.total_cycles, energy=total.energy)


def _read_traffic(total: LayerReport) -> dict:
    return dict(total_cycles=total.total_cycles, dram_rd_bytes=total.dram_read_bytes,
                avg_rd_bw=total.avg_read_bw)


_CELL_STUDIES = {
    "dataflow": (_dataflow_cells, _runtime_energy),
    "memory": (_memory_cells, _read_traffic),
    "aspect": (_aspect_cells, _runtime_energy),
}


def run_sweep(spec: SweepSpec, base_arch: ArchConfig,
              table: EnergyCostTable | None = None) -> list[dict]:
    """Load each workload once and run every cell of the study on it.  A
    workload or cell that fails with one of CELL_ERRORS becomes a flagged
    row."""
    rows = []
    for wl in spec.workloads:
        name = Path(wl).stem
        try:
            layers = load_topology(wl)
            if not layers:
                raise TopologyError("topology has no layers")
        except (*CELL_ERRORS, OSError) as exc:
            rows.append(_row(spec.study, name, status=f"error: {exc}"))
            continue
        if spec.study == "scale":
            rows += _scale_rows(name, layers, spec, base_arch, table)
            continue
        cells, fill = _CELL_STUDIES[spec.study]
        for key, overrides in cells(spec, base_arch):
            row = _row(spec.study, name, **key)
            try:
                net = simulate_network(layers, base_arch.with_overrides(**overrides),
                                       table)
                row.update(fill(net.total))
            except CELL_ERRORS as exc:
                row["status"] = f"error: {exc}"
            rows.append(row)
    return rows


def partition_output_channels(layer: LayerSpec, k: int) -> list[LayerSpec]:
    """Split the filters over k nodes as evenly as possible, larger shards
    first."""
    if k < 1:
        raise ValueError("node count must be >= 1")
    if k > layer.num_filters:
        raise TopologyError(
            f"layer {layer.name!r}: cannot shard {layer.num_filters} filters "
            f"over {k} nodes (empty shard)")
    base, rem = divmod(layer.num_filters, k)
    shards = []
    for i in range(k):
        m = base + (1 if i < rem else 0)
        shards.append(LayerSpec(f"{layer.name}_shard{i}", layer.ifmap_h, layer.ifmap_w,
                                layer.filter_h, layer.filter_w, layer.channels,
                                m, layer.stride))
    return shards


@dataclass
class _ScaleLayerCell:
    cycles: int = 0
    filter_bytes: int = 0
    filter_bw: float = 0.0


def _scale_out_layer(layer: LayerSpec, nodes: int, node_arch: ArchConfig,
                     table) -> _ScaleLayerCell:
    """All nodes run their shard in lockstep; the layer finishes with the
    slowest shard, filter fetch bandwidth adds across nodes."""
    shards = partition_output_channels(layer, nodes)
    by_m: dict[int, int] = {}
    for s in shards:
        by_m[s.num_filters] = by_m.get(s.num_filters, 0) + 1
    cell = _ScaleLayerCell()
    for m, count in by_m.items():
        res = simulate_layer(
            LayerSpec(f"{layer.name}_m{m}", layer.ifmap_h, layer.ifmap_w,
                      layer.filter_h, layer.filter_w, layer.channels, m,
                      layer.stride),
            node_arch, table)
        cycles = res.report.total_cycles
        fbytes = res.dram.filter.total_bytes
        cell.cycles = max(cell.cycles, cycles)
        cell.filter_bytes += count * fbytes
        cell.filter_bw += count * (fbytes / cycles)
    return cell


def _scale_rows(workload: str, layers: list[LayerSpec], spec: SweepSpec,
                base_arch: ArchConfig, table) -> list[dict]:
    """Scale-up (one square array) vs scale-out (PEs/64 nodes of 8x8 with the
    output channels sharded).  Emits per-layer and network rows per mode;
    layers with fewer filters than nodes are flagged and skipped in both
    modes.  Its rows differ in shape from the other studies' cells, so it
    keeps its own loop."""
    rows = []
    for pe in spec.pe_ladder:
        side = math.isqrt(pe)
        nodes = pe // (NODE_SIDE * NODE_SIDE)
        for df in spec.dataflows:
            up_arch = base_arch.with_overrides(array_rows=side, array_cols=side,
                                               dataflow=df)
            out_arch = base_arch.with_overrides(array_rows=NODE_SIDE,
                                                array_cols=NODE_SIDE, dataflow=df)
            up_total = _ScaleLayerCell()
            out_total = _ScaleLayerCell()
            any_ok = False
            up = dict(dataflow=df, pe_count=pe, mode="up", rows=side, cols=side)
            out = dict(dataflow=df, pe_count=pe, mode="out", rows=NODE_SIDE,
                       cols=NODE_SIDE)
            for layer in layers:
                if layer.num_filters < nodes:
                    rows.append(_row("scale", workload, layer=layer.name,
                                     status=f"skipped: {layer.num_filters} filters "
                                            f"< {nodes} nodes", **out))
                    continue
                try:
                    up_res = simulate_layer(layer, up_arch, table)
                    out_cell = _scale_out_layer(layer, nodes, out_arch, table)
                except CELL_ERRORS as exc:
                    rows.append(_row("scale", workload, layer=layer.name,
                                     status=f"error: {exc}", **up))
                    continue
                any_ok = True
                up_cyc = up_res.report.total_cycles
                up_fb = up_res.dram.filter.total_bytes
                rows.append(_row("scale", workload, layer=layer.name,
                                 total_cycles=up_cyc, dram_filter_rd_bytes=up_fb,
                                 avg_filter_rd_bw=up_fb / up_cyc, **up))
                rows.append(_row("scale", workload, layer=layer.name,
                                 total_cycles=out_cell.cycles,
                                 dram_filter_rd_bytes=out_cell.filter_bytes,
                                 avg_filter_rd_bw=out_cell.filter_bw, **out))
                up_total.cycles += up_cyc
                up_total.filter_bytes += up_fb
                out_total.cycles += out_cell.cycles
                out_total.filter_bytes += out_cell.filter_bytes
            if any_ok:
                rows.append(_row("scale", workload, layer="network",
                                 total_cycles=up_total.cycles,
                                 dram_filter_rd_bytes=up_total.filter_bytes, **up))
                rows.append(_row("scale", workload, layer="network",
                                 total_cycles=out_total.cycles,
                                 dram_filter_rd_bytes=out_total.filter_bytes, **out))
    return rows


def trend_lines(study: str, rows: list[dict]) -> list[str]:
    """One line per trend the study shows: the fastest dataflow per array
    size, the best shape per dataflow, the read bandwidth per buffer size,
    or the up/out runtime ratio per PE rung."""
    ok = [r for r in rows if r["status"] == "ok"]
    if study == "memory":
        return [f"  {r['workload']:24s} {r['dataflow']} {r['sram_kb']:5d}KB -> "
                f"{r['avg_rd_bw']:.3f} B/cycle" for r in ok]
    if study == "scale":
        nets = {}
        for r in ok:
            if r["layer"] == "network":
                nets.setdefault((r["workload"], r["dataflow"], r["pe_count"]),
                                {})[r["mode"]] = r["total_cycles"]
        return [f"  {wl:24s} {df} {pe:6d} PEs: up/out runtime ratio "
                f"{modes['up'] / modes['out']:.3f}"
                for (wl, df, pe), modes in sorted(nets.items())]
    if study == "dataflow":
        best = _fastest(ok, lambda r: (r["workload"], r["rows"]), "dataflow")
        return [f"  {wl:24s} {size:4d}x{size:<4d} fastest: {df} ({cyc} cycles)"
                for (wl, size), (cyc, df) in best]
    best = _fastest(ok, lambda r: (r["workload"], r["dataflow"]), "rows", "cols")
    return [f"  {wl:24s} {df}: best shape {r}x{c} ({cyc} cycles)"
            for (wl, df), (cyc, r, c) in best]


def _fastest(rows, group, *columns):
    """Sorted (group, (cycles, *columns)) of each group's fastest row."""
    best = {}
    for r in rows:
        cell = (r["total_cycles"], *(r[c] for c in columns))
        best[group(r)] = min(best.get(group(r), cell), cell)
    return sorted(best.items())


def write_sweep_csv(rows: list[dict], path) -> None:
    with open(path, "w") as fh:
        fh.write(csv_line(SWEEP_COLUMNS))
        for row in rows:
            fh.write(csv_line(row[c] for c in SWEEP_COLUMNS))
