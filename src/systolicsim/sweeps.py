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
from .metrics import EnergyCostTable
from .simulate import simulate_layer, simulate_network

DEFAULT_ARRAY_SIZES = (8, 16, 32, 64, 128)
DEFAULT_SRAM_SIZES_KB = (32, 64, 128, 256, 512, 1024, 2048)
DEFAULT_TOTAL_PES = 16384
DEFAULT_PE_LADDER = (64, 256, 1024, 4096, 16384)

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
        if self.study not in STUDIES:
            raise ValueError(f"unknown study {self.study!r}; choose from {STUDIES}")
        if not self.workloads:
            raise ValueError("sweep needs at least one workload")
        for axis in ("array_sizes", "sram_sizes_kb", "pe_ladder", "dataflows"):
            if not getattr(self, axis):
                raise ValueError(f"{axis} must be nonempty")


def _row(study, workload, **kv) -> dict:
    row = {c: "" for c in SWEEP_COLUMNS}
    row.update(study=study, workload=workload, status="ok")
    row.update(kv)
    return row


def _wl_name(path) -> str:
    return Path(path).stem


def _load_layers(workload, study, rows):
    try:
        layers = load_topology(workload)
        if not layers:
            raise TopologyError("topology has no layers")
        return layers
    except (*CELL_ERRORS, OSError) as exc:
        rows.append(_row(study, _wl_name(workload), status=f"error: {exc}"))
        return None


def aspect_shapes(total_pes: int) -> list[tuple[int, int]]:
    """All 2^k x (total/2^k) shapes with both sides >= 8."""
    if total_pes < 64 or total_pes & (total_pes - 1):
        raise ValueError("total_pes must be a power of two >= 64")
    shapes = []
    k = 3
    while (1 << k) <= total_pes // 8:
        shapes.append((1 << k, total_pes >> k))
        k += 1
    return shapes


def run_dataflow_study(workloads, base_arch: ArchConfig,
                       sizes=DEFAULT_ARRAY_SIZES, dataflows=ALL_DATAFLOWS,
                       table: EnergyCostTable | None = None) -> list[dict]:
    """Runtime and energy per (workload, square array size, dataflow)."""
    rows = []
    for wl in workloads:
        layers = _load_layers(wl, "dataflow", rows)
        if layers is None:
            continue
        for size in sizes:
            for df in dataflows:
                row = _row("dataflow", _wl_name(wl), dataflow=df, rows=size,
                           cols=size)
                try:
                    arch = base_arch.with_overrides(array_rows=size, array_cols=size,
                                                    dataflow=df)
                    net = simulate_network(layers, arch, table)
                    row.update(total_cycles=net.total.total_cycles,
                               energy=net.total.energy)
                except CELL_ERRORS as exc:
                    row["status"] = f"error: {exc}"
                rows.append(row)
    return rows


def run_memory_sweep(workloads, base_arch: ArchConfig,
                     sram_sizes_kb=DEFAULT_SRAM_SIZES_KB, dataflows=ALL_DATAFLOWS,
                     table: EnergyCostTable | None = None) -> list[dict]:
    """Required DRAM read bandwidth per (workload, dataflow, buffer size);
    IFMAP and filter buffers both get the swept size."""
    rows = []
    for wl in workloads:
        layers = _load_layers(wl, "memory", rows)
        if layers is None:
            continue
        for df in dataflows:
            for kb in sram_sizes_kb:
                row = _row("memory", _wl_name(wl), dataflow=df, sram_kb=kb,
                           rows=base_arch.array_rows, cols=base_arch.array_cols)
                try:
                    arch = base_arch.with_overrides(ifmap_sram_kb=kb,
                                                    filter_sram_kb=kb, dataflow=df)
                    net = simulate_network(layers, arch, table)
                    row.update(total_cycles=net.total.total_cycles,
                               dram_rd_bytes=net.total.dram_read_bytes,
                               avg_rd_bw=net.total.avg_read_bw)
                except CELL_ERRORS as exc:
                    row["status"] = f"error: {exc}"
                rows.append(row)
    return rows


def run_aspect_ratio_study(workloads, base_arch: ArchConfig,
                           total_pes=DEFAULT_TOTAL_PES, dataflows=ALL_DATAFLOWS,
                           table: EnergyCostTable | None = None) -> list[dict]:
    """Runtime per (workload, array shape, dataflow) at a fixed PE budget."""
    rows = []
    shapes = aspect_shapes(total_pes)
    for wl in workloads:
        layers = _load_layers(wl, "aspect", rows)
        if layers is None:
            continue
        for r, c in shapes:
            for df in dataflows:
                row = _row("aspect", _wl_name(wl), dataflow=df, rows=r, cols=c,
                           pe_count=total_pes)
                try:
                    arch = base_arch.with_overrides(array_rows=r, array_cols=c,
                                                    dataflow=df)
                    net = simulate_network(layers, arch, table)
                    row.update(total_cycles=net.total.total_cycles,
                               energy=net.total.energy)
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


def run_scale_study(workloads, base_arch: ArchConfig, pe_ladder=DEFAULT_PE_LADDER,
                    dataflows=ALL_DATAFLOWS, node_side: int = 8,
                    table: EnergyCostTable | None = None) -> list[dict]:
    """Scale-up (one square array) vs scale-out (PEs/64 nodes of 8x8 with the
    output channels sharded).  Emits per-layer and network rows per mode;
    layers with fewer filters than nodes are flagged and skipped in both
    modes."""
    rows = []
    for wl in workloads:
        layers = _load_layers(wl, "scale", rows)
        if layers is None:
            continue
        for pe in pe_ladder:
            side = math.isqrt(pe)
            if side * side != pe:
                raise ValueError(f"PE count {pe} is not a perfect square")
            nodes = pe // (node_side * node_side)
            if nodes * node_side * node_side != pe:
                raise ValueError(f"PE count {pe} is not a multiple of "
                                 f"{node_side * node_side}")
            up_arch0 = base_arch.with_overrides(array_rows=side, array_cols=side)
            out_arch0 = base_arch.with_overrides(array_rows=node_side,
                                                 array_cols=node_side)
            for df in dataflows:
                up_arch = up_arch0.with_overrides(dataflow=df)
                out_arch = out_arch0.with_overrides(dataflow=df)
                up_total = _ScaleLayerCell()
                out_total = _ScaleLayerCell()
                any_ok = False
                for layer in layers:
                    key = dict(dataflow=df, pe_count=pe)
                    if layer.num_filters < nodes:
                        rows.append(_row("scale", _wl_name(wl), layer=layer.name,
                                         mode="out", rows=node_side, cols=node_side,
                                         status=f"skipped: {layer.num_filters} filters "
                                                f"< {nodes} nodes", **key))
                        continue
                    try:
                        up_res = simulate_layer(layer, up_arch, table)
                        out_cell = _scale_out_layer(layer, nodes, out_arch, table)
                    except CELL_ERRORS as exc:
                        rows.append(_row("scale", _wl_name(wl), layer=layer.name,
                                         mode="up", rows=side, cols=side,
                                         status=f"error: {exc}", **key))
                        continue
                    any_ok = True
                    up_cyc = up_res.report.total_cycles
                    up_fb = up_res.dram.filter.total_bytes
                    rows.append(_row("scale", _wl_name(wl), layer=layer.name,
                                     mode="up", rows=side, cols=side,
                                     total_cycles=up_cyc, dram_filter_rd_bytes=up_fb,
                                     avg_filter_rd_bw=up_fb / up_cyc, **key))
                    rows.append(_row("scale", _wl_name(wl), layer=layer.name,
                                     mode="out", rows=node_side, cols=node_side,
                                     total_cycles=out_cell.cycles,
                                     dram_filter_rd_bytes=out_cell.filter_bytes,
                                     avg_filter_rd_bw=out_cell.filter_bw, **key))
                    up_total.cycles += up_cyc
                    up_total.filter_bytes += up_fb
                    out_total.cycles += out_cell.cycles
                    out_total.filter_bytes += out_cell.filter_bytes
                if any_ok:
                    rows.append(_row("scale", _wl_name(wl), layer="network",
                                     mode="up", rows=side, cols=side,
                                     dataflow=df, pe_count=pe,
                                     total_cycles=up_total.cycles,
                                     dram_filter_rd_bytes=up_total.filter_bytes))
                    rows.append(_row("scale", _wl_name(wl), layer="network",
                                     mode="out", rows=node_side, cols=node_side,
                                     dataflow=df, pe_count=pe,
                                     total_cycles=out_total.cycles,
                                     dram_filter_rd_bytes=out_total.filter_bytes))
    return rows


def run_sweep(spec: SweepSpec, base_arch: ArchConfig,
              table: EnergyCostTable | None = None) -> list[dict]:
    if spec.study == "dataflow":
        return run_dataflow_study(spec.workloads, base_arch, spec.array_sizes,
                                  spec.dataflows, table)
    if spec.study == "memory":
        return run_memory_sweep(spec.workloads, base_arch, spec.sram_sizes_kb,
                                spec.dataflows, table)
    if spec.study == "aspect":
        return run_aspect_ratio_study(spec.workloads, base_arch, spec.total_pes,
                                      spec.dataflows, table)
    return run_scale_study(spec.workloads, base_arch, spec.pe_ladder,
                           spec.dataflows, table=table)


def write_sweep_csv(rows: list[dict], path) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_cell(row[c]) for c in SWEEP_COLUMNS) + "\n")


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if "," in text or '"' in text:
        text = '"' + text.replace('"', '""') + '"'
    return text
