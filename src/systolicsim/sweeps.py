"""Design-space studies, each over one axis and every dataflow: dataflow vs
array size, scratchpad sizing, aspect ratio, and scale-up vs scale-out.
Scale-up is the one-node case of scale-out: both run through ``_sharded``.
A cell of the other studies reads its columns from the network total,
``summarize_network`` over its layers' ``simulate_layer`` reports; a scale
cell keeps only each shard's cycles and filter DRAM bytes.

Every study emits fully-keyed rows sharing one column schema so each cell is
reproducible in isolation from the CLI.  Per-cell failures of the simulator's
own error types are recorded in the status column and do not abort the
sweep; any other exception propagates.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

from .config import ALL_DATAFLOWS, ArchConfig, LayerSpec, load_topology
from .errors import ConfigError, SimulationError, TopologyError
from .metrics import SUMMARY_FIELDS, EnergyCostTable, csv_line, summarize_network
from .simulate import simulate_layer

NODE_SIDE = 8  # scale-out nodes are NODE_SIDE x NODE_SIDE arrays

SWEEP_COLUMNS = ("study", "workload", "layer", "dataflow", "rows", "cols",
                 "sram_kb", "pe_count", "mode", "total_cycles", "energy",
                 "dram_rd_bytes", "avg_rd_bw", "dram_filter_rd_bytes",
                 "avg_filter_rd_bw", "status")

# what a cell may fail with and still be recorded as a flagged row; anything
# else is a program bug and propagates
CELL_ERRORS = (ConfigError, TopologyError, SimulationError)


@dataclass
class SweepSpec:
    """A study's cells: each value of its one ``axis``, by default its entry
    in ``STUDY_AXES``, under each of ``dataflows``, on each workload."""
    study: str
    workloads: list[str]
    axis: tuple[int, ...] | None = None
    dataflows: tuple[str, ...] = ALL_DATAFLOWS

    def __post_init__(self):
        """Reject a bad axis before any cell runs."""
        if self.study not in STUDIES:
            raise ConfigError(f"unknown study {self.study!r}; choose from {STUDIES}")
        if not self.workloads:
            raise ConfigError("sweep needs at least one workload")
        self.axis = STUDY_AXES[self.study][0] if self.axis is None else self.axis
        for name in ("axis", "dataflows"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must be nonempty")
        if bad := set(self.dataflows) - set(ALL_DATAFLOWS):
            raise ConfigError(f"unknown dataflow {sorted(bad)[0]!r}; choose from "
                              f"{ALL_DATAFLOWS}")
        if self.study == "aspect":
            if len(self.axis) != 1:
                raise ConfigError(f"aspect takes one PE budget, not {len(self.axis)}")
            aspect_shapes(self.axis[0])  # raises ConfigError for a bad budget
        elif self.study == "scale":
            for pe in self.axis:
                if pe < 1 or math.isqrt(pe) ** 2 != pe or pe % (NODE_SIDE * NODE_SIDE):
                    raise ConfigError(f"PE count {pe} is not a perfect square and a "
                                      f"multiple of {NODE_SIDE * NODE_SIDE}")
        elif min(self.axis) < 1:
            raise ConfigError(f"{self.study} axis must be positive")


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
# simulation: a cell's key columns and the arch overrides that make it.

def _dataflow_cells(spec: SweepSpec, base: ArchConfig):
    """Runtime and energy per (square array size, dataflow)."""
    for size in spec.axis:
        for df in spec.dataflows:
            yield (dict(dataflow=df, rows=size, cols=size),
                   dict(array_rows=size, array_cols=size, dataflow=df))


def _memory_cells(spec: SweepSpec, base: ArchConfig):
    """Required DRAM read bandwidth per (dataflow, buffer size); IFMAP and
    filter buffers both get the swept size."""
    for df in spec.dataflows:
        for kb in spec.axis:
            yield (dict(dataflow=df, sram_kb=kb, rows=base.array_rows,
                        cols=base.array_cols),
                   dict(ifmap_sram_kb=kb, filter_sram_kb=kb, dataflow=df))


def _aspect_cells(spec: SweepSpec, base: ArchConfig):
    """Runtime per (array shape, dataflow) at a fixed PE budget."""
    for r, c in aspect_shapes(spec.axis[0]):
        for df in spec.dataflows:
            yield (dict(dataflow=df, rows=r, cols=c, pe_count=spec.axis[0]),
                   dict(array_rows=r, array_cols=c, dataflow=df))


# per study: the default of its axis and, but for scale (see _scale_rows), its
# cells and the summary columns each cell fills from the network total
STUDY_AXES = {
    "dataflow": ((8, 16, 32, 64, 128), _dataflow_cells, ("total_cycles", "energy")),
    "memory": ((32, 64, 128, 256, 512, 1024, 2048), _memory_cells,
               ("total_cycles", "dram_rd_bytes", "avg_rd_bw")),
    "aspect": ((16384,), _aspect_cells, ("total_cycles", "energy")),
    "scale": ((64, 256, 1024, 4096, 16384), None, ()),
}
STUDIES = tuple(STUDY_AXES)


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
        _, cells, columns = STUDY_AXES[spec.study]
        for key, overrides in cells(spec, base_arch):
            row = _row(spec.study, name, **key)
            try:
                arch = base_arch.with_overrides(**overrides)
                total = summarize_network([simulate_layer(layer, arch, table).report
                                           for layer in layers])
                row.update({c: getattr(total, SUMMARY_FIELDS[c]) for c in columns})
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
    return [replace(layer, name=f"{layer.name}_shard{i}", num_filters=base + int(i < rem))
            for i in range(k)]


def _sharded(layer: LayerSpec, nodes: int, arch: ArchConfig,
             table) -> tuple[int, int, float]:
    """(cycles, filter DRAM bytes, filter DRAM bandwidth) of the layer with
    its filters split over ``nodes`` copies of ``arch`` that run their
    shards in lockstep: the layer finishes with the slowest shard, and
    bytes and bandwidth add across nodes.  Each distinct shard size runs
    once; a shard that holds every filter is the layer itself, run under
    its own name."""
    shard_sizes = Counter(s.num_filters for s in partition_output_channels(layer, nodes))
    cycles = filter_bytes = 0
    filter_bw = 0.0
    for m, count in shard_sizes.items():
        shard = (layer if m == layer.num_filters
                 else replace(layer, name=f"{layer.name}_m{m}", num_filters=m))
        res = simulate_layer(shard, arch, table)
        c, b = res.report.total_cycles, res.dram.filter.total_bytes
        del res    # so that the next shard does not run beside its DRAM demand
        cycles = max(cycles, c)
        filter_bytes += count * b
        filter_bw += count * (b / c)
    return cycles, filter_bytes, filter_bw


def _scale_rows(workload: str, layers: list[LayerSpec], spec: SweepSpec,
                base_arch: ArchConfig, table) -> list[dict]:
    """Scale-up (one square array) vs scale-out (PEs/64 nodes of 8x8 with the
    output channels sharded): per-layer and network rows per mode.  A layer
    with fewer filters than nodes gets one skipped out-mode row; a failing
    layer gets one up-mode error row, its first failure."""
    rows = []
    for pe in spec.axis:
        nodes = pe // (NODE_SIDE * NODE_SIDE)
        for df in spec.dataflows:
            # scale-up is the one-node case of scale-out
            modes = [(dict(dataflow=df, pe_count=pe, mode=mode, rows=side, cols=side),
                      base_arch.with_overrides(array_rows=side, array_cols=side,
                                               dataflow=df))
                     for mode, side in (("up", math.isqrt(pe)), ("out", NODE_SIDE))]
            (up_key, up_arch), (out_key, out_arch) = modes
            # at the 64-PE rung both modes are one 8x8 array: simulate it once
            same = (up_arch, 1) == (out_arch, nodes)
            done = []    # per simulated layer, each mode's _sharded numbers
            for layer in layers:
                if layer.num_filters < nodes:
                    rows.append(_row("scale", workload, layer=layer.name,
                                     status=f"skipped: {layer.num_filters} filters "
                                            f"< {nodes} nodes", **out_key))
                    continue
                try:
                    up = _sharded(layer, 1, up_arch, table)
                    cells = [up, up if same else _sharded(layer, nodes, out_arch, table)]
                except CELL_ERRORS as exc:
                    rows.append(_row("scale", workload, layer=layer.name,
                                     status=f"error: {exc}", **up_key))
                    continue
                done.append(cells)
                rows += [_row("scale", workload, layer=layer.name, total_cycles=cycles,
                              dram_filter_rd_bytes=fbytes, avg_filter_rd_bw=fbw, **key)
                         for (key, _), (cycles, fbytes, fbw) in zip(modes, cells)]
            if done:
                rows += [_row("scale", workload, layer="network",
                              total_cycles=sum(c for c, _, _ in per_layer),
                              dram_filter_rd_bytes=sum(b for _, b, _ in per_layer), **key)
                         for (key, _), per_layer in zip(modes, zip(*done))]
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
