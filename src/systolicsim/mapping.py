"""Workload quantities and fold (time-multiplexing) schedules.

A layer is viewed as N_w convolution windows of W_sz elements reduced
against M filters.  When the work exceeds the physical array it is split
into folds executed serially; folds are ordered row-major over the fold
grid with the stationary dimension outermost.

Window enumeration is raster order over (ofmap_h, ofmap_w); within a
window elements are ordered (r, s, c) with the channel innermost.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import ArchConfig, Dataflow, LayerSpec
from .errors import SimulationError


@dataclass(frozen=True)
class WorkloadCounts:
    ofmap_h: int
    ofmap_w: int
    n_windows: int      # N_w = ofmap_h * ofmap_w
    window_size: int    # W_sz = filter_h * filter_w * channels
    n_filters: int      # M
    macs_total: int     # N_w * M * W_sz


def workload_counts(layer: LayerSpec) -> WorkloadCounts:
    ofmap_h = (layer.ifmap_h - layer.filter_h) // layer.stride + 1
    ofmap_w = (layer.ifmap_w - layer.filter_w) // layer.stride + 1
    if ofmap_h < 1 or ofmap_w < 1:
        raise SimulationError(f"layer {layer.name!r}: derived OFMAP dimension < 1")
    n_w = ofmap_h * ofmap_w
    w_sz = layer.filter_h * layer.filter_w * layer.channels
    m = layer.num_filters
    return WorkloadCounts(ofmap_h, ofmap_w, n_w, w_sz, m, n_w * m * w_sz)


@dataclass(frozen=True)
class Fold:
    """One mapping round.  row_start/col_start locate the fold's slice of the
    dataflow's (row-dimension, column-dimension) work."""

    rows_used: int
    cols_used: int
    stream_len: int
    row_start: int = 0
    col_start: int = 0


@dataclass(frozen=True)
class FoldPlan:
    dataflow: Dataflow
    folds: tuple[Fold, ...]

    @property
    def num_folds(self) -> int:
        return len(self.folds)


def _grid_dims(counts: WorkloadCounts, dataflow: Dataflow) -> tuple[int, int, int]:
    """(row work, column work, stream length per fold) of a dataflow:

    OS: rows take windows, cols take filters, W_sz streamed per fold.
    WS: rows take window elements (reduction), cols take filters, N_w streamed.
    IS: rows take window elements, cols take windows, M streamed.
    """
    if dataflow is Dataflow.OS:
        return counts.n_windows, counts.n_filters, counts.window_size
    if dataflow is Dataflow.WS:
        return counts.window_size, counts.n_filters, counts.n_windows
    return counts.window_size, counts.n_windows, counts.n_filters


def fold_schedule(counts: WorkloadCounts, arch: ArchConfig) -> FoldPlan:
    """Folds in row-major order over the fold grid of ``_grid_dims``."""
    row_total, col_total, stream_len = _grid_dims(counts, arch.dataflow)
    rows, cols = arch.array_rows, arch.array_cols
    folds = []
    for i in range(-(-row_total // rows)):
        r = min(rows, row_total - i * rows)
        for j in range(-(-col_total // cols)):
            c = min(cols, col_total - j * cols)
            folds.append(Fold(r, c, stream_len, row_start=i * rows, col_start=j * cols))
    return FoldPlan(arch.dataflow, tuple(folds))


# Closed forms of sums over fold_schedule, in exact integers, so that callers
# need not build the fold list.  Each fold maps rows_used x cols_used work
# items: the grid covers the row work ceil(col_total/cols) times and the
# column work ceil(row_total/rows) times.

def fold_pe_totals(counts: WorkloadCounts, arch: ArchConfig) -> tuple[int, int]:
    """(sum of rows_used * cols_used, num_folds * rows * cols) over the folds;
    their ratio is the mapping efficiency, the mean fraction of the array
    kept mapped across folds."""
    row_total, col_total, _ = _grid_dims(counts, arch.dataflow)
    rows, cols = arch.array_rows, arch.array_cols
    return row_total * col_total, -(-row_total // rows) * -(-col_total // cols) * rows * cols


def sram_event_counts(counts: WorkloadCounts, arch: ArchConfig) -> tuple[int, int, int]:
    """(ifmap reads, filter reads, ofmap writes) in the layer's SRAM traces.

    Every fold streams the stream length through each of its rows_used rows
    and out of each of its cols_used columns.  OS streams both operands that
    way and drains one value per mapped PE; WS and IS fill one pinned operand
    per mapped PE, stream the other through the rows and drain the columns.
    """
    row_total, col_total, stream_len = _grid_dims(counts, arch.dataflow)
    through_rows = row_total * -(-col_total // arch.array_cols) * stream_len
    through_cols = col_total * -(-row_total // arch.array_rows) * stream_len
    mapped = row_total * col_total
    if arch.dataflow is Dataflow.OS:
        return through_rows, through_cols, mapped
    if arch.dataflow is Dataflow.WS:
        return through_rows, mapped, through_cols
    return mapped, through_rows, through_cols
