"""Workload quantities and the fold grid.

A layer is viewed as N_w convolution windows of W_sz elements reduced
against M filters.  When the work exceeds the physical array it is split
into folds executed serially over a regular grid, ``FoldPlan``, row-major
with the row dimension outermost.  Each grid axis is at most two runs of
equal chunks, the full chunks and then the remainder, so the engine's
fold batches and the totals below, the runtime among them, are closed
forms over those runs; no code lists the folds one by one.

Window enumeration is raster order over (ofmap_h, ofmap_w); within a
window elements are ordered (r, s, c) with the channel innermost.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .config import ArchConfig, Dataflow, LayerSpec
from .errors import ConfigError, SimulationError


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


def footprint_words(layer: LayerSpec, counts: WorkloadCounts) -> tuple[int, int]:
    """(ifmap, filter) distinct words the layer reads under every dataflow:
    every filter word, and every channel of the ifmap rows by columns the
    windows cover.  n windows of k rows at stride s cover n*k rows if
    s >= k (disjoint runs), else (n - 1)*s + k: the smaller of the two."""
    h, w = (min(n * k, (n - 1) * layer.stride + k) for n, k in (
        (counts.ofmap_h, layer.filter_h), (counts.ofmap_w, layer.filter_w)))
    return h * w * layer.channels, counts.n_filters * counts.window_size


def regions(layer: LayerSpec, arch: ArchConfig,
            counts: WorkloadCounts) -> list[tuple[int, int]]:
    """The [low, high) byte range of the ifmap, filter and ofmap operands,
    delimited by the offsets; they must not overlap for this layer's
    footprints."""
    spans = {name: (low, low + words * arch.word_bytes) for name, low, words in (
        ("ifmap", arch.ifmap_offset, layer.ifmap_h * layer.ifmap_w * layer.channels),
        ("filter", arch.filter_offset, counts.n_filters * counts.window_size),
        ("ofmap", arch.ofmap_offset, counts.n_windows * counts.n_filters))}
    for (a, (lo1, hi1)), (b, (lo2, hi2)) in combinations(spans.items(), 2):
        if lo1 < hi2 and lo2 < hi1:
            raise ConfigError(f"layer {layer.name!r}: {a} and {b} address regions overlap "
                              f"({spans[a]} vs {spans[b]}); adjust the offsets")
    return list(spans.values())


def _runs(work: int, size: int) -> list[tuple[int, int]]:
    """(count, chunk size) runs that split ``work`` into chunks of at most
    ``size``: the full chunks, then the remainder, each only if present."""
    full, rest = divmod(work, size)
    return [(count, used) for count, used in ((full, size), (1, rest)) if count and used]


@dataclass(frozen=True)
class FoldPlan:
    """The fold grid of one layer on one array.  Fold (i, j) maps chunk i
    of the row work onto rows_used <= rows array rows and chunk j of the
    column work onto cols_used <= cols columns, and streams stream_len
    values through them.  Its totals are closed forms in exact integers:
    the folds cover the row work once per grid column and the column work
    once per grid row, and run back to back, each for ``fold_cycles``."""

    dataflow: Dataflow
    row_work: int
    col_work: int
    stream_len: int
    rows: int
    cols: int

    @property
    def row_runs(self) -> list[tuple[int, int]]:
        return _runs(self.row_work, self.rows)

    @property
    def col_runs(self) -> list[tuple[int, int]]:
        return _runs(self.col_work, self.cols)

    @property
    def grid(self) -> tuple[int, int]:
        """(grid rows, grid columns)"""
        return -(-self.row_work // self.rows), -(-self.col_work // self.cols)

    @property
    def num_folds(self) -> int:
        return self.grid[0] * self.grid[1]

    @property
    def pe_totals(self) -> tuple[int, int]:
        """(sum of rows_used * cols_used, num_folds * rows * cols) over the
        folds; their ratio is the mapping efficiency, the mean fraction of
        the array kept mapped across folds."""
        return self.row_work * self.col_work, self.num_folds * self.rows * self.cols

    def fold_cycles(self, rows: int, cols: int) -> int:
        """Cycles of a fold of ``rows`` by ``cols``: its stream_len values,
        skewed a cycle per row and per column, take rows + cols + stream_len
        - 2; under WS and IS, ``rows`` to load the pinned operand come first."""
        load = rows if self.dataflow is not Dataflow.OS else 0
        return load + rows + cols + self.stream_len - 2

    @property
    def total_cycles(self) -> int:
        """The layer's runtime: every fold's cycles, back to back."""
        return sum(n_rows * n_cols * self.fold_cycles(rows, cols)
                   for n_rows, rows in self.row_runs for n_cols, cols in self.col_runs)

    @property
    def largest_fold_events(self) -> int:
        """SRAM events, over the three traces, of a fold of full chunks: it
        streams the stream length through its rows and out of its columns
        and maps one value per PE."""
        rows, cols = min(self.rows, self.row_work), min(self.cols, self.col_work)
        return (rows + cols) * self.stream_len + rows * cols

    @property
    def sram_event_counts(self) -> tuple[int, int, int]:
        """(ifmap reads, filter reads, ofmap writes) in the layer's SRAM traces.

        Every fold streams the stream length through each of its rows_used
        rows and out of each of its cols_used columns.  OS streams both
        operands that way and drains one value per mapped PE; WS and IS fill
        one pinned operand per mapped PE, stream the other through the rows
        and drain the columns.
        """
        through_rows = self.row_work * self.grid[1] * self.stream_len
        through_cols = self.col_work * self.grid[0] * self.stream_len
        mapped = self.row_work * self.col_work
        return {Dataflow.OS: (through_rows, through_cols, mapped),
                Dataflow.WS: (through_rows, mapped, through_cols),
                Dataflow.IS: (mapped, through_rows, through_cols)}[self.dataflow]


def fold_plan(counts: WorkloadCounts, arch: ArchConfig) -> FoldPlan:
    """The fold grid of a dataflow:

    OS: rows take windows, cols take filters, W_sz streamed per fold.
    WS: rows take window elements (reduction), cols take filters, N_w streamed.
    IS: rows take window elements, cols take windows, M streamed.
    """
    work = {Dataflow.OS: (counts.n_windows, counts.n_filters, counts.window_size),
            Dataflow.WS: (counts.window_size, counts.n_filters, counts.n_windows),
            Dataflow.IS: (counts.window_size, counts.n_windows, counts.n_filters)}
    return FoldPlan(arch.dataflow, *work[arch.dataflow], arch.array_rows, arch.array_cols)
