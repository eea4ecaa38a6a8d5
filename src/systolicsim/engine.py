"""Cycle-accurate SRAM trace generation for the three dataflows.

All engines share the stall-free contract: operand reads are scheduled so
the array never waits, outputs drain the cycle they are produced, and folds
execute back to back.  Both edges carry a one-cycle diagonal skew so that
neighbor store-and-forward delivers matching operands to each PE.

Operand layout is row-major with the channel innermost, one word per
element:

    ifmap  (h, w, c)     -> ifmap_offset  + ((h*ifmap_w + w)*channels + c) * word
    filter (f, r, s, c)  -> filter_offset + (f*window_size + k) * word
    ofmap  (p, f)        -> ofmap_offset  + (p*num_filters + f) * word

where k = (r*filter_w + s)*channels + c is the in-window element index and
p the raster index of the output pixel.  Each address splits into a part
per window, filter or pixel and a part per element, and each event cycle
into a part per array row and a part per column or stream step, so a
fold's events in one trace are a block of two outer sums.

Folds are disjoint in time: each fold's base cycle comes after every event
of the fold before it, in every trace.  So a trace needs no global sort.
Its final arrays are allocated once, at the length ``sram_event_counts``
gives in closed form.  Each fold's block is computed straight into the
next slice of them, and each run of whole folds that reaches
``SEGMENT_EVENTS`` events is sorted in place in its own slice.  The
builder asserts both facts it relies on, so a schedule that breaks them
crashes instead of producing an unsorted or short trace.

The fold grid says which output writes are final: ``TraceSet.final_writes``
is the ofmap trace's last N_w*M events, as views.  Under OS every write is
final.  Under WS and IS the reduction is the grid's outermost loop, so the
last reduction chunk's folds end the trace and write each output once;
``_gen_traces_stationary`` asserts that exactly N_w*M ofmap events are
left to fill when that chunk's first fold starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import ArchConfig, Dataflow, LayerSpec
from .errors import ConfigError
from .mapping import (FoldPlan, WorkloadCounts, fold_schedule,
                      sram_event_counts, workload_counts)
from .trace import SEGMENT_EVENTS, Trace, sort_pairs


@dataclass
class TraceSet:
    """Per-layer SRAM traffic.  ofmap_writes includes WS/IS partial-sum
    writes; each write to an address after its first also re-reads the
    partial sum it accumulates onto, at the same cycle."""

    counts: WorkloadCounts
    plan: FoldPlan
    ifmap_reads: Trace
    filter_reads: Trace
    ofmap_writes: Trace

    @property
    def total_cycles(self) -> int:
        return self.ofmap_writes.max_cycle + 1

    @property
    def final_writes(self) -> Trace:
        """The last write of every output address, in (cycle, address)
        order: the ofmap trace's last N_w*M events, as views."""
        writes = self.ofmap_writes
        first = len(writes) - self.counts.n_windows * self.counts.n_filters
        return Trace(writes.cycles[first:], writes.addresses[first:])


class _AddressParts(NamedTuple):
    """Every operand address is a part per window, filter or output pixel
    plus a part per element within it, so each fold's block of addresses is
    one outer sum of two of these vectors."""

    window: np.ndarray          # per window p: ifmap address of its (0, 0, 0)
    window_elem: np.ndarray     # per k: offset of element k within a window
    filter: np.ndarray          # per filter f: address of its element 0
    filter_elem: np.ndarray     # per k: offset of element k within a filter
    ofmap_pixel: np.ndarray     # per window p: address of output (p, 0)
    ofmap_filter: np.ndarray    # per filter f: offset of output (., f)


def _address_parts(layer: LayerSpec, arch: ArchConfig,
                   counts: WorkloadCounts) -> _AddressParts:
    word, chans = arch.word_bytes, layer.channels
    k = np.arange(counts.window_size, dtype=np.int64)
    r, s, c = k // (layer.filter_w * chans), k // chans % layer.filter_w, k % chans
    p = np.arange(counts.n_windows, dtype=np.int64)
    oh, ow = np.divmod(p, counts.ofmap_w)
    f = np.arange(counts.n_filters, dtype=np.int64)
    # window p reads ifmap (oh*stride + r, ow*stride + s, c)
    return _AddressParts(
        window=arch.ifmap_offset + (oh * layer.ifmap_w + ow) * layer.stride * chans * word,
        window_elem=((r * layer.ifmap_w + s) * chans + c) * word,
        filter=arch.filter_offset + f * counts.window_size * word,
        filter_elem=k * word,
        ofmap_pixel=arch.ofmap_offset + p * counts.n_filters * word,
        ofmap_filter=f * word,
    )


def _check_regions(layer: LayerSpec, arch: ArchConfig, counts: WorkloadCounts) -> None:
    """The three offset-delimited operand regions must not overlap for this
    layer's footprints."""
    word = arch.word_bytes
    spans = {
        "ifmap": (arch.ifmap_offset,
                  arch.ifmap_offset + layer.ifmap_h * layer.ifmap_w * layer.channels * word),
        "filter": (arch.filter_offset,
                   arch.filter_offset + counts.n_filters * counts.window_size * word),
        "ofmap": (arch.ofmap_offset,
                  arch.ofmap_offset + counts.n_windows * counts.n_filters * word),
    }
    names = list(spans)
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            (lo1, hi1), (lo2, hi2) = spans[names[a]], spans[names[b]]
            if lo1 < hi2 and lo2 < hi1:
                raise ConfigError(
                    f"layer {layer.name!r}: {names[a]} and {names[b]} address regions overlap "
                    f"({spans[names[a]]} vs {spans[names[b]]}); adjust the offsets")


class _Builder:
    """One trace, filled fold by fold into arrays of its final length."""

    __slots__ = ("cycles", "addrs", "fill", "done")

    def __init__(self, length: int):
        self.cycles = np.empty(length, np.int64)
        self.addrs = np.empty(length, np.int64)
        self.fill = 0   # events written
        self.done = 0   # events sorted

    def add(self, cycle_rows: np.ndarray, cycle_cols, addr_rows: np.ndarray,
            addr_cols: np.ndarray) -> None:
        """Append one fold's block of events: event (i, j) reads or writes
        ``addr_rows[i] + addr_cols[j]`` at ``cycle_rows[i] + cycle_cols[j]``."""
        shape = len(addr_rows), len(addr_cols)
        start, stop = self.fill, self.fill + shape[0] * shape[1]
        assert stop <= len(self.cycles), "folds emit more events than the closed form"
        np.add(cycle_rows[:, None], cycle_cols, out=self.cycles[start:stop].reshape(shape))
        np.add(addr_rows[:, None], addr_cols, out=self.addrs[start:stop].reshape(shape))
        self.fill = stop
        if stop - self.done >= SEGMENT_EVENTS:
            self._sort_segment()

    def _sort_segment(self) -> None:
        seg = slice(self.done, self.fill)
        cycles, addrs = self.cycles[seg], self.addrs[seg]
        sort_pairs(cycles, addrs)
        assert not self.done or cycles[0] > self.cycles[self.done - 1], (
            f"folds overlap in time: a segment starts at cycle {cycles[0]}, "
            f"not after cycle {self.cycles[self.done - 1]}")
        self.done = self.fill

    def build(self) -> Trace:
        assert self.fill == len(self.cycles), (
            f"folds emit {self.fill} events, the closed form {len(self.cycles)}")
        if self.fill > self.done:
            self._sort_segment()
        return Trace(self.cycles, self.addrs)


def _builders(counts: WorkloadCounts, arch: ArchConfig) -> tuple[_Builder, ...]:
    """Builders of the ifmap, filter and ofmap traces."""
    return tuple(_Builder(n) for n in sram_event_counts(counts, arch))


def gen_traces_os(layer: LayerSpec, arch: ArchConfig) -> TraceSet:
    """Outputs pinned: row i streams window (row_start+i), column j streams
    filter (col_start+j); PE(i,j) reduces in place and drains one value."""
    counts = workload_counts(layer)
    _check_regions(layer, arch, counts)
    plan = fold_schedule(counts, arch)
    parts = _address_parts(layer, arch, counts)
    ksz = counts.window_size
    k = np.arange(ksz, dtype=np.int64)
    ifm, fil, out = _builders(counts, arch)
    base = 0
    for fold in plan.folds:
        rows, cols = fold.rows_used, fold.cols_used
        windows = slice(fold.row_start, fold.row_start + rows)
        filters = slice(fold.col_start, fold.col_start + cols)
        r = base + np.arange(rows, dtype=np.int64)
        c = np.arange(cols, dtype=np.int64)
        ifm.add(r, k, parts.window[windows], parts.window_elem)
        fil.add(base + c, k, parts.filter[filters], parts.filter_elem)
        out.add(r + ksz - 1, c, parts.ofmap_pixel[windows], parts.ofmap_filter[filters])
        base += rows + cols + ksz - 2
    return TraceSet(counts, plan, ifm.build(), fil.build(), out.build())


def _gen_traces_stationary(layer: LayerSpec, arch: ArchConfig) -> TraceSet:
    """WS and IS mirror each other: the pinned operand fills column chains
    from the top edge (bottom row injected first), the other operand streams
    from the left with diagonal skew, and partial sums reduce down each
    column, draining from the bottom row.

    WS pins filter elements and streams windows; IS pins window elements and
    streams filters.  Splitting the reduction dimension over multiple folds
    writes intermediate sums to the output partition; each later reduction
    fold re-reads them at its drain cycle and writes the address again.
    """
    counts = workload_counts(layer)
    _check_regions(layer, arch, counts)
    plan = fold_schedule(counts, arch)
    parts = _address_parts(layer, arch, counts)
    ifm, fil, out = _builders(counts, arch)
    if arch.dataflow is Dataflow.IS:
        fill_b, pinned, pinned_elem = ifm, parts.window, parts.window_elem
        stream_b, streamed, streamed_elem = fil, parts.filter, parts.filter_elem
        drained_by_step, drained_by_col = parts.ofmap_filter, parts.ofmap_pixel
    else:
        fill_b, pinned, pinned_elem = fil, parts.filter, parts.filter_elem
        stream_b, streamed, streamed_elem = ifm, parts.window, parts.window_elem
        drained_by_step, drained_by_col = parts.ofmap_pixel, parts.ofmap_filter
    s = np.arange(len(streamed), dtype=np.int64)
    last_chunk = max(fold.row_start for fold in plan.folds)
    final_from = len(out.cycles) - counts.n_windows * counts.n_filters
    base = 0
    for fold in plan.folds:
        rows, cols = fold.rows_used, fold.cols_used
        if fold.row_start == last_chunk and fold.col_start == 0:
            assert out.fill == final_from, (
                f"the last reduction chunk starts after {out.fill} ofmap writes, not "
                f"{final_from}, so its folds do not end the trace")
        elems = slice(fold.row_start, fold.row_start + rows)
        columns = slice(fold.col_start, fold.col_start + cols)
        tau = np.arange(rows, dtype=np.int64)
        # fill: at cycle base+tau every active column loads the operand
        # destined for row rows-1-tau
        fill_b.add(base + tau, 0, pinned_elem[elems][::-1], pinned[columns])
        # stream: row r's element for stream index s enters at base+rows+s+r
        stream_b.add(base + rows + tau, s, streamed_elem[elems], streamed)
        # drain: column j emits stream index s at base + 2*rows - 1 + s + j
        out.add(base + 2 * rows - 1 + s, np.arange(cols, dtype=np.int64), drained_by_step,
                drained_by_col[columns])
        base += 2 * rows + len(s) + cols - 2
    return TraceSet(counts, plan, ifm.build(), fil.build(), out.build())


def generate_traces(layer: LayerSpec, arch: ArchConfig) -> TraceSet:
    if arch.dataflow is Dataflow.OS:
        return gen_traces_os(layer, arch)
    return _gen_traces_stationary(layer, arch)
