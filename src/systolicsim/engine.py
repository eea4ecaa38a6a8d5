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
per window, filter or pixel and a part per element, so a fold's events in
one trace are a block: event (i, j) reads or writes ``a[i] + b[j]``.  Its
cycle is ``c0 + i + j`` (a diagonal block: both streams and every drain)
or ``c0 + i`` (the WS/IS fill).

SRAM traces are in cycle order, and the engine never sorts.  A diagonal
block is written straight into its slice of the trace diagonal by
diagonal, each diagonal by ascending i: the full diagonals in one add over
a sliding window of the longer side, and the two corner triangles, whose
sides are at most the array's, through a small index of their (i, j)
pairs.  A fill block's rows are already in cycle order.  The order of a
read trace's events within a cycle is left unspecified; the ofmap trace,
whose final writes the drain takes in trace order, is in (cycle, address)
order.

Folds of one shape are written in batches read off the fold grid,
``mapping.FoldPlan``, in closed form.  Every grid row of one run emits the
same events per trace and spans the same cycles, so the folds of one grid
column (or row, when the grid is wider than tall) sit at equal strides in
every trace and in time.  One pass writes a batch through strided views of
the traces: the Python loop runs per batch, never per fold.

Folds are disjoint in time: each fold's base cycle comes after every event
of the fold before it, in every trace.  Each trace's arrays are allocated
once, at the closed-form length ``FoldPlan.sram_event_counts``; the batches
are checked to emit exactly that many events before any is written, and
each finished trace to be in cycle order one chunk at a time (an O(n)
check; the ofmap trace's in (cycle, address) order), so folds that
overlap in time crash instead of leaving a trace out of order.

The fold grid says which output writes are final: ``TraceSet.final_writes``
is the ofmap trace's last N_w*M events, as views.  Under OS every write is
final.  Under WS and IS the reduction is the grid's outermost loop, so the
last reduction chunk's folds end the trace and write each output once;
the batches are checked to put exactly that chunk's folds in those events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import ArchConfig, Dataflow, LayerSpec
from .errors import ConfigError
from .mapping import FoldPlan, WorkloadCounts, fold_plan, workload_counts
from .trace import SEGMENT_EVENTS, Trace, first_out_of_order

# events per corner gather, and per pass of the order check (or
# SEGMENT_EVENTS, if fewer), so that no temporary exceeds 128 KB: freeing a
# larger one raises malloc's mmap threshold, which kept the memory model's
# later temporaries on the heap and raised peak RSS
CHUNK_EVENTS = 1 << 14


@dataclass
class TraceSet:
    """Per-layer SRAM traffic, each trace in cycle order, ofmap_writes in
    (cycle, address) order.  ofmap_writes includes WS/IS partial-sum
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


# which part of a vector a fold takes: all of it, or the slice of its rows
# or columns of the fold grid
WHOLE, ROWS, COLS = 0, 1, 2


class _Side(NamedTuple):
    values: np.ndarray
    part: int = WHOLE
    reversed: bool = False


class _Block(NamedTuple):
    """One trace's events of a fold: event (i, j) is at address
    ``a[i] + b[j]`` and cycle ``base + delay + i + j``, or ``base + delay
    + i`` when the block is not diagonal.  A diagonal block lists each
    cycle's events by ascending i, so ``a`` is the side with the larger
    address stride wherever that keeps a cycle's addresses ascending."""

    delay: int
    a: _Side
    b: _Side
    diagonal: bool = True


class _Batch(NamedTuple):
    """``n`` folds of one shape, fold m at ``first + m * step`` in each
    field of (row_start, col_start, base cycle, offset in each trace)."""

    rows: int
    cols: int
    n: int
    first: tuple[int, ...]
    step: tuple[int, ...]


def _batches(plan: FoldPlan, span, sizes) -> list[_Batch]:
    """The plan's folds as batches, in closed form.  A fold advances the
    fields of ``_Batch`` by its cycles ``span(rows, cols)`` and its events
    in each trace ``sizes(rows, cols)``.  Every grid row of one run advances them by the
    same amount, so the fields of the fold at the start of each run are
    sums over the runs before it.  A batch is one grid column of a row run
    or, when the grid has more columns than rows, one grid row of a column
    run."""
    def cost(rows, cols):       # one grid column on, in the same grid row
        return np.array((0, plan.cols, span(rows, cols), *sizes(rows, cols)), np.int64)

    by_column = plan.grid[0] >= plan.grid[1]
    batches, above = [], 0      # above: the fields at the row run's first fold
    for n_rows, rows in plan.row_runs:
        down = sum(n * cost(rows, cols) for n, cols in plan.col_runs)
        down[:2] = plan.rows, 0     # one grid row on, in the same grid column
        at = above
        for n_cols, cols in plan.col_runs:
            right = cost(rows, cols)
            if by_column:
                batches += [_Batch(rows, cols, n_rows, tuple(at + k * right), tuple(down))
                            for k in range(n_cols)]
            else:
                batches += [_Batch(rows, cols, n_cols, tuple(at + k * down), tuple(right))
                            for k in range(n_rows)]
            at = at + n_cols * right
        above = above + n_rows * down
    return batches


def _length(side: _Side, rows: int, cols: int) -> int:
    """The length of a fold's slice of the side."""
    return (len(side.values), rows, cols)[side.part]


def _side_rows(side: _Side, batch: _Batch) -> np.ndarray:
    """(n, length) view: row m is the side's slice for the batch's fold m,
    which starts at the fold's row_start or col_start."""
    start, step = ((0, 0) if side.part == WHOLE
                   else (batch.first[side.part - 1], batch.step[side.part - 1]))
    rows = _strided_rows(side.values, start, step, batch.n,
                         _length(side, batch.rows, batch.cols))
    return rows[:, ::-1] if side.reversed else rows


def _strided_rows(values: np.ndarray, start: int, step: int, n: int, length: int,
                  writeable: bool = False) -> np.ndarray:
    """(n, length) view of ``values`` whose row m starts at
    ``start + m * step``; rows of a writeable view must not overlap."""
    if step == 0 and not writeable:
        return np.broadcast_to(values[start:start + length], (n, length))
    assert n == 1 or step >= length, "folds of a batch overlap in a trace"
    window = values[start:start + (n - 1) * step + length]
    return sliding_window_view(window, length, writeable=writeable)[::max(step, 1)]


def _split(rows: np.ndarray, *shape: int) -> np.ndarray:
    """A view of (n, prod(shape)) rows as (n, *shape); never a copy."""
    view = rows.reshape(len(rows), *shape)
    assert np.may_share_memory(view, rows)
    return view


def _triangle(count: int) -> int:
    """Events on the first ``count`` diagonals of a corner."""
    return count * (count + 1) // 2


def _corner_chunks(r: int):
    """Ranges [first, stop) of the diagonals 0..r-2 of an r-wide corner,
    each of at most CHUNK_EVENTS events (or one diagonal)."""
    first = 0
    while first < r - 1:
        most = (math.isqrt(8 * (CHUNK_EVENTS + _triangle(first)) + 1) - 1) // 2
        stop = min(max(most, first + 1), r - 1)
        yield first, stop
        first = stop


def _corner(first: int, stop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, i + j) of the corner events on diagonals first..stop-1,
    diagonal by diagonal, i ascending within one."""
    diag = np.arange(first, stop, dtype=np.intp)
    diag = np.repeat(diag, diag + 1)
    i = np.arange(_triangle(first), _triangle(stop), dtype=np.intp) - _triangle(diag)
    return i, diag - i, diag


def _write_diagonal(cycles: np.ndarray, addrs: np.ndarray, c0: np.ndarray,
                    a: np.ndarray, b: np.ndarray) -> None:
    """Write a batch of diagonal blocks into (n, len_a * len_b) rows: fold
    m's event (i, j) at cycle ``c0[m] + i + j`` and address ``a[m, i] +
    b[m, j]``, diagonal by diagonal, i ascending within one."""
    n, la = a.shape
    lb = b.shape[1]
    r = min(la, lb)
    full = max(la, lb) - r + 1              # diagonals of r events
    head = _triangle(r - 1)
    body = slice(head, head + full * r)
    np.add(c0[:, None, None], np.arange(r - 1, r - 1 + full)[:, None],
           out=_split(cycles[:, body], full, r))
    if la <= lb:    # diagonal d's event k is (k, d - k)
        np.add(a[:, None, :], sliding_window_view(b, r, axis=1)[:, :, ::-1],
               out=_split(addrs[:, body], full, r))
    else:           # diagonal d's event k is (d - r + 1 + k, r - 1 - k)
        np.add(b[:, None, ::-1], sliding_window_view(a, r, axis=1),
               out=_split(addrs[:, body], full, r))
    # the corners: the head's diagonal d mirrors the tail's last-but-d
    end, last = la * lb, la + lb - 2
    for first, stop in _corner_chunks(r):
        i, j, diag = _corner(first, stop)
        ti, tj = la - 1 - i[::-1], lb - 1 - j[::-1]
        lo, hi = _triangle(first), _triangle(stop)
        per = max(1, CHUNK_EVENTS // (hi - lo))
        for f in range(0, n, per):
            fs = slice(f, f + per)
            np.add(c0[fs, None], diag, out=cycles[fs, lo:hi])
            np.add(a[fs][:, i], b[fs][:, j], out=addrs[fs, lo:hi])
            np.subtract(c0[fs, None] + last, diag[::-1], out=cycles[fs, end - hi:end - lo])
            np.add(a[fs][:, ti], b[fs][:, tj], out=addrs[fs, end - hi:end - lo])


def _write_rows(cycles: np.ndarray, addrs: np.ndarray, c0: np.ndarray,
                a: np.ndarray, b: np.ndarray) -> None:
    """Write a batch of fill blocks: fold m's event (i, j) at cycle
    ``c0[m] + i`` and address ``a[m, i] + b[m, j]``, row by row."""
    la, lb = a.shape[1], b.shape[1]
    np.add(c0[:, None, None], np.arange(la)[:, None], out=_split(cycles, la, lb))
    np.add(a[:, :, None], b[:, None, :], out=_split(addrs, la, lb))


def _check_cycle_order(cycles: np.ndarray, addresses: np.ndarray | None = None) -> None:
    """Assert cycle order, or (cycle, address) order given the addresses,
    one chunk at a time."""
    row = first_out_of_order(cycles, addresses, min(CHUNK_EVENTS, SEGMENT_EVENTS))
    assert row is None or cycles[row] >= cycles[row - 1], (
        f"folds overlap in time: cycle {cycles[row]} follows cycle {cycles[row - 1]}")
    assert row is None, (f"ofmap writes out of address order in cycle {cycles[row]}: "
                         f"address {addresses[row]} follows {addresses[row - 1]}")


def _build(layer: LayerSpec, arch: ArchConfig, blocks, span) -> TraceSet:
    """Write the ifmap, filter and ofmap traces of the plan's batches, whose
    fold blocks ``blocks(parts, rows)`` gives in that order; each fold
    starts ``span(rows, cols)`` cycles after the one before it."""
    counts = workload_counts(layer)
    _check_regions(layer, arch, counts)
    plan = fold_plan(counts, arch)
    parts = _address_parts(layer, arch, counts)
    lengths = plan.sram_event_counts

    def sizes(rows, cols):
        return tuple(_length(blk.a, rows, cols) * _length(blk.b, rows, cols)
                     for blk in blocks(parts, rows))

    batches = _batches(plan, span, sizes)
    emitted = tuple(sum(b.n * sizes(b.rows, b.cols)[t] for b in batches) for t in range(3))
    assert emitted == lengths, f"folds emit {emitted} events, the closed form {lengths}"
    # the last reduction chunk's folds, and only they, write the last N_w*M
    # events; under OS each fold holds its whole reduction
    last_chunk = 0 if plan.dataflow is Dataflow.OS else (plan.grid[0] - 1) * plan.rows
    final_from = lengths[2] - counts.n_windows * counts.n_filters
    for b in batches:
        m = np.arange(b.n)
        assert np.array_equal(b.first[0] + m * b.step[0] >= last_chunk,
                              b.first[5] + m * b.step[5] >= final_from), (
            f"the last reduction chunk's folds are not the ofmap writes from {final_from} on")
    traces = [(np.empty(n, np.int64), np.empty(n, np.int64)) for n in lengths]
    for batch in batches:
        base = batch.first[2] + batch.step[2] * np.arange(batch.n, dtype=np.int64)
        for t, blk in enumerate(blocks(parts, batch.rows)):
            a, b = _side_rows(blk.a, batch), _side_rows(blk.b, batch)
            events = a.shape[1] * b.shape[1]
            cycles, addrs = (_strided_rows(arr, batch.first[3 + t], batch.step[3 + t],
                                           batch.n, events, writeable=True)
                             for arr in traces[t])
            write = _write_diagonal if blk.diagonal else _write_rows
            write(cycles, addrs, base + blk.delay, a, b)
    _check_cycle_order(traces[0][0])
    _check_cycle_order(traces[1][0])
    _check_cycle_order(*traces[2])      # the drain takes the final writes in this order
    return TraceSet(counts, plan, *(Trace(c, a) for c, a in traces))


def gen_traces_os(layer: LayerSpec, arch: ArchConfig) -> TraceSet:
    """Outputs pinned: row i streams window (row_start+i), column j streams
    filter (col_start+j); PE(i,j) reduces in place and drains one value."""
    ksz = workload_counts(layer).window_size

    def blocks(p: _AddressParts, rows: int) -> tuple[_Block, ...]:
        return (_Block(0, _Side(p.window, ROWS), _Side(p.window_elem)),
                _Block(0, _Side(p.filter, COLS), _Side(p.filter_elem)),
                _Block(ksz - 1, _Side(p.ofmap_pixel, ROWS), _Side(p.ofmap_filter, COLS)))

    return _build(layer, arch, blocks, lambda rows, cols: rows + cols + ksz - 2)


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
    pin_windows = arch.dataflow is Dataflow.IS
    counts = workload_counts(layer)
    stream_len = counts.n_filters if pin_windows else counts.n_windows

    def blocks(p: _AddressParts, rows: int) -> tuple[_Block, ...]:
        if pin_windows:
            pinned, pinned_elem = p.window, p.window_elem
            streamed, streamed_elem = p.filter, p.filter_elem
        else:
            pinned, pinned_elem = p.filter, p.filter_elem
            streamed, streamed_elem = p.window, p.window_elem
        # fill: at cycle base+tau every active column loads the operand
        # destined for row rows-1-tau
        fill = _Block(0, _Side(pinned_elem, ROWS, reversed=True), _Side(pinned, COLS),
                      diagonal=False)
        # stream: row r's element for stream index s enters at base+rows+s+r
        stream = _Block(rows, _Side(streamed), _Side(streamed_elem, ROWS))
        # drain: column j emits stream index s at base + 2*rows - 1 + s + j
        pixels = _Side(p.ofmap_pixel, COLS if pin_windows else WHOLE)
        filters = _Side(p.ofmap_filter, WHOLE if pin_windows else COLS)
        drain = _Block(2 * rows - 1, pixels, filters)
        return (fill, stream, drain) if pin_windows else (stream, fill, drain)

    return _build(layer, arch, blocks, lambda rows, cols: 2 * rows + stream_len + cols - 2)


def generate_traces(layer: LayerSpec, arch: ArchConfig) -> TraceSet:
    if arch.dataflow is Dataflow.OS:
        return gen_traces_os(layer, arch)
    return _gen_traces_stationary(layer, arch)
