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
a trace: the Python loop runs per batch, never per fold.

No trace is held whole.  ``generate_traces`` returns each trace as a
``trace.TraceStream``, written when it is read, one segment at a time,
into two arrays allocated once per read and reused.  A segment is whole
folds that follow each other in time, of at most ``SEGMENT_EVENTS`` events
or one fold; it is the sub-ranges of the batches that hold those folds.
Folds are disjoint in time: each fold's base cycle comes after every event
of the fold before it, in every trace, so a segment ends on a whole cycle.
The batches are checked to emit exactly the closed-form event counts,
``FoldPlan.sram_event_counts``, before any event is written; each segment
to start where the one before it ended, in the trace and strictly later in
time; and each to be in cycle order one chunk at a time (the ofmap
trace's in (cycle, address) order).  So folds that overlap in time crash
instead of leaving a trace out of order.  The final writes are checked to
end at the closed-form runtime, ``FoldPlan.total_cycles``, so a gap
between folds crashes too.

The fold grid says which output writes are final: ``TraceSet.final_writes``
is the ofmap trace's last N_w*M events, written from the segments that hold
them.  Under OS every write is final.  Under WS and IS the reduction is the
grid's outermost loop, so the last reduction chunk's folds end the trace
and write each output once; the batches are checked to put exactly that
chunk's folds in those events.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from . import trace
from .config import ArchConfig, Dataflow, LayerSpec
from .mapping import (FoldPlan, WorkloadCounts, fold_plan, footprint_words, regions,
                      workload_counts)
from .trace import Footprint, Trace, TraceStream, first_out_of_order

# events per segment of a streamed trace, unless one fold holds more.  Each
# of a segment's two int64 arrays is then 8 MB.  The Python loop runs per
# batch of a segment, so smaller segments cost more of it: at 256 K events
# ResNet-50 conv1's OS engine on 8x8 took 0.25 s a read trace, at 1 M 0.15 s
SEGMENT_EVENTS = 1 << 20


@dataclass
class TraceSet:
    """Per-layer SRAM traffic: three traces, each in cycle order,
    ofmap_writes in (cycle, address) order, each a ``TraceStream`` (or a
    ``Trace``) whose length is the closed-form event count.  ofmap_writes
    includes WS/IS partial-sum writes; each write to an address after its
    first also re-reads the partial sum it accumulates onto, at the same
    cycle.  final_writes is the last write of every output address, the
    ofmap trace's last N_w*M events, and total_cycles one past its last
    cycle."""

    counts: WorkloadCounts
    plan: FoldPlan
    ifmap_reads: TraceStream | Trace
    filter_reads: TraceStream | Trace
    ofmap_writes: TraceStream | Trace
    final_writes: Trace

    @property
    def total_cycles(self) -> int:
        return self.final_writes.max_cycle + 1


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


def _footprint(layer: LayerSpec, arch: ArchConfig, counts: WorkloadCounts, t: int,
               high: int) -> np.ndarray:
    """The byte addresses of the words input trace ``t`` reads, ascending:
    every filter word, or every channel of the ifmap rows by columns the
    windows cover; int32, with no int64 array as long, if ``high`` fits."""
    word, chans = arch.word_bytes, layer.channels
    dtype = np.int32 if high <= np.iinfo(np.int32).max else np.int64
    if t == 1:
        return np.arange(arch.filter_offset, high, word, dtype=dtype)
    rows, cols = (np.unique(np.add.outer(np.arange(n) * layer.stride, np.arange(k)))
                  .astype(dtype) * pitch for n, k, pitch in (
                      (counts.ofmap_h, layer.filter_h, layer.ifmap_w * chans * word),
                      (counts.ofmap_w, layer.filter_w, chans * word)))
    return np.add.outer(np.add.outer(rows + arch.ifmap_offset, cols),
                        np.arange(0, chans * word, word, dtype=dtype)).ravel()


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


def _batches(plan: FoldPlan, span, sizes) -> list[list[_Batch]]:
    """The plan's folds as batches, in closed form, in groups in time
    order.  A group's batches share ``n`` and ``step``, and its folds run
    fold 0 of each batch in turn, then fold 1 of each, and so on, each
    starting where the one before it ends, in time and in every trace.

    A fold advances the fields of ``_Batch`` by its cycles ``span(rows,
    cols)``, the plan's ``fold_cycles``, and its events in each trace
    ``sizes(rows, cols)``.  Every grid row of one run advances them by the
    same amount, so the fields of the fold at the start of each run are
    sums over the runs before it.  A batch is one grid column of a row
    run, and a group the row run's batches; or a batch is one grid row of
    a column run, and a group that batch alone.  The Python loop runs once
    per batch of a segment, so the batches are the ones that the traces'
    segments cut into fewer pieces: every segment of a group holds a piece
    of each of its batches, and each group is a segment of its own at
    least."""
    def cost(rows, cols):       # one grid column on, in the same grid row
        return np.array((0, plan.cols, span(rows, cols), *sizes(rows, cols)), np.int64)

    segments = sum(plan.sram_event_counts) / SEGMENT_EVENTS
    by_column = (plan.grid[1] * (segments + 3)
                 <= 3 * plan.grid[0] * len(plan.col_runs) + segments)
    groups, above = [], 0       # above: the fields at the row run's first fold
    for n_rows, rows in plan.row_runs:
        runs = [(n_cols, cols, cost(rows, cols)) for n_cols, cols in plan.col_runs]
        down = sum(n_cols * right for n_cols, _, right in runs)
        down[:2] = plan.rows, 0     # one grid row on, in the same grid column
        if by_column:
            group, at = [], above
            for n_cols, cols, right in runs:
                group += [_Batch(rows, cols, n_rows, tuple(at + k * right), tuple(down))
                          for k in range(n_cols)]
                at = at + n_cols * right
            groups.append(group)
        else:
            for k in range(n_rows):
                at = above + k * down
                for n_cols, cols, right in runs:
                    groups.append([_Batch(rows, cols, n_cols, tuple(at), tuple(right))])
                    at = at + n_cols * right
        above = above + n_rows * down
    return groups


def _segments(groups: list[list[_Batch]], t: int, sizes):
    """Trace ``t`` in segments: (offset in the trace, events, pieces), a
    piece ``(batch, m0, m1)`` being the batch's folds m0..m1-1.  A segment
    is the folds of one group that follow each other in time, as many as
    fit in ``SEGMENT_EVENTS`` events, or one.  Fold p of a group of k
    batches is fold p // k of batch p % k, so its events in the trace start
    at ``(p // k) * row + prefix[p % k]``, where ``row`` is one fold of
    each batch and ``prefix`` sums the batches before it."""
    for group in groups:
        k = len(group)
        prefix = list(accumulate((sizes(b.rows, b.cols)[t] for b in group), initial=0))
        row, folds = prefix[-1], group[0].n * k

        def start(p):
            return p // k * row + prefix[p % k]

        p = 0
        while p < folds:
            most, rest = divmod(start(p) + SEGMENT_EVENTS, row)
            stop = min(folds, max(p + 1, most * k + bisect_right(prefix, rest) - 1))
            pieces = [(b, -((j - p) // k), -((j - stop) // k)) for j, b in enumerate(group)]
            yield (group[0].first[3 + t] + start(p), start(stop) - start(p),
                   [piece for piece in pieces if piece[2] > piece[1]])
            p = stop


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
    assert n == 1 or step >= length or (step == 0 and not writeable), (
        "folds of a batch overlap in a trace")
    window = values[start:start + (n - 1) * step + length]
    if start < 0 or len(window) < (n - 1) * step + length:
        raise IndexError(f"{n} rows of {length} from {start} by {step} run past "
                         f"{len(values)} values")
    (stride,) = window.strides
    return as_strided(window, (n, length), (step * stride, stride), writeable=writeable)


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
    each of at most ``trace.CHUNK_EVENTS`` events (or one diagonal)."""
    first = 0
    while first < r - 1:
        most = (math.isqrt(8 * (trace.CHUNK_EVENTS + _triangle(first)) + 1) - 1) // 2
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
        per = max(1, trace.CHUNK_EVENTS // (hi - lo))
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
    row = first_out_of_order(cycles, addresses)
    assert row is None or cycles[row] >= cycles[row - 1], (
        f"folds overlap in time: cycle {cycles[row]} follows cycle {cycles[row - 1]}")
    assert row is None, (f"ofmap writes out of address order in cycle {cycles[row]}: "
                         f"address {addresses[row]} follows {addresses[row - 1]}")


def _read(parts: _AddressParts, blocks, groups: list[list[_Batch]], sizes, t: int,
          length: int, first: int = 0, ends: tuple | None = None) -> Iterator[Trace]:
    """Write trace ``t`` of ``length`` events (over cycles ``ends``) one
    segment at a time into two arrays reused for every segment, and yield
    each from event ``first`` on as a ``Trace`` of views of them."""
    largest = max(sizes(b.rows, b.cols)[t] for group in groups for b in group)
    buffers = [np.empty(min(length, max(SEGMENT_EVENTS, largest)), np.int64)
               for _ in range(2)]
    done, start, last = 0, None, None
    for offset, events, pieces in _segments(groups, t, sizes):
        assert offset == done, (f"a segment starts at event {offset}, not where the "
                                f"one before it ends, {done}")
        done += events
        if done <= first:
            continue
        cycles, addrs = (buf[:events] for buf in buffers)
        for batch, m0, m1 in pieces:
            folds = batch._replace(n=m1 - m0, first=tuple(
                f + m0 * step for f, step in zip(batch.first, batch.step)))
            blk = blocks(parts, folds.rows)[t]
            a, b = _side_rows(blk.a, folds), _side_rows(blk.b, folds)
            base = folds.first[2] + folds.step[2] * np.arange(folds.n, dtype=np.int64)
            rows = (_strided_rows(arr, folds.first[3 + t] - offset, folds.step[3 + t],
                                  folds.n, a.shape[1] * b.shape[1], writeable=True)
                    for arr in (cycles, addrs))
            write = _write_diagonal if blk.diagonal else _write_rows
            write(*rows, base + blk.delay, a, b)
        # the drain takes the final writes in the ofmap trace's order
        _check_cycle_order(cycles, addrs if t == 2 else None)
        assert last is None or last < cycles[0], (
            f"folds overlap in time: cycle {cycles[0]} follows cycle {last}")
        start, last = start if offset else int(cycles[0]), int(cycles[-1])
        skip = max(first - offset, 0)
        yield Trace(cycles[skip:], addrs[skip:])
    assert done == length, f"segments hold {done} events, the trace {length}"
    assert ends in (None, (start, last)), f"trace spans {(start, last)}, not {ends}"


def _build(layer: LayerSpec, arch: ArchConfig, blocks) -> TraceSet:
    """The ifmap, filter and ofmap traces of the plan's batches, whose fold
    blocks ``blocks(parts, rows)`` gives in that order; each fold takes
    ``plan.fold_cycles``.  Only the final writes are written here; each
    trace is written when it is read."""
    counts = workload_counts(layer)
    extents = regions(layer, arch, counts)
    plan = fold_plan(counts, arch)
    parts = _address_parts(layer, arch, counts)
    lengths = plan.sram_event_counts

    def sizes(rows, cols):
        return tuple(_length(blk.a, rows, cols) * _length(blk.b, rows, cols)
                     for blk in blocks(parts, rows))

    groups = _batches(plan, plan.fold_cycles, sizes)
    batches = [b for group in groups for b in group]
    emitted = tuple(sum(b.n * sizes(b.rows, b.cols)[t] for b in batches) for t in range(3))
    assert emitted == lengths, f"folds emit {emitted} events, the closed form {lengths}"
    # the last reduction chunk's folds, and only they, write the last N_w*M
    # events, one per word of the output region; under OS each fold holds
    # its whole reduction
    last_chunk = 0 if plan.dataflow is Dataflow.OS else (plan.grid[0] - 1) * plan.rows
    final_from = lengths[2] - (extents[2][1] - extents[2][0]) // arch.word_bytes
    for b in batches:
        m = np.arange(b.n)
        assert np.array_equal(b.first[0] + m * b.step[0] >= last_chunk,
                              b.first[5] + m * b.step[5] >= final_from), (
            f"the last reduction chunk's folds are not the ofmap writes from {final_from} on")

    def ends(t: int) -> tuple[int, int]:    # first fold's first event, last fold's last
        head, tail = groups[0][0], groups[-1][-1]
        blk = blocks(parts, tail.rows)[t]
        la, lb = (_length(side, tail.rows, tail.cols) for side in (blk.a, blk.b))
        return (head.first[2] + blocks(parts, head.rows)[t].delay, tail.first[2]
                + (tail.n - 1) * tail.step[2] + blk.delay + la - 1 + (lb - 1) * blk.diagonal)

    def stream(t: int, first: int = 0) -> TraceStream:
        cycles = None if first else ends(t)
        foot = None if t == 2 else Footprint(footprint_words(layer, counts)[t], *cycles, (
            lambda: _footprint(layer, arch, counts, t, extents[t][1])))
        return TraceStream(lengths[t] - first, extents[t], lambda: _read(
            parts, blocks, groups, sizes, t, lengths[t], first, cycles), foot)

    final = stream(2, final_from).collect()
    assert final.max_cycle + 1 == plan.total_cycles, (
        f"the folds run {final.max_cycle + 1} cycles, the fold grid's closed form "
        f"{plan.total_cycles}")
    return TraceSet(counts, plan, stream(0), stream(1), stream(2), final)


def generate_traces(layer: LayerSpec, arch: ArchConfig) -> TraceSet:
    """The layer's SRAM traces under its dataflow.

    OS pins outputs: row i streams window (row_start+i), column j streams
    filter (col_start+j); PE(i,j) reduces in place and drains one value.

    WS and IS mirror each other: the pinned operand fills column chains
    from the top edge (bottom row injected first), the other operand streams
    from the left with diagonal skew, and partial sums reduce down each
    column, draining from the bottom row.  WS pins filter elements and
    streams windows; IS pins window elements and streams filters.  Splitting
    the reduction dimension over multiple folds writes intermediate sums to
    the output partition; each later reduction fold re-reads them at its
    drain cycle and writes the address again.
    """
    def blocks(p: _AddressParts, rows: int) -> tuple[_Block, ...]:
        if arch.dataflow is Dataflow.OS:
            # PE(i, j) drains once the whole window has streamed past it
            return (_Block(0, _Side(p.window, ROWS), _Side(p.window_elem)),
                    _Block(0, _Side(p.filter, COLS), _Side(p.filter_elem)),
                    _Block(len(p.window_elem) - 1, _Side(p.ofmap_pixel, ROWS),
                           _Side(p.ofmap_filter, COLS)))
        pin_windows = arch.dataflow is Dataflow.IS
        pinned, pinned_elem, streamed, streamed_elem = (
            (p.window, p.window_elem, p.filter, p.filter_elem) if pin_windows
            else (p.filter, p.filter_elem, p.window, p.window_elem))
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

    return _build(layer, arch, blocks)
