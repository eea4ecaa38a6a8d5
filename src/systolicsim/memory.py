"""Scratchpad double-buffer model: SRAM traces -> DRAM traffic + bandwidth.

Each partition (IFMAP, filter, OFMAP) is a pair of buffers: compute reads
the working set while DRAM fills the idle one.  An *epoch* is the residency
interval of one working set; walking an SRAM read trace in cycle order, a
new epoch opens whenever admitting a never-seen-in-this-epoch word would
overflow the buffer.  Re-reads within an epoch are free; words reused
across an epoch boundary are fetched again.  ``epochize`` finds these
boundaries in one scan over windows of whole cycles instead of a walk over
cycles: a stamp per word, the last epoch that admitted it, tells whether an
event is new to the open epoch.  It reads the engine's SRAM trace as it is
written, one segment at a time, so no SRAM trace is held whole; what it
keeps is the stamps, one per word of the trace's address region, and the
epochs.  Nothing here depends on the order of a cycle's events, the DRAM
traces included.

A buffer that holds the F words a trace reads holds one epoch over the
whole trace.  The engine's input streams carry it in closed form, its words
in address order; a stream that writes its trace file as it is read is
scanned, and the scan checks it.  Only the DRAM read file depends on the
order of an epoch's words.

Epoch k+1's data is prefetched uniformly across epoch k's use span, which is
the minimum bandwidth that keeps the array stall-free.  The first epoch is
fetched in a prologue of the same length as its own use span, stamped with
negative cycles and excluded from runtime.  Output drains mirror this:
a full output buffer drains across the next buffer's fill interval, and the
final drain lands in an epilogue after the last compute cycle.  Only final
output values drain; WS/IS partial sums stay on chip.  The final writes
come from the fold grid, not from a scan of the ofmap trace: they are
``TraceSet.final_writes``, the trace's last N_w*M events, which the engine
asserts are the last reduction chunk's drains.

Each partition's DRAM traffic is a list of bursts (addresses, start cycle,
span), never a sorted trace: the report needs only the bursts' cycles, for
bytes and per-cycle peaks.  The (cycle, address) DRAM trace is built once,
by ``Bursts.trace``, when ``run`` writes it, and sorted in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import trace as trace_module
from .config import ArchConfig
from .errors import WorkingSetUnderflow
from .trace import Trace, TraceStream, chunks, cycle_end, sort_pairs


@dataclass
class Epoch:
    # distinct byte addresses, (first-use cycle, address) order (address
    # order in closed form; only the DRAM read file sees it); int32 when the
    # region fits in one, since the DRAM read bursts hold them all layer
    addresses: np.ndarray
    first_use_cycle: int
    last_use_cycle: int
    word_bytes: int

    @property
    def bytes(self) -> int:
        return len(self.addresses) * self.word_bytes

    @property
    def use_span(self) -> int:
        return self.last_use_cycle - self.first_use_cycle + 1


def epochize(trace: Trace | TraceStream, capacity_bytes: int,
             word_bytes: int = 1) -> list[Epoch]:
    """Split a cycle-ordered SRAM read trace into working-set epochs.

    An epoch runs over whole cycles and holds every word it touches.  It
    ends before the first cycle whose never-seen-in-this-epoch words would
    overflow the buffer; that cycle opens the next epoch.  A cycle that
    alone touches more distinct words than the buffer holds raises
    WorkingSetUnderflow.  So the boundaries and each epoch's set of words
    depend only on which words each cycle touches, not on the order of a
    cycle's events.  An epoch lists the first byte of each of its words,
    counted from the low end of the trace's address region, in (first-use
    cycle, address) order, which does not depend on it either.  A stream
    whose ``footprint`` the buffer holds and that offers its addresses is
    not read: that is its one epoch, in address order, which a scan checks.

    One scan walks the trace's segments, and each in windows of whole
    cycles.  ``stamp[word]``, one per word of the address region, is the
    last epoch that admitted the word, so an event is new to the open epoch
    when its word's stamp is older and it is the word's first event in the
    window.  When a window's new words overflow the buffer, the epoch
    closes before the cycle of its first word past capacity and the scan
    resumes at that cycle; the open epoch's words and first cycle carry
    over from one segment to the next.  A window holds
    ``trace.CHUNK_EVENTS`` events, rounded up to a whole cycle, or the rest
    of its segment; short windows stamp a word soon after its first read,
    so that fewer of its re-reads are tested again.  After an epoch closes
    the window restarts at that epoch's length and doubles while the next
    one stays open, so the scan's work stays O(trace).  Each window is
    checked to be in cycle order and to start a cycle, and each segment to
    start after the one before it ends, so a trace out of order crashes
    with an AssertionError instead of stalling the scan.
    """
    if capacity_bytes < word_bytes:
        raise ValueError("capacity must hold at least one word")
    if not len(trace):
        return []
    cap_words = capacity_bytes // word_bytes
    foot = trace.footprint
    if foot is not None and foot.addresses is not None and foot.words <= cap_words:
        return [Epoch(foot.addresses(), foot.first_cycle, foot.last_cycle, word_bytes)]
    lo, hi = trace.region
    n_words = (hi - 1 - lo) // word_bytes + 1
    stamp = np.full(n_words, -1, dtype=np.int32)
    # a word's first event in the window, as a position in it
    first = np.empty(n_words, dtype=np.int32)

    epochs: list[Epoch] = []
    parts: list[np.ndarray] = []     # the open epoch's words, by (first-use cycle, word)
    admitted = 0
    start = done = 0                 # the open epoch's first event; events before the segment
    start_cycle = last = None        # the open epoch's first cycle; the last cycle scanned
    full = window = trace_module.CHUNK_EVENTS
    for seg in trace.segments():
        cycles, addresses = seg.cycles, seg.addresses
        n = len(cycles)
        assert last is None or last < cycles[0], (
            f"trace is not in cycle order at or after event {done}")
        if start_cycle is None:
            start_cycle = int(cycles[0])
        pos = 0                      # the window's first event
        while pos < n:
            stop = cycle_end(cycles, pos, window)
            in_window = cycles[pos:stop]
            words = addresses[pos:stop] - lo
            if word_bytes > 1:
                words //= word_bytes
            # int32 like ``first``, so that np.minimum.at needs no cast
            at = np.flatnonzero(stamp[words] != len(epochs)).astype(np.int32)
            words = words[at]
            first[words] = stop - pos        # past every position in the window
            np.minimum.at(first, words, at)
            is_new = first[words] == at
            words, at = words[is_new], at[is_new]
            # the rare window out of (cycle, word) order is sorted within its
            # cycles, which leaves each position's cycle, and so ``at``, as is
            new_cycles = in_window[at]
            if ((words[1:] < words[:-1]) & (new_cycles[1:] == new_cycles[:-1])).any():
                sort_pairs(new_cycles, words)
            if admitted + len(words) <= cap_words:
                stamp[words] = len(epochs)
                parts.append(words)
                admitted += len(words)
                pos, window = stop, min(2 * window, full)
                continue
            # the epoch ends before the cycle of its first word past capacity
            cycle = int(in_window[int(at[cap_words - admitted])])
            end = pos + int(np.searchsorted(in_window, cycle, "left"))
            if cycle == start_cycle:
                in_cycle = np.searchsorted(at, np.searchsorted(in_window, cycle, "right"))
                raise WorkingSetUnderflow(
                    f"working set underflow: cycle {cycle} touches {int(in_cycle)} "
                    f"distinct words but the buffer holds {cap_words}")
            parts.append(words[:np.searchsorted(at, end - pos)])
            epochs.append(_epoch(parts, lo, hi, word_bytes, start_cycle,
                                 int(cycles[end - 1]) if end else last))
            window = min(done + end - start, full)
            parts, admitted, start, start_cycle, pos = [], 0, done + end, cycle, end
        done += n
        last = int(cycles[-1])
    epochs.append(_epoch(parts, lo, hi, word_bytes, start_cycle, last))  # the trace ends it
    got = (len(epochs[0].addresses), epochs[0].first_use_cycle, epochs[-1].last_use_cycle)
    assert foot is None or ((len(epochs) == 1) == (foot.words <= cap_words) and (
        len(epochs) > 1 or got == foot[:3])), f"{len(epochs)} epochs {got}, not {foot[:3]}"
    return epochs


def _epoch(parts: list[np.ndarray], lo: int, hi: int, word_bytes: int, first_cycle: int,
           last_cycle: int) -> Epoch:
    """The epoch of the words in ``parts``, as byte addresses from ``lo``,
    each below ``hi``."""
    words = np.concatenate(parts)
    if hi <= np.iinfo(np.int32).max:
        words = words.astype(np.int32)
    words *= word_bytes
    words += lo
    return Epoch(words, first_cycle, last_cycle, word_bytes)


_NO_EVENTS = np.empty(0, np.int64)


@dataclass
class Bursts:
    """One partition's DRAM traffic as transfer bursts.  Burst
    ``(addresses, start, span)`` moves its i-th of n addresses at cycle
    ``start + i * span // n``, uniformly over ``[start, start + span)``.
    This is the form an external DRAM simulator replays; ``trace()`` sorts
    it into the (cycle, address) trace that ``run`` writes.  The report and
    ``trace()`` take the events' cycles one chunk of a burst at a time
    from ``cycle_segments()``, so neither holds a second copy of them."""

    bursts: list[tuple[np.ndarray, int, int]]
    word_bytes: int = 1

    def __len__(self) -> int:
        return sum(len(addresses) for addresses, _, _ in self.bursts)

    @property
    def total_bytes(self) -> int:
        return len(self) * self.word_bytes

    def cycle_segments(self) -> Iterator[np.ndarray]:
        """Every event's cycle, burst after burst, one new array per chunk
        of a burst; not sorted."""
        for addresses, start, span in self.bursts:
            n = len(addresses)
            for seg in chunks(n):
                part = np.arange(seg.start, seg.stop, dtype=np.int64)
                part *= span
                part //= n
                part += start
                yield part

    def trace(self) -> Trace:
        """The events as one (cycle, address)-sorted trace.  Its cycles and
        addresses are new arrays, so one packed sort orders them in place."""
        cycles, pos = np.empty(len(self), np.int64), 0
        for part in self.cycle_segments():
            cycles[pos:pos + len(part)] = part
            pos += len(part)
        addresses = np.concatenate([_NO_EVENTS] + [a for a, _, _ in self.bursts])
        if len(cycles):
            sort_pairs(cycles, addresses)
        return Trace(cycles, addresses)


def gen_dram_read_trace(epochs: list[Epoch]) -> Bursts:
    """Prefetch schedule: epoch k+1 over epoch k's use span; epoch 0 in a
    negative-cycle prologue of its own use span."""
    if not epochs:
        return Bursts([])
    first = epochs[0]
    return Bursts([(first.addresses, -first.use_span, first.use_span)]
                  + [(nxt.addresses, prev.first_use_cycle, prev.use_span)
                     for prev, nxt in zip(epochs, epochs[1:])],
                  first.word_bytes)


def gen_dram_write_trace(final_writes: Trace, capacity_bytes: int,
                         total_cycles: int, word_bytes: int = 1) -> Bursts:
    """Drain schedule of the final output values, given as a trace that
    writes each address once (``TraceSet.final_writes``): each buffer-full
    drains over the next one's fill interval, the last in an epilogue of
    its own fill interval from ``total_cycles`` on."""
    if capacity_bytes < word_bytes:
        raise ValueError("capacity must hold at least one word")
    if not len(final_writes):
        return Bursts([], word_bytes)
    fin_cycles, fin_addrs = final_writes.cycles, final_writes.addresses
    cap_words = capacity_bytes // word_bytes
    fulls = [slice(a, a + cap_words) for a in range(0, len(fin_addrs), cap_words)]
    # (first cycle, span) of the interval over which each buffer-full fills
    fills = [(int(fin_cycles[f][0]), int(fin_cycles[f][-1] - fin_cycles[f][0]) + 1)
             for f in fulls]
    drains = fills[1:] + [(total_cycles, fills[-1][1])]
    return Bursts([(fin_addrs[f], start, span) for f, (start, span) in zip(fulls, drains)],
                  word_bytes)


@dataclass
class DramDemand:
    """One layer's DRAM traffic.  The partitions share the layer's word size."""

    ifmap: Bursts                # prologue at negative cycles
    filter: Bursts
    write: Bursts                # epilogue at cycles >= total_cycles

    @property
    def read_trace(self) -> Bursts:
        """Both input partitions' bursts, ifmap then filter."""
        return Bursts(self.ifmap.bursts + self.filter.bursts, self.ifmap.word_bytes)

    @property
    def write_trace(self) -> Bursts:
        """The output partition's bursts, named to pair with ``read_trace``."""
        return self.write


def bandwidth_report(ifmap_frag: Bursts, filter_frag: Bursts,
                     write_frag: Bursts) -> DramDemand:
    """Collect the partitions' DRAM traffic; ``metrics.layer_report`` reduces
    its burst cycles to bytes and bandwidths."""
    return DramDemand(ifmap_frag, filter_frag, write_frag)


def dram_demand(traces, arch: ArchConfig) -> DramDemand:
    """Full memory-system pass over one layer's TraceSet."""
    word = arch.word_bytes
    ifmap_frag = gen_dram_read_trace(
        epochize(traces.ifmap_reads, arch.ifmap_capacity_bytes, word))
    filter_frag = gen_dram_read_trace(
        epochize(traces.filter_reads, arch.filter_capacity_bytes, word))
    write_frag = gen_dram_write_trace(
        traces.final_writes, arch.ofmap_capacity_bytes, traces.total_cycles, word)
    return bandwidth_report(ifmap_frag, filter_frag, write_frag)
