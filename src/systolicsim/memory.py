"""Scratchpad double-buffer model: SRAM traces -> DRAM traffic + bandwidth.

Each partition (IFMAP, filter, OFMAP) is a pair of buffers: compute reads
the working set while DRAM fills the idle one.  An *epoch* is the residency
interval of one working set; walking an SRAM read trace in cycle order, a
new epoch opens whenever admitting a never-seen-in-this-epoch address would
overflow the buffer.  Re-reads within an epoch are free; addresses reused
across an epoch boundary are fetched again.  ``epochize`` finds these
boundaries with whole-array passes instead of a walk over cycles: each event
knows where its word was last read, which tells whether it is new to the
epoch that contains it.

Epoch k+1's data is prefetched uniformly across epoch k's use span, which is
the minimum bandwidth that keeps the array stall-free.  The first epoch is
fetched in a prologue of the same length as its own use span, stamped with
negative cycles and excluded from runtime.  Output drains mirror this:
a full output buffer drains across the next buffer's fill interval, and the
final drain lands in an epilogue after the last compute cycle.  Only final
output values drain; WS/IS partial sums stay on chip.

Each partition's DRAM traffic is a list of bursts (addresses, start cycle,
span), never a sorted trace: the report needs only the bursts' cycles, for
bytes and per-cycle peaks.  The sorted (cycle, address) DRAM trace is built
once, by ``Bursts.trace``, when ``run`` writes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ArchConfig
from .errors import WorkingSetUnderflow
from .trace import Trace, cycle_runs, segments, sort_pairs


@dataclass
class Epoch:
    index: int
    addresses: np.ndarray      # distinct byte addresses, first-use order
    first_use_cycle: int
    last_use_cycle: int
    word_bytes: int

    @property
    def bytes(self) -> int:
        return len(self.addresses) * self.word_bytes

    @property
    def use_span(self) -> int:
        return self.last_use_cycle - self.first_use_cycle + 1


def _word_offsets(addresses: np.ndarray, lo: int, word_bytes: int) -> np.ndarray:
    """Word index of each address counted from the word at ``lo``."""
    offsets = addresses - lo
    if word_bytes > 1:
        offsets //= word_bytes
    return offsets


def epochize(trace: Trace, capacity_bytes: int, word_bytes: int = 1) -> list[Epoch]:
    """Split a sorted SRAM read trace into working-set epochs.

    An epoch runs over whole cycles and holds every word it touches.  It
    ends before the first cycle whose never-seen-in-this-epoch words would
    overflow the buffer; that cycle opens the next epoch.  A cycle that
    alone touches more distinct words than the buffer holds raises
    WorkingSetUnderflow.  Epoch addresses are listed in first-use order.

    The scan is vectorised.  One sort by word gives every event the position
    of the previous event on the same word.  In an epoch that starts at
    position ``s``, an event is new exactly when that previous position is
    before ``s``.  New events are summed per cycle over a window of cycles
    that doubles until the running total passes the capacity.
    """
    if capacity_bytes < word_bytes:
        raise ValueError("capacity must hold at least one word")
    n = len(trace)
    if not n:
        return []
    cap_words = capacity_bytes // word_bytes
    cycles, addresses = trace.cycles, trace.addresses

    lo = int(addresses.min())
    extent = int(addresses.max()) - lo + 1
    # the single-epoch test and branch run per segment, so that their
    # temporaries stay O(SEGMENT_EVENTS) on the largest traces
    seen = np.zeros(-(-extent // word_bytes), dtype=bool)
    for seg in segments(n):
        seen[_word_offsets(addresses[seg], lo, word_bytes)] = True
    if np.count_nonzero(seen) <= cap_words:
        # whole footprint fits: one epoch, addresses in first-use order
        first = np.full(extent, n, dtype=np.int64)
        for seg in segments(n):
            np.minimum.at(first, addresses[seg] - lo, np.arange(seg.start, seg.stop))
        first = np.sort(first[first < n])
        return [Epoch(0, addresses[first], int(cycles[0]), int(cycles[-1]), word_bytes)]

    # (word, position) pairs, sorted in place into word order
    words, order = _word_offsets(addresses, lo, word_bytes), np.arange(n)
    sort_pairs(words, order, out=(words, order))
    repeat = np.flatnonzero(words[1:] == words[:-1])
    prev = np.full(n, -1, dtype=np.int64)    # previous event on the same word
    prev[order[repeat + 1]] = order[repeat]
    del words, order, repeat

    bounds = cycle_runs(cycles)
    n_cycles = len(bounds) - 1
    epochs: list[Epoch] = []
    g = 0
    window = 1
    while g < n_cycles:
        start = bounds[g]
        while True:
            stop_g = min(g + window, n_cycles)
            is_new = prev[start:bounds[stop_g]] < start
            per_cycle = np.add.reduceat(is_new, bounds[g:stop_g] - start, dtype=np.int64)
            fits = int(np.searchsorted(np.cumsum(per_cycle), cap_words, side="right"))
            if fits < stop_g - g or stop_g == n_cycles:
                break
            window *= 2
        if not fits:
            raise WorkingSetUnderflow(
                f"working set underflow: cycle {int(cycles[start])} touches "
                f"{int(per_cycle[0])} distinct words but the buffer holds {cap_words}")
        stop = bounds[g + fits]
        new = addresses[start + np.flatnonzero(is_new[:stop - start])]
        if word_bytes > 1:
            new -= (new - lo) % word_bytes    # the first byte of each word
        epochs.append(Epoch(len(epochs), new, int(cycles[start]), int(cycles[stop - 1]),
                            word_bytes))
        g += fits
        window = fits
    return epochs


_NO_EVENTS = np.empty(0, np.int64)


@dataclass
class Bursts:
    """One partition's DRAM traffic as transfer bursts.  Burst
    ``(addresses, start, span)`` moves its i-th of n addresses at cycle
    ``start + i * span // n``, uniformly over ``[start, start + span)``.
    This is the form an external DRAM simulator replays; ``trace()`` sorts
    it into the (cycle, address) trace that ``run`` writes."""

    bursts: list[tuple[np.ndarray, int, int]]
    word_bytes: int = 1

    def __len__(self) -> int:
        return sum(len(addresses) for addresses, _, _ in self.bursts)

    @property
    def total_bytes(self) -> int:
        return len(self) * self.word_bytes

    def cycles(self) -> np.ndarray:
        """Every event's cycle, burst after burst; not sorted."""
        return np.concatenate([_NO_EVENTS] + [
            start + np.arange(len(addresses), dtype=np.int64) * span // len(addresses)
            for addresses, start, span in self.bursts])

    def trace(self) -> Trace:
        """The events as one (cycle, address)-sorted trace: one sort."""
        return Trace(self.cycles(),
                     np.concatenate([_NO_EVENTS] + [a for a, _, _ in self.bursts]))


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


def _final_writes(ofmap_writes: Trace) -> tuple[np.ndarray, np.ndarray]:
    """The last write of every address, in (cycle, address) order.  Partial
    sums are overwritten in place, so only these values leave the chip."""
    addresses = ofmap_writes.addresses
    lo = int(addresses.min())
    last = np.full(int(addresses.max()) - lo + 1, -1, dtype=np.int64)
    for seg in segments(len(addresses)):
        np.maximum.at(last, addresses[seg] - lo, np.arange(seg.start, seg.stop))
    # the trace is sorted, so ascending positions are (cycle, address) order
    kept = np.sort(last[last >= 0])
    return ofmap_writes.cycles[kept], addresses[kept]


def gen_dram_write_trace(ofmap_writes: Trace, capacity_bytes: int,
                         total_cycles: int, word_bytes: int = 1) -> Bursts:
    """Drain schedule of the final output values: each buffer-full drains
    over the next one's fill interval, the last in an epilogue of its own
    fill interval from ``total_cycles`` on."""
    if capacity_bytes < word_bytes:
        raise ValueError("capacity must hold at least one word")
    if not len(ofmap_writes):
        return Bursts([], word_bytes)
    fin_cycles, fin_addrs = _final_writes(ofmap_writes)
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
        traces.ofmap_writes, arch.ofmap_capacity_bytes, traces.total_cycles, word)
    return bandwidth_report(ifmap_frag, filter_frag, write_frag)
