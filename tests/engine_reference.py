"""Test-only reference for the SRAM trace engines: the builder that walks
the folds one by one (``helpers.fold_list``), keeps every fold's pieces,
concatenates them and sorts the whole trace with one global sort.  The
engine proper reads batches of folds off the fold grid in closed form,
writes them into preallocated arrays in cycle order, and sums each fold's
addresses from per-index vectors; ``test_engine_differential`` checks that
the two give identical traces.  The address maps and fold loops here are
the engine's as they were before those changes.
"""

from __future__ import annotations

import numpy as np

from helpers import fold_list, sorted_trace
from systolicsim.config import ArchConfig, Dataflow, LayerSpec
from systolicsim.engine import TraceSet
from systolicsim.mapping import WorkloadCounts, fold_plan, regions, workload_counts
from systolicsim.trace import Trace


class _AddressMaps:
    """Vectorized address computation over window/filter/output index sets."""

    def __init__(self, layer: LayerSpec, arch: ArchConfig, counts: WorkloadCounts):
        self.layer, self.arch, self.counts = layer, arch, counts
        k = np.arange(counts.window_size, dtype=np.int64)
        per_row = layer.filter_w * layer.channels
        self._r_of_k = k // per_row
        self._s_of_k = (k % per_row) // layer.channels
        self._c_of_k = k % layer.channels

    def window_addrs(self, w_ids: np.ndarray, k_ids: np.ndarray) -> np.ndarray:
        """(len(w_ids), len(k_ids)) ifmap addresses of window elements."""
        l = self.layer
        oh, ow = np.divmod(np.asarray(w_ids, np.int64), self.counts.ofmap_w)
        h = oh[:, None] * l.stride + self._r_of_k[k_ids][None, :]
        w = ow[:, None] * l.stride + self._s_of_k[k_ids][None, :]
        lin = (h * l.ifmap_w + w) * l.channels + self._c_of_k[k_ids][None, :]
        return self.arch.ifmap_offset + lin * self.arch.word_bytes

    def filter_addrs(self, f_ids: np.ndarray, k_ids: np.ndarray) -> np.ndarray:
        lin = (np.asarray(f_ids, np.int64)[:, None] * self.counts.window_size
               + np.asarray(k_ids, np.int64)[None, :])
        return self.arch.filter_offset + lin * self.arch.word_bytes

    def ofmap_addrs(self, w_ids: np.ndarray, f_ids: np.ndarray) -> np.ndarray:
        lin = (np.asarray(w_ids, np.int64)[:, None] * self.counts.n_filters
               + np.asarray(f_ids, np.int64)[None, :])
        return self.arch.ofmap_offset + lin * self.arch.word_bytes


class _Builder:
    """Keeps every fold's pieces, then sorts the whole trace at once."""

    __slots__ = ("cycles", "addrs")

    def __init__(self):
        self.cycles, self.addrs = [], []

    def add(self, cycles: np.ndarray, addrs: np.ndarray) -> None:
        self.cycles.append(np.ravel(cycles))
        self.addrs.append(np.ravel(addrs))

    def build(self) -> Trace:
        if not self.cycles:
            return Trace.empty()
        return sorted_trace(np.concatenate(self.cycles), np.concatenate(self.addrs))


def _trace_set(counts: WorkloadCounts, arch: ArchConfig, ifmap: Trace, filt: Trace,
               writes: Trace) -> TraceSet:
    """The traces as a TraceSet, whose final writes are views of the ofmap
    trace's last N_w*M events."""
    first = len(writes) - counts.n_windows * counts.n_filters
    return TraceSet(fold_plan(counts, arch), ifmap, filt, writes,
                    Trace(writes.cycles[first:], writes.addresses[first:]))


def _traces_os(layer: LayerSpec, arch: ArchConfig) -> TraceSet:
    """Outputs pinned: row i streams window (row_start+i), column j streams
    filter (col_start+j); PE(i,j) reduces in place and drains one value."""
    counts = workload_counts(layer)
    regions(layer, arch, counts)
    am = _AddressMaps(layer, arch, counts)
    ksz = counts.window_size
    k = np.arange(ksz, dtype=np.int64)
    ifm, fil, out = _Builder(), _Builder(), _Builder()
    base = 0
    for fold in fold_list(counts, arch):
        r = np.arange(fold.rows_used, dtype=np.int64)
        c = np.arange(fold.cols_used, dtype=np.int64)
        w_ids = fold.row_start + r
        f_ids = fold.col_start + c
        ifm.add(base + r[:, None] + k[None, :], am.window_addrs(w_ids, k))
        fil.add(base + c[:, None] + k[None, :], am.filter_addrs(f_ids, k))
        out.add(base + r[:, None] + c[None, :] + ksz - 1, am.ofmap_addrs(w_ids, f_ids))
        base += fold.rows_used + fold.cols_used + ksz - 2
    return _trace_set(counts, arch, ifm.build(), fil.build(), out.build())


def _traces_stationary(layer: LayerSpec, arch: ArchConfig) -> TraceSet:
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
    regions(layer, arch, counts)
    am = _AddressMaps(layer, arch, counts)
    pin_windows = arch.dataflow is Dataflow.IS
    stream_total = counts.n_filters if pin_windows else counts.n_windows
    s = np.arange(stream_total, dtype=np.int64)
    ifm, fil, out = _Builder(), _Builder(), _Builder()
    fill_b, stream_b = (ifm, fil) if pin_windows else (fil, ifm)
    base = 0
    for fold in fold_list(counts, arch):
        rows, cols = fold.rows_used, fold.cols_used
        k_ids = fold.row_start + np.arange(rows, dtype=np.int64)
        col_ids = fold.col_start + np.arange(cols, dtype=np.int64)
        tau = np.arange(rows, dtype=np.int64)
        j = np.arange(cols, dtype=np.int64)
        # fill: at cycle base+tau every active column loads the operand
        # destined for row rows-1-tau
        if pin_windows:
            fill_addrs = am.window_addrs(col_ids, k_ids[::-1]).T
        else:
            fill_addrs = am.filter_addrs(col_ids, k_ids[::-1]).T
        fill_b.add(np.broadcast_to((base + tau)[:, None], (rows, cols)), fill_addrs)
        # stream: row r's element for stream index s enters at base+rows+s+r
        if pin_windows:
            stream_addrs = am.filter_addrs(s, k_ids).T
        else:
            stream_addrs = am.window_addrs(s, k_ids).T
        stream_b.add(base + rows + tau[:, None] + s[None, :], stream_addrs)
        # drain: column j emits stream index s at base + 2*rows - 1 + s + j
        wr_cycles = base + 2 * rows - 1 + s[:, None] + j[None, :]
        if pin_windows:
            wr_addrs = am.ofmap_addrs(col_ids, s).T
        else:
            wr_addrs = am.ofmap_addrs(s, col_ids)
        out.add(wr_cycles, wr_addrs)
        base += 2 * rows + stream_total + cols - 2
    return _trace_set(counts, arch, ifm.build(), fil.build(), out.build())


def generate_traces_reference(layer: LayerSpec, arch: ArchConfig) -> TraceSet:
    if arch.dataflow is Dataflow.OS:
        return _traces_os(layer, arch)
    return _traces_stationary(layer, arch)
