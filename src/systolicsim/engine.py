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
p the raster index of the output pixel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ArchConfig, Dataflow, LayerSpec
from .errors import ConfigError
from .mapping import FoldPlan, WorkloadCounts, fold_schedule, workload_counts
from .trace import Trace


def addr_ifmap(h: int, w: int, c: int, layer: LayerSpec, arch: ArchConfig) -> int:
    if not (0 <= h < layer.ifmap_h and 0 <= w < layer.ifmap_w and 0 <= c < layer.channels):
        raise IndexError(f"ifmap coordinate ({h},{w},{c}) out of range")
    return arch.ifmap_offset + ((h * layer.ifmap_w + w) * layer.channels + c) * arch.word_bytes


def addr_filter(f: int, r: int, s: int, c: int, layer: LayerSpec, arch: ArchConfig) -> int:
    if not (0 <= f < layer.num_filters and 0 <= r < layer.filter_h
            and 0 <= s < layer.filter_w and 0 <= c < layer.channels):
        raise IndexError(f"filter coordinate ({f},{r},{s},{c}) out of range")
    return arch.filter_offset + (((f * layer.filter_h + r) * layer.filter_w + s)
                                 * layer.channels + c) * arch.word_bytes


def addr_ofmap(p: int, f: int, layer: LayerSpec, arch: ArchConfig, counts=None) -> int:
    counts = counts or workload_counts(layer)
    if not (0 <= p < counts.n_windows and 0 <= f < layer.num_filters):
        raise IndexError(f"ofmap coordinate ({p},{f}) out of range")
    return arch.ofmap_offset + (p * layer.num_filters + f) * arch.word_bytes


@dataclass
class TraceSet:
    """Per-layer SRAM traffic.  ofmap_writes includes WS/IS partial-sum
    writes; each write to an address after its first also re-reads the
    partial sum it accumulates onto, at the same cycle."""

    layer: LayerSpec
    counts: WorkloadCounts
    plan: FoldPlan
    ifmap_reads: Trace
    filter_reads: Trace
    ofmap_writes: Trace

    @property
    def total_cycles(self) -> int:
        return self.ofmap_writes.max_cycle + 1


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
    __slots__ = ("cycles", "addrs")

    def __init__(self):
        self.cycles, self.addrs = [], []

    def add(self, cycles: np.ndarray, addrs: np.ndarray) -> None:
        self.cycles.append(np.ravel(cycles))
        self.addrs.append(np.ravel(addrs))

    def build(self) -> Trace:
        if not self.cycles:
            return Trace.empty()
        return Trace(np.concatenate(self.cycles), np.concatenate(self.addrs))


def gen_traces_os(layer: LayerSpec, arch: ArchConfig) -> TraceSet:
    """Outputs pinned: row i streams window (row_start+i), column j streams
    filter (col_start+j); PE(i,j) reduces in place and drains one value."""
    counts = workload_counts(layer)
    _check_regions(layer, arch, counts)
    plan = fold_schedule(counts, arch)
    am = _AddressMaps(layer, arch, counts)
    ksz = counts.window_size
    k = np.arange(ksz, dtype=np.int64)
    ifm, fil, out = _Builder(), _Builder(), _Builder()
    base = 0
    for fold in plan.folds:
        r = np.arange(fold.rows_used, dtype=np.int64)
        c = np.arange(fold.cols_used, dtype=np.int64)
        w_ids = fold.row_start + r
        f_ids = fold.col_start + c
        ifm.add(base + r[:, None] + k[None, :], am.window_addrs(w_ids, k))
        fil.add(base + c[:, None] + k[None, :], am.filter_addrs(f_ids, k))
        out.add(base + r[:, None] + c[None, :] + ksz - 1, am.ofmap_addrs(w_ids, f_ids))
        base += fold.rows_used + fold.cols_used + ksz - 2
    return TraceSet(layer, counts, plan, ifm.build(), fil.build(), out.build())


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
    am = _AddressMaps(layer, arch, counts)
    pin_windows = arch.dataflow is Dataflow.IS
    stream_total = counts.n_filters if pin_windows else counts.n_windows
    s = np.arange(stream_total, dtype=np.int64)
    ifm, fil, out = _Builder(), _Builder(), _Builder()
    fill_b, stream_b = (ifm, fil) if pin_windows else (fil, ifm)
    base = 0
    for fold in plan.folds:
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
    return TraceSet(layer, counts, plan, ifm.build(), fil.build(), out.build())


def generate_traces(layer: LayerSpec, arch: ArchConfig) -> TraceSet:
    if arch.dataflow is Dataflow.OS:
        return gen_traces_os(layer, arch)
    return _gen_traces_stationary(layer, arch)
