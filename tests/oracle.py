"""Brute-force per-cycle PE-grid simulator.

Ground truth for the trace engines on small instances: it steps every
register of the array (store-and-forward links, one-cycle neighbor delay)
and observes when operands are demanded at the edges and when outputs drain,
rather than using any closed-form span arithmetic.  Operands carry synthetic
integer values so the drained outputs can be checked against a direct
convolution.

Test-only; bounded to desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from systolicsim.config import ArchConfig, Dataflow, LayerSpec
from systolicsim.errors import SimulationError
from systolicsim.mapping import workload_counts

MAX_GRID_PES = 4096
MAX_MACS = 10**6


def ifmap_value(linear_index: int) -> int:
    return linear_index + 1


def filter_value(linear_index: int) -> int:
    return 2 * linear_index + 1


@dataclass
class OracleResult:
    total_cycles: int
    outputs: dict          # (window p, filter f) -> accumulated value
    mac_count: int
    ifmap_reads: list = field(default_factory=list)    # (cycle, address)
    filter_reads: list = field(default_factory=list)
    ofmap_writes: list = field(default_factory=list)
    ofmap_partial_reads: list = field(default_factory=list)


class _Workload:
    """Shared geometry: per-window / per-filter operand (address, value) lists."""

    def __init__(self, layer: LayerSpec, arch: ArchConfig):
        self.layer = layer
        self.arch = arch
        self.counts = workload_counts(layer)

    def window_elements(self, p: int) -> list[tuple[int, int]]:
        l, wordsz = self.layer, self.arch.word_bytes
        oh, ow = divmod(p, self.counts.ofmap_w)
        out = []
        for r in range(l.filter_h):
            for s in range(l.filter_w):
                for c in range(l.channels):
                    h = oh * l.stride + r
                    w = ow * l.stride + s
                    lin = (h * l.ifmap_w + w) * l.channels + c
                    out.append((self.arch.ifmap_offset + lin * wordsz, ifmap_value(lin)))
        return out

    def filter_elements(self, f: int) -> list[tuple[int, int]]:
        k_total = self.counts.window_size
        return [(self.arch.filter_offset + (f * k_total + k) * self.arch.word_bytes,
                 filter_value(f * k_total + k))
                for k in range(k_total)]

    def ofmap_address(self, p: int, f: int) -> int:
        return self.arch.ofmap_offset + (p * self.counts.n_filters + f) * self.arch.word_bytes


def simulate_grid(layer: LayerSpec, arch: ArchConfig) -> OracleResult:
    counts = workload_counts(layer)
    if arch.array_rows * arch.array_cols > MAX_GRID_PES:
        raise SimulationError("oracle scale bound exceeded: too many PEs")
    if counts.macs_total > MAX_MACS:
        raise SimulationError("oracle scale bound exceeded: too many MACs")
    wl = _Workload(layer, arch)
    if arch.dataflow is Dataflow.OS:
        return _simulate_os(wl)
    if arch.dataflow is Dataflow.WS:
        return _simulate_ws(wl)
    return _simulate_is(wl)


def _blocks(total: int, size: int) -> list[list[int]]:
    return [list(range(s, min(total, s + size))) for s in range(0, total, size)]


def _simulate_os(wl: _Workload) -> OracleResult:
    arch, counts = wl.arch, wl.counts
    k_total = counts.window_size
    res = OracleResult(0, {}, 0)
    base = 0
    for wins in _blocks(counts.n_windows, arch.array_rows):
        for filts in _blocks(counts.n_filters, arch.array_cols):
            nr, nc = len(wins), len(filts)
            row_stream = [wl.window_elements(p) for p in wins]
            col_stream = [wl.filter_elements(f) for f in filts]
            a_now = [[None] * nc for _ in range(nr)]
            b_now = [[None] * nc for _ in range(nr)]
            acc = [[0] * nc for _ in range(nr)]
            fired = [[0] * nc for _ in range(nr)]
            emitted, t = 0, 0
            while emitted < nr * nc:
                a_next = [[None] * nc for _ in range(nr)]
                b_next = [[None] * nc for _ in range(nr)]
                for i in range(nr):
                    k = t - i
                    if 0 <= k < k_total:
                        addr, val = row_stream[i][k]
                        res.ifmap_reads.append((base + t, addr))
                        a_next[i][0] = val
                    for j in range(1, nc):
                        a_next[i][j] = a_now[i][j - 1]
                for j in range(nc):
                    k = t - j
                    if 0 <= k < k_total:
                        addr, val = col_stream[j][k]
                        res.filter_reads.append((base + t, addr))
                        b_next[0][j] = val
                    for i in range(1, nr):
                        b_next[i][j] = b_now[i - 1][j]
                for i in range(nr):
                    for j in range(nc):
                        if a_next[i][j] is not None and b_next[i][j] is not None:
                            acc[i][j] += a_next[i][j] * b_next[i][j]
                            fired[i][j] += 1
                            res.mac_count += 1
                            if fired[i][j] == k_total:
                                res.ofmap_writes.append(
                                    (base + t, wl.ofmap_address(wins[i], filts[j])))
                                res.outputs[(wins[i], filts[j])] = acc[i][j]
                                emitted += 1
                a_now, b_now = a_next, b_next
                t += 1
            base += t
    res.total_cycles = base
    return res


def _stationary_fold(wl, res, base, pinned, stream, out_key, red_first,
                     fill_trace, stream_trace):
    """One WS/IS fold.

    pinned:  per-column list of (address, value) operand lists, loaded through
             the top edge bottom-row-first, recorded into fill_trace.
    stream:  per-row list of (tag, address, value) streamed through the left
             edge with diagonal skew, recorded into stream_trace.
    out_key: (tag, column) -> (window p, filter f) of the emitted value.
    Returns the base cycle of the next fold.
    """
    nr = len(pinned[0])
    nc = len(pinned)
    # fill: one top-edge read per column per cycle; values shift down a
    # register chain so the bottom row's operand is injected first
    reg = [[None] * nc for _ in range(nr)]
    for tau in range(nr):
        for j in range(nc):
            for r in range(nr - 1, 0, -1):
                reg[r][j] = reg[r - 1][j]
            addr, val = pinned[j][nr - 1 - tau]
            fill_trace.append((base + tau, addr))
            reg[0][j] = val
    n_stream = len(stream[0])
    a_now = [[None] * nc for _ in range(nr)]      # (tag, value) moving right
    p_down = [[None] * nc for _ in range(nr)]     # (tag, sum) arriving from above
    emitted, t = 0, nr
    while emitted < n_stream * nc:
        a_next = [[None] * nc for _ in range(nr)]
        p_next = [[None] * nc for _ in range(nr)]
        for i in range(nr):
            s = t - nr - i
            if 0 <= s < n_stream:
                tag, addr, val = stream[i][s]
                stream_trace.append((base + t, addr))
                a_next[i][0] = (tag, val)
            for j in range(1, nc):
                a_next[i][j] = a_now[i][j - 1]
        for i in range(nr):
            for j in range(nc):
                if a_next[i][j] is None:
                    continue
                tag, x = a_next[i][j]
                up = p_down[i][j][1] if p_down[i][j] is not None else 0
                total = up + reg[i][j] * x
                res.mac_count += 1
                if i == nr - 1:
                    p, f = out_key(tag, j)
                    addr = wl.ofmap_address(p, f)
                    res.ofmap_writes.append((base + t, addr))
                    if not red_first:
                        res.ofmap_partial_reads.append((base + t, addr))
                    res.outputs[(p, f)] = res.outputs.get((p, f), 0) + total
                    emitted += 1
                else:
                    p_next[i + 1][j] = (tag, total)
        a_now, p_down = a_next, p_next
        t += 1
    return base + t


def _simulate_stationary(wl: _Workload, pin_windows: bool) -> OracleResult:
    """WS (pin_windows=False) and IS (pin_windows=True) share one machine."""
    arch, counts = wl.arch, wl.counts
    res = OracleResult(0, {}, 0)
    fill_reads: list = []
    stream_reads: list = []
    win_elems = [wl.window_elements(p) for p in range(counts.n_windows)]
    fil_elems = [wl.filter_elements(f) for f in range(counts.n_filters)]
    col_total = counts.n_windows if pin_windows else counts.n_filters
    base = 0
    for red_idx, ks in enumerate(_blocks(counts.window_size, arch.array_rows)):
        for cols in _blocks(col_total, arch.array_cols):
            if pin_windows:
                pinned = [[win_elems[p][k] for k in ks] for p in cols]
                stream = [[(m, *fil_elems[m][k]) for m in range(counts.n_filters)]
                          for k in ks]
                out_key = lambda tag, j, cols=cols: (cols[j], tag)
            else:
                pinned = [[fil_elems[f][k] for k in ks] for f in cols]
                stream = [[(w, *win_elems[w][k]) for w in range(counts.n_windows)]
                          for k in ks]
                out_key = lambda tag, j, cols=cols: (tag, cols[j])
            base = _stationary_fold(wl, res, base, pinned, stream, out_key,
                                    red_first=(red_idx == 0),
                                    fill_trace=fill_reads, stream_trace=stream_reads)
    res.total_cycles = base
    if pin_windows:
        res.ifmap_reads, res.filter_reads = fill_reads, stream_reads
    else:
        res.filter_reads, res.ifmap_reads = fill_reads, stream_reads
    return res


def _simulate_ws(wl: _Workload) -> OracleResult:
    return _simulate_stationary(wl, pin_windows=False)


def _simulate_is(wl: _Workload) -> OracleResult:
    return _simulate_stationary(wl, pin_windows=True)


def direct_convolution(layer: LayerSpec) -> dict:
    """Plain sliding-window convolution over the synthetic operand values.

    Independent cross-check for the grid simulator's functional outputs.
    """
    counts = workload_counts(layer)
    ifmap = {}
    lin = 0
    for h in range(layer.ifmap_h):
        for w in range(layer.ifmap_w):
            for c in range(layer.channels):
                ifmap[(h, w, c)] = ifmap_value(lin)
                lin += 1
    out = {}
    for f in range(layer.num_filters):
        for oh in range(counts.ofmap_h):
            for ow in range(counts.ofmap_w):
                total = 0
                k = 0
                for r in range(layer.filter_h):
                    for s in range(layer.filter_w):
                        for c in range(layer.channels):
                            x = ifmap[(oh * layer.stride + r, ow * layer.stride + s, c)]
                            total += x * filter_value(f * counts.window_size + k)
                            k += 1
                out[(oh * counts.ofmap_w + ow, f)] = total
    return out
