"""Shared test helpers."""

import csv
import io
import random
import signal
from contextlib import contextmanager
from typing import Iterator, NamedTuple

import numpy as np

from systolicsim.config import TOPOLOGY_HEADER, ArchConfig, Dataflow, LayerSpec
from systolicsim.mapping import workload_counts
from systolicsim.trace import Trace, TraceStream, sort_pairs

# offsets far enough apart for any desk-scale layer
IFMAP_OFF = 0
FILTER_OFF = 10**7
OFMAP_OFF = 2 * 10**7


def make_arch(rows, cols, dataflow="os", ifmap_kb=64, filter_kb=64, ofmap_kb=64,
              word_bytes=1):
    return ArchConfig(rows, cols, ifmap_kb, filter_kb, ofmap_kb,
                      IFMAP_OFF, FILTER_OFF, OFMAP_OFF,
                      Dataflow.parse(dataflow), word_bytes)


def sorted_trace(cycles, addresses):
    """A trace of copies of the pairs, sorted by (cycle, address);
    ``Trace`` itself does not sort."""
    cycles = np.array(cycles, dtype=np.int64)
    addresses = np.array(addresses, dtype=np.int64)
    if len(cycles):
        sort_pairs(cycles, addresses)
    return Trace(cycles, addresses)


def in_file_order(trace):
    """A copy of an engine trace (or stream) in (cycle, address) order, the
    order of its file.  The engine's traces are in cycle order only, which
    this asserts."""
    trace = trace.collect()
    assert (trace.cycles[1:] >= trace.cycles[:-1]).all(), "trace is not in cycle order"
    return sorted_trace(trace.cycles, trace.addresses)


def check_only_footprint(trace):
    """The trace (or stream), with its footprint stripped to the count and
    cycles a scan checks, as ``TraceStream.tee_csv`` leaves it: ``epochize``
    then scans it even where the buffer holds the footprint."""
    if trace.footprint is None:
        return trace
    return TraceStream(len(trace), trace.region, trace.segments,
                       trace.footprint._replace(addresses=None))


def pairs_to_trace(pairs):
    """Oracle (cycle, address) lists -> sorted Trace."""
    if not pairs:
        return Trace.empty()
    arr = np.array(pairs, dtype=np.int64)
    return sorted_trace(arr[:, 0], arr[:, 1])


def partial_reads(ofmap_writes):
    """The oracle's rule for partial-sum re-reads: every write to an address
    after its first re-reads the sum it accumulates onto, at the same cycle."""
    ofmap_writes = ofmap_writes.collect()
    first = np.unique(ofmap_writes.addresses, return_index=True)[1]
    later = np.ones(len(ofmap_writes), dtype=bool)
    later[first] = False
    return Trace(ofmap_writes.cycles[later], ofmap_writes.addresses[later])


def distinct_addresses(trace):
    """The trace's (or stream's) addresses, each once, ascending."""
    addresses = np.sort(trace.collect().addresses)
    if not len(addresses):
        return addresses
    return addresses[np.append(True, addresses[1:] != addresses[:-1])]


def cycle_runs(cycles: np.ndarray) -> np.ndarray:
    """Boundaries of the runs of equal values in a sorted cycle array: run i
    is ``cycles[b[i]:b[i + 1]]``.  Empty input gives ``[0]``."""
    if not len(cycles):
        return np.zeros(1, np.int64)
    return np.concatenate(([0], np.flatnonzero(np.diff(cycles)) + 1, [len(cycles)]))


class TraceEvent(NamedTuple):
    cycle: int
    addresses: np.ndarray  # all addresses issued this cycle, ascending


def events(trace) -> Iterator[TraceEvent]:
    """Per-cycle groups of a sorted trace, addresses ascending in each."""
    bounds = cycle_runs(trace.cycles)
    for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        yield TraceEvent(int(trace.cycles[start]), trace.addresses[start:stop])


def per_cycle_counts(trace):
    """(cycles, event counts) for cycles that have at least one event."""
    trace = trace.collect()
    bounds = cycle_runs(trace.cycles)
    return trace.cycles[bounds[:-1]], np.diff(bounds)


# figures of a DRAM burst schedule (memory.Bursts) that only tests check

def steady_peak_bw(reads):
    """The most bytes per cycle that any prefetch after the prologue
    demands; 0 with a single epoch."""
    return max((len(a) * reads.word_bytes / span for a, _, span in reads.bursts[1:]),
               default=0.0)


def prologue(reads):
    """(bytes, cycles) of the cold-fill prologue: the first read burst."""
    addresses, _, span = reads.bursts[0]
    return len(addresses) * reads.word_bytes, span


def n_drains(writes):
    return len(writes.bursts)


def epilogue(writes):
    """(bytes, cycles) of the drain after the last compute cycle: the last
    write burst."""
    addresses, _, span = writes.bursts[-1]
    return len(addresses) * writes.word_bytes, span


class Fold(NamedTuple):
    """One mapping round: rows_used x cols_used PEs mapped to the slice of
    the dataflow's (row, column) work that starts at (row_start, col_start),
    with stream_len values streamed through them."""

    rows_used: int
    cols_used: int
    stream_len: int
    row_start: int
    col_start: int


def fold_list(counts, arch) -> list[Fold]:
    """Every fold of the layer, fold by fold in execution order: row-major
    over the fold grid, the row work outermost.  OS maps windows onto rows
    and filters onto columns and streams the window elements; WS maps
    window elements and filters and streams the windows; IS maps window
    elements and windows and streams the filters.  Enumerated here on its
    own, as the reference for the engine's closed-form fold batches."""
    row_work, col_work, stream_len = {
        Dataflow.OS: (counts.n_windows, counts.n_filters, counts.window_size),
        Dataflow.WS: (counts.window_size, counts.n_filters, counts.n_windows),
        Dataflow.IS: (counts.window_size, counts.n_windows, counts.n_filters),
    }[arch.dataflow]
    rows, cols = arch.array_rows, arch.array_cols
    return [Fold(min(rows, row_work - r), min(cols, col_work - c), stream_len, r, c)
            for r in range(0, row_work, rows) for c in range(0, col_work, cols)]


# one operand element's byte address, by coordinates: the layout that the
# engine's vectorised address maps implement

def addr_ifmap(h, w, c, layer, arch):
    if not (0 <= h < layer.ifmap_h and 0 <= w < layer.ifmap_w and 0 <= c < layer.channels):
        raise IndexError(f"ifmap coordinate ({h},{w},{c}) out of range")
    return arch.ifmap_offset + ((h * layer.ifmap_w + w) * layer.channels + c) * arch.word_bytes


def addr_filter(f, r, s, c, layer, arch):
    if not (0 <= f < layer.num_filters and 0 <= r < layer.filter_h
            and 0 <= s < layer.filter_w and 0 <= c < layer.channels):
        raise IndexError(f"filter coordinate ({f},{r},{s},{c}) out of range")
    return arch.filter_offset + (((f * layer.filter_h + r) * layer.filter_w + s)
                                 * layer.channels + c) * arch.word_bytes


def addr_ofmap(p, f, layer, arch, counts=None):
    counts = counts or workload_counts(layer)
    if not (0 <= p < counts.n_windows and 0 <= f < layer.num_filters):
        raise IndexError(f"ofmap coordinate ({p},{f}) out of range")
    return arch.ofmap_offset + (p * layer.num_filters + f) * arch.word_bytes


def random_small_layer(rng: random.Random, max_side=6, max_filter=3,
                       max_channels=4, max_filters=4) -> LayerSpec:
    ih = rng.randint(1, max_side)
    iw = rng.randint(1, max_side)
    fh = rng.randint(1, min(max_filter, ih))
    fw = rng.randint(1, min(max_filter, iw))
    return LayerSpec(
        name=f"rand{rng.randint(0, 10**6)}",
        ifmap_h=ih, ifmap_w=iw, filter_h=fh, filter_w=fw,
        channels=rng.randint(1, max_channels),
        num_filters=rng.randint(1, max_filters),
        stride=rng.randint(1, 2),
    )


def random_medium_layer(rng: random.Random) -> LayerSpec:
    ih = rng.randint(3, 14)
    iw = rng.randint(3, 14)
    fh = rng.randint(1, min(4, ih))
    fw = rng.randint(1, min(4, iw))
    return LayerSpec(
        name=f"rand{rng.randint(0, 10**6)}",
        ifmap_h=ih, ifmap_w=iw, filter_h=fh, filter_w=fw,
        channels=rng.randint(1, 6),
        num_filters=rng.randint(1, 9),
        stride=rng.randint(1, 3),
    )


def write_topology(path, rows):
    """rows: list of (name, ih, iw, fh, fw, c, m, s) tuples."""
    lines = ["Layer Name,IFMAP Height,IFMAP Width,Filter Height,Filter Width,"
             "Channels,Num Filter,Strides"]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def write_config(path, rows=8, cols=8, dataflow="os", ifmap_kb=64, filter_kb=64,
                 ofmap_kb=64, topology="topo.csv", word_bytes=1):
    path.write_text(f"""[architecture]
ArrayHeight = {rows}
ArrayWidth = {cols}
IfmapSRAMSz = {ifmap_kb}
FilterSRAMSz = {filter_kb}
OfmapSRAMSz = {ofmap_kb}
IfmapOffset = {IFMAP_OFF}
FilterOffset = {FILTER_OFF}
OfmapOffset = {OFMAP_OFF}
DataFlow = {dataflow}
Topology = {topology}
WordBytes = {word_bytes}
""")
    return path


def format_config(cfg: ArchConfig) -> str:
    """Serialize back to the canonical single-section form; round-trips
    through parse_config."""
    lines = ["[architecture]"]
    values = {
        "ArrayHeight": cfg.array_rows,
        "ArrayWidth": cfg.array_cols,
        "IfmapSRAMSz": cfg.ifmap_sram_kb,
        "FilterSRAMSz": cfg.filter_sram_kb,
        "OfmapSRAMSz": cfg.ofmap_sram_kb,
        "IfmapOffset": cfg.ifmap_offset,
        "FilterOffset": cfg.filter_offset,
        "OfmapOffset": cfg.ofmap_offset,
        "DataFlow": cfg.dataflow.value,
        "Topology": cfg.topology_path,
    }
    lines.extend(f"{k} = {v}" for k, v in values.items())
    if cfg.word_bytes != 1:
        lines.append(f"WordBytes = {cfg.word_bytes}")
    return "\n".join(lines) + "\n"


def format_topology(layers: list[LayerSpec]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(TOPOLOGY_HEADER)
    for l in layers:
        writer.writerow([l.name, l.ifmap_h, l.ifmap_w, l.filter_h, l.filter_w,
                         l.channels, l.num_filters, l.stride])
    return out.getvalue()


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once it has run ``seconds``, so that
    a hang fails the test instead of stalling the suite."""
    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
