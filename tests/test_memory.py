import random
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (check_only_footprint, distinct_addresses, in_file_order, make_arch,
                     n_drains, prologue, random_small_layer, sorted_trace, steady_peak_bw,
                     time_limit)
from systolicsim import engine
from systolicsim import trace as trace_module
from systolicsim.cli import TRACE_KINDS
from systolicsim.config import LayerSpec
from systolicsim.engine import TraceSet, generate_traces
from systolicsim.mapping import workload_counts
from systolicsim.metrics import layer_report
from systolicsim.errors import ConfigError, WorkingSetUnderflow
from systolicsim.memory import (Bursts, bandwidth_report, dram_demand, epochize,
                                gen_dram_read_trace, gen_dram_write_trace)
from systolicsim.simulate import simulate_layer
from systolicsim.trace import Trace


def seq_trace(n_addrs, reads_per_addr=1):
    cycles = np.arange(n_addrs * reads_per_addr)
    addrs = np.tile(np.arange(n_addrs), reads_per_addr)
    return Trace(cycles, np.sort(addrs) if reads_per_addr == 1 else addrs)


def test_epochize_splits_reuse_free_trace():
    epochs = epochize(seq_trace(100), 50)
    assert [len(e.addresses) for e in epochs] == [50, 50]
    assert epochs[0].first_use_cycle == 0 and epochs[0].last_use_cycle == 49
    assert epochs[1].first_use_cycle == 50


def test_epochize_captures_full_reuse():
    epochs = epochize(seq_trace(50, reads_per_addr=2), 50)
    assert len(epochs) == 1
    assert epochs[0].bytes == 50


def test_epochize_single_epoch_when_capacity_covers_footprint():
    epochs = epochize(seq_trace(100, reads_per_addr=3), 100)
    assert len(epochs) == 1
    assert epochs[0].last_use_cycle == 299


def test_epochize_underflow():
    wide = Trace(np.zeros(10, np.int64), np.arange(10))
    with pytest.raises(WorkingSetUnderflow, match="underflow"):
        epochize(wide, 5)


def _late_disorder():
    cycles = np.arange(200)
    cycles[150] = 0     # past the first few 16-event windows
    return cycles, np.arange(200)


@pytest.mark.parametrize("cycles, addresses, capacity, window", [
    pytest.param([3, 1, 2, 0], [0, 1, 2, 3], 1, trace_module.CHUNK_EVENTS, id="stalled-scan"),
    pytest.param([3, 2], [5, 2], 1, trace_module.CHUNK_EVENTS, id="false-underflow"),
    pytest.param([0, 2, 1, 3], [0, 1, 2, 3], 4, trace_module.CHUNK_EVENTS,
                 id="inside-one-window"),
    pytest.param(*_late_disorder(), 1000, 16, id="late-disorder"),
])
def test_epochize_crashes_on_trace_out_of_cycle_order(cycles, addresses, capacity,
                                                      window):
    # out of order, the scan once stalled for good, reported an underflow
    # that the sorted trace does not have, or went on past the disorder
    # within a window or across windows
    with time_limit(5), mock.patch.object(trace_module, "CHUNK_EVENTS", window), \
            pytest.raises(AssertionError, match="not in cycle order"):
        epochize(Trace(cycles, addresses), capacity)


def test_word_larger_than_a_buffer_is_a_config_error():
    # the config itself is refused, before any trace is generated
    with pytest.raises(ConfigError, match="filter buffer of 1 KB cannot hold one "
                                          "2048-byte word"):
        make_arch(4, 4, "os", filter_kb=1, word_bytes=2048)


def test_epochize_refetch_counts_dram_traffic():
    # two 4-address phrases re-read after eviction: second use refetches
    addrs = np.concatenate([np.arange(4), np.arange(4, 8), np.arange(4)])
    trace = Trace(np.arange(12), addrs)
    epochs = epochize(trace, 4)
    assert sum(e.bytes for e in epochs) == 12
    assert len(epochs) == 3


def test_dram_read_trace_steady_demand():
    frag = gen_dram_read_trace(epochize(seq_trace(100), 50))
    assert steady_peak_bw(frag) == pytest.approx(1.0)
    assert prologue(frag) == (50, 50)
    cycles = frag.trace().cycles
    assert cycles.min() == -50
    # prefetch of epoch 1 lands inside epoch 0's use span
    in_span = cycles[cycles >= 0]
    assert in_span.min() >= 0 and in_span.max() <= 49


def test_dram_read_trace_single_epoch_has_no_steady_traffic():
    frag = gen_dram_read_trace(epochize(seq_trace(100), 1000))
    assert steady_peak_bw(frag) == 0.0
    assert (frag.trace().cycles < 0).all()


def test_single_cycle_epoch_bursts_successor():
    # epoch 0 lives for one cycle; its successor must arrive as a burst
    trace = Trace(np.array([0, 0, 1, 1]), np.array([0, 1, 2, 3]))
    epochs = epochize(trace, 2)
    assert [e.use_span for e in epochs] == [1, 1]
    frag = gen_dram_read_trace(epochs)
    assert steady_peak_bw(frag) == 2.0  # both bytes in the single-cycle window
    cycles = frag.trace().cycles
    successor = cycles[cycles >= 0]
    assert successor.tolist() == [0, 0]


def test_halving_capacity_doubles_epochs_reuse_free():
    t = seq_trace(100)
    at50 = epochize(t, 50)
    at25 = epochize(t, 25)
    assert sum(e.bytes for e in at50) == sum(e.bytes for e in at25) == 100
    assert len(at25) == 2 * len(at50)


def test_write_drain_single_at_layer_end():
    writes = seq_trace(20)
    frag = gen_dram_write_trace(writes, 64, total_cycles=20)
    assert n_drains(frag) == 1
    assert frag.total_bytes == 20
    assert frag.trace().cycles.min() >= 20  # epilogue only


def test_write_drain_two_when_capacity_is_half():
    frag = gen_dram_write_trace(seq_trace(20), 10, total_cycles=20)
    assert n_drains(frag) == 2
    # first drain spreads over the second chunk's fill interval
    cycles = frag.trace().cycles
    in_run = cycles[cycles < 20]
    assert len(in_run) == 10 and in_run.min() >= 10


def test_ws_partials_do_not_drain():
    # 2 reduction folds: every output written twice, drained once
    layer = LayerSpec("t", 4, 4, 2, 2, 2, 3, 1)  # W_sz=8 on 4 rows
    arch = make_arch(4, 4, "ws")
    ts = generate_traces(layer, arch)
    counts = workload_counts(layer)
    assert len(ts.ofmap_writes) == 2 * counts.n_windows * counts.n_filters
    frag = dram_demand(ts, arch).write
    assert frag.total_bytes == counts.n_windows * counts.n_filters


def test_bandwidth_report_averages():
    f1 = gen_dram_read_trace(epochize(seq_trace(600), 10**4))
    f2 = gen_dram_read_trace(epochize(
        Trace(np.arange(400), 10**6 + np.arange(400)), 10**4))
    rep = bandwidth_report(f1, f2, Bursts([]))
    t1, t2 = f1.trace(), f2.trace()
    assert rep.read_trace.trace() == sorted_trace(np.concatenate([t1.cycles, t2.cycles]),
                                                  np.concatenate([t1.addresses, t2.addresses]))
    assert len(rep.read_trace) == f1.total_bytes + f2.total_bytes == 1000
    assert not len(rep.write_trace)


def _capacities(footprint_bytes):
    return sorted({max(1, footprint_bytes // 4), max(1, footprint_bytes // 2),
                   footprint_bytes, footprint_bytes + 64})


def test_footprint_lower_bound_and_equality():
    rng = random.Random(11)
    for _ in range(15):
        layer = random_small_layer(rng, max_side=8, max_channels=4, max_filters=5)
        arch = make_arch(rng.randint(1, 6), rng.randint(1, 6),
                         rng.choice(["os", "ws", "is"]))
        ts = generate_traces(layer, arch)
        for trace in (ts.ifmap_reads, ts.filter_reads):
            foot = len(distinct_addresses(trace))
            for cap in _capacities(foot):
                try:
                    epochs = epochize(trace, cap)
                except WorkingSetUnderflow:
                    continue
                total = sum(e.bytes for e in epochs)
                assert total >= foot
                assert total <= len(trace)
                if cap >= foot:
                    assert total == foot and len(epochs) == 1


def test_no_useless_prefetch():
    rng = random.Random(12)
    for _ in range(10):
        layer = random_small_layer(rng, max_side=8)
        arch = make_arch(rng.randint(1, 6), rng.randint(1, 6),
                         rng.choice(["os", "ws", "is"]))
        ts = generate_traces(layer, arch)
        for trace in (ts.ifmap_reads.collect(), ts.filter_reads.collect()):
            foot = len(distinct_addresses(trace))
            try:
                frag = gen_dram_read_trace(epochize(trace, max(1, foot // 3)))
            except WorkingSetUnderflow:
                continue
            # every prefetched address is read from SRAM at the same or a
            # later cycle
            last_fetch = {}
            fetched = frag.trace()
            for c, a in zip(fetched.cycles.tolist(), fetched.addresses.tolist()):
                last_fetch[a] = c  # epochs arrive in order; keep the latest
            served = {a: -10**9 for a in last_fetch}
            for c, a in zip(trace.cycles.tolist(), trace.addresses.tolist()):
                served[a] = max(served[a], c)
            assert all(last_fetch[a] <= served[a] for a in last_fetch)


def test_dram_write_bytes_equal_final_footprint_all_capacities():
    layer = LayerSpec("t", 6, 6, 3, 3, 2, 4, 1)
    counts = workload_counts(layer)
    footprint = counts.n_windows * counts.n_filters
    for df in ("os", "ws", "is"):
        arch = make_arch(4, 4, df)
        ts = generate_traces(layer, arch)
        for cap in (1, 7, footprint // 2, footprint, 4 * footprint):
            frag = gen_dram_write_trace(ts.final_writes, max(1, cap), ts.total_cycles)
            assert frag.total_bytes == footprint


def test_dram_demand_pipeline_word_bytes():
    layer = LayerSpec("t", 6, 6, 3, 3, 2, 4, 1)
    arch = make_arch(4, 4, "os", word_bytes=2)
    ts = generate_traces(layer, arch)
    dem = dram_demand(ts, arch)
    counts = workload_counts(layer)
    assert dem.write.total_bytes == 2 * counts.n_windows * counts.n_filters
    assert dem.ifmap.total_bytes % 2 == 0 and dem.filter.total_bytes % 2 == 0


def shuffled_within_cycles(trace, rng):
    """A copy of a cycle-ordered trace with each cycle's events in a random
    order, which the engine's contract allows."""
    order = np.lexsort((rng.permutation(len(trace)), trace.cycles))
    return Trace(trace.cycles[order], trace.addresses[order])


def model_figures(layer, arch, ts):
    """What the memory model and the report make of a TraceSet: every
    epoch, its words in order, both DRAM traces and the layer report."""
    word = arch.word_bytes
    try:
        figures = [[(e.first_use_cycle, e.last_use_cycle, e.addresses.tolist())
                    for e in epochize(trace, capacity, word)]
                   for trace, capacity in ((ts.ifmap_reads, arch.ifmap_capacity_bytes),
                                           (ts.filter_reads, arch.filter_capacity_bytes))]
        dram = dram_demand(ts, arch)
    except WorkingSetUnderflow as exc:
        return str(exc)
    reads, writes = dram.read_trace, dram.write_trace
    figures += [(t.cycles.tolist(), t.addresses.tolist())
                for t in (reads.trace(), writes.trace())]
    figures.append(layer_report(layer, arch, None, len(ts.ifmap_reads),
                                len(ts.filter_reads), ts.ofmap_writes,
                                reads.cycle_segments(), writes.cycle_segments()))
    return figures


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 4), st.integers(1, 6), st.integers(1, 2), st.integers(1, 6),
       st.integers(1, 6), st.sampled_from(["os", "ws", "is"]),
       st.sampled_from([8, 32, 128]), st.integers(1, 2), st.integers(1, 2),
       st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_figures_ignore_order_within_a_cycle(ih, iw, fh, fw, chans, filters, stride,
                                             rows, cols, dataflow, word, ifmap_kb,
                                             filter_kb, ofmap_kb, seed):
    # words of 8 to 128 bytes in 1-2 KB buffers: 8 to 256 words, so most
    # layers' buffers overflow and the drain splits into several bursts
    layer = LayerSpec("t", ih, iw, min(fh, ih), min(fw, iw), chans, filters, stride)
    arch = make_arch(rows, cols, dataflow, ifmap_kb, filter_kb, ofmap_kb, word_bytes=word)
    # only the read traces: the engine holds the ofmap trace to (cycle,
    # address) order, since the drain takes the final writes in trace order
    ts = generate_traces(layer, arch)
    rng = np.random.default_rng(seed)
    # scanned, so that each epoch's words are in first-use order, as below
    want = model_figures(layer, arch, replace(
        ts, ifmap_reads=check_only_footprint(ts.ifmap_reads),
        filter_reads=check_only_footprint(ts.filter_reads)))
    for reorder in (in_file_order, lambda t: shuffled_within_cycles(t, rng)):
        given = TraceSet(ts.plan, reorder(ts.ifmap_reads.collect()),
                         reorder(ts.filter_reads.collect()), ts.ofmap_writes,
                         ts.final_writes)
        assert model_figures(layer, arch, given) == want


@pytest.mark.parametrize("dataflow", ["os", "ws", "is"])
def test_a_teed_stream_is_scanned_and_written_even_when_it_fits(tmp_path, dataflow):
    # 64 KB buffers hold both input footprints.  The engine's stream offers
    # its one epoch in closed form; a tee'd one offers only the count and
    # cycles the scan checks, so the scan runs and writes the whole file
    layer, arch = LayerSpec("t", 8, 8, 3, 3, 2, 4, 1), make_arch(4, 4, dataflow)
    ts = generate_traces(layer, arch)
    for stream, capacity in ((ts.ifmap_reads, arch.ifmap_capacity_bytes),
                             (ts.filter_reads, arch.filter_capacity_bytes)):
        teed = stream.tee_csv(tmp_path / "teed.csv")
        assert teed.footprint[:3] == stream.footprint[:3] and teed.footprint.addresses is None
        [closed] = epochize(stream, capacity)
        assert not (tmp_path / "teed.csv").exists()
        [scanned] = epochize(teed, capacity)
        stream.collect().write_csv(tmp_path / "whole.csv")
        assert (tmp_path / "teed.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
        assert (closed.first_use_cycle, closed.last_use_cycle) == (
            scanned.first_use_cycle, scanned.last_use_cycle)
        assert np.array_equal(closed.addresses, np.sort(scanned.addresses))
        (tmp_path / "teed.csv").unlink()


@pytest.mark.parametrize("dataflow", ["os", "ws", "is"])
def test_a_fitting_input_trace_is_written_only_into_files(monkeypatch, tmp_path, dataflow):
    # 64 KB buffers hold the 128-word ifmap and 72-word filter footprints:
    # without trace files the engine writes neither input trace, only the
    # ofmap trace (the final writes, then the report's pass)
    written, read = [], engine._read

    def spy(*args):
        written.append(args[4])
        yield from read(*args)

    monkeypatch.setattr(engine, "_read", spy)
    layer, arch = LayerSpec("t", 8, 8, 3, 3, 2, 4, 1), make_arch(4, 4, dataflow)
    without = simulate_layer(layer, arch).report
    assert written == [2, 2]
    written.clear()
    paths = [tmp_path / f"{kind}.csv" for kind in TRACE_KINDS]
    assert simulate_layer(layer, arch, trace_paths=paths).report == without
    assert sorted(written) == [0, 1, 2, 2]
