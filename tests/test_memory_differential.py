"""The vectorised memory model against its loop-based references.

Every epoch list, final-write selection and underflow message must be
identical to what ``memory_reference`` computes on the same trace.  The
engine's final writes (``TraceSet.final_writes``, taken from the fold grid)
must be the reference's last write of every address.  The model takes the
engine's traces as they are.  The reference lists a single epoch's words
in trace order, so it gets a (cycle, address)-ordered copy, the order of
the trace files; with several epochs it lists each cycle's new words by
ascending address whatever the order.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (check_only_footprint, distinct_addresses, epilogue, in_file_order,
                     make_arch, n_drains, partial_reads, sorted_trace)
from memory_reference import epochize_reference, final_writes_reference
from systolicsim.bundled import bundled_workloads, default_config_path, workload_path
from systolicsim.config import LayerSpec, load_config, load_topology
from systolicsim.engine import generate_traces
from systolicsim.errors import WorkingSetUnderflow
from systolicsim.memory import epochize, gen_dram_write_trace
from systolicsim.metrics import ofmap_figures
from systolicsim.simulate import simulate_layer
from systolicsim.trace import Trace

LADDER_KB = (32, 64, 128, 256, 512, 1024, 2048)
# array shapes taken in turn by the bundled layers: arrays this wide keep
# the layers' input traces near their fewest events, about 40 M a dataflow
CLOSED_FORM_SHAPES = ((512, 512), (256, 1024), (128, 2048))


@st.composite
def small_layers(draw):
    ih = draw(st.integers(1, 8))
    iw = draw(st.integers(1, 8))
    return LayerSpec("h", ih, iw, draw(st.integers(1, min(3, ih))),
                     draw(st.integers(1, min(3, iw))), draw(st.integers(1, 4)),
                     draw(st.integers(1, 5)), draw(st.integers(1, 2)))


@st.composite
def traced_layers(draw):
    arch = make_arch(draw(st.integers(1, 6)), draw(st.integers(1, 6)),
                     draw(st.sampled_from(["os", "ws", "is"])),
                     word_bytes=draw(st.sampled_from([1, 2, 4])))
    return generate_traces(draw(small_layers()), arch), arch.word_bytes


def _outcome(fn, trace, capacity, word):
    try:
        return [(e.addresses.tolist(), e.first_use_cycle, e.last_use_cycle,
                 e.word_bytes) for e in fn(trace, capacity, word)]
    except WorkingSetUnderflow as exc:
        return ("underflow", str(exc))


def assert_same_epochs(trace, capacity, word):
    # scanned even where the buffer holds the footprint
    got = _outcome(epochize, check_only_footprint(trace), capacity, word)
    assert got == _outcome(epochize_reference, in_file_order(trace), capacity, word)
    if isinstance(got, list):
        # no epoch holds more bytes than the buffer's whole words
        assert all(len(addresses) * word <= capacity // word * word
                   for addresses, _, _, _ in got)
    return got


def assert_same_write_fragment(ts, capacity, word):
    got = gen_dram_write_trace(ts.final_writes, capacity, ts.total_cycles, word)
    want = gen_dram_write_trace(Trace(*final_writes_reference(ts.ofmap_writes)), capacity,
                                ts.total_cycles, word)
    assert got.trace() == want.trace()
    assert ((got.total_bytes, n_drains(got), *epilogue(got))
            == (want.total_bytes, n_drains(want), *epilogue(want)))


@settings(max_examples=150, deadline=None)
@given(traced_layers(), st.data())
def test_epochize_matches_reference(traced, data):
    ts, word = traced
    for trace in (ts.ifmap_reads, ts.filter_reads):
        footprint = len(distinct_addresses(trace))
        # one word up to past the footprint, including sizes that are not
        # a whole number of words
        capacity = data.draw(st.integers(word, (footprint + 2) * word))
        assert_same_epochs(trace, capacity, word)


@settings(max_examples=100, deadline=None)
@given(traced_layers(), st.data())
def test_final_writes_match_reference(traced, data):
    ts, word = traced
    writes, fin = ts.ofmap_writes.collect(), ts.final_writes
    got = fin.cycles, fin.addresses
    want = final_writes_reference(writes)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    capacity = data.draw(st.integers(word, (len(writes) + 2) * word))
    assert_same_write_fragment(ts, capacity, word)


def test_underflow_message_matches_reference():
    trace = Trace(np.array([0, 0, 0, 1, 1, 2, 2, 2, 2]),
                         np.array([0, 2, 4, 6, 8, 0, 2, 4, 6]))
    outcome = assert_same_epochs(trace, 6, 2)
    assert outcome == ("underflow", "working set underflow: cycle 2 touches 4 "
                                    "distinct words but the buffer holds 3")


def test_a_larger_buffer_can_fetch_more():
    # greedy epochs: the 3-word buffer admits word 2 into the first epoch,
    # so word 0 opens a second one, and word 2 is fetched again in it
    trace = Trace(np.array([1, 1, 2, 3, 4, 5, 6, 7, 7, 9]),
                  np.array([3, 1, 1, 3, 1, 2, 0, 2, 2, 0]))
    fetched = [sum(len(addresses) for addresses, _, _, _ in assert_same_epochs(trace, cap, 1))
               for cap in (2, 3)]
    assert fetched == [4, 5]


@pytest.mark.parametrize("dataflow", ["os", "ws", "is"])
def test_bundled_layers_ladder_matches_reference(dataflow):
    # conv1 fits every buffer in one epoch; conv2 overflows the 32 KB rung
    base = load_config(default_config_path())
    for layer in load_topology(workload_path("w2_deepspeech2"))[:2]:
        ts = generate_traces(layer, base.with_overrides(dataflow=dataflow))
        for kb in LADDER_KB:
            for trace in (ts.ifmap_reads, ts.filter_reads):
                assert_same_epochs(trace, kb * 1024, base.word_bytes)
            assert_same_write_fragment(ts, kb * 1024, base.word_bytes)


@pytest.mark.parametrize("dataflow", ["os", "ws", "is"])
def test_closed_form_epoch_is_the_scans_on_bundled_layers(dataflow):
    # each bundled layer on one of CLOSED_FORM_SHAPES in turn, from a shape
    # of its own per dataflow, with input buffers of exactly the
    # footprint's words: the closed form is the scan's one epoch, its words
    # in address order.  About 1.5 s a dataflow
    base = load_config(default_config_path())
    layers = [layer for path in bundled_workloads().values() for layer in load_topology(path)]
    first = ("os", "ws", "is").index(dataflow)
    shapes = itertools.islice(itertools.cycle(CLOSED_FORM_SHAPES), first, None)
    for layer, (rows, cols) in zip(layers, shapes):
        arch = base.with_overrides(array_rows=rows, array_cols=cols, dataflow=dataflow)
        ts = generate_traces(layer, arch)
        for stream in (ts.ifmap_reads, ts.filter_reads):
            capacity = stream.footprint.words * arch.word_bytes
            [closed] = epochize(stream, capacity, arch.word_bytes)
            [scanned] = epochize(check_only_footprint(stream), capacity, arch.word_bytes)
            assert ((closed.first_use_cycle, closed.last_use_cycle, closed.word_bytes)
                    == (scanned.first_use_cycle, scanned.last_use_cycle,
                        scanned.word_bytes)), layer
            assert closed.addresses.dtype == scanned.addresses.dtype
            assert np.array_equal(closed.addresses, np.sort(scanned.addresses)), layer


@settings(max_examples=100, deadline=None)
@given(small_layers(), st.integers(1, 6), st.integers(1, 6),
       st.sampled_from(["os", "ws", "is"]), st.sampled_from([1, 2, 4]),
       st.sampled_from([1, 3, 16]), st.data())
def test_segmented_scans_match_reference(layer, rows, cols, dataflow, word, chunk,
                                         data):
    # epochize's windows, ofmap_figures' bitmap and the report's DRAM
    # counts walk the trace in chunks; tiny chunks must not matter
    arch = make_arch(rows, cols, dataflow, word_bytes=word)
    ts = generate_traces(layer, arch)
    with mock.patch("systolicsim.trace.CHUNK_EVENTS", chunk):
        for reads in (ts.ifmap_reads, ts.filter_reads):
            footprint = len(distinct_addresses(reads))
            assert_same_epochs(reads, data.draw(st.integers(word, (footprint + 2) * word)),
                               word)
        got = ts.final_writes.cycles, ts.final_writes.addresses
        figures = ofmap_figures(layer, arch, ts.ofmap_writes)
        report = simulate_layer(layer, arch).report
    want = final_writes_reference(ts.ofmap_writes)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert figures == ofmap_figures(layer, arch, ts.ofmap_writes)
    assert figures[2] == len(partial_reads(ts.ofmap_writes))
    assert report == simulate_layer(layer, arch).report


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 40)), min_size=1, max_size=60),
       st.sampled_from([1, 2, 4]), st.data())
def test_unaligned_addresses_match_reference(pairs, word, data):
    # addresses need not be word-aligned: an epoch lists each word by the
    # first byte of the word, counted from the lowest address
    arr = np.array(pairs, dtype=np.int64)
    trace = sorted_trace(arr[:, 0], arr[:, 1] + 7)
    footprint = len(np.unique((trace.addresses - 7) // word))
    assert_same_epochs(trace, data.draw(st.integers(word, (footprint + 2) * word)), word)
