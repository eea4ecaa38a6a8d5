"""The batched diagonal trace builder against the whole-trace reference.

The engine reads batches of same-shape folds off the fold grid in closed
form and writes each straight into arrays of the closed-form length,
diagonal by diagonal, in cycle order and without a sort;
``engine_reference`` enumerates the folds one by one on its own, keeps
every fold's pieces and sorts the whole trace once.  Each engine trace must
be in cycle order, and in (cycle, address) order it must equal the
reference's, however the folds fall into batches, corner gathers and
chunks.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engine_reference import generate_traces_reference
from helpers import fold_list, in_file_order, make_arch
from systolicsim import engine, trace
from systolicsim.bundled import default_config_path, workload_path
from systolicsim.config import LayerSpec, load_config, load_topology
from systolicsim.engine import generate_traces
from systolicsim.mapping import workload_counts
from systolicsim.trace import Trace

KINDS = ("ifmap_reads", "filter_reads", "ofmap_writes")


def chunk_events(n):
    return mock.patch.object(trace, "CHUNK_EVENTS", n)


def assert_matches_reference(layer, arch):
    got = generate_traces(layer, arch)
    want = generate_traces_reference(layer, arch)
    assert got.plan.num_folds == len(fold_list(got.counts, arch))
    for kind in KINDS:
        assert in_file_order(getattr(got, kind)) == getattr(want, kind), kind
    assert tuple(len(getattr(got, kind)) for kind in KINDS) == \
        got.plan.sram_event_counts
    return got


@st.composite
def small_layers(draw):
    ih = draw(st.integers(1, 9))
    iw = draw(st.integers(1, 9))
    return LayerSpec("h", ih, iw, draw(st.integers(1, min(3, ih))),
                     draw(st.integers(1, min(3, iw))), draw(st.integers(1, 4)),
                     draw(st.integers(1, 6)), draw(st.integers(1, 2)))


@settings(max_examples=200, deadline=None)
@given(small_layers(), st.integers(1, 7), st.integers(1, 7),
       st.sampled_from(["os", "ws", "is"]), st.sampled_from([1, 2, 4]),
       st.sampled_from([1, 2, 5, 40, trace.CHUNK_EVENTS]))
def test_builder_matches_reference(layer, rows, cols, dataflow, word, chunk):
    with chunk_events(chunk):
        assert_matches_reference(layer, make_arch(rows, cols, dataflow, word_bytes=word))


@pytest.mark.parametrize("dataflow", ["os", "ws", "is"])
def test_fold_larger_than_segment(dataflow):
    layer = LayerSpec("t", 9, 8, 3, 3, 4, 6, 1)
    arch = make_arch(5, 3, dataflow, word_bytes=2)
    with chunk_events(16):
        ts = assert_matches_reference(layer, arch)
    assert max(f.rows_used * f.stream_len for f in fold_list(ts.counts, arch)) > 16


@pytest.mark.parametrize("dataflow", ["os", "ws", "is"])
def test_many_folds_per_segment(dataflow):
    layer = LayerSpec("t", 6, 6, 2, 2, 6, 9, 1)
    arch = make_arch(2, 3, dataflow)
    with chunk_events(400):
        ts = assert_matches_reference(layer, arch)
    longest = max(len(getattr(ts, kind)) for kind in KINDS)
    chunks = -(-longest // 400)
    assert chunks > 1 and ts.plan.num_folds >= 4 * chunks


@pytest.mark.parametrize("dataflow", ["os", "ws", "is"])
def test_bundled_layer_spans_segments(dataflow):
    # ~1.1 M events in each trace: many chunks at the default size
    layer = load_topology(workload_path("w2_deepspeech2"))[0]
    arch = load_config(default_config_path()).with_overrides(
        array_rows=16, array_cols=16, dataflow=dataflow)
    ts = assert_matches_reference(layer, arch)
    assert max(len(getattr(ts, kind)) for kind in KINDS) > trace.CHUNK_EVENTS


@settings(max_examples=100, deadline=None)
@given(small_layers(), st.integers(1, 7), st.integers(1, 7),
       st.sampled_from(["os", "ws", "is"]), st.sampled_from([1, 3, 10]))
def test_corner_gathers_in_chunks_match_reference(layer, rows, cols, dataflow, gather):
    # gathers of a few events split every corner over diagonals and folds
    with chunk_events(gather):
        assert_matches_reference(layer, make_arch(rows, cols, dataflow))


@pytest.mark.parametrize("dataflow", ["os", "ws", "is"])
def test_corner_wider_than_a_gather(dataflow):
    # 40x40 corners hold 780 events each: one gather cannot hold one
    layer = LayerSpec("t", 12, 12, 3, 3, 8, 50, 1)
    arch = make_arch(40, 40, dataflow)
    with chunk_events(64):
        ts = assert_matches_reference(layer, arch)
    assert max(min(f.rows_used, f.cols_used) for f in fold_list(ts.counts, arch)) == 40


@pytest.mark.parametrize("chunk", [64, 1 << 20])
@pytest.mark.parametrize("dataflow", ["os", "ws", "is"])
def test_lexsort_fallback(dataflow, chunk, tmp_path):
    # words of 2**55 bytes: a chunk's cycle range times its address range
    # overflows int64, so the trace file's sort falls back to np.lexsort.
    # Each cycle's events are put in descending address order first, an
    # order a read trace may have, so that every chunk of ``chunk`` rows
    # (1 M: the whole trace) needs the sort
    layer = LayerSpec("t", 5, 5, 2, 2, 2, 3, 1)
    arch = make_arch(2, 2, dataflow, word_bytes=2**55).with_overrides(
        ifmap_offset=0, filter_offset=2**61, ofmap_offset=3 * 2**60)
    got, want = generate_traces(layer, arch), generate_traces_reference(layer, arch)
    path = tmp_path / "t.csv"
    for kind in KINDS:
        cycles, addresses = getattr(got, kind).cycles, getattr(got, kind).addresses
        down = np.lexsort((-addresses, cycles))
        with chunk_events(chunk), mock.patch.object(
                trace.np, "lexsort", wraps=np.lexsort) as lexsort:
            Trace(cycles[down], addresses[down]).write_csv(path)
        assert lexsort.called
        assert Trace.read_csv(path) == getattr(want, kind), kind


def test_overlapping_folds_crash(monkeypatch):
    # mutated batches: every fold starts about 1000 cycles before the fold
    # before it ends
    batches = engine._batches

    def overlapping_batches(plan, span, sizes):
        return batches(plan, lambda rows, cols: span(rows, cols) - 1000, sizes)

    monkeypatch.setattr(engine, "_batches", overlapping_batches)
    with chunk_events(1), pytest.raises(AssertionError, match="overlap in time"):
        generate_traces(LayerSpec("t", 6, 6, 2, 2, 2, 4, 1), make_arch(2, 2, "os"))


def test_overlap_in_last_segment_crashes_build():
    # at 2-event segments the step back is in the last segment, or at the
    # boundary into it
    for cycles in ([5, 6, 4], [5, 6, 7, 4], [5, 5, 6, 7, 7, 6]):
        cycles = np.array(cycles, dtype=np.int64)
        with chunk_events(2), pytest.raises(AssertionError, match="overlap in time"):
            engine._check_cycle_order(cycles)
        with chunk_events(2):
            engine._check_cycle_order(np.sort(cycles))


@pytest.mark.parametrize("dataflow", ["os", "ws", "is"])
def test_ofmap_out_of_address_order_crashes(monkeypatch, dataflow):
    # mutated blocks: the drain block's sides swapped, which leaves every
    # event's cycle and address as it is but lists each cycle's drains by
    # descending address
    build = engine._build

    def swapped_drain(layer, arch, blocks, span):
        def mutant(parts, rows):
            *operands, drain = blocks(parts, rows)
            return (*operands, drain._replace(a=drain.b, b=drain.a))
        return build(layer, arch, mutant, span)

    layer, arch = LayerSpec("t", 6, 6, 2, 2, 2, 4, 1), make_arch(3, 3, dataflow)
    monkeypatch.setattr(engine, "_build", swapped_drain)
    with pytest.raises(AssertionError, match="ofmap writes out of address order"):
        generate_traces(layer, arch)


def fold_by_fold(folds):
    """A stand-in for ``engine._batches`` that makes each of ``folds``, in
    the order given, a batch of its own, which starts where the fold before
    it ends, in time and in every trace."""
    def batches(plan, span, sizes):
        out, state = [], (0, 0, 0, 0)
        for f in folds:
            out.append(engine._Batch(f.rows_used, f.cols_used, 1,
                                     (f.row_start, f.col_start, *state), (0,) * 6))
            cost = span(f.rows_used, f.cols_used), *sizes(f.rows_used, f.cols_used)
            state = tuple(a + b for a, b in zip(state, cost))
        return out
    return batches


@pytest.mark.parametrize("dataflow", ["os", "ws", "is"])
def test_fold_by_fold_batches_match(monkeypatch, dataflow):
    # the stand-in that the mutants below change writes the engine's traces
    layer, arch = LayerSpec("t", 6, 5, 2, 2, 2, 5, 1), make_arch(3, 2, dataflow)
    want = generate_traces(layer, arch)
    monkeypatch.setattr(engine, "_batches", fold_by_fold(fold_list(want.counts, arch)))
    got = generate_traces(layer, arch)
    for kind in KINDS:
        assert in_file_order(getattr(got, kind)) == in_file_order(getattr(want, kind)), kind


def test_event_count_off_the_closed_form_crashes(monkeypatch):
    # mutated batches with one fold fewer or one more than the fold grid
    layer, arch = LayerSpec("t", 6, 6, 2, 2, 2, 4, 1), make_arch(2, 2, "os")
    folds = fold_list(workload_counts(layer), arch)
    for mutant in (folds[:-1], folds[:1] + folds):
        monkeypatch.setattr(engine, "_batches", fold_by_fold(mutant))
        with pytest.raises(AssertionError, match="closed form"):
            generate_traces(layer, arch)


@pytest.mark.parametrize("dataflow", ["ws", "is"])
def test_reduction_innermost_crashes(monkeypatch, dataflow):
    # a mutated fold order that runs the reduction chunks innermost: partial
    # sums then end the ofmap trace, so its last N_w*M events are not final
    layer = LayerSpec("t", 4, 4, 2, 2, 2, 3, 1)  # W_sz=8, M=3, N_w=9
    arch = make_arch(4, 2, dataflow)             # 2 reduction and >= 2 column chunks
    folds = sorted(fold_list(workload_counts(layer), arch),
                   key=lambda f: (f.col_start, f.row_start))
    assert len({f.row_start for f in folds}) >= 2
    assert len({f.col_start for f in folds}) >= 2
    monkeypatch.setattr(engine, "_batches", fold_by_fold(folds))
    with pytest.raises(AssertionError, match="last reduction chunk"):
        generate_traces(layer, arch)


@pytest.mark.parametrize("dataflow", ["os", "ws", "is"])
def test_final_writes_are_views_of_the_ofmap_trace(dataflow):
    ts = generate_traces(LayerSpec("t", 4, 4, 2, 2, 2, 3, 1), make_arch(4, 2, dataflow))
    fin, writes = ts.final_writes, ts.ofmap_writes
    assert len(fin) == ts.counts.n_windows * ts.counts.n_filters
    assert fin.cycles.base is writes.cycles and fin.addresses.base is writes.addresses
