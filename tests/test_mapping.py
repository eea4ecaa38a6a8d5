import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import distinct_addresses, fold_list, make_arch, random_medium_layer
from systolicsim.config import LayerSpec, lower_gemm
from systolicsim.engine import generate_traces
from systolicsim.mapping import WorkloadCounts, fold_plan, footprint_words, workload_counts


def test_counts_small_conv():
    c = workload_counts(LayerSpec("t", 5, 5, 3, 3, 1, 1, 1))
    assert (c.ofmap_h, c.ofmap_w) == (3, 3)
    assert (c.n_windows, c.window_size, c.n_filters) == (9, 9, 1)


def test_counts_resnet_conv1():
    c = workload_counts(LayerSpec("conv1", 230, 230, 7, 7, 3, 64, 2))
    assert (c.ofmap_h, c.ofmap_w) == (112, 112)
    assert (c.n_windows, c.window_size, c.n_filters) == (12544, 147, 64)


def test_counts_gemm_identity():
    c = workload_counts(lower_gemm(4, 4, 4))
    assert (c.n_windows, c.window_size, c.n_filters) == (4, 4, 4)
    assert c.macs_total == 64


def test_fold_schedule_os_ragged():
    # N_w=9, M=1, W_sz=9 on a 4x4 array
    counts = workload_counts(LayerSpec("t", 5, 5, 3, 3, 1, 1, 1))
    plan = fold_plan(counts, make_arch(4, 4, "os"))
    assert (plan.row_runs, plan.col_runs, plan.stream_len) == ([(2, 4), (1, 1)], [(1, 1)], 9)
    folds = fold_list(counts, make_arch(4, 4, "os"))
    assert [f.rows_used for f in folds] == [4, 4, 1]
    assert all(f.cols_used == 1 for f in folds)
    assert all(f.stream_len == 9 for f in folds)


def test_fold_schedule_ws_reduction_split():
    # W_sz=147, M=64 on 128x128: two reduction folds, one filter fold
    counts = workload_counts(LayerSpec("conv1", 230, 230, 7, 7, 3, 64, 2))
    plan = fold_plan(counts, make_arch(128, 128, "ws"))
    assert (plan.row_runs, plan.col_runs) == ([(1, 128), (1, 19)], [(1, 64)])
    folds = fold_list(counts, make_arch(128, 128, "ws"))
    assert [f.rows_used for f in folds] == [128, 19]
    assert all(f.cols_used == 64 for f in folds)
    assert all(f.stream_len == counts.n_windows for f in folds)


def test_fold_schedule_is_perfect_fit():
    counts = workload_counts(lower_gemm(4, 4, 4))
    plan = fold_plan(counts, make_arch(4, 4, "is"))
    assert plan.num_folds == 1
    assert (plan.row_runs, plan.col_runs) == ([(1, 4)], [(1, 4)])
    [fold] = fold_list(counts, make_arch(4, 4, "is"))
    assert (fold.rows_used, fold.cols_used, fold.stream_len) == (4, 4, 4)


def mapping_efficiency(counts, arch):
    active, area = fold_plan(counts, arch).pe_totals
    return active / area


def test_mapping_efficiency_perfect_fold():
    counts = workload_counts(lower_gemm(4, 4, 4))
    assert mapping_efficiency(counts, make_arch(4, 4, "os")) == 1.0


def test_mapping_efficiency_ragged():
    counts = workload_counts(LayerSpec("t", 5, 5, 3, 3, 1, 1, 1))
    assert mapping_efficiency(counts, make_arch(4, 4, "os")) == pytest.approx(0.1875)


def test_mapping_efficiency_single_pe_mapping():
    for k in (2, 3, 7):
        counts = workload_counts(lower_gemm(1, 5, 1))
        assert mapping_efficiency(counts, make_arch(k, k, "os")) == pytest.approx(1 / k**2)


layer_strategy = st.builds(
    random_medium_layer, st.builds(random.Random, st.integers(0, 10**9)))
arch_strategy = st.builds(
    make_arch, st.integers(1, 12), st.integers(1, 12),
    st.sampled_from(["os", "ws", "is"]))


@settings(max_examples=150, deadline=None)
@given(layer_strategy, arch_strategy)
def test_work_conservation(layer, arch):
    counts = workload_counts(layer)
    work = sum(f.rows_used * f.cols_used * f.stream_len for f in fold_list(counts, arch))
    assert work == counts.macs_total


@settings(max_examples=150, deadline=None)
@given(layer_strategy, arch_strategy)
def test_fold_count_formulas(layer, arch):
    counts = workload_counts(layer)
    plan = fold_plan(counts, arch)
    rows, cols = arch.array_rows, arch.array_cols
    expected = {
        "os": math.ceil(counts.n_windows / rows) * math.ceil(counts.n_filters / cols),
        "ws": math.ceil(counts.window_size / rows) * math.ceil(counts.n_filters / cols),
        "is": math.ceil(counts.window_size / rows) * math.ceil(counts.n_windows / cols),
    }[arch.dataflow.value]
    assert plan.num_folds == len(fold_list(counts, arch)) == expected


@settings(max_examples=150, deadline=None)
@given(layer_strategy, arch_strategy)
def test_efficiency_one_iff_divisible(layer, arch):
    counts = workload_counts(layer)
    folds = fold_list(counts, arch)
    eff = Fraction(sum(f.rows_used * f.cols_used for f in folds),
                   len(folds) * arch.array_rows * arch.array_cols)
    row_work = {"os": counts.n_windows, "ws": counts.window_size,
                "is": counts.window_size}[arch.dataflow.value]
    col_work = {"os": counts.n_filters, "ws": counts.n_filters,
                "is": counts.n_windows}[arch.dataflow.value]
    divisible = row_work % arch.array_rows == 0 and col_work % arch.array_cols == 0
    assert (eff == 1) == divisible
    assert 0 < eff <= 1


@st.composite
def grid_counts(draw):
    """Workload counts that need not come from a real layer, so the fold
    grid's row and column work range widely against the array."""
    n_w, w_sz, m = (draw(st.integers(1, hi)) for hi in (300, 200, 80))
    return WorkloadCounts(n_w, 1, n_w, w_sz, m, n_w * w_sz * m)


def _fold_sums(folds, dataflow):
    """(ifmap reads, filter reads, ofmap writes) summed fold by fold."""
    mapped = sum(f.rows_used * f.cols_used for f in folds)
    through_rows = sum(f.rows_used * f.stream_len for f in folds)
    through_cols = sum(f.cols_used * f.stream_len for f in folds)
    return {"os": (through_rows, through_cols, mapped),
            "ws": (through_rows, mapped, through_cols),
            "is": (mapped, through_rows, through_cols)}[dataflow]


@settings(max_examples=200, deadline=None)
@given(st.one_of(layer_strategy.map(workload_counts), grid_counts()),
       st.integers(1, 17), st.integers(1, 17), st.sampled_from(["os", "ws", "is"]))
def test_closed_forms_match_fold_sums(counts, rows, cols, dataflow):
    arch = make_arch(rows, cols, dataflow)
    folds = fold_list(counts, arch)
    plan = fold_plan(counts, arch)
    assert plan.pe_totals == (
        sum(f.rows_used * f.cols_used for f in folds), len(folds) * rows * cols)
    assert plan.sram_event_counts == _fold_sums(folds, dataflow)


@st.composite
def footprint_layers(draw):
    """Lowered GEMMs, and convolutions whose stride may skip input rows or
    columns that no window reads."""
    if draw(st.booleans()):
        return lower_gemm(*(draw(st.integers(1, 12)) for _ in range(3)))
    fh, fw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return LayerSpec("f", draw(st.integers(fh, 14)), draw(st.integers(fw, 14)), fh, fw,
                     draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 6)))


@settings(max_examples=150, deadline=None)
@given(footprint_layers(), st.integers(1, 5), st.integers(1, 5),
       st.sampled_from(["os", "ws", "is"]), st.sampled_from([1, 2, 4]),
       st.integers(0, 999), st.integers(0, 99))
def test_footprint_words_are_the_distinct_words_read(layer, rows, cols, dataflow, word,
                                                      base, gap):
    counts = workload_counts(layer)
    filter_offset = base + layer.ifmap_h * layer.ifmap_w * layer.channels * word + gap
    arch = make_arch(rows, cols, dataflow, word_bytes=word).with_overrides(
        ifmap_offset=base, filter_offset=filter_offset,
        ofmap_offset=filter_offset + counts.n_filters * counts.window_size * word + gap)
    ts = generate_traces(layer, arch)
    for stream, words in zip((ts.ifmap_reads, ts.filter_reads),
                             footprint_words(layer, counts)):
        distinct = distinct_addresses(stream)
        assert len(distinct) == stream.footprint.words == words
        # the closed-form epoch's addresses, in address order
        assert np.array_equal(stream.footprint.addresses(), distinct)
