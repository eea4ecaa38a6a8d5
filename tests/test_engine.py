import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (addr_filter, addr_ifmap, addr_ofmap, fold_list, in_file_order,
                     make_arch, pairs_to_trace, partial_reads, per_cycle_counts,
                     random_small_layer)
from oracle import simulate_grid
from systolicsim.bundled import bundled_workloads
from systolicsim.config import Dataflow, LayerSpec, load_topology, lower_gemm
from systolicsim.engine import generate_traces
from systolicsim.errors import ConfigError
from systolicsim.mapping import workload_counts
from systolicsim.simulate import simulate_layer


def test_addr_ifmap_examples():
    layer = LayerSpec("t", 8, 5, 2, 2, 3, 2, 1)
    arch = make_arch(4, 4)
    assert addr_ifmap(0, 0, 0, layer, arch) == arch.ifmap_offset
    assert addr_ifmap(1, 0, 0, layer, arch) - arch.ifmap_offset == 15  # 5*3 words
    big = arch.with_overrides(ifmap_offset=10**6)
    assert addr_ifmap(0, 0, 0, layer, big) == 10**6


def test_addr_filter_and_ofmap_layouts():
    layer = LayerSpec("t", 8, 5, 2, 2, 3, 2, 1)
    arch = make_arch(4, 4)
    # (f, r, s, c) row-major with channel innermost
    assert addr_filter(1, 0, 0, 0, layer, arch) - arch.filter_offset == 12
    assert addr_filter(0, 1, 1, 2, layer, arch) - arch.filter_offset == 11
    assert addr_ofmap(3, 1, layer, arch) - arch.ofmap_offset == 7


def test_addr_out_of_range():
    layer = LayerSpec("t", 4, 4, 2, 2, 1, 1, 1)
    arch = make_arch(2, 2)
    with pytest.raises(IndexError):
        addr_ifmap(4, 0, 0, layer, arch)
    with pytest.raises(IndexError):
        addr_filter(1, 0, 0, 0, layer, arch)
    with pytest.raises(IndexError):
        addr_ofmap(9, 0, layer, arch)


def test_overlapping_regions_rejected():
    layer = LayerSpec("t", 8, 8, 3, 3, 4, 4, 1)
    arch = make_arch(4, 4).with_overrides(filter_offset=10)  # inside ifmap span
    with pytest.raises(ConfigError, match="overlap"):
        generate_traces(layer, arch)


def assert_matches_oracle(layer, arch):
    ts = generate_traces(layer, arch)
    orc = simulate_grid(layer, arch)
    assert ts.total_cycles == orc.total_cycles
    assert in_file_order(ts.ifmap_reads) == pairs_to_trace(orc.ifmap_reads)
    assert in_file_order(ts.filter_reads) == pairs_to_trace(orc.filter_reads)
    assert in_file_order(ts.ofmap_writes) == pairs_to_trace(orc.ofmap_writes)
    assert in_file_order(partial_reads(ts.ofmap_writes)) == \
        pairs_to_trace(orc.ofmap_partial_reads)
    return ts, orc


@st.composite
def wide_word_archs(draw, layer):
    """An array of at most 8x8 PEs at a word of 2 or 4 bytes, with the three
    operand regions at random, non-overlapping, unaligned offsets in a
    random order."""
    word = draw(st.sampled_from([2, 4]))
    counts = workload_counts(layer)
    sizes = {"ifmap": layer.ifmap_h * layer.ifmap_w * layer.channels * word,
             "filter": counts.n_filters * counts.window_size * word,
             "ofmap": counts.n_windows * counts.n_filters * word}
    offsets, at = {}, draw(st.integers(0, 10**6))
    for region in draw(st.permutations(list(sizes))):
        offsets[f"{region}_offset"] = at
        at += sizes[region] + draw(st.integers(0, 3 * word))
    arch = make_arch(draw(st.integers(1, 8)), draw(st.integers(1, 8)),
                     draw(st.sampled_from(["os", "ws", "is"])), word_bytes=word)
    return arch.with_overrides(**offsets)


small_layer_strategy = st.builds(random_small_layer, st.builds(random.Random, st.integers()))


@settings(max_examples=150, deadline=None)
@given(st.data(), small_layer_strategy)
def test_wide_words_and_random_offsets_match_oracle(data, layer):
    # within the oracle's bounds (4096 PEs, 10**6 MACs): at most 64 PEs and
    # 36 windows x 4 filters x 36 elements = 5184 MACs
    assert_matches_oracle(layer, data.draw(wide_word_archs(layer)))


def test_os_gemm4_cycle_count():
    ts, _ = assert_matches_oracle(lower_gemm(4, 4, 4), make_arch(4, 4, "os"))
    assert ts.total_cycles == 10


def test_os_square_gemm_law():
    for n in range(2, 33):
        ts, orc = assert_matches_oracle(lower_gemm(n, n, n), make_arch(n, n, "os"))
        assert ts.total_cycles == 3 * n - 2 == orc.total_cycles


LAW_SHAPES = ((8, 8), (16, 32), (128, 128), (64, 8))


def fold_grid_runtime(plan) -> int:
    """The runtime the fold grid predicts: folds run back to back, a fold
    of r rows and c columns taking r + c + stream_len - 2 cycles, and r
    more under WS and IS to load its pinned operand."""
    load = plan.dataflow != Dataflow.OS
    return sum(n_r * n_c * (r + c + plan.stream_len - 2 + load * r)
               for n_r, r in plan.row_runs for n_c, c in plan.col_runs)


def test_fold_grid_runtime_law_on_bundled_layers():
    # each bundled layer under each dataflow on one of LAW_SHAPES in turn:
    # 129 of the 516 cases, every layer, dataflow and shape among them
    layers = [layer for path in bundled_workloads().values() for layer in load_topology(path)]
    cases = itertools.product(layers, ("os", "ws", "is"))
    for (layer, df), shape in zip(cases, itertools.cycle(LAW_SHAPES)):
        ts = generate_traces(layer, make_arch(*shape, df))
        assert ts.total_cycles == fold_grid_runtime(ts.plan), (layer, df, ts.plan)


def test_os_single_mac_is_one_cycle():
    ts = generate_traces(lower_gemm(1, 1, 1), make_arch(1, 1, "os"))
    assert ts.total_cycles == 1


def test_ws_square_span():
    ts, _ = assert_matches_oracle(lower_gemm(4, 4, 4), make_arch(4, 4, "ws"))
    assert ts.total_cycles == 14  # 2*4 + 4 + 4 - 2


def test_is_mirrors_ws_when_windows_equal_filters():
    ws = generate_traces(lower_gemm(4, 4, 4), make_arch(4, 4, "ws"))
    is_ = generate_traces(lower_gemm(4, 4, 4), make_arch(4, 4, "is"))
    assert ws.total_cycles == is_.total_cycles == 14


def test_ws_is_one_load_one_mac():
    for df in ("ws", "is"):
        ts = generate_traces(lower_gemm(1, 1, 1), make_arch(1, 1, df))
        assert ts.total_cycles == 2


def test_ws_per_fold_read_counts():
    # single fold: W_sz=3, M=2, N_w=18 on a 4x4 array
    layer = LayerSpec("t", 8, 3, 3, 1, 1, 2, 1)
    counts = workload_counts(layer)
    assert (counts.window_size, counts.n_filters, counts.n_windows) == (3, 2, 18)
    arch = make_arch(4, 4, "ws")
    ts = generate_traces(layer, arch)
    assert ts.plan.num_folds == 1
    [fold] = fold_list(counts, arch)
    assert len(ts.filter_reads) == fold.rows_used * fold.cols_used
    assert len(ts.ifmap_reads) == fold.rows_used * counts.n_windows


def test_ws_read_counts_closed_form_multi_fold():
    layer = LayerSpec("t", 6, 6, 3, 3, 2, 5, 1)  # W_sz=18, M=5, N_w=16
    arch = make_arch(4, 2, "ws")
    ts = generate_traces(layer, arch)
    counts = workload_counts(layer)
    folds = fold_list(counts, arch)
    assert len(ts.filter_reads) == sum(f.rows_used * f.cols_used for f in folds)
    assert len(ts.ifmap_reads) == sum(f.rows_used * counts.n_windows for f in folds)
    assert_matches_oracle(layer, arch)


def test_ws_beats_is_when_fewer_stationary_folds():
    # N_w=100, M=1, W_sz <= rows, cols=1: WS maps once, IS maps 100 times
    layer = lower_gemm(100, 4, 1)
    ws = generate_traces(layer, make_arch(4, 1, "ws"))
    is_ = generate_traces(layer, make_arch(4, 1, "is"))
    assert ws.plan.num_folds == 1
    assert is_.plan.num_folds == 100
    assert ws.total_cycles < is_.total_cycles


def test_cross_reduction_fold_partials():
    # W_sz=12 on 4 rows: 3 reduction folds; partials re-read by later folds
    layer = LayerSpec("t", 5, 4, 2, 2, 3, 2, 1)
    counts = workload_counts(layer)
    for df in ("ws", "is"):
        ts, _ = assert_matches_oracle(layer, make_arch(4, 4, df))
        n_red = 3
        footprint = counts.n_windows * counts.n_filters
        assert len(ts.ofmap_writes) == n_red * footprint
        assert len(partial_reads(ts.ofmap_writes)) == (n_red - 1) * footprint
        report = simulate_layer(layer, make_arch(4, 4, df)).report
        assert report.sram_reads_ofmap_partials == (n_red - 1) * footprint


EDGE_BOUNDS = {
    # dataflow -> (ifmap bound field, filter bound field) of a fold
    "os": ("rows_used", "cols_used"),
    "ws": ("rows_used", "cols_used"),
    "is": ("cols_used", "rows_used"),
}


def _check_invariants(layer, arch):
    ts = generate_traces(layer, arch)
    counts = workload_counts(layer)
    folds = fold_list(counts, arch)
    # MAC conservation implied by the folds behind the traces
    assert ts.plan.num_folds == len(folds)
    assert sum(f.rows_used * f.cols_used * f.stream_len for f in folds) == counts.macs_total
    # runtime defined by the output trace
    writes = ts.ofmap_writes.collect()
    assert ts.total_cycles == writes.max_cycle + 1
    # OFMAP completeness: every output address written, finals exactly once
    addrs, write_counts = np.unique(writes.addresses, return_counts=True)
    expected = arch.ofmap_offset + arch.word_bytes * np.arange(
        counts.n_windows * counts.n_filters, dtype=np.int64)
    assert np.array_equal(addrs, expected)
    n_red = 1 if arch.dataflow is Dataflow.OS else -(-counts.window_size // arch.array_rows)
    assert np.all(write_counts == n_red)
    # stall-free edge contract: per-cycle demand within the active edge width
    max_rows = max(f.rows_used for f in folds)
    max_cols = max(f.cols_used for f in folds)
    ifmap_bound = max_rows if EDGE_BOUNDS[arch.dataflow.value][0] == "rows_used" else max_cols
    filter_bound = max_rows if EDGE_BOUNDS[arch.dataflow.value][1] == "rows_used" else max_cols
    if len(ts.ifmap_reads):
        assert per_cycle_counts(ts.ifmap_reads)[1].max() <= ifmap_bound
    if len(ts.filter_reads):
        assert per_cycle_counts(ts.filter_reads)[1].max() <= filter_bound
    write_peak = per_cycle_counts(writes)[1].max()
    if arch.dataflow is Dataflow.OS:
        assert write_peak <= min(max_rows, max_cols)
    else:
        assert write_peak <= max_cols
    # determinism: regeneration is identical
    again = generate_traces(layer, arch)
    for attr in ("ifmap_reads", "filter_reads", "ofmap_writes"):
        assert getattr(ts, attr).collect() == getattr(again, attr).collect()


def test_trace_invariants_random_sample():
    rng = random.Random(4242)
    for _ in range(30):
        layer = random_small_layer(rng, max_side=9, max_channels=5, max_filters=6)
        arch = make_arch(rng.randint(1, 10), rng.randint(1, 10),
                         rng.choice(["os", "ws", "is"]))
        _check_invariants(layer, arch)


def test_trace_invariants_at_scale():
    # beyond oracle scale: a mid-size conv on a 128x128 array
    layer = LayerSpec("t", 30, 30, 3, 3, 64, 96, 1)
    for df in ("os", "ws", "is"):
        _check_invariants(layer, make_arch(128, 128, df, ifmap_kb=256, filter_kb=256))


def test_transpose_symmetry_constructed_layers():
    # when N_w == M, WS and IS are role swaps with equal spans
    for m, k in ((6, 5), (13, 20), (32, 9)):
        layer = lower_gemm(m, k, m)
        counts = workload_counts(layer)
        for rows, cols in ((4, 4), (8, 2), (3, 7)):
            ws_arch, is_arch = make_arch(rows, cols, "ws"), make_arch(rows, cols, "is")
            ws, is_ = generate_traces(layer, ws_arch), generate_traces(layer, is_arch)
            assert ws.total_cycles == is_.total_cycles
            assert [(f.rows_used, f.cols_used) for f in fold_list(counts, ws_arch)] == \
                   [(f.rows_used, f.cols_used) for f in fold_list(counts, is_arch)]
