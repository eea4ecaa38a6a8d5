import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import fold_list, make_arch, random_medium_layer, write_topology
from systolicsim import sweeps
from systolicsim.config import LayerSpec
from systolicsim.errors import ConfigError, TopologyError
from systolicsim.mapping import workload_counts
from systolicsim.simulate import simulate_layer
from systolicsim.sweeps import (SWEEP_COLUMNS, SweepSpec, aspect_shapes,
                                partition_output_channels, run_sweep,
                                write_sweep_csv)

BASE = make_arch(8, 8, "os", ifmap_kb=64, filter_kb=64, ofmap_kb=64)


@pytest.fixture
def tiny_workload(tmp_path):
    return str(write_topology(tmp_path / "tiny.csv", [
        ("a", 6, 6, 3, 3, 2, 4, 1),
        ("b", 8, 1, 1, 1, 5, 3, 1),
    ]))


def test_dataflow_study_default_axes(tiny_workload):
    rows = run_sweep(SweepSpec("dataflow", [tiny_workload]), BASE)
    assert len(rows) == 5 * 3
    assert all(r["status"] == "ok" for r in rows)
    assert {r["dataflow"] for r in rows} == {"os", "ws", "is"}
    assert {r["rows"] for r in rows} == {8, 16, 32, 64, 128}


def test_dataflow_study_single_cell_axes(tiny_workload):
    rows = run_sweep(SweepSpec("dataflow", [tiny_workload], axis=(8,)), BASE)
    assert len(rows) == 3


def test_dataflow_study_ws_wins_with_many_windows(tmp_path):
    wl = str(write_topology(tmp_path / "wide.csv", [("g", 200, 1, 1, 1, 4, 1, 1)]))
    rows = run_sweep(SweepSpec("dataflow", [wl], axis=(4, 8, 16)), BASE)
    for size in (4, 8, 16):
        by_df = {r["dataflow"]: r["total_cycles"] for r in rows if r["rows"] == size}
        assert by_df["ws"] <= by_df["is"]


def test_memory_sweep_ladder(tiny_workload):
    rows = run_sweep(SweepSpec("memory", [tiny_workload], dataflows=("os",)), BASE)
    assert len(rows) == 7
    assert [r["sram_kb"] for r in rows] == [32, 64, 128, 256, 512, 1024, 2048]
    bws = [r["avg_rd_bw"] for r in rows]
    assert all(a >= b for a, b in zip(bws, bws[1:]))


def test_memory_sweep_single_size(tiny_workload):
    rows = run_sweep(SweepSpec("memory", [tiny_workload], axis=(64,)), BASE)
    assert len(rows) == 3  # one per dataflow
    assert all(r["sram_kb"] == 64 for r in rows)


def test_memory_sweep_flags_underflow_cells(tmp_path):
    # >1024 rows stream distinct ifmap words in one cycle; 1KB buffer underflows
    wl = str(write_topology(tmp_path / "wide.csv", [("w", 1100, 1, 1, 1, 1100, 1, 1)]))
    arch = make_arch(2048, 1, "ws", ifmap_kb=1, filter_kb=1, ofmap_kb=64)
    rows = run_sweep(SweepSpec("memory", [wl], axis=(1,), dataflows=("ws",)),
                     arch)
    assert len(rows) == 1
    assert rows[0]["status"].startswith("error")
    assert "underflow" in rows[0]["status"]


def test_memory_sweep_flags_buffers_smaller_than_a_word(tiny_workload):
    rows = run_sweep(SweepSpec("memory", [tiny_workload], axis=(1, 64),
                               dataflows=("os",)), make_arch(8, 8, "os", word_bytes=2048))
    assert [r["sram_kb"] for r in rows] == [1, 64]
    assert rows[0]["status"] == "error: ifmap buffer of 1 KB cannot hold one 2048-byte word"
    assert rows[1]["status"] == "ok"


def test_memory_sweep_program_bug_propagates(tiny_workload, monkeypatch):
    # only the simulator's own errors become flagged cells; a bug must crash
    def broken(traces, arch):
        raise TypeError("bug in the memory model")

    monkeypatch.setattr("systolicsim.simulate.dram_demand", broken)
    with pytest.raises(TypeError, match="bug in the memory model"):
        run_sweep(SweepSpec("memory", [tiny_workload], axis=(64,),
                            dataflows=("os",)), BASE)


def test_aspect_shapes_count_and_area():
    shapes = aspect_shapes(16384)
    assert len(shapes) == 9
    assert shapes[0] == (8, 2048) and shapes[-1] == (2048, 8)
    assert all(r * c == 16384 for r, c in shapes)


def test_aspect_study_square_gemm_prefers_square(tmp_path):
    wl = str(write_topology(tmp_path / "g128.csv", [("g", 128, 1, 1, 1, 128, 128, 1)]))
    rows = run_sweep(SweepSpec("aspect", [wl], dataflows=("os",)), BASE)
    assert len(rows) == 9
    best = min(rows, key=lambda r: r["total_cycles"])
    assert (best["rows"], best["cols"]) == (128, 128)


def test_partition_even_split():
    layer = LayerSpec("t", 8, 8, 3, 3, 4, 32, 1)
    shards = partition_output_channels(layer, 4)
    assert [s.num_filters for s in shards] == [8, 8, 8, 8]


def test_partition_uneven_split_ceil_first():
    layer = LayerSpec("t", 8, 8, 3, 3, 4, 30, 1)
    shards = partition_output_channels(layer, 4)
    assert [s.num_filters for s in shards] == [8, 8, 7, 7]


def test_partition_identity():
    layer = LayerSpec("t", 8, 8, 3, 3, 4, 30, 1)
    (shard,) = partition_output_channels(layer, 1)
    assert shard.num_filters == layer.num_filters


def test_partition_rejects_empty_shards():
    layer = LayerSpec("t", 8, 8, 3, 3, 4, 3, 1)
    with pytest.raises(TopologyError, match="empty shard"):
        partition_output_channels(layer, 4)


def test_scale_study_degenerate_rung_is_identity(tiny_workload):
    rows = run_sweep(SweepSpec("scale", [tiny_workload], axis=(64,),
                               dataflows=("os",)), BASE)
    net = {r["mode"]: r for r in rows if r["layer"] == "network"}
    assert net["up"]["total_cycles"] == net["out"]["total_cycles"]


def test_scale_study_simulates_the_64_pe_rung_once(tiny_workload):
    # at 64 PEs scale-up (one 8x8) and scale-out (one node of 8x8) are the
    # same simulation, one per layer; at 256 PEs "a" (4 filters) runs up
    # and out, and "b" (3 filters) is skipped
    for ladder, calls in (((64,), 2), ((64, 256), 2 + 2)):
        with mock.patch.object(sweeps, "simulate_layer",
                               wraps=sweeps.simulate_layer) as simulate:
            rows = run_sweep(SweepSpec("scale", [tiny_workload], axis=ladder,
                                       dataflows=("os",)), BASE)
        assert simulate.call_count == calls
    at_64 = {(r["layer"], r["mode"]): r for r in rows if r["pe_count"] == 64}
    for layer in ("a", "b", "network"):
        up, out = at_64[layer, "up"], at_64[layer, "out"]
        assert [up[c] for c in sweeps.SWEEP_COLUMNS if c != "mode"] == \
            [out[c] for c in sweeps.SWEEP_COLUMNS if c != "mode"]


def test_scale_study_shard_runtime(tmp_path):
    # M=8 at the 256-PE rung: 4 nodes, shards of M=2
    layer = ("m8", 10, 10, 3, 3, 4, 8, 1)
    wl = str(write_topology(tmp_path / "m8.csv", [layer]))
    rows = run_sweep(SweepSpec("scale", [wl], axis=(256,), dataflows=("os",)), BASE)
    out_row = next(r for r in rows if r["mode"] == "out" and r["layer"] == "m8")
    shard = LayerSpec("m8_s", 10, 10, 3, 3, 4, 2, 1)
    expect = simulate_layer(shard, BASE.with_overrides(array_rows=8, array_cols=8))
    assert out_row["total_cycles"] == expect.report.total_cycles


def test_scale_study_macs_conserved_between_modes(tmp_path):
    layer = LayerSpec("t", 9, 9, 3, 3, 3, 12, 1)
    for nodes in (1, 4, 16):
        shards = partition_output_channels(layer, min(nodes, layer.num_filters))
        assert sum(workload_counts(s).macs_total for s in shards) == \
            workload_counts(layer).macs_total


def test_scale_study_skips_undersplittable_layers(tmp_path):
    wl = str(write_topology(tmp_path / "m2.csv", [("m2", 6, 6, 3, 3, 2, 2, 1)]))
    rows = run_sweep(SweepSpec("scale", [wl], axis=(256,), dataflows=("os",)), BASE)
    assert any(r["status"].startswith("skipped") for r in rows)
    assert not any(r["layer"] == "network" for r in rows)


def test_scale_study_error_row_has_up_keys_and_layer_name(tmp_path):
    # the first layer's ifmap runs into the filter region at offset 10**7
    wl = str(write_topology(tmp_path / "big.csv", [("big", 3163, 3163, 1, 1, 1, 8, 1),
                                                   ("ok", 6, 6, 3, 3, 2, 4, 1)]))
    rows = run_sweep(SweepSpec("scale", [wl], axis=(64, 256), dataflows=("os",)),
                     BASE)
    errors = [r for r in rows if r["layer"] == "big"]
    assert [(r["pe_count"], r["mode"], r["rows"]) for r in errors] == [(64, "up", 8),
                                                                      (256, "up", 16)]
    for r in errors:
        assert r["status"].startswith("error: layer 'big': ifmap and filter")
    assert [(r["pe_count"], r["mode"]) for r in rows if r["layer"] == "network"] == [
        (64, "up"), (64, "out"), (256, "up"), (256, "out")]


def test_scale_study_skipped_layer_gets_one_out_row(tmp_path):
    wl = str(write_topology(tmp_path / "mixed.csv", [("m2", 6, 6, 3, 3, 2, 2, 1),
                                                     ("m8", 6, 6, 3, 3, 2, 8, 1)]))
    rows = run_sweep(SweepSpec("scale", [wl], axis=(256,), dataflows=("os",)), BASE)
    skipped = [r for r in rows if r["layer"] == "m2"]
    assert [(r["mode"], r["rows"], r["cols"], r["status"]) for r in skipped] == [
        ("out", 8, 8, "skipped: 2 filters < 4 nodes")]
    for mode in ("up", "out"):
        layer, net = (next(r for r in rows if r["layer"] == name and r["mode"] == mode)
                      for name in ("m8", "network"))
        assert net["total_cycles"] == layer["total_cycles"]


def test_run_sweep_dispatch_and_csv(tmp_path, tiny_workload):
    spec = SweepSpec(study="dataflow", workloads=[tiny_workload],
                     axis=(4, 8), dataflows=("os",))
    rows = run_sweep(spec, BASE)
    assert len(rows) == 2
    out = tmp_path / "sweep.csv"
    write_sweep_csv(rows, out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 3


def test_sweep_spec_validation(tiny_workload):
    with pytest.raises(ValueError):
        SweepSpec(study="bogus", workloads=[tiny_workload])
    with pytest.raises(ValueError):
        SweepSpec(study="dataflow", workloads=[])
    with pytest.raises(ValueError):
        SweepSpec(study="dataflow", workloads=[tiny_workload], dataflows=())


@pytest.mark.parametrize("study,axis", [
    ("dataflow", (0,)), ("memory", (64, -1)), ("aspect", (256, 1024)), ("aspect", (100,)),
    ("aspect", ()), ("scale", (64, 100)), ("scale", (0,)),
])
def test_sweep_spec_rejects_a_bad_axis(tiny_workload, study, axis):
    with pytest.raises(ConfigError):
        SweepSpec(study, [tiny_workload], axis=axis)


def test_sweep_spec_checks_only_its_own_axis(tiny_workload):
    # 1 KB buffers and 8x8 arrays are no PE budget, but are the axes of
    # the memory and dataflow studies
    assert SweepSpec("memory", [tiny_workload], axis=(1,)).axis == (1,)
    assert SweepSpec("dataflow", [tiny_workload], axis=(8,)).axis == (8,)
    assert SweepSpec("aspect", [tiny_workload]).axis == sweeps.STUDY_AXES["aspect"][0]


@settings(max_examples=40, deadline=None)
@given(st.builds(random_medium_layer, st.builds(random.Random, st.integers())),
       st.integers(1, 9), st.integers(1, 8), st.integers(1, 8),
       st.sampled_from(["os", "ws", "is"]))
def test_partition_conserves_macs(layer, nodes, rows, cols, dataflow):
    # the MACs that the shards' folds map, and that their reports count,
    # add up to the layer's
    assume(nodes <= layer.num_filters)
    arch = make_arch(rows, cols, dataflow)
    shards = partition_output_channels(layer, nodes)
    assert len(shards) == nodes

    def mapped_macs(layer):
        return sum(f.rows_used * f.cols_used * f.stream_len
                   for f in fold_list(workload_counts(layer), arch))

    macs = workload_counts(layer).macs_total
    assert sum(mapped_macs(s) for s in shards) == mapped_macs(layer) == macs
    assert sum(simulate_layer(s, arch).report.macs_total for s in shards) == macs
