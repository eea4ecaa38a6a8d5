"""Acceptance suite: one test per criterion, each prints a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  All tolerances are exact
unless a criterion states otherwise; time bounds are asserted with
wall-clock checks.
"""

import hashlib
import random
import time

import numpy as np

from helpers import (distinct_addresses, fold_list, in_file_order, make_arch,
                     pairs_to_trace, partial_reads, random_small_layer, write_config)
from oracle import direct_convolution, simulate_grid
from systolicsim.bundled import bundled_workloads, default_config_path
from systolicsim.cli import EXIT_OK, main
from systolicsim.config import Dataflow, load_config, load_topology, lower_gemm
from systolicsim.engine import generate_traces
from systolicsim.mapping import workload_counts
from systolicsim.simulate import simulate_layer
from systolicsim.sweeps import SweepSpec, partition_output_channels, run_sweep


def _passed(n, text):
    print(f"\n[criterion {n}] PASS: {text}")


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(20240901)
    cases = 0
    while cases < 200:
        layer = random_small_layer(rng)
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        cases += 1
        for df in ("os", "ws", "is"):
            arch = make_arch(rows, cols, df)
            ts = generate_traces(layer, arch)
            orc = simulate_grid(layer, arch)
            assert ts.total_cycles == orc.total_cycles, (layer, rows, cols, df)
            assert in_file_order(ts.ifmap_reads) == pairs_to_trace(orc.ifmap_reads)
            assert in_file_order(ts.filter_reads) == pairs_to_trace(orc.filter_reads)
            assert in_file_order(ts.ofmap_writes) == pairs_to_trace(orc.ofmap_writes)
            assert in_file_order(partial_reads(ts.ofmap_writes)) == \
                pairs_to_trace(orc.ofmap_partial_reads)
            assert orc.outputs == direct_convolution(layer)
            assert orc.mac_count == workload_counts(layer).macs_total
    elapsed = time.time() - t0
    assert elapsed < 120, f"criterion 1 exceeded 2 min ({elapsed:.0f}s)"
    _passed(1, f"{cases} random layers x 3 dataflows match the grid oracle "
               f"exactly in {elapsed:.0f}s")


def test_criterion_2_square_gemm_validation_law():
    for n in (2, 4, 8, 16, 32):
        arch = make_arch(n, n, "os")
        ts = generate_traces(lower_gemm(n, n, n), arch)
        orc = simulate_grid(lower_gemm(n, n, n), arch)
        assert ts.total_cycles == 3 * n - 2
        assert orc.total_cycles == 3 * n - 2
    _passed(2, "OS GEMM(N,N,N) on NxN arrays runs in 3N-2 cycles for "
               "N in {2,4,8,16,32}, matching the oracle")


def test_criterion_3_conservation():
    rng = random.Random(77)
    checked = 0
    for _ in range(60):
        layer = random_small_layer(rng, max_side=10, max_channels=6, max_filters=8)
        arch = make_arch(rng.randint(1, 12), rng.randint(1, 12),
                         rng.choice(["os", "ws", "is"]))
        ts = generate_traces(layer, arch)
        counts = workload_counts(layer)
        assert sum(f.rows_used * f.cols_used * f.stream_len
                   for f in fold_list(counts, arch)) == counts.macs_total
        addrs, n_writes = np.unique(ts.ofmap_writes.collect().addresses, return_counts=True)
        footprint = arch.ofmap_offset + arch.word_bytes * np.arange(
            counts.n_windows * counts.n_filters, dtype=np.int64)
        assert np.array_equal(addrs, footprint)
        n_red = (1 if arch.dataflow is Dataflow.OS
                 else -(-counts.window_size // arch.array_rows))
        assert np.all(n_writes == n_red)  # finals written exactly once per address
        checked += 1
    _passed(3, f"MACs and OFMAP footprint conserved on {checked} random "
               f"layer/array/dataflow combinations")


def test_criterion_4_memory_monotonicity():
    t0 = time.time()
    base = load_config(default_config_path())
    ladder = (32, 64, 128, 256, 512, 1024, 2048)
    floors_hit = 0
    for tag, path in bundled_workloads().items():
        layers = load_topology(path)[:2]  # reduced depth keeps this desk-sized
        for df in ("os", "ws", "is"):
            series = []
            # the traces do not depend on the buffer sizes; each is written
            # anew when read, so read each once
            feet = [[len(distinct_addresses(t)) for t in (ts.ifmap_reads, ts.filter_reads)]
                    for ts in (generate_traces(l, base.with_overrides(dataflow=df))
                               for l in layers)]
            for kb in ladder:
                arch = base.with_overrides(ifmap_sram_kb=kb, filter_sram_kb=kb,
                                           dataflow=df)
                reports = [simulate_layer(l, arch) for l in layers]
                bytes_total = sum(r.report.dram_read_bytes for r in reports)
                cycles = sum(r.report.total_cycles for r in reports)
                foot = sum(sum(f) for f in feet)
                max_part_foot = max(max(f) for f in feet)
                series.append((kb, bytes_total, bytes_total / cycles,
                               foot, foot / cycles, max_part_foot))
            for a, b in zip(series, series[1:]):
                assert a[2] >= b[2], (tag, df, series)
            for kb, bytes_total, bw, foot, floor, max_foot in series:
                if kb * 1024 >= max_foot:
                    assert bw == floor and bytes_total == foot, (tag, df, kb)
                    floors_hit += 1
    elapsed = time.time() - t0
    assert elapsed < 600
    assert floors_hit > 0
    _passed(4, f"read bandwidth non-increasing over the 32..2048KB ladder for "
               f"all bundled workloads and dataflows; cold-fill floor reached "
               f"in {floors_hit} cells ({elapsed:.0f}s)")


def test_criterion_5_dataflow_selection_rule():
    cases = 0
    rng = random.Random(31)
    for _ in range(12):
        cols = rng.randint(2, 16)
        rows = rng.randint(2, 16)
        small = rng.randint(1, cols)            # one stationary fold
        big = cols * rng.randint(2, 6) + rng.randint(1, cols)  # several folds
        k = rng.randint(1, 3 * rows)
        # few filters, many windows: WS remaps less, so WS must win
        layer = lower_gemm(big, k, small)
        ws = generate_traces(layer, make_arch(rows, cols, "ws"))
        is_ = generate_traces(layer, make_arch(rows, cols, "is"))
        assert -(-small // cols) < -(-big // cols)
        assert ws.total_cycles < is_.total_cycles, (layer, rows, cols)
        cases += 1
        # few windows, many filters: the reverse
        layer = lower_gemm(small, k, big)
        ws = generate_traces(layer, make_arch(rows, cols, "ws"))
        is_ = generate_traces(layer, make_arch(rows, cols, "is"))
        assert is_.total_cycles < ws.total_cycles, (layer, rows, cols)
        cases += 1
    assert cases >= 20
    _passed(5, f"fewer stationary-matrix remaps won on all {cases} "
               f"constructed WS/IS comparisons")


def test_criterion_6_scale_bookkeeping(tmp_path):
    from helpers import write_topology
    rows_spec = [("a", 10, 10, 3, 3, 4, 16, 1), ("b", 12, 1, 1, 1, 24, 8, 1)]
    wl = str(write_topology(tmp_path / "scale.csv", rows_spec))
    base = make_arch(8, 8, "os")
    layers = load_topology(wl)

    # 64-PE rung: up and out are the same single 8x8 array
    rows64 = run_sweep(SweepSpec("scale", [wl], axis=(64,),
                                 dataflows=("os", "ws", "is")), base)
    for df in ("os", "ws", "is"):
        net = {r["mode"]: r for r in rows64
               if r["layer"] == "network" and r["dataflow"] == df}
        assert net["up"]["total_cycles"] == net["out"]["total_cycles"]

    # every rung conserves MACs between modes and out = max over shards
    for pe in (64, 256, 1024):
        nodes = pe // 64
        study = run_sweep(SweepSpec("scale", [wl], axis=(pe,), dataflows=("os",)),
                          base)
        for layer in layers:
            cell = next(r for r in study
                        if r["layer"] == layer.name and r["mode"] == "out")
            if layer.num_filters < nodes:
                assert cell["status"].startswith("skipped")
                continue
            shards = partition_output_channels(layer, nodes)
            assert sum(workload_counts(s).macs_total for s in shards) == \
                workload_counts(layer).macs_total
            node_arch = base.with_overrides(array_rows=8, array_cols=8)
            shard_cycles = [simulate_layer(s, node_arch).report.total_cycles
                            for s in shards]
            assert cell["total_cycles"] == max(shard_cycles)
    _passed(6, "64-PE rung ratio is exactly 1; MACs conserved and scale-out "
               "runtime equals the max shard runtime at every checked rung")


def test_criterion_7_determinism_and_report_purity(tmp_path):
    from helpers import write_topology
    write_topology(tmp_path / "topo.csv", [("l0", 8, 8, 3, 3, 3, 5, 1),
                                           ("l1", 6, 1, 1, 1, 9, 4, 1)])
    write_config(tmp_path / "arch.cfg", rows=4, cols=4, dataflow="ws")

    def run(rid):
        assert main(["run", "--config", str(tmp_path / "arch.cfg"), "--out",
                     str(tmp_path / "out"), "--run-id", rid, "--jobs", "1"]) == EXIT_OK
        h = hashlib.sha256()
        for p in sorted((tmp_path / "out" / rid).glob("*.csv")):
            h.update(p.name.encode())
            h.update(p.read_bytes())
        return h.hexdigest()

    assert run("one") == run("two")

    run_dir = tmp_path / "out" / "one"
    before = {n: (run_dir / n).read_bytes() for n in ("summary.csv", "network.csv")}
    (run_dir / "summary.csv").unlink()
    (run_dir / "network.csv").unlink()
    assert main(["report", str(run_dir)]) == EXIT_OK
    after = {n: (run_dir / n).read_bytes() for n in ("summary.csv", "network.csv")}
    assert before == after
    _passed(7, "reruns are byte-identical and report rebuilds the summaries "
               "byte-identically from traces alone")


def test_criterion_8_full_default_smoke(tmp_path):
    t0 = time.time()
    cfg = default_config_path()
    n_runs = 0
    for tag, path in bundled_workloads().items():
        n_layers = len(load_topology(path))
        for df in ("os", "ws", "is"):
            rid = f"{tag}-{df}"
            code = main(["run", "--config", str(cfg), "--topology", str(path),
                         "--dataflow", df, "--no-traces", "--out",
                         str(tmp_path), "--run-id", rid, "--jobs", "1"])
            assert code == EXIT_OK, (tag, df)
            summary = (tmp_path / rid / "summary.csv").read_text().strip().split("\n")
            assert len(summary) == 1 + n_layers
            header = summary[0].split(",")
            for line in summary[1:]:
                cells = dict(zip(header, line.split(",")))
                assert cells["dataflow"] == df
                assert int(cells["total_cycles"]) > 0
                assert 0 < float(cells["compute_util"]) <= 1
                assert float(cells["energy"]) > 0
            network = (tmp_path / rid / "network.csv").read_text().strip().split("\n")
            assert len(network) == 2 + n_layers
            assert network[-1].startswith("total,")
            n_runs += 1
    elapsed = time.time() - t0
    assert elapsed < 1800, f"criterion 8 exceeded 30 min ({elapsed:.0f}s)"
    _passed(8, f"{n_runs} full-default runs (7 workloads x 3 dataflows, "
               f"128x128, 512/512KB) completed with well-formed summaries "
               f"in {elapsed:.0f}s")
