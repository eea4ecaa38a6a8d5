import random
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import OFMAP_OFF, make_arch, random_small_layer
from systolicsim.bundled import workload_path
from systolicsim.config import LayerSpec, load_topology, lower_gemm
from systolicsim.engine import generate_traces
from systolicsim.errors import ConfigError, SimulationError, WorkingSetUnderflow
from systolicsim.metrics import (EnergyCostTable, LayerReport, energy, layer_report,
                                 report_row, summarize_network, summary_csv)
from systolicsim.simulate import simulate_layer
from systolicsim.trace import Trace


def test_compute_runtime_single_write():
    layer = lower_gemm(1, 1, 1)
    ts = generate_traces(layer, make_arch(1, 1, "os"))
    assert ts.ofmap_writes.collect().cycles.tolist() == [0]
    assert ts.total_cycles == 1


def test_compute_runtime_gemm4():
    ts = generate_traces(lower_gemm(4, 4, 4), make_arch(4, 4, "os"))
    assert ts.total_cycles == 10


@pytest.mark.parametrize("cycles,addresses,error", [
    ([], [], "no runtime"),
    ([-3, -1], [OFMAP_OFF, OFMAP_OFF + 1], "no runtime"),
    ([0, 1], [OFMAP_OFF, OFMAP_OFF + 2], "outside"),
    ([0, 1], [OFMAP_OFF - 1, OFMAP_OFF], "outside"),
], ids=["empty", "negative", "past-region", "before-region"])
def test_layer_report_rejects_bad_ofmap_writes(cycles, addresses, error):
    writes = Trace(np.array(cycles), np.array(addresses))
    with pytest.raises(SimulationError, match=error):
        layer_report(lower_gemm(2, 1, 1), make_arch(1, 1, "os"), None, 2, 2,
                     writes, [], [])


def test_layer_report_rejects_overlapping_regions():
    # the engine's region check: an ofmap offset inside the ifmap region
    arch = make_arch(1, 1, "os").with_overrides(ofmap_offset=1)
    with pytest.raises(ConfigError, match="ifmap and ofmap address regions overlap"):
        layer_report(lower_gemm(2, 1, 1), arch, None, 2, 2,
                     Trace(np.array([0, 1]), np.array([1, 2])), [], [])


def test_layer_report_dram_bytes_and_bandwidths():
    # 5 writes, runtime 10; reads: 4 in-run words (2 in cycle 3) and 2 prologue
    # words; writes: 1 in-run word and 2 epilogue words
    writes = Trace(np.array([0, 2, 4, 6, 9]), OFMAP_OFF + 2 * np.arange(5))
    dram_rd = np.array([-2, -1, 0, 3, 3, 7])
    dram_wr = np.array([5, 10, 11])
    rep = layer_report(lower_gemm(5, 1, 1), make_arch(1, 1, "os", word_bytes=2),
                       None, 5, 5, writes, [dram_rd[:4], dram_rd[4:]], [dram_wr])
    assert rep.total_cycles == 10
    assert (rep.dram_read_bytes, rep.dram_write_bytes) == (12, 6)
    assert (rep.avg_read_bw, rep.avg_write_bw) == (1.2, 0.6)
    assert (rep.peak_read_bw, rep.peak_write_bw) == (4, 2)
    assert rep.sram_reads_ofmap_partials == 0


def test_energy_linear_combination():
    table = EnergyCostTable(1, 2, 2, 100)
    assert energy(64, 32, 16, 8, table) == 960


def test_energy_zero_table():
    assert energy(10**6, 10**6, 10**6, 10**6, EnergyCostTable(0, 0, 0, 0)) == 0


def test_energy_linearity():
    table = EnergyCostTable()
    assert energy(2 * 7, 2 * 11, 2 * 13, 2 * 17, table) == 2 * energy(7, 11, 13, 17, table)


def test_energy_rejects_negative_cost():
    with pytest.raises(Exception):
        EnergyCostTable(e_mac=-1)


def test_energy_mac_only_table_invariant_across_dataflows():
    layer = LayerSpec("t", 7, 7, 3, 3, 3, 4, 1)
    table = EnergyCostTable(e_mac=1, e_sram_read=0, e_sram_write=0, e_dram_access=0)
    values = {df: simulate_layer(layer, make_arch(4, 4, df), table).report.energy
              for df in ("os", "ws", "is")}
    assert len(set(values.values())) == 1


def test_utilization_integer_identity():
    rng = random.Random(6)
    for _ in range(10):
        layer = random_small_layer(rng)
        arch = make_arch(rng.randint(1, 6), rng.randint(1, 6),
                         rng.choice(["os", "ws", "is"]))
        rep = simulate_layer(layer, arch).report
        util = Fraction(rep.macs_total,
                        rep.total_cycles * rep.rows * rep.cols)
        assert rep.compute_utilization == util.numerator / util.denominator
        assert util * rep.total_cycles * rep.rows * rep.cols == rep.macs_total
        assert 0 < rep.compute_utilization <= rep.mapping_efficiency <= 1


def test_summarize_single_layer_totals_equal_layer():
    rep = simulate_layer(lower_gemm(6, 5, 4), make_arch(4, 4, "os")).report
    total = summarize_network([rep])
    assert total.total_cycles == rep.total_cycles
    assert total.energy == rep.energy
    assert total.dram_read_bytes == rep.dram_read_bytes


def test_summarize_two_identical_layers_double():
    rep = simulate_layer(lower_gemm(6, 5, 4), make_arch(4, 4, "ws")).report
    total = summarize_network([rep, rep])
    assert total.total_cycles == 2 * rep.total_cycles
    assert total.energy == 2 * rep.energy
    assert total.sram_reads_ifmap == 2 * rep.sram_reads_ifmap


def test_summarize_totals_permutation_invariant():
    arch = make_arch(4, 4, "is")
    reports = [simulate_layer(lower_gemm(m, 3, 2), arch).report for m in (2, 5, 9)]
    fwd = summarize_network(reports)
    rev = summarize_network(list(reversed(reports)))
    assert (fwd.total_cycles, fwd.energy, fwd.dram_read_bytes) == \
           (rev.total_cycles, rev.energy, rev.dram_read_bytes)


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize_network([])


def test_network_totals_are_layer_sums_alphagozero():
    layers = load_topology(workload_path("w1_alphagozero"))
    arch = make_arch(128, 128, "os", ifmap_kb=512, filter_kb=512, ofmap_kb=256)
    reports = [simulate_layer(l, arch).report for l in layers]
    total = summarize_network(reports)
    assert total.total_cycles == sum(r.total_cycles for r in reports)
    assert total.energy == sum(r.energy for r in reports)
    assert total.name == "total"


def test_network_total_with_a_non_integer_energy_table():
    # costs with no exact binary value: this order of these layers gives a
    # left-to-right energy sum that differs from the reversed one
    table = EnergyCostTable(e_mac=0.3, e_sram_read=6.1, e_sram_write=5.7,
                            e_dram_access=199.9)
    arch = make_arch(4, 4, "ws", ifmap_kb=1, filter_kb=1, ofmap_kb=1, word_bytes=4)
    layers = [lower_gemm(7, 5, 3), LayerSpec("d", 20, 20, 3, 3, 8, 4, 1),
              LayerSpec("c", 12, 8, 2, 2, 4, 6, 2), LayerSpec("a", 16, 16, 3, 3, 4, 8, 1)]
    reports = [simulate_layer(l, arch, table).report for l in layers]
    energies = [r.energy for r in reports]
    assert sum(energies) != sum(reversed(energies))
    total = summarize_network(reports)
    peaks = ("peak_read_bw", "peak_write_bw")
    counts = [f.name for f in fields(LayerReport)
              if f.name not in ("name", "dataflow", "rows", "cols", "energy", *peaks)]
    assert len(counts) == 10
    for name in counts:
        assert getattr(total, name) == sum(getattr(r, name) for r in reports), name
    for name in peaks:
        assert getattr(total, name) == max(getattr(r, name) for r in reports), name
    assert max(total.peak_read_bw, total.peak_write_bw) > 0
    assert total.energy == sum(energies)
    assert (total.name, total.dataflow, total.rows, total.cols) == ("total", "ws", 4, 4)
    assert total.mapping_efficiency == total.active_pe_folds / total.fold_pe_area
    assert total.compute_utilization == total.macs_total / (total.total_cycles * 4 * 4)
    assert total.avg_read_bw == total.dram_read_bytes / total.total_cycles
    assert total.avg_write_bw == total.dram_write_bytes / total.total_cycles


def test_summary_csv_shape():
    rep = simulate_layer(lower_gemm(4, 4, 4), make_arch(4, 4, "os")).report
    text = summary_csv([rep])
    header, row = text.strip().split("\n")
    assert header.split(",")[0] == "layer"
    assert len(row.split(",")) == len(header.split(","))
    assert row.split(",")[1] == "os"


@st.composite
def overflowing_layers(draw):
    """Layers whose operands outgrow a 1 KB buffer in most draws."""
    ih, iw = draw(st.integers(6, 20)), draw(st.integers(6, 20))
    return LayerSpec("t", ih, iw, draw(st.integers(1, 3)), draw(st.integers(1, 3)),
                     draw(st.integers(2, 16)), draw(st.integers(1, 16)),
                     draw(st.integers(1, 2)))


@settings(max_examples=60, deadline=None)
@given(overflowing_layers(), st.integers(1, 12), st.integers(1, 12),
       st.sampled_from(["os", "ws", "is"]), st.sampled_from([1, 2, 4]),
       st.sampled_from([1, 64]), st.integers(1, 10**7))
def test_summary_row_ignores_a_whole_word_shift_of_the_offsets(layer, rows, cols, dataflow,
                                                               word, kb, shift):
    # every address moves by the same whole number of words; at 1 KB most
    # of these layers' traces take several epochs
    arch = make_arch(rows, cols, dataflow, ifmap_kb=kb, filter_kb=kb, ofmap_kb=kb,
                     word_bytes=word)
    moved = arch.with_overrides(**{f"{part}_offset": getattr(arch, f"{part}_offset")
                                   + shift * word for part in ("ifmap", "filter", "ofmap")})

    def summary(arch):
        try:
            return report_row(simulate_layer(layer, arch).report)
        except WorkingSetUnderflow as exc:
            return str(exc)

    assert summary(moved) == summary(arch)
