"""simulate_layer's peak memory stays within the streamed bound.

numpy reports its array allocations to tracemalloc, so the traced peak
covers every array and temporary.  No SRAM trace is held whole: the engine
writes each one segment at a time, so the bound, ``layer_peak_bytes``, is
a segment, the output region (the final writes and the report's bitmap),
the scanned address regions, the DRAM reads and the per-cycle DRAM totals.
On a tall, narrow array the ifmap trace holds ~87% of the events, and on a
short, wide WS array the ofmap trace ~80% of them, so a temporary as long
as either (say, in the engine, in epochize or in the report's bitmap
count) breaks the bound.  On ResNet-50 conv1 at 8x8, whose collected
traces take 462 MB, the bound is at most a quarter of that.

Writing a layer's trace files must not add a copy of an SRAM trace:
``cli._run_one_layer`` peaks at most the sorted DRAM read trace and the CSV
writer's per-chunk temporaries above ``simulate_layer``'s own peak.
Reading them back, ``cli._report_layer`` parses whole files, so it has a
bound of its own, ``cli.report_peak_bytes``, which ``report --jobs``
counts on.
"""

import tracemalloc
from dataclasses import replace

import pytest

from systolicsim import cli, engine, sweeps, trace
from systolicsim.bundled import default_config_path, workload_path
from systolicsim.config import load_config, load_topology
from systolicsim.engine import generate_traces
from systolicsim.mapping import fold_plan, footprint_words, workload_counts
from systolicsim.metrics import EnergyCostTable
from systolicsim.simulate import EVENT_BYTES, layer_peak_bytes, simulate_layer

# Trace.write_csv's temporaries per row of a chunk.  A row is at most 42
# bytes of text: two fields of up to 19 digits, each with a sign slot and a
# separator.  Those bytes are held three times (the digit slots, the keep
# mask and the gathered rows), and each field keeps a sign mask and a
# uint64 magnitude (9 bytes) while the digit loop adds a quotient and a
# product (16 bytes): 3 * 42 + 2 * 9 + 16 = 160.  Under tracemalloc, one
# chunk of 19-digit rows peaks at 151 bytes a row.
CSV_ROW_TEMP_BYTES = 160


def traced_peak(fn):
    """fn()'s result and the most memory tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


LAYER_CASES = [
    # DeepSpeech2 conv1 on 64x8: ~2.5 M SRAM events, 2.2 M of them ifmap
    pytest.param("os", 64, 8, None, id="os"), pytest.param("ws", 64, 8, None, id="ws"),
    # on 8x64 under WS: 2.79 M events, 80% of them ofmap writes (one per
    # reduction fold), so a temporary as long as the ofmap trace breaks it
    pytest.param("ws", 8, 64, None, id="ws-8x64"),
    # 4 KB ifmap and filter buffers overflow: 4 ifmap epochs under OS and
    # 44 under WS, so epochize closes epochs and resumes mid-trace
    pytest.param("os", 64, 8, 4, id="os-overflow"),
    pytest.param("ws", 64, 8, 4, id="ws-overflow"),
    # on 16x16 with 4 KB input buffers: 1.12 M DRAM read events against
    # 2.25 M SRAM events, so an array of every DRAM read's cycle, built for
    # the report, breaks the bound
    pytest.param("os", 16, 16, 4, id="os-16x16-overflow"),
]


def deepspeech2_conv1(dataflow, rows, cols, input_kb):
    layer = load_topology(workload_path("w2_deepspeech2"))[0]
    arch = load_config(default_config_path()).with_overrides(
        array_rows=rows, array_cols=cols, dataflow=dataflow,
        ifmap_sram_kb=input_kb, filter_sram_kb=input_kb)
    return layer, arch


def assert_streamed_peak(layer, arch, res, peak):
    bound = layer_peak_bytes(layer, arch)
    ts = generate_traces(layer, arch)
    lengths = (len(ts.ifmap_reads), len(ts.filter_reads), len(ts.ofmap_writes))
    assert peak <= bound
    # the bound is not vacuous: a segment of the longest trace the layer
    # reads is held with the final writes.  An input trace whose buffer
    # holds its footprint is not read: its one epoch has a closed form
    fits = [words * arch.word_bytes <= capacity for words, capacity in zip(
        footprint_words(layer, workload_counts(layer)),
        (arch.ifmap_capacity_bytes, arch.filter_capacity_bytes))]
    read = [n for n, held in zip(lengths, fits + [False]) if not held]
    assert peak >= EVENT_BYTES * (min(engine.SEGMENT_EVENTS, max(read))
                                  + len(ts.final_writes))
    return sum(lengths)


@pytest.mark.parametrize("dataflow,rows,cols,input_kb", LAYER_CASES)
def test_peak_memory_bound(dataflow, rows, cols, input_kb):
    layer, arch = deepspeech2_conv1(dataflow, rows, cols, input_kb)
    res, peak = traced_peak(lambda: simulate_layer(layer, arch))
    assert assert_streamed_peak(layer, arch, res, peak) > 2_000_000
    if input_kb:
        assert len(res.dram.ifmap.bursts) > 1    # one burst per ifmap epoch


@pytest.mark.parametrize("dataflow", ["os", "ws"])
def test_peak_memory_bound_resnet50_conv1(dataflow):
    # ~30 M SRAM events: 462 MB of collected traces
    layer = load_topology(workload_path("w5_resnet50"))[0]
    arch = load_config(default_config_path()).with_overrides(
        array_rows=8, array_cols=8, dataflow=dataflow)
    res, peak = traced_peak(lambda: simulate_layer(layer, arch))
    events = assert_streamed_peak(layer, arch, res, peak)
    assert EVENT_BYTES * events > 450e6
    assert layer_peak_bytes(layer, arch) <= EVENT_BYTES * events / 4


def test_a_sharded_layer_holds_one_shard_at_a_time():
    # 33 filters over 2 nodes make a 17- and a 16-filter shard, run one after
    # the other; only the numbers the scale study reads of a shard outlive
    # it, so the second shard never runs beside the first one's DRAM demand
    layer, arch = deepspeech2_conv1("os", 8, 8, 4)
    layer = replace(layer, num_filters=33)
    _, shard_peak = traced_peak(lambda: simulate_layer(replace(layer, num_filters=17), arch))
    _, peak = traced_peak(lambda: sweeps._sharded(layer, 2, arch, None))
    assert peak <= shard_peak + 10**6


@pytest.mark.parametrize("dataflow,rows,cols,input_kb", [
    # 4 KB input buffers: 1.12 M DRAM read events, half of the SRAM events
    pytest.param("os", 16, 16, 4, id="os-16x16-overflow"),
    pytest.param("ws", 8, 64, None, id="ws-8x64"),
])
def test_writing_traces_adds_no_trace_copy(tmp_path, dataflow, rows, cols, input_kb):
    layer, arch = deepspeech2_conv1(dataflow, rows, cols, input_kb)
    res, simulate_peak = traced_peak(lambda: simulate_layer(layer, arch))
    _, run_peak = traced_peak(lambda: cli._run_one_layer(
        layer, arch, EnergyCostTable(), str(tmp_path), "layer", True))
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"layer_{kind}.csv" for kind in cli.TRACE_KINDS)
    if input_kb:
        assert len(res.dram.read_trace) > 1_000_000
    # the SRAM traces are written from the segments the simulation reads;
    # only the sorted DRAM read trace, the larger one, is built whole
    bursts = res.dram.read_trace
    assert run_peak <= (simulate_peak + EVENT_BYTES * len(bursts)
                        + CSV_ROW_TEMP_BYTES * trace.CHUNK_EVENTS)
    assert run_peak <= layer_peak_bytes(layer, arch)
    # the sorted DRAM trace is built in the arrays it returns
    _, sort_peak = traced_peak(bursts.trace)
    assert sort_peak <= EVENT_BYTES * (len(bursts) + trace.CHUNK_EVENTS)


@pytest.mark.parametrize("dataflow,rows,cols,input_kb", LAYER_CASES)
def test_reporting_a_layer_keeps_its_bound(tmp_path, dataflow, rows, cols, input_kb):
    layer, arch = deepspeech2_conv1(dataflow, rows, cols, input_kb)
    written = cli._run_one_layer(layer, arch, EnergyCostTable(), str(tmp_path),
                                 "layer", True)
    report, peak = traced_peak(lambda: cli._report_layer(
        layer, arch, EnergyCostTable(), tmp_path, "layer"))
    bound = cli.report_peak_bytes(layer, arch)
    events = sum(fold_plan(workload_counts(layer), arch).sram_event_counts)
    assert report == written
    assert peak <= bound
    assert bound == int(1.3 * EVENT_BYTES * events) + EVENT_BYTES * trace.CHUNK_EVENTS
