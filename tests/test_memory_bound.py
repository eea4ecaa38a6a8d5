"""simulate_layer's peak memory stays within a fixed margin of its traces.

numpy reports its array allocations to tracemalloc, so the traced peak
covers every trace and temporary.  On a tall, narrow array the ifmap trace
holds ~87% of the events, so one int64 temporary as long as that trace
(say, in the engine or in epochize) adds ~0.4x the trace bytes and breaks
the bound.  On a short, wide WS array the ofmap trace holds ~80% of them,
which does the same for the report's bitmap count.  Segments are cut to
64 K events here, so that the bound's allowance for segment temporaries
(1 MB) is far smaller than any trace-length temporary.

Writing a layer's trace files must not add a trace-sized copy on top of
that: ``cli._run_one_layer`` peaks at most the CSV writer's per-chunk
temporaries above ``simulate_layer``'s own peak.  Reading them back,
``cli._report_layer`` keeps within the same bound, which the default
``report --jobs`` counts on.
"""

import contextlib
import tracemalloc
from unittest import mock

import pytest

from systolicsim import cli, engine, simulate, trace
from systolicsim.bundled import default_config_path, workload_path
from systolicsim.config import load_config, load_topology
from systolicsim.metrics import EnergyCostTable
from systolicsim.simulate import EVENT_BYTES, layer_peak_bytes, simulate_layer

SEGMENT_EVENTS = 1 << 16

# Trace.write_csv's temporaries per row of a chunk.  A row is at most 42
# bytes of text: two fields of up to 19 digits, each with a sign slot and a
# separator.  Those bytes are held three times (the digit slots, the keep
# mask and the gathered rows), and each field keeps a sign mask and a
# uint64 magnitude (9 bytes) while the digit loop adds a quotient and a
# product (16 bytes): 3 * 42 + 2 * 9 + 16 = 160.  Under tracemalloc, one
# chunk of 19-digit rows peaks at 151 bytes a row.
CSV_ROW_TEMP_BYTES = 160


@contextlib.contextmanager
def small_segments():
    with mock.patch.object(engine, "SEGMENT_EVENTS", SEGMENT_EVENTS), \
            mock.patch.object(trace, "SEGMENT_EVENTS", SEGMENT_EVENTS), \
            mock.patch.object(simulate, "SEGMENT_EVENTS", SEGMENT_EVENTS):
        yield


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


@pytest.mark.parametrize("dataflow,rows,cols,input_kb", LAYER_CASES)
def test_peak_memory_bound(dataflow, rows, cols, input_kb):
    layer, arch = deepspeech2_conv1(dataflow, rows, cols, input_kb)
    with small_segments():
        res, peak = traced_peak(lambda: simulate_layer(layer, arch))
        bound = layer_peak_bytes(layer, arch)
    ts = res.traces
    events = len(ts.ifmap_reads) + len(ts.filter_reads) + len(ts.ofmap_writes)
    assert events > 2_000_000
    if input_kb:
        assert len(res.dram.ifmap.bursts) > 1    # one burst per ifmap epoch
    assert peak <= bound
    # the bound is not vacuous: the traces themselves are most of it
    assert peak >= EVENT_BYTES * events


@pytest.mark.parametrize("dataflow,rows,cols,input_kb", [
    # 4 KB input buffers: 1.12 M DRAM read events, half of the SRAM events,
    # so a DRAM trace built while the SRAM traces are held breaks the bound
    pytest.param("os", 16, 16, 4, id="os-16x16-overflow"),
    pytest.param("ws", 8, 64, None, id="ws-8x64"),
])
def test_writing_traces_adds_no_trace_copy(tmp_path, dataflow, rows, cols, input_kb):
    layer, arch = deepspeech2_conv1(dataflow, rows, cols, input_kb)
    with small_segments():
        res, simulate_peak = traced_peak(lambda: simulate_layer(layer, arch))
        _, run_peak = traced_peak(lambda: cli._run_one_layer(
            layer, arch, EnergyCostTable(), str(tmp_path), "layer", True))
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"layer_{kind}.csv" for kind in cli.TRACE_KINDS)
    if input_kb:
        assert len(res.dram.read_trace) > 1_000_000
    assert run_peak <= simulate_peak + CSV_ROW_TEMP_BYTES * trace.CSV_CHUNK_ROWS
    # the sorted DRAM trace is built in the arrays it returns
    bursts = res.dram.read_trace
    with small_segments():
        _, sort_peak = traced_peak(bursts.trace)
    assert sort_peak <= EVENT_BYTES * (len(bursts) + SEGMENT_EVENTS)


@pytest.mark.parametrize("dataflow,rows,cols,input_kb", LAYER_CASES)
def test_reporting_a_layer_keeps_its_bound(tmp_path, dataflow, rows, cols, input_kb):
    layer, arch = deepspeech2_conv1(dataflow, rows, cols, input_kb)
    with small_segments():
        written = cli._run_one_layer(layer, arch, EnergyCostTable(), str(tmp_path),
                                     "layer", True)
        report, peak = traced_peak(lambda: cli._report_layer(
            layer, arch, EnergyCostTable(), tmp_path, "layer"))
        bound = layer_peak_bytes(layer, arch)
    assert report == written
    assert peak <= bound
