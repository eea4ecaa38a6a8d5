"""simulate_layer's peak memory stays within a fixed margin of its traces.

numpy reports its array allocations to tracemalloc, so the traced peak
covers every trace and temporary.  On a tall, narrow array the ifmap trace
holds ~87% of the events, so one int64 temporary as long as that trace
(say, in the engine or in epochize) adds ~0.4x the trace bytes and breaks
the bound.
"""

import tracemalloc

import pytest

from systolicsim.bundled import default_config_path, workload_path
from systolicsim.config import load_config, load_topology
from systolicsim.simulate import EVENT_BYTES, layer_peak_bytes, simulate_layer


@pytest.mark.parametrize("dataflow", ["os", "ws"])
def test_peak_memory_bound(dataflow):
    # DeepSpeech2 conv1 on 64x8: ~2.5 M SRAM events, 2.2 M of them ifmap
    layer = load_topology(workload_path("w2_deepspeech2"))[0]
    arch = load_config(default_config_path()).with_overrides(
        array_rows=64, array_cols=8, dataflow=dataflow)
    tracemalloc.start()
    try:
        res = simulate_layer(layer, arch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ts = res.traces
    events = len(ts.ifmap_reads) + len(ts.filter_reads) + len(ts.ofmap_writes)
    assert events > 2_000_000
    assert peak <= layer_peak_bytes(layer, arch)
    # the bound is not vacuous: the traces themselves are most of it
    assert peak >= EVENT_BYTES * events
