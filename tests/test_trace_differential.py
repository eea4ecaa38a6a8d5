"""The vectorised trace CSV writer against its loop-based reference.

Every file ``Trace.write_csv`` writes must be byte-identical to what
``trace_reference.write_csv_reference`` writes for the same trace in
(cycle, address) order, the only order ``read_csv`` accepts, and
``Trace.read_csv`` must give that trace back.  The traces given to
``write_csv`` are in cycle order, with each cycle's events in any order.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import in_file_order, sorted_trace
from systolicsim.bundled import default_config_path, workload_path
from systolicsim.config import load_config, load_topology
from systolicsim.simulate import simulate_layer
from systolicsim.trace import CHUNK_EVENTS, Trace
from trace_reference import write_csv_reference

INT64_MIN, INT64_MAX = -2**63, 2**63 - 1

int64s = st.one_of(
    st.integers(INT64_MIN, INT64_MAX),
    st.integers(-1000, 1000),  # prologue cycles and small addresses
    st.sampled_from([INT64_MIN, INT64_MIN + 1, INT64_MAX, -1, 0, 9, 10,
                     2**32 - 1, 2**32, -2**32]),
)


def assert_matches_reference(trace, tmp_path):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    trace.write_csv(got)
    ordered = in_file_order(trace)
    write_csv_reference(ordered, want)
    assert got.read_bytes() == want.read_bytes()
    assert Trace.read_csv(got) == ordered


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pairs=st.lists(st.tuples(int64s, int64s), max_size=40))
def test_write_csv_matches_reference(pairs, tmp_path):
    cycles = np.array([c for c, _ in pairs], dtype=np.int64)
    addresses = np.array([a for _, a in pairs], dtype=np.int64)
    by_cycle = np.argsort(cycles, kind="stable")     # addresses in drawn order
    assert_matches_reference(Trace(cycles[by_cycle], addresses[by_cycle]), tmp_path)


def test_write_csv_digit_count_changes_within_chunk(tmp_path):
    cycles = np.arange(-1005, CHUNK_EVENTS - 1005, dtype=np.int64)
    addresses = 10 ** (np.arange(len(cycles)) % 19) - np.arange(len(cycles)) % 2
    assert_matches_reference(Trace(cycles, addresses), tmp_path)


# the edges of the first chunk and of the fourth
@pytest.mark.parametrize("rows", [0, 1] + [k * CHUNK_EVENTS + d for k in (1, 4)
                                           for d in (-1, 0, 1)])
def test_write_csv_chunk_edges_match_reference(rows, tmp_path):
    rng = np.random.default_rng(rows)
    cycles = np.sort(rng.integers(-50, 10 * rows + 1, rows))
    # the last row alone is wider, so the final chunk has its own widths
    addresses = rng.integers(0, 1 << 20, rows)
    if rows:
        cycles[-1], addresses[-1] = INT64_MAX, INT64_MIN
    assert_matches_reference(sorted_trace(cycles, addresses), tmp_path)


@pytest.mark.parametrize("dataflow", ["os", "ws", "is"])
def test_bundled_layer_traces_match_reference(dataflow, tmp_path):
    arch = load_config(default_config_path()).with_overrides(dataflow=dataflow)
    layer = load_topology(workload_path("w4_ncf"))[2]  # mlp_fc3
    res = simulate_layer(layer, arch)
    traces = [res.traces.ifmap_reads, res.traces.filter_reads,
              res.traces.ofmap_writes, res.dram.read_trace.trace(),
              res.dram.write_trace.trace()]
    assert int(traces[3].cycles[0]) < 0  # cold-fill prologue
    for trace in traces:
        assert_matches_reference(trace, tmp_path)
