import numpy as np
import pytest

from unittest import mock

from helpers import distinct_addresses, events, per_cycle_counts, sorted_trace
from systolicsim import trace as trace_module
from systolicsim.errors import SimulationError
from systolicsim.trace import Trace, sort_pairs
from trace_reference import write_csv_reference


def _lexsorted(cycles, addresses):
    order = np.lexsort((addresses, cycles))
    return cycles[order].tolist(), addresses[order].tolist()


def test_trace_sorts_by_cycle_then_address():
    t = sorted_trace(np.array([3, 1, 1, 0]), np.array([5, 9, 2, 7]))
    assert t.cycles.tolist() == [0, 1, 1, 3]
    assert t.addresses.tolist() == [7, 2, 9, 5]


def test_trace_events_group_by_cycle():
    t = sorted_trace(np.array([1, 1, 4]), np.array([8, 3, 6]))
    groups = list(events(t))
    assert [(e.cycle, e.addresses.tolist()) for e in groups] == [(1, [3, 8]), (4, [6])]


def test_trace_csv_round_trip(tmp_path):
    t = Trace(np.array([-5, 0, 0, 12]), np.array([100, 3, 3, 42]))
    path = tmp_path / "t.csv"
    t.write_csv(path)
    text = path.read_text()
    assert text.splitlines()[0] == "cycle,address"
    assert text.splitlines()[1] == "-5,100"  # negative prologue cycles allowed
    assert Trace.read_csv(path) == t


@pytest.mark.parametrize("segment", [2, 3, trace_module.SEGMENT_EVENTS])
@pytest.mark.parametrize("cycles, addresses, line", [
    pytest.param([0, 1, 1, 2], [5, 4, 3, 9], 4, id="address-order"),
    pytest.param([0, 1, 2, 1], [5, 4, 3, 9], 5, id="cycle-order"),
])
def test_read_csv_rejects_rows_out_of_order(tmp_path, monkeypatch, segment, cycles,
                                            addresses, line):
    # checked a segment at a time; the bad row may start a segment.
    # Trace.write_csv would sort the rows, or refuse them
    path = tmp_path / "t.csv"
    write_csv_reference(Trace(np.array(cycles), np.array(addresses)), path)
    monkeypatch.setattr(trace_module, "SEGMENT_EVENTS", segment)
    with pytest.raises(SimulationError, match=f"line {line} is out of"):
        Trace.read_csv(path)


def test_trace_csv_empty_round_trip(tmp_path):
    path = tmp_path / "e.csv"
    Trace.empty().write_csv(path)
    assert len(Trace.read_csv(path)) == 0


@pytest.mark.parametrize("cycles, addresses", [
    pytest.param([4, -7, 0, -7, -1], [3, 9, 1, 2, 9], id="negative-prologue-cycles"),
    pytest.param([2, 2, 1, 2, 1, 2], [5, 5, 8, 3, 8, 5], id="duplicate-pairs"),
    pytest.param([], [], id="empty"),
    pytest.param([-3], [2**40], id="one-event"),
    pytest.param([2**40, -2**40, 0, 2**40], [0, 2**30, 5, -2**30],
                 id="overflowing-span"),
    pytest.param([-2**62, 2**62, 0], [-2**62, 2**62, 1], id="overflowing-range"),
    # the packed key fits, but cycle * span + address wraps on the way
    pytest.param([2**61, 0, 5, 2**61], [2**62 + 2, 2**62, 2**62 + 1, 2**62],
                 id="wrapping-intermediate"),
])
def test_trace_sort_matches_lexsort(cycles, addresses):
    c = np.array(cycles, dtype=np.int64)
    a = np.array(addresses, dtype=np.int64)
    t = sorted_trace(c, a)
    assert (t.cycles.tolist(), t.addresses.tolist()) == _lexsorted(c, a)


def test_trace_sort_random_matches_lexsort():
    rng = np.random.default_rng(5)
    c = rng.integers(-50, 50, 5000)
    a = rng.integers(0, 1 << 20, 5000) * 4
    t = sorted_trace(c, a)
    assert (t.cycles.tolist(), t.addresses.tolist()) == _lexsorted(c, a)


def test_trace_sort_leaves_inputs_untouched():
    c, a = np.array([3, 1, 2]), np.array([1, 2, 3])
    sorted_trace(c, a)
    assert c.tolist() == [3, 1, 2] and a.tolist() == [1, 2, 3]


def test_trace_distinct_addresses_and_per_cycle_counts():
    t = sorted_trace(np.array([0, 0, 0, 3, 3, 9]), np.array([4, 4, 1, 4, 2, 1]))
    assert distinct_addresses(t).tolist() == [1, 2, 4]
    cycles, counts = per_cycle_counts(t)
    assert cycles.tolist() == [0, 3, 9] and counts.tolist() == [3, 2, 1]
    assert len(distinct_addresses(Trace.empty())) == 0
    assert [x.tolist() for x in per_cycle_counts(Trace.empty())] == [[], []]


@pytest.mark.parametrize("cycles, addresses", [
    pytest.param([4, -7, 0, -7, -1], [3, 9, 1, 2, 9], id="packed-key"),
    pytest.param([2**40, -2**40, 0, 2**40], [0, 2**30, 5, -2**30], id="lexsort-fallback"),
])
def test_sort_pairs_in_place_into_slices(cycles, addresses):
    # the engine sorts each segment inside the trace's final arrays
    c = np.array([99] + cycles + [99], dtype=np.int64)
    a = np.array([-1] + addresses + [-1], dtype=np.int64)
    seg = slice(1, len(c) - 1)
    major, minor = c[seg], a[seg]
    got = sort_pairs(major, minor)
    assert got[0] is major and got[1] is minor
    want = _lexsorted(np.array(cycles), np.array(addresses))
    assert (c[seg].tolist(), a[seg].tolist()) == want
    assert c[[0, -1]].tolist() == [99, 99] and a[[0, -1]].tolist() == [-1, -1]


def test_sort_pairs_into_given_arrays():
    # sort_pairs sorts only the arrays it is given: sorted_trace gives it copies
    c, a = np.array([3, 1, 1]), np.array([5, 9, 2])
    t = sorted_trace(c, a)
    out = (t.cycles, t.addresses)
    assert (out[0].tolist(), out[1].tolist()) == ([1, 1, 3], [2, 9, 5])
    assert c.tolist() == [3, 1, 1] and a.tolist() == [5, 9, 2]


def written(trace, path):
    """The trace that ``Trace.write_csv`` writes to ``path``, read back."""
    trace.write_csv(path)
    return Trace.read_csv(path)


def test_write_csv_chunks_end_with_whole_cycles(monkeypatch, tmp_path):
    # 4-row chunks: cycle 1 straddles the first boundary, cycle 2 the
    # second, so a chunk cut mid-cycle would leave them out of order
    cycles = np.array([0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 3], dtype=np.int64)
    addresses = np.array([5, 4, 9, 8, 7, 1, 0, 6, 3, 2, 0], dtype=np.int64)
    monkeypatch.setattr(trace_module, "CSV_CHUNK_ROWS", 4)
    assert written(Trace(cycles, addresses), tmp_path / "t.csv") == \
        sorted_trace(cycles, addresses)


def test_write_csv_sorts_only_chunks_out_of_order(monkeypatch, tmp_path):
    # three 3-row chunks; only the middle one is out of address order, and
    # it is sorted as a copy
    cycles = np.array([0, 1, 1, 2, 2, 3, 4, 4, 5], dtype=np.int64)
    addresses = np.array([0, 1, 2, 9, 3, 0, 1, 2, 0], dtype=np.int64)
    given = Trace(cycles.copy(), addresses.copy())
    want = sorted_trace(cycles, addresses)
    monkeypatch.setattr(trace_module, "CSV_CHUNK_ROWS", 3)
    with mock.patch.object(trace_module, "sort_pairs", wraps=sort_pairs) as sort:
        assert written(given, tmp_path / "t.csv") == want
    assert [call.args[0].tolist() for call in sort.call_args_list] == [[2, 2, 3]]
    assert given == Trace(cycles, addresses)
    with mock.patch.object(trace_module, "sort_pairs", wraps=sort_pairs) as sort:
        assert written(want, tmp_path / "t.csv") == want
    assert not sort.called


@pytest.mark.parametrize("chunk", [1, 2, 5, trace_module.CSV_CHUNK_ROWS])
def test_write_csv_matches_a_full_sort(monkeypatch, tmp_path, chunk):
    rng = np.random.default_rng(chunk)
    cycles = np.sort(rng.integers(-3, 40, 300))
    addresses = rng.integers(-50, 50, 300)
    monkeypatch.setattr(trace_module, "CSV_CHUNK_ROWS", chunk)
    assert written(Trace(cycles, addresses), tmp_path / "t.csv") == \
        sorted_trace(cycles, addresses)


def test_write_csv_crashes_out_of_cycle_order(tmp_path):
    # the second chunk's search for the end of its last cycle lands before
    # the chunk, which would stall the walk
    cycles = np.array([0, 5, 6, 1, 2], dtype=np.int64)
    with mock.patch.object(trace_module, "CSV_CHUNK_ROWS", 2), \
            pytest.raises(AssertionError, match="not in cycle order"):
        Trace(cycles, np.arange(5)).write_csv(tmp_path / "t.csv")
