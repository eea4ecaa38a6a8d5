import numpy as np
import pytest

from unittest import mock

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("chunk", [2, 3, 1 << 20])
@pytest.mark.parametrize("cycles, addresses, line", [
    pytest.param([0, 1, 1, 2], [5, 4, 3, 9], 4, id="address-order"),
    pytest.param([0, 1, 2, 1], [5, 4, 3, 9], 5, id="cycle-order"),
])
def test_read_csv_rejects_rows_out_of_order(tmp_path, monkeypatch, chunk, cycles,
                                            addresses, line):
    # checked a chunk at a time; the bad row may start a chunk, or the
    # whole file may be one.  Trace.write_csv would sort the rows, or
    # refuse them
    path = tmp_path / "t.csv"
    write_csv_reference(Trace(np.array(cycles), np.array(addresses)), path)
    monkeypatch.setattr(trace_module, "CHUNK_EVENTS", chunk)
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
    monkeypatch.setattr(trace_module, "CHUNK_EVENTS", 4)
    assert written(Trace(cycles, addresses), tmp_path / "t.csv") == \
        sorted_trace(cycles, addresses)


def test_write_csv_sorts_only_chunks_out_of_order(monkeypatch, tmp_path):
    # three 3-row chunks; only the middle one is out of address order, and
    # it is sorted as a copy
    cycles = np.array([0, 1, 1, 2, 2, 3, 4, 4, 5], dtype=np.int64)
    addresses = np.array([0, 1, 2, 9, 3, 0, 1, 2, 0], dtype=np.int64)
    given = Trace(cycles.copy(), addresses.copy())
    want = sorted_trace(cycles, addresses)
    monkeypatch.setattr(trace_module, "CHUNK_EVENTS", 3)
    with mock.patch.object(trace_module, "sort_pairs", wraps=sort_pairs) as sort:
        assert written(given, tmp_path / "t.csv") == want
    assert [call.args[0].tolist() for call in sort.call_args_list] == [[2, 2, 3]]
    assert given == Trace(cycles, addresses)
    with mock.patch.object(trace_module, "sort_pairs", wraps=sort_pairs) as sort:
        assert written(want, tmp_path / "t.csv") == want
    assert not sort.called


@pytest.mark.parametrize("chunk", [1, 2, 5, trace_module.CHUNK_EVENTS])
def test_write_csv_matches_a_full_sort(monkeypatch, tmp_path, chunk):
    rng = np.random.default_rng(chunk)
    cycles = np.sort(rng.integers(-3, 40, 300))
    addresses = rng.integers(-50, 50, 300)
    monkeypatch.setattr(trace_module, "CHUNK_EVENTS", chunk)
    assert written(Trace(cycles, addresses), tmp_path / "t.csv") == \
        sorted_trace(cycles, addresses)


def test_write_csv_crashes_out_of_cycle_order(tmp_path):
    # the second chunk's search for the end of its last cycle lands before
    # the chunk, which would stall the walk
    cycles = np.array([0, 5, 6, 1, 2], dtype=np.int64)
    with mock.patch.object(trace_module, "CHUNK_EVENTS", 2), \
            pytest.raises(AssertionError, match="not in cycle order"):
        Trace(cycles, np.arange(5)).write_csv(tmp_path / "t.csv")


def test_write_csv_cycle_longer_than_a_chunk(tmp_path):
    # one cycle of more than CHUNK_EVENTS rows, out of address order, is
    # one chunk of its own, sorted whole
    rows = trace_module.CHUNK_EVENTS + 3
    cycles = np.repeat([0, 1, 2], [2, rows, 2])
    addresses = np.random.default_rng(1).permutation(len(cycles))
    path = tmp_path / "t.csv"
    Trace(cycles, addresses).write_csv(path)
    want = sorted_trace(cycles, addresses)
    write_csv_reference(want, tmp_path / "want.csv")
    assert path.read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert Trace.read_csv(path) == want


INT64_MIN, INT64_MAX = -2**63, 2**63 - 1

# whole int64 range, and each digit count's edges: 10**k - 1, 10**k, and
# their negatives
int64s = st.one_of(
    st.integers(INT64_MIN, INT64_MAX),
    st.sampled_from([0, -1, INT64_MIN, INT64_MAX]),
    st.builds(lambda k, less, sign: sign * (10 ** k - less), st.integers(0, 18),
              st.integers(0, 1), st.sampled_from([1, -1])),
)


def _plus_sign(row):
    """A "+" before the first field that is not negative, if there is one."""
    cycle, address = row[:-1].split(b",")
    if cycle[:1] != b"-":
        return b"+" + row
    return None if address[:1] == b"-" else cycle + b",+" + address + b"\n"


# one-row damages that np.loadtxt parses to the same numbers: a row's bytes
# -> the damaged row, or None where the damage does not apply
SAME_NUMBERS = {
    "plus-sign": _plus_sign,
    "leading-zero": lambda row: row.replace(b"-", b"-0", 1) if row[:1] == b"-" else b"0" + row,
    "minus-zero": lambda row: b"-" + row if row[:2] == b"0," else None,
    "space-after-comma": lambda row: row.replace(b",", b", "),
    "crlf": lambda row: row[:-1] + b"\r\n",
    "comment": lambda row: row[:-1] + b"#x\n",
    "bare-cr": lambda row: row[:-1] + b"\r",
}


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pairs=st.lists(st.tuples(int64s, int64s), min_size=1, max_size=30),
       damage=st.sampled_from(sorted(SAME_NUMBERS)), at=st.integers(0))
def test_csv_round_trip_and_non_canonical_rows(pairs, damage, at, tmp_path):
    # read_csv takes back exactly what write_csv writes, and rejects the
    # first row that differs from it, naming the row's line
    t = sorted_trace([c for c, _ in pairs], [a for _, a in pairs])
    path = tmp_path / "t.csv"
    assert written(t, path) == t
    header, *rows = path.read_bytes().splitlines(keepends=True)
    row = at % len(rows)
    damaged = SAME_NUMBERS[damage](rows[row])
    # a bare CR at the very end cuts the last row off instead
    assume(damaged is not None and not (damage == "bare-cr" and row == len(rows) - 1))
    rows[row] = damaged
    path.write_bytes(b"".join([header, *rows]))
    with pytest.raises(SimulationError, match=f"line {row + 2} is not in canonical form"):
        Trace.read_csv(path)
