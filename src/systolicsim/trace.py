"""Cycle-stamped address streams.

A trace is a pair of parallel int64 arrays in cycle order.  SRAM traces in
memory are in cycle order only: the engine leaves the order of the events
within a cycle unspecified, and no summary depends on it.  Trace files and
DRAM traces are in (cycle, address) order: ``run`` puts each SRAM trace in
that order in place with ``sort_within_cycles`` before it writes the trace
or builds the DRAM traces from it, and ``memory.Bursts.trace`` sorts in
place with ``sort_pairs``.  ``Trace`` itself does not sort.  DRAM traces
may carry negative cycles for the cold-fill prologue.

The CSV form is exact text: the line ``cycle,address``, then one line
``<cycle>,<address>`` per pair in trace order.  Both numbers are plain
decimal with no padding and no ``+``; a negative one starts with ``-``.
Every line, the last included, ends in ``\n``, and nothing follows the
last row.  An empty trace is the header line alone.  ``Trace.read_csv`` rejects a file
that breaks this form, or whose rows are out of (cycle, address) order,
with a ``SimulationError``.
"""

from __future__ import annotations

import os
import warnings
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import SimulationError

CSV_HEADER = "cycle,address"

# rows formatted per pass of Trace.write_csv; its temporaries are a few MB
CSV_CHUNK_ROWS = 1 << 16

# events per in-place sort of a trace's slice, and per pass of the
# whole-trace scans in the memory model and the report; their temporaries
# are O(SEGMENT_EVENTS), not O(trace)
SEGMENT_EVENTS = 1 << 20


def segments(n: int) -> Iterator[slice]:
    """Consecutive slices of at most ``SEGMENT_EVENTS`` covering ``range(n)``."""
    for start in range(0, n, SEGMENT_EVENTS):
        yield slice(start, min(start + SEGMENT_EVENTS, n))


def sort_pairs(major: np.ndarray, minor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort int64 pairs by (major, minor) in place; return both arrays.

    The pair is packed into one key, ``(major - m0) * span + (minor - n0)``,
    in ``major`` itself, sorted and decoded with ``divmod``, so nothing is
    allocated.  Equal pairs are equal keys, so the result is exactly
    ``np.lexsort((minor, major))``'s order.  When the packed range would not
    fit in int64, this falls back to ``np.lexsort``.
    """
    m0, n0 = int(major.min()), int(minor.min())
    span = int(minor.max()) - n0 + 1
    if (int(major.max()) - m0 + 1) * span > np.iinfo(np.int64).max:
        order = np.lexsort((minor, major))
        major[...], minor[...] = major[order], minor[order]
        return major, minor
    # intermediate sums may wrap, but the final key fits, so it is exact
    key = np.subtract(major, m0, out=major)
    key *= span
    key += minor
    key -= n0
    key.sort()
    np.divmod(key, span, out=(major, minor))
    major += m0
    minor += n0
    return major, minor


def sort_within_cycles(cycles: np.ndarray, addresses: np.ndarray) -> None:
    """Put a cycle-ordered trace's pairs in (cycle, address) order, in place.

    The trace is taken one slice of about ``SEGMENT_EVENTS`` events at a
    time, each ending with a whole cycle, so sorting each slice on its own
    sorts the trace.  A slice already in order, which an O(n) check finds,
    is left as it is; the others go through ``sort_pairs``.
    """
    start, n = 0, len(cycles)
    while start < n:
        stop = min(start + SEGMENT_EVENTS, n)
        stop = int(np.searchsorted(cycles, cycles[stop - 1], "right"))
        assert stop > start, f"trace is not in cycle order at or after event {start}"
        if _first_out_of_order(cycles[start:stop], addresses[start:stop]) is not None:
            sort_pairs(cycles[start:stop], addresses[start:stop])
        start = stop


class Trace:
    __slots__ = ("cycles", "addresses")

    def __init__(self, cycles: np.ndarray, addresses: np.ndarray):
        cycles = np.asarray(cycles, dtype=np.int64)
        addresses = np.asarray(addresses, dtype=np.int64)
        if cycles.shape != addresses.shape:
            raise ValueError("cycle/address arrays must have equal length")
        self.cycles = cycles
        self.addresses = addresses

    @classmethod
    def empty(cls) -> "Trace":
        return cls(np.empty(0, np.int64), np.empty(0, np.int64))

    def __len__(self) -> int:
        return len(self.cycles)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Trace)
                and np.array_equal(self.cycles, other.cycles)
                and np.array_equal(self.addresses, other.addresses))

    @property
    def max_cycle(self) -> int:
        if not len(self):
            raise ValueError("empty trace has no max cycle")
        return int(self.cycles[-1])

    def write_csv(self, path: str | Path) -> None:
        with open(path, "wb") as fh:
            fh.write(CSV_HEADER.encode() + b"\n")
            for start in range(0, len(self), CSV_CHUNK_ROWS):
                stop = start + CSV_CHUNK_ROWS
                fh.write(_csv_rows(self.cycles[start:stop], self.addresses[start:stop]))

    @classmethod
    def read_csv(cls, path: str | Path) -> "Trace":
        with open(path, "rb") as fh:
            if fh.readline() != CSV_HEADER.encode() + b"\n":
                raise SimulationError(f"trace {path}: first line is not {CSV_HEADER!r}")
            if fh.tell() == fh.seek(0, os.SEEK_END):
                return cls.empty()
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                raise SimulationError(f"trace {path}: last row is cut off")
        # by path: np.loadtxt parses a path in blocks, a file object line by line
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)  # blank lines: "no data"
                data = np.loadtxt(path, dtype=np.int64, delimiter=",", skiprows=1,
                                  ndmin=2)
        except (ValueError, UserWarning) as exc:
            raise SimulationError(f"trace {path}: {exc}") from None
        if data.shape[1] != 2:
            raise SimulationError(f"trace {path}: rows have {data.shape[1]} fields, not 2")
        row = _first_out_of_order(data[:, 0], data[:, 1])
        if row is not None:
            raise SimulationError(f"trace {path}: line {row + 2} is out of (cycle, address) "
                                  "order")
        return cls(data[:, 0], data[:, 1])


def _first_out_of_order(cycles: np.ndarray, addresses: np.ndarray) -> int | None:
    """The first row that sorts before the row above it by (cycle, address),
    or None.  Each segment is checked with the last row of the one before,
    so the temporaries are O(SEGMENT_EVENTS)."""
    for seg in segments(len(cycles)):
        rows = slice(max(seg.start - 1, 0), seg.stop)
        c, a = cycles[rows], addresses[rows]
        down = a[1:] < a[:-1]
        down &= c[1:] == c[:-1]
        down |= c[1:] < c[:-1]
        if down.any():
            return rows.start + 1 + int(np.argmax(down))
    return None


def _csv_rows(cycles: np.ndarray, addresses: np.ndarray) -> np.ndarray:
    """The CSV bytes of ``len(cycles)`` rows, built without a Python loop
    over rows.

    Each field gets a fixed slot: a sign byte, then as many digits as the
    chunk's largest magnitude has, least significant last.  The slots are
    filled a whole column at a time (row ``i`` of ``text`` is byte ``i`` of
    every line), and one boolean mask then drops each field's unused sign
    and leading zeros.
    """
    fields = [_magnitude(x) for x in (cycles, addresses)]
    width = sum(digits + 2 for _, _, digits in fields)
    text = np.empty((width, len(cycles)), np.uint8)
    keep = np.empty((width, len(cycles)), bool)
    pos = 0
    for (negative, mag, digits), end in zip(fields, b",\n"):
        text[pos] = ord("-")
        keep[pos] = negative
        for row in range(pos + digits, pos, -1):
            high = mag // 10
            np.subtract(mag, high * 10, out=text[row], casting="unsafe")
            np.greater(mag, 0, out=keep[row])
            mag = high
        text[pos + 1:pos + digits + 1] += ord("0")
        keep[pos + digits] = True  # the units digit, even of 0
        text[pos + digits + 1] = end
        keep[pos + digits + 1] = True
        pos += digits + 2
    return text.T[keep.T]


def _magnitude(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(x < 0, |x| as uint32 when every value fits, else uint64, digit count
    of max |x|).  Negation in uint64 is modulo 2**64, so -2**63 is exact."""
    negative = x < 0
    mag = x.view(np.uint64).copy()
    np.negative(mag, out=mag, where=negative)
    top = int(mag.max())
    if top <= np.iinfo(np.uint32).max:
        mag = mag.astype(np.uint32)
    return negative, mag, len(str(top))
