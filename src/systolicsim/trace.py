"""Cycle-stamped address streams.

A trace is a pair of parallel int64 arrays in cycle order.  The order of
the events within a cycle is left open, and only the trace file depends on
it: ``Trace.write_csv`` writes the rows in (cycle, address) order, and
``Trace.read_csv`` rejects a file whose rows are not.  DRAM traces may
carry negative cycles for the cold-fill prologue.

The CSV form is exact text: the line ``cycle,address``, then one line
``<cycle>,<address>`` per pair.  Both numbers are plain decimal with no
padding and no ``+``; a negative one starts with ``-``.  Every line, the
last included, ends in ``\n``, and nothing follows the last row.  An empty
trace is the header line alone.  ``Trace.read_csv`` rejects a file that
breaks this form with a ``SimulationError``.
"""

from __future__ import annotations

import os
import warnings
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import SimulationError

CSV_HEADER = "cycle,address"

# events per pass of every bounded walk over a trace (engine, memory model,
# report, CSV I/O), read here or through segments() so one patch reaches all.
# A chunk's int64 field is 128 KB, malloc's default mmap threshold: freeing a
# larger temporary raises the threshold, which kept the memory model's later
# temporaries on the heap and raised peak RSS
CHUNK_EVENTS = 1 << 14

# 10, 100, ..., 10**18: the powers of ten within int64
POWERS_OF_TEN = [10 ** k for k in range(1, 19)]


def segments(n: int) -> Iterator[slice]:
    """Consecutive slices of at most ``CHUNK_EVENTS`` covering ``range(n)``."""
    for start in range(0, n, CHUNK_EVENTS):
        yield slice(start, min(start + CHUNK_EVENTS, n))


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


def cycle_end(cycles: np.ndarray, start: int, events: int) -> int:
    """The end of the whole cycles from event ``start`` that hold at least
    ``events`` events, or of the trace.  Asserts that they are in cycle
    order and start a cycle, so that a walk over them cannot stall."""
    stop = int(np.searchsorted(cycles, cycles[min(start + events, len(cycles)) - 1], "right"))
    run = cycles[start:stop]
    assert (stop > start and (start == 0 or cycles[start - 1] < run[0])
            and (run[1:] >= run[:-1]).all()), (
        f"trace is not in cycle order at or after event {start}")
    return stop


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
        """Write a cycle-ordered trace in (cycle, address) order, one chunk
        of whole cycles at a time; a chunk out of that order is written
        from a sorted copy."""
        start, n = 0, len(self)
        with open(path, "wb") as fh:
            fh.write(CSV_HEADER.encode() + b"\n")
            while start < n:
                stop = cycle_end(self.cycles, start, CHUNK_EVENTS)
                cycles, addresses = self.cycles[start:stop], self.addresses[start:stop]
                if first_out_of_order(cycles, addresses) is not None:
                    cycles, addresses = sort_pairs(cycles.copy(), addresses.copy())
                fh.write(_csv_rows(cycles, addresses))
                start = stop

    @classmethod
    def read_csv(cls, path: str | Path) -> "Trace":
        header = CSV_HEADER.encode() + b"\n"
        with open(path, "rb") as fh:
            if fh.readline() != header:
                raise SimulationError(f"trace {path}: first line is not {CSV_HEADER!r}")
            size = fh.seek(0, os.SEEK_END)
            if size == len(header):
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
        cycles, addresses = data[:, 0], data[:, 1]
        row = first_out_of_order(cycles, addresses)
        if row is not None:
            raise SimulationError(f"trace {path}: line {row + 2} is out of (cycle, address) "
                                  "order")
        # np.loadtxt also takes "+5", "05", " 5", "-0", "\r\n", "#..." and a bare
        # "\r" as a line end.  Each but the last is longer than the canonical
        # text, and the canonical text has no "\r" at all.
        if size != len(header) + _text_bytes(cycles, addresses) or _holds(path, b"\r"):
            line = _first_non_canonical_line(path, cycles, addresses)
            raise SimulationError(f"trace {path}: line {line} is not in canonical form")
        return cls(cycles, addresses)


def first_out_of_order(cycles: np.ndarray,
                       addresses: np.ndarray | None = None) -> int | None:
    """The first row that sorts before the row above it by (cycle,
    address), or by cycle alone without ``addresses``; None if there is
    none.  The rows are checked one segment at a time, each with the last
    row before it, so the temporaries are O(CHUNK_EVENTS)."""
    for seg in segments(len(cycles)):
        rows = slice(max(seg.start - 1, 0), seg.stop)
        c = cycles[rows]
        down = c[1:] < c[:-1]
        if addresses is not None:
            a = addresses[rows]
            down |= (a[1:] < a[:-1]) & (c[1:] == c[:-1])
        if down.any():
            return rows.start + 1 + int(np.argmax(down))
    return None


def _csv_rows(cycles: np.ndarray, addresses: np.ndarray) -> np.ndarray:
    """The CSV bytes of ``len(cycles)`` rows, built without a Python loop
    over rows.

    Each field gets a fixed slot: a sign byte when the chunk holds a
    negative value in that field, then as many digits as the chunk's
    largest magnitude has, least significant last.  The slots are filled a
    whole column at a time (row ``i`` of ``text`` is byte ``i`` of every
    line), and one boolean mask then drops each field's unused sign and
    leading zeros.
    """
    fields = [_magnitude(x) for x in (cycles, addresses)]
    signed = [bool(negative.any()) for negative, _, _ in fields]
    width = sum(digits + sign + 1 for (_, _, digits), sign in zip(fields, signed))
    text = np.empty((width, len(cycles)), np.uint8)
    keep = np.empty((width, len(cycles)), bool)
    pos = 0
    for (negative, mag, digits), sign, end in zip(fields, signed, b",\n"):
        if sign:
            text[pos] = ord("-")
            keep[pos] = negative
            pos += 1
        for row in range(pos + digits - 1, pos - 1, -1):
            high = mag // 10
            np.subtract(mag, high * 10, out=text[row], casting="unsafe")
            np.greater(mag, 0, out=keep[row])
            mag = high
        text[pos:pos + digits] += ord("0")
        keep[pos + digits - 1] = True  # the units digit, even of 0
        text[pos + digits] = end
        keep[pos + digits] = True
        pos += digits + 1
    # most chunks drop nothing (each field of one sign and one digit count),
    # and a plain copy is far cheaper than the masked one
    return text.T.ravel() if keep.all() else text.T[keep.T]


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


def _text_bytes(cycles: np.ndarray, addresses: np.ndarray) -> int:
    """The size of the canonical CSV rows of these pairs, given cycles in
    order: per row a comma and a line end, plus every digit and minus
    sign.  The sorted cycles count their digits with two searches per power
    of ten; the addresses are counted one segment at a time."""
    n = len(cycles)
    size = 3 * n + int(np.searchsorted(cycles, 0))  # ",", "\n", units digit, "-"
    for p in POWERS_OF_TEN:
        more = n - int(np.searchsorted(cycles, p)) + int(np.searchsorted(cycles, -p, "right"))
        if not more:
            break
        size += more
    for seg in segments(n):
        negative, mag, digits = _magnitude(addresses[seg])
        size += len(mag) + int(np.count_nonzero(negative))
        size += sum(int(np.count_nonzero(mag >= p)) for p in POWERS_OF_TEN[:digits - 1])
    return size


def _holds(path: str | Path, byte: bytes) -> bool:
    """Whether the file holds ``byte``, read 1 MB at a time."""
    block = bytearray(1 << 20)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(block):
            if block.find(byte, 0, size) >= 0:
                return True
    return False


def _first_non_canonical_line(path: str | Path, cycles: np.ndarray,
                              addresses: np.ndarray) -> int:
    """The number of the first line of a trace file that differs from the
    canonical text of the rows it parsed to."""
    with open(path, "rb") as fh:
        fh.readline()
        for seg in segments(len(cycles)):
            want = _csv_rows(cycles[seg], addresses[seg])
            got = np.frombuffer(fh.read(len(want)), np.uint8)
            differ = got != want[:len(got)]
            if differ.any() or len(got) < len(want):
                same = int(np.argmax(differ)) if differ.any() else len(got)
                return seg.start + 2 + int(np.count_nonzero(want[:same] == ord("\n")))
    return len(cycles) + 2
