"""Cycle-stamped address streams.

A trace is a pair of parallel int64 arrays sorted by (cycle, address).
The CSV form is one row per (cycle, address) pair with a ``cycle,address``
header; DRAM traces may carry negative cycles for the cold-fill prologue.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

CSV_HEADER = "cycle,address"


def sort_pairs(major: np.ndarray, minor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort int64 pairs by (major, minor); return both arrays in that order.

    The pair is packed into one key, ``(major - m0) * span + (minor - n0)``,
    sorted in place and decoded with ``divmod``.  Equal pairs are equal keys,
    so the result is exactly ``np.lexsort((minor, major))``'s order.  When the
    packed range would not fit in int64, this falls back to ``np.lexsort``.
    """
    m0, n0 = int(major.min()), int(minor.min())
    span = int(minor.max()) - n0 + 1
    if (int(major.max()) - m0 + 1) * span > np.iinfo(np.int64).max:
        order = np.lexsort((minor, major))
        return major[order], minor[order]
    # intermediate sums may wrap, but the final key fits, so it is exact
    key = major - m0
    key *= span
    key += minor
    key -= n0
    key.sort()
    high = np.empty_like(key)
    np.divmod(key, span, out=(high, key))
    high += m0
    key += n0
    return high, key


def cycle_runs(cycles: np.ndarray) -> np.ndarray:
    """Boundaries of the runs of equal values in a sorted cycle array: run i
    is ``cycles[b[i]:b[i + 1]]``.  Empty input gives ``[0]``."""
    if not len(cycles):
        return np.zeros(1, np.int64)
    return np.concatenate(([0], np.flatnonzero(np.diff(cycles)) + 1, [len(cycles)]))


class TraceEvent(NamedTuple):
    cycle: int
    addresses: np.ndarray  # all addresses issued this cycle, ascending


class Trace:
    __slots__ = ("cycles", "addresses")

    def __init__(self, cycles: np.ndarray, addresses: np.ndarray, sort: bool = True):
        cycles = np.asarray(cycles, dtype=np.int64)
        addresses = np.asarray(addresses, dtype=np.int64)
        if cycles.shape != addresses.shape:
            raise ValueError("cycle/address arrays must have equal length")
        if sort and len(cycles):
            cycles, addresses = sort_pairs(cycles, addresses)
        self.cycles = cycles
        self.addresses = addresses

    @classmethod
    def empty(cls) -> "Trace":
        return cls(np.empty(0, np.int64), np.empty(0, np.int64), sort=False)

    @classmethod
    def concat(cls, traces: "list[Trace]") -> "Trace":
        if not traces:
            return cls.empty()
        return cls(np.concatenate([t.cycles for t in traces]),
                   np.concatenate([t.addresses for t in traces]))

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

    def distinct_addresses(self) -> np.ndarray:
        addresses = np.sort(self.addresses)
        if not len(addresses):
            return addresses
        return addresses[np.append(True, addresses[1:] != addresses[:-1])]

    def events(self) -> Iterator[TraceEvent]:
        """Yield per-cycle groups, addresses ascending within each cycle."""
        bounds = cycle_runs(self.cycles)
        for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            yield TraceEvent(int(self.cycles[start]), self.addresses[start:stop])

    def per_cycle_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """(cycles, event counts) for cycles that have at least one event."""
        bounds = cycle_runs(self.cycles)
        return self.cycles[bounds[:-1]], np.diff(bounds)

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", buffering=1 << 20) as fh:
            fh.write(CSV_HEADER + "\n")
            for c, a in zip(self.cycles.tolist(), self.addresses.tolist()):
                fh.write(f"{c},{a}\n")

    @classmethod
    def read_csv(cls, path: str | Path) -> "Trace":
        with open(path) as fh:
            fh.readline()
            if not fh.readline().strip():
                return cls.empty()
        data = np.loadtxt(path, dtype=np.int64, delimiter=",", skiprows=1, ndmin=2)
        return cls(data[:, 0], data[:, 1], sort=False)
