"""Loop-based reference versions of the memory model's vectorised passes.

These are the simulator's original implementations, kept as the oracle that
the differential tests compare ``systolicsim.memory`` against.  They are
slow on purpose: one Python iteration per cycle, and whole-trace lexsorts.
"""

import numpy as np

from systolicsim.errors import WorkingSetUnderflow
from systolicsim.memory import Epoch


def epochize_reference(trace, capacity_bytes, word_bytes=1):
    """Walk the trace one cycle at a time, admitting each cycle's new words
    until the next cycle's would overflow the buffer."""
    if capacity_bytes < word_bytes:
        raise ValueError("capacity must hold at least one word")
    if not len(trace):
        return []
    cap_words = capacity_bytes // word_bytes

    lo = int(trace.addresses.min())
    word_idx = (trace.addresses - lo) // word_bytes
    distinct_total = len(np.unique(word_idx))
    if distinct_total <= cap_words:
        uniq, first_pos = np.unique(word_idx, return_index=True)
        ordered = lo + uniq[np.argsort(first_pos)] * word_bytes
        return [Epoch(ordered, int(trace.cycles[0]), int(trace.cycles[-1]), word_bytes)]

    present = np.zeros(int(word_idx.max()) + 1, dtype=bool)
    cyc_vals, starts = np.unique(trace.cycles, return_index=True)
    bounds = np.append(starts, len(trace))
    epochs = []
    cur_parts = []
    cur_count = 0
    first_cyc = prev_cyc = None

    def close(last_cycle):
        nonlocal cur_parts, cur_count
        idx = np.concatenate(cur_parts)
        epochs.append(Epoch(lo + idx * word_bytes, int(first_cyc), int(last_cycle),
                            word_bytes))
        present[idx] = False
        cur_parts, cur_count = [], 0

    for ci, cyc in enumerate(cyc_vals):
        demand = np.unique(word_idx[bounds[ci]:bounds[ci + 1]])  # ascending = trace order
        if first_cyc is None:
            new = demand
        else:
            new = demand[~present[demand]]
            if cur_count + len(new) > cap_words:
                close(prev_cyc)
                first_cyc = None
                new = demand
        if first_cyc is None:
            if len(new) > cap_words:
                raise WorkingSetUnderflow(
                    f"working set underflow: cycle {int(cyc)} touches {len(new)} distinct "
                    f"words but the buffer holds {cap_words}")
            first_cyc = cyc
        if len(new):
            present[new] = True
            cur_count += len(new)
            cur_parts.append(new)
        prev_cyc = cyc
    close(prev_cyc)
    return epochs


def final_writes_reference(ofmap_writes):
    """Last write per address by two lexsorts: by (address, cycle) to find
    each address's last write, then back to (cycle, address) order."""
    ofmap_writes = ofmap_writes.collect()
    order = np.lexsort((ofmap_writes.cycles, ofmap_writes.addresses))
    addr_sorted = ofmap_writes.addresses[order]
    last_of_addr = order[np.append(addr_sorted[1:] != addr_sorted[:-1], True)]
    fin_cycles = ofmap_writes.cycles[last_of_addr]
    fin_addrs = ofmap_writes.addresses[last_of_addr]
    by_cycle = np.lexsort((fin_addrs, fin_cycles))
    return fin_cycles[by_cycle], fin_addrs[by_cycle]
