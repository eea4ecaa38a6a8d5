"""Loop-based reference version of ``Trace.write_csv``.

This is the simulator's original writer, kept as the oracle that the
differential tests compare ``systolicsim.trace`` against.  It is slow on
purpose: one Python f-string per row.
"""

from systolicsim.trace import CSV_HEADER


def write_csv_reference(trace, path):
    with open(path, "w", buffering=1 << 20) as fh:
        fh.write(CSV_HEADER + "\n")
        for c, a in zip(trace.cycles.tolist(), trace.addresses.tolist()):
            fh.write(f"{c},{a}\n")
