"""Golden outputs of ``run``.

``run`` goes through ``cli.main`` on a small written topology, on a 4x4
array with 1 KB buffers, under each dataflow.  Layer ``folds`` has a
36-element window, so WS and IS reduce it over 9 row folds; layer
``overflow`` reads 2304 ifmap bytes, so its ifmap buffer overflows and its
reads are fetched in several epochs.  The sha256 of ``summary.csv``, of
``network.csv`` and of the listing of every trace file's sha256 are pinned,
and ``report`` must rebuild both summaries byte for byte.  A change that
alters any of these files must say why and update the digests.
"""

import hashlib

import pytest

from helpers import time_limit, write_config, write_topology
from systolicsim.cli import EXIT_OK, TRACE_KINDS, main

LAYERS = [("folds", 8, 8, 3, 3, 4, 6, 1), ("overflow", 24, 24, 3, 3, 4, 8, 1)]
SUMMARIES = ("summary.csv", "network.csv")

DIGESTS = {
    "os": ("b3a4955e4fd8c44a94383645335ab6fc80b67313d3e82d9752cb868721b76715",
           "4ef62d37efcd4bfc3353df89122a716091b148032bc916d21e7cbe2421549686",
           "caab7cd1899f552486841224fd8b1cfcaef72059b034eac3aeca22caff42927f"),
    "ws": ("e5327f51d0d3689edde634ef7fad41bc865992505c9a7f4d56ca281040530599",
           "f3732cecee57751090bd7a3dad56a656e920dc97b6161756708083e6c546b0cc",
           "876ef48c8517bc255cb8dff26393db62a606f9fda07a2de5c9fc53602d1432d1"),
    "is": ("e1e2eeb8b5c69ba8cdd9708e7e83bb9f301fef79197db36e7a590f7caae68e96",
           "a947dd1c62636226e8801e85ab1d9e48112196500ce9511d492ddd7f18f3772e",
           "a21666c29d469a00336c072c72c804fed2db5fd5d0c0e28d859aa8fd3079fb67"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(run_dir) -> tuple[str, str, str]:
    """The sha256 of each summary, and of the lines naming each trace file
    with its sha256, in layer and ``TRACE_KINDS`` order."""
    files = [f"{name}_{kind}.csv" for name, *_ in LAYERS for kind in TRACE_KINDS]
    listing = "".join(f"{file} {_sha((run_dir / file).read_bytes())}\n" for file in files)
    return (*(_sha((run_dir / name).read_bytes()) for name in SUMMARIES),
            _sha(listing.encode()))


@pytest.mark.parametrize("dataflow", DIGESTS)
def test_run_outputs_match_their_digests(tmp_path, dataflow):
    write_topology(tmp_path / "topo.csv", LAYERS)
    write_config(tmp_path / "arch.cfg", rows=4, cols=4, dataflow=dataflow,
                 ifmap_kb=1, filter_kb=1, ofmap_kb=1)
    run_dir = tmp_path / "out" / "r1"
    with time_limit(10):
        assert main(["run", "--config", str(tmp_path / "arch.cfg"), "--out",
                     str(tmp_path / "out"), "--run-id", "r1", "--jobs", "1"]) == EXIT_OK
        assert _digests(run_dir) == DIGESTS[dataflow]
        written = {name: (run_dir / name).read_bytes() for name in SUMMARIES}
        for name in SUMMARIES:
            (run_dir / name).unlink()
        assert main(["report", str(run_dir), "--jobs", "1"]) == EXIT_OK
    assert {name: (run_dir / name).read_bytes() for name in SUMMARIES} == written
