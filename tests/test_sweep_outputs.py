"""Golden outputs of the four sweep studies.

Each study runs through ``cli.main`` at the bundled default config on
bundled ``w4_ncf`` and on a small topology whose second layer's ifmap
region runs into the filter offset, so that its cells are flagged
``error:``.  The sha256 of each ``sweep_<study>.csv`` and of the study's
stderr (its trend lines and flagged-cell count) are pinned; stdout, which
names the temporary output path, is not hashed.  A change that alters any
sweep CSV or trend line must say why and update these digests.
"""

import hashlib

import pytest

from helpers import time_limit, write_topology
from systolicsim.bundled import workload_path
from systolicsim.cli import EXIT_OK, main

STUDIES = {
    "dataflow": (("--sizes", "8,32"),
                 "96b3eeff2e1b955a1c425f1e9a6e7c29321e92061fb4cd98b4faaf7b3318af7b",
                 "52303b54ca2cb9a87fd60bd4a4de88158a10beaa44cfb9513b7fbb47fd78b64d"),
    "memory": (("--sram-sizes", "1,64"),
               "37ac2eae505262ccab797837ad2c08d48dbceb0eb7a8c3928b1a1cf917ef64ed",
               "57052ddc5e633e70ed4592eb99ae58550b74158d3607923d68ac04be70f5f5f7"),
    "aspect": (("--total-pes", "256"),
               "7b3a653a3f3a853b1c39a5fb9cf1a7a1a7df7bb96c5fe34ec61149174fed4ef8",
               "806a793254223581f3aee70c41df5f6010f7700fe7a3ca86271cbe8e2d69229e"),
    "scale": (("--pe-ladder", "64,256"),
              "dcf8201aa46ab53f4288b7ccce336dbc4ae431c238b864964315abd3d63eb368",
              "0bb8785a17d52c6f69fb4a223baab205ee9662d0611d93b21a42ed7393629c02"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("study", STUDIES)
def test_sweep_outputs_match_their_digests(tmp_path, capsys, study):
    # 16 MB of ifmap at word 1 reaches FilterOffset (16777216) of default.cfg
    bad = write_topology(tmp_path / "bad_offsets.csv", [
        ("fc", 16, 1, 1, 1, 16, 8, 1), ("wide", 4097, 4096, 1, 1, 1, 1, 1)])
    axis, csv_digest, stderr_digest = STUDIES[study]
    out = tmp_path / "out"
    with time_limit(10):
        assert main(["sweep", study, *axis, "--workloads", str(workload_path("w4_ncf")),
                     str(bad), "--out", str(out)]) == EXIT_OK
    err = capsys.readouterr().err
    assert (_sha((out / f"sweep_{study}.csv").read_bytes()), _sha(err.encode())) == \
        (csv_digest, stderr_digest), err
