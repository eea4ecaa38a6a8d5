"""The bundled data must ship with the package.

The CLI's default ``--config`` and ``sweep``'s default workloads read files
under ``src/systolicsim/data/``; the suite imports the package from ``src/``,
so only ``[tool.setuptools.package-data]`` decides whether an installed copy
has them.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "systolicsim"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in 3.11")
def test_package_data_globs_cover_the_bundled_data():
    import tomllib

    globs = tomllib.loads((ROOT / "pyproject.toml").read_text())[
        "tool"]["setuptools"]["package-data"]["systolicsim"]
    shipped = {p for g in globs for p in PACKAGE.glob(g) if p.is_file()}
    data = {p for p in (PACKAGE / "data").rglob("*") if p.is_file()}
    assert data, "no bundled data found"
    assert sorted(p.relative_to(PACKAGE).as_posix() for p in data - shipped) == []
