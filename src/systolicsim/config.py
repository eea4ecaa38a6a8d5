"""Architecture config and network topology parsing.

The architecture file is INI-style key=value under named sections.  The
topology file is a CSV with one row per layer; layers run serially in file
order.  Matrix workloads (GEMM/MV/VV) are lowered onto the same layer form
via ``lower_gemm``.
"""

from __future__ import annotations

import configparser
import csv
import io
import warnings
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

from .errors import ConfigError, TopologyError

ALL_DATAFLOWS = ("os", "ws", "is")


class Dataflow(Enum):
    OS = "os"  # outputs pinned to PEs
    WS = "ws"  # weights pinned to PEs
    IS = "is"  # input windows pinned to PEs

    @classmethod
    def parse(cls, value: str) -> "Dataflow":
        v = value.strip().lower()
        if v not in ALL_DATAFLOWS:
            raise ConfigError(
                f"unsupported dataflow {value!r}; legal values are 'os', 'ws', and 'is'"
            )
        return cls(v)


# key of the architecture file -> ArchConfig field, in canonical spelling and
# emit order; every key but the optional ones is required
CONFIG_FIELDS = {
    "ArrayHeight": "array_rows", "ArrayWidth": "array_cols",
    "IfmapSRAMSz": "ifmap_sram_kb", "FilterSRAMSz": "filter_sram_kb",
    "OfmapSRAMSz": "ofmap_sram_kb", "IfmapOffset": "ifmap_offset",
    "FilterOffset": "filter_offset", "OfmapOffset": "ofmap_offset",
    "DataFlow": "dataflow", "Topology": "topology_path", "WordBytes": "word_bytes",
}
OPTIONAL_CONFIG_KEYS = ("WordBytes",)
CONFIG_KEYS = tuple(k for k in CONFIG_FIELDS if k not in OPTIONAL_CONFIG_KEYS)


@dataclass(frozen=True)
class ArchConfig:
    """Systolic array + scratchpad description.

    SRAM sizes are the capacity of ONE working-set buffer per partition;
    the idle half of each double buffer is implicit.
    """

    array_rows: int
    array_cols: int
    ifmap_sram_kb: int
    filter_sram_kb: int
    ofmap_sram_kb: int
    ifmap_offset: int
    filter_offset: int
    ofmap_offset: int
    dataflow: Dataflow
    word_bytes: int = 1
    topology_path: str = ""

    def __post_init__(self):
        for field in ("array_rows", "array_cols", "ifmap_sram_kb",
                      "filter_sram_kb", "ofmap_sram_kb", "word_bytes"):
            if getattr(self, field) < 1:
                raise ConfigError(f"{field} must be a positive integer, got {getattr(self, field)}")
        for field in ("ifmap_offset", "filter_offset", "ofmap_offset"):
            if getattr(self, field) < 0:
                raise ConfigError(f"{field} must be non-negative, got {getattr(self, field)}")
        for part in ("ifmap", "filter", "ofmap"):
            kb = getattr(self, f"{part}_sram_kb")
            if kb * 1024 < self.word_bytes:
                raise ConfigError(
                    f"{part} buffer of {kb} KB cannot hold one {self.word_bytes}-byte word")

    @property
    def ifmap_capacity_bytes(self) -> int:
        return self.ifmap_sram_kb * 1024

    @property
    def filter_capacity_bytes(self) -> int:
        return self.filter_sram_kb * 1024

    @property
    def ofmap_capacity_bytes(self) -> int:
        return self.ofmap_sram_kb * 1024

    def with_overrides(self, **kwargs) -> "ArchConfig":
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        if "dataflow" in kwargs and isinstance(kwargs["dataflow"], str):
            kwargs["dataflow"] = Dataflow.parse(kwargs["dataflow"])
        return replace(self, **kwargs)


@dataclass(frozen=True)
class LayerSpec:
    """One topology row.  IFMAP dims are pre-padded; there is no pad field."""

    name: str
    ifmap_h: int
    ifmap_w: int
    filter_h: int
    filter_w: int
    channels: int
    num_filters: int
    stride: int

    def __post_init__(self):
        for field in ("ifmap_h", "ifmap_w", "filter_h", "filter_w",
                      "channels", "num_filters", "stride"):
            if getattr(self, field) < 1:
                raise TopologyError(
                    f"layer {self.name!r}: {field} must be >= 1, got {getattr(self, field)}")
        if self.filter_h > self.ifmap_h or self.filter_w > self.ifmap_w:
            raise TopologyError(
                f"layer {self.name!r}: filter {self.filter_h}x{self.filter_w} larger than "
                f"ifmap {self.ifmap_h}x{self.ifmap_w}")


def lower_gemm(m: int, k: int, n: int, name: str = "gemm") -> LayerSpec:
    """Lower an (m x k) @ (k x n) product to a layer with m windows of size k
    against n filters."""
    if min(m, k, n) < 1:
        raise TopologyError(f"GEMM dims must be positive, got ({m},{k},{n})")
    return LayerSpec(name=name, ifmap_h=m, ifmap_w=1, filter_h=1, filter_w=1,
                     channels=k, num_filters=n, stride=1)


def _config_value(key: str, raw: str):
    """The ArchConfig value of a config key's text: every key but DataFlow
    and Topology is a decimal integer."""
    if key == "DataFlow":
        return Dataflow.parse(raw)
    if key == "Topology":
        return raw.strip()
    try:
        return int(raw.strip())
    except ValueError:
        raise ConfigError(f"config key {key} must be a decimal integer, got {raw!r}") from None


def parse_config(text: str) -> ArchConfig:
    """Parse the architecture file.  Unknown keys warn; missing required keys,
    a key given twice in any spelling and illegal values raise ConfigError."""
    # no default section, so that a [DEFAULT] key counts once, not per section
    parser = configparser.ConfigParser(default_section="")
    parser.optionxform = str  # keep key case
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}") from exc

    found: dict[str, tuple[str, str]] = {}     # canonical key -> (value, where it is)
    canonical = {k.lower(): k for k in CONFIG_FIELDS}
    for section in parser.sections():
        for key, value in parser.items(section):
            canon = canonical.get(key.lower())
            if canon is None:
                warnings.warn(f"ignoring unknown config key {key!r} in section [{section}]")
                continue
            place = f"{key!r} in section [{section}]"
            if canon in found:
                raise ConfigError(f"config key {canon} is given twice: {found[canon][1]} and {place}")
            found[canon] = value, place

    missing = [k for k in CONFIG_KEYS if k not in found]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")

    return ArchConfig(**{field: _config_value(key, found[key][0])
                         for key, field in CONFIG_FIELDS.items() if key in found})


def load_config(path: str | Path) -> ArchConfig:
    """Read a config file; a relative Topology path is resolved against the
    config file's directory."""
    path = Path(path)
    cfg = parse_config(path.read_text())
    if cfg.topology_path and not Path(cfg.topology_path).is_absolute():
        cfg = cfg.with_overrides(topology_path=str(path.parent / cfg.topology_path))
    return cfg


TOPOLOGY_HEADER = ("Layer Name", "IFMAP Height", "IFMAP Width", "Filter Height",
                   "Filter Width", "Channels", "Num Filter", "Strides")


def parse_topology(text: str) -> list[LayerSpec]:
    """Parse the topology CSV.  Column order is fixed, and the header must
    name the columns of ``TOPOLOGY_HEADER``, in any case; one LayerSpec per
    data row, preserving file order."""
    rows = [r for r in csv.reader(io.StringIO(text))]
    # tolerate blank lines and a trailing empty column after the last comma
    rows = [[cell.strip() for cell in row] for row in rows if any(c.strip() for c in row)]
    rows = [row[:-1] if row[-1] == "" else row for row in rows]
    if not rows:
        return []
    header = rows[0]
    if len(header) != len(TOPOLOGY_HEADER):
        raise TopologyError(
            f"topology header has {len(header)} columns, expected {len(TOPOLOGY_HEADER)}: "
            f"{', '.join(TOPOLOGY_HEADER)}")
    for column, (cell, name) in enumerate(zip(header, TOPOLOGY_HEADER), start=1):
        if cell.lower() != name.lower():
            raise TopologyError(f"topology header column {column} is {cell!r}, "
                                f"expected {name!r}")

    layers = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(TOPOLOGY_HEADER):
            raise TopologyError(f"topology line {lineno}: expected "
                                f"{len(TOPOLOGY_HEADER)} columns, got {len(row)}")
        name, *dims = row
        try:
            vals = [int(d) for d in dims]
        except ValueError:
            raise TopologyError(f"topology line {lineno}: non-integer field in {row}") from None
        layers.append(LayerSpec(name, *vals))
    return layers


def load_topology(path: str | Path) -> list[LayerSpec]:
    return parse_topology(Path(path).read_text())
