import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import format_config, format_topology
from systolicsim.config import (ArchConfig, Dataflow, LayerSpec, lower_gemm,
                                parse_config, parse_topology)
from systolicsim.errors import ConfigError, TopologyError
from systolicsim.mapping import workload_counts

TPU_LIKE = """
[general]
ArrayHeight = 128
ArrayWidth = 128
IfmapSRAMSz = 512
FilterSRAMSz = 512
OfmapSRAMSz = 256
IfmapOffset = 0
FilterOffset = 10000000
OfmapOffset = 20000000
DataFlow = os
Topology = net.csv
"""


def test_parse_config_tpu_like():
    cfg = parse_config(TPU_LIKE)
    assert cfg.array_rows == 128 and cfg.array_cols == 128
    assert cfg.dataflow is Dataflow.OS
    assert (cfg.ifmap_sram_kb, cfg.filter_sram_kb, cfg.ofmap_sram_kb) == (512, 512, 256)
    assert cfg.word_bytes == 1
    assert cfg.topology_path == "net.csv"


def test_parse_config_degenerate_1x1():
    text = TPU_LIKE.replace("128", "1").replace("512", "1").replace("256", "1")
    cfg = parse_config(text)
    assert cfg.array_rows == 1 and cfg.array_cols == 1


def test_parse_config_rejects_rs_dataflow():
    with pytest.raises(ConfigError, match="unsupported dataflow"):
        parse_config(TPU_LIKE.replace("DataFlow = os", "DataFlow = rs"))


def test_parse_config_error_names_legal_values():
    with pytest.raises(ConfigError, match="'os', 'ws', and 'is'"):
        parse_config(TPU_LIKE.replace("DataFlow = os", "DataFlow = nlr"))


def test_parse_config_missing_key():
    with pytest.raises(ConfigError, match="ArrayWidth"):
        parse_config(TPU_LIKE.replace("ArrayWidth = 128\n", ""))


def test_parse_config_unknown_key_warns():
    with pytest.warns(UserWarning, match="Frequency"):
        cfg = parse_config(TPU_LIKE + "Frequency = 700\n")
    assert cfg.array_rows == 128


def test_parse_config_rejects_nonpositive_dimension():
    with pytest.raises(ConfigError):
        parse_config(TPU_LIKE.replace("ArrayHeight = 128", "ArrayHeight = 0"))


def test_parse_config_rejects_noninteger():
    with pytest.raises(ConfigError):
        parse_config(TPU_LIKE.replace("ArrayHeight = 128", "ArrayHeight = big"))


dataflows = st.sampled_from(["os", "ws", "is"])


@st.composite
def arch_configs(draw):
    return ArchConfig(
        array_rows=draw(st.integers(1, 512)),
        array_cols=draw(st.integers(1, 512)),
        ifmap_sram_kb=draw(st.integers(1, 4096)),
        filter_sram_kb=draw(st.integers(1, 4096)),
        ofmap_sram_kb=draw(st.integers(1, 4096)),
        ifmap_offset=draw(st.integers(0, 10**9)),
        filter_offset=draw(st.integers(0, 10**9)),
        ofmap_offset=draw(st.integers(0, 10**9)),
        dataflow=Dataflow.parse(draw(dataflows)),
        word_bytes=draw(st.integers(1, 4)),
        topology_path=draw(st.sampled_from(["net.csv", "dir/net.csv", "a.csv"])),
    )


@given(arch_configs())
def test_config_round_trip(cfg):
    assert parse_config(format_config(cfg)) == cfg


TOPO_HEADER = ("Layer Name,IFMAP Height,IFMAP Width,Filter Height,Filter Width,"
               "Channels,Num Filter,Strides\n")


def test_parse_topology_resnet_style_row():
    layers = parse_topology(TOPO_HEADER + "conv1,230,230,7,7,3,64,2\n")
    assert layers == [LayerSpec("conv1", 230, 230, 7, 7, 3, 64, 2)]


def test_parse_topology_header_only():
    assert parse_topology(TOPO_HEADER) == []


def test_parse_topology_empty_text():
    assert parse_topology("") == []


def test_parse_topology_zero_stride():
    with pytest.raises(TopologyError):
        parse_topology(TOPO_HEADER + "bad,8,8,3,3,1,1,0\n")


def test_parse_topology_wrong_column_count():
    with pytest.raises(TopologyError, match="columns"):
        parse_topology(TOPO_HEADER + "bad,8,8,3,3,1,1\n")


def test_parse_topology_non_integer():
    with pytest.raises(TopologyError, match="non-integer"):
        parse_topology(TOPO_HEADER + "bad,8,8,3,3,one,1,1\n")


def test_parse_topology_filter_larger_than_ifmap():
    with pytest.raises(TopologyError, match="larger"):
        parse_topology(TOPO_HEADER + "bad,4,4,5,5,1,1,1\n")


def test_parse_topology_tolerates_trailing_comma():
    layers = parse_topology(TOPO_HEADER + "conv1,8,8,3,3,1,4,1,\n")
    assert layers[0].num_filters == 4


def test_parse_topology_takes_scale_sim_header_spelling():
    # SCALE-Sim writes "Layer name", a space after each comma and a trailing comma
    header = TOPO_HEADER.replace("Layer Name", "Layer name").replace(",", ", ")
    layers = parse_topology(header.rstrip("\n") + ",\nconv1,8,8,3,3,1,4,1,\n")
    assert layers == [LayerSpec("conv1", 8, 8, 3, 3, 1, 4, 1)]
    assert parse_topology(TOPO_HEADER.upper() + "conv1,8,8,3,3,1,4,1\n") == layers


@pytest.mark.parametrize("header,message", [
    # once parsed with Channels and Num Filter swapped
    (TOPO_HEADER.replace("Channels,Num Filter", "Num Filter,Channels"),
     "column 6 is 'Num Filter', expected 'Channels'"),
    ("a,b,c,d,e,f,g,h\n", "column 1 is 'a', expected 'Layer Name'"),
    (TOPO_HEADER.replace("Strides", "Stride"), "column 8 is 'Stride', expected 'Strides'"),
    (TOPO_HEADER.replace(",Channels", ",,Channels"), "header has 9 columns"),
])
def test_parse_topology_checks_header_names(header, message):
    with pytest.raises(TopologyError, match=message):
        parse_topology(header + "conv1,8,8,3,3,1,4,1\n")


@st.composite
def layer_specs(draw):
    ih = draw(st.integers(1, 300))
    iw = draw(st.integers(1, 300))
    return LayerSpec(
        name=draw(st.text(alphabet="abcdefgh123_", min_size=1, max_size=10)),
        ifmap_h=ih, ifmap_w=iw,
        filter_h=draw(st.integers(1, ih)), filter_w=draw(st.integers(1, iw)),
        channels=draw(st.integers(1, 64)),
        num_filters=draw(st.integers(1, 64)),
        stride=draw(st.integers(1, 4)),
    )


@given(st.lists(layer_specs(), max_size=8))
def test_topology_round_trip_preserves_order_and_count(layers):
    assert parse_topology(format_topology(layers)) == layers


def test_lower_gemm_square():
    assert lower_gemm(4, 4, 4) == LayerSpec("gemm", 4, 1, 1, 1, 4, 4, 1)


def test_lower_gemm_vector_cases():
    mv = lower_gemm(1, 7, 1)
    counts = workload_counts(mv)
    assert (counts.n_windows, counts.window_size, counts.n_filters) == (1, 7, 1)


def test_lower_gemm_counts_identity_example():
    counts = workload_counts(lower_gemm(128, 256, 64))
    assert (counts.n_windows, counts.window_size, counts.n_filters) == (128, 256, 64)


@given(st.integers(1, 500), st.integers(1, 500), st.integers(1, 500))
def test_lower_gemm_counts_identity(m, k, n):
    counts = workload_counts(lower_gemm(m, k, n))
    assert (counts.n_windows, counts.window_size, counts.n_filters) == (m, k, n)
    assert counts.macs_total == m * k * n


def test_lower_gemm_rejects_nonpositive():
    with pytest.raises(TopologyError):
        lower_gemm(0, 1, 1)
