import random

import numpy as np
import pytest

from helpers import make_arch, random_small_layer
from oracle import direct_convolution, filter_value, ifmap_value, simulate_grid
from systolicsim.config import LayerSpec, lower_gemm
from systolicsim.errors import SimulationError
from systolicsim.mapping import workload_counts


def test_gemm2_os_cycles_and_outputs():
    g = lower_gemm(2, 2, 2)
    res = simulate_grid(g, make_arch(2, 2, "os"))
    assert res.total_cycles == 4  # 3*2 - 2
    a = np.array([[ifmap_value(p * 2 + c) for c in range(2)] for p in range(2)])
    b = np.array([[filter_value(f * 2 + c) for f in range(2)] for c in range(2)])
    want = a @ b
    got = np.array([[res.outputs[(p, f)] for f in range(2)] for p in range(2)])
    assert np.array_equal(got, want)


def test_oracle_matches_direct_convolution_smoke():
    layer = LayerSpec("t", 5, 4, 2, 2, 3, 2, 1)
    for df in ("os", "ws", "is"):
        res = simulate_grid(layer, make_arch(3, 2, df))
        assert res.outputs == direct_convolution(layer)


def test_1x1_array_cycles_are_macs_plus_fill():
    layer = LayerSpec("t", 3, 3, 2, 2, 2, 3, 1)
    counts = workload_counts(layer)
    os_res = simulate_grid(layer, make_arch(1, 1, "os"))
    assert os_res.total_cycles == counts.macs_total
    ws_res = simulate_grid(layer, make_arch(1, 1, "ws"))
    assert ws_res.total_cycles == counts.macs_total + counts.window_size * counts.n_filters
    is_res = simulate_grid(layer, make_arch(1, 1, "is"))
    assert is_res.total_cycles == counts.macs_total + counts.window_size * counts.n_windows


def test_random_layers_match_direct_convolution():
    rng = random.Random(99)
    for _ in range(40):
        layer = random_small_layer(rng)
        arch_dims = (rng.randint(1, 8), rng.randint(1, 8))
        for df in ("os", "ws", "is"):
            res = simulate_grid(layer, make_arch(*arch_dims, df))
            assert res.outputs == direct_convolution(layer), (layer, arch_dims, df)
            assert res.mac_count == workload_counts(layer).macs_total


def test_scale_bounds():
    with pytest.raises(SimulationError, match="PEs"):
        simulate_grid(lower_gemm(2, 2, 2), make_arch(128, 128, "os"))
    with pytest.raises(SimulationError, match="MACs"):
        simulate_grid(lower_gemm(200, 200, 200), make_arch(8, 8, "os"))
