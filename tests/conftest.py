"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import SearchRequest, Session
from repro.api.codec import arch_payload, workload_payload
from repro.feather.config import FeatherConfig
from repro.workloads.conv import ConvLayerSpec
from repro.workloads.gemm import GemmSpec


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="regenerate the pinned scenario records under tests/golden/ "
             "from the current code instead of comparing against them")


@pytest.fixture
def update_golden(request):
    """True when the run should rewrite the golden files."""
    return request.config.getoption("--update-golden")


@pytest.fixture
def search_cost():
    """``search_cost(arch, workloads, **request)``: one whole-model search
    on a private :class:`Session` with a fresh evaluation cache (serial
    unless ``workers`` is given), returning the live ``ModelCost``."""
    def run(arch, workloads, **request):
        request.setdefault("workers", 1)
        with Session(name="test") as session:
            return session.run(SearchRequest(
                workloads=tuple(workload_payload(w) for w in workloads),
                arch=arch_payload(arch), fresh_cache=True, **request)).cost
    return run


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_conv_layer():
    """A small convolution exercising stride and padding."""
    return ConvLayerSpec("test_conv", m=8, c=4, h=6, w=6, r=3, s=3, stride=1, padding=1)


@pytest.fixture
def tiny_conv_layer():
    """A minimal convolution for fast functional runs."""
    return ConvLayerSpec("tiny_conv", m=4, c=2, h=4, w=4, r=2, s=2, stride=1, padding=0)


@pytest.fixture
def strided_conv_layer():
    return ConvLayerSpec("strided_conv", m=4, c=3, h=8, w=8, r=3, s=3, stride=2, padding=1)


@pytest.fixture
def small_gemm():
    return GemmSpec("test_gemm", m=12, k=16, n=10)


@pytest.fixture
def small_feather_config():
    return FeatherConfig(array_rows=4, array_cols=8, stab_lines=256, strb_lines=256)


@pytest.fixture
def tiny_feather_config():
    return FeatherConfig(array_rows=4, array_cols=4, stab_lines=128, strb_lines=128)
