import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

_ACCEPTANCE: list[tuple[str, str]] = []


def record_acceptance(name: str, passed: bool) -> None:
    _ACCEPTANCE.append((name, "PASS" if passed else "FAIL"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE:
        terminalreporter.section("acceptance criteria")
        for name, verdict in _ACCEPTANCE:
            terminalreporter.write_line(f"{verdict}  {name}")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_network(rng, dims, activations=None):
    from tcprune.network import LayeredNetwork

    weights = tuple(
        rng.standard_normal((dims[i], dims[i + 1])) for i in range(len(dims) - 1)
    )
    if activations is None:
        activations = ("identity",) * (len(dims) - 1)
    return LayeredNetwork(weights, activations)


def random_mask_tensor(rng, dims, density=0.5):
    from tcprune.network import MaskTensor

    masks = tuple(
        rng.random((dims[i], dims[i + 1])) < density for i in range(len(dims) - 1)
    )
    return MaskTensor(masks)


def small_dims(rng, max_connections: int) -> tuple[int, ...]:
    """Widths of 1-3 neurons, depth 1-4, with at most max_connections connections."""
    while True:
        dims = tuple(int(d) for d in rng.integers(1, 4, size=rng.integers(2, 6)))
        if sum(a * b for a, b in zip(dims, dims[1:])) <= max_connections:
            return dims
