"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import LearnerConfig, ParallelConfig
from repro.data.synthetic import make_module_dataset
from repro.datatypes import ExpressionMatrix


#: the three transports the one scheduler runs over (the nodes are forked
#: by the default start-method rule; tests/test_sharding.py repeats its
#: socket cases on spawned ones)
TRANSPORTS = {
    "in-process": ParallelConfig(n_workers=1),
    "pool": ParallelConfig(n_workers=2),
    "socket-nodes": ParallelConfig(n_nodes=2),
}

#: 24-variable inputs on each side of ``choose_mode`` for 2 and 4 workers:
#: many even modules keep every worker busy with whole modules; one module
#: on several workers can only be balanced by the flat split list
MODE_INPUTS = {
    "module": [list(range(lo, lo + 3)) for lo in range(0, 24, 3)],
    "split": [list(range(24))],
}


@pytest.fixture(scope="session")
def tiny_dataset():
    """A 24 x 12 module-structured data set (fast end-to-end runs)."""
    return make_module_dataset(24, 12, n_modules=3, seed=42)


@pytest.fixture(scope="session")
def small_dataset():
    """A 40 x 20 module-structured data set."""
    return make_module_dataset(40, 20, n_modules=4, seed=13)


@pytest.fixture(scope="session")
def tiny_matrix(tiny_dataset) -> ExpressionMatrix:
    return tiny_dataset.matrix


@pytest.fixture(scope="session")
def small_matrix(small_dataset) -> ExpressionMatrix:
    return small_dataset.matrix


@pytest.fixture()
def fast_config() -> LearnerConfig:
    """Minimum-run-time configuration (the paper's experimental setting)."""
    return LearnerConfig(max_sampling_steps=5)


@pytest.fixture(scope="session")
def rng_np():
    return np.random.default_rng(2024)
