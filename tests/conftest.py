"""Shared helpers for the test suite.

Random objects are drawn through numpy Generators seeded per test so
failures reproduce.  The draws themselves (random_params, random_state)
live in aladders.criteria, which the selftest shares.  Parameter draws
avoid the near-degenerate regime |alpha|/|beta| << 1 unless a test asks
for it explicitly: the Gram matrices of high rows become numerically
singular there (that regime is exercised separately through the
ill-conditioning error path).
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from aladders.criteria import random_params, random_state  # noqa: F401
from aladders.fock import FockVector


def max_amp_diff(u: FockVector, v: FockVector) -> float:
    """Largest per-amplitude difference |u[idx] − v[idx]| over joint support."""
    keys = set(u.support()) | set(v.support())
    if not keys:
        return 0.0
    return max(abs(u[k] - v[k]) for k in keys)


def rel_vec_err(u: FockVector, v: FockVector) -> float:
    """‖u − v‖ / max(‖v‖, 1)."""
    return (u - v).norm() / max(v.norm(), 1.0)


@pytest.fixture
def rng(request) -> np.random.Generator:
    """Per-test deterministic generator (seeded from the test name)."""
    seed = zlib.crc32(request.node.nodeid.encode())
    return np.random.default_rng(seed)
