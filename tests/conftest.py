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

import argparse
import zlib

import numpy as np
import pytest

from aladders.cli import build_parser
from aladders.criteria import random_params, random_state  # noqa: F401
from aladders.fock import FockVector


def max_amp_diff(u: FockVector, v: FockVector) -> float:
    """Largest per-amplitude difference |u[idx] − v[idx]| over joint support."""
    keys = set(u) | set(v)
    if not keys:
        return 0.0
    return max(abs(u[k] - v[k]) for k in keys)


def rel_vec_err(u: FockVector, v: FockVector) -> float:
    """‖u − v‖ / max(‖v‖, 1)."""
    return (u - v).norm() / max(v.norm(), 1.0)


def required_flags() -> dict[str, list[str]]:
    """Subcommand -> the long flags (without dashes) its parser requires."""
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    return {command: [a.option_strings[0][2:] for a in sub._actions if a.required]
            for command, sub in subs.choices.items()}


@pytest.fixture
def rng(request) -> np.random.Generator:
    """Per-test deterministic generator (seeded from the test name)."""
    seed = zlib.crc32(request.node.nodeid.encode())
    return np.random.default_rng(seed)
