"""Sparse two-mode Fock vectors, ladder actions, and the Hamiltonian."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aladders.errors import DomainError
from aladders.fock import (
    FockVector,
    a_minus,
    a_plus,
    apply_hamiltonian,
    apply_momentum,
    apply_position,
    b_minus,
    b_plus,
    inner,
    level_basis,
)

from conftest import max_amp_diff, random_state


def ket(n, m, amp=1.0):
    return FockVector({(n, m): amp})


# ---------------------------------------------------------------- ladders

def test_a_plus_examples():
    assert max_amp_diff(a_plus(ket(0, 0)), ket(1, 0)) == 0.0
    out = a_plus(ket(2, 5))
    assert list(out) == [(3, 5)]
    assert out[(3, 5)] == pytest.approx(math.sqrt(3))


def test_a_minus_examples():
    assert not a_minus(ket(0, 3))  # annihilates the a-vacuum
    out = a_minus(ket(4, 1))
    assert list(out) == [(3, 1)]
    assert out[(3, 1)] == pytest.approx(2.0)


def test_b_ladders_examples():
    out = b_plus(ket(1, 1))
    assert out[(1, 2)] == pytest.approx(math.sqrt(2))
    assert not b_minus(ket(2, 0))
    assert b_minus(ket(0, 4))[(0, 3)] == pytest.approx(2.0)


def test_ladders_are_linear(rng):
    v = random_state(rng)
    w = random_state(rng)
    for lad in (a_minus, a_plus, b_minus, b_plus):
        lhs = lad(2.0 * v + (1 - 1j) * w)
        rhs = 2.0 * lad(v) + (1 - 1j) * lad(w)
        assert max_amp_diff(lhs, rhs) < 1e-14


def test_same_mode_commutators_identity(rng):
    # a⁻a⁺ − a⁺a⁻ = 1 and likewise for b, per amplitude on random states
    for _ in range(20):
        v = random_state(rng)
        for lo, hi in ((a_minus, a_plus), (b_minus, b_plus)):
            comm = lo(hi(v)) - hi(lo(v))
            assert max_amp_diff(comm, v) < 1e-14


def test_cross_mode_commutators_vanish(rng):
    pairs = [(a_plus, b_plus), (a_plus, b_minus), (a_minus, b_plus),
             (a_minus, b_minus)]
    for _ in range(10):
        v = random_state(rng)
        for f, g in pairs:
            comm = f(g(v)) - g(f(v))
            assert comm.max_abs() < 1e-14


# ------------------------------------------------------------- Hamiltonian

def test_hamiltonian_eigenvalues():
    assert apply_hamiltonian(ket(0, 0))[(0, 0)] == pytest.approx(1.5)
    assert apply_hamiltonian(ket(1, 1))[(1, 1)] == pytest.approx(4.5)
    out = apply_hamiltonian(ket(0, 1) + ket(1, 0))
    assert out[(0, 1)] == pytest.approx(2.5)
    assert out[(1, 0)] == pytest.approx(3.5)


def test_hamiltonian_ladder_commutators(rng):
    # [H, a±] = ±2 a±, [H, b±] = ±b±
    shifts = {a_plus: 2.0, a_minus: -2.0, b_plus: 1.0, b_minus: -1.0}
    for _ in range(10):
        v = random_state(rng)
        for lad, shift in shifts.items():
            comm = apply_hamiltonian(lad(v)) - lad(apply_hamiltonian(v))
            assert max_amp_diff(comm, shift * lad(v)) < 1e-12


def test_level_basis_examples():
    assert level_basis(0) == [(0, 0)]
    assert level_basis(3) == [(0, 3), (1, 1)]
    assert level_basis(4) == [(0, 4), (1, 2), (2, 0)]


@given(st.integers(min_value=0, max_value=200))
def test_level_basis_properties(nu):
    basis = level_basis(nu)
    assert len(basis) == nu // 2 + 1
    assert len(set(basis)) == len(basis)
    for n, m in basis:
        assert n >= 0 and m >= 0
        assert 2 * n + m == nu
    assert basis == sorted(basis)


def test_from_level_reads_the_level_basis():
    v = FockVector.from_level(4, np.array([1.0, 1e-20, 2j]))
    assert list(v) == [(0, 4), (2, 0)]  # pruned like any other vector
    assert v[(2, 0)] == 2j
    with pytest.raises(DomainError):
        FockVector.from_level(4, [1.0, 2.0])
    # NaN was pruned as if below the drop tolerance, and inf was kept
    for bad in (math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(math.inf, 1.0)):
        for amps in ([bad, 1.0], np.array([1.0, bad])):
            with pytest.raises(DomainError, match="finite"):
                FockVector.from_level(2, amps)


# ------------------------------------------------------------ inner product

def test_inner_orthonormal_basis():
    assert inner(ket(1, 0), ket(1, 0)) == 1.0
    assert inner(ket(1, 0), ket(0, 2)) == 0.0


def test_inner_sesquilinear():
    u = ket(0, 1, 2j)
    v = ket(0, 1, 3.0)
    assert inner(u, v) == pytest.approx(-6j)
    assert inner(v, u) == pytest.approx(6j)


def test_inner_positive_definite(rng):
    for _ in range(10):
        v = random_state(rng)
        val = inner(v, v)
        assert abs(val.imag) < 1e-15
        assert val.real > 0


def test_quadrature_commutators(rng):
    # [Q, P] = i in each mode, on random states
    for mode in ("a", "b"):
        for _ in range(5):
            v = random_state(rng)
            qp = apply_position(mode, apply_momentum(mode, v))
            pq = apply_momentum(mode, apply_position(mode, v))
            assert max_amp_diff(qp - pq, 1j * v) < 1e-13


# ------------------------------------------------------------- vector type

def test_constructor_merges_and_prunes():
    v = FockVector({(0, 0): 1.0})
    w = v + FockVector({(0, 0): -1.0, (1, 0): 1e-20})
    assert list(w) == [(1, 0)]  # exact cancellation drops; 1e-20 stays
    assert len(FockVector([((0, 0), 0.5), ((0, 0), -0.5)])) == 0
    # from_level is the one place that prunes small amplitudes
    assert list(FockVector.from_level(2, [1.0, 1e-15])) == [(0, 2)]


def test_algebra_keeps_tiny_amplitudes():
    tiny = FockVector({(0, 0): 1e-20})
    assert list(tiny) == [(0, 0)]
    assert list(a_plus(tiny)) == [(1, 0)]
    assert len(FockVector.from_level(0, [1e-20])) == 0


def test_vector_is_immutable():
    v = ket(0, 0)
    with pytest.raises(AttributeError):
        v._amp = {}
    with pytest.raises(AttributeError):
        v.extra = 1
    assert list(v) == [(0, 0)]


def test_arithmetic(rng):
    v = random_state(rng)
    w = random_state(rng)
    assert max_amp_diff(v + w, w + v) == 0.0
    assert max_amp_diff((v - w) + w, v) < 1e-14
    assert max_amp_diff(2.0 * v, v * 2.0) == 0.0
    assert (0.0 * v).norm() == 0.0


def test_norm_and_normalized(rng):
    v = random_state(rng)
    assert v.norm() == pytest.approx(1.0)
    w = 3.5 * v
    assert w.norm_sq() == pytest.approx(3.5**2)
    assert w.normalized().norm() == pytest.approx(1.0)
    with pytest.raises(Exception):
        FockVector().normalized()


def test_records_sorted_lexicographically():
    v = FockVector({(2, 0): 1.0, (0, 5): 2.0, (0, 1): 3.0, (1, 1): 4.0})
    recs = v.to_records()
    keys = [(r["n"], r["m"]) for r in recs]
    assert keys == sorted(keys)


def test_iteration_and_getitem(rng):
    v = random_state(rng)
    assert list(v) == sorted(dict(v.items()))  # indices, dict-style, in order
    assert dict(v.items()) == {idx: v[idx] for idx in v}
    missing = v[(999, 999)]
    assert missing == 0.0


def test_basis_and_zero_constructors():
    assert list(FockVector.basis(3, 4)) == [(3, 4)]
    assert not FockVector()
    with pytest.raises(Exception):
        FockVector.basis(-1, 0)


@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8),
                          st.floats(-2, 2), st.floats(-2, 2)),
                max_size=10))
def test_roundtrip_property(entries):
    v = FockVector({(n, m): complex(re, im) for n, m, re, im in entries})
    recs = v.to_records()
    assert all(set(r) == {"n", "m", "re", "im"} for r in recs)
    assert [((r["n"], r["m"]), complex(r["re"], r["im"])) for r in recs] == list(v.items())
