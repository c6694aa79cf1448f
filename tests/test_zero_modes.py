"""Zero modes of the lowering operator: closed form vs recursion oracle."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from aladders import zero_modes
from aladders.errors import DomainError
from aladders.fock import FockVector
from aladders.operators import ModeParams, apply_lowering
from aladders.zero_modes import (
    _LOG_FACTORIAL_CAP,
    ZeroModeCoeffs,
    _log_factorials,
    level_null_space_dim,
    lowering_matrix,
    zero_mode_coeffs_recursive,
    zero_mode_state,
)

from conftest import random_params

P = ModeParams(alpha=0.9 + 0.2j, beta=1.3 - 0.4j)


# ----------------------------------------------------------- coefficients

def test_gamma_zero_is_one():
    for n in (0, 1, 5, 17):
        assert ZeroModeCoeffs.build(n, P).gamma[0] == 1.0


def test_gamma_hand_values():
    r = P.alpha.conjugate() / P.beta.conjugate()
    assert ZeroModeCoeffs.build(1, P).gamma[1] == pytest.approx(-math.sqrt(2) * r)
    assert ZeroModeCoeffs.build(2, P).gamma[1] == pytest.approx(-(2 / math.sqrt(3)) * r)


def test_gamma_out_of_range():
    # gamma_0..gamma_n and no more; no level below 0
    assert len(ZeroModeCoeffs.build(2, P).gamma) == 3
    with pytest.raises(DomainError):
        ZeroModeCoeffs.build(-1, P)


def test_recursion_base_cases():
    assert zero_mode_coeffs_recursive(0, P) == [1.0 + 0j]
    got = zero_mode_coeffs_recursive(1, P)
    r = P.alpha.conjugate() / P.beta.conjugate()
    assert got[0] == 1.0
    assert got[1] == pytest.approx(-math.sqrt(2) * r)


def test_closed_matches_recursion(rng):
    # oracle equivalence across sizes and parameters
    for _ in range(10):
        p = random_params(rng)
        for n in range(0, 31, 3):
            rec = zero_mode_coeffs_recursive(n, p)
            for got, want in zip(ZeroModeCoeffs.build(n, p).gamma, rec, strict=True):
                assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)


def test_alpha_zero_collapses_to_first_coefficient():
    p = ModeParams(alpha=0.0, beta=1.0 + 0.5j)
    for n in (1, 4):
        coeffs = zero_mode_coeffs_recursive(n, p)
        assert coeffs[0] == 1.0
        assert all(c == 0.0 for c in coeffs[1:])
        v = zero_mode_state(n, p)
        assert list(v) == [(0, 2 * n)]
        assert abs(v[(0, 2 * n)]) == pytest.approx(1.0)


def test_coeffs_container_invariants():
    zm = ZeroModeCoeffs.build(3, P)
    assert zm.n == 3
    assert len(zm.gamma) == 4
    assert zm.gamma[0] == 1.0
    assert zm.norm_sq == pytest.approx(sum(abs(g) ** 2 for g in zm.gamma))
    assert zm.norm_sq > 0
    with pytest.raises(DomainError):
        ZeroModeCoeffs(n=1, gamma=(2.0, 0.5), norm_sq=4.25)


def test_coeffs_beyond_double_are_inf():
    # log|gamma_150| at |alpha/beta| = 1000 is 735.2, past a double's 709.8
    p = ModeParams(alpha=1000.0, beta=1.0)
    zm = ZeroModeCoeffs.build(150, p)
    assert zm.norm_sq == math.inf
    finite = [g for g in zm.gamma if cmath.isfinite(g)]
    assert len(finite) >= 100 and zm.gamma[:len(finite)] == tuple(finite)
    rec = zero_mode_coeffs_recursive(150, p)
    assert all(abs(g - want) <= 1e-12 * abs(want) for g, want in zip(finite, rec))
    assert cmath.isinf(zm.gamma[-1])


# ----------------------------------------------------- log-factorial table

def test_log_factorials_are_lgamma(rng):
    cap = _LOG_FACTORIAL_CAP
    for n in (0, 7, cap - 1, cap + 2000):
        lf = _log_factorials(n)
        assert lf.shape == (n + 1,)
        sampled = {0, n, *rng.integers(0, n + 1, size=20).tolist()}
        if n >= cap:
            sampled |= {cap - 1, cap, *rng.integers(cap, n + 1, size=20).tolist()}
        for i in sampled:
            assert lf[i] == math.lgamma(i + 1), i


def test_log_coeffs_read_the_log_factorial_table():
    # the per-j lgamma sum the table replaced, as the exact reference
    lg = math.lgamma
    for n in (0, 1, 59, 200, _LOG_FACTORIAL_CAP // 2 + 100):
        for p in (P, ModeParams(alpha=0.0, beta=1.0)):
            log_mag, _phase = zero_modes._log_coeffs(n, p)
            body = np.array([
                lg(n + 1) - lg(n - j + 1)
                + 0.5 * (lg(2 * (n - j) + 1) - lg(j + 1) - lg(2 * n + 1))
                for j in range(n + 1)
            ])
            if p.alpha == 0:
                assert log_mag[0] == body[0] and np.all(log_mag[1:] == -np.inf)
            else:
                ratio = abs(-2.0 * p.alpha.conjugate() / p.beta.conjugate())
                assert np.array_equal(log_mag, np.arange(n + 1) * math.log(ratio) + body)


def test_log_factorials_are_read_only():
    for n in (10, _LOG_FACTORIAL_CAP + 10):
        lf = _log_factorials(n)
        with pytest.raises(ValueError):
            lf[1] = 0.0


def test_log_factorial_table_stops_at_cap():
    _log_factorials(_LOG_FACTORIAL_CAP - 1)
    table = zero_modes._log_factorial_table
    assert table.size == _LOG_FACTORIAL_CAP
    assert _log_factorials(_LOG_FACTORIAL_CAP + 5000).size == _LOG_FACTORIAL_CAP + 5001
    assert zero_modes._log_factorial_table is table


# ------------------------------------------------------------ zero states

def test_state_n0_is_vacuum():
    v = zero_mode_state(0, P)
    assert list(v) == [(0, 0)]
    assert v[(0, 0)] == pytest.approx(1.0)


def test_state_n1_hand_value():
    r = P.alpha.conjugate() / P.beta.conjugate()
    raw = FockVector({(0, 2): 1.0, (1, 0): -math.sqrt(2) * r})
    want = raw.normalized()
    got = zero_mode_state(1, P)
    assert (got - want).norm() < 1e-14


def test_states_are_normalized(rng):
    for _ in range(5):
        p = random_params(rng)
        for n in (0, 3, 11, 20):
            assert zero_mode_state(n, p).norm() == pytest.approx(1.0, abs=1e-13)


def test_annihilation(rng):
    # the defining property, for every n up to 20
    for _ in range(3):
        p = random_params(rng)
        scale = max(abs(p.alpha), abs(p.beta))
        for n in range(21):
            out = apply_lowering(p, zero_mode_state(n, p))
            assert out.norm() <= 1e-10 * scale


def test_state_support_is_even_level():
    for n in (2, 5):
        v = zero_mode_state(n, P)
        assert all(2 * nn + mm == 2 * n for nn, mm in v)


# -------------------------------------------------------- null space dims

def test_lowering_matrix_shapes():
    assert lowering_matrix(0, P).shape == (0, 1)
    assert lowering_matrix(5, P).shape == (3, 3)
    assert lowering_matrix(6, P).shape == (3, 4)


def test_odd_levels_have_no_zero_modes():
    for nu in range(1, 16, 2):
        assert level_null_space_dim(nu, P) == 0


def test_odd_level_seven_real_params():
    assert level_null_space_dim(7, ModeParams(1.0, 1.0)) == 0


def test_even_levels_have_exactly_one():
    for nu in range(0, 15, 2):
        assert level_null_space_dim(nu, P) == 1
    assert level_null_space_dim(6, ModeParams(1.0, 1.0)) == 1


def test_null_space_dim_random_params(rng):
    for _ in range(5):
        p = random_params(rng)
        nu = int(rng.integers(1, 13))
        assert level_null_space_dim(nu, p) == (1 - nu % 2)
