"""Principal chain closed forms: norms, uncertainties, comparison state."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aladders.chains import ChainLabel, chain_state_closed
from aladders.criteria import NORM_TOL
from aladders.errors import DomainError
from aladders.fock import FockVector, apply_momentum, apply_position, inner
from aladders.operators import ModeParams, apply_raising
from aladders.principal import (
    PrincipalState,
    b_lowering_residual,
    binomial_ansatz_state,
    log_modified_binomial,
    log_pseudo_hermite,
    mode_occupation,
    modified_binomial,
    principal_log_norm_sq,
    principal_norm_sq,
    principal_state,
    pseudo_hermite,
    uncertainty_direct,
    uncertainty_products,
)
from aladders.zero_modes import _LOG_FACTORIAL_CAP, zero_mode_state

from conftest import random_params

P = ModeParams(alpha=1.1 - 0.2j, beta=0.7 + 0.5j)


# ----------------------------------------------- modified binomial numbers

def test_modified_binomial_hand_values():
    # t=2: nu! / (k! (nu-2k)! 2^{2k})
    assert modified_binomial(2, 1, 2) == pytest.approx(0.5)
    assert modified_binomial(4, 2, 2) == pytest.approx(4 * 3 * 2 / (2 * 16))
    # t=1 reduces to an ordinary binomial coefficient
    assert modified_binomial(4, 2, 1) == pytest.approx(6.0)


def test_modified_binomial_domain():
    with pytest.raises(DomainError):
        modified_binomial(2, 2, 2)  # n - tk < 0
    with pytest.raises(DomainError):
        modified_binomial(2, -1, 2)
    assert modified_binomial(3, 0, 0) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        modified_binomial(3, 1, 0)  # t=0 admits only k=0


@given(st.integers(0, 30), st.integers(0, 30))
def test_modified_binomial_t1_is_binomial(n, k):
    if k <= n:
        assert modified_binomial(n, k, 1) == pytest.approx(math.comb(n, k),
                                                           rel=1e-12)


# ------------------------------------------------------- pseudo Hermite

def test_pseudo_hermite_low_orders():
    # all-plus-sign analogues: h0=1, h1=2x, h2=4x^2+2, h3=8x^3+12x
    for x in (0.3, 1.7):
        assert pseudo_hermite(0, x) == pytest.approx(1.0)
        assert pseudo_hermite(1, x) == pytest.approx(2 * x)
        assert pseudo_hermite(2, x) == pytest.approx(4 * x * x + 2)
        assert pseudo_hermite(3, x) == pytest.approx(8 * x**3 + 12 * x)


def test_pseudo_hermite_at_zero():
    # only the k = nu/2 term survives at x = 0
    assert pseudo_hermite(2, 0.0) == pytest.approx(2.0)
    assert pseudo_hermite(4, 0.0) == pytest.approx(12.0)
    assert pseudo_hermite(3, 0.0) == pytest.approx(0.0)
    assert log_pseudo_hermite(3, 0.0) == -math.inf


def test_pseudo_hermite_positivity(rng):
    for _ in range(20):
        nu = int(rng.integers(0, 40))
        x = float(rng.uniform(0, 5))
        val = pseudo_hermite(nu, x)
        assert val > 0 or (x == 0 and nu % 2 == 1)


# ------------------------------------------------------------ norms

def test_norm_sq_base_cases():
    assert principal_norm_sq(0, P) == pytest.approx(1.0)
    assert principal_norm_sq(1, P) == pytest.approx(abs(P.alpha) ** 2)
    a2, b2 = abs(P.alpha) ** 2, abs(P.beta) ** 2
    assert principal_norm_sq(2, P) == pytest.approx(a2 * (a2 + 0.5 * b2))


def test_norm_sq_product_vs_direct_sum(rng):
    # product closed form vs direct sum of squared expansion coefficients
    for _ in range(3):
        p = random_params(rng)
        for nu in range(31):
            direct = sum(
                modified_binomial(nu, k, 2)
                * abs(p.alpha) ** (2 * (nu - k)) * abs(p.beta) ** (2 * k)
                for k in range(nu // 2 + 1)
            )
            assert principal_norm_sq(nu, p) == pytest.approx(direct, rel=1e-10)


def test_log_norm_sq_beyond_log_factorial_cap():
    # past the memoised log-factorial table, against a direct log-sum of
    # the squared amplitudes |alpha|^{2(nu-k)} |beta|^{2k} binom2(nu, k)
    for p in (P, ModeParams(1.0, 1.0)):
        for nu in (_LOG_FACTORIAL_CAP + 4464, _LOG_FACTORIAL_CAP + 4465):
            a, b = abs(p.alpha), abs(p.beta)
            logs = [2 * (nu - k) * math.log(a) + 2 * k * math.log(b)
                    + log_modified_binomial(nu, k, 2)
                    for k in range(nu // 2 + 1)]
            top = max(logs)
            direct = top + math.log(math.fsum(math.exp(t - top) for t in logs))
            assert abs(math.expm1(principal_log_norm_sq(nu, p) - direct)) <= NORM_TOL


def test_norm_sq_is_raising_power_norm(rng):
    # ||(A+)^nu vac||^2 = nu! * N_nu, checked by literal application
    p = random_params(rng)
    vec = FockVector.basis(0, 0)
    for nu in range(1, 16):
        vec = apply_raising(p, vec)
        want = math.factorial(nu) * principal_norm_sq(nu, p)
        assert vec.norm_sq() == pytest.approx(want, rel=1e-10)


# ------------------------------------------------------- principal states

def test_principal_state_is_chain_zero(rng):
    for _ in range(3):
        p = random_params(rng)
        for nu in (0, 1, 4, 9, 14):
            ps = principal_state(nu, p).to_fock()
            cs = chain_state_closed(ChainLabel(0, nu), p).vector
            assert (ps - cs).norm() < 1e-11


def test_principal_state_structure():
    ps = principal_state(5, P)
    assert isinstance(ps, PrincipalState)
    assert len(ps.coeffs) == 5 // 2 + 1
    v = ps.to_fock()
    assert v.norm() == pytest.approx(1.0, abs=1e-12)
    assert list(v) == [(0, 5), (1, 3), (2, 1)]
    assert ps.norm_sq == pytest.approx(principal_norm_sq(5, P))


def test_norm_beyond_double_is_inf():
    # log N_400 at alpha = beta = 1 is 887.1, past the largest double's 709.8
    p = ModeParams(alpha=1.0, beta=1.0)
    assert principal_log_norm_sq(400, p) == pytest.approx(887.124, abs=1e-3)
    assert principal_norm_sq(400, p) == math.inf
    assert pseudo_hermite(400, 1.0) == math.inf
    ps = principal_state(400, p)
    assert ps.norm_sq == math.inf
    assert ps.to_fock().norm() == pytest.approx(1.0, abs=1e-12)


def test_principal_state_alpha_zero_degenerates():
    p = ModeParams(alpha=0.0, beta=1.0)
    st0 = principal_state(0, p)
    assert list(st0.to_fock()) == [(0, 0)]
    for nu in (1, 2, 5):
        with pytest.raises(DomainError):
            principal_state(nu, p)


def test_principal_states_orthonormal(rng):
    # distinct levels have disjoint support, so the family is orthonormal
    p = random_params(rng)
    states = [principal_state(nu, p).to_fock() for nu in range(21)]
    for mu in range(21):
        for nu in range(mu, 21):
            want = 1.0 if mu == nu else 0.0
            assert abs(inner(states[mu], states[nu]) - want) < 1e-11


def test_orthogonality_to_same_row_zero_mode(rng):
    # <zero mode at level 2q | principal state at level 2q> = 0
    for _ in range(3):
        p = random_params(rng)
        for q in (1, 2, 5, 8):
            z = zero_mode_state(q, p)
            ps = principal_state(2 * q, p).to_fock()
            assert abs(inner(z, ps)) < 1e-10


def test_b_lowering_intertwines(rng):
    # b- maps the nu-th principal state onto the (nu-1)-th
    for _ in range(3):
        p = random_params(rng)
        assert b_lowering_residual(1, p) < 1e-12
        assert b_lowering_residual(2, p) < 1e-12
        assert b_lowering_residual(20, p) < 1e-10


# ----------------------------------------------------------- uncertainties

def test_uncertainty_vacuum_is_exact():
    rep = uncertainty_products(0, P)
    assert rep.product_a == 0.25
    assert rep.product_b == 0.25


def test_uncertainty_first_level():
    # occupation stays in the slow mode: product_a = 1/4, product_b = 9/4
    rep = uncertainty_products(1, P)
    assert rep.product_a == pytest.approx(0.25)
    assert rep.product_b == pytest.approx(2.25)


def test_uncertainty_closed_vs_direct(rng):
    for _ in range(2):
        p = random_params(rng)
        for nu in (0, 1, 2, 3, 7, 15, 30):
            rep = uncertainty_products(nu, p)
            assert rep.product_a == pytest.approx(
                uncertainty_direct(nu, p, "a"), rel=1e-9)
            assert rep.product_b == pytest.approx(
                uncertainty_direct(nu, p, "b"), rel=1e-9)


def test_uncertainty_heisenberg_bound(rng):
    for _ in range(3):
        p = random_params(rng)
        for nu in range(0, 31, 3):
            rep = uncertainty_products(nu, p)
            assert rep.product_a >= 0.25 - 1e-12
            assert rep.product_b >= 0.25 - 1e-12


def test_uncertainty_staggering_large_level():
    # at |alpha| << |beta| the slow mode saturates: odd levels pin one slow
    # quantum (product_b near 9/4), even levels none (near 1/4), while the
    # fast-mode product approaches a smooth envelope
    p = ModeParams(alpha=1.0, beta=100.0)
    for nu in range(3, 16, 2):
        rep = uncertainty_products(nu, p)
        assert abs(rep.product_b - 2.25) <= 0.15 * 2.25
    for nu in range(2, 16, 2):
        rep = uncertainty_products(nu, p)
        assert abs(rep.product_b - 0.25) <= 0.15 * 0.25
    # fast mode: nearly all fast quanta, <n_a> near floor(nu/2), so the
    # product is flat across each (2k, 2k+1) pair
    for nu in range(0, 18, 2):
        pair = (uncertainty_products(nu, p).product_a,
                uncertainty_products(nu + 1, p).product_a)
        assert pair[0] == pytest.approx(pair[1], rel=0.02)
        want = 0.25 * (1 + 2 * (nu // 2)) ** 2
        assert pair[0] == pytest.approx(want, rel=0.02)


def test_uncertainty_equal_magnitudes_curvature():
    # |alpha| = |beta|: fast-mode product is convex in nu; slow-mode product
    # grows almost linearly (small second difference relative to the slope)
    p = ModeParams(alpha=1.0, beta=1.0)
    pa = [uncertainty_products(nu, p).product_a for nu in range(0, 32)]
    pb = [uncertainty_products(nu, p).product_b for nu in range(0, 32)]
    second_a = [pa[i + 2] - 2 * pa[i + 1] + pa[i] for i in range(10, 30)]
    assert min(second_a) > 0
    for i in range(10, 30):
        d1 = pb[i + 1] - pb[i]
        d2 = pb[i + 2] - 2 * pb[i + 1] + pb[i]
        assert abs(d2) <= 0.05 * abs(d1)


def test_quadrature_means_vanish(rng):
    p = random_params(rng)
    v = principal_state(7, p).to_fock()
    for mode in ("a", "b"):
        assert abs(inner(v, apply_position(mode, v))) < 1e-12
        assert abs(inner(v, apply_momentum(mode, v))) < 1e-12


def test_mode_occupation(rng):
    v = FockVector({(2, 3): 1.0}).normalized()
    assert mode_occupation(v, "a") == pytest.approx(2.0)
    assert mode_occupation(v, "b") == pytest.approx(3.0)
    p = random_params(rng)
    ps = principal_state(6, p).to_fock()
    assert 2 * mode_occupation(ps, "a") + mode_occupation(ps, "b") == \
        pytest.approx(6.0, rel=1e-10)


# ------------------------------------------------------- comparison state

def test_binomial_ansatz_low_levels():
    a_param, b_param = 0.6 + 0.1j, 1.2 - 0.3j
    v1 = binomial_ansatz_state(1, a_param, b_param)
    want = FockVector({(1, 0): a_param, (0, 2): b_param}).normalized()
    assert (v1 - want).norm() < 1e-14
    v0 = binomial_ansatz_state(0, a_param, b_param)
    assert list(v0) == [(0, 0)]


def test_binomial_ansatz_support():
    v = binomial_ansatz_state(5, 1.0, 1.0)
    assert list(v) == [(k, 2 * (5 - k)) for k in range(6)]
    assert v.norm() == pytest.approx(1.0)
    assert all(m % 2 == 0 for _, m in v)


def test_binomial_ansatz_differs_from_principal():
    # same level-count, different family: overlap with the principal state of
    # the matching level is generically strictly below 1
    p = ModeParams(alpha=1.0, beta=1.0)
    ps = principal_state(6, p).to_fock()
    bs = binomial_ansatz_state(3, 1.0, 1.0)
    ov = abs(inner(ps, bs))
    assert ov < 0.999
