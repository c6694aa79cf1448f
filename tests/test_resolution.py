"""Resolution-of-identity checks for the chain-state overcompleteness measure."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import roots_laguerre

from aladders import resolution
from aladders.criteria import IDENTITY_TOL, STATE_IDENTITY_TOL, state_identity_deviation
from aladders.errors import ConvergenceError, DomainError
from aladders.operators import ModeParams
from aladders.principal import modified_binomial, principal_norm_sq
from aladders.resolution import (
    MAX_NODES,
    QuadratureSpec,
    _identity_diag,
    _log_laguerre,
    _log_moments,
    fullspace_identity_check,
    measure_weight,
    subspace_identity,
    subspace_identity_matrix,
)
from aladders.zero_modes import _log_factorials


# --------------------------------------------------------------- moments

def test_exponential_moment_hand_values():
    # int_0^inf x^n e^-x dx = n!
    assert math.exp(_log_moments(8, 0)) == pytest.approx(1.0, rel=1e-14)
    assert math.exp(_log_moments(8, 3)) == pytest.approx(6.0, rel=1e-14)
    assert math.exp(_log_moments(64, 10)) == pytest.approx(math.factorial(10), rel=1e-13)


def test_moment_quadrature_matches_closed_form():
    # the n-point rule is exact for every power below 2n
    for nodes in (8, 64, 128):
        powers = np.arange(2 * nodes)
        want = np.array([math.lgamma(p + 1) for p in powers])
        assert np.max(np.abs(np.expm1(_log_moments(nodes, powers) - want))) < 1e-12


def test_log_moments_match_the_linear_rule_sum():
    # the linear sum w . x**p is the reference wherever it is finite
    for nodes in (8, 16, 33, 64, 100, 128, 160):
        x, w = roots_laguerre(nodes)
        powers = np.arange(151)
        logs = _log_moments(nodes, powers)
        with np.errstate(over="ignore", invalid="ignore"):
            ref = np.array([np.dot(w, x ** p) for p in powers])
        finite = np.isfinite(ref)
        assert finite[:100].all()
        assert np.allclose(np.exp(logs[finite]), ref[finite], rtol=1e-12, atol=0)
        assert _log_moments(nodes, 7) == pytest.approx(logs[7], rel=1e-14)


def test_rule_matches_scipy():
    # scipy's rule is the oracle while its weights are normal doubles; the
    # worst log-weight gap measured over 8..181 nodes is 3.1e-12
    for nodes in range(8, 182):
        log_x, log_w = _log_laguerre(nodes)
        with np.errstate(all="ignore"):  # scipy's smallest weights underflow
            x, w = roots_laguerre(nodes)
        assert np.max(np.abs(np.exp(log_x) - x) / x) < 1e-12
        normal = w >= np.finfo(float).tiny
        assert np.max(np.abs(log_w[normal] - np.log(w[normal]))) < 5e-12


def test_rule_moments_exact_to_twice_the_ceiling():
    # the n-point rule integrates x^p e^-x exactly for every p < 2n, past
    # the 364 nodes where scipy's weights turn NaN
    for nodes in (8, 64, 181, MAX_NODES, 2 * MAX_NODES):
        powers = np.arange(2 * nodes)
        want = np.array([math.lgamma(p + 1) for p in powers])
        assert np.max(np.abs(_log_moments(nodes, powers) - want)) < 1e-11


def test_identity_accuracy_over_served_rules():
    # every rule of 64..181 nodes is exact for the integrands of levels up to
    # 100; the worst |d - 1| measured is 1.4e-13 (scipy's rule gave 1.8e-13).
    # Every level in one array, formed as _identity_diag forms its entries
    nu, k = np.ogrid[:101, :51]
    served = k <= nu // 2
    p = np.where(served, nu - 2 * k, 0)
    lf = _log_factorials(100)
    worst = 0.0
    for nodes in range(64, 182):
        m = _log_moments(nodes, np.arange(101))
        diag = np.exp(m[p] - lf[p] + m[k] - lf[k])
        assert np.array_equal(diag[100, :51], _identity_diag(100, nodes, nodes))
        worst = max(worst, float(np.max(np.abs(diag[served] - 1.0))))
    assert worst <= 2e-13


# ---------------------------------------------------------------- measure

def test_measure_weight_formula():
    nu, a, b = 3, 1.7, 0.9
    want = math.exp(-a - b * b / 4) / (
        8 * math.pi**2 * math.factorial(nu) * a ** (nu + 1))
    assert measure_weight(nu, a, b) == pytest.approx(want, rel=1e-13)


def test_measure_weight_positive_and_guarded():
    assert measure_weight(0, 0.3, 0.0) > 0
    with pytest.raises(DomainError):
        measure_weight(-1, 1.0, 1.0)
    with pytest.raises(DomainError):
        measure_weight(2, 0.0, 1.0)
    with pytest.raises(DomainError):
        measure_weight(2, 1.0, -0.5)
    # NaN passed the <= guards, and an infinite magnitude gave 0
    for a_mag, b_mag in ((math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)):
        with pytest.raises(DomainError, match="finite"):
            measure_weight(2, a_mag, b_mag)


def test_state_identity_deviation_within_bound():
    # mu_nu N_nu |psi><psi| integrated over alpha and beta is the identity on
    # each level, off-diagonal entries included
    assert state_identity_deviation(0) < 1e-15
    assert state_identity_deviation(9) <= STATE_IDENTITY_TOL


def test_state_identity_sees_a_wrong_measure(monkeypatch):
    # the oracle reads the measure it is handed: 1% too much shows as 1e-2
    weight = resolution.measure_weight
    monkeypatch.setattr(resolution, "measure_weight", lambda *a: 1.01 * weight(*a))
    deviation = state_identity_deviation(4)
    assert deviation > STATE_IDENTITY_TOL
    assert deviation == pytest.approx(0.01, rel=1e-9)


# --------------------------------------------------- subspace identity

def test_subspace_identity_level_zero():
    mat = subspace_identity_matrix(0)
    assert mat.shape == (1, 1)
    assert abs(mat[0, 0] - 1.0) < 1e-10


def test_subspace_identity_levels_up_to_eight():
    for nu in range(9):
        diag = subspace_identity(nu)
        assert diag.shape == (nu // 2 + 1,) and diag.dtype == float
        assert np.max(np.abs(diag - 1.0)) < 1e-8


def test_subspace_identity_matrix_is_its_diagonal():
    for nu in (0, 5, 40):
        diag = subspace_identity(nu)
        mat = subspace_identity_matrix(nu)
        assert mat.dtype == complex
        assert np.array_equal(mat, np.diag(diag))


def test_subspace_identity_off_diagonals_are_exact_zeros():
    # angular integration kills every off-diagonal analytically; the
    # implementation never forms them numerically
    mat = subspace_identity_matrix(7)
    off = mat - np.diag(np.diag(mat))
    assert np.all(off == 0)


def test_subspace_identity_converged_at_min_nodes():
    # the radial rules integrate polynomials exactly, so even the smallest
    # allowed node count is fully converged for small levels
    for nodes in (8, 16, 64):
        quad = QuadratureSpec(radial_nodes_alpha=nodes, radial_nodes_beta=nodes)
        assert np.max(np.abs(subspace_identity(3, quad) - 1.0)) < 1e-10


def test_subspace_identity_node_starvation_detected():
    # far too few nodes for a deep level: the coarse/fine comparison must
    # flag non-convergence instead of returning a wrong diagonal
    with pytest.raises(ConvergenceError):
        subspace_identity(40, QuadratureSpec(8, 8))
    # the doubled rule of 364 nodes, where scipy's weights are NaN, is served
    diag = subspace_identity(150, QuadratureSpec(182, 182))
    assert np.max(np.abs(diag - 1.0)) <= IDENTITY_TOL


def test_node_ceiling_refused_before_any_rule(monkeypatch):
    # the ceiling itself is served
    diag = subspace_identity(40, QuadratureSpec(MAX_NODES, MAX_NODES))
    assert np.max(np.abs(diag - 1.0)) <= IDENTITY_TOL

    def no_rule(_nodes):
        raise AssertionError("a rule was built")

    monkeypatch.setattr(resolution, "_log_laguerre", no_rule)
    ceiling = f"the {MAX_NODES}-node ceiling"
    for quad in (QuadratureSpec(MAX_NODES + 1, 64), QuadratureSpec(64, MAX_NODES + 1),
                 QuadratureSpec(200_000, 200_000)):
        with pytest.raises(ConvergenceError, match=ceiling):
            subspace_identity(3, quad)
        with pytest.raises(ConvergenceError, match=ceiling):
            fullspace_identity_check(3, quad)


def test_subspace_identity_where_node_powers_overflow():
    # x**nu of the largest nodes is beyond a double at these sizes
    for nu, nodes in ((150, 128), (200, 128), (100, 156), (300, 180)):
        diag = subspace_identity(nu, QuadratureSpec(nodes, nodes))
        assert np.max(np.abs(diag - 1.0)) < 1e-8


def test_drift_gate_is_relative():
    # both rules underflow far below 1 at this level: their absolute
    # difference (about 3e-25) is tiny, but the entries are wrong, and the
    # relative drift (or 0/0 where both are exactly 0) refuses them
    with pytest.raises(ConvergenceError):
        subspace_identity(2000, QuadratureSpec(64, 64))


def test_quadrature_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(radial_nodes_alpha=4)
    with pytest.raises(DomainError):
        QuadratureSpec(radial_nodes_beta=0)


# --------------------------------------------------- full-space identity

def test_fullspace_identity_vacuum_only():
    assert fullspace_identity_check(0) < 1e-10


def test_fullspace_identity_truncation():
    assert fullspace_identity_check(6) < 1e-8


def test_identity_diag_ties_to_expansion_weights():
    # diagonal entry k of level nu equals the measure-weighted
    # radial integral of nu! N_nu  x  (normalized squared coefficient k);
    # summing the diagonal against the coefficient weights gives back the
    # total squared norm share, which the identity forces to 1 per ket
    p = ModeParams(alpha=1.0, beta=1.0)
    assert np.allclose(subspace_identity(4), 1.0, atol=1e-9)
    weights = [
        modified_binomial(4, k, 2) * abs(p.alpha) ** (2 * (4 - k))
        * abs(p.beta) ** (2 * k) / principal_norm_sq(4, p)
        for k in range(3)
    ]
    assert sum(weights) == pytest.approx(1.0, rel=1e-12)
