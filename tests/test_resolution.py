"""Resolution-of-identity checks for the chain-state overcompleteness measure."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import roots_laguerre

from aladders.errors import ConvergenceError, DomainError
from aladders.operators import ModeParams
from aladders.principal import modified_binomial, principal_norm_sq
from aladders.resolution import (
    QuadratureSpec,
    _log_moments,
    exponential_moment,
    exponential_moment_quad,
    fullspace_identity_check,
    gaussian_moment,
    gaussian_moment_quad,
    measure_weight,
    subspace_identity_matrix,
)


# --------------------------------------------------------------- moments

def test_gaussian_moment_hand_values():
    # int_0^inf x^{2k+1} e^{-c x^2} dx = k! / (2 c^{k+1})
    assert gaussian_moment(0, 1.0) == pytest.approx(0.5)
    assert gaussian_moment(1, 0.5) == pytest.approx(1 / (2 * 0.25))
    assert gaussian_moment(3, 1.0) == pytest.approx(6 / 2)


def test_exponential_moment_hand_values():
    # int_0^inf x^n e^{-d x} dx = n! / d^{n+1}
    assert exponential_moment(0, 1.0) == pytest.approx(1.0)
    assert exponential_moment(3, 1.0) == pytest.approx(6.0)
    assert exponential_moment(10, 2.0) == pytest.approx(
        math.factorial(10) / 2**11)


def test_moment_quadrature_matches_closed_form():
    for c in (0.25, 1.0, 4.0):
        for k in range(0, 21, 4):
            want = gaussian_moment(k, c)
            got = gaussian_moment_quad(k, c)
            assert got == pytest.approx(want, rel=1e-12)
    for d in (0.5, 1.0, 3.0):
        for n in range(0, 21, 4):
            want = exponential_moment(n, d)
            got = exponential_moment_quad(n, d)
            assert got == pytest.approx(want, rel=1e-12)


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


def test_moment_domain_errors():
    with pytest.raises(DomainError):
        gaussian_moment(-1, 1.0)
    with pytest.raises(DomainError):
        gaussian_moment(2, 0.0)
    with pytest.raises(DomainError):
        exponential_moment(2, -1.0)


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


def test_measure_term_cancellation():
    # per-term cancellation behind the identity: for every k the weighted
    # double radial integral of |alpha|^{2(nu-k)+1} |beta|^{2k+1} mu_nu times
    # 4 pi^2 nu!/((nu-2k)! k! 4^k) collapses to exactly 1
    for nu in range(0, 11):
        for k in range(nu // 2 + 1):
            pref = (4 * math.pi**2 * math.factorial(nu)
                    / (math.factorial(nu - 2 * k) * math.factorial(k) * 4**k))
            mu_front = 1.0 / (8 * math.pi**2 * math.factorial(nu))
            closed = (pref * mu_front
                      * exponential_moment(nu - 2 * k, 1.0)
                      * gaussian_moment(k, 0.25))
            assert closed == pytest.approx(1.0, rel=1e-12)
            quad = (pref * mu_front
                    * exponential_moment_quad(nu - 2 * k, 1.0)
                    * gaussian_moment_quad(k, 0.25))
            assert quad == pytest.approx(1.0, rel=1e-10)


# --------------------------------------------------- subspace identity

def test_subspace_identity_level_zero():
    mat = subspace_identity_matrix(0)
    assert mat.shape == (1, 1)
    assert abs(mat[0, 0] - 1.0) < 1e-10


def test_subspace_identity_levels_up_to_eight():
    for nu in range(9):
        mat = subspace_identity_matrix(nu)
        dim = nu // 2 + 1
        assert mat.shape == (dim, dim)
        assert np.max(np.abs(mat - np.eye(dim))) < 1e-8


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
        mat = subspace_identity_matrix(3, quad)
        assert np.max(np.abs(mat - np.eye(2))) < 1e-10


def test_subspace_identity_node_starvation_detected():
    # far too few nodes for a deep level: the coarse/fine comparison must
    # flag non-convergence instead of returning a wrong matrix
    with pytest.raises(ConvergenceError):
        subspace_identity_matrix(40, QuadratureSpec(8, 8))
    # from 364 nodes roots_laguerre returns NaN: the NaN drift of the
    # doubled 182-node rule must not pass
    with pytest.raises(ConvergenceError):
        subspace_identity_matrix(150, QuadratureSpec(182, 182))


def test_subspace_identity_where_node_powers_overflow():
    # x**nu of the largest nodes is beyond a double at these sizes
    for nu, nodes in ((150, 128), (200, 128), (100, 156), (300, 180)):
        mat = subspace_identity_matrix(nu, QuadratureSpec(nodes, nodes))
        assert np.max(np.abs(np.diag(mat) - 1.0)) < 1e-8


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
    # diagonal entry k of the level-nu matrix equals the measure-weighted
    # radial integral of nu! N_nu  x  (normalized squared coefficient k);
    # summing the diagonal against the coefficient weights gives back the
    # total squared norm share, which the identity forces to 1 per ket
    mat = subspace_identity_matrix(4)
    p = ModeParams(alpha=1.0, beta=1.0)
    assert np.allclose(np.diag(mat), 1.0, atol=1e-9)
    weights = [
        modified_binomial(4, k, 2) * abs(p.alpha) ** (2 * (4 - k))
        * abs(p.beta) ** (2 * k) / principal_norm_sq(4, p)
        for k in range(3)
    ]
    assert sum(weights) == pytest.approx(1.0, rel=1e-12)
