"""Chain states, their Gram matrices, and the lowering decomposition."""

from __future__ import annotations

import math

import numpy as np
import pytest

from aladders import chains
from aladders.chains import (
    COND_LIMIT,
    ChainLabel,
    chain_state_bruteforce,
    chain_state_closed,
    gram_matrix,
    ladder_factor,
    lowering,
    lowering_decomposition,
    row_labels,
)
from aladders.criteria import CHAIN_TOL, LOWERING_TOL
from aladders.errors import DomainError, IllConditionedError
from aladders.fock import FockVector, inner
from aladders.operators import ModeParams, apply_lowering, apply_raising
from aladders.zero_modes import lowering_matrix, zero_mode_state

from conftest import random_params

P = ModeParams(alpha=0.8 + 0.4j, beta=0.9 - 0.7j)


# ----------------------------------------------------------------- labels

def test_label_validation():
    ChainLabel(4, 7)
    with pytest.raises(DomainError):
        ChainLabel(3, 1)  # odd chain index
    with pytest.raises(DomainError):
        ChainLabel(-2, 1)
    with pytest.raises(DomainError):
        ChainLabel(0, -1)


def test_row_labels():
    assert row_labels(0) == [ChainLabel(0, 0)]
    assert row_labels(5) == [ChainLabel(0, 5), ChainLabel(2, 3), ChainLabel(4, 1)]
    assert row_labels(4) == [ChainLabel(0, 4), ChainLabel(2, 2), ChainLabel(4, 0)]
    with pytest.raises(DomainError):
        row_labels(-1)


# ------------------------------------------------------------ brute force

def test_bruteforce_base_is_zero_mode():
    st = chain_state_bruteforce(ChainLabel(0, 0), P)
    assert list(st.vector) == [(0, 0)]
    assert st.norm_sq == pytest.approx(1.0)
    st2 = chain_state_bruteforce(ChainLabel(2, 0), P)
    assert (st2.vector - zero_mode_state(1, P)).norm() < 1e-14


def test_bruteforce_one_step():
    st = chain_state_bruteforce(ChainLabel(0, 1), P)
    assert st.norm_sq == pytest.approx(abs(P.alpha) ** 2)
    assert list(st.vector) == [(0, 1)]
    assert st.vector[(0, 1)] == pytest.approx(P.alpha / abs(P.alpha))


def test_bruteforce_two_steps():
    st = chain_state_bruteforce(ChainLabel(0, 2), P)
    a, b = P.alpha, P.beta
    raw = FockVector({(0, 2): math.sqrt(2) * a * a, (1, 0): a * b})
    assert st.norm_sq == pytest.approx(2 * abs(a) ** 4 + abs(a) ** 2 * abs(b) ** 2)
    assert (st.vector - raw.normalized()).norm() < 1e-14


# ------------------------------------------------------------ closed form

def test_expansion_coeff_hand_values():
    # the (nu, k, j) = (1, 0, 1), (2, 0, 2) and (2, 1, 0) terms on the vacuum
    # (n = m = 0, gamma_0 = 1): alpha, sqrt(2) alpha^2 and alpha beta
    zero = np.zeros(3, dtype=int)
    log_mag, phase = chains._term_logs(
        zero, np.array([1, 2, 2]), zero, np.array([0, 0, 1]), np.array([1, 2, 0]),
        P, np.zeros(3), np.zeros(3))
    a, b = P.alpha, P.beta
    want = [a, math.sqrt(2) * a * a, a * b]
    assert np.allclose(np.exp(log_mag + 1j * phase), want, rtol=1e-14, atol=0)


def test_closed_matches_bruteforce(rng):
    small = [ChainLabel(chain, level) for chain in range(0, 8, 2) for level in range(7)]
    deep = [ChainLabel(30, 30), ChainLabel(40, 20), ChainLabel(0, 200)]

    def check(label, p):
        brute = chain_state_bruteforce(label, p)
        closed = chain_state_closed(label, p)
        assert (closed.vector - brute.vector).norm() < CHAIN_TOL
        assert abs(closed.log_norm_sq - brute.log_norm_sq) < CHAIN_TOL

    for _ in range(3):
        p = random_params(rng, ratio_range=(0.6, 1.8))
        for label in small + deep:
            check(label, p)
    for label in (ChainLabel(20, 20), ChainLabel(60, 60)):
        check(label, ModeParams(alpha=10.0, beta=0.1))


def test_raising_diagonals_match_operator_algebra(rng):
    # the A+ block from level L to L + 1 is the adjoint of A- from L + 1,
    # which lowering_matrix builds by applying the FockVector algebra
    for _ in range(3):
        p = random_params(rng)
        for level in range(13):
            d0, d1 = chains._raising_diagonals(level, p.alpha, p.beta)
            up = np.zeros(((level + 1) // 2 + 1, level // 2 + 1), dtype=complex)
            i = np.arange(d0.size)
            up[i, i] = d0
            up[i[:d1.size] + 1, i[:d1.size]] = d1
            want = lowering_matrix(level + 1, p).conj().T
            assert up.shape == want.shape
            assert np.abs(up - want).max() < 1e-14 * np.abs(want).max()
            amps = rng.standard_normal(level // 2 + 1) + 1j * rng.standard_normal(level // 2 + 1)
            assert np.abs(chains._raise_level(amps, level, p) - up @ amps).max() < 1e-13
            back = rng.standard_normal(up.shape[0]) + 1j * rng.standard_normal(up.shape[0])
            assert np.abs(chains._lower_level(back, level + 1, p)
                          - up.conj().T @ back).max() < 1e-13


def test_closed_state_invariants(rng):
    for _ in range(5):
        p = random_params(rng)
        chain = 2 * int(rng.integers(0, 5))
        level = int(rng.integers(0, 9))
        st = chain_state_closed(ChainLabel(chain, level), p)
        assert st.vector.norm() == pytest.approx(1.0, abs=1e-12)
        assert all(2 * n + m == chain + level for n, m in st.vector)
        assert st.norm_sq > 0
        assert st.log_norm_sq == pytest.approx(math.log(st.norm_sq))


def test_sliced_block_matches_one_slice(monkeypatch):
    # many small slices, with each column rescaled whenever a later slice
    # brings a larger term, give the single-slice result
    cases = [(ChainLabel(40, 20), P), (ChainLabel(20, 40), ModeParams(2.5, 1.0)),
             (ChainLabel(2, 2), ModeParams(0.0, 1.0))]
    whole = [chain_state_closed(label, p) for label, p in cases]
    gram = gram_matrix(30, P)
    monkeypatch.setattr(chains, "_SLICE_TERMS", 50)
    for (label, p), ref in zip(cases, whole):
        st = chain_state_closed(label, p)
        assert list(st.vector) == list(ref.vector)
        assert (st.vector - ref.vector).norm() < 1e-13
        assert st.log_norm_sq == pytest.approx(ref.log_norm_sq, rel=1e-13)
    assert np.max(np.abs(gram_matrix(30, P) - gram)) < 1e-13


def test_terminating_chain_at_alpha_zero():
    p = ModeParams(alpha=0.0, beta=1.0)
    # chain 2 supports exactly two raising steps when alpha = 0
    st = chain_state_closed(ChainLabel(2, 2), p)
    assert list(st.vector) == [(2, 0)]
    for ctor in (chain_state_bruteforce, chain_state_closed):
        with pytest.raises(DomainError):
            ctor(ChainLabel(2, 3), p)
        with pytest.raises(DomainError):
            ctor(ChainLabel(0, 1), p)


# ---------------------------------------------------------- ladder factor

def test_ladder_factor_hand_values():
    a2, b2 = abs(P.alpha) ** 2, abs(P.beta) ** 2
    assert ladder_factor(ChainLabel(0, 1), P) == pytest.approx(a2)
    assert ladder_factor(ChainLabel(0, 2), P) == pytest.approx(2 * a2 + b2)
    with pytest.raises(DomainError):
        ladder_factor(ChainLabel(0, 0), P)


def test_ladder_factor_is_squared_step_norm(rng):
    for _ in range(5):
        p = random_params(rng)
        chain = 2 * int(rng.integers(0, 4))
        level = int(rng.integers(1, 8))
        below = chain_state_closed(ChainLabel(chain, level - 1), p)
        got = ladder_factor(ChainLabel(chain, level), p)
        assert got == pytest.approx(apply_raising(p, below.vector).norm_sq(),
                                    rel=1e-10)


# ------------------------------------------------------------ Gram matrix

def test_gram_row_0_and_1():
    for row in (0, 1):
        g = gram_matrix(row, P)
        assert g.shape == (1, 1)
        assert g[0, 0] == pytest.approx(1.0)


def test_gram_hermitian_unit_diagonal(rng):
    for _ in range(3):
        p = random_params(rng, ratio_range=(1.0, 2.0))
        row = int(rng.integers(2, 9))
        g = gram_matrix(row, p)
        assert np.allclose(g, g.conj().T, atol=1e-12)
        assert np.allclose(np.diag(g).real, 1.0, atol=1e-12)


def test_zero_mode_column_is_orthogonal():
    # in an even row the level-0 chain (the zero mode) is orthogonal to all
    # other chains: <(A+)^nu z'| z> = <z'| (A-)^nu z> = 0
    for row in (4, 8):
        g = gram_matrix(row, P)
        off = np.abs(g[:-1, -1])
        assert off.max() < 1e-12


def test_gram_positive_definite_moderate_rows(rng):
    for _ in range(3):
        p = random_params(rng, ratio_range=(2.0, 2.5))
        for row in (5, 9, 13):
            eig = np.linalg.eigvalsh(gram_matrix(row, p))
            assert eig.min() > 0


def test_gram_positive_definite_deep_rows(rng):
    for _ in range(2):
        p = random_params(rng, ratio_range=(3.0, 3.5))
        for row in (16, 20):
            eig = np.linalg.eigvalsh(gram_matrix(row, p))
            assert eig.min() > 0


# --------------------------------------------------- lowering decomposition

def test_decomposition_single_chain():
    terms = lowering_decomposition(ChainLabel(0, 1), P)
    assert len(terms) == 1
    label, coeff = terms[0]
    assert label == ChainLabel(0, 0)
    assert coeff == pytest.approx(abs(P.alpha))


def reconstruction_residual(label: ChainLabel, p: ModeParams) -> float:
    target = apply_lowering(p, chain_state_closed(label, p).vector)
    acc = FockVector()
    for lab, coeff in lowering_decomposition(label, p):
        acc = acc + coeff * chain_state_closed(lab, p).vector
    return (acc - target).norm() / target.norm()


def test_decomposition_two_term_rows():
    for label in (ChainLabel(0, 3), ChainLabel(2, 1)):
        terms = lowering_decomposition(label, P)
        assert [t[0] for t in terms] == row_labels(label.chain + label.level - 1)
        assert reconstruction_residual(label, P) < 1e-10


def test_decomposition_reconstructs_row(rng):
    for _ in range(3):
        p = random_params(rng, ratio_range=(1.0, 2.0))
        for label in (ChainLabel(0, 5), ChainLabel(2, 4), ChainLabel(4, 3),
                      ChainLabel(6, 2)):
            assert reconstruction_residual(label, p) < 1e-9


def test_lowering_residual_counts_amplitudes_below_drop_tolerance():
    p = ModeParams(alpha=2.5, beta=1.0)
    for label in (ChainLabel(8, 3), ChainLabel(10, 1)):
        res = lowering(label, p)[1]
        assert 0.0 < res <= LOWERING_TOL


def test_decomposition_requires_level():
    with pytest.raises(DomainError):
        lowering_decomposition(ChainLabel(4, 0), P)


def test_near_degenerate_row_is_refused():
    # Chains become numerically parallel deep in a row when |alpha| << |beta|;
    # the solver must refuse rather than return garbage.
    p = ModeParams(alpha=0.5, beta=1.0)
    with pytest.raises(IllConditionedError) as exc_info:
        lowering_decomposition(ChainLabel(0, 14), p)
    assert exc_info.value.condition > COND_LIMIT


def test_refusal_boundary():
    # (alpha, solved, refused): the Gram conditions of the solve rows are
    # 2.3e8 and 2.5e12 at alpha = 0.5, 4.3e10 and 2.5e14 at alpha = 0.8
    for alpha, solved, refused in ((0.5, 9, 10), (0.8, 11, 12)):
        p = ModeParams(alpha=alpha, beta=1.0)
        label = ChainLabel(0, solved)
        assert lowering(label, p)[1] <= LOWERING_TOL
        with pytest.raises(IllConditionedError) as exc_info:
            lowering_decomposition(ChainLabel(0, refused), p)
        assert exc_info.value.condition > COND_LIMIT


def test_row_labels_align_with_gram_columns():
    # gram entry (k, j) pairs the row's chains 2k and 2j, in row_labels order
    labels = row_labels(6)
    assert [(lab.chain, lab.level) for lab in labels] == [(0, 6), (2, 4), (4, 2), (6, 0)]
    states = [chain_state_closed(lab, P).vector for lab in labels]
    want = np.array([[inner(u, v) for v in states] for u in states])
    assert np.allclose(gram_matrix(6, P), want, atol=1e-12)
