"""Generalized ladder operators A± and their algebra."""

from __future__ import annotations

import math

import numpy as np
import pytest

from aladders.errors import DomainError
from aladders.fock import FockVector, apply_hamiltonian, inner
from aladders.operators import (
    ModeParams,
    apply_commutator,
    apply_lowering,
    apply_raising,
)

from conftest import max_amp_diff, random_params, random_state

P = ModeParams(alpha=0.8 - 0.3j, beta=1.1 + 0.6j)


def ket(n, m):
    return FockVector.basis(n, m)


# ------------------------------------------------------------- ModeParams

def test_params_coerce_to_complex():
    p = ModeParams(alpha=1, beta=2)
    assert isinstance(p.alpha, complex) and isinstance(p.beta, complex)


def test_params_reject_zero_beta():
    with pytest.raises(DomainError):
        ModeParams(alpha=1.0, beta=0.0)


def test_params_allow_zero_alpha():
    assert ModeParams(alpha=0.0, beta=1.0).alpha == 0.0


@pytest.mark.parametrize("alpha, beta, name", [
    (math.nan, 1.0, "alpha"), (complex(1.0, math.inf), 1.0, "alpha"),
    (1.0, -math.inf, "beta"), (1.0, complex(math.nan, 1.0), "beta"),
])
def test_params_reject_non_finite(alpha, beta, name):
    with pytest.raises(DomainError, match=f"{name} must be finite"):
        ModeParams(alpha=alpha, beta=beta)


# --------------------------------------------------------------- raising

def test_raising_on_vacuum():
    out = apply_raising(P, ket(0, 0))
    assert list(out) == [(0, 1)]
    assert out[(0, 1)] == pytest.approx(P.alpha)


def test_raising_on_one_slow_quantum():
    out = apply_raising(P, ket(0, 1))
    assert out[(0, 2)] == pytest.approx(P.alpha * math.sqrt(2))
    assert out[(1, 0)] == pytest.approx(P.beta)


def test_raising_on_zero_vector():
    assert not apply_raising(P, FockVector())


# -------------------------------------------------------------- lowering

def test_lowering_annihilates_vacuum():
    assert not apply_lowering(P, ket(0, 0))


def test_lowering_moves_fast_to_slow():
    out = apply_lowering(P, ket(1, 0))
    assert list(out) == [(0, 1)]
    assert out[(0, 1)] == pytest.approx(P.beta.conjugate())


def test_lowering_on_two_slow_quanta():
    out = apply_lowering(P, ket(0, 2))
    assert out[(0, 1)] == pytest.approx(P.alpha.conjugate() * math.sqrt(2))


# ------------------------------------------------------------ invariants

def test_adjointness(rng):
    for _ in range(20):
        p = random_params(rng)
        u = random_state(rng)
        v = random_state(rng)
        lhs = inner(apply_raising(p, u), v)
        rhs = inner(u, apply_lowering(p, v))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


def test_ladder_property(rng):
    # H(A± v) − A±(H v) = ±A± v
    for _ in range(10):
        p = random_params(rng)
        v = random_state(rng)
        up = apply_raising(p, v)
        comm_up = apply_hamiltonian(up) - apply_raising(p, apply_hamiltonian(v))
        assert max_amp_diff(comm_up, up) < 1e-12
        dn = apply_lowering(p, v)
        comm_dn = apply_hamiltonian(dn) - apply_lowering(p, apply_hamiltonian(v))
        assert max_amp_diff(comm_dn, -1.0 * dn) < 1e-12


def closed_form_commutator(p: ModeParams, v: FockVector) -> FockVector:
    # |α|²·1 + |β|²·(N_b − N_a), applied per basis ket
    aa = abs(p.alpha) ** 2
    bb = abs(p.beta) ** 2
    return FockVector(
        {(n, m): (aa + bb * (m - n)) * amp for (n, m), amp in v.items()}
    )


def test_commutator_examples():
    out = apply_commutator(P, ket(0, 0))
    assert out[(0, 0)] == pytest.approx(abs(P.alpha) ** 2)
    out = apply_commutator(P, ket(1, 0))
    assert out[(1, 0)] == pytest.approx(abs(P.alpha) ** 2 - abs(P.beta) ** 2)
    out = apply_commutator(P, ket(1, 1))
    assert out[(1, 1)] == pytest.approx(abs(P.alpha) ** 2)


def test_commutator_matches_closed_form(rng):
    for _ in range(20):
        p = random_params(rng)
        v = random_state(rng)
        got = apply_commutator(p, v)
        want = closed_form_commutator(p, v)
        scale = max(want.max_abs(), 1.0)
        assert max_amp_diff(got, want) <= 1e-12 * scale


def test_commutator_is_not_canonical():
    # Witness: on |1,0⟩ the commutator is (|α|² − |β|²) ≠ |α|² whenever β ≠ 0.
    out = apply_commutator(P, ket(1, 0))
    assert abs(out[(1, 0)] - abs(P.alpha) ** 2) > 0.1
