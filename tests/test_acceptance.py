"""Acceptance gate: every advertised numerical guarantee, end to end.

Each test runs one criterion of aladders.criteria at the gate's seeds,
sizes and parameter bands, and prints a single PASS/FAIL line (visible
under ``pytest -s``).  Seeds are fixed so reruns are bit-reproducible.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from aladders import criteria as C
from aladders.criteria import random_params, random_state
from aladders.operators import ModeParams
from aladders.resolution import fullspace_identity_check


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: criterion {num} — {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_zero_mode_annihilation():
    rng = np.random.default_rng(101)
    worst = C.zero_mode_residual([random_params(rng) for _ in range(5)], 20)
    report(1, "zero-mode annihilation", worst <= C.ANNIHILATION_TOL,
           f"worst scaled residual {worst:.3e} (n <= 20, 5 parameter draws)")


def test_criterion_02_odd_level_nonexistence():
    rng = np.random.default_rng(102)
    bad = C.kernel_dimension_mismatch((random_params(rng), random_params(rng)),
                                      range(16))
    report(2, "kernel dimension by level parity", not bad,
           bad or "dim 0 at odd nu <= 15, dim 1 at even nu <= 14")


def test_criterion_03_closed_vs_bruteforce_chains():
    rng = np.random.default_rng(103)
    params = [random_params(rng, ratio_range=(0.6, 1.8)) for _ in range(2)]
    worst = C.chain_oracle_error(params, 10, 10)
    report(3, "closed-form chains vs operator construction", worst <= C.CHAIN_TOL,
           f"worst relative error {worst:.3e} (2n <= 10, nu <= 10)")


def test_criterion_04_normalization_closed_forms():
    rng = np.random.default_rng(104)
    worst_sum, worst_op = C.norm_errors([random_params(rng) for _ in range(3)], 30, 25)
    ok = worst_sum <= C.NORM_TOL and worst_op <= C.NORM_TOL
    report(4, "product-form normalization", ok,
           f"sum form {worst_sum:.3e} (nu <= 30), "
           f"operator norm {worst_op:.3e} (nu <= 25)")


def test_criterion_05_zero_mode_principal_orthogonality():
    rng = np.random.default_rng(105)
    worst = C.principal_overlap([random_params(rng) for _ in range(3)], 10)
    report(5, "zero mode orthogonal to same-level principal state",
           worst <= C.ORTHOGONALITY_TOL, f"worst overlap {worst:.3e} (nu <= 10)")


def test_criterion_06_lowering_decomposition():
    # parameter draws stay where the row Gram systems are numerically
    # invertible (|alpha|/|beta| >= 2.2); nearly parallel chains below that
    # ratio are refused by the solver and covered by the error-path tests
    rng = np.random.default_rng(106)
    params = [random_params(rng, ratio_range=(2.2, 3.5)) for _ in range(3)]
    worst = C.lowering_error(params, 14)
    report(6, "lowering decomposition over the row below", worst <= C.LOWERING_TOL,
           f"worst relative residual {worst:.3e} (chain+level <= 14)")


def test_criterion_07_resolution_of_identity():
    worst_sub, states = fullspace_identity_check(8), C.state_identity_deviation(12)
    ok = worst_sub <= C.IDENTITY_TOL and states <= C.STATE_IDENTITY_TOL
    report(7, "resolution of the identity", ok,
           f"subspace max deviation {worst_sub:.3e} (nu <= 8), "
           f"from the states {states:.3e} (nu <= 12, every entry)")


def test_criterion_08_uncertainty_products():
    rng = np.random.default_rng(108)
    worst = C.uncertainty_error([random_params(rng) for _ in range(2)], 30)
    exact0 = C.vacuum_products_exact()
    stag_ok = C.slow_mode_staggering()
    ok = worst <= C.UNCERTAINTY_TOL and exact0 and stag_ok
    report(8, "uncertainty closed forms", ok,
           f"worst relative error {worst:.3e} (nu <= 30), vacuum exact "
           f"{exact0}, slow-mode staggering at (1, 100) {stag_ok}")


def test_criterion_09_lissajous_densities():
    p1 = ModeParams(alpha=3.0, beta=cmath.exp(1j * math.pi / 2) / math.sqrt(2))
    p2 = ModeParams(alpha=3.0, beta=1.0 / math.sqrt(2))
    masses, fracs, dist = C.lissajous_figures((p1, p2), 100)
    ok = (all(abs(m - 1.0) <= C.LISSAJOUS_MASS_TOL for m in masses)
          and fracs[0] >= C.TUBE_FRACTION_MIN and dist >= C.L1_DISTANCE_MIN)
    report(9, "high-level density hugs the classical curve", ok,
           f"masses {masses[0]:.6f}/{masses[1]:.6f}, tube fraction "
           f"{fracs[0]:.3f} (second grid {fracs[1]:.3f}), L1 distance {dist:.3f}")


def test_criterion_10_algebraic_identities():
    rng = np.random.default_rng(110)
    draws = [(random_params(rng), random_state(rng), random_state(rng))
             for _ in range(100)]
    worst = C.algebra_deviation(draws)
    report(10, "operator algebra on random sparse states", worst <= C.ALGEBRA_TOL,
           f"worst deviation {worst:.3e} over 100 draws")
