"""Output checks shared by the workloads, with their tolerances.

Each check returns None when the output is right, or a one-line reason when
it is not.  They compare against bench/reference.py, never against the
package under test, and record their worst accuracy figure on the tracer.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref
from harness import Tracer

TOL_ZERO_MODE = 1e-10  # |A- z| / (|A-| |z|)
TOL_CHAIN = 1e-9  # max |amplitude error| / max |amplitude|
TOL_MP = 1e-10  # relative error against mpmath
TOL_RESIDUAL = 1e-8  # relative lowering reconstruction residual
TOL_GRAM = 1e-8  # max |G - V^H V|
TOL_IDENTITY = 1e-8  # max |diagonal - 1|
TOL_MASS = 1e-3  # |grid mass - 1|
TOL_POINT = 1e-9  # |grid point - mpmath| / grid peak
HEISENBERG = 0.25
TUBE_MIN = 0.90
L1_MIN = 0.2


def zero_mode(gamma: np.ndarray, n: int, alpha, beta) -> str | None:
    """gamma: level-2n coefficients, normalized or not."""
    mat = ref.lowering_level_matrix(2 * n, alpha, beta)
    resid = np.linalg.norm(mat @ gamma) / (np.linalg.norm(mat, 2) * np.linalg.norm(gamma))
    if not resid <= TOL_ZERO_MODE:
        return f"n={n}: scaled annihilation residual {resid:.3e}"
    return None


def chain_state(got: np.ndarray, chain: int, level: int, alpha, beta,
                tr: Tracer) -> str | None:
    """got: the chain state's dense level array."""
    if abs(np.linalg.norm(got) - 1.0) > 1e-12:
        return f"({chain}, {level}): state norm {np.linalg.norm(got)!r}"
    err = ref.rel_max_diff(got, ref.chain_dense(chain, level, alpha, beta))
    if not err <= TOL_CHAIN:
        return f"({chain}, {level}): differs from the dense raising by {err:.3e}"
    if chain == 0:
        err = ref.rel_max_diff(got, ref.principal_amplitudes_mp(level, alpha, beta))
        tr.worst("chains.mp_rel_err_max", err)
        if not err <= TOL_MP:
            return f"(0, {level}): differs from the mpmath amplitudes by {err:.3e}"
    return None


def row_dense(row: int, alpha, beta) -> np.ndarray:
    """Columns: the reference chain states meeting level `row`, by chain."""
    return np.column_stack(
        [ref.chain_dense(2 * k, row - 2 * k, alpha, beta) for k in range(row // 2 + 1)])


def lowering(labels, coeffs, chain: int, level: int, alpha, beta,
             tr: Tracer) -> str | None:
    """labels: [(chain, level)] of the row below; coeffs: their weights."""
    row = chain + level - 1
    want = [(2 * k, row - 2 * k) for k in range(row // 2 + 1)]
    if list(labels) != want:
        return f"({chain}, {level}): decomposition labels {list(labels)} != {want}"
    target = ref.lowering_level_matrix(chain + level, alpha, beta) @ ref.chain_dense(
        chain, level, alpha, beta)
    recon = row_dense(row, alpha, beta) @ np.asarray(coeffs)
    resid = float(np.linalg.norm(target - recon) / np.linalg.norm(target))
    tr.worst("chains.lowering_residual_max", resid)
    if not resid <= TOL_RESIDUAL:
        return f"({chain}, {level}): relative reconstruction residual {resid:.3e}"
    return None


def gram(mat: np.ndarray, row: int, alpha, beta) -> str | None:
    dim = row // 2 + 1
    if mat.shape != (dim, dim) or not np.all(np.isfinite(mat)):
        return f"row {row}: Gram matrix of shape {mat.shape} or not finite"
    if np.max(np.abs(mat - mat.conj().T)) > 1e-14 or np.max(np.abs(np.diag(mat) - 1)) > 1e-12:
        return f"row {row}: Gram matrix not Hermitian with unit diagonal"
    v = row_dense(row, alpha, beta)
    dev = float(np.max(np.abs(mat - v.conj().T @ v)))
    if not dev <= TOL_GRAM:
        return f"row {row}: Gram differs from V^H V of the dense states by {dev:.3e}"
    # Deep rows are numerically singular (condition ~1e16-1e17), so the
    # smallest eigenvalue is positive only up to rounding.
    low = float(np.linalg.eigvalsh(mat)[0])
    if not low >= -1e-12:
        return f"row {row}: smallest Gram eigenvalue {low:.3e}"
    return None


def products(nu: int, product_a: float, product_b: float, a_mag: float, b_mag: float,
             sample: bool, tr: Tracer) -> str | None:
    for name, val in (("product_a", product_a), ("product_b", product_b)):
        if not val >= HEISENBERG * (1.0 - 1e-12):
            return f"nu={nu}: {name} {val!r} below the Heisenberg bound 1/4"
    if sample:
        want_a, want_b = ref.uncertainty_mp(nu, a_mag, b_mag)
        err = max(abs(product_a - want_a) / want_a, abs(product_b - want_b) / want_b)
        tr.worst("principal.mp_rel_err_max", err)
        if not err <= TOL_MP:
            return f"nu={nu}: products differ from mpmath by {err:.3e}"
    return None


def identity(mat: np.ndarray, nu: int, tr: Tracer) -> str | None:
    dim = nu // 2 + 1
    if mat.shape != (dim, dim):
        return f"nu={nu}: identity matrix shape {mat.shape}"
    dev = float(np.max(np.abs(mat - np.eye(dim))))
    tr.worst("resolution.identity_dev_max", dev)
    if not dev <= TOL_IDENTITY:
        bad = int(np.sum(~np.isfinite(np.diag(mat))))
        return f"nu={nu}: deviation from the identity {dev:.3e} ({bad} non-finite)"
    return None


def density(values: np.ndarray, xs: np.ndarray, ys: np.ndarray, items, rng,
            points: int, tr: Tracer) -> str | None:
    """Mass, and `points` grid points against mpmath: the peak first when
    more than one, then random points above 1 % of the peak.  It makes no
    temporary of the grid's size, which would disturb the next timed task."""
    if values.shape != (xs.size, ys.size):
        return f"grid of shape {values.shape}"
    total = float(values.sum())  # values are >= 0, so NaN or inf shows here
    if not math.isfinite(total) or values.min() < 0.0:
        return "grid has negative or non-finite density"
    mass_err = abs(ref.trapezoid_mass(values, xs, ys) - 1.0)
    tr.worst("position.mass_err_max", mass_err)
    if not mass_err <= TOL_MASS:
        return f"grid mass off by {mass_err:.3e}"
    top = float(values.max())
    picks = [int(np.argmax(values))] if points > 1 else []
    while len(picks) < points:
        idx = int(rng.integers(values.size))
        if values.flat[idx] >= 1e-2 * top:
            picks.append(idx)
    for idx in picks:
        ix, iy = divmod(idx, ys.size)
        want = ref.density_at_mp(items, float(xs[ix]), float(ys[iy]))
        err = abs(values[ix, iy] - want) / top
        tr.worst("position.mp_err_max", err)
        if not err <= TOL_POINT:
            return f"grid point ({ix}, {iy}) differs from mpmath by {err:.3e}"
    return None


def panel(frac: float, must_fit: bool, l1: float | None, tr: Tracer) -> str | None:
    tr.worst("position.tube_fraction_min", frac, lower_is_worse=True)
    if must_fit and not frac >= TUBE_MIN:
        return f"tube fraction {frac:.4f} < {TUBE_MIN}"
    if l1 is not None and not l1 >= L1_MIN:
        return f"L1 distance between the panels {l1:.4f} < {L1_MIN}"
    return None
