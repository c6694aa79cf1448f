"""Reference computations the benchmark checks outputs against.

Nothing here calls the package under test.  The dense ladder matrices are
built directly from the sqrt(n), sqrt(m) factors; chain states are raised
from an SVD null vector with those matrices (no amplitude pruning); the
high-precision values come from mpmath at 50 digits.
"""

from __future__ import annotations

import math

import numpy as np

MP_DIGITS = 50


def level_size(nu: int) -> int:
    return nu // 2 + 1


def lowering_level_matrix(nu: int, alpha: complex, beta: complex) -> np.ndarray:
    """conj(alpha) b- + conj(beta) a- b+ from level nu to level nu - 1.

    Level nu has kets (k, nu - 2k), k = 0..nu//2, indexed by k.
    """
    rows, cols = level_size(nu - 1) if nu >= 1 else 0, level_size(nu)
    mat = np.zeros((rows, cols), dtype=complex)
    for k in range(cols):
        m = nu - 2 * k
        if m > 0 and k < rows:
            mat[k, k] += np.conj(alpha) * math.sqrt(m)
        if k > 0:
            mat[k - 1, k] += np.conj(beta) * math.sqrt(k) * math.sqrt(m + 1)
    return mat


def raising_level_matrix(nu: int, alpha: complex, beta: complex) -> np.ndarray:
    """alpha b+ + beta a+ b- from level nu to level nu + 1 (the adjoint)."""
    return lowering_level_matrix(nu + 1, alpha, beta).conj().T


def zero_mode_dense(n: int, alpha: complex, beta: complex) -> np.ndarray:
    """Unit null vector of the lowering matrix on level 2n, first entry > 0."""
    if n == 0:
        return np.ones(1, dtype=complex)
    _u, _s, vh = np.linalg.svd(lowering_level_matrix(2 * n, alpha, beta))
    vec = vh[-1].conj()
    vec = vec * (abs(vec[0]) / vec[0])
    return vec / np.linalg.norm(vec)


def chain_dense(chain: int, level: int, alpha: complex, beta: complex) -> np.ndarray:
    """Chain (chain, level): the level-`chain` zero mode raised `level`
    times with the dense matrix, renormalized after every step."""
    vec = zero_mode_dense(chain // 2, alpha, beta)
    for step in range(level):
        vec = raising_level_matrix(chain + step, alpha, beta) @ vec
        vec = vec / np.linalg.norm(vec)
    return vec


def fock_to_level(items, nu: int) -> np.ndarray:
    """Dense level-nu array from (ket, amplitude) pairs; any ket off the
    level raises ValueError."""
    out = np.zeros(level_size(nu), dtype=complex)
    for (n, m), amp in items:
        if 2 * n + m != nu:
            raise ValueError(f"ket ({n}, {m}) is not on level {nu}")
        out[n] = amp
    return out


def rel_max_diff(got: np.ndarray, want: np.ndarray) -> float:
    """max |got - want| relative to max |want|."""
    scale = float(np.max(np.abs(want)))
    return float(np.max(np.abs(got - want))) / scale


def _mp():
    import mpmath

    mpmath.mp.dps = MP_DIGITS
    return mpmath


def principal_amplitudes_mp(nu: int, alpha: complex, beta: complex) -> np.ndarray:
    """Normalized alpha^{nu-k} beta^k sqrt(binom2(nu, k)) at 50 digits,
    binom2(nu, k) = nu! / (k! (nu - 2k)! 4^k)."""
    mp = _mp()
    a, b = mp.mpc(alpha), mp.mpc(beta)
    terms = []
    for k in range(level_size(nu)):
        binom2 = mp.factorial(nu) / (
            mp.factorial(k) * mp.factorial(nu - 2 * k) * mp.mpf(4) ** k
        )
        terms.append(a ** (nu - k) * b**k * mp.sqrt(binom2))
    norm = mp.sqrt(mp.fsum(abs(t) ** 2 for t in terms))
    return np.array([complex(t / norm) for t in terms])


def principal_moments_mp(nu: int, a_mag: float, b_mag: float):
    """(log N_nu, <n_a>, <n_b>) of the principal state by direct summation.

    N_nu = sum_k |alpha|^{2(nu-k)} |beta|^{2k} binom2(nu, k); the occupations
    are the |amplitude|^2-weighted means of k and nu - 2k.  Terms follow the
    exact ratio t_{k+1}/t_k = (|beta|/|alpha|)^2 (nu-2k)(nu-2k-1) / (4(k+1)).
    """
    mp = _mp()
    a2, b2 = mp.mpf(a_mag) ** 2, mp.mpf(b_mag) ** 2
    term = a2**nu
    total = occ_a = occ_b = mp.mpf(0)
    for k in range(level_size(nu)):
        total += term
        occ_a += k * term
        occ_b += (nu - 2 * k) * term
        term = term * b2 / a2 * (nu - 2 * k) * (nu - 2 * k - 1) / (4 * (k + 1))
    return float(mp.log(total)), float(occ_a / total), float(occ_b / total)


def uncertainty_mp(nu: int, a_mag: float, b_mag: float) -> tuple[float, float]:
    """Heisenberg products on one level: every first moment of Q and P
    vanishes (they change the level), so (dQ dP)^2 = <Q^2><P^2>, giving
    (1 + 2<n_a>)^2 / 4 and (1/2 + <n_b>)^2."""
    _log_n, occ_a, occ_b = principal_moments_mp(nu, a_mag, b_mag)
    return 0.25 * (1.0 + 2.0 * occ_a) ** 2, (0.5 + occ_b) ** 2


def hermite_function_mp(n_max: int, omega: float, x: float) -> list:
    """psi_n(x) for n = 0..n_max at frequency omega, via mpmath.hermite:
    (omega/pi)^{1/4} H_n(sqrt(omega) x) exp(-omega x^2 / 2) / sqrt(2^n n!)."""
    mp = _mp()
    om, xm = mp.mpf(omega), mp.mpf(x)
    u = mp.sqrt(om) * xm
    pref = (om / mp.pi) ** mp.mpf(0.25) * mp.exp(-om * xm**2 / 2)
    return [
        pref * mp.hermite(n, u) / mp.sqrt(mp.mpf(2) ** n * mp.factorial(n))
        for n in range(n_max + 1)
    ]


def density_at_mp(items, x: float, y: float) -> float:
    """|<x, y | v>|^2 for v given as (ket, amplitude) pairs; the fast mode
    (frequency 2) is on x, the slow mode (frequency 1) on y."""
    mp = _mp()
    items = list(items)
    fast = hermite_function_mp(max(n for (n, _m), _a in items), 2.0, x)
    slow = hermite_function_mp(max(m for (_n, m), _a in items), 1.0, y)
    amp = mp.fsum(mp.mpc(a) * fast[n] * slow[m] for (n, m), a in items)
    return float(abs(amp) ** 2)


def trapezoid_weights(points: np.ndarray) -> np.ndarray:
    gaps = np.diff(points)
    weights = np.zeros(points.size)
    weights[:-1] += gaps / 2
    weights[1:] += gaps / 2
    return weights


def trapezoid_mass(values: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> float:
    """2-D trapezoid rule as two matrix-vector products, with no temporary
    of the grid's size."""
    return float(trapezoid_weights(xs) @ (values @ trapezoid_weights(ys)))
