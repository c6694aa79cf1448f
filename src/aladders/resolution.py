"""Completeness of the principal-level family over the parameter plane.

Integrating |state><state| over alpha and beta with the weight

    mu_nu(|alpha|, |beta|) = exp(-|alpha| - |beta|^2/4) / (8 pi^2 nu! |alpha|^{nu+1})

resolves the identity on each level subspace.  The two angular integrals are
analytic (they produce 4 pi^2 and kill every off-diagonal term), leaving two
radial integrals of the closed forms

    int_0^inf x^{2k+1} exp(-c x^2) dx = k! / (2 c^{k+1})
    int_0^inf x^n     exp(-d x)   dx = n! / d^{n+1}.

The radial factors are evaluated here by Gauss-Laguerre quadrature after
substituting away the measure's 1/|alpha|^{nu+1}, which cancels against the
squared amplitudes so no singular integrand ever appears.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError
from .fock import level_basis
from .principal import log_modified_binomial

# Doubling the node count must move no reported entry by more than this.
CONVERGENCE_TOL = 1e-6

MIN_NODES = 8


@dataclass(frozen=True)
class QuadratureSpec:
    """Radial node counts for the |alpha| and |beta| integrals."""

    radial_nodes_alpha: int = 64
    radial_nodes_beta: int = 64
    scheme: str = "gauss-laguerre"

    def __post_init__(self):
        if self.radial_nodes_alpha < MIN_NODES or self.radial_nodes_beta < MIN_NODES:
            raise DomainError(f"need at least {MIN_NODES} nodes per radial integral")
        if self.scheme != "gauss-laguerre":
            raise DomainError(f"unsupported scheme {self.scheme!r}")


@lru_cache(maxsize=32)
def _laguerre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    # imported here, not at module level, so that importing the package does
    # not load scipy: only quadrature pays for it
    from scipy.special import roots_laguerre

    x, w = roots_laguerre(nodes)
    return x, w


def measure_weight(nu: int, a_mag: float, b_mag: float) -> float:
    """mu_nu at one radial point; positive for a_mag > 0."""
    if nu < 0:
        raise DomainError(f"level must be >= 0, got {nu}")
    if a_mag <= 0.0:
        raise DomainError("measure weight needs |alpha| > 0")
    if b_mag < 0.0:
        raise DomainError("measure weight needs |beta| >= 0")
    log_val = (
        -math.log(8.0 * math.pi**2)
        - math.lgamma(nu + 1)
        - a_mag
        - 0.25 * b_mag**2
        - (nu + 1) * math.log(a_mag)
    )
    return math.exp(log_val)


def gaussian_moment(k: int, c: float) -> float:
    """int_0^inf x^{2k+1} exp(-c x^2) dx = k! / (2 c^{k+1})."""
    if k < 0:
        raise DomainError(f"moment order must be >= 0, got {k}")
    if c <= 0.0:
        raise DomainError(f"decay rate must be > 0, got {c}")
    return math.exp(math.lgamma(k + 1) - math.log(2.0) - (k + 1) * math.log(c))


def gaussian_moment_quad(k: int, c: float, nodes: int = 64) -> float:
    """Same moment via Gauss-Laguerre after u = c x^2 (self-test path)."""
    if k < 0 or c <= 0.0:
        raise DomainError("need k >= 0 and c > 0")
    x, w = _laguerre(nodes)
    return float(np.dot(w, x**k)) * math.exp(-math.log(2.0) - (k + 1) * math.log(c))


def exponential_moment(n: int, d: float) -> float:
    """int_0^inf x^n exp(-d x) dx = n! / d^{n+1}, evaluated in log space."""
    if n < 0:
        raise DomainError(f"moment order must be >= 0, got {n}")
    if d <= 0.0:
        raise DomainError(f"decay rate must be > 0, got {d}")
    return math.exp(math.lgamma(n + 1) - (n + 1) * math.log(d))


def exponential_moment_quad(n: int, d: float, nodes: int = 64) -> float:
    """Same moment via Gauss-Laguerre after u = d x (self-test path)."""
    if n < 0 or d <= 0.0:
        raise DomainError("need n >= 0 and d > 0")
    x, w = _laguerre(nodes)
    return float(np.dot(w, x**n)) * math.exp(-(n + 1) * math.log(d))


def _identity_diag(nu: int, nodes_a: int, nodes_b: int) -> np.ndarray:
    """Diagonal of the level-nu overlap integral, one entry per basis ket.

    After the angular reduction and the substitutions u = |alpha| and
    t = |beta|^2/4, entry k becomes

        binom2(nu, k)/nu! * int u^{nu-2k} e^-u du * 4^k int t^k e^-t dt,

    a polynomial integrand in both variables: the measure's 1/u^{nu+1} has
    already cancelled against the squared state amplitudes, so Gauss-Laguerre
    integrates it exactly once the node count passes the polynomial degree.
    """
    xa, wa = _laguerre(nodes_a)
    xb, wb = _laguerre(nodes_b)
    out = np.empty(nu // 2 + 1)
    for k in range(nu // 2 + 1):
        int_a = float(np.dot(wa, xa ** (nu - 2 * k)))
        int_b = float(np.dot(wb, xb**k))
        log_val = (
            log_modified_binomial(nu, k, 2)
            - math.lgamma(nu + 1)
            + math.log(int_a)
            + k * math.log(4.0)
            + math.log(int_b)
        )
        out[k] = math.exp(log_val)
    return out


def subspace_identity_matrix(
    nu: int, quad: QuadratureSpec = QuadratureSpec()
) -> np.ndarray:
    """Matrix of the weighted overlap integral on level nu's basis.

    Off-diagonal entries vanish identically under the angular integrals and
    are recorded as exact zeros; the diagonal is quadrature-evaluated twice
    (node count doubled) and must agree to CONVERGENCE_TOL.
    """
    if nu < 0:
        raise DomainError(f"level must be >= 0, got {nu}")
    coarse = _identity_diag(nu, quad.radial_nodes_alpha, quad.radial_nodes_beta)
    fine = _identity_diag(nu, 2 * quad.radial_nodes_alpha, 2 * quad.radial_nodes_beta)
    drift = float(np.max(np.abs(fine - coarse)))
    if not drift <= CONVERGENCE_TOL:  # a NaN drift (overflowed nodes) fails too
        raise ConvergenceError(
            f"level-{nu} identity drifted {drift:.3e} on node doubling"
        )
    return np.diag(fine).astype(complex)


def fullspace_identity_check(
    nu_max: int, quad: QuadratureSpec = QuadratureSpec()
) -> float:
    """Max |entry - 1| of the summed level projectors on kets with
    2n + m <= nu_max.  Each ket sits in exactly one level, so the sum acts
    diagonally and the deviation is per-ket."""
    if nu_max < 0:
        raise DomainError(f"level cutoff must be >= 0, got {nu_max}")
    acc: dict[tuple[int, int], float] = {}
    for nu in range(nu_max + 1):
        mat = subspace_identity_matrix(nu, quad)
        diag = np.real(np.diag(mat))
        for k, ket in enumerate(level_basis(nu)):
            acc[ket] = acc.get(ket, 0.0) + float(diag[k])
    worst = 0.0
    for n in range(nu_max // 2 + 1):
        for m in range(nu_max - 2 * n + 1):
            worst = max(worst, abs(acc.get((n, m), 0.0) - 1.0))
    return worst
