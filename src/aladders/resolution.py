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
squared amplitudes so no singular integrand ever appears.  Every rule sum
sum_i w_i x_i^p is taken in log space, as a log-sum-exp of log w + p log x,
so no power of a node overflows at deep levels or large node counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError
from .zero_modes import _exp_or_inf, _log_factorials, _logsumexp

# Doubling the node count must move no reported entry by more than this,
# relative to the entry.
CONVERGENCE_TOL = 1e-6

MIN_NODES = 8

# Nodes of the rule behind gaussian_moment_quad and exponential_moment_quad.
MOMENT_NODES = 64


@dataclass(frozen=True)
class QuadratureSpec:
    """Radial node counts for the |alpha| and |beta| integrals."""

    radial_nodes_alpha: int = 64
    radial_nodes_beta: int = 64

    def __post_init__(self):
        if self.radial_nodes_alpha < MIN_NODES or self.radial_nodes_beta < MIN_NODES:
            raise DomainError(f"need at least {MIN_NODES} nodes per radial integral")


# One `sweeps` benchmark round draws node counts from 64..128, and the
# node-doubling check also asks for their doubles: 129 rules.  256 holds them
# all, so none is recomputed (about 1 ms each); 256 rules of up to 363 nodes,
# the most for which roots_laguerre gives finite weights, take at most 1.5 MB.
_RULE_CACHE_SIZE = 256


@lru_cache(maxsize=_RULE_CACHE_SIZE)
def _log_laguerre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """(log x, log w) of the nodes-point Gauss-Laguerre rule; a weight that
    underflowed to 0 is -inf."""
    # imported here, not at module level, so that importing the package does
    # not load scipy: only quadrature pays for it
    from scipy.special import roots_laguerre

    # from 364 nodes scipy's rule overflows to NaN weights; the node-doubling
    # gate refuses those, so its RuntimeWarnings would only be noise
    with np.errstate(all="ignore"):
        x, w = roots_laguerre(nodes)
        return np.log(x), np.log(w)


def _log_moments(nodes: int, powers):
    """log sum_i w_i x_i^p, the nodes-point rule for int_0^inf x^p e^-x dx,
    for each p in powers: a float for one power, an array for an array."""
    log_x, log_w = _log_laguerre(nodes)
    return _logsumexp(log_w + np.multiply.outer(powers, log_x))


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


def gaussian_moment_quad(k: int, c: float) -> float:
    """Same moment via the MOMENT_NODES-point Gauss-Laguerre rule after
    u = c x^2 (self-test path)."""
    if k < 0 or c <= 0.0:
        raise DomainError("need k >= 0 and c > 0")
    return _exp_or_inf(_log_moments(MOMENT_NODES, k) - math.log(2.0) - (k + 1) * math.log(c))


def exponential_moment(n: int, d: float) -> float:
    """int_0^inf x^n exp(-d x) dx = n! / d^{n+1}, evaluated in log space."""
    if n < 0:
        raise DomainError(f"moment order must be >= 0, got {n}")
    if d <= 0.0:
        raise DomainError(f"decay rate must be > 0, got {d}")
    return math.exp(math.lgamma(n + 1) - (n + 1) * math.log(d))


def exponential_moment_quad(n: int, d: float) -> float:
    """Same moment via the MOMENT_NODES-point Gauss-Laguerre rule after
    u = d x (self-test path)."""
    if n < 0 or d <= 0.0:
        raise DomainError("need n >= 0 and d > 0")
    return _exp_or_inf(_log_moments(MOMENT_NODES, n) - (n + 1) * math.log(d))


def _identity_diag(nu: int, nodes_a: int, nodes_b: int) -> np.ndarray:
    """Diagonal of the level-nu overlap integral, one entry per basis ket.

    After the angular reduction and the substitutions u = |alpha| and
    t = |beta|^2/4, entry k becomes

        binom2(nu, k)/nu! * int u^{nu-2k} e^-u du * 4^k int t^k e^-t dt
          = int u^{nu-2k} e^-u du / (nu-2k)! * int t^k e^-t dt / k!,

    a polynomial integrand in both variables: the measure's 1/u^{nu+1} has
    already cancelled against the squared state amplitudes, so Gauss-Laguerre
    integrates it exactly once the node count passes the polynomial degree.
    """
    k = np.arange(nu // 2 + 1)
    lf = _log_factorials(nu)
    return np.exp(_log_moments(nodes_a, nu - 2 * k) - lf[nu - 2 * k]
                  + _log_moments(nodes_b, k) - lf[k])


def subspace_identity(nu: int, quad: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """Real diagonal of the weighted overlap integral on level nu's basis,
    one entry per ket of level_basis(nu); the off-diagonal entries vanish
    identically under the angular integrals.

    The diagonal is quadrature-evaluated twice (node count doubled), and
    every entry must agree to CONVERGENCE_TOL relative to the finer value;
    where both rules underflow the 0/0 drift is NaN and fails too.
    """
    if nu < 0:
        raise DomainError(f"level must be >= 0, got {nu}")
    coarse = _identity_diag(nu, quad.radial_nodes_alpha, quad.radial_nodes_beta)
    fine = _identity_diag(nu, 2 * quad.radial_nodes_alpha, 2 * quad.radial_nodes_beta)
    with np.errstate(divide="ignore", invalid="ignore"):
        drift = float(np.max(np.abs(fine - coarse) / fine))
    if not drift <= CONVERGENCE_TOL:  # a NaN drift (overflowed nodes) fails too
        raise ConvergenceError(
            f"level-{nu} identity drifted {drift:.3e} (relative) on node doubling"
        )
    return fine


def subspace_identity_matrix(
    nu: int, quad: QuadratureSpec = QuadratureSpec()
) -> np.ndarray:
    """subspace_identity as a dense complex matrix on level nu's basis."""
    return np.diag(subspace_identity(nu, quad)).astype(complex)


def fullspace_identity_check(
    nu_max: int, quad: QuadratureSpec = QuadratureSpec()
) -> float:
    """Max |entry - 1| of the summed level projectors on kets with
    2n + m <= nu_max.  Each ket sits in exactly one level, so the sum on it
    is that level's diagonal entry."""
    if nu_max < 0:
        raise DomainError(f"level cutoff must be >= 0, got {nu_max}")
    return max(
        float(np.max(np.abs(subspace_identity(nu, quad) - 1.0)))
        for nu in range(nu_max + 1)
    )
