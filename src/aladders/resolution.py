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

criteria.state_identity_deviation is the independent side: it integrates
mu_nu times the principal states' projectors themselves, by numpy's laggauss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError
from .zero_modes import _log_factorials, _logsumexp

# Doubling the node count must move no reported entry by more than this,
# relative to the entry.
CONVERGENCE_TOL = 1e-6

MIN_NODES = 8

# The node-doubling check builds the rule of twice the nodes, from a dense
# Jacobi matrix (n^2 memory, n^3 time in eigvalsh) and an O(n^2) recurrence:
# the 1024-node rule needs an 8 MB matrix and about 0.15 s (one core of an
# Intel Xeon).  Larger counts are refused before any rule is built.
MAX_NODES = 512


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
# all, so none is recomputed (1-8 ms each, 0.3 s for all 129); 256 rules of
# up to 2 * MAX_NODES nodes take about 4 MB.
_RULE_CACHE_SIZE = 256

# _laguerre_pair divides out its running values every this many steps: one
# step grows them by at most a factor x + 2, every node of the n-point rule
# is below 4n (Gershgorin), so 4100 within the ceiling, and 4100^16 is far
# inside a double.
_RESCALE_STEPS = 16


def _laguerre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(L_n(x), L_n(x) - L_{n-1}(x), log s), both values divided by s > 0.

    The difference form of the three-term recurrence, as scipy's
    eval_genlaguerre takes it: d_k = L_{k+1} - L_k obeys
    d_k = (k d_{k-1} - x L_k) / (k + 1).  The textbook form
    ((2k + 1 - x) L_k - k L_{k-1}) / (k + 1) cancels at the small nodes.
    """
    p = np.ones_like(x)
    d = np.zeros_like(x)
    log_scale = np.zeros_like(x)
    for k in range(n):
        d = (k * d - x * p) / (k + 1)
        p = p + d
        if k % _RESCALE_STEPS == _RESCALE_STEPS - 1:
            s = np.maximum(np.abs(p), np.abs(d))
            p /= s
            d /= s
            log_scale += np.log(s)
    return p, d, log_scale


@lru_cache(maxsize=_RULE_CACHE_SIZE)
def _log_laguerre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """(log x, log w) of the nodes-point Gauss-Laguerre rule, by Golub and
    Welsch (1969).

    The nodes are the eigenvalues of the Jacobi matrix of the Laguerre
    recurrence (diagonal 2k + 1, off-diagonal k), polished by one Newton
    step on L_n.  The weights are w_i = x_i / (n L_{n-1}(x_i))^2, taken as
    logs so that none underflows, and normalised to sum to 0! = 1.
    """
    k = np.arange(nodes, dtype=float)
    x = np.linalg.eigvalsh(np.diag(2.0 * k + 1.0) + np.diag(k[1:], -1))
    l_n, step, _ = _laguerre_pair(nodes, x)
    x -= x * l_n / (nodes * step)  # x L_n'(x) = n (L_n(x) - L_{n-1}(x))
    l_n, step, log_scale = _laguerre_pair(nodes, x)
    log_x = np.log(x)
    log_w = log_x - 2.0 * (math.log(nodes) + np.log(np.abs(l_n - step)) + log_scale)
    return log_x, log_w - _logsumexp(log_w)


def _log_moments(nodes: int, powers):
    """log sum_i w_i x_i^p, the nodes-point rule for int_0^inf x^p e^-x dx,
    for each p in powers: a float for one power, an array for an array."""
    log_x, log_w = _log_laguerre(nodes)
    return _logsumexp(log_w + np.multiply.outer(powers, log_x))


def measure_weight(nu: int, a_mag: float, b_mag: float) -> float:
    """mu_nu at one radial point; positive for a_mag > 0."""
    if nu < 0:
        raise DomainError(f"level must be >= 0, got {nu}")
    # the comparisons refuse NaN as well
    if not 0.0 < a_mag < math.inf:
        raise DomainError(f"measure weight needs a finite |alpha| > 0, got {a_mag}")
    if not 0.0 <= b_mag < math.inf:
        raise DomainError(f"measure weight needs a finite |beta| >= 0, got {b_mag}")
    log_val = (
        -math.log(8.0 * math.pi**2)
        - math.lgamma(nu + 1)
        - a_mag
        - 0.25 * b_mag**2
        - (nu + 1) * math.log(a_mag)
    )
    return math.exp(log_val)


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
    where both rules underflow the 0/0 drift is NaN and fails too.  Node
    counts above MAX_NODES fail before any rule is built.
    """
    if nu < 0:
        raise DomainError(f"level must be >= 0, got {nu}")
    nodes = max(quad.radial_nodes_alpha, quad.radial_nodes_beta)
    if nodes > MAX_NODES:
        raise ConvergenceError(
            f"{nodes} radial nodes are beyond the {MAX_NODES}-node ceiling: the "
            f"node-doubling check builds the rule of twice the nodes, whose dense "
            f"Jacobi matrix grows as the square of the count and its eigenvalue "
            f"solve as the cube"
        )
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
