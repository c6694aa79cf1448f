"""Chain states grown from each zero mode by the generalized raising operator.

The chain labelled (2n, nu) is the level-(2n + nu) state obtained by raising
the level-2n zero mode nu times.  Two independent constructions are kept:

* chain_state_bruteforce: literal repeated operator application (oracle);
* chain_state_closed: one pass over the normal-ordered expansion of the
  nu-th power of the raising operator,

      (alpha b+ + beta a+ b-)^nu =
          sum_{k<=nu/2} sum_{j<=nu-2k} alpha^{j+k} beta^{nu-k-j}
              nu! / ((nu-2k-j)! k! j! 2^k) (b+)^j (a+)^{nu-k-j} (b-)^{nu-2k-j},

  evaluated on each zero-mode ket, with ladder square roots collected into
  rising factorials.

Within a level the chain states are linearly independent but not orthogonal;
gram_matrix and lowering_decomposition expose that structure, which is what
lets the lowered state be re-expanded over the row below.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DomainError, IllConditionedError
from .fock import FockVector, inner
from .operators import ModeParams, apply_lowering, apply_raising
from .zero_modes import _log_coeffs, _logsumexp, zero_mode_state

# Gram systems with estimated condition number beyond this are refused.
COND_LIMIT = 1e12


@dataclass(frozen=True)
class ChainLabel:
    """(chain, level): chain = 2n picks the source zero mode, level = nu the
    number of raising steps.  The state lives in energy level chain + level."""

    chain: int
    level: int

    def __post_init__(self):
        if self.chain < 0 or self.chain % 2 != 0:
            raise DomainError(f"chain index must be even and >= 0, got {self.chain}")
        if self.level < 0:
            raise DomainError(f"chain level must be >= 0, got {self.level}")


@dataclass(frozen=True)
class ChainState:
    """A normalized chain state plus the squared norm of its unnormalized
    construction (log copy kept for ratio arithmetic at large level)."""

    label: ChainLabel
    vector: FockVector
    norm_sq: float
    log_norm_sq: float


def chain_state_bruteforce(label: ChainLabel, p: ModeParams) -> ChainState:
    """Raise the zero mode level times, renormalizing each step.

    The per-step norms are accumulated in log space, so norm_sq matches the
    single unnormalized construction without intermediate overflow.
    """
    vec = zero_mode_state(label.chain // 2, p)
    log_norm_sq = 0.0
    for _ in range(label.level):
        vec = apply_raising(p, vec)
        step = vec.norm()
        if step == 0.0:
            raise DomainError(f"chain {label} terminates (zero raised state)")
        vec = (1.0 / step) * vec
        log_norm_sq += 2.0 * math.log(step)
    return ChainState(label, vec, math.exp(log_norm_sq), log_norm_sq)


def _coeff_log(
    n: int, nu: int, m: int, k: int, j: int, p: ModeParams,
    gamma_log: float, gamma_phase: float,
) -> complex:
    """One expansion coefficient, from log magnitudes and a tracked phase."""
    apow = j + k
    bpow = nu - k - j
    if p.alpha == 0 and apow > 0:
        return 0j
    if gamma_log == -math.inf:
        return 0j
    lg = math.lgamma
    q = nu - 2 * k - j  # number of b- factors acting on |m, 2(n-m)>
    x = 2 * (n - m) - nu + 2 * k + j + 1
    log_mag = (
        gamma_log
        + bpow * math.log(abs(p.beta))
        + lg(nu + 1) - lg(q + 1) - lg(k + 1) - lg(j + 1) - k * math.log(2.0)
        + 0.5 * (lg(m + 1 + bpow) - lg(m + 1))
        + 0.5 * (lg(x + j) - lg(x))
        + 0.5 * (lg(x + q) - lg(x))
    )
    phase = gamma_phase + bpow * cmath.phase(p.beta)
    if apow > 0:
        log_mag += apow * math.log(abs(p.alpha))
        phase += apow * cmath.phase(p.alpha)
    return cmath.rect(math.exp(log_mag), phase)


def expansion_coeff(n: int, nu: int, m: int, k: int, j: int, p: ModeParams) -> complex:
    """Coefficient of |m + nu - k - j, 2(n-m) - nu + 2k + 2j> contributed by
    the (k, j) term of the normal-ordered power acting on zero-mode ket m.

    Includes the zero-mode coefficient gamma_m but not the zero-mode
    normalization.  Indices outside their triangular ranges are rejected.
    """
    if n < 0 or nu < 0:
        raise DomainError("chain indices must be >= 0")
    if not 0 <= m <= n:
        raise DomainError(f"m must be in 0..{n}, got {m}")
    if not 0 <= k <= nu // 2:
        raise DomainError(f"k must be in 0..{nu // 2}, got {k}")
    j_lo = max(0, nu - 2 * (k + n - m))
    j_hi = nu - 2 * k
    if not j_lo <= j <= j_hi:
        raise DomainError(f"j must be in {j_lo}..{j_hi}, got {j}")
    glog, gphase = _log_coeffs(n, p)
    return _coeff_log(n, nu, m, k, j, p, float(glog[m]), float(np.asarray(gphase)[m]))


def chain_state_closed(label: ChainLabel, p: ModeParams) -> ChainState:
    """Closed-form chain state via the normal-ordered expansion."""
    n = label.chain // 2
    nu = label.level
    glog, gphase = _log_coeffs(n, p)
    gphase = np.broadcast_to(gphase, glog.shape)
    log_norm0 = _logsumexp(2.0 * glog[np.isfinite(glog)])
    acc: dict[tuple[int, int], complex] = {}
    for m in range(n + 1):
        gl = float(glog[m]) - 0.5 * log_norm0
        if gl == -math.inf:
            continue
        gp = float(gphase[m])
        for k in range(nu // 2 + 1):
            j_lo = max(0, nu - 2 * (k + n - m))
            for j in range(j_lo, nu - 2 * k + 1):
                coeff = _coeff_log(n, nu, m, k, j, p, gl, gp)
                if coeff == 0:
                    continue
                ket = (m + nu - k - j, 2 * (n - m) - nu + 2 * k + 2 * j)
                acc[ket] = acc.get(ket, 0j) + coeff
    raw = FockVector(acc)
    nrm = raw.norm()
    if nrm == 0.0:
        raise DomainError(f"chain {label} terminates (zero raised state)")
    return ChainState(label, (1.0 / nrm) * raw, nrm * nrm, 2.0 * math.log(nrm))


def ladder_factor(label: ChainLabel, p: ModeParams) -> float:
    """f(nu) = N_nu / N_{nu-1} on one chain; the squared norm gained by a
    single raising step, so ||raise(state at nu-1)||^2 = f(nu)."""
    if label.level < 1:
        raise DomainError("ladder factor needs level >= 1")
    here = chain_state_closed(label, p)
    below = chain_state_closed(ChainLabel(label.chain, label.level - 1), p)
    return math.exp(here.log_norm_sq - below.log_norm_sq)


def row_labels(row: int) -> list[ChainLabel]:
    """All chain labels meeting energy level `row`, ordered by chain index."""
    if row < 0:
        raise DomainError(f"row must be >= 0, got {row}")
    return [ChainLabel(2 * k, row - 2 * k) for k in range(row // 2 + 1)]


def row_states(row: int, p: ModeParams) -> list[ChainState]:
    return [chain_state_closed(label, p) for label in row_labels(row)]


def _gram(states: list[ChainState]) -> np.ndarray:
    dim = len(states)
    mat = np.empty((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            mat[i, j] = inner(states[i].vector, states[j].vector)
    return mat


def gram_matrix(row: int, p: ModeParams) -> np.ndarray:
    """Overlap matrix of the chain states meeting at one level.

    Hermitian with unit diagonal; positive definite for generic parameters.
    Entry (k, j) pairs chains 2k and 2j.
    """
    return _gram(row_states(row, p))


def _solve_hermitian(mat: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve a Hermitian positive-definite system with one refinement step.

    Raises IllConditionedError when the condition estimate exceeds
    COND_LIMIT or the Cholesky factorization fails outright.
    """
    cond = float(np.linalg.cond(mat))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise IllConditionedError(
            f"Gram system condition {cond:.3e} exceeds {COND_LIMIT:.0e}", cond
        )
    try:
        factor = scipy.linalg.cho_factor(mat)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise IllConditionedError(f"Cholesky failed: {exc}", cond) from exc
    except scipy.linalg.LinAlgError as exc:
        raise IllConditionedError(f"Cholesky failed: {exc}", cond) from exc
    x = scipy.linalg.cho_solve(factor, rhs)
    resid = rhs - mat @ x
    x = x + scipy.linalg.cho_solve(factor, resid)
    return x, cond


def lowering_decomposition(
    label: ChainLabel, p: ModeParams
) -> list[tuple[ChainLabel, complex]]:
    """Expand the lowered chain state over the full row one level below.

    Returns [(label_k, coefficient_k), ...] such that applying the lowering
    operator to the (chain, level) state equals the coefficient-weighted sum
    of the row's chain states.  Solved through the row's Gram matrix.
    """
    if label.level < 1:
        raise DomainError("lowering decomposition needs level >= 1")
    target = apply_lowering(p, chain_state_closed(label, p).vector)
    states = row_states(label.chain + label.level - 1, p)
    rhs = np.array([inner(s.vector, target) for s in states])
    coeffs, _cond = _solve_hermitian(_gram(states), rhs)
    return [(s.label, complex(c)) for s, c in zip(states, coeffs)]


def lowering_residual(
    label: ChainLabel, p: ModeParams, terms: list[tuple[ChainLabel, complex]]
) -> float:
    """||A- |label> - sum_k c_k |label_k>|| / ||A- |label>|| for the terms
    of lowering_decomposition; 0 when the lowered state vanishes."""
    target = apply_lowering(p, chain_state_closed(label, p).vector)
    recon = FockVector()
    for lab, coeff in terms:
        recon = recon + coeff * chain_state_closed(lab, p).vector
    tnorm = target.norm()
    return (target - recon).norm() / tnorm if tnorm > 0 else 0.0
