"""Chain states grown from each zero mode by the generalized raising operator.

The chain labelled (2n, nu) is the level-(2n + nu) state obtained by raising
the level-2n zero mode nu times.  Two independent constructions are kept:

* chain_state_bruteforce: literal repeated raising of the zero mode's level
  array by the two diagonals of the raising operator (oracle);
* chain_state_closed: one pass over the normal-ordered expansion of the
  nu-th power of the raising operator,

      (alpha b+ + beta a+ b-)^nu =
          sum_{k<=nu/2} sum_{j<=nu-2k} alpha^{j+k} beta^{nu-k-j}
              nu! / ((nu-2k-j)! k! j! 2^k) (b+)^j (a+)^{nu-k-j} (b-)^{nu-2k-j},

  evaluated on each zero-mode ket, with ladder square roots collected into
  rising factorials.  All (m, k, j) terms of one chain are evaluated at once
  as log magnitudes and phases, scaled by their largest magnitude, and summed
  into the dense array of the chain's level.

Within a level the chain states are linearly independent but not orthogonal.
The row of chains meeting at level R is the square matrix C whose column k is
chain (2k, R - 2k) over level_basis(R); gram_matrix is C^H C, and
lowering_decomposition solves on C, which is what lets the lowered state be
re-expanded over the row below.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IllConditionedError
from .fock import FockVector
from .operators import ModeParams
from .zero_modes import (
    _exp_or_inf, _log_coeffs, _log_factorials, _logsumexp, _zero_mode_array,
)

# Lowering solves whose Gram condition, cond(C)^2, exceeds this are refused.
COND_LIMIT = 1e12

# Expansion terms evaluated together in one slice of a level block.  The
# temporaries take about 150 bytes per term, so a block never holds more
# than about 40 MB of them, however long its chains are.
_SLICE_TERMS = 1 << 18


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
    construction.  log_norm_sq is always finite; norm_sq is inf where the
    norm is beyond a double."""

    label: ChainLabel
    vector: FockVector
    norm_sq: float
    log_norm_sq: float


def chain_state_bruteforce(label: ChainLabel, p: ModeParams) -> ChainState:
    """Raise the zero mode's level array level times, renormalizing each
    step, and prune once, when the vector is built.

    The per-step norms are accumulated in log space, so norm_sq matches the
    single unnormalized construction without intermediate overflow.
    """
    level = label.chain
    amps = _zero_mode_array(label.chain // 2, p)
    log_norm_sq = 0.0
    for _ in range(label.level):
        amps = _raise_level(amps, level, p)
        level += 1
        step = float(np.linalg.norm(amps))
        if step == 0.0:
            raise DomainError(f"chain {label} terminates (zero raised state)")
        amps /= step
        log_norm_sq += 2.0 * math.log(step)
    return ChainState(label, FockVector.from_level(level, amps),
                      _exp_or_inf(log_norm_sq), log_norm_sq)


def _term_logs(
    n: np.ndarray, nu: np.ndarray, m: np.ndarray, k: np.ndarray, j: np.ndarray,
    p: ModeParams, glog: np.ndarray, gphase: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Log magnitudes and phases of expansion terms, one per array entry.

    Entry i is the (m, k, j) term of chain (2n, nu), with glog and gphase
    the log magnitude and phase of that chain's zero-mode coefficient
    gamma_m.  The term acts on ket |m, s> with s = 2(n - m): q = nu - 2k - j
    factors b- leave r = s - q slow quanta, then nu - k - j factors a+ and
    j factors b+ raise it to |m + nu - k - j, r + j>.
    """
    lf = _log_factorials(int((2 * n + nu).max()))
    up = nu - k - j
    q = nu - 2 * k - j
    s = 2 * (n - m)
    r = s - q
    log_mag = (
        glog + up * math.log(abs(p.beta))
        + lf[nu] - lf[q] - lf[k] - lf[j] - k * math.log(2.0)
        + 0.5 * (lf[m + up] - lf[m] + lf[s] - 2.0 * lf[r] + lf[r + j])
    )
    phase = gphase + up * cmath.phase(p.beta)
    if p.alpha == 0:
        log_mag = np.where(j + k > 0, -np.inf, log_mag)
    else:
        log_mag = log_mag + (j + k) * math.log(abs(p.alpha))
        phase = phase + (j + k) * cmath.phase(p.alpha)
    return log_mag, phase


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
    log_mag, phase = _term_logs(*(np.array([i]) for i in (n, nu, m, k, j)), p,
                                glog[m:m + 1], gphase[m:m + 1])
    return cmath.rect(math.exp(log_mag[0]), phase[0])


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """arange(counts[0]), arange(counts[1]), ... concatenated."""
    ends = counts.cumsum()
    return np.arange(ends[-1]) - (ends - counts).repeat(counts)


def _level_block(
    labels: list[ChainLabel], p: ModeParams
) -> tuple[np.ndarray, np.ndarray]:
    """Chains meeting on one level, as unit columns over level_basis(level)
    before any pruning, and the log squared norms of their unnormalized
    constructions.

    Only the valid terms are enumerated: k <= nu/2 and
    max(0, nu - 2k - 2(n - m)) <= j <= nu - 2k on every zero-mode ket m
    with gamma_m != 0.  The kets are taken in slices of about _SLICE_TERMS
    terms.  Each column is kept scaled by its largest term so far, and
    rescaled when a later slice brings a larger one, so no exp overflows.
    """
    level = labels[0].chain + labels[0].level
    ncols = len(labels)
    dim = level // 2 + 1
    gammas = [_log_coeffs(label.chain // 2, p) for label in labels]
    log_norm0 = np.array([_logsumexp(2.0 * g) for g, _ in gammas])
    glog = np.concatenate([g for g, _ in gammas])
    gphase = np.concatenate([ph for _, ph in gammas])
    # zero-mode kets (column, m) with gamma_m != 0
    kets = np.array([g.size for g, _ in gammas])
    col = np.repeat(np.arange(ncols), kets)
    m = _ragged_arange(kets)
    keep = np.isfinite(glog)
    col, m, glog, gphase = col[keep], m[keep], glog[keep], gphase[keep]
    n = (kets - 1)[col]
    nu = level - 2 * n

    # a ket has at most (nu/2 + 1)(min(nu, 2(n - m)) + 1) terms; a slice
    # ends where the running count passes a multiple of _SLICE_TERMS
    bound = (nu // 2 + 1) * (np.minimum(nu, 2 * (n - m)) + 1)
    first = (bound.cumsum() - bound) // _SLICE_TERMS
    top = np.full(ncols, -np.inf)
    amps = np.zeros((ncols, dim), dtype=complex)
    for ket in np.split(np.arange(col.size), np.flatnonzero(np.diff(first)) + 1):
        # terms (k, j) on each ket of the slice
        kcount = nu[ket] // 2 + 1
        ket = np.repeat(ket, kcount)
        k = _ragged_arange(kcount)
        j_lo = np.maximum(0, (nu - 2 * (n - m))[ket] - 2 * k)
        jcount = nu[ket] - 2 * k - j_lo + 1
        j = np.repeat(j_lo, jcount) + _ragged_arange(jcount)
        k = np.repeat(k, jcount)
        ket = np.repeat(ket, jcount)
        log_mag, phase = _term_logs(n[ket], nu[ket], m[ket], k, j, p, glog[ket], gphase[ket])

        c = col[ket]
        new_top = top.copy()
        np.maximum.at(new_top, c, log_mag)
        amps *= np.exp(np.subtract(top, new_top, out=np.zeros(ncols),
                                   where=new_top > top))[:, None]
        top = new_top
        weight = np.exp(log_mag - np.where(top > -np.inf, top, 0.0)[c])
        slot = c * dim + (m + nu)[ket] - k - j
        amps += (np.bincount(slot, weight * np.cos(phase), ncols * dim)
                 + 1j * np.bincount(slot, weight * np.sin(phase), ncols * dim)
                 ).reshape(ncols, dim)
    amps = amps.T
    nrm = np.linalg.norm(amps, axis=0)
    dead = np.flatnonzero(nrm == 0.0)
    if dead.size:
        raise DomainError(f"chain {labels[dead[0]]} terminates (zero raised state)")
    return amps / nrm, 2.0 * (top + np.log(nrm)) - log_norm0


def chain_state_closed(label: ChainLabel, p: ModeParams) -> ChainState:
    """Closed-form chain state via the normal-ordered expansion."""
    amps, log_norm_sq = _level_block([label], p)
    vec = FockVector.from_level(label.chain + label.level, amps[:, 0])
    log_norm_sq = float(log_norm_sq[0])
    return ChainState(label, vec, _exp_or_inf(log_norm_sq), log_norm_sq)


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


def gram_matrix(row: int, p: ModeParams) -> np.ndarray:
    """Overlap matrix of the chain states meeting at one level.

    Hermitian with unit diagonal; positive definite for generic parameters.
    Entry (k, j) pairs chains 2k and 2j.
    """
    c, _ = _level_block(row_labels(row), p)
    return c.conj().T @ c


def _cond_sq(s: np.ndarray) -> float:
    """cond(C)^2, the Gram matrix's condition, from C's singular values in
    descending order; inf when C is singular or the square is beyond a
    double."""
    if not s[-1] > 0:
        return math.inf
    with np.errstate(over="ignore"):
        return float((s[0] / s[-1]) ** 2)


def gram_condition(row: int, p: ModeParams) -> float:
    """Condition number of gram_matrix(row, p), as cond(C)^2 from the
    singular values of C.  The condition of the formed C^H C saturates near
    1/eps; this one does not."""
    c, _ = _level_block(row_labels(row), p)
    return _cond_sq(np.linalg.svd(c, compute_uv=False))


def _raising_diagonals(level: int, alpha: complex, beta: complex
                       ) -> tuple[np.ndarray, np.ndarray]:
    """The two diagonals of alpha b+ + beta a+ b- from level_basis(level) to
    level + 1: alpha b+ keeps the fast index i, d0[i] = alpha sqrt(level + 1 - 2i),
    and beta a+ b- takes i to i + 1, d1[i] = beta sqrt((i + 1)(level - 2i)).
    A- is the adjoint: the same diagonals at conj(alpha), conj(beta)."""
    i = np.arange(level // 2 + 1)
    d0 = alpha * np.sqrt(level + 1 - 2.0 * i)
    i = i[:(level + 1) // 2]
    return d0, beta * np.sqrt((i + 1.0) * (level - 2.0 * i))


def _raise_level(amps: np.ndarray, level: int, p: ModeParams) -> np.ndarray:
    """A+ on an array over level_basis(level), as an array over level + 1."""
    d0, d1 = _raising_diagonals(level, p.alpha, p.beta)
    out = np.zeros((level + 1) // 2 + 1, dtype=complex)
    out[:d0.size] = d0 * amps
    out[1:d1.size + 1] += d1 * amps[:d1.size]
    return out


def _lower_level(amps: np.ndarray, level: int, p: ModeParams) -> np.ndarray:
    """A- on an array over level_basis(level), as an array over level - 1."""
    d0, d1 = _raising_diagonals(level - 1, p.alpha.conjugate(), p.beta.conjugate())
    out = d0 * amps[:d0.size]
    out[:d1.size] += d1 * amps[1:d1.size + 1]
    return out


def _lowering(
    label: ChainLabel, p: ModeParams
) -> tuple[list[tuple[ChainLabel, complex]], float]:
    """(terms, residual) of A- |label> over the row below, from one build of
    the lowered state t and of the row matrix C.

    x solves C x = t through one SVD of C, refused when the Gram condition
    cond(C)^2 exceeds COND_LIMIT.  The residual is ||t - C x|| / ||t||, 0
    when t vanishes.
    """
    if label.level < 1:
        raise DomainError("lowering decomposition needs level >= 1")
    level = label.chain + label.level
    target = _lower_level(_level_block([label], p)[0][:, 0], level, p)
    labels = row_labels(level - 1)
    c, _ = _level_block(labels, p)
    u, s, vh = np.linalg.svd(c)
    cond_sq = _cond_sq(s)
    if not cond_sq <= COND_LIMIT:
        raise IllConditionedError(
            f"Gram condition cond(C)^2 = {cond_sq:.3e} exceeds {COND_LIMIT:.0e}", cond_sq
        )
    x = vh.conj().T @ ((u.conj().T @ target) / s)
    tnorm = float(np.linalg.norm(target))
    residual = float(np.linalg.norm(target - c @ x)) / tnorm if tnorm > 0 else 0.0
    return [(lab, complex(z)) for lab, z in zip(labels, x)], residual


def lowering_decomposition(
    label: ChainLabel, p: ModeParams
) -> list[tuple[ChainLabel, complex]]:
    """Expand the lowered chain state over the full row one level below.

    Returns [(label_k, coefficient_k), ...] such that applying the lowering
    operator to the (chain, level) state equals the coefficient-weighted sum
    of the row's chain states.  Solved on the row's coefficient matrix C, so
    the solve sees cond(C), not the squared condition of the Gram matrix.
    """
    return _lowering(label, p)[0]


def lowering_residual(label: ChainLabel, p: ModeParams) -> float:
    """||A- |label> - sum_k c_k |label_k>|| / ||A- |label>|| for the terms
    (label_k, c_k) of lowering_decomposition, from the same solve on the
    unpruned level arrays; 0 when the lowered state vanishes."""
    return _lowering(label, p)[1]
