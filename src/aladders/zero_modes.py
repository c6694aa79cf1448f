"""Zero modes of the generalized lowering operator.

Every even level 2n carries exactly one normalized state annihilated by
conj(alpha)*b- + conj(beta)*a-b+; odd levels carry none.  The state is

    sum_j gamma_j |j, 2(n-j)>,   j = 0..n,   gamma_0 = 1,

with coefficients fixed either by the two-term recursion obtained from the
annihilation condition,

    gamma_{j+1} = -(conj(alpha)/conj(beta))
                  * sqrt(2(n-j)) / (sqrt(j+1) sqrt(2(n-j)-1)) * gamma_j,

or by the equivalent closed form

    gamma_j = (-2 conj(alpha)/conj(beta))^j * n!/(n-j)!
              * sqrt((2(n-j))! / (j! (2n)!)).

The closed form is evaluated in log space (log-gamma differences,
exponentiated once per coefficient), so no intermediate overflows at any n;
a coefficient or norm beyond a double comes out as inf.  The recursion is
kept as an independent oracle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fock import FockVector, level_basis
from .operators import ModeParams, apply_lowering


def _check_n(n: int) -> int:
    if n < 0:
        raise DomainError(f"chain index n must be >= 0, got {n}")
    return int(n)


def _log_coeffs(n: int, p: ModeParams) -> tuple[np.ndarray, np.ndarray]:
    """log|gamma_j| and arg(gamma_j) for j = 0..n.

    For alpha = 0 all coefficients beyond j = 0 vanish; their log magnitude
    is -inf and the phase is 0.
    """
    ratio = -2.0 * p.alpha.conjugate() / p.beta.conjugate()
    j = np.arange(n + 1)
    lf = _log_factorials(2 * n)
    body = lf[n] - lf[n - j] + 0.5 * (lf[2 * (n - j)] - lf[j] - lf[2 * n])
    if ratio == 0:
        return np.where(j == 0, body, -np.inf), np.zeros(n + 1)
    return j * math.log(abs(ratio)) + body, j * cmath.phase(ratio)


def zero_mode_coeffs_recursive(n: int, p: ModeParams) -> list[complex]:
    """All gamma_j by literal iteration of the two-term recursion (oracle)."""
    n = _check_n(n)
    ratio = -p.alpha.conjugate() / p.beta.conjugate()
    out = [1.0 + 0j]
    for j in range(n):
        step = ratio * math.sqrt(2 * (n - j)) / (
            math.sqrt(j + 1) * math.sqrt(2 * (n - j) - 1)
        )
        out.append(step * out[-1])
    return out


@dataclass(frozen=True)
class ZeroModeCoeffs:
    """Coefficients gamma_0..gamma_n of one zero mode plus their norm sum."""

    n: int
    gamma: tuple[complex, ...]
    norm_sq: float

    def __post_init__(self):
        if len(self.gamma) != self.n + 1:
            raise DomainError("need exactly n + 1 coefficients")
        if self.gamma[0] != 1:
            raise DomainError("gamma_0 must be 1")

    @classmethod
    def build(cls, n: int, p: ModeParams) -> "ZeroModeCoeffs":
        n = _check_n(n)
        log_mag, phase = _log_coeffs(n, p)
        gamma = tuple(cmath.rect(_exp_or_inf(lm), ph) for lm, ph in zip(log_mag, phase))
        # np.exp, not _exp_or_inf: it rounds differently from math.exp, and
        # the printed norm_sq stays as it was; beyond a double it is inf
        with np.errstate(over="ignore"):
            norm_sq = float(np.exp(_logsumexp(2.0 * log_mag)))
        return cls(n=n, gamma=gamma, norm_sq=norm_sq)


# _log_factorials keeps its table up to this many entries (512 KB); longer
# requests compute the part beyond it per call and keep nothing.
_LOG_FACTORIAL_CAP = 1 << 16
_log_factorial_table = np.zeros(1)
_log_factorial_table.flags.writeable = False


def _log_factorials(n: int) -> np.ndarray:
    """Read-only array of log(i!) = math.lgamma(i + 1) for i = 0..n."""
    global _log_factorial_table
    table = _log_factorial_table
    if n >= table.size and table.size < _LOG_FACTORIAL_CAP:
        size = min(max(2 * table.size, n + 1), _LOG_FACTORIAL_CAP)
        table = np.concatenate((table, _lgammas(table.size + 1, size + 1)))
        table.flags.writeable = False
        _log_factorial_table = table
    if n < table.size:
        return table[:n + 1]
    out = np.concatenate((table, _lgammas(table.size + 1, n + 2)))
    out.flags.writeable = False
    return out


def _lgammas(start: int, stop: int) -> np.ndarray:
    """math.lgamma(x) for x = start..stop - 1."""
    return np.fromiter(map(math.lgamma, range(start, stop)), float, stop - start)


def _logsumexp(logs: np.ndarray):
    """log sum exp(logs) over the last axis, -inf where every term is -inf:
    a float for 1-D input, an array over the leading axes otherwise."""
    logs = np.asarray(logs, dtype=float)
    if logs.ndim > 1:
        top = logs.max(axis=-1, keepdims=True)
        top[top == -math.inf] = 0.0
        with np.errstate(divide="ignore"):
            return top[..., 0] + np.log(np.exp(logs - top).sum(axis=-1))
    if logs.size == 0:
        return -math.inf
    top = float(logs.max())
    if top == -math.inf:
        return -math.inf
    # math.log, not np.log: they round differently, and 1-D sums reach
    # printed output
    return top + math.log(float(np.exp(logs - top).sum()))


def _exp_or_inf(log_value: float) -> float:
    """exp(log_value), or inf where that is beyond a double."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def _zero_mode_array(n: int, p: ModeParams) -> np.ndarray:
    """The unit level-2n zero mode as an array over level_basis(2n), before
    any pruning; index j holds gamma_j / sqrt(N), normalized in log space."""
    log_mag, phase = _log_coeffs(n, p)
    log_mag = log_mag - 0.5 * _logsumexp(2.0 * log_mag)
    return np.array([cmath.rect(math.exp(lm), ph) for lm, ph in zip(log_mag, phase)])


def zero_mode_state(n: int, p: ModeParams) -> FockVector:
    """Normalized level-2n zero mode sum_j gamma_j |j, 2(n-j)> / sqrt(N).

    Amplitudes are normalized in log space, so extreme alpha/beta ratios do
    not overflow even when the raw gamma_j would.
    """
    n = _check_n(n)
    return FockVector.from_level(2 * n, _zero_mode_array(n, p))


def lowering_matrix(nu: int, p: ModeParams) -> np.ndarray:
    """Matrix of the generalized lowering operator restricted to level nu.

    Columns run over level_basis(nu), rows over level_basis(nu - 1); for
    nu = 0 the row space is empty and the matrix has shape (0, 1).
    """
    if nu < 0:
        raise DomainError(f"level index must be >= 0, got {nu}")
    cols = level_basis(nu)
    rows = level_basis(nu - 1) if nu >= 1 else []
    row_pos = {ket: i for i, ket in enumerate(rows)}
    mat = np.zeros((len(rows), len(cols)), dtype=complex)
    for jcol, ket in enumerate(cols):
        img = apply_lowering(p, FockVector.basis(*ket))
        for idx, val in img.items():
            mat[row_pos[idx], jcol] = val
    return mat


# A singular value below this fraction of the largest counts as zero.
NULL_SPACE_REL_TOL = 1e-10


def level_null_space_dim(nu: int, p: ModeParams) -> int:
    """Dimension of the kernel of the lowering operator inside level nu.

    Counted as the number of singular values below NULL_SPACE_REL_TOL times
    the largest one.  Generic parameters give 1 on even levels and 0 on odd
    levels.
    """
    mat = lowering_matrix(nu, p)
    ncols = mat.shape[1]
    if mat.shape[0] == 0:
        return ncols
    svals = np.linalg.svd(mat, compute_uv=False)
    top = svals.max() if svals.size else 0.0
    if top == 0.0:
        return ncols
    rank = int(np.sum(svals > NULL_SPACE_REL_TOL * top))
    return ncols - rank
