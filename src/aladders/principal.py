"""Closed forms on the principal chain (the chain grown from the vacuum).

With a factor sqrt(nu!) absorbed into the state, level nu of the principal
chain is

    sum_k alpha^{nu-k} beta^k sqrt(binom2(nu, k)) |k, nu - 2k> / sqrt(N_nu),

where binom_t(n, k) = n! / (k! (n - tk)! t^{2k}) is a modified binomial and
the normalization has the product form

    N_nu = (|alpha| |beta| / 2)^nu * H_nu(|alpha| / |beta|)

with H_nu the all-plus-signs (pseudo-Hermite) polynomial
H_nu(x) = sum_k nu!/((nu-2k)! k!) (2x)^{nu-2k}.  Everything is accumulated in
log space, so amplitudes and log N_nu stay finite at every level; N_nu itself
is inf where it is beyond a double.

The position/momentum uncertainty products on these states reduce to mode
occupations:

    product_a = (1/4) (1 + 2 <n_a>)^2,   <n_a> = |alpha beta|^2 nu (nu-1) N_{nu-2} / (4 N_nu)
                                                = nu (nu-1) H_{nu-2}(x) / H_nu(x)
    product_b = (1/2 + <n_b>)^2,         <n_b> = |alpha|^2 nu N_{nu-1} / N_nu
                                                = 2x nu H_{nu-1}(x) / H_nu(x)

with x = |alpha|/|beta|, so the products depend on that ratio alone.

and uncertainty_direct recomputes the same products from raw ladder algebra
as an independent oracle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fock import (
    FockVector,
    a_minus,
    apply_momentum,
    apply_position,
    b_minus,
    inner,
)
from .operators import ModeParams
from .zero_modes import _exp_or_inf, _log_factorials, _logsumexp


def log_modified_binomial(n: int, k: int, t: int) -> float:
    if n < 0 or k < 0 or t < 0:
        raise DomainError("modified binomial needs n, k, t >= 0")
    if n - t * k < 0:
        raise DomainError(f"modified binomial needs n - t*k >= 0, got {n - t * k}")
    if t == 0 and k > 0:
        raise DomainError("t = 0 only admits k = 0")
    out = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - t * k + 1)
    if k > 0:
        out -= 2.0 * k * math.log(t)
    return out


def modified_binomial(n: int, k: int, t: int) -> float:
    """binom_t(n, k) = n! / (k! (n - tk)! t^{2k}); t = 1 is the ordinary
    binomial, t = 2 appears in the principal-chain amplitudes."""
    return math.exp(log_modified_binomial(n, k, t))


def log_pseudo_hermite(nu: int, x: float) -> float:
    """log of H_nu(x) (all coefficients positive; x >= 0)."""
    if nu < 0:
        raise DomainError(f"polynomial degree must be >= 0, got {nu}")
    if x < 0:
        raise DomainError(f"argument must be >= 0, got {x}")
    lf = _log_factorials(nu)
    if x == 0.0:
        return -math.inf if nu % 2 else float(lf[nu] - lf[nu // 2])
    return _log_hermite(nu, math.log(2.0 * x), lf)


def _log_hermite(nu: int, log_2x: float, lf: np.ndarray) -> float:
    """log H_nu(x) for x > 0 from log(2x), with lf[i] = log(i!) for
    i = 0..nu at least."""
    k = np.arange(nu // 2 + 1)
    return _logsumexp(lf[nu] - lf[nu - 2 * k] - lf[k] + (nu - 2 * k) * log_2x)


def pseudo_hermite(nu: int, x: float) -> float:
    """H_nu(x) = sum_k nu!/((nu-2k)! k!) (2x)^{nu-2k}; H_2 = 4x^2 + 2."""
    return _exp_or_inf(log_pseudo_hermite(nu, x))


def principal_log_norm_sq(nu: int, p: ModeParams) -> float:
    """log N_nu via the product form; -inf when the state vanishes."""
    if nu < 0:
        raise DomainError(f"level must be >= 0, got {nu}")
    if nu == 0:
        return 0.0
    if p.alpha == 0:
        return -math.inf
    a, b = abs(p.alpha), abs(p.beta)
    return (nu * (math.log(a) + math.log(b) - math.log(2.0))
            + _log_hermite(nu, math.log(2.0 * (a / b)), _log_factorials(nu)))


def principal_norm_sq(nu: int, p: ModeParams) -> float:
    """N_nu = (|alpha||beta|/2)^nu H_nu(|alpha|/|beta|); equals the direct
    sum of squared amplitudes sum_k |alpha|^{2(nu-k)} |beta|^{2k} binom2;
    inf where N_nu is beyond a double."""
    return _exp_or_inf(principal_log_norm_sq(nu, p))


@dataclass(frozen=True)
class PrincipalState:
    """Normalized principal-chain state at one level.

    coeffs[k] is the amplitude of |k, nu - 2k>; norm_sq is N_nu of the
    unnormalized closed form (nu! not included), inf beyond a double.
    """

    nu: int
    coeffs: tuple[complex, ...]
    norm_sq: float

    def to_fock(self) -> FockVector:
        return FockVector.from_level(self.nu, self.coeffs)


def principal_state(nu: int, p: ModeParams) -> PrincipalState:
    """Principal state at level nu; alpha = 0 leaves nothing to normalize
    for any nu >= 1 (every amplitude carries a positive power of alpha)."""
    if nu < 0:
        raise DomainError(f"level must be >= 0, got {nu}")
    if nu == 0:
        return PrincipalState(0, (1.0 + 0j,), 1.0)
    if p.alpha == 0:
        raise DomainError("principal chain vanishes identically for alpha = 0")
    k = np.arange(nu // 2 + 1)
    lf = _log_factorials(nu)
    log_b2 = lf[nu] - lf[k] - lf[nu - 2 * k] - 2.0 * k * math.log(2.0)
    log_mag = (nu - k) * math.log(abs(p.alpha)) + k * math.log(abs(p.beta)) + 0.5 * log_b2
    phase = (nu - k) * cmath.phase(p.alpha) + k * cmath.phase(p.beta)
    log_norm = _logsumexp(2.0 * log_mag)
    coeffs = tuple(
        cmath.rect(math.exp(lm - 0.5 * log_norm), ph)
        for lm, ph in zip(log_mag, phase)
    )
    return PrincipalState(nu, coeffs, principal_norm_sq(nu, p))


def b_lowering_residual(nu: int, p: ModeParams) -> float:
    """|| b- |state_nu> - alpha sqrt(nu) sqrt(N_{nu-1}/N_nu) |state_{nu-1}> ||.

    The slow-mode annihilator alone steps the principal chain down, with no
    extra phase: both sides carry the same alpha^{nu-k} beta^k monomials.
    """
    if nu < 1:
        raise DomainError("lowering step needs nu >= 1")
    here = principal_state(nu, p).to_fock()
    below = principal_state(nu - 1, p).to_fock()
    ratio = math.exp(
        0.5 * (principal_log_norm_sq(nu - 1, p) - principal_log_norm_sq(nu, p))
    )
    return (b_minus(here) - (p.alpha * math.sqrt(nu) * ratio) * below).norm()


@dataclass(frozen=True)
class UncertaintyReport:
    """Heisenberg products (dQ dP)^2 per mode at one principal level."""

    nu: int
    product_a: float
    product_b: float


def uncertainty_products(nu: int, p: ModeParams) -> UncertaintyReport:
    """Closed-form uncertainty products on the principal state."""
    if nu < 0:
        raise DomainError(f"level must be >= 0, got {nu}")
    if nu >= 1 and p.alpha == 0:
        raise DomainError("principal chain vanishes identically for alpha = 0")
    occ_a = occ_b = 0.0
    if nu >= 1:
        # the occupations depend on x = |alpha|/|beta| alone; one
        # log-factorial array serves H_nu, H_{nu-1} and H_{nu-2}
        lf = _log_factorials(nu)
        log_2x = math.log(2.0 * (abs(p.alpha) / abs(p.beta)))
        log_top = _log_hermite(nu, log_2x, lf)
        occ_b = nu * math.exp(log_2x + _log_hermite(nu - 1, log_2x, lf) - log_top)
        if nu >= 2:
            occ_a = nu * (nu - 1) * math.exp(_log_hermite(nu - 2, log_2x, lf) - log_top)
    product_a = 0.25 * (1.0 + 2.0 * occ_a) ** 2
    product_b = (0.5 + occ_b) ** 2
    return UncertaintyReport(nu, product_a, product_b)


def uncertainty_direct(nu: int, p: ModeParams, mode: str) -> float:
    """(dQ)^2 (dP)^2 from raw ladder algebra on the assembled state (oracle).

    Means and second moments come from literal double application of the
    quadrature operators, not from any closed form.
    """
    if mode not in ("a", "b"):
        raise DomainError(f"mode must be 'a' or 'b', got {mode!r}")
    v = principal_state(nu, p).to_fock()
    qv = apply_position(mode, v)
    qqv = apply_position(mode, qv)
    pv = apply_momentum(mode, v)
    ppv = apply_momentum(mode, pv)
    mean_q = inner(v, qv).real
    mean_p = inner(v, pv).real
    var_q = inner(v, qqv).real - mean_q**2
    var_p = inner(v, ppv).real - mean_p**2
    return var_q * var_p


def mode_occupation(v: FockVector, mode: str) -> float:
    """<s+ s-> / <v|v> for s the chosen mode's annihilator."""
    nsq = v.norm_sq()
    if nsq == 0.0:
        raise DomainError("occupation of the zero vector is undefined")
    if mode == "a":
        return a_minus(v).norm_sq() / nsq
    if mode == "b":
        return b_minus(v).norm_sq() / nsq
    raise DomainError(f"mode must be 'a' or 'b', got {mode!r}")


def binomial_ansatz_state(nu: int, a_param: complex, b_param: complex) -> FockVector:
    """Level-2nu comparison state sum_k a^k b^{nu-k} sqrt(C(nu,k)) |k, 2(nu-k)>,
    normalized.  Populates only even slow-mode occupations, unlike the
    principal chain at the same energy."""
    if nu < 0:
        raise DomainError(f"level must be >= 0, got {nu}")
    a_param = complex(a_param)
    b_param = complex(b_param)
    norm_sq = (abs(a_param) ** 2 + abs(b_param) ** 2) ** nu
    if norm_sq == 0.0:
        raise DomainError("binomial ansatz needs a nonzero parameter")
    scale = norm_sq**-0.5
    return FockVector.from_level(2 * nu, [
        scale * a_param**k * b_param ** (nu - k) * math.sqrt(math.comb(nu, k))
        for k in range(nu + 1)
    ])
