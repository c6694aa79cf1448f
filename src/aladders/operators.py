"""Generalized ladder operators mixing the two oscillator modes.

The raising operator alpha*b+ + beta*a+b- and its adjoint
conj(alpha)*b- + conj(beta)*a-b+ shift the level index nu = 2n + m by
exactly one: each term trades quanta so the energy changes by one unit.
Their commutator is |alpha|^2 + |beta|^2 (b+b- - a+a-), so for beta != 0
the pair is not canonical.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError
from .fock import FockVector, a_minus, a_plus, b_minus, b_plus

# Nonzero |alpha|, |beta| and |alpha|/|beta| must lie within
# [1/PARAM_BOUND, PARAM_BOUND].  A sweep of log10|alpha| and log10|beta| over
# -300..300 served every subcommand inside it with finite output and no
# warning; from 1e160 the unscaled squares in the level arrays overflow or
# lose their digits.
PARAM_BOUND = 1e150


@dataclass(frozen=True)
class ModeParams:
    """Mixing parameters (alpha, beta); beta = 0 is rejected because the
    zero-mode closed forms divide by conj(beta), a non-finite alpha or beta
    because no state is defined there, and magnitudes or a ratio outside
    PARAM_BOUND because doubles cannot carry them through."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if not cmath.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        if self.beta == 0:
            raise DomainError("beta must be nonzero")
        # hypot, not abs: abs of a complex beyond a double raises
        a = math.hypot(self.alpha.real, self.alpha.imag)
        b = math.hypot(self.beta.real, self.beta.imag)
        # |alpha| and |beta| first: within the bound their ratio is nonzero
        for name, value in (("|alpha|", a), ("|beta|", b), ("|alpha|/|beta|", a / b)):
            if value != 0 and not 1.0 / PARAM_BOUND <= value <= PARAM_BOUND:
                raise DomainError(
                    f"{name} must be 0 or within [{1.0 / PARAM_BOUND:.0e}, "
                    f"{PARAM_BOUND:.0e}], got {value!r}"
                )


def apply_raising(p: ModeParams, v: FockVector) -> FockVector:
    """(alpha*b+ + beta*a+b-) v."""
    return p.alpha * b_plus(v) + p.beta * a_plus(b_minus(v))


def apply_lowering(p: ModeParams, v: FockVector) -> FockVector:
    """(conj(alpha)*b- + conj(beta)*a-b+) v, the adjoint of apply_raising."""
    return p.alpha.conjugate() * b_minus(v) + p.beta.conjugate() * a_minus(b_plus(v))


def apply_commutator(p: ModeParams, v: FockVector) -> FockVector:
    """[lowering, raising] v by literal composition (no closed form)."""
    return apply_lowering(p, apply_raising(p, v)) - apply_raising(p, apply_lowering(p, v))
