"""Sparse two-mode Fock space for the 2:1 anisotropic oscillator.

Basis kets |n, m> carry n quanta in the fast mode (frequency 2, operators
a+/a-) and m quanta in the slow mode (frequency 1, operators b+/b-).  The
Hamiltonian H = 2 a+a- + b+b- + 3/2 has eigenvalue 2n + m + 3/2, so states
organise into levels nu = 2n + m of energy nu + 3/2.

Kets are plain (n, m) tuples; vectors are immutable sparse maps from kets to
complex amplitudes.  Amplitudes below a drop tolerance are pruned after every
operation and iteration order is always lexicographic in (n, m), which keeps
serialized output stable.
"""

from __future__ import annotations

import contextlib
import math
from contextvars import ContextVar
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import DomainError

FockIndex = tuple[int, int]

# Amplitudes with |a| < drop tolerance are discarded when a vector is built.
# Overridable for a block of code with drop_tolerance (the CLI's chain and
# density expose --drop-tol).
DEFAULT_DROP_TOL = 1e-14

_drop_tol: ContextVar[float] = ContextVar("drop_tol", default=DEFAULT_DROP_TOL)


@contextlib.contextmanager
def drop_tolerance(tol: float):
    """Within the block, every vector built prunes amplitudes below ``tol``;
    the previous tolerance returns on exit.

    The setting is local to the current thread or asyncio task.
    """
    if not tol >= 0.0:
        raise DomainError(f"drop tolerance must be >= 0, got {tol}")
    token = _drop_tol.set(float(tol))
    try:
        yield
    finally:
        _drop_tol.reset(token)


def _check_index(key) -> FockIndex:
    try:
        n, m = key
    except (TypeError, ValueError):
        raise DomainError(f"Fock index must be an (n, m) pair, got {key!r}")
    n = int(n)
    m = int(m)
    if n < 0 or m < 0:
        raise DomainError(f"occupation numbers must be >= 0, got ({n}, {m})")
    return (n, m)


def level_basis(nu: int) -> list[FockIndex]:
    """All kets (k, nu - 2k) in level nu, ordered by increasing fast-mode k.

    The level has floor(nu/2) + 1 members and the ordering is lexicographic.
    """
    if nu < 0:
        raise DomainError(f"level index must be >= 0, got {nu}")
    return [(k, nu - 2 * k) for k in range(nu // 2 + 1)]


class FockVector:
    """Immutable sparse vector over two-mode Fock kets.

    Construct from a mapping {(n, m): amplitude} or an iterable of
    ((n, m), amplitude) pairs; duplicate keys are summed.  Entries whose
    magnitude ends up below the drop tolerance are dropped; this constructor
    is the one place that reads it.
    """

    __slots__ = ("_amp",)

    def __init__(self, amplitudes: Union[Mapping[FockIndex, complex], Iterable] = ()):
        tol = _drop_tol.get()
        items = amplitudes.items() if hasattr(amplitudes, "items") else amplitudes
        merged: dict[FockIndex, complex] = {}
        for key, value in items:
            idx = _check_index(key)
            merged[idx] = merged.get(idx, 0j) + complex(value)
        amp = {idx: v for idx, v in sorted(merged.items()) if abs(v) >= tol and v != 0}
        object.__setattr__(self, "_amp", amp)

    def __setattr__(self, name, value):
        raise AttributeError("FockVector is immutable")

    @classmethod
    def basis(cls, n: int, m: int) -> "FockVector":
        """Unit basis ket |n, m>."""
        return cls({(n, m): 1.0 + 0j})

    @classmethod
    def from_level(cls, level: int, amps: Sequence[complex]) -> "FockVector":
        """The vector whose amplitudes over level_basis(level) are amps."""
        basis = level_basis(level)
        if len(amps) != len(basis):
            raise DomainError(f"level {level} needs {len(basis)} amplitudes, got {len(amps)}")
        return cls(zip(basis, amps))

    def items(self) -> Iterator[tuple[FockIndex, complex]]:
        return iter(self._amp.items())

    def __iter__(self) -> Iterator[FockIndex]:
        return iter(self._amp)

    def __len__(self) -> int:
        return len(self._amp)

    def __bool__(self) -> bool:
        return bool(self._amp)

    def __getitem__(self, key) -> complex:
        return self._amp.get(_check_index(key), 0j)

    def __add__(self, other: "FockVector") -> "FockVector":
        if not isinstance(other, FockVector):
            return NotImplemented
        out = dict(self._amp)
        for idx, value in other._amp.items():
            out[idx] = out.get(idx, 0j) + value
        return FockVector(out)

    def __sub__(self, other: "FockVector") -> "FockVector":
        if not isinstance(other, FockVector):
            return NotImplemented
        out = dict(self._amp)
        for idx, value in other._amp.items():
            out[idx] = out.get(idx, 0j) - value
        return FockVector(out)

    def __mul__(self, scalar) -> "FockVector":
        s = complex(scalar)
        return FockVector({k: s * v for k, v in self._amp.items()})

    __rmul__ = __mul__

    def norm_sq(self) -> float:
        return sum((v.real * v.real + v.imag * v.imag) for v in self._amp.values())

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def max_abs(self) -> float:
        if not self._amp:
            return 0.0
        return max(abs(v) for v in self._amp.values())

    def normalized(self) -> "FockVector":
        nrm = self.norm()
        if nrm == 0.0:
            raise DomainError("cannot normalize the zero vector")
        return (1.0 / nrm) * self

    def to_records(self) -> list[dict]:
        """Lexicographically sorted [{'n':, 'm':, 're':, 'im':}, ...]."""
        return [
            {"n": n, "m": m, "re": v.real, "im": v.imag}
            for (n, m), v in self._amp.items()
        ]

    def __repr__(self) -> str:
        inside = ", ".join(f"{k}: {v:.6g}" for k, v in self._amp.items())
        return f"FockVector({{{inside}}})"


def inner(u: FockVector, v: FockVector) -> complex:
    """<u|v>, conjugate-linear in u and linear in v."""
    if len(u) > len(v):
        return complex(sum(u[k].conjugate() * a for k, a in v.items()))
    return complex(sum(a.conjugate() * v[k] for k, a in u.items()))


def a_minus(v: FockVector) -> FockVector:
    return FockVector((((n - 1, m), math.sqrt(n) * a) for (n, m), a in v.items() if n > 0))


def a_plus(v: FockVector) -> FockVector:
    return FockVector((((n + 1, m), math.sqrt(n + 1) * a) for (n, m), a in v.items()))


def b_minus(v: FockVector) -> FockVector:
    return FockVector((((n, m - 1), math.sqrt(m) * a) for (n, m), a in v.items() if m > 0))


def b_plus(v: FockVector) -> FockVector:
    return FockVector((((n, m + 1), math.sqrt(m + 1) * a) for (n, m), a in v.items()))


def apply_hamiltonian(v: FockVector) -> FockVector:
    """H v with H = 2 a+a- + b+b- + 3/2."""
    return FockVector((((n, m), (2 * n + m + 1.5) * a) for (n, m), a in v.items()))


def apply_position(mode: str, v: FockVector) -> FockVector:
    """Position quadrature: Q_a = (a+ + a-)/2, Q_b = (b+ + b-)/sqrt(2).

    The mode-dependent prefactor is 1/sqrt(2 omega) with omega = 2 for the
    fast mode and omega = 1 for the slow one, so [Q, P] = i in both modes.
    """
    if mode == "a":
        return 0.5 * (a_plus(v) + a_minus(v))
    if mode == "b":
        return (1.0 / math.sqrt(2.0)) * (b_plus(v) + b_minus(v))
    raise DomainError(f"mode must be 'a' or 'b', got {mode!r}")


def apply_momentum(mode: str, v: FockVector) -> FockVector:
    """Momentum quadrature: P_a = i(a+ - a-), P_b = i(b+ - b-)/sqrt(2)."""
    if mode == "a":
        return 1j * (a_plus(v) - a_minus(v))
    if mode == "b":
        return (1j / math.sqrt(2.0)) * (b_plus(v) - b_minus(v))
    raise DomainError(f"mode must be 'a' or 'b', got {mode!r}")
