"""Position-space densities of two-mode states on rectangular grids.

The fast mode (frequency 2) lives on the x axis and the slow mode
(frequency 1) on the y axis, so <x, y | n, m> = psi_n^(2)(x) psi_m^(1)(y)
with psi the unit-mass harmonic-oscillator eigenfunctions.  Eigenfunctions
are generated by the stable upward recurrence on the normalized functions

    psi_{n+1}(x) = sqrt(2 w/(n+1)) x psi_n(x) - sqrt(n/(n+1)) psi_{n-1}(x),

which avoids the overflow of raw Hermite polynomials; quantum numbers are
capped at RECURRENCE_MAX.

High principal-chain levels concentrate on the classical 2:1 Lissajous
curve x(t) = A cos(2t + phi), y(t) = B cos t with amplitudes fixed by the
mode occupations (A = sqrt(<n_a> + 1/2), B = sqrt(2 <n_b> + 1)); the tube
helpers here quantify how much probability mass falls within a given
distance of that curve.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace
from typing import BinaryIO, Callable, TextIO

import numpy as np

from .errors import DomainError
from .fock import FockVector
from .principal import mode_occupation

RECURRENCE_MAX = 500

GRID_MAGIC = b"ALGRID01"

# Points on one sampled Lissajous curve, and the phases that best_tube_phase
# scans coarsely over the whole period and then finely around the best one.
CURVE_SAMPLES = 2048
COARSE_PHASES = 36
REFINE_PHASES = 12


@dataclass
class Grid2D:
    """Rectangular grid with optional cell values indexed [ix, iy]."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int
    values: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise DomainError("grids need at least 2 points per axis")
        # a NaN or infinite bound makes its span non-finite too
        if not (math.isfinite(self.x_max - self.x_min)
                and math.isfinite(self.y_max - self.y_min)):
            raise DomainError("grid bounds and their spans must be finite")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise DomainError("grid bounds must be ordered")
        if self.values is not None:
            self.values = np.asarray(self.values)
            if self.values.shape != (self.nx, self.ny):
                raise DomainError(
                    f"values shape {self.values.shape} != ({self.nx}, {self.ny})"
                )

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def ys(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.ny)

    def geometry(self) -> "Grid2D":
        return replace(self, values=None)

    def integral(self) -> float:
        """Trapezoid integral of the values over the rectangle."""
        if self.values is None:
            raise DomainError("grid has no values")
        inner = np.trapezoid(self.values, self.ys(), axis=1)
        return float(np.trapezoid(inner, self.xs()))


# Default window: covers the classical turning points of the level-100
# principal states at alpha = 3, |beta| = 1/sqrt(2) with margin to spare.
DEFAULT_DENSITY_GEOMETRY = Grid2D(-8.0, 8.0, -16.0, 16.0, 600, 600)


def eigenfunction_table(n_max: int, omega: float, xs: np.ndarray) -> np.ndarray:
    """Normalized harmonic-oscillator eigenfunctions psi_n(xs) at frequency
    omega for all n <= n_max, shape (n_max + 1, len(xs))."""
    if n_max < 0 or n_max > RECURRENCE_MAX:
        raise DomainError(f"need 0 <= n_max <= {RECURRENCE_MAX}, got {n_max}")
    if omega <= 0:
        raise DomainError(f"frequency must be > 0, got {omega}")
    xs = np.asarray(xs, dtype=float)
    table = np.zeros((n_max + 1, xs.size))
    # beyond |x| ~ 1e154 the square overflows to inf, whose exp is the exact
    # underflowed 0
    with np.errstate(over="ignore"):
        table[0] = (omega / math.pi) ** 0.25 * np.exp(-0.5 * omega * xs**2)
    # every psi_n is 0 where psi_0 is; x = 0 there keeps the recurrence's
    # products with x finite up to the largest double
    xs = np.where(table[0] > 0.0, xs, 0.0)
    if n_max >= 1:
        table[1] = math.sqrt(2.0 * omega) * xs * table[0]
    for n in range(1, n_max):
        table[n + 1] = (
            math.sqrt(2.0 * omega / (n + 1)) * xs * table[n]
            - math.sqrt(n / (n + 1)) * table[n - 1]
        )
    return table


def amplitude_grid(v: FockVector, geom: Grid2D = DEFAULT_DENSITY_GEOMETRY) -> Grid2D:
    """<x, y | v> sampled on the grid (complex values)."""
    if not v:
        raise DomainError("cannot sample the zero vector")
    kets, amps = zip(*v.items())
    ns, ms = np.array(kets).T
    fast = eigenfunction_table(int(ns.max()), 2.0, geom.xs())
    slow = eigenfunction_table(int(ms.max()), 1.0, geom.ys())
    # sum over kets of amp * psi_n(x) psi_m(y): one row of each table per ket
    return replace(geom, values=fast[ns].T @ (np.array(amps)[:, None] * slow[ms]))


def density_grid(v: FockVector, geom: Grid2D = DEFAULT_DENSITY_GEOMETRY) -> Grid2D:
    """|<x, y | v>|^2 on the grid; grid.integral() gives the covered mass."""
    amp = amplitude_grid(v, geom)
    return replace(geom, values=amp.values.real**2 + amp.values.imag**2)


def write_grid_csv(grid: Grid2D, fh: TextIO) -> None:
    """x,y,density rows, x-major, full float precision."""
    if grid.values is None:
        raise DomainError("grid has no values")
    xs = [repr(float(x)) for x in grid.xs()]
    ys = [repr(float(y)) for y in grid.ys()]
    fh.write("x,y,density\n")
    # one write per x row, each value formatted once with the repr text
    for x, row in zip(xs, grid.values):
        fh.write("".join([f"{x},{y},{v!r}\n" for y, v in zip(ys, map(float, row.tolist()))]))


def write_grid_binary(grid: Grid2D, fh: BinaryIO) -> None:
    """32-byte header (magic, nx, ny, bounds as float32) then row-major
    float64 values, little-endian throughout."""
    if grid.values is None:
        raise DomainError("grid has no values")
    bounds = (grid.x_min, grid.x_max, grid.y_min, grid.y_max)
    try:
        header = struct.pack("<8sII4f", GRID_MAGIC, grid.nx, grid.ny, *bounds)
    except OverflowError:
        raise DomainError(
            "the binary format holds grid bounds as float32; "
            f"{bounds} is beyond its range"
        ) from None
    fh.write(header)
    fh.write(np.ascontiguousarray(grid.values, dtype="<f8").tobytes())


def read_grid_binary(fh: BinaryIO) -> Grid2D:
    header = fh.read(32)
    if len(header) != 32:
        raise DomainError("truncated grid header")
    magic, nx, ny, x_min, x_max, y_min, y_max = struct.unpack("<8sII4f", header)
    if magic != GRID_MAGIC:
        raise DomainError(f"bad grid magic {magic!r}")
    data = np.frombuffer(fh.read(8 * nx * ny), dtype="<f8")
    if data.size != nx * ny:
        raise DomainError("truncated grid payload")
    return Grid2D(
        float(x_min), float(x_max), float(y_min), float(y_max),
        nx, ny, data.reshape(nx, ny).copy(),
    )


def lissajous_amplitudes(v: FockVector) -> tuple[float, float]:
    """Classical (A, B) for the tube: A = sqrt(<n_a> + 1/2) on x,
    B = sqrt(2 <n_b> + 1) on y, equating quantum and classical energies."""
    occ_a = mode_occupation(v, "a")
    occ_b = mode_occupation(v, "b")
    return math.sqrt(occ_a + 0.5), math.sqrt(2.0 * occ_b + 1.0)


def lissajous_curve(amp_x: float, amp_y: float, phase: float) -> np.ndarray:
    """Sampled 2:1 curve (x, y) = (A cos(2t + phase), B cos t), shape
    (CURVE_SAMPLES, 2)."""
    t = np.linspace(0.0, 2.0 * math.pi, CURVE_SAMPLES, endpoint=False)
    return np.column_stack((amp_x * np.cos(2.0 * t + phase), amp_y * np.cos(t)))


def _tube_fractions(
    grid: Grid2D, amp_x: float, amp_y: float, radius: float
) -> Callable[[float], float]:
    """phase -> fraction of the grid's mass within `radius` of the Lissajous
    curve at that phase.  The grid and radius are checked, and the grid's
    nodes and mass computed, once for every phase.

    A node at exactly `radius` from a curve sample is inside.  The query
    stops at one ulp above the radius, because cKDTree's bound is strict: at
    the radius itself such a node would come back as inf.
    """
    if grid.values is None:
        raise DomainError("grid has no values")
    if not radius > 0:
        raise DomainError(f"tube radius must be > 0, got {radius}")
    total = grid.integral()
    if total == 0.0:
        raise DomainError("grid carries no mass")
    # imported here, not at module level: scipy.spatial loads scipy.linalg,
    # and no other CLI subcommand needs either
    from scipy.spatial import cKDTree

    xg, yg = np.meshgrid(grid.xs(), grid.ys(), indexing="ij")
    points = np.column_stack((xg.ravel(), yg.ravel()))
    bound = np.nextafter(radius, np.inf)

    def fraction(phase: float) -> float:
        tree = cKDTree(lissajous_curve(amp_x, amp_y, phase))
        dist, _ = tree.query(points, k=1, distance_upper_bound=bound)
        inside = (dist <= radius).reshape(grid.nx, grid.ny)
        return replace(grid, values=grid.values * inside).integral() / total

    return fraction


def tube_mass_fraction(
    grid: Grid2D, amp_x: float, amp_y: float, phase: float, radius: float = 1.0
) -> float:
    """Fraction of the grid's mass within `radius` of the Lissajous curve;
    a node at exactly `radius` counts as inside."""
    return _tube_fractions(grid, amp_x, amp_y, radius)(phase)


def best_tube_phase(
    grid: Grid2D, amp_x: float, amp_y: float, radius: float = 1.0
) -> tuple[float, float]:
    """Fit the curve's relative phase by maximizing tube mass.

    A scan of COARSE_PHASES phases on a subsampled copy of the grid picks
    the neighbourhood, and REFINE_PHASES phases at full resolution refine
    it.  Returns (fraction, phase).  Both grids are checked before any
    curve is queried.
    """
    if grid.values is None:
        raise DomainError("grid has no values")
    stride = max(1, min(grid.nx, grid.ny) // 150)
    rough = Grid2D(
        grid.x_min, float(grid.xs()[::stride][-1]),
        grid.y_min, float(grid.ys()[::stride][-1]),
        len(grid.xs()[::stride]), len(grid.ys()[::stride]),
        grid.values[::stride, ::stride],
    )
    rough_fraction = _tube_fractions(rough, amp_x, amp_y, radius)
    fraction = _tube_fractions(grid, amp_x, amp_y, radius)
    phases = np.linspace(0.0, 2.0 * math.pi, COARSE_PHASES, endpoint=False)
    scores = [rough_fraction(ph) for ph in phases]
    centre = phases[int(np.argmax(scores))]
    span = 2.0 * math.pi / COARSE_PHASES
    best = (-1.0, 0.0)
    for ph in np.linspace(centre - span, centre + span, REFINE_PHASES):
        frac = fraction(float(ph))
        if frac > best[0]:
            best = (frac, float(ph))
    return best


def l1_distance(g1: Grid2D, g2: Grid2D) -> float:
    """Total-variation style distance in [0, 1]: half the integral of the
    absolute difference after normalizing each grid to unit mass."""
    if g1.values is None or g2.values is None:
        raise DomainError("grids have no values")
    if g1.geometry() != g2.geometry():
        raise DomainError("grids must share geometry")
    m1, m2 = g1.integral(), g2.integral()
    if m1 <= 0 or m2 <= 0:
        raise DomainError("grids must carry positive mass")
    diff = np.abs(g1.values / m1 - g2.values / m2)
    return 0.5 * replace(g1, values=diff).integral()
