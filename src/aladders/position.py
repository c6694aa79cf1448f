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

# read_grid_binary reads its payload in pieces of at most this many bytes,
# so any grid the CLI writes (cli.DENSITY_CELLS_BOUND, 4 000 000 cells) comes
# in one read
_READ_CHUNK = 1 << 25

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
    if not 0 < omega < math.inf:  # NaN included
        raise DomainError(f"frequency must be finite and > 0, got {omega}")
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
    # the header's nx * ny is not trusted: no read asks for more than
    # _READ_CHUNK bytes, so a corrupt header costs only the bytes that are there
    need, payload = 8 * nx * ny, bytearray()
    while len(payload) < need:
        chunk = fh.read(min(need - len(payload), _READ_CHUNK))
        if not chunk:
            raise DomainError(f"truncated grid payload: {need - len(payload)} bytes missing")
        payload += chunk
    # a bytearray is writable, so the values need no copy of their own
    return Grid2D(
        float(x_min), float(x_max), float(y_min), float(y_max),
        nx, ny, np.frombuffer(payload, dtype="<f8").reshape(nx, ny),
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


# Curve-sample/column pairs whose row runs _tube_mask finds together: the
# temporaries take about 150 bytes per pair, so one phase never holds more
# than about 10 MB of them, however wide the tube or fine the grid.
_MASK_PAIRS = 1 << 16


def _runs(
    axis: np.ndarray, centre: np.ndarray, offset: np.ndarray | float, radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """For each entry k, the run first[k] <= j < stop[k] of nodes of the
    ascending `axis` within reach of centre[k]: those whose offset
    (dx, dy) = (offset[k], axis[j] - centre[k]) has
    np.sqrt(dx*dx + dy*dy) <= radius.  That is the sum and square root of
    a k-d tree's Euclidean distance, so a node at exactly `radius` is in.

    The distance only grows away from the centre, rounding included, so
    the nodes within reach are contiguous.  An entry whose first and last
    nodes are both within reach has the whole axis as its run.  For the
    rest, `first` counts the nodes below the centre and out of reach,
    `stop` those below it or within reach; each count comes from a
    bisection of len(axis).bit_length() steps with that exact predicate.
    """
    n = axis.size
    dx2 = np.broadcast_to(np.multiply(offset, offset), centre.shape)

    def near(dy: np.ndarray, dx2: np.ndarray) -> np.ndarray:
        return np.sqrt(dx2 + dy * dy) <= radius

    first = np.zeros(centre.size, dtype=np.intp)
    stop = np.full(centre.size, n, dtype=np.intp)
    part = np.flatnonzero(~(near(axis[0] - centre, dx2) & near(axis[-1] - centre, dx2)))
    centre, dx2 = centre[part], dx2[part]
    lo = np.zeros(part.size, dtype=np.intp)
    hi = np.zeros(part.size, dtype=np.intp)
    step = 1 << (n.bit_length() - 1)
    while step:
        for count, out_of_reach in ((lo, True), (hi, False)):
            # does the count reach count + step?  the node count + step - 1
            # decides, since both predicates hold on a prefix of the axis
            ahead = count + step
            dy = axis[np.minimum(ahead, n) - 1] - centre
            below = dy < 0.0
            holds = below & ~near(dy, dx2) if out_of_reach else below | near(dy, dx2)
            count += step * ((ahead <= n) & holds)
        step >>= 1
    first[part], stop[part] = lo, hi
    return first, stop


def _tube_mask(
    xs: np.ndarray, ys: np.ndarray, curve: np.ndarray, radius: float
) -> np.ndarray:
    """Nodes of the grid xs x ys within `radius` of some curve sample, shape
    (len(xs), len(ys)).

    The nodes within reach of one sample lie in a run of columns, and in
    each of those columns in a run of rows; _runs finds both with the exact
    predicate, so a node is marked exactly when some sample is within
    reach.  Each row run is marked +1 at its first node and -1 past
    its last in a difference array, and one cumulative sum along y counts
    the runs that cover each node.  The samples are taken in passes of
    about _MASK_PAIRS (sample, column) pairs.
    """
    nx, ny = xs.size, ys.size
    cx, cy = curve[:, 0], curve[:, 1]
    marks = np.zeros(nx * (ny + 1), dtype=np.intp)
    # offsets past about 1e154 square to inf, which is out of reach
    with np.errstate(over="ignore"):
        first, stop = _runs(xs, cx, 0.0, radius)
        cols = stop - first
        # a pass ends where the running pair count passes a multiple of
        # _MASK_PAIRS
        passes = (cols.cumsum() - cols) // _MASK_PAIRS
        for sample in np.split(np.arange(cx.size), np.flatnonzero(np.diff(passes)) + 1):
            counts = cols[sample]
            ends = counts.cumsum()
            # columns first[s], ..., stop[s] - 1 of each sample s in the pass
            col = np.arange(ends[-1]) + (first[sample] + counts - ends).repeat(counts)
            sample = sample.repeat(counts)
            lo, hi = _runs(ys, cy[sample], xs[col] - cx[sample], radius)
            marks += np.bincount(col * (ny + 1) + lo, minlength=marks.size)
            marks -= np.bincount(col * (ny + 1) + hi, minlength=marks.size)
    return marks.reshape(nx, ny + 1).cumsum(axis=1)[:, :ny] > 0


def _tube_fractions(
    grid: Grid2D, amp_x: float, amp_y: float, radius: float
) -> Callable[[float], float]:
    """phase -> fraction of the grid's mass within `radius` of the Lissajous
    curve at that phase.  The grid, amplitudes and radius are checked, and
    the grid's mass computed, once for every phase; each phase is checked
    before its curve is built.

    A node is inside when its distance to the nearest curve sample, formed
    as _runs forms it, is at most `radius`.
    """
    if grid.values is None:
        raise DomainError("grid has no values")
    if not radius > 0:
        raise DomainError(f"tube radius must be > 0, got {radius}")
    if not (math.isfinite(amp_x) and math.isfinite(amp_y)):
        raise DomainError(f"curve amplitudes must be finite, got {amp_x}, {amp_y}")
    total = grid.integral()
    if not 0.0 < total < math.inf:  # a NaN or infinite cell makes it non-finite
        raise DomainError(f"grid carries no mass that is finite and > 0, got {total}")
    xs, ys = grid.xs(), grid.ys()

    def fraction(phase: float) -> float:
        if not math.isfinite(phase):
            raise DomainError(f"curve phase must be finite, got {phase}")
        inside = _tube_mask(xs, ys, lissajous_curve(amp_x, amp_y, phase), radius)
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
    if not (0.0 < m1 < math.inf and 0.0 < m2 < math.inf):  # NaN included
        raise DomainError(f"grids must carry a mass that is finite and > 0, got {m1}, {m2}")
    diff = np.abs(g1.values / m1 - g2.values / m2)
    return 0.5 * replace(g1, values=diff).integral()
