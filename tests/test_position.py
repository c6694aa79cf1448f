"""Position densities, grid serialization, and Lissajous tube diagnostics."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest

from aladders import position
from aladders.errors import DomainError
from aladders.fock import FockVector
from aladders.operators import ModeParams
from aladders.position import (
    CURVE_SAMPLES,
    DEFAULT_DENSITY_GEOMETRY,
    GRID_MAGIC,
    RECURRENCE_MAX,
    Grid2D,
    amplitude_grid,
    best_tube_phase,
    density_grid,
    eigenfunction_table,
    l1_distance,
    lissajous_amplitudes,
    lissajous_curve,
    read_grid_binary,
    tube_mass_fraction,
    write_grid_binary,
    write_grid_csv,
)
from aladders.principal import principal_state


def turning_point_window(n_max: int, omega: float, points: int = 4001):
    half = math.sqrt(2 * n_max / omega) + 12 / math.sqrt(omega)
    return np.linspace(-half, half, points)


# ----------------------------------------------------------- wavefunctions

def test_ground_state_values():
    # psi_0 at the origin: (omega/pi)^(1/4); fast mode omega = 2
    assert eigenfunction_table(0, 2.0, [0.0])[0, 0] == pytest.approx((2 / math.pi) ** 0.25)
    assert eigenfunction_table(0, 1.0, [0.0])[0, 0] == pytest.approx((1 / math.pi) ** 0.25)


def test_odd_states_vanish_at_origin():
    table = eigenfunction_table(99, 1.0, [0.0])
    for n in (1, 3, 7, 99):
        assert abs(table[n, 0]) < 1e-300


def test_eigenfunctions_at_huge_finite_x():
    # psi_0 underflows to 0 there, and so does every psi_n, with no overflow
    # in x^2 or in x times a table row (an error under pytest's filters)
    xs = np.array([-1.7e308, -1e200, -2.0, 0.5, 1e160, 1.7e308])
    for omega in (1.0, 2.0):
        table = eigenfunction_table(40, omega, xs)
        assert np.all(table[:, [0, 1, 4, 5]] == 0.0)
        assert np.array_equal(table[:, 2:4], eigenfunction_table(40, omega, xs[2:4]))


def test_eigenfunction_recurrence_cap():
    xs = np.linspace(-1, 1, 5)
    eigenfunction_table(RECURRENCE_MAX, 1.0, xs)
    with pytest.raises(DomainError):
        eigenfunction_table(RECURRENCE_MAX + 1, 1.0, xs)
    with pytest.raises(DomainError):
        eigenfunction_table(-1, 1.0, xs)
    with pytest.raises(DomainError):
        eigenfunction_table(3, 0.0, xs)
    # amplitude_grid meets the cap where it builds each axis's table
    for n, m in ((0, RECURRENCE_MAX + 1), (RECURRENCE_MAX + 1, 0)):
        with pytest.raises(DomainError):
            amplitude_grid(FockVector.basis(n, m), Grid2D(-1, 1, -1, 1, 3, 3))


@pytest.mark.parametrize("omega", [1.0, 2.0])
def test_eigenfunctions_orthonormal(omega):
    n_max = 120
    xs = turning_point_window(n_max, omega, 6001)
    table = eigenfunction_table(n_max, omega, xs)
    # trapezoid overlap matrix against the identity
    w = np.full(xs.size, xs[1] - xs[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    overlaps = (table * w) @ table.T
    assert np.max(np.abs(overlaps - np.eye(n_max + 1))) < 1e-8


def test_mass_inside_turning_point_window():
    # the window formula sqrt(2q/omega) + 6/sqrt(omega) holds >= 99.9% of
    # the mass of every state up to q
    for omega, q in ((1.0, 60), (2.0, 60)):
        half = math.sqrt(2 * q / omega) + 6 / math.sqrt(omega)
        xs = np.linspace(-half, half, 4001)
        table = eigenfunction_table(q, omega, xs)
        mass = np.trapezoid(table**2, xs, axis=1)
        assert np.all(np.abs(mass - 1.0) < 1e-3)


# ------------------------------------------------------------------ grids

def test_grid_validation():
    with pytest.raises(DomainError):
        Grid2D(0, 1, 0, 1, 1, 10)
    with pytest.raises(DomainError):
        Grid2D(1, 0, 0, 1, 10, 10)
    with pytest.raises(DomainError):
        Grid2D(0, 1, 0, 1, 4, 4, values=np.zeros((3, 3)))
    # an infinite bound is ordered, and a span beyond a double gives NaN points
    for bounds in ((0, 1, 0, math.inf), (-math.inf, 1, 0, 1), (0, 1, math.nan, 1),
                   (-1e308, 1e308, 0, 1), (0, 1, -1e308, 1e308)):
        with pytest.raises(DomainError, match="must be finite"):
            Grid2D(*bounds, 4, 4)


def test_vacuum_density_peak_and_mass():
    want = math.sqrt(2 / math.pi) * math.sqrt(1 / math.pi)
    # odd point count puts a node exactly at the origin
    exact = density_grid(FockVector.basis(0, 0), Grid2D(-8, 8, -8, 8, 401, 401))
    assert exact.values[200, 200] == pytest.approx(want, rel=1e-12)
    grid = density_grid(FockVector.basis(0, 0), Grid2D(-8, 8, -8, 8, 400, 400))
    assert grid.values.max() == pytest.approx(want, rel=2e-3)
    assert grid.integral() == pytest.approx(1.0, abs=1e-6)


def test_density_mass_is_one_for_levels(rng):
    p = ModeParams(alpha=1.0 + 0.3j, beta=1.2 - 0.1j)
    v = principal_state(9, p).to_fock()
    grid = density_grid(v, Grid2D(-8, 8, -10, 10, 300, 300))
    assert grid.integral() == pytest.approx(1.0, abs=1e-3)
    assert np.all(grid.values >= 0)


def test_amplitude_grid_matches_direct_evaluation():
    v = FockVector({(0, 0): 0.6, (1, 2): 0.8j})
    geom = Grid2D(-3, 3, -3, 3, 7, 9)
    grid = amplitude_grid(v, geom)
    xs, ys = geom.xs(), geom.ys()

    def psi(n, omega, x):
        return eigenfunction_table(n, omega, [x])[n, 0]

    for ix in (0, 3, 6):
        for iy in (0, 4, 8):
            want = (0.6 * psi(0, 2.0, xs[ix]) * psi(0, 1.0, ys[iy])
                    + 0.8j * psi(1, 2.0, xs[ix]) * psi(2, 1.0, ys[iy]))
            assert grid.values[ix, iy] == pytest.approx(want, abs=1e-12)


def test_amplitude_grid_matches_dense_weight_product(rng):
    # the (n_max+1) x (m_max+1) weight-matrix product the row gather replaced;
    # a multi-level vector with gaps, so the sums run in a different order
    v = FockVector({(int(rng.integers(0, 12)), int(rng.integers(0, 25))):
                    complex(*rng.normal(size=2)) for _ in range(30)})
    geom = Grid2D(-5, 5, -7, 7, 40, 50)
    n_max, m_max = max(n for n, _ in v), max(m for _, m in v)
    weights = np.zeros((n_max + 1, m_max + 1), dtype=complex)
    for (n, m), amp in v.items():
        weights[n, m] = amp
    want = (eigenfunction_table(n_max, 2.0, geom.xs()).T
            @ weights @ eigenfunction_table(m_max, 1.0, geom.ys()))
    got = amplitude_grid(v, geom).values
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


# ---------------------------------------------------------- serialization

def make_grid(rng) -> Grid2D:
    vals = rng.random((5, 4))
    return Grid2D(-1.0, 1.0, -2.0, 2.0, 5, 4, values=vals)


def test_csv_layout(rng):
    grid = make_grid(rng)
    buf = io.StringIO()
    write_grid_csv(grid, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "x,y,density"
    assert len(lines) == 1 + 5 * 4
    first = lines[1].split(",")
    assert float(first[0]) == -1.0 and float(first[1]) == -2.0
    # x-major: the second row advances y
    second = lines[2].split(",")
    assert float(second[0]) == -1.0
    assert float(second[1]) > -2.0
    assert float(first[2]) == grid.values[0, 0]


def old_csv_writer(grid: Grid2D, fh) -> None:
    """The per-row f-string writer that write_grid_csv replaced."""
    xs = [float(x) for x in grid.xs()]
    ys = [float(y) for y in grid.ys()]
    fh.write("x,y,density\n")
    for ix in range(grid.nx):
        x = xs[ix]
        row = grid.values[ix]
        for iy in range(grid.ny):
            fh.write(f"{x!r},{ys[iy]!r},{float(row[iy])!r}\n")


def test_csv_bytes_match_per_row_writer(rng):
    # subnormals, signed zero, huge values and values that need all 17
    # significant digits to round-trip, on axes with 17-digit nodes
    awkward = [5e-324, -0.0, 0.0, 1e300, -1e300, 0.1 + 0.2, 1 / 3, 2.0**-1022,
               math.pi * 1e-310, 1.0000000000000002, 123456789.12345679, -7e-17]
    vals = rng.random((7, 5)) * 1e-3
    vals.flat[:len(awkward)] = awkward
    grid = Grid2D(-0.1, 1 / 3, -math.e, 0.7, 7, 5, values=vals)
    new, old = io.StringIO(), io.StringIO()
    write_grid_csv(grid, new)
    old_csv_writer(grid, old)
    assert new.getvalue().encode() == old.getvalue().encode()
    assert "5e-324" in new.getvalue() and "-0.0" in new.getvalue()


def test_binary_roundtrip(rng):
    grid = make_grid(rng)
    buf = io.BytesIO()
    write_grid_binary(grid, buf)
    raw = buf.getvalue()
    assert raw[:8] == GRID_MAGIC
    buf.seek(0)
    back = read_grid_binary(buf)
    assert (back.nx, back.ny) == (5, 4)
    assert back.x_min == pytest.approx(grid.x_min)
    assert back.y_max == pytest.approx(grid.y_max)
    assert np.array_equal(back.values, grid.values)


def test_binary_rejects_corruption(rng):
    grid = make_grid(rng)
    buf = io.BytesIO()
    write_grid_binary(grid, buf)
    raw = buf.getvalue()
    with pytest.raises(DomainError):
        read_grid_binary(io.BytesIO(b"NOTAGRID" + raw[8:]))
    with pytest.raises(DomainError):
        read_grid_binary(io.BytesIO(raw[:-16]))  # truncated payload


def test_binary_refuses_bounds_beyond_float32():
    # the header holds the bounds as float32; 3.4028235e38 rounds to its
    # largest finite value, 1e39 is past it
    values = np.zeros((2, 2))
    write_grid_binary(Grid2D(0, 1, 0, 3.4028235e38, 2, 2, values), io.BytesIO())
    for bounds in ((0, 1, 0, 1e39), (-1e39, 1, 0, 1)):
        buf = io.BytesIO()
        with pytest.raises(DomainError, match="float32"):
            write_grid_binary(Grid2D(*bounds, 2, 2, values), buf)
        assert buf.getvalue() == b""


def test_write_requires_values():
    bare = Grid2D(0, 1, 0, 1, 4, 4)
    with pytest.raises(DomainError):
        write_grid_csv(bare, io.StringIO())
    with pytest.raises(DomainError):
        write_grid_binary(bare, io.BytesIO())


# ------------------------------------------------------------- Lissajous

def test_lissajous_amplitudes_vacuum():
    A, B = lissajous_amplitudes(FockVector.basis(0, 0))
    assert A == pytest.approx(math.sqrt(0.5))
    assert B == pytest.approx(1.0)


def test_lissajous_curve_shape():
    pts = lissajous_curve(2.0, 3.0, 0.25)
    assert pts.shape == (CURVE_SAMPLES, 2)
    assert np.max(np.abs(pts[:, 0])) <= 2.0 + 1e-12
    assert np.max(np.abs(pts[:, 1])) <= 3.0 + 1e-12


def test_tube_fraction_bounds(rng):
    grid = density_grid(FockVector.basis(0, 0), Grid2D(-4, 4, -4, 4, 80, 80))
    frac = tube_mass_fraction(grid, 1.0, 1.0, 0.0, radius=1.0)
    assert 0.0 < frac <= 1.0
    wide = tube_mass_fraction(grid, 1.0, 1.0, 0.0, radius=10.0)
    assert wide == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError):
        tube_mass_fraction(grid, 1.0, 1.0, 0.0, radius=0.0)


def test_tube_counts_a_node_at_exactly_the_radius():
    # the node (1, 2) lies at distance exactly 1 from the curve sample (1, 1)
    # at t = 0 of x = cos 2t, y = cos t, and nowhere nearer
    vals = np.zeros((5, 5))
    vals[3, 4] = 1.0
    grid = Grid2D(-2.0, 2.0, -2.0, 2.0, 5, 5, values=vals)
    assert (grid.xs()[3], grid.ys()[4]) == (1.0, 2.0)
    assert tube_mass_fraction(grid, 1.0, 1.0, 0.0, radius=1.0) == 1.0
    assert tube_mass_fraction(grid, 1.0, 1.0, 0.0, radius=math.nextafter(1.0, 0.0)) == 0.0


@pytest.fixture(scope="module")
def level40():
    """A moderately deep principal state's density and its curve amplitudes."""
    v = principal_state(40, ModeParams(alpha=1.0, beta=1.0)).to_fock()
    grid = density_grid(v, Grid2D(-8, 8, -12, 12, 220, 220))
    return grid, *lissajous_amplitudes(v)


def unbounded_distances(grid: Grid2D, amp_x, amp_y, phase) -> np.ndarray:
    """Distance of every node to the sampled curve, by an unbounded query."""
    from scipy.spatial import cKDTree

    xg, yg = np.meshgrid(grid.xs(), grid.ys(), indexing="ij")
    pts = np.column_stack((xg.ravel(), yg.ravel()))
    dist, _ = cKDTree(lissajous_curve(amp_x, amp_y, phase)).query(pts, k=1)
    return dist.reshape(grid.nx, grid.ny)


def reference_fraction(grid: Grid2D, dist: np.ndarray, radius: float) -> float:
    inside = Grid2D(grid.x_min, grid.x_max, grid.y_min, grid.y_max,
                    grid.nx, grid.ny, grid.values * (dist <= radius))
    return inside.integral() / grid.integral()


def test_tube_fraction_matches_unbounded_query(level40):
    grid, A, B = level40
    for phase in (0.0, 0.63, 2.0, 4.5):
        dist = unbounded_distances(grid, A, B, phase)
        for radius in (0.25, 1.0, 2.5):
            want = reference_fraction(grid, dist, radius)
            assert tube_mass_fraction(grid, A, B, phase, radius) == want


def test_best_tube_phase_matches_brute_force_scan(level40, monkeypatch):
    grid, A, B = level40
    coarse, refine = 9, 4
    monkeypatch.setattr(position, "COARSE_PHASES", coarse)
    monkeypatch.setattr(position, "REFINE_PHASES", refine)
    assert min(grid.nx, grid.ny) // 150 == 1  # so the coarse scan sees the full grid

    def score(phase):
        return reference_fraction(grid, unbounded_distances(grid, A, B, phase), 1.0)

    phases = np.linspace(0.0, 2.0 * math.pi, coarse, endpoint=False)
    centre = phases[int(np.argmax([score(ph) for ph in phases]))]
    span = 2.0 * math.pi / coarse
    scan = [(score(float(ph)), float(ph))
            for ph in np.linspace(centre - span, centre + span, refine)]
    want = max(scan, key=lambda pair: pair[0])  # the first of equal fractions
    assert best_tube_phase(grid, A, B, radius=1.0) == want


def test_best_tube_phase_refuses_bad_input_before_any_query(monkeypatch):
    import scipy.spatial

    def no_query(*_args, **_kwargs):
        raise AssertionError("a curve was queried")

    monkeypatch.setattr(scipy.spatial, "cKDTree", no_query)
    live = density_grid(FockVector.basis(0, 0), Grid2D(-4, 4, -4, 4, 40, 40))
    for radius in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError, match="radius"):
            best_tube_phase(live, 1.0, 1.0, radius=radius)
        with pytest.raises(DomainError, match="radius"):
            tube_mass_fraction(live, 1.0, 1.0, 0.0, radius=radius)
    dead = Grid2D(-4, 4, -4, 4, 40, 40, values=np.zeros((40, 40)))
    with pytest.raises(DomainError, match="no mass"):
        best_tube_phase(dead, 1.0, 1.0)
    # alternating signs along x: no mass on the full grid, but the stride-2
    # coarse copy keeps only the positive rows
    signs = np.where(np.arange(300) % 2 == 0, 1.0, -1.0)
    striped = Grid2D(-4, 4, -4, 4, 300, 300, values=np.repeat(signs[:, None], 300, axis=1))
    assert striped.integral() == 0.0
    with pytest.raises(DomainError, match="no mass"):
        best_tube_phase(striped, 1.0, 1.0)


def test_high_level_mass_concentrates_on_curve(level40):
    # moderately deep principal state: most mass already hugs the curve
    grid, A, B = level40
    frac, phase = best_tube_phase(grid, A, B, radius=1.0)
    assert frac > 0.8
    assert 0.0 <= phase < math.pi


def test_l1_distance_properties(rng):
    g1 = density_grid(FockVector.basis(0, 0), Grid2D(-5, 5, -5, 5, 60, 60))
    assert l1_distance(g1, g1) == pytest.approx(0.0, abs=1e-14)
    g2 = density_grid(FockVector.basis(2, 1), Grid2D(-5, 5, -5, 5, 60, 60))
    d = l1_distance(g1, g2)
    assert 0.0 < d <= 1.0
    other_geom = density_grid(FockVector.basis(0, 0), Grid2D(-5, 5, -5, 5, 50, 60))
    with pytest.raises(DomainError):
        l1_distance(g1, other_geom)
