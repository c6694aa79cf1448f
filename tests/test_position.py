"""Position densities, grid serialization, and Lissajous tube diagnostics."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest

from aladders.errors import DomainError
from aladders.fock import FockVector
from aladders.operators import ModeParams
from aladders.position import (
    DEFAULT_DENSITY_GEOMETRY,
    GRID_MAGIC,
    RECURRENCE_MAX,
    Grid2D,
    amplitude_grid,
    best_tube_phase,
    density_grid,
    eigenfunction_table,
    ho_eigenfunction,
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
    assert ho_eigenfunction(0, 2.0, 0.0) == pytest.approx((2 / math.pi) ** 0.25)
    assert ho_eigenfunction(0, 1.0, 0.0) == pytest.approx((1 / math.pi) ** 0.25)


def test_odd_states_vanish_at_origin():
    for n in (1, 3, 7, 99):
        assert abs(ho_eigenfunction(n, 1.0, 0.0)) < 1e-300


def test_eigenfunction_recurrence_cap():
    xs = np.linspace(-1, 1, 5)
    eigenfunction_table(RECURRENCE_MAX, 1.0, xs)
    with pytest.raises(DomainError):
        eigenfunction_table(RECURRENCE_MAX + 1, 1.0, xs)
    with pytest.raises(DomainError):
        ho_eigenfunction(-1, 1.0, 0.0)


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
    for ix in (0, 3, 6):
        for iy in (0, 4, 8):
            want = (0.6 * ho_eigenfunction(0, 2.0, xs[ix])
                    * ho_eigenfunction(0, 1.0, ys[iy])
                    + 0.8j * ho_eigenfunction(1, 2.0, xs[ix])
                    * ho_eigenfunction(2, 1.0, ys[iy]))
            assert grid.values[ix, iy] == pytest.approx(want, abs=1e-12)


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
    pts = lissajous_curve(2.0, 3.0, 0.25, samples=512)
    assert pts.shape == (512, 2)
    assert np.max(np.abs(pts[:, 0])) <= 2.0 + 1e-12
    assert np.max(np.abs(pts[:, 1])) <= 3.0 + 1e-12
    with pytest.raises(DomainError):
        lissajous_curve(1.0, 1.0, 0.0, samples=4)


def test_tube_fraction_bounds(rng):
    grid = density_grid(FockVector.basis(0, 0), Grid2D(-4, 4, -4, 4, 80, 80))
    frac = tube_mass_fraction(grid, 1.0, 1.0, 0.0, radius=1.0)
    assert 0.0 < frac <= 1.0
    wide = tube_mass_fraction(grid, 1.0, 1.0, 0.0, radius=10.0)
    assert wide == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError):
        tube_mass_fraction(grid, 1.0, 1.0, 0.0, radius=0.0)


def test_high_level_mass_concentrates_on_curve():
    # moderately deep principal state: most mass already hugs the curve
    p = ModeParams(alpha=1.0, beta=1.0)
    v = principal_state(40, p).to_fock()
    grid = density_grid(v, Grid2D(-8, 8, -12, 12, 220, 220))
    A, B = lissajous_amplitudes(v)
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
