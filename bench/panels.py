"""`panels`: Lissajous density figures.

Every round holds the two level-100 panels of acceptance criterion 9 on
DEFAULT_DENSITY_GEOMETRY (|alpha| = 3, |beta| = 1/sqrt(2), relative
phase pi/2 and 0), each perturbed by a seeded 2 % in magnitude, 0.05 rad in
relative phase and a random global phase, so no input repeats.  A panel is
density_grid, lissajous_amplitudes, best_tube_phase and a binary write and
read-back in memory; the second panel also takes l1_distance to the first.
Around them run single density_grid tasks on 22 principal states at the
midpoints of 22 slices of levels 20..200 and 8 chain states (chains 2..10)
at the midpoints of 8 slices of total levels 20..60, with seeded phases,
each on a window that covers the state's support.  Principal states
are the majority so that the median task falls inside their stratified
levels, not at the edge between the two kinds.  No CSV is written here.

`position` does this work: the tube fit dominates throughput, grid
evaluation the median task.
"""

from __future__ import annotations

import cmath
import io
import math

import numpy as np

import checks
import reference as ref
from harness import Task, Tracer, cycle_rounds

PANEL_LEVEL = 100
PANEL_ALPHA = 3.0
PANEL_BETA = 1.0 / math.sqrt(2.0)
PANEL_PHASES = (math.pi / 2.0, 0.0)
# grid step = STEP / (largest local wavenumber): about five points per
# oscillation of the eigenfunctions; the trapezoid mass is exact to ~1e-14
STEP = 1.2
MARGIN = 3.5
SINGLE_RATIO = 2.0  # |alpha|/|beta| of the single principal-state tasks
CHAIN_RATIO = 2.5  # and of the chain-state tasks


def sizes(small: bool) -> dict:
    if small:
        return {"panel_level": 20, "panel_cells": 120, "principal": (2, 20, 40),
                "chain": (2, 14, 20), "points": 2}
    return {"panel_level": PANEL_LEVEL, "panel_cells": None,
            "principal": (22, 20, 200), "chain": (8, 20, 60), "points": 3}


def covering_geometry(lib, items) -> object:
    """Window covering every ket's classical turning points with margin."""
    items = list(items)
    n_max = max(n for (n, _m), _a in items)
    m_max = max(m for (_n, m), _a in items)
    x_half = math.sqrt(n_max + 0.5) + MARGIN / math.sqrt(2.0)
    y_half = math.sqrt(2 * m_max + 1) + MARGIN
    kx = math.sqrt(2.0 * (2 * n_max + 1))
    ky = math.sqrt(2 * m_max + 1.0)
    nx = int(math.ceil(2 * x_half * kx / STEP)) + 1
    ny = int(math.ceil(2 * y_half * ky / STEP)) + 1
    return lib.Grid2D(-x_half, x_half, -y_half, y_half, nx, ny)


def stratified(count: int, lo: int, hi: int) -> list[int]:
    """The midpoint of each of `count` equal slices of [lo, hi]."""
    width = (hi - lo) / count
    return [int(lo + width * (i + 0.5)) for i in range(count)]


def check_grid(grid, items, rng, points: int, tr: Tracer) -> str | None:
    if grid.values is None:
        return "grid has no values"
    return checks.density(grid.values, grid.xs(), grid.ys(), items, rng, points, tr)


def check_panel(out, items, rng, points: int, tr: Tracer, must_fit: bool):
    grid, frac, back, buf, l1 = out
    if len(buf) != 32 + 8 * grid.nx * grid.ny:
        return f"binary grid is {len(buf)} bytes"
    if (back.nx, back.ny) != (grid.nx, grid.ny) or back.values.tobytes() != grid.values.tobytes():
        return "binary read-back is not bit-identical"
    return check_grid(grid, items, rng, points, tr) or checks.panel(frac, must_fit, l1, tr)


class Panels:
    def __init__(self, seed: int, tr: Tracer, small: bool = False):
        import aladders

        self.lib = aladders
        self.tr = tr
        self.size = sizes(small)
        self.rng = np.random.default_rng([seed, 3])
        self.check_rng = np.random.default_rng([seed, 30])
        self.warm = self.phased(SINGLE_RATIO)

    def warmup(self) -> None:
        v = self.lib.principal_state(30, self.warm).to_fock()
        self.lib.density_grid(v, covering_geometry(self.lib, v.items()))

    def rounds(self):
        return cycle_rounds(self.make_round)

    def panel_geometry(self):
        if self.size["panel_cells"] is None:
            return self.lib.position.DEFAULT_DENSITY_GEOMETRY
        cells = self.size["panel_cells"]
        return self.lib.Grid2D(-5.0, 5.0, -9.0, 9.0, cells, cells)

    def make_round(self, _index: int) -> list[Task]:
        singles = self.single_tasks()
        half = len(singles) // 2
        first, second = self.panel_pair()
        return [first, *singles[:half], second, *singles[half:]]

    def panel_pair(self) -> list[Task]:
        """The two panels of acceptance criterion 9; the second also takes
        the L1 distance to the first."""
        lib, tr, size, rng = self.lib, self.tr, self.size, self.rng
        geom = self.panel_geometry()
        level = size["panel_level"]
        grids = {}
        tasks = []
        for which, rel_phase in enumerate(PANEL_PHASES):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            alpha = cmath.rect(PANEL_ALPHA * rng.uniform(0.98, 1.02), theta)
            beta = cmath.rect(PANEL_BETA * rng.uniform(0.98, 1.02),
                              theta + rel_phase + rng.uniform(-0.05, 0.05))

            def run(which=which, alpha=alpha, beta=beta):
                st = tr.call("principal.principal_state", lib.principal_state,
                             level, lib.ModeParams(alpha, beta))
                v = tr.call("principal.PrincipalState.to_fock", st.to_fock)
                grid = tr.call("position.density_grid", lib.density_grid, v, geom)
                grids[which] = grid
                amp_x, amp_y = tr.call("position.lissajous_amplitudes",
                                       lib.lissajous_amplitudes, v)
                frac, _phase = tr.call("position.best_tube_phase", lib.best_tube_phase,
                                       grid, amp_x, amp_y, radius=1.0)
                sink = io.BytesIO()
                tr.call("position.write_grid_binary", lib.write_grid_binary, grid, sink)
                buf = sink.getvalue()
                back = tr.call("position.read_grid_binary", lib.read_grid_binary,
                               io.BytesIO(buf))
                l1 = None
                if which == 1:
                    l1 = tr.call("position.l1_distance", lib.l1_distance, grids[0], grid)
                    grids.clear()
                tr.count("position.grid_cells", geom.nx * geom.ny)
                return grid, frac, back, buf, l1

            items = list(zip(
                [(k, level - 2 * k) for k in range(level // 2 + 1)],
                ref.principal_amplitudes_mp(level, alpha, beta)))
            tasks.append(Task(
                "panel", run,
                lambda out, items=items, which=which: check_panel(
                    out, items, self.check_rng, size["points"], tr,
                    must_fit=(which == 0 or size["panel_cells"] is None))))
        return tasks

    def single_tasks(self) -> list[Task]:
        """density_grid tasks; their states are made here, untimed.  Only
        the phases of alpha and beta are drawn: the levels, |alpha|/|beta|
        and chain indices are fixed, because they set which amplitudes the
        drop tolerance prunes and so the size of every grid."""
        lib, size = self.lib, self.size
        states = []
        count, lo, hi = size["principal"]
        for nu in stratified(count, lo, hi):
            states.append(lib.principal_state(nu, self.phased(SINGLE_RATIO)).to_fock())
        count, lo, hi = size["chain"]
        for i, total in enumerate(stratified(count, lo, hi)):
            chain = 2 + 2 * (i % 5)
            label = lib.ChainLabel(chain, total - chain)
            states.append(lib.chain_state_closed(label, self.phased(CHAIN_RATIO)).vector)
        return [Task("density", lambda v=states[i]: self.density(v), self.check_single)
                for i in self.rng.permutation(len(states))]

    def phased(self, ratio: float):
        """ModeParams with |alpha|/|beta| = ratio and seeded phases."""
        return self.lib.ModeParams(
            cmath.rect(ratio, self.rng.uniform(0.0, 2.0 * math.pi)),
            cmath.rect(1.0, self.rng.uniform(0.0, 2.0 * math.pi)))

    def density(self, v):
        geom = covering_geometry(self.lib, v.items())
        grid = self.tr.call("position.density_grid", self.lib.density_grid, v, geom)
        self.tr.count("position.grid_cells", geom.nx * geom.ny)
        return v, grid

    def check_single(self, out):
        v, grid = out
        return check_grid(grid, list(v.items()), self.check_rng, 1, self.tr)
