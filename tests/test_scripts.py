"""The runnable studies in scripts/, at small sizes, through their main(argv)."""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from aladders.position import Grid2D, density_grid, read_grid_binary
from aladders.principal import principal_state

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv, header", [
    ("chain_structure", ["--row-max", "4"],
     "row,gram_condition,chain,level,ladder_factor,lowering_residual"),
    ("uncertainty_scan", ["--nu-max", "8"],
     "regime,nu,occ_a,occ_b,product_a,product_b"),
])
def test_script_writes_its_csv(tmp_path, capsys, name, argv, header):
    out = tmp_path / f"{name}.csv"
    assert load(name).main([*argv, "--out", str(out)]) == 0
    assert f"wrote {out}" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == header
    assert len(lines) > 1


def test_lissajous_density_writes_both_panels(tmp_path, capsys, monkeypatch):
    script = load("lissajous_density")
    geom = Grid2D(-4.0, 4.0, -6.0, 6.0, 24, 30)
    monkeypatch.setattr(script, "DEFAULT_DENSITY_GEOMETRY", geom)
    prefix = tmp_path / "density"
    assert script.main(["--level", "6", "--prefix", str(prefix)]) == 0
    *panels, last = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in panels] == list(script.PANELS)
    assert re.fullmatch(r"normalized L1 distance between panels: \d\.\d{3}", last)
    for line, (name, p) in zip(panels, script.PANELS.items()):
        path = f"{prefix}_{name}.bin"
        assert line.endswith(f"-> {path}")
        with open(path, "rb") as fh:
            grid = read_grid_binary(fh)
        assert grid.geometry() == geom
        want = density_grid(principal_state(6, p).to_fock(), geom)
        assert np.array_equal(grid.values, want.values)
        assert f"mass={grid.integral():.6f} " in line
