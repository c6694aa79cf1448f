"""The runnable studies in scripts/, at small sizes, through their main(argv)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

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
