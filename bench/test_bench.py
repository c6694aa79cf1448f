"""Tests of the benchmark itself: every output check accepts a right output
and rejects a corrupted one, and a small-size run of every workload ends
with exactly its kept failures."""

from __future__ import annotations

import cmath
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aladders as lib
import checks
import cliload
import panels
import reference as ref
import rows
import sweeps
from harness import Tracer, run_rounds

ROOT = Path(__file__).resolve().parent.parent
ALPHA, BETA = cmath.rect(2.5, 0.4), cmath.rect(1.0, 1.3)
P = lib.ModeParams(ALPHA, BETA)
TR = Tracer(enabled=True)


def test_rows_chain_check_rejects_perturbed_amplitude():
    for label in ((0, 12), (4, 6)):
        st = lib.chain_state_closed(lib.ChainLabel(*label), P)
        assert rows.check_chain(st, label, ALPHA, BETA, TR) is None
        items = dict(st.vector.items())
        ket = next(iter(items))
        items[ket] *= 1.0 + 1e-6
        bad = lib.chains.ChainState(st.label, lib.FockVector(items).normalized(),
                                    st.norm_sq, st.log_norm_sq)
        assert rows.check_chain(bad, label, ALPHA, BETA, TR) is not None


def test_rows_lower_check_rejects_perturbed_coefficient():
    label = (2, 5)
    terms = lib.lowering_decomposition(lib.ChainLabel(*label), P)
    assert rows.check_lower(terms, label, ALPHA, BETA, TR) is None
    bad = [(lab, c * (1.0 + 1e-6) if i == 1 else c) for i, (lab, c) in enumerate(terms)]
    assert rows.check_lower(bad, label, ALPHA, BETA, TR) is not None


def test_rows_gram_and_zero_mode_checks():
    mat = lib.gram_matrix(8, P)
    assert checks.gram(mat, 8, ALPHA, BETA) is None
    bad = mat.copy()
    bad[0, 1] += 1e-6
    bad[1, 0] += 1e-6
    assert checks.gram(bad, 8, ALPHA, BETA) is not None

    z = lib.zero_mode_state(4, P)
    good = (z, lib.apply_lowering(P, z))
    assert rows.check_zero_mode(good, 4, ALPHA, BETA) is None
    items = dict(z.items())
    items[(1, 6)] += 1e-6
    z_bad = lib.FockVector(items).normalized()
    assert rows.check_zero_mode((z_bad, lib.apply_lowering(P, z_bad)), 4, ALPHA,
                                BETA) is not None


def test_sweeps_identity_check_rejects_nan_diagonal():
    mat = lib.subspace_identity_matrix(10)
    assert checks.identity(mat, 10, TR) is None
    bad = mat.copy()
    bad[2, 2] = np.nan
    assert checks.identity(bad, 10, TR) is not None
    assert sweeps.check_fullspace(float("nan"), TR) is not None


def test_sweeps_product_and_principal_checks():
    rep = lib.uncertainty_products(37, P)
    assert sweeps.check_products(rep, 37, abs(ALPHA), abs(BETA), True, TR) is None
    off = lib.principal.UncertaintyReport(37, rep.product_a * (1 + 1e-8), rep.product_b)
    assert sweeps.check_products(off, 37, abs(ALPHA), abs(BETA), True, TR) is not None
    low = lib.principal.UncertaintyReport(0, 0.2499, 0.25)
    assert sweeps.check_products(low, 0, abs(ALPHA), abs(BETA), False, TR) is not None

    st = lib.principal_state(30, P)
    assert sweeps.check_principal(st, 30, ALPHA, BETA, TR) is None
    coeffs = list(st.coeffs)
    coeffs[3] *= 1.0 + 1e-7
    bad = lib.principal.PrincipalState(30, tuple(coeffs), st.norm_sq)
    assert sweeps.check_principal(bad, 30, ALPHA, BETA, TR) is not None


def test_panels_grid_check_rejects_perturbed_point_and_lost_mass():
    v = lib.principal_state(24, P).to_fock()
    grid = lib.density_grid(v, panels.covering_geometry(lib, v.items()))
    items = list(v.items())
    rng = np.random.default_rng(0)
    assert panels.check_grid(grid, items, rng, 2, TR) is None
    peak = np.unravel_index(np.argmax(grid.values), grid.values.shape)
    bad = grid.values.copy()
    bad[peak] *= 1.0 + 1e-6
    assert panels.check_grid(lib.Grid2D(grid.x_min, grid.x_max, grid.y_min, grid.y_max,
                                        grid.nx, grid.ny, bad), items, rng, 2, TR) is not None
    cut = grid.values.copy()
    cut[: grid.nx // 2] = 0.0
    assert panels.check_grid(lib.Grid2D(grid.x_min, grid.x_max, grid.y_min, grid.y_max,
                                        grid.nx, grid.ny, cut), items, rng, 1, TR) is not None


def test_cli_csv_check_rejects_dropped_row_and_flipped_bit():
    geom = lib.Grid2D(-3.0, 3.0, -4.0, 4.0, 7, 9)
    grid = lib.density_grid(lib.principal_state(3, P).to_fock(), geom)
    import io

    sink = io.StringIO()
    lib.write_grid_csv(grid, sink)
    text = sink.getvalue()
    xs, ys = geom.xs(), geom.ys()
    assert cliload.check_csv_vs_bin(text, grid.values, xs, ys) is None
    lines = text.split("\n")
    assert cliload.check_csv_vs_bin("\n".join(lines[:5] + lines[6:]), grid.values,
                                    xs, ys) is not None
    flipped = grid.values.copy()
    flipped.view(np.uint64)[3, 4] ^= 1
    assert cliload.check_csv_vs_bin(text, flipped, xs, ys) is not None


def test_cli_output_checks():
    rng = np.random.default_rng(0)
    lines = ["nu,product_a,product_b"] + [
        f"{nu},{r.product_a!r},{r.product_b!r}"
        for nu, r in ((nu, lib.uncertainty_products(nu, P)) for nu in range(61))]
    text = "\n".join(lines) + "\n"
    assert cliload.check_uncertainty(text, 60, abs(ALPHA), abs(BETA), rng, TR) is None
    assert cliload.check_uncertainty("\n".join(lines[:30] + lines[31:]) + "\n", 60,
                                     abs(ALPHA), abs(BETA), rng, TR) is not None

    st = lib.chain_state_closed(lib.ChainLabel(2, 4), P)
    data = {"vector": st.vector.to_records()}
    assert cliload.check_chain(data, 2, 4, ALPHA, BETA, TR) is None
    data["vector"][1]["re"] += 1e-6
    assert cliload.check_chain(data, 2, 4, ALPHA, BETA, TR) is not None

    diag = [float(d.real) for d in np.diag(lib.subspace_identity_matrix(12))]
    assert cliload.check_resolution({"nu": 12, "diagonal": diag}, 12, TR) is None
    diag[3] = float("nan")
    assert cliload.check_resolution({"nu": 12, "diagonal": diag}, 12, TR) is not None


@pytest.mark.parametrize("name,cls,kept", [
    ("rows", rows.Rows, 0), ("sweeps", sweeps.Sweeps, 2),
    ("panels", panels.Panels, 0), ("cli", cliload.Cli, 1)])
def test_small_run_of_every_workload(name, cls, kept):
    shares = set()
    for seed in (1, 2):
        tracer = Tracer(enabled=True)
        workload = cls(seed, tracer, small=True)
        workload.warmup()
        res = run_rounds(workload.rounds(), 0.0, tracer)
        assert res.rounds == 1
        assert res.unexpected == [], res.unexpected
        assert res.failed == len(res.kept_failures) == kept
        assert tracer.spans
        shares.add((res.attempted, res.failed))
    assert len(shares) == 1  # the same operations whatever the seed


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rows", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_traced_command_reports_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rows", "--seed", "3",
         "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert result["metrics"]["chains.gram_matrix.calls"]["value"] == 4
    assert math.isfinite(result["metrics"]["trace.overhead_tasks_per_s"]["value"])


def test_reference_dense_operators_are_adjoint_and_annihilate():
    low = ref.lowering_level_matrix(9, ALPHA, BETA)
    assert np.allclose(ref.raising_level_matrix(8, ALPHA, BETA), low.conj().T)
    z = ref.zero_mode_dense(5, ALPHA, BETA)
    assert np.linalg.norm(ref.lowering_level_matrix(10, ALPHA, BETA) @ z) < 1e-12
