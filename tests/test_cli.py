"""End-to-end CLI behavior: output formats, usage errors, exit codes."""

from __future__ import annotations

import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import aladders
from aladders import chains, position, principal, resolution
from aladders.cli import (
    _HANDLERS,
    EXIT_CONVERGENCE,
    EXIT_DOMAIN,
    EXIT_ILL_CONDITIONED,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    parse_complex,
    run,
)
from aladders.criteria import CRITERIA
from aladders.operators import ModeParams
from aladders.position import read_grid_binary
from conftest import required_flags


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == EXIT_OK, out
    return json.loads(out)


# --------------------------------------------------------------- parsing

def test_parse_complex_forms():
    assert parse_complex("1.5,-2") == 1.5 - 2j
    assert parse_complex("3") == 3.0 + 0j
    z = parse_complex("2@1.5707963267948966")
    assert z == pytest.approx(2j)
    with pytest.raises(Exception):
        parse_complex("one,two")


def test_usage_errors(capsys):
    assert run([]) == EXIT_USAGE
    assert run(["no-such-command"]) == EXIT_USAGE
    assert run(["zero-modes", "--n", "1", "--alpha", "1", "--beta", "1",
                "--frobnicate"]) == EXIT_USAGE
    # missing required flag
    assert run(["zero-modes", "--alpha", "1", "--beta", "1"]) == EXIT_USAGE
    capsys.readouterr()


# a served value for each flag some subcommand requires
REQUIRED_VALUES = {"n": "2", "chain": "0", "level": "3", "row": "4", "nu-max": "3",
                   "nu": "4", "alpha": "1", "beta": "1"}


@pytest.mark.parametrize("command", sorted(set(_HANDLERS) - {"selftest"}))
def test_missing_required_flag(command, capsys):
    required = required_flags()[command]
    assert required
    for missing in required:
        argv = [f"--{flag}={REQUIRED_VALUES[flag]}" for flag in required if flag != missing]
        assert run([command, *argv]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"error: the following arguments are required: --{missing}\n")
        assert "Traceback" not in captured.err


def test_config_flag_is_gone(tmp_path, capsys):
    # argv is the only input: a config file is an unrecognized argument
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 2\n")
    assert run(["zero-modes", "--config", str(cfg), "--n", "1", "--alpha", "1",
                "--beta", "1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --config" in captured.err
    assert "Traceback" not in captured.err


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    assert "exit codes" in out


# ------------------------------------------------------------ subcommands

def test_zero_modes_json(capsys):
    data = run_json(capsys, ["zero-modes", "--n", "1",
                             "--alpha", "1,0", "--beta", "1,0"])
    assert data["n"] == 1
    assert data["norm_sq"] == pytest.approx(3.0)
    gam = [complex(re, im) for re, im in data["gamma"]]
    assert gam[0] == 1.0
    assert gam[1] == pytest.approx(-math.sqrt(2), abs=1e-12)


# stdout of zero-modes --n 5 --alpha 1,0 --beta 0,1, which must not change
ZERO_MODES_N5 = {
    "gamma": [
        [1.0, -0.0],
        [6.454455357567322e-17, -1.0540925533894614],
        [-0.7968190728895972, -9.758219271138068e-17],
        [-9.257459641243328e-17, 0.5039526306789698],
        [0.29095718698132333, 7.126395754511911e-17],
        [5.633910523002957e-17, -0.1840174824912948],
    ],
    "n": 5,
    "norm_sq": 3.118518518518524,
}


def test_zero_modes_bytes(capsys):
    assert run(["zero-modes", "--n", "5", "--alpha", "1,0", "--beta", "0,1"]) == EXIT_OK
    assert capsys.readouterr().out == json.dumps(ZERO_MODES_N5, sort_keys=True, indent=2) + "\n"


def test_zero_modes_beyond_double(capsys):
    # at (150, 1000) the last 6 |gamma_j| are beyond a double, and so is
    # norm_sq; at (200, 100) every gamma_j fits and norm_sq does not
    for n, alpha, nulls in (("150", "1000", 6), ("200", "100", 0)):
        code = run(["zero-modes", "--n", n, "--alpha", alpha, "--beta", "1"])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "Traceback" not in captured.err
        data = json.loads(captured.out, parse_constant=pytest.fail)  # strict JSON
        assert data["norm_sq"] is None
        gamma = data["gamma"]
        assert len(gamma) == int(n) + 1
        assert gamma[-nulls - 1] is not None
        assert all(g is None for g in gamma[len(gamma) - nulls:])


def test_chain_methods_agree(capsys):
    base = ["--chain", "2", "--level", "3", "--alpha", "0.9,0.2",
            "--beta", "1.1,-0.4"]
    closed = run_json(capsys, ["chain", *base, "--method", "closed"])
    brute = run_json(capsys, ["chain", *base, "--method", "bruteforce"])
    assert closed["norm_sq"] == pytest.approx(brute["norm_sq"], rel=1e-10)
    keys = [(r["n"], r["m"]) for r in closed["vector"]]
    assert keys == sorted(keys)
    for rc, rb in zip(closed["vector"], brute["vector"]):
        assert (rc["n"], rc["m"]) == (rb["n"], rb["m"])
        assert complex(rc["re"], rc["im"]) == pytest.approx(
            complex(rb["re"], rb["im"]), abs=1e-10)


def test_chain_norm_beyond_double(capsys):
    # the squared norm of chain (0, 200) at (2.5, 1) is e^1453.7
    for method in ("closed", "bruteforce"):
        code = run(["chain", "--chain", "0", "--level", "200", "--alpha", "2.5",
                    "--beta", "1", "--method", method])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "Traceback" not in captured.err
        data = json.loads(captured.out, parse_constant=pytest.fail)  # strict JSON
        assert data["norm_sq"] is None
        assert math.isfinite(data["log_norm_sq"])
        norm_sq = sum(r["re"] ** 2 + r["im"] ** 2 for r in data["vector"])
        assert norm_sq == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("method", ["closed", "bruteforce"])
@pytest.mark.parametrize("chain, level, alpha", [(2, 5, "1"), (0, 200, "2.5"),
                                                 (60, 60, "10@0.4")])
def test_chain_prints_the_library_state(method, chain, level, alpha, capsys):
    # chain prints chain_state_closed or chain_state_bruteforce as it is
    argv = ["chain", f"--chain={chain}", f"--level={level}", f"--alpha={alpha}",
            "--beta=1", f"--method={method}"]
    assert run(argv) == EXIT_OK
    build = getattr(chains, f"chain_state_{method}")
    st = build(chains.ChainLabel(chain, level), ModeParams(parse_complex(alpha), 1))
    payload = {"chain": chain, "level": level, "log_norm_sq": st.log_norm_sq,
               "norm_sq": st.norm_sq if math.isfinite(st.norm_sq) else None,
               "vector": st.vector.to_records()}
    assert capsys.readouterr().out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_gram_output(capsys):
    data = run_json(capsys, ["gram", "--row", "4",
                             "--alpha", "1.2,0", "--beta", "0.8,0.1"])
    assert data["labels"] == [[0, 4], [2, 2], [4, 0]]
    mat = np.array([[complex(re, im) for re, im in row]
                    for row in data["matrix"]])
    assert mat.shape == (3, 3)
    assert np.allclose(np.diag(mat), 1.0)
    assert abs(mat[0, 2]) < 1e-12  # zero-mode column
    assert data["condition"] >= 1.0


def test_gram_condition_is_cond_c_squared(capsys):
    # the condition of the formed Gram matrix saturates near 1/eps (3.3e16
    # here); cond(C)^2 of the row's chains, raised without pruning, does not
    p = aladders.ModeParams(0.5, 1.0)
    c = np.array([chains._raised_chain(lab, p)[0] for lab in aladders.row_labels(13)]).T
    s = np.linalg.svd(c, compute_uv=False)
    data = run_json(capsys, ["gram", "--row", "13", "--alpha", "0.5", "--beta", "1"])
    assert data["condition"] == pytest.approx((s[0] / s[-1]) ** 2, rel=1e-3)
    assert data["condition"] > 1e20


def test_lower_single_term(capsys):
    data = run_json(capsys, ["lower", "--chain", "0", "--level", "1",
                             "--alpha", "0.6,0.8", "--beta", "1,0"])
    assert data["residual"] < 1e-12
    assert len(data["terms"]) == 1
    term = data["terms"][0]
    assert (term["chain"], term["level"]) == (0, 0)
    assert complex(term["re"], term["im"]) == pytest.approx(1.0, abs=1e-12)


def test_uncertainty_csv(capsys):
    code = run(["uncertainty", "--nu-max", "4", "--alpha", "1,0",
                "--beta", "1,0"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "nu,product_a,product_b"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first == ["0", "0.25", "0.25"]


def test_resolution_json(capsys):
    data = run_json(capsys, ["resolution", "--nu", "3"])
    assert data["nu"] == 3
    assert data["nodes"] == [64, 64]
    assert len(data["diagonal"]) == 2
    assert data["max_deviation"] < 1e-8


def test_density_csv_to_file(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code = run(["density", "--level", "2", "--alpha", "1,0", "--beta", "1,0",
                "--nx", "24", "--ny", "24", "--xmin", "-4", "--xmax", "4",
                "--ymin", "-4", "--ymax", "4", "--out", str(out)])
    assert code == EXIT_OK
    capsys.readouterr()
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x,y,density"
    assert len(lines) == 1 + 24 * 24
    assert all(float(line.split(",")[2]) >= 0.0 for line in lines[1:])


def test_density_binary_deterministic(tmp_path, capsys):
    args = ["density", "--chain", "2", "--level", "1", "--alpha", "0.7,0.1",
            "--beta", "1,0", "--nx", "16", "--ny", "18", "--xmin", "-3",
            "--xmax", "3", "--ymin", "-3", "--ymax", "3", "--format", "bin"]
    f1, f2 = tmp_path / "a.bin", tmp_path / "b.bin"
    assert run([*args, "--out", str(f1)]) == EXIT_OK
    assert run([*args, "--out", str(f2)]) == EXIT_OK
    capsys.readouterr()
    blob = f1.read_bytes()
    assert blob == f2.read_bytes()  # byte-identical repeat run
    with open(f1, "rb") as fh:
        grid = read_grid_binary(fh)
    assert (grid.nx, grid.ny) == (16, 18)
    assert grid.values.min() >= 0.0
    assert grid.values.sum() > 0.0


@pytest.mark.parametrize("fmt", ["csv", "bin"])
@pytest.mark.parametrize("chain", [0, 4])
def test_density_samples_the_library_state(chain, fmt, capsysbinary):
    # chain 0 is the principal state, any other chain chain_state_closed
    p = ModeParams(0.7 + 0.1j, 1)
    if chain == 0:
        vec = principal.principal_state(6, p).to_fock()
    else:
        vec = chains.chain_state_closed(chains.ChainLabel(chain, 6), p).vector
    grid = position.density_grid(vec, position.Grid2D(-3.0, 3.0, -5.0, 5.0, 9, 11))
    if fmt == "bin":
        fh = io.BytesIO()
        position.write_grid_binary(grid, fh)
        expected = fh.getvalue()
    else:
        fh = io.StringIO()
        position.write_grid_csv(grid, fh)
        expected = fh.getvalue().encode()
    assert run(["density", f"--chain={chain}", "--level=6", "--alpha=0.7,0.1", "--beta=1",
                "--xmin=-3", "--xmax=3", "--ymin=-5", "--ymax=5", "--nx=9", "--ny=11",
                f"--format={fmt}"]) == EXIT_OK
    assert capsysbinary.readouterr().out == expected


def test_binary_bounds_must_be_float32(capsys):
    # the header holds the bounds as float32, which does not hold -8.000000001
    argv = ["density", "--level", "2", "--alpha", "1", "--beta", "1",
            "--nx", "3", "--ny", "3", "--xmin=-8.000000001"]
    assert run([*argv, "--format", "bin"]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("domain error: the binary format holds grid bounds as "
                            "float32, which does not hold --xmin -8.000000001 exactly\n")
    assert run(argv) == EXIT_OK  # CSV prints every digit
    assert capsys.readouterr().out.splitlines()[1].startswith("-8.000000001,")


def test_refused_density_leaves_out_file_as_it_was(tmp_path, capsys):
    out = tmp_path / "grid.bin"
    out.write_bytes(b"hello")
    code = run(["density", "--level", "2", "--alpha", "1", "--beta", "1",
                "--nx", "3", "--ny", "3", "--format", "bin", "--ymax", "1e39",
                "--out", str(out)])
    assert code == EXIT_DOMAIN
    capsys.readouterr()
    assert out.read_bytes() == b"hello"
    assert os.listdir(tmp_path) == ["grid.bin"]  # no temporary file left


def test_refused_uncertainty_writes_no_rows(tmp_path, capsys):
    # level 0 is served at alpha = 0 and level 1 is refused
    argv = ["uncertainty", "--nu-max", "3", "--alpha", "0", "--beta", "1"]
    assert run(argv) == EXIT_DOMAIN
    assert capsys.readouterr().out == ""
    assert run([*argv, "--out", str(tmp_path / "products.csv")]) == EXIT_DOMAIN
    capsys.readouterr()
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("where", ["missing/x.json", "."])
def test_unwritable_out_is_a_usage_error(where, tmp_path, capsys):
    path = tmp_path / where
    code = run(["chain", "--chain", "0", "--level", "2", "--alpha", "1",
                "--beta", "1", "--out", str(path)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"usage error: cannot write {path}:")
    assert os.listdir(tmp_path) == []


def test_density_norm_beyond_double(capsys):
    # N_400 at alpha = beta = 1 is beyond a double; the state is not
    code = run(["density", "--level", "400", "--alpha", "1", "--beta", "1",
                "--nx", "3", "--ny", "3"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "Traceback" not in captured.err
    lines = captured.out.splitlines()
    assert lines[0] == "x,y,density"
    assert len(lines) == 1 + 3 * 3


@pytest.mark.parametrize("bounds", [
    ["--ymax", "inf"], ["--xmin=-inf"], ["--ymax", "nan"],
    ["--xmin=-1e308", "--xmax=1e308"],
    ["--format", "bin", "--ymax", "1e39"], ["--format", "bin", "--xmin=-1e39"],
])
def test_density_bounds_refused(bounds, capsys):
    # refused before any output: a non-finite bound or span makes NaN grid
    # points, and the binary header holds the bounds as float32
    argv = ["density", "--level", "2", "--alpha", "1", "--beta", "1",
            "--nx", "3", "--ny", "3", *bounds]
    assert run(argv) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("domain error:")


@pytest.mark.parametrize("bounds", [
    ["--ymax", "1e200"], ["--xmin=0", "--xmax=1.7e308"],
    ["--ymin=-1.7e308", "--ymax=0"],
])
def test_density_huge_finite_bounds(bounds, capsys):
    # x^2 overflows there with no warning (an error under pytest's filters);
    # the density is exactly 0 wherever psi_0 underflows
    argv = ["density", "--level", "5", "--alpha", "1", "--beta", "1",
            "--nx", "3", "--ny", "3", *bounds]
    assert run(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = [line.split(",") for line in captured.out.splitlines()[1:]]
    assert len(rows) == 9
    for x, y, density in rows:
        if max(abs(float(x)), abs(float(y))) > 1e100:
            assert density == "0.0"
        assert math.isfinite(float(density))


def test_polar_parameter_parsing(capsys):
    # polar and cartesian spellings of the same alpha give the same norm
    a = run_json(capsys, ["chain", "--chain", "0", "--level", "2",
                          "--alpha", "1@0.5", "--beta", "1,0"])
    b_re, b_im = math.cos(0.5), math.sin(0.5)
    b = run_json(capsys, ["chain", "--chain", "0", "--level", "2",
                          "--alpha", f"{b_re},{b_im}", "--beta", "1,0"])
    assert a["norm_sq"] == pytest.approx(b["norm_sq"], rel=1e-12)


# -------------------------------------------------------------- exit codes

def test_domain_error_exit(capsys):
    code = run(["zero-modes", "--n", "1", "--alpha", "1,0", "--beta", "0,0"])
    assert code == EXIT_DOMAIN
    assert "domain error" in capsys.readouterr().err
    # a level past the eigenfunction recurrence cap is refused before any
    # state is built (building it would overflow first)
    code = run(["density", "--level", "600", "--alpha", "1", "--beta", "1"])
    assert code == EXIT_DOMAIN
    assert capsys.readouterr().err.startswith("domain error:")


def test_convergence_error_exit(capsys):
    code = run(["resolution", "--nu", "40", "--nodes", "8"])
    assert code == EXIT_CONVERGENCE
    assert "convergence" in capsys.readouterr().err
    # from 364 nodes roots_laguerre returns NaN weights, so the node-doubling
    # check cannot pass at 182 nodes or more
    assert run(["resolution", "--nu", "150", "--nodes", "182"]) == EXIT_CONVERGENCE
    assert "convergence" in capsys.readouterr().err


def test_convergence_error_without_scipy_warnings(capsys):
    # scipy's 364-node rule overflows inside roots_laguerre; the count is
    # refused, and stderr carries only the refusal
    resolution._log_laguerre.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["resolution", "--nu", "150", "--nodes", "182"]) == EXIT_CONVERGENCE
    err = capsys.readouterr().err
    assert err.startswith("convergence error:") and err.count("\n") == 1


def test_node_ceiling_refused_at_once(capsys):
    # the rules of 200000 and 400000 nodes took minutes to build before the
    # drift gate refused them; the ceiling refuses the count first
    start = time.perf_counter()
    assert run(["resolution", "--nu", "4", "--nodes", "200000"]) == EXIT_CONVERGENCE
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("convergence error: 200000 radial nodes are beyond the "
                          "181-node ceiling")


def test_resolution_underflowed_rules_refused(capsys):
    # both rules underflow to about 1e-25 here, so an absolute drift gate
    # passed them with max_deviation 1.0; the relative gate refuses them
    assert run(["resolution", "--nu", "2000", "--nodes", "64"]) == EXIT_CONVERGENCE
    assert "convergence" in capsys.readouterr().err


def test_resolution_huge_level_refused_in_linear_memory():
    # both rules underflow to exactly 0 at this level (a 0/0 drift); the
    # refusal must come from the gate, with memory linear in the level: a
    # dense 50001 x 50001 matrix would need tens of GB, beyond the 4 GB
    # address-space cap set on the child here
    def cap_memory():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    src = str(Path(aladders.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "aladders.cli", "resolution", "--nu", "100000",
         "--nodes", "64"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        preexec_fn=cap_memory, timeout=120,
    )
    assert proc.returncode == EXIT_CONVERGENCE, proc.stderr
    assert proc.stderr.startswith("convergence error:")
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ["chain", "--chain", "0", "--level", "3", "--alpha", "nan", "--beta", "1"],
    ["gram", "--row", "4", "--alpha", "nan", "--beta", "1"],
    ["lower", "--chain", "0", "--level", "3", "--alpha", "nan", "--beta", "1"],
    ["uncertainty", "--nu-max", "3", "--alpha", "nan", "--beta", "1"],
    ["zero-modes", "--n", "2", "--alpha", "inf", "--beta", "1"],
    ["density", "--level", "4", "--alpha", "nan", "--beta", "1"],
])
def test_non_finite_parameters_refused(argv, capsys):
    # at one time these raised IndexError, printed nan, or blamed gamma_0 or
    # the zero vector; each is now refused where ModeParams is built
    assert run(argv) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("domain error: alpha must be finite")


@pytest.mark.parametrize("argv", [
    ["uncertainty", "--nu-max", "3", "--alpha", "1e300", "--beta", "1e-300"],
    ["uncertainty", "--nu-max", "3", "--alpha", "1e200", "--beta", "1"],
    ["uncertainty", "--nu-max", "3", "--alpha", "1e-200", "--beta", "1"],
    ["uncertainty", "--nu-max", "3", "--alpha", "1e-300", "--beta", "1e300"],
    ["uncertainty", "--nu-max", "3", "--alpha", "1.7e308,1.7e308", "--beta", "1"],
    ["chain", "--chain", "0", "--level", "3", "--alpha", "1e200", "--beta", "1e-200"],
    ["gram", "--row", "4", "--alpha", "1e200", "--beta", "1e-200"],
    ["lower", "--chain", "0", "--level", "3", "--alpha", "1e200", "--beta", "1e-200"],
    ["zero-modes", "--n", "2", "--alpha", "1e200", "--beta", "1e-200"],
    ["density", "--level", "4", "--alpha", "1e200", "--beta", "1e-200"],
    ["gram", "--row", "4", "--alpha", "1", "--beta", "1e160"],
    ["lower", "--chain", "0", "--level", "3", "--alpha", "1", "--beta", "1e160"],
    ["chain", "--chain", "0", "--level", "3", "--method", "bruteforce", "--alpha", "1",
     "--beta", "1e160"],
])
def test_parameters_beyond_the_bound_refused(argv, capsys):
    # finite inputs whose squares or ratio a double cannot carry: refused where
    # ModeParams is built, before any overflow, warning or traceback
    assert run(argv) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be 0 or within [1e-150, 1e+150]" in captured.err
    assert captured.err.count("\n") == 1


def test_bound_message_names_the_refused_value(capsys):
    # cmath.rect rounds this modulus just below 1e-150: the message must print
    # a value that reads as outside the bound
    argv = ["zero-modes", "--n", "2", "--beta", "1"]
    assert run([*argv, "--alpha=1e-150@6.4506347228976395"]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert float(err.rsplit("got ", 1)[1]) < 1e-150
    assert run([*argv, "--alpha=1e-150@0.4"]) == EXIT_OK
    capsys.readouterr()


def test_uncertainty_is_scale_free(capsys):
    # the products depend on |alpha|/|beta| alone, so a common scale whose
    # squares underflow must leave every byte as it is
    assert run(["uncertainty", "--nu-max", "3", "--alpha", "1e-100",
                "--beta", "1e-100"]) == EXIT_OK
    tiny = capsys.readouterr().out
    assert run(["uncertainty", "--nu-max", "3", "--alpha", "1", "--beta", "1"]) == EXIT_OK
    assert tiny == capsys.readouterr().out


def test_singular_gram_condition_is_null(capsys):
    # C is singular at this ratio, and Infinity is not JSON
    code = run(["gram", "--row", "3", "--alpha", "1e-20", "--beta", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert json.loads(captured.out, parse_constant=pytest.fail)["condition"] is None


def test_resolution_deep_level_many_nodes(capsys):
    # x**nu of the largest nodes is beyond a double here; the rule is summed
    # in log space, so the level is served
    data = run_json(capsys, ["resolution", "--nu", "150", "--nodes", "128"])
    assert len(data["diagonal"]) == 76
    assert data["max_deviation"] <= 1e-8


def test_ill_conditioned_exit(capsys):
    code = run(["lower", "--chain", "0", "--level", "14",
                "--alpha", "0.5,0", "--beta", "1,0"])
    assert code == EXIT_ILL_CONDITIONED
    assert "condition" in capsys.readouterr().err


def test_import_skips_scipy_linalg():
    # no scipy module at all on the import path, nor after a tube fit;
    # resolution imports its quadrature nodes on first use
    code = ("import sys, aladders.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "from aladders import FockVector, Grid2D, best_tube_phase, density_grid; "
            "g = density_grid(FockVector.basis(0, 0), Grid2D(-4, 4, -4, 4, 40, 40)); "
            "best_tube_phase(g, 1.0, 1.0); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "print(aladders.cli.run(['resolution', '--nu', '4']))")
    src = str(Path(aladders.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
    lines = out.splitlines()
    assert lines[:2] == ["[]", "[]"]
    assert json.loads("\n".join(lines[2:-1]))["nu"] == 4
    assert lines[-1] == str(EXIT_OK)


def test_readme_cli_examples_parse():
    # every invocation in README's CLI block names a subcommand and flags that
    # exist, so a removed flag cannot stay documented
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    examples = [words[1:] for words in lines if words and words[0] == "aladders"]
    assert sorted(argv[0] for argv in examples) == sorted(_HANDLERS)  # one each
    parser = build_parser()
    for argv in examples:
        parser.parse_args(argv)


# the selftest's lines, in order; bench/cliload.py checks its last line
SELFTEST_NAMES = [
    "ladder commutators", "raising/lowering adjointness", "level shift by one",
    "commutator closed form", "zero-mode annihilation",
    "zero-mode coefficients closed vs recursion", "kernel dimension per level",
    "chain closed form vs operator construction",
    "principal norms product vs sum vs operator", "slow-mode lowering step",
    "uncertainty closed forms vs ladder algebra", "zero-mode/principal orthogonality",
    "lowering decomposition residual", "level identity by quadrature",
    "vacuum density mass",
]


def test_selftest_passes():
    # in a fresh process, which must not load scipy.spatial: criterion 9's
    # tube fit is left to the gate
    code = ("import sys, aladders.cli; print(aladders.cli.run(['selftest'])); "
            "print([m for m in sys.modules if m.startswith('scipy.spatial')])")
    src = str(Path(aladders.__file__).parents[1])
    *checks, last, exit_code, spatial = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src)).stdout.splitlines()
    assert [line.split(": ", 1)[0] for line in checks] == [f"ok   {n}" for n in SELFTEST_NAMES]
    assert [last, exit_code, spatial] == ["selftest: 15 passed, 0 failed", str(EXIT_OK), "[]"]


def test_readme_tolerances_match_the_table():
    # each tolerance the output contract quotes is the bound of its row
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = readme.split("(a test checks that they match):\n", 1)[1].split("\n- ", 1)[0]
    bullets = text.replace("\n    ", " ").split("\n  - ")
    bounds = {row.number: row.bounds for row in CRITERIA}
    for phrase, number in {"chain amplitudes": 3, "lowering decompositions": 6,
                           "uncertainty products": 8, "resolution-of-the-identity": 7}.items():
        (bullet,) = [b for b in bullets if phrase in b]
        quoted = tuple(float(x) for x in re.findall(r"\b\d+(?:\.\d+)?e-\d+", bullet))
        assert quoted and quoted == bounds[number][:len(quoted)], bullet


@pytest.mark.parametrize("argv", [
    ["uncertainty", "--nu-max", "1000000000", "--alpha", "1", "--beta", "1"],
    ["density", "--level", "2", "--alpha", "1", "--beta", "1",
     "--nx", "100000", "--ny", "100000"],
    ["density", "--level", "100", "--alpha", "1", "--beta", "1",
     "--nx", "2000", "--ny", "2000", "--ymax", "1e39", "--format", "bin"],
])
def test_size_bounds_refused_before_allocating(argv, capsys):
    tracemalloc.start()
    try:
        assert run(argv) == EXIT_DOMAIN
        assert tracemalloc.get_traced_memory()[1] < 1 << 20  # peak bytes
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err.startswith("domain error:")


def test_drop_tol_flag_is_gone(capsys):
    # one pruning tolerance, fock.DEFAULT_DROP_TOL: the flag is unrecognized
    for argv in (["chain", "--chain", "4", "--level", "6"],
                 ["density", "--level", "2", "--nx", "3", "--ny", "3"]):
        assert run([*argv, "--alpha", "1", "--beta", "1", "--drop-tol", "0"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --drop-tol 0" in captured.err
        assert "Traceback" not in captured.err
