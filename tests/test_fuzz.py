"""Every argv ends in an exit code 0-5, with no traceback and no undocumented
non-finite number in the output.

Each example runs in-process through ``cli.run``, with warnings as errors.
Sizes stay small (chains and rows <= 60, other sizes <= 600, grids <= 12 x
12), so no example allocates a large grid or takes long.
"""

from __future__ import annotations

import io
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aladders.cli import run
from aladders.position import read_grid_binary
from conftest import required_flags

GARBAGE = ["", "x", "1,2,3", "--bogus", "nan", "inf", "-inf"]


def mostly(valid, *odd: str):
    """A valid value for i < 7 of i = 0..7, else a boundary or garbage one.
    Hypothesis draws 0 more often than the other values, so 0 stands for the
    common case here and in argvs."""
    return st.integers(0, 7).flatmap(
        lambda i: valid if i < 7 else st.sampled_from([*odd, *GARBAGE]))


def ints(lo: int, hi: int, step: int = 1):
    """step * i for lo <= i <= hi, else a value just outside that range or
    not an int."""
    return mostly(st.integers(lo, hi).map(lambda i: str(step * i)),
                  str(step * lo - 1), str(step * hi + 1), "-2", "1.5", "1e3")


def reals(lo: float, hi: float, *odd: str):
    return mostly(st.floats(lo, hi).map(repr), "-0.0", "1e308", "-1e308", *odd)


MAGNITUDE = st.sampled_from(["1", "1e-3", "1e3", "1e-100", "1e100", "1e-150", "1e150"])
COMPLEX = mostly(
    st.one_of(st.tuples(MAGNITUDE, st.floats(-7, 7)).map(lambda z: f"{z[0]}@{z[1]!r}"),
              st.floats(0.01, 10).map(repr)),
    "0", "0,0", "1e-151", "1e151", "1e-300", "1e300", "nan,0", "1,inf", "1@", "@", "inf@0",
)
PARAMS = {"alpha": COMPLEX, "beta": COMPLEX}
DROP_TOL = {"drop-tol": reals(0.0, 1.0, "0", "1e-14", "1e-3", "1e-300", "-1")}
BOUNDS = {flag: reals(-20.0, 20.0, "1e39", "-1e39", "1e200", "-1e200")
          for flag in ("xmin", "xmax", "ymin", "ymax")}

FLAGS = {
    "zero-modes": {"n": ints(0, 600), **PARAMS},
    "chain": {"chain": ints(0, 30, 2), "level": ints(0, 60), **PARAMS, **DROP_TOL,
              "method": mostly(st.sampled_from(["closed", "bruteforce"]))},
    "gram": {"row": ints(0, 60), **PARAMS},
    "lower": {"chain": ints(0, 15, 2), "level": ints(1, 30), **PARAMS},
    "uncertainty": {"nu-max": ints(0, 600), **PARAMS},
    "resolution": {"nu": ints(0, 600), "nodes": ints(8, 600)},
    "density": {"chain": ints(0, 30, 2), "level": ints(0, 600), **PARAMS, **DROP_TOL,
                **BOUNDS, "nx": ints(2, 12), "ny": ints(2, 12),
                "format": mostly(st.sampled_from(["csv", "bin"]))},
    "selftest": {},
}

REQUIRED = required_flags()
NON_FINITE = re.compile(rb"(?i)\b(nan|inf|infinity)\b")


@st.composite
def argvs(draw, command: str, outs: list[str]):
    required = list(REQUIRED[command])
    if required and draw(st.integers(0, 7)) == 7:
        required.remove(draw(st.sampled_from(required)))
    if command == "density":
        required += ["nx", "ny"]  # each axis has 600 points by default
    argv = [command]
    for name, values in FLAGS[command].items():
        if name in required or draw(st.integers(0, 3)) == 3:
            argv.append(f"--{name}={draw(values)}")
    if draw(st.integers(0, 3)) == 3:
        argv.append(f"--out={draw(st.sampled_from(outs))}")
    # selftest takes no flags; test_cli runs it plain
    if command == "selftest" or draw(st.integers(0, 7)) == 7:
        argv.append(draw(st.sampled_from(["--bogus", "x", "--help"])))
    return argv


def assert_finite(blob: bytes) -> None:
    if blob.startswith(b"ALGRID01"):
        grid = read_grid_binary(io.BytesIO(blob))
        assert np.isfinite(grid.values).all()
    else:
        assert NON_FINITE.search(blob) is None, blob[:200]


@pytest.mark.parametrize("command", sorted(FLAGS))
@settings(max_examples=12, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_argv_exits_0_to_5(command, data, tmp_path, capsysbinary):
    out = tmp_path / "out"
    argv = data.draw(argvs(command, [str(out), "-", str(tmp_path), str(tmp_path / "no" / "x")]))
    out.unlink(missing_ok=True)
    code = run(argv)
    stdout, stderr = capsysbinary.readouterr()
    assert 0 <= code <= 5
    assert b"Traceback" not in stdout + stderr
    assert_finite(stdout)
    if out.exists():
        assert_finite(out.read_bytes())
