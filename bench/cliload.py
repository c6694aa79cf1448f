"""`cli`: one-shot `python -m aladders.cli` processes, one child at a time.

Every round runs the same 21 invocations with seeded parameters:

* 16 small queries: zero-modes (3), chain (2 closed, 1 brute force), gram
  --row 12 (2), lower (2, solve rows <= 10), resolution --nu 40 (2), density
  --format bin (2 principal states, 1 chain state), and a repeat of the
  first invocation, whose bytes must be identical;
* heavy ones: uncertainty --nu-max 2000, density --level 100 as CSV written
  to a file and as binary on stdout (the two must agree bit for bit), and
  selftest;
* one kept operation that fails every time today: chain --chain 0 --level
  200 --alpha 2.5 --beta 1 ends in an OverflowError traceback (exit 1).

Only here are interpreter start, imports and output writing paid, and
`chains` and `position` are used cold: single calls that write results.
"""

from __future__ import annotations

import atexit
import cmath
import json
import math
import os
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
import reference as ref
from harness import Task, Tracer, cycle_rounds

ROOT = Path(__file__).resolve().parent.parent
SELFTEST_LINE = "selftest: 15 passed, 0 failed"
KEPT_CHAIN = ("chain", "--chain", "0", "--level", "200", "--alpha", "2.5", "--beta", "1")


def sizes(small: bool) -> dict:
    if small:
        return {"gram_row": 6, "nu": 8, "nu_max": 50, "panel_level": 20,
                "panel_cells": ("--nx", "40", "--ny", "40"), "small_level": 8,
                "small_cells": 60}
    return {"gram_row": 12, "nu": 40, "nu_max": 2000, "panel_level": 100,
            "panel_cells": (), "small_level": 30, "small_cells": 160}


def fmt(z: complex) -> str:
    """'re,im' with every digit; pass it as --flag=VALUE, since a leading
    minus sign would otherwise read as a flag."""
    return f"{z.real!r},{z.imag!r}"


def parse_grid(buf: bytes):
    """(nx, ny, bounds, values) of the binary grid format."""
    if len(buf) < 32:
        raise ValueError("truncated grid header")
    magic, nx, ny, *bounds = struct.unpack("<8sII4f", buf[:32])
    if magic != b"ALGRID01" or len(buf) != 32 + 8 * nx * ny:
        raise ValueError("bad grid magic or payload size")
    return nx, ny, bounds, np.frombuffer(buf[32:], dtype="<f8").reshape(nx, ny)



def check_zero_modes(data, n, alpha, beta):
    gamma = np.array([complex(*g) for g in data["gamma"]])
    if data["n"] != n or len(gamma) != n + 1 or gamma[0] != 1:
        return "zero-modes: wrong n, length or gamma_0"
    norm_sq = float(np.sum(np.abs(gamma) ** 2))
    if not abs(data["norm_sq"] - norm_sq) <= 1e-12 * norm_sq:
        return "zero-modes: norm_sq is not the sum of |gamma|^2"
    return checks.zero_mode(gamma, n, alpha, beta)


def check_chain(data, chain, level, alpha, beta, tr):
    got = ref.fock_to_level(
        (((r["n"], r["m"]), complex(r["re"], r["im"])) for r in data["vector"]),
        chain + level)
    return checks.chain_state(got, chain, level, alpha, beta, tr)


def check_gram(data, row, alpha, beta):
    if data["labels"] != [[2 * k, row - 2 * k] for k in range(row // 2 + 1)]:
        return "gram: wrong labels"
    mat = np.array([[complex(*z) for z in line] for line in data["matrix"]])
    return checks.gram(mat, row, alpha, beta)


def check_lower(data, chain, level, alpha, beta, tr):
    if not data["residual"] <= checks.TOL_RESIDUAL:
        return f"lower: reported residual {data['residual']:.3e}"
    return checks.lowering([(t["chain"], t["level"]) for t in data["terms"]],
                           [complex(t["re"], t["im"]) for t in data["terms"]],
                           chain, level, alpha, beta, tr)


def check_resolution(data, nu, tr):
    if data["nu"] != nu:
        return "resolution: wrong level"
    return checks.identity(np.diag(data["diagonal"]), nu, tr)


def check_uncertainty(text, nu_max, a_mag, b_mag, rng, tr):
    lines = text.splitlines()
    if lines[0] != "nu,product_a,product_b" or len(lines) != nu_max + 2:
        return "uncertainty: wrong header or row count"
    rows = [line.split(",") for line in lines[1:]]
    if [int(r[0]) for r in rows] != list(range(nu_max + 1)):
        return "uncertainty: levels are not 0..nu_max"
    sampled = {int(rng.integers(0, 40)), int(rng.integers(40, nu_max + 1))}
    for nu, (_nu, pa, pb) in enumerate(rows):
        err = checks.products(nu, float(pa), float(pb), a_mag, b_mag, nu in sampled, tr)
        if err:
            return "uncertainty: " + err
    return None


def check_csv_vs_bin(text, grid_values, xs, ys):
    lines = text.split("\n")
    if lines[0] != "x,y,density" or lines[-1] != "" or len(lines) != xs.size * ys.size + 2:
        return "density csv: wrong header or row count"
    cols = np.array([float(t) for line in lines[1:-1] for t in line.split(",")])
    cols = cols.reshape(-1, 3)
    if not (np.array_equal(cols[:, 0], np.repeat(xs, ys.size))
            and np.array_equal(cols[:, 1], np.tile(ys, xs.size))):
        return "density csv: coordinates are not the x-major grid"
    if cols[:, 2].tobytes() != np.ascontiguousarray(grid_values.ravel()).tobytes():
        return "density csv: values differ from the binary grid"
    return None


class Cli:
    def __init__(self, seed: int, tr: Tracer, small: bool = False):
        self.tr = tr
        self.size = sizes(small)
        self.rng = np.random.default_rng([seed, 4])
        self.check_rng = np.random.default_rng([seed, 40])
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.work = Path(tempfile.mkdtemp(prefix="work-", dir=self.out_dir()))
        atexit.register(shutil.rmtree, self.work, True)
        self.peak_rss_kb = 0
        self.output_bytes = 0
        self.warm = self.draw(1.5, 3.5)

    @staticmethod
    def out_dir() -> Path:
        path = ROOT / "bench" / "out"
        path.mkdir(exist_ok=True)
        return path

    def draw(self, lo: float, hi: float) -> tuple[complex, complex]:
        b_mag = self.rng.uniform(0.7, 1.3)
        return (cmath.rect(self.rng.uniform(lo, hi) * b_mag, self.rng.uniform(0, 2 * math.pi)),
                cmath.rect(b_mag, self.rng.uniform(0, 2 * math.pi)))

    def invoke(self, argv) -> tuple[int, bytes, bytes]:
        """Run one child; its peak RSS comes from wait4 on that child alone."""
        cmd = [sys.executable, "-m", "aladders.cli", *argv]
        with open(self.work / "stderr", "w+b") as err_fh:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                    stdout=subprocess.PIPE, stderr=err_fh)
            out = proc.stdout.read()
            proc.stdout.close()
            _pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            err_fh.seek(0)
            err = err_fh.read()
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, out, err

    def warmup(self) -> None:
        alpha, beta = self.warm
        self.invoke(["zero-modes", "--n", "3", "--alpha=" + fmt(alpha), "--beta=" + fmt(beta)])
        self.peak_rss_kb = 0  # peak_rss_mb covers the timed children only

    def rounds(self):
        return cycle_rounds(self.make_round)

    def task(self, argv, check, kept=False, out_file=None) -> Task:
        sub = argv[0]

        def run():
            rc, out, err = self.tr.call("cli." + sub, self.invoke, argv)
            self.output_bytes += len(out)
            if out_file is not None and out_file.exists():
                self.output_bytes += out_file.stat().st_size
            return rc, out, err

        def checked(result):
            rc, out, err = result
            if rc != 0 or b"Traceback" in err:
                return f"exit {rc}: {err.decode(errors='replace').strip()[-200:]}"
            return check(out)

        return Task("cli." + sub, run, checked, kept)

    def make_round(self, _index: int) -> list[Task]:
        size, rng, tr = self.size, self.rng, self.tr
        tasks = []

        def params(lo=1.5, hi=3.5):
            alpha, beta = self.draw(lo, hi)
            return alpha, beta, ["--alpha=" + fmt(alpha), "--beta=" + fmt(beta)]

        first = {}
        for i in range(3):
            n = int(rng.integers(2, 7))
            alpha, beta, flags = params(0.3, 3.0)
            argv = ["zero-modes", "--n", str(n), *flags]
            first.setdefault("argv", argv)

            def check(out, n=n, a=alpha, b=beta, keep=(i == 0)):
                if keep:
                    first["out"] = out
                return check_zero_modes(json.loads(out), n, a, b)
            tasks.append(self.task(argv, check))

        for method in ("closed", "bruteforce", "closed"):
            chain, level = 2 * int(rng.integers(0, 3)), int(rng.integers(3, 9))
            alpha, beta, flags = params()
            argv = ["chain", "--chain", str(chain), "--level", str(level),
                    "--method", method, *flags]
            tasks.append(self.task(argv, lambda out, c=chain, lv=level, a=alpha, b=beta:
                                   check_chain(json.loads(out), c, lv, a, b, tr)))

        row = size["gram_row"]
        for _ in range(2):
            alpha, beta, flags = params()
            tasks.append(self.task(["gram", "--row", str(row), *flags],
                                   lambda out, a=alpha, b=beta:
                                   check_gram(json.loads(out), row, a, b)))

        for _ in range(2):
            total = int(rng.integers(3, 12))
            chain = 2 * int(rng.integers(0, (total - 1) // 2 + 1))
            alpha, beta, flags = params()
            argv = ["lower", "--chain", str(chain), "--level", str(total - chain), *flags]
            tasks.append(self.task(argv, lambda out, c=chain, lv=total - chain, a=alpha,
                                   b=beta: check_lower(json.loads(out), c, lv, a, b, tr)))

        nu = size["nu"]
        for nodes in rng.choice(np.arange(64, 161), size=2, replace=False):
            tasks.append(self.task(["resolution", "--nu", str(nu), "--nodes", str(nodes)],
                                   lambda out: check_resolution(json.loads(out), nu, tr)))

        for chain in (0, 2, 0):
            level = size["small_level"] + int(rng.integers(0, 11))
            tasks.append(self.small_density(chain, level, *params()))

        # the round's first invocation again: its bytes must be identical
        tasks.append(self.task(first["argv"], lambda out: None if out == first["out"]
                               else "repeat: output bytes differ"))

        alpha, beta, flags = params(0.3, 3.0)
        tasks.append(self.task(["uncertainty", "--nu-max", str(size["nu_max"]), *flags],
                               lambda out: check_uncertainty(
                                   out.decode(), size["nu_max"], abs(alpha), abs(beta),
                                   self.check_rng, tr)))
        tasks.extend(self.panel_tasks())

        def check_selftest(out):
            last = out.decode().strip().splitlines()[-1]
            return None if last == SELFTEST_LINE else "selftest: " + last
        tasks.append(self.task(["selftest"], check_selftest))

        tasks.append(self.task(list(KEPT_CHAIN), lambda out: check_chain(
            json.loads(out), 0, 200, 2.5, 1.0, tr), kept=True))
        return tasks

    def small_density(self, chain, level, alpha, beta, flags) -> Task:
        if chain == 0:
            nu, amps = level, ref.principal_amplitudes_mp(level, alpha, beta)
        else:
            nu, amps = chain + level, ref.chain_dense(chain, level, alpha, beta)
        items = [((k, nu - 2 * k), a) for k, a in enumerate(amps)]
        # bounds on a 1/4 grid are exact in the header's float32
        xh = math.ceil(4 * (math.sqrt(nu / 2 + 0.5) + 2.5)) / 4
        yh = math.ceil(4 * (math.sqrt(2 * nu + 1) + 3.5)) / 4
        cells = self.size["small_cells"]
        argv = ["density", "--chain", str(chain), "--level", str(level), *flags,
                f"--xmin={-xh!r}", f"--xmax={xh!r}", f"--ymin={-yh!r}",
                f"--ymax={yh!r}", "--nx", str(cells), "--ny", str(cells),
                "--format", "bin"]

        def check(out):
            nx, ny, bounds, values = parse_grid(out)
            if (nx, ny) != (cells, cells) or bounds != [-xh, xh, -yh, yh]:
                return "density: wrong grid header"
            return checks.density(values, np.linspace(-xh, xh, nx),
                                  np.linspace(-yh, yh, ny), items, self.check_rng, 1,
                                  self.tr)
        return self.task(argv, check)

    def panel_tasks(self) -> list[Task]:
        """density --level 100 on the default window, as binary on stdout and
        as a CSV file; the CSV check reads the binary task's grid."""
        size, rng = self.size, self.rng
        level = size["panel_level"]
        theta = rng.uniform(0, 2 * math.pi)
        alpha = cmath.rect(3.0 * rng.uniform(0.98, 1.02), theta)
        beta = cmath.rect(rng.uniform(0.98, 1.02) / math.sqrt(2.0),
                          theta + math.pi / 2 + rng.uniform(-0.05, 0.05))
        base = ["density", "--level", str(level), "--alpha=" + fmt(alpha),
                "--beta=" + fmt(beta), *size["panel_cells"]]
        items = list(zip([(k, level - 2 * k) for k in range(level // 2 + 1)],
                         ref.principal_amplitudes_mp(level, alpha, beta)))
        csv_path = self.work / "density.csv"
        grid = {}

        def check_bin(out):
            nx, ny, _bounds, values = parse_grid(out)
            xs, ys = np.linspace(-8.0, 8.0, nx), np.linspace(-16.0, 16.0, ny)
            grid.update(values=values, xs=xs, ys=ys)
            return checks.density(values, xs, ys, items, self.check_rng, 1, self.tr)

        def check_csv(_out):
            text = csv_path.read_text()
            csv_path.unlink()
            return check_csv_vs_bin(text, grid["values"], grid["xs"], grid["ys"])

        return [self.task([*base, "--format", "bin"], check_bin),
                self.task([*base, "--format", "csv", "--out", str(csv_path)], check_csv,
                          out_file=csv_path)]

    def layer_extras(self) -> dict:
        """Interpreter start and the import of aladders.cli, each the median
        of three fresh processes."""
        def wall(code):
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=self.env,
                               check=True)
                times.append(time.perf_counter() - t0)
            return statistics.median(times)

        interpreter = wall("pass")
        return {"cli.interpreter_s": interpreter,
                "cli.import_s": wall("import aladders.cli") - interpreter,
                "cli.output_bytes": self.output_bytes}
