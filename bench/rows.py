"""`rows`: chain rows, their Gram matrices and the lowering decomposition.

Every round is one seeded (alpha, beta) draw with |alpha|/|beta| in
[1.5, 3.5] and random phases, and the same task list:

* zero_mode: zero_mode_state(n) and apply_lowering on it, n = 2, 4, ..., 24;
* lower: lowering_decomposition of every label whose solve row is 1..10
  (Gram condition <= 4.4e6 across the band, far inside COND_LIMIT = 1e12);
* gram: gram_matrix on the deep rows 30, 40, 50 and 60;
* chain: chain_state_closed and chain_state_bruteforce at (20, 20),
  (30, 30) and (0, nu) with a seeded nu in 20..60.

`fock`, `zero_modes` and `chains` do nearly all of this work; `position`
does none.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

import checks
import reference as ref
from harness import Task, Tracer, cycle_rounds

RATIO_BAND = (1.5, 3.5)


def sizes(small: bool) -> dict:
    if small:
        return {"zero_modes": (2, 3), "solve_rows": range(1, 5),
                "gram_rows": (12,), "chains": ((4, 4), (6, 6)), "chain0": (8, 12)}
    return {"zero_modes": tuple(range(2, 26, 2)), "solve_rows": range(1, 11),
            "gram_rows": (30, 40, 50, 60), "chains": ((20, 20), (30, 30)),
            "chain0": (20, 60)}


def draw_params(rng) -> tuple[complex, complex]:
    ratio = rng.uniform(*RATIO_BAND)
    b_mag = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
    alpha = cmath.rect(ratio * b_mag, rng.uniform(0.0, 2.0 * math.pi))
    beta = cmath.rect(b_mag, rng.uniform(0.0, 2.0 * math.pi))
    return alpha, beta


def check_zero_mode(out, n, alpha, beta) -> str | None:
    """The zero mode is a unit vector annihilated by the dense A-, and
    apply_lowering on it agrees with the dense A-."""
    z, lz = out
    zd = ref.fock_to_level(z.items(), 2 * n)
    if abs(np.linalg.norm(zd) - 1.0) > 1e-12:
        return f"n={n}: zero mode norm {np.linalg.norm(zd)!r}"
    mat = ref.lowering_level_matrix(2 * n, alpha, beta)
    lib_image = ref.fock_to_level(lz.items(), 2 * n - 1)
    if not np.linalg.norm(lib_image - mat @ zd) <= checks.TOL_ZERO_MODE * np.linalg.norm(mat, 2):
        return f"n={n}: apply_lowering differs from the dense A-"
    return checks.zero_mode(zd, n, alpha, beta)


def check_chain(state, label, alpha, beta, tr: Tracer) -> str | None:
    if not math.isfinite(state.log_norm_sq):
        return f"{label}: log_norm_sq {state.log_norm_sq!r}"
    got = ref.fock_to_level(state.vector.items(), sum(label))
    return checks.chain_state(got, *label, alpha, beta, tr)


def check_lower(terms, label, alpha, beta, tr: Tracer) -> str | None:
    return checks.lowering([(lab.chain, lab.level) for lab, _c in terms],
                           [c for _lab, c in terms], *label, alpha, beta, tr)


class Rows:
    def __init__(self, seed: int, tr: Tracer, small: bool = False):
        import aladders

        self.lib = aladders
        self.tr = tr
        self.size = sizes(small)
        self.rng = np.random.default_rng([seed, 1])
        self.warm_params = draw_params(self.rng)

    def warmup(self) -> None:
        lab = self.lib.ChainLabel(2, 5)
        self.lib.lowering_decomposition(lab, self.lib.ModeParams(*self.warm_params))

    def rounds(self):
        return cycle_rounds(self.make_round)

    def make_round(self, _index: int) -> list[Task]:
        lib, tr, size = self.lib, self.tr, self.size
        alpha, beta = draw_params(self.rng)
        p = lib.ModeParams(alpha, beta)
        tasks = []

        for n in size["zero_modes"]:
            def run(n=n):
                z = tr.call("zero_modes.zero_mode_state", lib.zero_mode_state, n, p)
                lz = tr.call("operators.apply_lowering", lib.apply_lowering, p, z)
                tr.count("fock.kets", len(z) + len(lz))
                return z, lz
            tasks.append(Task("zero_mode", run,
                              lambda out, n=n: check_zero_mode(out, n, alpha, beta)))

        for row in size["solve_rows"]:
            for k in range((row + 1) // 2 + 1):
                label = (2 * k, row + 1 - 2 * k)
                if label[1] < 1:
                    continue
                def run(label=label):
                    try:
                        return tr.call("chains.lowering_decomposition",
                                       lib.lowering_decomposition,
                                       lib.ChainLabel(*label), p)
                    except lib.IllConditionedError:
                        tr.count("chains.refused")
                        raise
                tasks.append(Task("lower", run, lambda out, label=label:
                                  check_lower(out, label, alpha, beta, tr)))

        for row in size["gram_rows"]:
            def run(row=row):
                mat = tr.call("chains.gram_matrix", lib.gram_matrix, row, p)
                tr.count("chains.gram_entries", mat.size)
                return mat
            tasks.append(Task("gram", run, lambda out, row=row:
                              checks.gram(out, row, alpha, beta)))

        nu0 = int(self.rng.integers(size["chain0"][0], size["chain0"][1] + 1))
        for label in (*size["chains"], (0, nu0)):
            for method in ("chain_state_closed", "chain_state_bruteforce"):
                def run(label=label, method=method):
                    st = tr.call("chains." + method, getattr(lib, method),
                                 lib.ChainLabel(*label), p)
                    tr.count("fock.kets", len(st.vector))
                    return st
                tasks.append(Task("chain", run, lambda out, label=label:
                                  check_chain(out, label, alpha, beta, tr)))
        return tasks
