"""The package's numerical guarantees, each written once.

Every function computes the figure one guarantee is judged by, from
explicit inputs (parameter draws, states, sizes); the constant beside it is
the bound that figure must meet.  ``tests/test_acceptance.py`` runs them at
the acceptance gate's seeds and sizes, and ``selftest_checks`` runs them at
the smaller sizes of ``aladders selftest``, together with four checks only
the selftest makes.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.polynomial.laguerre import laggauss

from . import chains, position, principal, resolution, zero_modes
from .fock import (
    FockVector,
    a_minus,
    a_plus,
    apply_hamiltonian,
    apply_momentum,
    apply_position,
    b_minus,
    b_plus,
    inner,
)
from .operators import ModeParams, apply_commutator, apply_lowering, apply_raising

# (p, v, u): parameters and two states for the operator-algebra checks
Draw = tuple[ModeParams, FockVector, FockVector]


# ------------------------------------------------------------- random draws

def random_params(rng: np.random.Generator,
                  ratio_range: tuple[float, float] = (0.5, 2.0)) -> ModeParams:
    """Random ModeParams with |alpha|/|beta| inside ratio_range.

    Phases are uniform; |beta| is drawn from [0.6, 1.4] so the overall
    magnitude stays O(1).
    """
    ratio = rng.uniform(*ratio_range)
    beta_mag = rng.uniform(0.6, 1.4)
    alpha_mag = ratio * beta_mag
    pa, pb = rng.uniform(0.0, 2.0 * np.pi, size=2)
    return ModeParams(alpha=alpha_mag * np.exp(1j * pa),
                      beta=beta_mag * np.exp(1j * pb))


# random_state sums this many draws of a ket with n, m <= STATE_MAX_QUANTA
STATE_DRAWS = 6
STATE_MAX_QUANTA = 12


def random_state(rng: np.random.Generator) -> FockVector:
    """Random normalized sparse vector of up to STATE_DRAWS kets."""
    items = {}
    for _ in range(STATE_DRAWS):
        n = int(rng.integers(0, STATE_MAX_QUANTA + 1))
        m = int(rng.integers(0, STATE_MAX_QUANTA + 1))
        re, im = rng.standard_normal(2)
        items[(n, m)] = items.get((n, m), 0.0) + complex(re, im)
    v = FockVector(items)
    if not v:  # absurdly unlikely, but keep the helper total
        v = FockVector.basis(0, 0)
    return v.normalized()


# --------------------------------------------------------- operator algebra

ALGEBRA_TOL = 1e-12


def ladder_commutator_deviation(states: Iterable[FockVector]) -> float:
    """Worst amplitude of [a-, a+] - 1, [b-, b+] - 1 and [a-, b+] on the states."""
    worst = 0.0
    for v in states:
        for minus, plus in ((a_minus, a_plus), (b_minus, b_plus)):
            worst = max(worst, (minus(plus(v)) - plus(minus(v)) - v).max_abs())
        worst = max(worst, (a_minus(b_plus(v)) - b_plus(a_minus(v))).max_abs())
    return worst


def commutator_deviation(draws: Iterable[Draw]) -> float:
    """Worst amplitude of [A-, A+] v against |alpha|^2 + |beta|^2 (N_b - N_a)."""
    worst = 0.0
    for p, v, _u in draws:
        want = FockVector(
            ((k, (abs(p.alpha) ** 2 + abs(p.beta) ** 2 * (k[1] - k[0])) * a)
             for k, a in v.items())
        )
        worst = max(worst, (apply_commutator(p, v) - want).max_abs())
    return worst


def level_shift_deviation(draws: Iterable[Draw]) -> float:
    """Worst amplitude of [H, A+] - A+ and [H, A-] + A- on v."""
    worst = 0.0
    for p, v, _u in draws:
        up = apply_raising(p, v)
        worst = max(worst, (apply_hamiltonian(up)
                            - apply_raising(p, apply_hamiltonian(v))
                            - up).max_abs())
        dn = apply_lowering(p, v)
        worst = max(worst, (apply_hamiltonian(dn)
                            - apply_lowering(p, apply_hamiltonian(v))
                            + dn).max_abs())
    return worst


def adjointness_deviation(draws: Iterable[Draw]) -> float:
    """Worst |<A+ u | v> - <u | A- v>|."""
    return max((abs(inner(apply_raising(p, u), v) - inner(u, apply_lowering(p, v)))
                for p, v, u in draws), default=0.0)


def canonical_deviation(states: Iterable[FockVector]) -> float:
    """Worst amplitude of [Q, P] - i in either mode."""
    worst = 0.0
    for v in states:
        for mode in ("a", "b"):
            comm = (apply_position(mode, apply_momentum(mode, v))
                    - apply_momentum(mode, apply_position(mode, v)))
            worst = max(worst, (comm - 1j * v).max_abs())
    return worst


def algebra_deviation(draws: Sequence[Draw]) -> float:
    """Worst deviation over every operator identity above."""
    return max(commutator_deviation(draws), level_shift_deviation(draws),
               adjointness_deviation(draws),
               canonical_deviation(v for _p, v, _u in draws))


# --------------------------------------------------------------- zero modes

ANNIHILATION_TOL = 1e-10


def zero_mode_residual(params: Iterable[ModeParams], n_max: int) -> float:
    """Worst ||A- z_n|| / max(|alpha|, |beta|) over zero modes n <= n_max."""
    worst = 0.0
    for p in params:
        scale = max(abs(p.alpha), abs(p.beta))
        for n in range(n_max + 1):
            res = apply_lowering(p, zero_modes.zero_mode_state(n, p)).norm() / scale
            worst = max(worst, res)
    return worst


RECURSION_TOL = 1e-12


def zero_mode_recursion_error(params: Iterable[ModeParams], ns: Sequence[int]) -> float:
    """Worst relative gap between closed-form and recursive coefficients."""
    worst = 0.0
    for p in params:
        for n in ns:
            closed = zero_modes.ZeroModeCoeffs.build(n, p).gamma
            for got, want in zip(closed, zero_modes.zero_mode_coeffs_recursive(n, p)):
                worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
    return worst


def kernel_dimension_mismatch(params: Iterable[ModeParams], levels: Sequence[int]) -> str:
    """'' when the kernel of A- has dimension 1 on every even level and 0 on
    every odd one; otherwise the first level that breaks this."""
    for p in params:
        for nu in levels:
            want = 1 if nu % 2 == 0 else 0
            got = zero_modes.level_null_space_dim(nu, p)
            if got != want:
                return f"level {nu}: kernel dim {got} != {want}"
    return ""


# ------------------------------------------------------------------- chains

CHAIN_TOL = 1e-9


def chain_oracle_error(params: Iterable[ModeParams], chain_max: int, level_max: int) -> float:
    """Worst relative gap between the unpruned closed-form and brute-force
    chain arrays, in amplitudes and in log squared norms, over
    chain <= chain_max and level <= level_max."""
    worst = 0.0
    for p in params:
        for chain in range(0, chain_max + 1, 2):
            for level in range(level_max + 1):
                label = chains.ChainLabel(chain, level)
                brute, brute_log = chains._raised_chain(label, p)
                closed, closed_log = chains._level_block([label], p)
                amp = np.abs(closed[:, 0] - brute).max()
                worst = max(worst, amp / np.abs(brute).max(),
                            abs(float(closed_log[0]) - brute_log))
    return worst


LOWERING_TOL = 1e-8


def lowering_error(params: Iterable[ModeParams], row_max: int) -> float:
    """Worst relative residual of lowering_decomposition over every chain
    state of level >= 1 in rows 1..row_max."""
    worst = 0.0
    for p in params:
        for row in range(1, row_max + 1):
            for label in chains.row_labels(row):
                if label.level < 1:
                    continue
                worst = max(worst, chains.lowering_residual(label, p))
    return worst


# -------------------------------------------------------- principal chain

NORM_TOL = 1e-10


def norm_errors(params: Iterable[ModeParams], sum_max: int, op_max: int) -> tuple[float, float]:
    """Relative errors of the product-form principal norm N_nu against the
    modified-binomial sum (nu <= sum_max) and against the step norms of
    repeated A+ on |0,0> (nu <= op_max)."""
    worst_sum = 0.0
    worst_op = 0.0
    for p in params:
        for nu in range(sum_max + 1):
            direct = sum(
                principal.modified_binomial(nu, k, 2)
                * abs(p.alpha) ** (2 * (nu - k)) * abs(p.beta) ** (2 * k)
                for k in range(nu // 2 + 1)
            )
            prod = principal.principal_norm_sq(nu, p)
            worst_sum = max(worst_sum, abs(prod - direct) / direct)
        vec = FockVector.basis(0, 0)
        log_norm = 0.0
        for nu in range(1, op_max + 1):
            vec = apply_raising(p, vec)
            step = vec.norm()
            vec = (1.0 / step) * vec
            log_norm += 2.0 * math.log(step)
            want = math.lgamma(nu + 1) + principal.principal_log_norm_sq(nu, p)
            worst_op = max(worst_op, abs(math.expm1(log_norm - want)))
    return worst_sum, worst_op


SLOW_LOWERING_TOL = 1e-10


def slow_lowering_residual(params: Iterable[ModeParams], levels: Sequence[int]) -> float:
    """Worst principal.b_lowering_residual over the levels."""
    return max(principal.b_lowering_residual(nu, p) for p in params for nu in levels)


ORTHOGONALITY_TOL = 1e-10


def principal_overlap(params: Iterable[ModeParams], nu_max: int) -> float:
    """Worst |<z_nu | principal state at level 2 nu>| over 1 <= nu <= nu_max."""
    worst = 0.0
    for p in params:
        for nu in range(1, nu_max + 1):
            z = zero_modes.zero_mode_state(nu, p)
            ps = principal.principal_state(2 * nu, p).to_fock()
            worst = max(worst, abs(inner(z, ps)))
    return worst


UNCERTAINTY_TOL = 1e-9


def uncertainty_error(params: Iterable[ModeParams], nu_max: int) -> float:
    """Worst relative gap between closed-form and ladder-algebra uncertainty
    products in both modes, nu <= nu_max."""
    worst = 0.0
    for p in params:
        for nu in range(nu_max + 1):
            rep = principal.uncertainty_products(nu, p)
            da = principal.uncertainty_direct(nu, p, "a")
            db = principal.uncertainty_direct(nu, p, "b")
            worst = max(worst, abs(rep.product_a - da) / da,
                        abs(rep.product_b - db) / db)
    return worst


def vacuum_products_exact() -> bool:
    """Both vacuum products equal 1/4 exactly."""
    base = principal.uncertainty_products(0, ModeParams(1.0, 1.0))
    return base.product_a == 0.25 and base.product_b == 0.25


STAGGER_REL_TOL = 0.15


def slow_mode_staggering() -> bool:
    """At (alpha, beta) = (1, 100) the slow-mode product is 9/4 on odd levels
    3..15 and 1/4 on even levels 2..14, within STAGGER_REL_TOL."""
    p = ModeParams(1.0, 100.0)
    for nu in range(2, 16):
        want = 2.25 if nu % 2 else 0.25
        pb = principal.uncertainty_products(nu, p).product_b
        if not abs(pb - want) <= STAGGER_REL_TOL * want:
            return False
    return True


# ------------------------------------------------------- resolution, grids

# The bound on resolution.fullspace_identity_check, the worst deviation from
# the identity over every level subspace up to a cutoff.
IDENTITY_TOL = 1e-8

STATE_IDENTITY_TOL = 1e-12


def state_identity_deviation(nu_max: int) -> float:
    """Worst |M - I| over every entry of M = integral of mu_nu N_nu |psi><psi|
    over alpha and beta, on each level nu <= nu_max, from the principal
    states themselves.

    With u = |alpha| and t = |beta|^2/4, d^2alpha d^2beta = 2 u du dt
    darg(alpha) darg(beta).  Over the rule's weight e^-(u + t), every
    radial integrand is a polynomial of degree <= nu, so nu//2 + 1
    Gauss-Laguerre nodes are exact.  The trapezoid rule on nu//2 + 2 values
    of arg alpha cancels every phase e^{i(l - k) arg alpha}, |l - k| <= nu/2,
    of an off-diagonal entry; nothing else depends on arg beta, which gives
    2 pi.
    """
    worst = 0.0
    for nu in range(nu_max + 1):
        x, w = laggauss(nu // 2 + 1)
        args = 2.0 * math.pi * np.arange(nu // 2 + 2) / (nu // 2 + 2)
        total = np.zeros((nu // 2 + 1, nu // 2 + 1), dtype=complex)
        for u, wu in zip(x, w):
            for t, wt in zip(x, w):
                b = 2.0 * math.sqrt(t)
                # e^(u + t) takes back the rule's weight, which mu_nu carries
                radial = (2.0 * u * wu * wt * math.exp(u + t)
                          * resolution.measure_weight(nu, u, b))
                for arg in args:
                    ps = principal.principal_state(nu, ModeParams(cmath.rect(u, arg), b))
                    c = np.array(ps.coeffs)
                    total += radial * ps.norm_sq * np.outer(c, c.conj())
        total *= 4.0 * math.pi**2 / len(args)
        worst = max(worst, float(np.max(np.abs(total - np.eye(nu // 2 + 1)))))
    return worst


LISSAJOUS_MASS_TOL = 1e-3
TUBE_FRACTION_MIN = 0.90
L1_DISTANCE_MIN = 0.2


def lissajous_figures(
    params: Sequence[ModeParams], level: int
) -> tuple[list[float], list[float], float]:
    """Masses and best unit-radius tube fractions of the principal-state
    densities on the default grid, one per parameter set, and the L1
    distance between the first two."""
    grids, masses, fracs = [], [], []
    for p in params:
        v = principal.principal_state(level, p).to_fock()
        grid = position.density_grid(v, position.DEFAULT_DENSITY_GEOMETRY)
        amp_x, amp_y = position.lissajous_amplitudes(v)
        frac, _phase = position.best_tube_phase(grid, amp_x, amp_y, radius=1.0)
        grids.append(grid)
        masses.append(grid.integral())
        fracs.append(frac)
    return masses, fracs, position.l1_distance(grids[0], grids[1])


VACUUM_MASS_TOL = 1e-6


def vacuum_mass_error(geom: position.Grid2D) -> float:
    """|1 - integral| of the vacuum density on the grid."""
    return abs(position.density_grid(FockVector.basis(0, 0), geom).integral() - 1.0)


# ----------------------------------------------------------------- selftest

def _within(label: str, figure: float, tol: float) -> tuple[bool, str]:
    return figure <= tol, f"{label} {figure:.2e}"


def selftest_checks() -> list[tuple[str, Callable[[], tuple[bool, str]]]]:
    """The checks of ``aladders selftest`` as (name, call) pairs; each call
    returns (passed, detail)."""
    rng = np.random.default_rng(20240811)
    params = [random_params(rng) for _ in range(3)]
    states = [random_state(rng) for _ in range(20)]
    draws = [(p, random_state(rng), random_state(rng)) for p in params for _ in range(6)]

    def kernel():
        bad = kernel_dimension_mismatch(params[:2], range(1, 11))
        return not bad, bad or "levels 1..10"

    def identity():
        reduced = resolution.fullspace_identity_check(4)
        states = state_identity_deviation(4)
        return (reduced <= IDENTITY_TOL and states <= STATE_IDENTITY_TOL,
                f"worst deviation {reduced:.2e}, from the states {states:.2e}")

    return [
        ("ladder commutators", lambda: _within(
            "worst deviation", ladder_commutator_deviation(states), ALGEBRA_TOL)),
        ("raising/lowering adjointness", lambda: _within(
            "worst deviation", adjointness_deviation(draws), ALGEBRA_TOL)),
        ("level shift by one", lambda: _within(
            "worst deviation", level_shift_deviation(draws), ALGEBRA_TOL)),
        ("commutator closed form", lambda: _within(
            "worst deviation", commutator_deviation(draws), ALGEBRA_TOL)),
        ("zero-mode annihilation", lambda: _within(
            "worst residual", zero_mode_residual(params, 12), ANNIHILATION_TOL)),
        ("zero-mode coefficients closed vs recursion", lambda: _within(
            "worst relative error", zero_mode_recursion_error(params, (3, 10, 25)),
            RECURSION_TOL)),
        ("kernel dimension per level", kernel),
        ("chain closed form vs operator construction", lambda: _within(
            "worst relative error", chain_oracle_error(params[:2], 6, 6), CHAIN_TOL)),
        ("principal norms product vs sum vs operator", lambda: _within(
            "worst relative error", max(norm_errors(params, 20, 15)), NORM_TOL)),
        ("slow-mode lowering step", lambda: _within(
            "worst residual", slow_lowering_residual(params, (1, 2, 7, 15)),
            SLOW_LOWERING_TOL)),
        ("uncertainty closed forms vs ladder algebra", lambda: _within(
            "worst relative error", uncertainty_error(params, 15), UNCERTAINTY_TOL)),
        ("zero-mode/principal orthogonality", lambda: _within(
            "worst overlap", principal_overlap(params, 8), ORTHOGONALITY_TOL)),
        ("lowering decomposition residual", lambda: _within(
            "worst relative residual", lowering_error(params[:2], 8), LOWERING_TOL)),
        ("level identity by quadrature", identity),
        ("vacuum density mass", lambda: _within(
            "vacuum mass error",
            vacuum_mass_error(position.Grid2D(-6.0, 6.0, -6.0, 6.0, 201, 201)),
            VACUUM_MASS_TOL)),
    ]
