"""The package's numerical guarantees, each written once.

Each guarantee is judged by a figure computed from explicit inputs
(parameter draws, states, sizes) against the constant beside it, its bound.
``CRITERIA``, the table at the end, has one row per guarantee: the
acceptance gate's call at the gate's seeds and sizes, and the lines
``aladders selftest`` prints, at smaller sizes.  ``tests/test_acceptance.py``
and the selftest both read their calls from it.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import Callable, Iterable, NamedTuple, Sequence

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
# (passed, detail): the verdict of one criterion at the inputs given
Verdict = tuple[bool, str]


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


def ladder_commutator_deviation(draws: Iterable[Draw]) -> float:
    """Worst amplitude of [a-, a+] - 1, [b-, b+] - 1 and [a-, b+] on v."""
    worst = 0.0
    for _p, v, _u in draws:
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


def _algebra(deviation: Callable[[Sequence], float], inputs: Sequence) -> Verdict:
    worst = deviation(inputs)
    return worst <= ALGEBRA_TOL, f"worst deviation {worst:.3e} over {len(inputs)} draws"


# --------------------------------------------------------------- zero modes

ANNIHILATION_TOL = 1e-10


def _annihilation(params: Sequence[ModeParams], n_max: int) -> Verdict:
    """Worst ||A- z_n|| / max(|alpha|, |beta|) over zero modes n <= n_max."""
    worst = max(apply_lowering(p, zero_modes.zero_mode_state(n, p)).norm()
                / max(abs(p.alpha), abs(p.beta))
                for p in params for n in range(n_max + 1))
    return (worst <= ANNIHILATION_TOL, f"worst scaled residual {worst:.3e} "
            f"(n <= {n_max}, {len(params)} parameter draws)")


RECURSION_TOL = 1e-12


def _recursion(params: Sequence[ModeParams], ns: Sequence[int]) -> Verdict:
    """Worst relative gap between closed-form and recursive coefficients."""
    worst = max(abs(got - want) / max(abs(want), 1e-300)
                for p in params for n in ns
                for got, want in zip(zero_modes.ZeroModeCoeffs.build(n, p).gamma,
                                     zero_modes.zero_mode_coeffs_recursive(n, p)))
    return worst <= RECURSION_TOL, f"worst relative error {worst:.3e} at n in {ns}"


def _kernel(params: Sequence[ModeParams], nu_max: int) -> Verdict:
    """The kernel of A- has dimension 1 on even levels <= nu_max, 0 on odd."""
    for p in params:
        for nu in range(nu_max + 1):
            got = zero_modes.level_null_space_dim(nu, p)
            if got != 1 - nu % 2:
                return False, f"level {nu}: kernel dim {got} != {1 - nu % 2}"
    odd, even = nu_max - 1 + nu_max % 2, nu_max - nu_max % 2
    return True, f"dim 0 at odd nu <= {odd}, dim 1 at even nu <= {even}"


# ------------------------------------------------------------------- chains

CHAIN_TOL = 1e-9


def _chains(params: Sequence[ModeParams], chain_max: int, level_max: int) -> Verdict:
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
                worst = max(worst, np.abs(closed[:, 0] - brute).max() / np.abs(brute).max(),
                            abs(float(closed_log[0]) - brute_log))
    return (worst <= CHAIN_TOL,
            f"worst relative error {worst:.3e} (2n <= {chain_max}, nu <= {level_max})")


LOWERING_TOL = 1e-8


def _lowering(params: Sequence[ModeParams], row_max: int) -> Verdict:
    """Worst relative residual of chains.lowering over every chain state of
    level >= 1 in rows 1..row_max."""
    worst = max(chains.lowering(label, p)[1]
                for p in params for row in range(1, row_max + 1)
                for label in chains.row_labels(row) if label.level >= 1)
    return (worst <= LOWERING_TOL,
            f"worst relative residual {worst:.3e} (chain+level <= {row_max})")


# -------------------------------------------------------- principal chain

NORM_TOL = 1e-10


def _norms(params: Sequence[ModeParams], sum_max: int, op_max: int) -> Verdict:
    """Relative errors of the product-form principal norm N_nu against the
    modified-binomial sum (nu <= sum_max) and against the step norms of
    repeated A+ on |0,0> (nu <= op_max)."""
    worst_sum = worst_op = 0.0
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
    return (worst_sum <= NORM_TOL and worst_op <= NORM_TOL,
            f"sum form {worst_sum:.3e} (nu <= {sum_max}), "
            f"operator norm {worst_op:.3e} (nu <= {op_max})")


SLOW_LOWERING_TOL = 1e-10


def _slow_lowering(params: Sequence[ModeParams], levels: Sequence[int]) -> Verdict:
    """Worst principal.b_lowering_residual over the levels."""
    worst = max(principal.b_lowering_residual(nu, p) for p in params for nu in levels)
    return worst <= SLOW_LOWERING_TOL, f"worst residual {worst:.3e} at nu in {levels}"


ORTHOGONALITY_TOL = 1e-10


def _orthogonality(params: Sequence[ModeParams], nu_max: int) -> Verdict:
    """Worst |<z_nu | principal state at level 2 nu>| over 1 <= nu <= nu_max."""
    worst = max(abs(inner(zero_modes.zero_mode_state(nu, p),
                          principal.principal_state(2 * nu, p).to_fock()))
                for p in params for nu in range(1, nu_max + 1))
    return worst <= ORTHOGONALITY_TOL, f"worst overlap {worst:.3e} (nu <= {nu_max})"


UNCERTAINTY_TOL = 1e-9
STAGGER_REL_TOL = 0.15


def _uncertainty(params: Sequence[ModeParams], nu_max: int) -> Verdict:
    """Worst relative gap between closed-form and ladder-algebra uncertainty
    products in both modes, nu <= nu_max; both vacuum products equal 1/4
    exactly; and at (alpha, beta) = (1, 100) the slow-mode product is 9/4
    on odd levels 3..15 and 1/4 on even levels 2..14, within
    STAGGER_REL_TOL."""
    worst = 0.0
    for p in params:
        for nu in range(nu_max + 1):
            rep = principal.uncertainty_products(nu, p)
            da = principal.uncertainty_direct(nu, p, "a")
            db = principal.uncertainty_direct(nu, p, "b")
            worst = max(worst, abs(rep.product_a - da) / da,
                        abs(rep.product_b - db) / db)
    vacuum = principal.uncertainty_products(0, ModeParams(1.0, 1.0))
    exact0 = vacuum.product_a == 0.25 and vacuum.product_b == 0.25
    slow = ModeParams(1.0, 100.0)
    wants = {nu: 2.25 if nu % 2 else 0.25 for nu in range(2, 16)}
    stag_ok = all(abs(principal.uncertainty_products(nu, slow).product_b - want)
                  <= STAGGER_REL_TOL * want for nu, want in wants.items())
    return (worst <= UNCERTAINTY_TOL and exact0 and stag_ok,
            f"worst relative error {worst:.3e} (nu <= {nu_max}), vacuum exact "
            f"{exact0}, slow-mode staggering at (1, 100) {stag_ok}")


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


def _identity(subspace_nu_max: int, states_nu_max: int) -> Verdict:
    worst_sub = resolution.fullspace_identity_check(subspace_nu_max)
    states = state_identity_deviation(states_nu_max)
    return (worst_sub <= IDENTITY_TOL and states <= STATE_IDENTITY_TOL,
            f"subspace max deviation {worst_sub:.3e} (nu <= {subspace_nu_max}), "
            f"from the states {states:.3e} (nu <= {states_nu_max}, every entry)")


LISSAJOUS_MASS_TOL = 1e-3
TUBE_FRACTION_MIN = 0.90
L1_DISTANCE_MIN = 0.2


def _lissajous() -> Verdict:
    """The level-100 principal-state densities of two parameter sets on the
    default grid: each has unit mass, the first keeps TUBE_FRACTION_MIN of
    it in the best unit-radius tube around its Lissajous curve, and the two
    lie L1_DISTANCE_MIN apart."""
    grids, masses, fracs = [], [], []
    for beta in (cmath.exp(1j * math.pi / 2) / math.sqrt(2), 1.0 / math.sqrt(2)):
        v = principal.principal_state(100, ModeParams(3.0, beta)).to_fock()
        grid = position.density_grid(v, position.DEFAULT_DENSITY_GEOMETRY)
        amp_x, amp_y = position.lissajous_amplitudes(v)
        fracs.append(position.best_tube_phase(grid, amp_x, amp_y, radius=1.0)[0])
        grids.append(grid)
        masses.append(grid.integral())
    dist = position.l1_distance(*grids)
    ok = (all(abs(m - 1.0) <= LISSAJOUS_MASS_TOL for m in masses)
          and fracs[0] >= TUBE_FRACTION_MIN and dist >= L1_DISTANCE_MIN)
    return ok, (f"masses {masses[0]:.6f}/{masses[1]:.6f}, tube fraction "
                f"{fracs[0]:.3f} (second grid {fracs[1]:.3f}), L1 distance {dist:.3f}")


VACUUM_MASS_TOL = 1e-6


def _vacuum_mass(geom: position.Grid2D) -> Verdict:
    """|1 - integral| of the vacuum density on the grid."""
    err = abs(position.density_grid(FockVector.basis(0, 0), geom).integral() - 1.0)
    return err <= VACUUM_MASS_TOL, f"mass error {err:.3e} on a {geom.nx}x{geom.ny} grid"


# -------------------------------------------------------------- the table

# the seed of every draw the selftest makes; the gate names its own
QUICK_SEED = 20240811


def _params(count: int, seed: int = QUICK_SEED,
            band: tuple[float, float] = (0.5, 2.0)) -> list[ModeParams]:
    rng = np.random.default_rng(seed)
    return [random_params(rng, band) for _ in range(count)]


@functools.cache  # four selftest lines share one draw of 18
def _draws(count: int, seed: int = QUICK_SEED) -> tuple[Draw, ...]:
    rng = np.random.default_rng(seed)
    return tuple((random_params(rng), random_state(rng), random_state(rng))
                 for _ in range(count))


class Criterion(NamedTuple):
    """One guarantee, its bounds and the calls that check it.

    ``number`` is the acceptance gate's criterion number, None for a check
    only ``aladders selftest`` makes.  ``gate`` runs the criterion at the
    gate's seeds, sizes and parameter bands, in the test
    ``test_criterion_NN_<key>``.  Each ``quick`` entry is one (name, call)
    line of the selftest, at smaller sizes.
    """

    number: int | None
    key: str
    name: str
    bounds: tuple[float, ...]
    gate: Callable[[], Verdict] | None
    quick: tuple[tuple[str, Callable[[], Verdict]], ...]


# ``aladders selftest`` prints its lines in the order of this table.
# Criterion 9 has no selftest line: its two level-100 panels and tube fits
# would take longer than all the other lines together.
CRITERIA: tuple[Criterion, ...] = (
    Criterion(None, "ladder_commutators", "ladder commutators", (ALGEBRA_TOL,), None, (
        ("ladder commutators", lambda: _algebra(ladder_commutator_deviation, _draws(18))),)),
    Criterion(10, "algebraic_identities", "operator algebra on random sparse states",
              (ALGEBRA_TOL,), lambda: _algebra(algebra_deviation, _draws(100, seed=110)), (
        ("raising/lowering adjointness", lambda: _algebra(adjointness_deviation, _draws(18))),
        ("level shift by one", lambda: _algebra(level_shift_deviation, _draws(18))),
        ("commutator closed form", lambda: _algebra(commutator_deviation, _draws(18))))),
    Criterion(1, "zero_mode_annihilation", "zero-mode annihilation", (ANNIHILATION_TOL,),
              lambda: _annihilation(_params(5, seed=101), 20), (
        ("zero-mode annihilation", lambda: _annihilation(_params(3), 12)),)),
    Criterion(None, "zero_mode_recursion", "zero-mode coefficients closed vs recursion",
              (RECURSION_TOL,), None, (
        ("zero-mode coefficients closed vs recursion",
         lambda: _recursion(_params(3), (3, 10, 25))),)),
    Criterion(2, "odd_level_nonexistence", "kernel dimension by level parity", (),
              lambda: _kernel(_params(2, seed=102), 15), (
        ("kernel dimension per level", lambda: _kernel(_params(2), 10)),)),
    Criterion(3, "closed_vs_bruteforce_chains", "closed-form chains vs operator construction",
              (CHAIN_TOL,), lambda: _chains(_params(2, seed=103, band=(0.6, 1.8)), 10, 10), (
        ("chain closed form vs operator construction", lambda: _chains(_params(2), 6, 6)),)),
    Criterion(4, "normalization_closed_forms", "product-form normalization", (NORM_TOL,),
              lambda: _norms(_params(3, seed=104), 30, 25), (
        ("principal norms product vs sum vs operator", lambda: _norms(_params(3), 20, 15)),)),
    Criterion(None, "slow_mode_lowering", "slow-mode lowering step",
              (SLOW_LOWERING_TOL,), None, (
        ("slow-mode lowering step", lambda: _slow_lowering(_params(3), (1, 2, 7, 15))),)),
    Criterion(8, "uncertainty_products", "uncertainty closed forms",
              (UNCERTAINTY_TOL, STAGGER_REL_TOL),
              lambda: _uncertainty(_params(2, seed=108), 30), (
        ("uncertainty closed forms vs ladder algebra", lambda: _uncertainty(_params(3), 15)),)),
    Criterion(5, "zero_mode_principal_orthogonality",
              "zero mode orthogonal to same-level principal state", (ORTHOGONALITY_TOL,),
              lambda: _orthogonality(_params(3, seed=105), 10), (
        ("zero-mode/principal orthogonality", lambda: _orthogonality(_params(3), 8)),)),
    # the gate's draws stay where the row Gram systems are numerically
    # invertible (|alpha|/|beta| >= 2.2); nearly parallel chains below that
    # ratio are refused by the solver and covered by the error-path tests
    Criterion(6, "lowering_decomposition", "lowering decomposition over the row below",
              (LOWERING_TOL,), lambda: _lowering(_params(3, seed=106, band=(2.2, 3.5)), 14), (
        ("lowering decomposition residual", lambda: _lowering(_params(2), 8)),)),
    Criterion(7, "resolution_of_identity", "resolution of the identity",
              (IDENTITY_TOL, STATE_IDENTITY_TOL), lambda: _identity(8, 12), (
        ("level identity by quadrature", lambda: _identity(4, 4)),)),
    Criterion(None, "vacuum_density_mass", "vacuum density mass", (VACUUM_MASS_TOL,), None, (
        ("vacuum density mass",
         lambda: _vacuum_mass(position.Grid2D(-6.0, 6.0, -6.0, 6.0, 201, 201))),)),
    Criterion(9, "lissajous_densities", "high-level density hugs the classical curve",
              (LISSAJOUS_MASS_TOL, TUBE_FRACTION_MIN, L1_DISTANCE_MIN), _lissajous, ()),
)
