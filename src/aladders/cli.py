"""Command-line front end.

Subcommands map one-to-one onto the library: zero-modes, chain, gram, lower,
uncertainty, resolution, density, selftest.  Output is deterministic: the
same argv always produces byte-identical bytes.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 convergence error,
4 ill-conditioned linear system, 5 selftest failure.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import json
import math
import os
import struct
import sys

from . import chains, position, principal, resolution, zero_modes
from .errors import ConvergenceError, DomainError, IllConditionedError
from .operators import ModeParams

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_CONVERGENCE = 3
EXIT_ILL_CONDITIONED = 4
EXIT_SELFTEST = 5

# the largest sizes served, far above what the benchmark and the fuzz gate ask
NU_MAX_BOUND = 10_000
DENSITY_CELLS_BOUND = 4_000_000

_EPILOG = f"""\
complex values are written as 're,im' or 'mag@phase_rad' (a bare real works too).

exit codes:
  0  success
  1  usage error (unknown flag, missing argument, bad literal)
  2  domain error (inputs outside an operation's mathematical domain)
  3  convergence error (quadrature drifted on node doubling, or more radial
     nodes than the {resolution.MAX_NODES}-node ceiling)
  4  ill-conditioned Gram system
  5  selftest failure
"""


class _UsageError(Exception):
    """An --out path that cannot be written."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse's own report, with the usage exit code instead of 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def parse_complex(text: str) -> complex:
    """Parse 're,im', 'mag@phase_rad', or a bare real."""
    text = text.strip()
    try:
        if "@" in text:
            mag, phase = text.split("@", 1)
            return cmath.rect(float(mag), float(phase))
        if "," in text:
            re, im = text.split(",", 1)
            return complex(float(re), float(im))
        return complex(float(text), 0.0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse complex value {text!r}; use 're,im' or 'mag@phase_rad'"
        )


@contextlib.contextmanager
def _out_stream(path: str | None, binary: bool = False):
    """Stdout for no path or '-'.  A file is replaced only when the block
    returns, so a refused run leaves it as it was."""
    if path is None or path == "-":
        yield sys.stdout.buffer if binary else sys.stdout
        return
    target = tmp = path  # a device or pipe is written in place
    if os.path.isfile(path) or not os.path.exists(path):
        target = os.path.realpath(path)  # a symlink keeps its target
        tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb" if binary else "w") as fh:
            yield fh
        os.replace(tmp, target)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror or exc}")
    finally:
        if tmp != target:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)


def _write_json(path: str | None, payload) -> int:
    """Sorted, indented JSON and a newline to path or stdout; the exit code."""
    with _out_stream(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2))
        fh.write("\n")
    return EXIT_OK


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _add_params(sub):
    sub.add_argument("--alpha", type=parse_complex, required=True,
                     help="mixing parameter alpha")
    sub.add_argument("--beta", type=parse_complex, required=True,
                     help="mixing parameter beta (nonzero)")


def _add_common(sub):
    sub.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="aladders",
        description="Coherent-state chains of the 2:1 anisotropic oscillator.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subs = parser.add_subparsers(dest="command", metavar="COMMAND")

    s = subs.add_parser("zero-modes", help="expansion coefficients of one zero mode")
    s.add_argument("--n", type=int, required=True, help="chain index (level 2n)")
    _add_params(s)
    _add_common(s)

    s = subs.add_parser("chain", help="one chain state as a sparse vector")
    s.add_argument("--chain", type=int, required=True, help="even chain index 2n")
    s.add_argument("--level", type=int, required=True, help="raising steps nu")
    s.add_argument("--method", choices=("closed", "bruteforce"), default="closed")
    _add_params(s)
    _add_common(s)

    s = subs.add_parser("gram", help="overlap matrix of the chains meeting a level")
    s.add_argument("--row", type=int, required=True, help="energy level of the row")
    _add_params(s)
    _add_common(s)

    s = subs.add_parser("lower", help="expand a lowered chain state over the row below")
    s.add_argument("--chain", type=int, required=True)
    s.add_argument("--level", type=int, required=True)
    _add_params(s)
    _add_common(s)

    s = subs.add_parser("uncertainty", help="Heisenberg products along the principal chain")
    s.add_argument("--nu-max", dest="nu_max", type=int, required=True)
    _add_params(s)
    _add_common(s)

    s = subs.add_parser("resolution", help="level-subspace identity via radial quadrature")
    s.add_argument("--nu", type=int, required=True)
    s.add_argument("--nodes", type=int, default=resolution.QuadratureSpec().radial_nodes_alpha,
                   help="radial nodes per integral")
    _add_common(s)

    s = subs.add_parser("density", help="position-space density grid of a chain state")
    s.add_argument("--chain", type=int, default=0)
    s.add_argument("--level", type=int, required=True)
    _add_params(s)
    window = position.DEFAULT_DENSITY_GEOMETRY
    s.add_argument("--xmin", type=float, default=window.x_min)
    s.add_argument("--xmax", type=float, default=window.x_max)
    s.add_argument("--ymin", type=float, default=window.y_min)
    s.add_argument("--ymax", type=float, default=window.y_max)
    s.add_argument("--nx", type=int, default=window.nx)
    s.add_argument("--ny", type=int, default=window.ny)
    s.add_argument("--format", choices=("csv", "bin"), default="csv")
    _add_common(s)

    subs.add_parser("selftest", help="run the bundled oracle-equivalence checks")

    return parser


def _cmd_zero_modes(args) -> int:
    coeffs = zero_modes.ZeroModeCoeffs.build(args.n, ModeParams(args.alpha, args.beta))
    payload = {
        "n": coeffs.n,
        # null beyond a double, as in chain, so stdout stays JSON
        "gamma": [_pair(g) if cmath.isfinite(g) else None for g in coeffs.gamma],
        "norm_sq": coeffs.norm_sq if math.isfinite(coeffs.norm_sq) else None,
    }
    return _write_json(args.out, payload)


def _cmd_chain(args) -> int:
    label = chains.ChainLabel(args.chain, args.level)
    build = (chains.chain_state_closed if args.method == "closed"
             else chains.chain_state_bruteforce)
    st = build(label, ModeParams(args.alpha, args.beta))
    payload = {
        "chain": label.chain,
        "level": label.level,
        # null where the squared norm is beyond a double, so stdout stays JSON
        "norm_sq": st.norm_sq if math.isfinite(st.norm_sq) else None,
        "log_norm_sq": st.log_norm_sq,
        "vector": st.vector.to_records(),
    }
    return _write_json(args.out, payload)


def _cmd_gram(args) -> int:
    p = ModeParams(args.alpha, args.beta)
    mat = chains.gram_matrix(args.row, p)
    cond = chains.gram_condition(args.row, p)
    payload = {
        "row": args.row,
        "labels": [[lab.chain, lab.level] for lab in chains.row_labels(args.row)],
        # null where C is singular or cond(C)^2 is beyond a double
        "condition": cond if math.isfinite(cond) else None,
        "matrix": [[_pair(complex(z)) for z in line] for line in mat],
    }
    return _write_json(args.out, payload)


def _cmd_lower(args) -> int:
    label = chains.ChainLabel(args.chain, args.level)
    p = ModeParams(args.alpha, args.beta)
    terms, residual = chains.lowering(label, p)
    payload = {
        "chain": label.chain,
        "level": label.level,
        "residual": residual,
        "terms": [
            {"chain": lab.chain, "level": lab.level, "re": c.real, "im": c.imag}
            for lab, c in terms
        ],
    }
    return _write_json(args.out, payload)


def _cmd_uncertainty(args) -> int:
    if not 0 <= args.nu_max <= NU_MAX_BOUND:
        raise DomainError(f"--nu-max must be in 0..{NU_MAX_BOUND}, got {args.nu_max}")
    p = ModeParams(args.alpha, args.beta)
    # every row before the first write, so a refused level leaves no part
    reps = [principal.uncertainty_products(nu, p) for nu in range(args.nu_max + 1)]
    with _out_stream(args.out) as fh:
        fh.write("nu,product_a,product_b\n")
        for rep in reps:
            fh.write(f"{rep.nu},{rep.product_a!r},{rep.product_b!r}\n")
    return EXIT_OK


def _cmd_resolution(args) -> int:
    quad = resolution.QuadratureSpec(args.nodes, args.nodes)
    diag = resolution.subspace_identity(args.nu, quad).tolist()
    payload = {
        "nu": args.nu,
        "nodes": [quad.radial_nodes_alpha, quad.radial_nodes_beta],
        "diagonal": diag,
        "max_deviation": max(abs(d - 1.0) for d in diag),
    }
    return _write_json(args.out, payload)


def _cmd_density(args) -> int:
    if args.chain + args.level > position.RECURRENCE_MAX:
        raise DomainError(
            f"density needs --chain + --level <= {position.RECURRENCE_MAX}, "
            f"got {args.chain + args.level}"
        )
    # Grid2D checks the sizes and bounds without allocating the grid
    geom = position.Grid2D(args.xmin, args.xmax, args.ymin, args.ymax, args.nx, args.ny)
    if geom.nx * geom.ny > DENSITY_CELLS_BOUND:
        raise DomainError(f"density needs --nx * --ny <= {DENSITY_CELLS_BOUND}, "
                          f"got {geom.nx * geom.ny}")
    # the binary header holds the bounds as float32, so the grid read back is
    # the grid computed only where float32 holds each bound exactly
    bin_bounds = ("xmin", "xmax", "ymin", "ymax") if args.format == "bin" else ()
    for flag in bin_bounds:
        bound = getattr(args, flag)
        try:
            exact = struct.unpack("<f", struct.pack("<f", bound))[0] == bound
        except OverflowError:  # beyond float32's range
            exact = False
        if not exact:
            raise DomainError(f"the binary format holds grid bounds as float32, "
                              f"which does not hold --{flag} {bound!r} exactly")
    p = ModeParams(args.alpha, args.beta)
    if args.chain == 0:
        vec = principal.principal_state(args.level, p).to_fock()
    else:
        vec = chains.chain_state_closed(chains.ChainLabel(args.chain, args.level), p).vector
    grid = position.density_grid(vec, geom)
    if args.format == "bin":
        with _out_stream(args.out, binary=True) as fh:
            position.write_grid_binary(grid, fh)
    else:
        with _out_stream(args.out) as fh:
            position.write_grid_csv(grid, fh)
    return EXIT_OK


def _cmd_selftest(args) -> int:
    from .criteria import CRITERIA

    lines = [line for row in CRITERIA for line in row.quick]
    failed = 0
    for name, check in lines:
        try:
            ok, detail = check()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    print(f"selftest: {len(lines) - failed} passed, {failed} failed")
    return EXIT_OK if failed == 0 else EXIT_SELFTEST


_HANDLERS = {
    "zero-modes": _cmd_zero_modes,
    "chain": _cmd_chain,
    "gram": _cmd_gram,
    "lower": _cmd_lower,
    "uncertainty": _cmd_uncertainty,
    "resolution": _cmd_resolution,
    "density": _cmd_density,
    "selftest": _cmd_selftest,
}


def run(argv: list[str]) -> int:
    """Parse argv and execute; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse: --help, or a usage error it reported
        return int(exc.code or 0)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except IllConditionedError as exc:
        print(
            f"ill-conditioned system (condition {exc.condition:.3e}): {exc}",
            file=sys.stderr,
        )
        return EXIT_ILL_CONDITIONED


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
