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
import sys

from . import chains, fock, position, principal, resolution, zero_modes
from .errors import ConvergenceError, DomainError, IllConditionedError
from .operators import ModeParams

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_CONVERGENCE = 3
EXIT_ILL_CONDITIONED = 4
EXIT_SELFTEST = 5

_EPILOG = """\
complex values are written as 're,im' or 'mag@phase_rad' (a bare real works too).

exit codes:
  0  success
  1  usage error (unknown flag, missing argument, bad literal)
  2  domain error (inputs outside an operation's mathematical domain)
  3  convergence error (quadrature drifted on node doubling)
  4  ill-conditioned Gram system
  5  selftest failure
"""


class _UsageError(Exception):
    def __init__(self, message: str = "", reported: bool = False):
        super().__init__(message)
        self.reported = reported


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(message, reported=True)


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


def _dump_json(obj, fh) -> None:
    fh.write(json.dumps(obj, sort_keys=True, indent=2))
    fh.write("\n")


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _add_params(sub):
    sub.add_argument("--alpha", type=parse_complex, required=True,
                     help="mixing parameter alpha")
    sub.add_argument("--beta", type=parse_complex, required=True,
                     help="mixing parameter beta (nonzero)")


def _add_common(sub):
    sub.add_argument("--out", default=None, help="output path (default stdout)")


def _add_drop_tol(sub):
    # only chain and density print a pruned vector; the other subcommands
    # compute on unpruned arrays, where a drop tolerance changes nothing
    sub.add_argument("--drop-tol", dest="drop_tol", type=float,
                     default=fock.DEFAULT_DROP_TOL,
                     help="sparse amplitude drop tolerance (default 1e-14)")


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
    _add_drop_tol(s)

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
    s.add_argument("--nodes", type=int, default=64, help="radial nodes per integral")
    _add_common(s)

    s = subs.add_parser("density", help="position-space density grid of a chain state")
    s.add_argument("--chain", type=int, default=0)
    s.add_argument("--level", type=int, required=True)
    _add_params(s)
    s.add_argument("--xmin", type=float, default=-8.0)
    s.add_argument("--xmax", type=float, default=8.0)
    s.add_argument("--ymin", type=float, default=-16.0)
    s.add_argument("--ymax", type=float, default=16.0)
    s.add_argument("--nx", type=int, default=600)
    s.add_argument("--ny", type=int, default=600)
    s.add_argument("--format", choices=("csv", "bin"), default="csv")
    _add_common(s)
    _add_drop_tol(s)

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
    with _out_stream(args.out) as fh:
        _dump_json(payload, fh)
    return EXIT_OK


def _cmd_chain(args) -> int:
    label = chains.ChainLabel(args.chain, args.level)
    p = ModeParams(args.alpha, args.beta)
    if args.method == "closed":
        block, logs = chains._level_block([label], p)
        amps, log_norm_sq = block[:, 0], float(logs[0])
    else:
        amps, log_norm_sq = chains._raised_chain(label, p)
    vec = fock.FockVector.from_level(label.chain + label.level, amps, args.drop_tol)
    norm_sq = zero_modes._exp_or_inf(log_norm_sq)
    payload = {
        "chain": label.chain,
        "level": label.level,
        # null where the squared norm is beyond a double, so stdout stays JSON
        "norm_sq": norm_sq if math.isfinite(norm_sq) else None,
        "log_norm_sq": log_norm_sq,
        "vector": vec.to_records(),
    }
    with _out_stream(args.out) as fh:
        _dump_json(payload, fh)
    return EXIT_OK


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
    with _out_stream(args.out) as fh:
        _dump_json(payload, fh)
    return EXIT_OK


def _cmd_lower(args) -> int:
    label = chains.ChainLabel(args.chain, args.level)
    p = ModeParams(args.alpha, args.beta)
    terms, residual = chains._lowering(label, p)
    payload = {
        "chain": label.chain,
        "level": label.level,
        "residual": residual,
        "terms": [
            {"chain": lab.chain, "level": lab.level, "re": c.real, "im": c.imag}
            for lab, c in terms
        ],
    }
    with _out_stream(args.out) as fh:
        _dump_json(payload, fh)
    return EXIT_OK


def _cmd_uncertainty(args) -> int:
    if args.nu_max < 0:
        raise DomainError(f"--nu-max must be >= 0, got {args.nu_max}")
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
    with _out_stream(args.out) as fh:
        _dump_json(payload, fh)
    return EXIT_OK


def _cmd_density(args) -> int:
    if args.chain + args.level > position.RECURRENCE_MAX:
        raise DomainError(
            f"density needs --chain + --level <= {position.RECURRENCE_MAX}, "
            f"got {args.chain + args.level}"
        )
    p = ModeParams(args.alpha, args.beta)
    if args.chain == 0:
        amps = principal.principal_state(args.level, p).coeffs
    else:
        amps = chains._level_block([chains.ChainLabel(args.chain, args.level)], p)[0][:, 0]
    vec = fock.FockVector.from_level(args.chain + args.level, amps, args.drop_tol)
    geom = position.Grid2D(args.xmin, args.xmax, args.ymin, args.ymax, args.nx, args.ny)
    grid = position.density_grid(vec, geom)
    if args.format == "bin":
        with _out_stream(args.out, binary=True) as fh:
            position.write_grid_binary(grid, fh)
    else:
        with _out_stream(args.out) as fh:
            position.write_grid_csv(grid, fh)
    return EXIT_OK


def _cmd_selftest(args) -> int:
    from . import criteria

    passed = failed = 0
    for name, fn in criteria.selftest_checks():
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        if ok:
            passed += 1
            print(f"ok   {name} ({detail})")
        else:
            failed += 1
            print(f"FAIL {name} ({detail})")
    print(f"selftest: {passed} passed, {failed} failed")
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
        if not exc.reported:
            print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
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
