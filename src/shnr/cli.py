"""Command-line front end.

Three subcommands:

``compute``
    one quantity for a pair of JSON matrices (A, T): seminorms, radii,
    adjoints and A-real/imaginary parts;

``membership``
    the A-adjointability verdict and its range residual;

``check``
    the seeded inequality suite, serialized to a report file.

Matrix files use ``{"rows": n, "cols": m, "data": [[re, im], ...]}``
row-major.  Scalars print with 12 significant digits; report files carry
full shortest-round-trip floats so witnesses replay exactly.  The
environment variable ``SHNR_RTOL`` overrides the default relative
tolerance 1e-10 that drives all rank decisions and membership tests.

Exit codes: 0 success, 1 suite violations, 2 parse/shape/flag errors,
3 operator outside the A-adjointable class, 4 inducing matrix not
Hermitian PSD.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import radius, semihilbert, seminorms, serialize, verify
from .exceptions import (
    AlphaOutOfRangeError,
    DimensionMismatchError,
    NotHermitianError,
    NotMemberError,
    NotPositiveError,
    ShnrError,
    ZeroOperatorError,
)
from .linalg import DEFAULT_RTOL

QUANTITIES = (
    "norm_a",
    "omega_a",
    "adjoint",
    "re_a",
    "im_a",
    "alpha_norm",
    "big_omega",
    "gamma_a",
    "gen_radius",
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_NOT_MEMBER = 3
EXIT_BAD_A = 4


def _fmt(x: float) -> str:
    ax = abs(x)
    if x != 0.0 and (ax < 1e-4 or ax >= 1e13):
        return np.format_float_scientific(x, precision=11, unique=False)
    return np.format_float_positional(
        x, precision=12, unique=False, fractional=False, trim="k"
    )


def _env_rtol() -> float:
    raw = os.environ.get("SHNR_RTOL")
    if raw is None:
        return DEFAULT_RTOL
    try:
        val = float(raw)
    except ValueError as exc:
        raise DimensionMismatchError(f"SHNR_RTOL={raw!r} is not a number") from exc
    return val


def _context(a, rtol):
    """``build_context``, with an rtol it refuses reported as a usage error."""
    try:
        return semihilbert.build_context(a, rtol)
    except ValueError as exc:
        raise DimensionMismatchError(f"SHNR_RTOL: {exc}") from exc


def _load(path, what):
    try:
        return serialize.load_matrix(path)
    # ValueError: bad JSON or UTF-8; RecursionError: JSON nested too deeply
    except (OSError, ValueError, RecursionError) as exc:
        raise DimensionMismatchError(f"cannot read {what} from {path}: {exc}") from exc


def _print_matrix(m) -> None:
    print(json.dumps(serialize.matrix_to_dict(m), indent=2, sort_keys=True))


def cmd_compute(args) -> int:
    rtol = _env_rtol()
    a = _load(args.a_path, "A")
    t = _load(args.t_path, "T")
    ctx = _context(a, rtol)
    q = args.quantity
    if q == "norm_a":
        print(_fmt(semihilbert.a_operator_norm(ctx, t)))
    elif q == "omega_a":
        print(_fmt(radius.omega_a_fast(ctx, t)))
    elif q == "adjoint":
        _print_matrix(semihilbert.a_adjoint(ctx, t))
    elif q == "re_a":
        _print_matrix(semihilbert.re_a(ctx, t))
    elif q == "im_a":
        _print_matrix(semihilbert.im_a(ctx, t))
    elif q == "alpha_norm":
        if args.alpha is None:
            raise AlphaOutOfRangeError("alpha_norm needs --alpha")
        desc = seminorms.a_alpha_seminorm(args.alpha)
        print(_fmt(desc.evaluate(ctx, t)))
    elif q == "big_omega":
        desc = seminorms.big_omega_seminorm()
        print(_fmt(desc.evaluate(ctx, t)))
    elif q == "gamma_a":
        print(_fmt(seminorms.gamma_a(ctx, t)))
    elif q == "gen_radius":
        if args.seminorm is None:
            raise AlphaOutOfRangeError("gen_radius needs --seminorm")
        desc = seminorms.seminorm_by_name(args.seminorm, alpha=args.alpha)
        print(_fmt(radius.generalized_radius(ctx, desc, t)))
    else:  # argparse choices make this unreachable
        raise DimensionMismatchError(f"unknown quantity {q!r}")
    return EXIT_OK


def cmd_membership(args) -> int:
    rtol = _env_rtol()
    ctx = _context(_load(args.a_path, "A"), rtol)
    t = semihilbert._check_shape(ctx, _load(args.t_path, "T"))
    residual, outside = semihilbert._member_verdict(ctx, t)
    print(f"{'non-member' if outside else 'member'} residual={_fmt(residual)}")
    return EXIT_NOT_MEMBER if outside else EXIT_OK


def _parse_int_list(raw: str, what: str):
    try:
        return tuple(int(tok) for tok in raw.split(",") if tok)
    except ValueError as exc:
        raise DimensionMismatchError(f"bad {what} list {raw!r}") from exc


def cmd_check(args) -> int:
    rtol = _env_rtol()
    dims = _parse_int_list(args.dims, "--dims")
    ranks = tuple(tok for tok in args.ranks.split(",") if tok)
    only = None if args.only is None else tuple(tok for tok in args.only.split(",") if tok)
    try:
        cfg = verify.InstanceGenConfig(
            dims=dims,
            rank_profiles=ranks,
            instances_per_check=args.instances,
            seed=args.seed,
            tol_rel=args.tol,
            rtol=rtol,
        )
        report = verify.run_suite(cfg, only=only, threads=args.threads)
    except (ValueError, KeyError) as exc:
        raise DimensionMismatchError(str(exc)) from exc
    payload = serialize.dump_report(report.to_dict())
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(payload)
    for chk in report.checks:
        status = "ok" if chk.violations == 0 and chk.incomplete == 0 else "FAIL"
        extra = (
            f" premise_held={chk.premise_held}" if chk.premise_held is not None else ""
        )
        print(
            f"{chk.id} {status} instances={chk.instances_run}"
            f" violations={chk.violations}"
            f" min_slack={chk.min_slack if chk.min_slack is not None else 'n/a'}"
            f"{extra}"
        )
    print(
        f"total violations={report.violations_total}"
        f" incomplete={report.incomplete_total} -> {args.out}"
    )
    if report.violations_total or report.incomplete_total:
        return EXIT_VIOLATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shnr",
        description="Semi-Hilbertian operator quantities and inequality checks.",
        epilog=(
            "Scalars print with 12 significant digits (scientific notation for "
            "extreme magnitudes); report JSON keeps full shortest-round-trip "
            "floats. SHNR_RTOL overrides the default relative tolerance 1e-10."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute one quantity for (A, T)")
    p_compute.add_argument("a_path", help="JSON file with the inducing matrix A")
    p_compute.add_argument("t_path", help="JSON file with the operator T")
    p_compute.add_argument("quantity", choices=QUANTITIES)
    p_compute.add_argument("--alpha", type=float, default=None,
                           help="weight for alpha_norm / a_alpha in [0, 1]")
    p_compute.add_argument("--seminorm", default=None,
                           choices=("a_norm", "big_omega", "a_alpha"),
                           help="seminorm for gen_radius")
    p_compute.set_defaults(func=cmd_compute)

    p_member = sub.add_parser("membership", help="A-adjointability verdict")
    p_member.add_argument("a_path")
    p_member.add_argument("t_path")
    p_member.set_defaults(func=cmd_membership)

    cfg = verify.InstanceGenConfig()
    p_check = sub.add_parser("check", help="run the inequality suite")
    p_check.add_argument("--dims", default=",".join(map(str, cfg.dims)),
                         help="comma list, e.g. 2,3")
    p_check.add_argument("--instances", type=int, default=cfg.instances_per_check)
    p_check.add_argument("--seed", type=int, default=cfg.seed)
    p_check.add_argument("--ranks", default=",".join(cfg.rank_profiles),
                         help="comma list of rank profiles")
    p_check.add_argument("--tol", type=float, default=cfg.tol_rel,
                         help="relative slack tolerance")
    p_check.add_argument("--only", default=None, help="comma list of check ids")
    p_check.add_argument("--out", default="shnr-report.json")
    p_check.add_argument("--threads", type=int, default=1,
                         help="worker threads; more were measured no faster on "
                              "these small matrices; never affects report bytes")
    p_check.set_defaults(func=cmd_check)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call: rebuilding it cost
    more than a small ``compute`` request's numerics."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except NotMemberError as exc:
        print(f"error: not a member: {exc}", file=sys.stderr)
        return EXIT_NOT_MEMBER
    except (NotHermitianError, NotPositiveError, ZeroOperatorError) as exc:
        print(f"error: bad inducing matrix: {exc}", file=sys.stderr)
        return EXIT_BAD_A
    except ShnrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
