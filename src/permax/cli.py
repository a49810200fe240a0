"""Command-line front end.

Exit codes: 0 on success, 2 when a verification run finds a violated
bound or property, 1 for bad input (unreadable file, malformed matrix,
unsupported shape, bad argument), 3 when one of the program's own
runtime checks fails (a sweep count or kernel recheck, a replayed
transform sequence, an evaluator's divisibility check): the result
cannot be trusted, and no verdict is given.  Report files are written
before anything is printed; a stdout closed by its reader exits 0,
silently.
"""

from __future__ import annotations

import argparse
import os
import sys

from .d_family import build_table
from .errors import CounterexampleError, PropertyFailure
from .exact_rank import rank
from .permanent import mper, permanent_naive, permanent_rect, permanent_ryser
from .rank_vectors import rank_vector
from .reduction import classify_form
from .sign_matrix import SignMatrix, format_transforms, parse_matrix_text
from .verifier import (
    VerifyReport, _encode, verify_mper, verify_properties, verify_square, write_report
)

__all__ = ["main"]

_METHODS = {
    "naive": permanent_naive,
    "ryser": permanent_ryser,
    "rect": permanent_rect,
    "mper": mper,
}


def _load(path: str) -> SignMatrix:
    with open(path, encoding="utf-8") as f:
        return parse_matrix_text(f.read())


def _cmd_per(args: argparse.Namespace) -> int:
    print(_METHODS[args.method](_load(args.file)))
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    print(rank(_load(args.file)))
    return 0


def _cmd_dtable(args: argparse.Namespace) -> int:
    table = build_table(args.n_max)
    rows = [(n, k, table.value(n, k)) for n in range(1, args.n_max + 1) for k in range(n + 1)]
    sys.stdout.write(_encode(("n", "k", "per"), rows, args.format))
    return 0


def _cmd_rankvec(args: argparse.Namespace) -> int:
    print(",".join(str(c) for c in rank_vector(_load(args.file))))
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    form = classify_form(_load(args.file))
    print(form.tag)
    print(format_transforms(form.seq))
    return 0


def _emit_report(report: VerifyReport, args: argparse.Namespace) -> int:
    if args.out:
        write_report(report, args.format, args.out)
    for name, cases in report.checks:
        print(f"{name}: {cases} cases ok")
    for row in report.rows:
        print(
            f"rank {row.rank}: bound {row.bound}, observed {row.observed_max}, "
            f"orbits {row.extremal_orbits}, {row.equality_class}"
        )
    if report.checks:
        print(f"all invariants held ({report.scanned} cases, {report.seconds}s)")
    else:
        print(f"scanned {report.scanned} matrices in {report.seconds}s")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 with one line; exit 2 stays for violations."""

    def error(self, message: str) -> None:
        self.exit(1, f"error: {message}\n")


def _out_path(text: str) -> str:
    path = os.path.normpath(text)
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path} is a directory")
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(
            f"{parent} is not a directory" if os.path.exists(parent)
            else f"directory {parent} does not exist"
        )
    return text


def _add_report_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=_out_path, help="write the report to this path")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="permax",
        description="Verification toolkit for the rank bound on permanents of (-1,1)-matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("per", help="permanent of a matrix file")
    p.add_argument("--file", required=True)
    p.add_argument("--method", choices=sorted(_METHODS), default="ryser")
    p.set_defaults(func=_cmd_per)

    p = sub.add_parser("rank", help="exact rank of a matrix file")
    p.add_argument("--file", required=True)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("dtable", help="near-identity permanent table")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_dtable)

    p = sub.add_parser("rankvec", help="rank vector of a wide matrix file")
    p.add_argument("--file", required=True)
    p.set_defaults(func=_cmd_rankvec)

    p = sub.add_parser("classify", help="reduce a nonsingular matrix to its template form")
    p.add_argument("--file", required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify", help="exhaustive square sweep at one order")
    p.add_argument("--n", type=int, required=True)
    _add_report_args(p)
    p.set_defaults(func=lambda a: _emit_report(verify_square(a.n), a))

    p = sub.add_parser("verify-mper", help="exhaustive wide-matrix selection sweep")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_report_args(p)
    p.set_defaults(func=lambda a: _emit_report(verify_mper(a.k, a.n), a))

    p = sub.add_parser("props", help="randomized invariant suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=100_000)
    _add_report_args(p)
    p.set_defaults(func=lambda a: _emit_report(verify_properties(a.seed, a.samples), a))

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:  # the run succeeded; its reader left early
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (CounterexampleError, PropertyFailure) as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # after the clause above: both subclass it
        print(f"FAULT: {exc}", file=sys.stderr)
        return 3
    except (OSError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
