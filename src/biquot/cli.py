"""Command-line interface: single-angle checks, grid scans, and self-tests.

Exit codes: 0 for a positive verdict (or an all-pass self-test), 2 for an
inconclusive verdict, 1 for usage or internal errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time

from . import certify, checks

__all__ = ["build_parser", "cmd_check", "cmd_scan", "cmd_selftest", "main"]

CSV_HEADER = ("theta,rho_rank,kernel_dim_j,kernel_dim_k,"
              "kernel_match_j,kernel_match_k,sign_ok,min_residual,verdict")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _bool(x: bool) -> str:
    return "true" if x else "false"


def _require_output_dir(path: str) -> None:
    """Fail before any work when `path` is empty, is a directory, or the
    directory meant to hold it is missing; the file itself is written only
    once every result is computed."""
    if not path:
        raise ValueError("output path is empty")
    if os.path.isdir(path):
        raise ValueError(f"output path {path!r} is a directory")
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise ValueError(f"output directory {directory!r} does not exist")


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    if args.json is not None:
        _require_output_dir(args.json)
    # the sizes and the seed are checked in every mode, before any work
    certify._search_sizes(args.starts, args.iterations, args.seed)
    theta = math.radians(args.theta) if args.degrees else float(args.theta)
    report = None
    if args.mode in ("search", "both"):
        report = certify.search_zero_plane(theta, starts=args.starts,
                                           iterations=args.iterations, seed=args.seed)
    cert = certify.certify_theta(theta)

    print(f"theta = {_fmt(cert.theta)} rad")
    print(f"rho rank: {cert.rho_rank}")
    print(f"kernel ell=j: dimension {cert.kernel_dim_j}, "
          f"reference match {_fmt(cert.kernel_match_j)}")
    print(f"kernel ell=k: dimension {cert.kernel_dim_k}, "
          f"reference match {_fmt(cert.kernel_match_k)}")
    print(f"sign certificate on (0, pi/6): {_bool(cert.sign_ok)}")
    if cert.lambda_case_note is not None:
        print(f"lambda note (y3 = lambda x4 on the ell=j kernel): "
              f"{_fmt(cert.lambda_case_note)}")
    if report is not None:
        print(f"search: starts={report.starts} iterations={report.iterations} "
              f"min residual = {_fmt(report.min_residual)}")
    print(f"verdict: {cert.verdict}")

    if args.json is not None:
        payload = dataclasses.asdict(cert)
        payload["search"] = None if report is None else {
            name: value for name, value in dataclasses.asdict(report).items()
            if name != "argmin_pair"}
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    return 0 if cert.verdict == certify.VERDICT_POSITIVE else 2


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def cmd_scan(args) -> int:
    _require_output_dir(args.out)
    lo = math.radians(args.theta_from) if args.degrees else float(args.theta_from)
    hi = math.radians(args.theta_to) if args.degrees else float(args.theta_to)
    rows = [",".join([
        _fmt(cert.theta),
        str(cert.rho_rank),
        str(cert.kernel_dim_j),
        str(cert.kernel_dim_k),
        _fmt(cert.kernel_match_j),
        _fmt(cert.kernel_match_k),
        _bool(cert.sign_ok),
        _fmt(report.min_residual),
        cert.verdict,
    ]) for cert, report in certify.scan(lo, hi, args.steps, args.starts,
                                        args.iterations, args.seed)]

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for line in rows:
            fh.write(line + "\n")
    print(f"wrote {args.steps} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

# Zero-argument callables, each returning (name, ok, detail); see biquot.checks.
_SELFTEST_SUITES = checks.SELFTEST_SUITES


def cmd_selftest(args=None) -> int:
    path = getattr(args, "json", None)
    if path is not None:
        _require_output_dir(path)
    failed, results = [], []
    for suite in _SELFTEST_SUITES:
        start = time.perf_counter()
        name, ok, detail = suite()
        results.append({"name": name, "ok": bool(ok), "detail": detail,
                        "seconds": time.perf_counter() - start})
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failed.append(name)
    print(f"FAILED: {', '.join(failed)}" if failed else "all suites passed")
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"ok": not failed, "suites": results}, fh, indent=2)
            fh.write("\n")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biquot",
        description="Certify the absence of zero-curvature planes at p(theta).")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="certify a single angle")
    check.add_argument("--theta", type=float, required=True,
                       help="angle in radians (see --degrees)")
    check.add_argument("--degrees", action="store_true",
                       help="interpret --theta in degrees")
    check.add_argument("--mode", choices=("algebraic", "search", "both"),
                       default="algebraic",
                       help="algebraic: the certificate alone; search and both: "
                            "the certificate and the residual search")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--starts", type=int, default=200)
    check.add_argument("--iterations", type=int, default=500,
                       help="most search iterations per start")
    check.add_argument("--json", default=None, help="write a JSON report here")
    check.set_defaults(func=cmd_check)

    scan = sub.add_parser("scan", help="scan a theta range and write a CSV")
    scan.add_argument("--from", dest="theta_from", type=float, required=True)
    scan.add_argument("--to", dest="theta_to", type=float, required=True)
    scan.add_argument("--steps", type=int, default=50)
    scan.add_argument("--out", required=True)
    scan.add_argument("--seed", type=int, default=0)
    scan.add_argument("--starts", type=int, default=16)
    scan.add_argument("--iterations", type=int, default=500,
                      help="most search iterations per start")
    scan.add_argument("--degrees", action="store_true")
    scan.set_defaults(func=cmd_scan)

    selftest = sub.add_parser("selftest", help="run the property suites")
    selftest.add_argument("--json", default=None,
                          help="write each suite's result and time here")
    selftest.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
