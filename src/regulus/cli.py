"""Command-line front end: coeff, oracle, identity, verify, suite.

Exit codes: 0 all-pass, 1 mathematical violation, 2 usage or config error
(and any unexpected crash), 3 vacuous or skipped result under --strict.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from functools import reduce

from . import families, oracle, suite
from .dissections import verify_dissection
from .expr import ExpressionError, NonExactDivisionError
from .report import FAIL, SKIPPED, VACUOUS
from .series import mul, regular_quotient

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_VACUOUS = 3

MIN_ORDER = 64  # the smallest series order --order accepts


def _profile_bounds(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _parse_profile(args) -> tuple[tuple[int, int], ...]:
    """The profile as sorted (ell, multiplicity) pairs, so --r costs nothing per component."""
    if args.profile:
        return tuple(sorted(Counter(_profile_bounds(args.profile)).items()))
    if args.ell is None or args.r is None:
        print("need --profile or both --ell and --r", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return ((args.ell, args.r),)


def cmd_coeff(args) -> int:
    pairs = _parse_profile(args)
    if args.n is None and args.n_max is None:
        print("need --n or --n-max", file=sys.stderr)
        return EXIT_USAGE
    n_hi = args.n if args.n is not None else args.n_max
    modulus = args.mod or 0
    # prod_i E_{l_i} / E_1^r = prod_l (E_l / E_1)^{e_l}: the engine builds every profile, independent of the oracle
    factors = [regular_quotient(ell, e, n_hi, modulus) for ell, e in pairs]
    values = reduce(mul, factors).coeffs
    wanted = [args.n] if args.n is not None else list(range(n_hi + 1))
    check = None
    if args.check_oracle:
        check = oracle.profile_counts(pairs, n_hi)
    mismatched = False
    for n in wanted:
        line = f"{n}\t{values[n]}"
        if check is not None:
            expected = check[n] % modulus if modulus else check[n]
            ok = expected == values[n]
            mismatched = mismatched or not ok
            line += f"\t{expected}\t{'ok' if ok else 'MISMATCH'}"
        print(line)
    # series and oracle disagreeing is a mathematical violation, not a usage error
    return EXIT_VIOLATION if mismatched else EXIT_PASS


def cmd_oracle(args) -> int:
    pairs = _parse_profile(args)
    if args.n is None and args.n_max is None:
        print("need --n or --n-max", file=sys.stderr)
        return EXIT_USAGE
    n_hi = args.n if args.n is not None else args.n_max
    table = oracle.profile_counts(pairs, n_hi)
    wanted = [args.n] if args.n is not None else list(range(n_hi + 1))
    for n in wanted:
        value = table[n] % args.mod if args.mod else table[n]
        print(f"{n}\t{value}")
    return EXIT_PASS


def cmd_identity(args) -> int:
    try:
        report = verify_dissection(args.name, args.order)
    except KeyError:
        print(f"unknown identity {args.name!r}", file=sys.stderr)
        return EXIT_USAGE
    if report.status == FAIL:
        first = report.violations[0]
        print(f"{report.id}: FAIL at index {first['index']}")
        return EXIT_VIOLATION
    print(f"{report.id}: pass ({report.indices_checked} coefficients, {report.ms:.0f} ms)")
    return EXIT_PASS


def _write_report(report: dict, args) -> None:
    fmt = args.format
    text = (
        suite.markdown_summary(report)
        if fmt == "markdown"
        else json.dumps(report, indent=2, sort_keys=True)
    )
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text)
    else:
        print(text)


def _exit_code(statuses, strict: bool) -> int:
    """1 if any check failed; else 3 under --strict if any was vacuous or skipped; else 0."""
    statuses = set(statuses)
    if FAIL in statuses:
        return EXIT_VIOLATION
    if strict and statuses & {VACUOUS, SKIPPED}:
        return EXIT_VACUOUS
    return EXIT_PASS


def cmd_verify(args) -> int:
    registry = None
    if args.registry:
        try:
            registry = families.load_registry(args.registry)
        except (OSError, ValueError, KeyError) as exc:
            print(f"bad registry: {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        fam = families.get_family(args.family, registry)
    except families.UnknownFamilyError:
        print(f"unknown family {args.family!r}", file=sys.stderr)
        return EXIT_USAGE
    budget = families.GridBudget(order=args.order, n_max=args.n_max)
    try:
        report = suite.run_suite([f"family.{fam.id}"], budget, registry)
    except (ExpressionError, NonExactDivisionError) as exc:
        print(f"index formula error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _write_report(report, args)
    return _exit_code((c["status"] for c in report["checks"]), args.strict)


def cmd_suite(args) -> int:
    if args.only is not None:
        # a filter names a group (e.g. "identities") or whole leading dot-separated segments of an id
        groups = {"identities": "identity", "families": "family", "bridges": "bridge"}
        filters = [groups.get(f.strip(), f.strip()) for f in args.only.split(",") if f.strip()]
        selected = [
            cid for cid in suite.default_check_ids() if any(cid == f or cid.startswith(f + ".") for f in filters)
        ]
        if not selected:
            print(f"no checks match {args.only!r}", file=sys.stderr)
            return EXIT_USAGE
    else:
        selected = None
    budget = families.GridBudget(order=args.order, n_max=args.n_max)
    report = suite.run_suite(selected, budget, jobs=args.jobs)
    _write_report(report, args)
    return _exit_code((c["status"] for c in report["checks"]), args.strict)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is one stderr line and exit 2, without argparse's usage block."""
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="regulus")
    sub = parser.add_subparsers(dest="command", required=True)

    def series_args(p):
        p.add_argument("--ell", type=int)
        p.add_argument("--r", type=int)
        p.add_argument("--profile", type=str, help="comma-separated regularity bounds")
        p.add_argument("--n", type=int)
        p.add_argument("--n-max", dest="n_max", type=int)
        p.add_argument("--mod", type=int, default=0)

    p_coeff = sub.add_parser("coeff", help="series coefficients of the counting function")
    series_args(p_coeff)
    p_coeff.add_argument("--check-oracle", action="store_true")
    p_coeff.set_defaults(func=cmd_coeff)

    p_oracle = sub.add_parser("oracle", help="exact counts from powers of the pentagonal series")
    series_args(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    p_ident = sub.add_parser("identity", help="verify a dissection identity")
    p_ident.add_argument("--name", required=True)
    p_ident.add_argument("--order", type=int, default=2000)
    p_ident.set_defaults(func=cmd_identity)

    def report_args(p):
        p.add_argument("--order", type=int, default=2000)
        p.add_argument("--n-max", dest="n_max", type=int, default=2000)
        p.add_argument("--report", type=str)
        p.add_argument("--format", choices=("json", "markdown"), default="json")
        p.add_argument("--strict", action="store_true")

    p_verify = sub.add_parser("verify", help="verify one congruence family")
    p_verify.add_argument("--family", required=True)
    p_verify.add_argument("--registry", type=str)
    report_args(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_suite = sub.add_parser("suite", help="run the acceptance checks")
    # --all runs every check, as does giving neither flag
    scope = p_suite.add_mutually_exclusive_group()
    scope.add_argument("--all", action="store_true")
    scope.add_argument("--only", type=str)
    p_suite.add_argument("--jobs", type=int, default=1)
    report_args(p_suite)
    p_suite.set_defaults(func=cmd_suite)
    return parser


def _argument_problem(args) -> str | None:
    """One line naming the first out-of-range argument, or None."""
    for name in ("n", "n_max"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            return f"--{name.replace('_', '-')} must be nonnegative, got {value}"
    mod = getattr(args, "mod", 0)
    if mod < 0 or mod == 1:
        return f"--mod must be 0 (exact) or at least 2, got {mod}"
    ell = getattr(args, "ell", None)
    if ell is not None and ell < 2:
        return f"--ell must be at least 2, got {ell}"
    r = getattr(args, "r", None)
    if r is not None and r < 1:
        return f"--r must be at least 1, got {r}"
    profile = getattr(args, "profile", None)
    if profile is not None and (ell is not None or r is not None):
        return "--profile cannot be combined with --ell or --r"
    if getattr(args, "n", None) is not None and args.n_max is not None:
        return "--n cannot be combined with --n-max"
    if profile is not None:
        try:
            bounds = _profile_bounds(profile)
        except ValueError:
            return f"--profile must be comma-separated integers, got {profile!r}"
        if min(bounds) < 2:
            return f"--profile entries must be at least 2, got {profile!r}"
    order = getattr(args, "order", None)
    if order is not None and order < MIN_ORDER:
        return f"--order must be at least {MIN_ORDER}, got {order}"
    jobs = getattr(args, "jobs", None)
    if jobs is not None and jobs < 1:
        return f"--jobs must be at least 1, got {jobs}"
    if jobs is not None and jobs > 1 and not hasattr(os, "fork"):
        return f"--jobs {jobs} runs the checks in forked processes, and this platform has no os.fork"
    return None


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return EXIT_USAGE if exc.code else EXIT_PASS
    problem = _argument_problem(args)
    if problem:
        print(problem, file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a crash is never a mathematical violation (exit 1)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
