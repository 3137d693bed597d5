"""Command-line surface for counting, tables and the verification suite.

Usage examples
--------------
  forestcount count --codim 0 --degree 3
  forestcount count --codim 4 --degree 4 --format json
  forestcount table --cmax 1 --dmax 3 --format csv
  forestcount simple --cmax 4 --dmax 12
  forestcount asymptotics --codim 1 --degree 200
  forestcount oracle --degree 3 --dump diagrams.json
  forestcount verify
  forestcount verify --only growth-constant
  forestcount verify --only oracle --oracle-degree 3
  forestcount verify --artifact route_agreement.json

Every command that compares independent computation routes exits 0 on
agreement and 2 on a verified disagreement (disagreement is a reported
result, distinct from a usage error, which exits 1).  Boxes larger than
the resource ceiling (FORESTCOUNT_MAX_CELLS environment variable,
default 200000 cells) exit 3.

When fork exists, two CPUs or more are ours and no other thread runs,
work that splits into items is shared with one forked worker: the list
is cut in the middle, this process does the front half and the worker
the back half, and the results are printed in list order.  The cut
depends only on the number of items, so each process does the same
items on every run.  `verify` splits its checks so whenever more than
one runs; `table` and `count` split their conventions when the box's
cells inside the support bound c <= 2d, each weighted by its degree
plus one, sum to FORK_MIN_WEIGHT or more, so that with both conventions
this process solves `odd` and the worker `linear`.  Otherwise the items
are done one after the other.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import threading

from .dp import dp_count, dp_table
from .formulas import (asymptotic_estimate, asymptotic_log, asymptotic_ratio,
                       codim1_count, codim1_row, flat_count, flat_row,
                       simple_count)
from .oracle import MAX_ORACLE_DEGREE, dump_diagrams, enumerate_flat
from .solver import (CONVENTIONS, cached_solution, count_configurations,
                     solve_simple)
from .tables import CountTable
from .verify import CHECKS, route_agreement_document, run_suite, suite_passed

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISAGREEMENT = 2
EXIT_RESOURCE = 3

DEFAULT_MAX_CELLS = 200_000
# the box weight (see _fork_pays) from which a forked worker per
# convention pays for itself (measured; see README "Performance notes")
FORK_MIN_WEIGHT = 6000


class UsageError(Exception):
    pass


class ResourceGuard(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep usage errors on exit code 1
        raise UsageError(message)


def _max_cells() -> int:
    raw = os.environ.get("FORESTCOUNT_MAX_CELLS", "")
    try:
        return int(raw) if raw else DEFAULT_MAX_CELLS
    except ValueError:
        raise UsageError(f"FORESTCOUNT_MAX_CELLS={raw!r} is not an integer")


def _guard_box(cmax: int, dmax: int) -> None:
    cells = (cmax + 1) * (dmax + 1)
    ceiling = _max_cells()
    if cells > ceiling:
        raise ResourceGuard(
            f"box ({cmax},{dmax}) needs {cells} cells, ceiling is {ceiling} "
            f"(raise FORESTCOUNT_MAX_CELLS to override)")


def _guard_oracle(degree: int) -> None:
    if degree > MAX_ORACLE_DEGREE:
        raise ResourceGuard(
            f"oracle degree {degree} above guard {MAX_ORACLE_DEGREE}")


def _claim(*paths: str | None) -> None:
    """Open each output path for writing before the command's work, so a
    path that cannot be written fails at once; None and '-' (standard
    output) are skipped.  Two paths that name one file are a usage error,
    raised before either is truncated: one output would overwrite the
    other."""
    paths = [p for p in paths if p and p != "-"]
    files = [os.path.realpath(p) for p in paths]
    if len(set(files)) < len(files):
        raise UsageError(f"two outputs name the same file: {files[0]}")
    for path in paths:
        open(path, "w", encoding="utf-8").close()


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _conventions(choice: str) -> list[str]:
    return list(CONVENTIONS) if choice == "both" else [choice]


def _can_fork() -> bool:
    """Whether a forked worker can run beside this process: fork exists,
    at least two CPUs are ours, and no other thread runs (main also runs
    inside other programs, and a fork copies only the calling thread)."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1)


def _fork_pays(cmax: int, dmax: int) -> bool:
    """Whether solving conventions side by side on the box pays: its cells
    inside the support bound c <= 2d, each weighted by d + 1 since a
    coefficient's size grows linearly with its degree, sum to
    FORK_MIN_WEIGHT or more, and _can_fork()."""
    weight = sum((d + 1) * min(cmax + 1, 2 * d + 1) for d in range(dmax + 1))
    return weight >= FORK_MIN_WEIGHT and _can_fork()


def _fork_map(items: list, work, fork: bool, noun: str) -> list:
    """[work(item) for item in items], with the same results and the same
    first exception.

    When fork is true and there are two items or more, the list is cut
    in the middle: this process does the front half (the odd item too)
    and one forked worker the back half, each in list order, so that
    neighbouring items, which often share cached solutions, stay in one
    process.  The cut depends only on the number of items, never on
    timing, so each process does the same items on every run.  This
    process raises its first exception at once, since every item before
    it was its own.  The worker sends back each result, or the exception
    it raised and then nothing more, pickled through a pipe, and leaves
    by os._exit; its results are read only after this process's half, so
    the pipe's buffer may fill, and the worker then waits.  The worker is
    killed (a no-op once it has left) and reaped before this returns, and
    the solutions it caches stay in it.  A worker that ends before its
    last result is an error naming the item it was on, as `noun item`.
    If fork fails, every item is done here."""
    if len(items) < 2 or not fork:
        return [work(item) for item in items]
    import pickle
    import signal

    cut = (len(items) + 1) // 2
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: all done here
        os.close(r)
        os.close(w)
        return [work(item) for item in items]
    if pid == 0:  # the worker: nothing after fork returns here
        try:
            os.close(r)
            with open(w, "wb") as pipe:
                for item in items[cut:]:
                    try:
                        ok, value = True, work(item)
                    except BaseException as exc:  # raised again by the parent
                        ok, value = False, exc
                    pipe.write(pickle.dumps((ok, value)))
                    pipe.flush()
                    if not ok:
                        break
        finally:
            os._exit(0)
    os.close(w)
    try:
        with open(r, "rb") as pipe:
            results = [work(item) for item in items[:cut]]
            for item in items[cut:]:
                try:
                    ok, value = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    raise ChildProcessError(f"the worker for {noun} {item} "
                                            "ended without a result") from None
                if not ok:
                    raise value
                results.append(value)
        return results
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _emit(text: str, path: str | None) -> None:
    if path and path != "-":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _finish(args, doc, text, ok: bool = True) -> int:
    """Write doc as JSON (a list of reports as JSONL) or the text that
    text() builds, as --format asks, and map ok to exit 0 or 2.  text is
    called only when the text form is written."""
    if args.format == "jsonl":
        body = "\n".join(json.dumps(rep) for rep in doc)
    elif args.format == "json":
        body = json.dumps(doc, indent=2)
    else:
        body = text()
    _emit(body, args.output)
    return EXIT_OK if ok else EXIT_DISAGREEMENT


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def cmd_count(args) -> int:
    c, d = args.codim, args.degree
    _guard_box(c, d)
    _claim(args.output)
    names = _conventions(args.convention)
    counts = _fork_map(names, lambda name: count_configurations(c, d, name),
                       _fork_pays(c, d), "convention")
    values = {f"solver[{name}]": n for name, n in zip(names, counts)}
    values["dp"] = dp_count(c, d)
    if c == 0:
        values["closed-form"] = flat_count(d)
    elif c == 1:
        values["closed-form"] = codim1_count(d)
    agree = len(set(values.values())) == 1
    doc = {"schema": "count-report@1", "codim": c, "degree": d,
           "values": {k: str(v) for k, v in values.items()},
           "agree": agree}
    lines = [f"#N1({c},{d})"]
    for route, value in values.items():
        lines.append(f"  {route:<16} {value}")
    lines.append("routes agree" if agree else "ROUTES DISAGREE")
    return _finish(args, doc, lambda: "\n".join(lines), agree)


def cmd_table(args) -> int:
    cmax, dmax = args.cmax, args.dmax
    _guard_box(cmax, dmax)
    if args.route == "closed-form" and cmax > 1:
        raise UsageError("closed-form route covers c <= 1 only")
    _claim(args.output)
    tables: list[CountTable] = []
    if args.route == "solver":
        names = _conventions(args.convention)
        # a cached solution may cover a larger box
        grids = _fork_map(
            names, lambda name: cached_solution(name, cmax, dmax)
            .n1.crop(cmax, dmax).grid(), _fork_pays(cmax, dmax), "convention")
        tables += [CountTable.from_rows(grid, "n1", "solver", name)
                   for name, grid in zip(names, grids)]
    elif args.route == "dp":
        tables.append(CountTable.from_rows(dp_table(cmax, dmax), "n1", "dp"))
    else:  # closed-form: only the c <= 1 rows have formulas
        rows = [flat_row(dmax)]
        if cmax == 1:
            rows.append(codim1_row(dmax))
        tables.append(CountTable.from_rows(rows, "n1", "closed-form"))
    doc = {"schema": "table-report@1",
           "tables": [t.to_json_dict() for t in tables]}

    def text():
        blocks = []
        for t in tables:
            head = f"# family={t.family} route={t.route}"
            if t.convention:
                head += f" convention={t.convention}"
            blocks.append(head + "\n" + t.to_csv())
        return "\n".join(blocks)

    return _finish(args, doc, text)


def cmd_simple(args) -> int:
    cmax, dmax = args.cmax, args.dmax
    _guard_box(cmax, dmax)
    _claim(args.output)
    closed = [[simple_count(c, d) for d in range(dmax + 1)]
              for c in range(cmax + 1)]
    n4 = solve_simple(cmax, dmax)
    mismatches = [[c, d, n4.coeff(c, d), closed[c][d]]
                  for c in range(cmax + 1) for d in range(dmax + 1)
                  if n4.coeff(c, d) != closed[c][d]]
    table = CountTable.from_rows(closed, "n4", "closed-form")
    doc = {"schema": "simple-report@1",
           "table": table.to_json_dict(),
           "solver_matches_closed_form": not mismatches,
           "mismatches": mismatches[:20]}
    status = ("solver route matches closed form" if not mismatches
              else f"ROUTES DISAGREE on {len(mismatches)} cells")
    return _finish(args, doc, lambda: table.to_csv() + status,
                   not mismatches)


def cmd_asymptotics(args) -> int:
    c, d = args.codim, args.degree
    _guard_box(c, d)  # the cell ceiling that count applies to (c, d)
    if d < max(2 * c, 1):
        raise UsageError(f"no exact/estimate ratio at ({c},{d}); "
                         "need d >= max(2c, 1)")
    _claim(args.output)
    exact = simple_count(c, d)
    ratio = asymptotic_ratio(exact, c, d)
    estimate, log = asymptotic_estimate(c, d), asymptotic_log(c, d)
    # past the float range the estimate is null in JSON, which has no
    # infinity, and the text form takes it from its log
    finite = math.isfinite(estimate)
    doc = {"schema": "asymptotics-report@1", "codim": c, "degree": d,
           "exact": str(exact), "estimate": estimate if finite else None,
           "log_estimate": log, "exact_over_estimate": ratio}

    def text():
        shown = estimate
        if not finite:
            import decimal  # only for estimates past the float range
            shown = decimal.Context().exp(decimal.Decimal(log))
        return "\n".join([f"exact simple count  {exact}",
                          f"asymptotic estimate {shown:.6e}",
                          f"exact / estimate    {ratio:.6f}"])

    return _finish(args, doc, text)


def cmd_oracle(args) -> int:
    d = args.degree
    _guard_oracle(d)
    _claim(args.dump, args.output)
    diagrams = enumerate_flat(d)
    expected = flat_count(d)
    if args.dump:
        _emit(dump_diagrams(diagrams), args.dump)
    agree = len(diagrams) == expected
    doc = {"schema": "oracle-report@1", "degree": d,
           "enumerated": len(diagrams), "closed_form": expected,
           "agree": agree}
    text = (f"degree {d}: enumerated {len(diagrams)}, "
            f"closed form {expected}, {'agree' if agree else 'DISAGREE'}")
    return _finish(args, doc, lambda: text, agree)


def _check_line(rep: dict) -> str:
    """The text line of one verify report, with a check-specific suffix."""
    details = rep["details"]
    extra = ""
    if rep["check"] == "growth-constant":
        extra = f"  value={details['value']:.6f}"
    elif rep["check"] == "row-sum":
        extra = (f"  final_ratio={details['final_ratio']:.4f}"
                 f"  growth={details['growth_constant']:.4f}")
    elif rep["check"] == "cross-routes":
        extra = "  matches=" + ",".join(details["matching_conventions"])
    elif rep["check"] == "alt-tail":
        extra = "  annihilating_tail=" + ",".join(
            map(str, details["annihilating_tail"]))
    return f"{rep['status'].upper():>7}  {rep['check']}{extra}"


def cmd_verify(args) -> int:
    overrides = {
        "row-sum": {"dmax": args.row_sum_dmax},
        "oracle": {"max_degree": args.oracle_degree},
        "cross-routes": {"cmax": args.cross_cmax, "dmax": args.cross_dmax},
        "min-poly": {"cmax": args.box, "dmax": args.box},
        "system-equation": {"cmax": args.box, "dmax": args.box},
    }
    if args.row_sum_dmax < 1:
        raise UsageError("--row-sum-dmax must be at least 1: a one-row "
                         "box has no ratio to judge")
    # guard every user-sized box before any check runs; the artifact is
    # built on the cross-routes box, and row-sum solves (2*dmax, dmax)
    names = [args.only] if args.only else list(CHECKS)
    for name in (names + ["cross-routes"] if args.artifact else names):
        kwargs = overrides.get(name, {})
        if "max_degree" in kwargs:
            _guard_oracle(kwargs["max_degree"])
        elif kwargs:
            _guard_box(kwargs.get("cmax", 2 * kwargs["dmax"]), kwargs["dmax"])
    _claim(args.output, args.artifact)
    reports = _fork_map(names, lambda name: run_suite(name, overrides)[0],
                        _can_fork(), "check")
    ok = suite_passed(reports)
    lines = [_check_line(rep) for rep in reports]
    lines.append("all checks passed" if ok else "SUITE FAILED")
    code = _finish(args, reports, lambda: "\n".join(lines), ok)
    if args.artifact:
        doc = route_agreement_document(args.cross_cmax, args.cross_dmax)
        _emit(json.dumps(doc, indent=2) + "\n", args.artifact)
    return code


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="forestcount",
                     description="Exact counts of disk configurations by "
                                 "codimension and degree, with mutual "
                                 "verification across independent routes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("text", "json")):
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--output", default=None,
                       help="write to this path instead of stdout")

    p = sub.add_parser("count", help="one exact count, all routes")
    p.add_argument("--codim", type=_nonneg, required=True)
    p.add_argument("--degree", type=_nonneg, required=True)
    p.add_argument("--convention", choices=[*CONVENTIONS, "both"],
                   default="both")
    add_common(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("table", help="table of counts over a box")
    p.add_argument("--cmax", type=_nonneg, required=True)
    p.add_argument("--dmax", type=_nonneg, required=True)
    p.add_argument("--route", choices=["solver", "dp", "closed-form"],
                   default="solver")
    p.add_argument("--convention", choices=[*CONVENTIONS, "both"],
                   default="both")
    add_common(p, formats=("csv", "json"))
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("simple", help="simple-configuration counts")
    p.add_argument("--cmax", type=_nonneg, required=True)
    p.add_argument("--dmax", type=_nonneg, required=True)
    add_common(p, formats=("csv", "json"))
    p.set_defaults(func=cmd_simple)

    p = sub.add_parser("asymptotics", help="exact vs asymptotic estimate")
    p.add_argument("--codim", type=_nonneg, required=True)
    p.add_argument("--degree", type=_nonneg, required=True)
    add_common(p)
    p.set_defaults(func=cmd_asymptotics)

    p = sub.add_parser("oracle", help="exhaustive flat-diagram enumeration")
    p.add_argument("--degree", type=_nonneg, required=True)
    p.add_argument("--dump", default=None,
                   help="write enumerated diagrams as JSON to this path "
                        "('-' for stdout)")
    add_common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--only", choices=list(CHECKS), default=None,
                   metavar="CHECK",
                   help="run a single check: " + ", ".join(CHECKS))
    p.add_argument("--row-sum-dmax", type=_nonneg, default=60)
    p.add_argument("--oracle-degree", type=_nonneg, default=3)
    p.add_argument("--cross-cmax", type=_nonneg, default=10)
    p.add_argument("--cross-dmax", type=_nonneg, default=20)
    p.add_argument("--box", type=_nonneg, default=12,
                   help="box side for the polynomial residual checks")
    p.add_argument("--artifact", default=None,
                   help="also write the route-agreement JSON artifact to "
                        "this path ('-' for stdout)")
    add_common(p, formats=("text", "jsonl"))
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # an exact count can pass CPython's limit on int-to-str digits (4,300
    # by default since 3.10.7); lift it while the command runs and restore
    # it after, since main also runs inside other programs
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        args = parser.parse_args(argv)
        if limit:
            sys.set_int_max_str_digits(0)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceGuard as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
