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

`table`, `count` and `verify` may share their items (conventions or
checks) with one forked worker, cut by each item's predicted cost; the
output is the same either way (see _fork_map and _cut).
"""

from __future__ import annotations

import argparse
import json
import marshal
import math
import os
import sys

from .dp import dp_count, dp_table
from .formulas import (asymptotic_estimate, asymptotic_log, asymptotic_ratio,
                       codim1_count, codim1_row, flat_count, flat_row,
                       simple_count)
from .oracle import MAX_ORACLE_DEGREE, dump_diagrams, enumerate_flat
from .solver import CONVENTIONS, cached_solution, count_configurations
from .tables import CountTable
from .verify import (CHECKS, WORK, Work, route_agreement_document,
                     run_suite, simple_closed_form, suite_passed)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISAGREEMENT = 2
EXIT_RESOURCE = 3

DEFAULT_MAX_CELLS = 200_000
# Predicted costs (see _costs) are in milliseconds of one CPU of the
# machine that README "Performance notes" names, fitted there to the
# times `tools/bench_record.py costs` prints.  A fork pays when the
# lighter of its two sides costs FORK_MIN_MS or more.
ITEM_MS = 1.0
FORK_MIN_MS = 12.0


class UsageError(Exception):
    pass


class ResourceGuard(Exception):
    pass


def _terminal_width() -> int:
    """The width shutil.get_terminal_size() gives, without importing
    shutil (and, through it, bz2, lzma and fnmatch): COLUMNS if it is a
    positive int, else the width of the terminal on sys.__stdout__, else
    80."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns > 0:
        return columns
    try:
        return os.get_terminal_size(sys.__stdout__.fileno()).columns or 80
    except (AttributeError, ValueError, OSError):
        return 80


class _Formatter(argparse.HelpFormatter):
    """argparse's help layout, for the width it would take itself; argparse
    builds one formatter per argument, and its own imports shutil."""

    def __init__(self, prog, **kwargs):
        kwargs.setdefault("width", _terminal_width() - 2)
        super().__init__(prog, **kwargs)


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # subparsers are built through this too
        kwargs.setdefault("formatter_class", _Formatter)
        super().__init__(**kwargs)

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
    inside other programs, and a fork copies only the calling thread).
    A thread of the threading module needs that module loaded, so it is
    asked only when it is."""
    threading = sys.modules.get("threading")
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2
            and (threading is None or threading.active_count() == 1))


def _solve_ms(cmax: int, dmax: int) -> float:
    """The predicted cost of a cold solve_system on the box (cmax, dmax):
    a fixed part, the row pairs of its products (tall boxes), its cells
    (wide boxes), and the big-int products of its columns inside the
    support bound c <= 2d, which grow about as d^4 per column."""
    d = dmax + 1
    return (0.5 + 0.021 * d ** 1.5 + 0.0048 * (cmax + 1) * d
            + 5.7e-7 * min(cmax, 2 * dmax) * d ** 4)


def _costs(works) -> list[float]:
    """The predicted cost of each of works (verify.Work), done one after
    the other in one process: the item's own arithmetic, its solves, each
    cold unless an earlier item solved a covering box of the same rule
    (then a cache hit, free), its simple solves at a third of a solve,
    its dp fills at about (c+1)^2 d^2 products, and its oracle
    enumeration, which grows about 10-fold per degree."""
    solved, costs = [], []
    for work in works:
        cost = ITEM_MS
        for box in work.solves:
            rule, c, d = box
            for r, cm, dm in solved:
                if r == rule and c <= cm and d <= dm:
                    break
            else:
                solved.append(box)
                cost += _solve_ms(c, d)
        for c, d in work.simple:
            cost += _solve_ms(c, d) / 3
        for c, d in work.dp:
            cost += 2.7e-4 * (c + 1) ** 2 * d ** 2
        if work.oracle is not None:
            cost += 6e-4 * 10 ** work.oracle
        costs.append(cost)
    return costs


def _cut(works) -> list[int]:
    """The indices, in list order, of the items a forked worker does, or []
    when a fork does not pay; the rest are done here.

    An item's price is its cost in the whole list done in order (_costs),
    so a check whose boxes an earlier check solves is priced as the cache
    hit it is in a serial run.  Items are placed largest price first,
    items of equal price together: of those, the ones nearest the front
    of the list go here and the rest to the worker, split where the
    slower side, priced in list order, ends soonest, and a tie goes
    here.  So checks that share a box tend to stay in one process, and
    equal prices cut the list in the middle.  The cut depends only on
    the works, so each process does the same items on every run.  A fork
    pays when the lighter side's price reaches FORK_MIN_MS."""
    def price(side: list[int]) -> float:
        return sum(_costs([works[i] for i in sorted(side)]))

    prices = _costs(works)
    here, worker = [], []
    for top in sorted(set(prices), reverse=True):
        block = [i for i, p in enumerate(prices) if p == top]
        m = min(range(len(block), -1, -1), key=lambda m: max(
            price(here + block[:m]), price(worker + block[m:])))
        here += block[:m]
        worker += block[m:]
    if min(price(here), price(worker)) < FORK_MIN_MS:
        return []
    return sorted(worker)


def _fork_map(items: list, work, works: list, noun: str) -> list:
    """[work(item) for item in items], with the same results and the same
    first exception.  works[i] declares what work(items[i]) computes (a
    verify.Work).  Results must be plain data, which marshal can send:
    ints, strings, floats, bools, None, and lists, tuples and dicts of
    them.

    When _can_fork() and _cut(works) names items, one forked worker does
    those and this process the rest, each in list order.  The worker
    sends back its results as one marshal payload through a pipe, or
    stops at its first exception and sends its results so far with that
    item's index and the exception, pickled; it leaves by os._exit, and
    only that path imports pickle.  This process reads the payload only
    after its own items, or when its own item k raises and the worker
    holds an item before k, so the pipe's buffer may fill, and the
    worker then waits; it then raises whichever exception comes first in
    list order.  The worker is killed (a no-op once it has left) and
    reaped before this returns, and the solutions it caches stay in it.
    A worker that ends without a result is an error naming the items it
    held.  If fork fails, every item is done here."""
    held = _cut(works) if len(items) > 1 and _can_fork() else []
    if not held:
        return [work(item) for item in items]
    import signal

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
            done, failed = [], None
            for i in held:
                try:
                    done.append(work(items[i]))
                except BaseException as exc:  # raised again by the parent
                    import pickle
                    failed = i, pickle.dumps(exc)
                    break
            with open(w, "wb") as pipe:
                pipe.write(marshal.dumps((done, failed)))
        finally:
            os._exit(0)
    os.close(w)
    try:
        results, error, worker = [None] * len(items), None, set(held)
        with open(r, "rb") as pipe:
            for i, item in enumerate(items):
                if i in worker:
                    continue
                try:
                    results[i] = work(item)
                except Exception as exc:
                    if i < held[0]:  # first in list order: no need to wait
                        raise
                    error = i, exc
                    break
            try:
                done, failed = marshal.loads(pipe.read())
            except (EOFError, ValueError, TypeError):
                if len(held) > 1:
                    noun += "s"
                names = ", ".join(str(items[i]) for i in held)
                raise ChildProcessError(f"the worker for {noun} {names} "
                                        "ended without a result") from None
        if failed and not (error and error[0] < failed[0]):
            import pickle
            raise pickle.loads(failed[1])
        if error:
            raise error[1]
        for i, value in zip(held, done):
            results[i] = value
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
                       [Work(((name, c, d),)) for name in names], "convention")
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
            .n1.crop(cmax, dmax).grid(),
            [Work(((name, cmax, dmax),)) for name in names], "convention")
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
    closed, mismatches = simple_closed_form(cmax, dmax)
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
    # guard every box a user sizes before any check runs; the artifact is
    # built on the cross-routes box
    names = [args.only] if args.only else list(CHECKS)
    works = [WORK[name](**overrides.get(name, {})) for name in names]
    sized = [work for name, work in zip(names, works) if name in overrides]
    if args.artifact:
        sized.append(WORK["cross-routes"](**overrides["cross-routes"]))
    for work in sized:
        if work.oracle is not None:
            _guard_oracle(work.oracle)
        for box in [box[1:] for box in work.solves] + list(work.dp):
            _guard_box(*box)
    _claim(args.output, args.artifact)
    reports = _fork_map(names, lambda name: run_suite(name, overrides)[0],
                        works, "check")
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
