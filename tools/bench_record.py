"""Record benchmark runs of two checkouts into one BENCH file, and summarise it.

    python3 tools/bench_record.py pairs --parent DIR --change DIR \
        --workload deep-table --seeds 51-60 --out BENCH_6.json
    python3 tools/bench_record.py summary BENCH_6.json
    python3 tools/bench_record.py counts --parent DIR --change DIR --seed 11
    python3 tools/bench_record.py digests --parent DIR --change DIR
    python3 tools/bench_record.py costs --parent DIR --change DIR

Each run is `python3 benchmarks/run.py --workload W --seed N --seconds S
--trace 0` inside the checkout, S being run_seconds in this repository's
BENCHMARK.json, so both checkouts run for the same time.  The last two
lines of its standard output, the environment line and the result, are
appended to the BENCH file under the label `parent` or `change`, with a
digest of the checkout's sources; the two checkouts run alternately, the
parent first on odd seeds.  A run that exits nonzero is appended too,
with its workload and seed, its `exit_code` and the last line of its
standard error as `error`, and no `metrics`, and the schedule goes on.
`summary` lists each workload's crashed runs by side and seed, and
prints, over the seeds where both sides have metrics, per end-to-end
metric each side's median and quartiles and how many seed pairs the
change won in the metric's `better` direction, and marks each metric
with a verdict, `better` and the relative `bound` coming from
BENCHMARK.json:

    GAIN        the change won at least nine tenths of the pairs and the
                medians differ, in the better direction, by more than the
                parent's interquartile range
    UNRESOLVED  not a gain, the parent's interquartile range is wider than
                the bound (relative to its median), and not every change
                run beats every parent run: the spread hides the bound
    REGRESSED   the change median is worse than the parent median by more
                than the bound

`counts` runs `benchmarks/run.py --trace 1 --seconds 0` (one untraced and
one traced run) with one seed in each checkout, for every workload of
BENCHMARK.json, and prints side by side the per-layer metrics whose unit
is `count` or `bit`, marking DIFFERS where the two checkouts disagree.
These counts repeat exactly from run to run, so one run per side
suffices; it exits 1 if a run crashed or its outputs were wrong.

`digests` runs DIGEST_CHILD in one child per checkout, with
PYTHONPATH=<checkout>/src and the checkout as working directory, and
prints side by side what a change that keeps every count, report, Newton
step and packed product must keep:
  - the SHA-256 of solver rows: boxes solved cold, among them boxes
    where the `_pack` memo evicts, and every box with cmax <= 3 and
    dmax <= 3 (from no Newton step up to a last step from p = 2 with
    e = 1, the first whose product for n1's top rows lands on the box);
    then, under the odd, linear, k^2 and 3k rules, each from an empty
    cache, the sweeps every-F ((2F-1,F) for F = 2..24), frontier (F =
    2, 4, ..., 24, the count-session's), tall-then-wide ((0,12), (1,12),
    (3,4), (10,6), (12,8), (16,10)) and widening-row ((c,20) for c = 0,
    4, ..., 40), where seeds of k^2 and 3k fail their first Newton step
    and restart;
  - the Newton steps and restarts of each sweep and of the count-session
    queries of seed 1, asked through count_configurations: a step is a
    call of the `step` that `solver._newton` receives, counted by
    wrapping it, and a restart a `_newton` call made inside another;
  - the hits and misses of the `series._pack` memo, each from an empty
    memo and solution cache, for the odd and linear (64,32) solves, the
    odd (120,60) solve, where the memo evicts, and the count-session
    queries of seed 1;
  - the exit code and SHA-256 of CLI outputs, among them those the CLI
    shares with a forked worker on a machine with two CPUs or more (help
    is printed with COLUMNS=80, so that its width is fixed).
Digests are shown by their first 16 hex digits.  It marks each line
where the checkouts differ with DIFFERS and exits 1 if any does.

`costs` prints the times that the price rule of `cli._costs` is fitted
to, in ms, each the best of --rounds rounds (5 by default) in one fresh
child per checkout and job, beside that checkout's price of each: every
verify check's time in the serial suite, in list order (warm), and alone
from an empty cache (cold), for the benchmark's suite and the default
`verify`, with its price in order and alone; then the cold odd and
linear solves of the boxes of README's fork crossover table with the
price of one.  Each round clears the solution cache and the `_pack` memo
first.

Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SCHEMA = "bench@1"
LABELS = ("parent", "change")
BENCHMARK = json.loads((Path(__file__).resolve().parents[1]
                        / "BENCHMARK.json").read_text())
RUN_SECONDS = BENCHMARK["run_seconds"]
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
COUNTED = [m["name"] for m in BENCHMARK["per_layer"]
           if m["unit"] in ("count", "bit")]


def source_digest(checkout: Path) -> str:
    """SHA-256 over the checkout's package sources, in path order."""
    h = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        h.update(path.relative_to(checkout).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def run_once(checkout: Path, workload: str, seed: int,
             trace: int = 0) -> dict:
    """The environment and result lines of one run, or, when it exits
    nonzero, its workload and seed, exit code and last standard error
    line."""
    seconds = 0 if trace else RUN_SECONDS
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, text=True, capture_output=True)
    if done.returncode:
        err = done.stderr.strip().splitlines() or [""]
        return {"env": {"workload": workload, "seed": seed,
                        "seconds": seconds, "trace": trace},
                "exit_code": done.returncode, "error": err[-1]}
    env_line, result_line = done.stdout.strip().splitlines()[-2:]
    return {**json.loads(env_line), **json.loads(result_line)}


def append(out: Path, label: str, checkout: Path, record: dict) -> None:
    doc = (json.loads(out.read_text()) if out.exists()
           else {"schema": SCHEMA, "runs": []})
    if doc.get("schema") != SCHEMA:
        raise SystemExit(f"{out}: schema is not {SCHEMA}")
    doc["runs"].append({"label": label, "source_sha256":
                        source_digest(checkout), **record})
    out.write_text(json.dumps(doc, indent=1) + "\n")


def crash(run: dict) -> str:
    return f"exit {run['exit_code']}: {run['error']}"


def record(out: Path, label: str, checkout: Path, workload: str,
           seed: int) -> None:
    rec = run_once(checkout, workload, seed)
    append(out, label, checkout, rec)
    print(f"{label:6} {workload} seed {seed}: "
          + (f"wall_s {rec['metrics']['wall_s']['value']:.4f} "
             f"correct={rec['correct']}" if "metrics" in rec
             else crash(rec)), flush=True)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(path: Path) -> None:
    runs = json.loads(path.read_text())["runs"]
    workloads = sorted({r["env"]["workload"] for r in runs})
    for w in workloads:
        ran = [r for r in runs if r["env"]["workload"] == w]
        by = {lab: {r["env"]["seed"]: r for r in ran
                    if r["label"] == lab and "metrics" in r}
              for lab in LABELS}
        seeds = sorted(set(by["parent"]) & set(by["change"]))
        unpaired = sum(len(by[lab]) for lab in LABELS) - 2 * len(seeds)
        print(f"{w}: " + (f"{len(seeds)} pairs, seeds {seeds[0]}-{seeds[-1]}"
                          if seeds else "no complete pair")
              + (f", {unpaired} unpaired runs skipped" if unpaired else ""))
        for r in ran:
            if "metrics" not in r:
                print(f"  crashed: {r['label']} seed {r['env']['seed']}, "
                      + crash(r))
        if not seeds:
            continue
        for name in by["parent"][seeds[0]]["metrics"]:
            pv = [by["parent"][s]["metrics"][name]["value"] for s in seeds]
            cv = [by["change"][s]["metrics"][name]["value"] for s in seeds]
            p, c = quartiles(pv), quartiles(cv)
            spec = END_TO_END[name]
            # +1 when higher is better: sign * (change - parent) > 0 wins
            sign = 1 if spec["better"] == "higher" else -1
            wins = sum(sign * (b - a) > 0 for a, b in zip(pv, cv))
            iqr = p[2] - p[0]
            # every change run beats every parent run
            sweep = min(sign * v for v in cv) > max(sign * v for v in pv)
            marks = []
            if 10 * wins >= 9 * len(seeds) and sign * (c[1] - p[1]) > iqr:
                marks.append("GAIN")
            elif iqr > spec["bound"] * abs(p[1]) and not sweep:
                marks.append("UNRESOLVED")
            if sign * (p[1] - c[1]) > spec["bound"] * abs(p[1]):
                marks.append("REGRESSED")
            change = (c[1] / p[1] - 1) * 100 if p[1] else 0.0
            print(f"  {name:15} parent {p[1]:.4g} [{p[0]:.4g}, {p[2]:.4g}]"
                  f"  change {c[1]:.4g} [{c[0]:.4g}, {c[2]:.4g}]"
                  f"  {change:+.1f}%  {spec['better']} in {wins}/{len(seeds)}"
                  + "".join("  " + m for m in marks))


def counts(parent: Path, change: Path, seed: int) -> bool:
    """Print the count and bit metrics of both checkouts side by side;
    return whether every run finished with correct outputs."""
    correct = True
    for w in (w["name"] for w in BENCHMARK["workloads"]):
        runs = [run_once(checkout.resolve(), w, seed, trace=1)
                for checkout in (parent, change)]
        print(f"{w}, seed {seed}:")
        for label, run in zip(LABELS, runs):
            if "metrics" not in run:
                print(f"  {label} run crashed, {crash(run)}")
            elif not run["correct"]:
                print(f"  {label} run had wrong outputs "
                      f"({run['failed']} of {run['attempted']} failed)")
        if not all(run.get("correct") for run in runs):
            correct = False
        if any("metrics" not in run for run in runs):
            continue
        print(f"  {'metric':28} {'parent':>14} {'change':>14}")
        for name in COUNTED:
            p, c = (r["metrics"][name]["value"] for r in runs)
            print(f"  {name:28} {p:>14,} {c:>14,}"
                  + ("  DIFFERS" if p != c else ""))
    return correct


def child(checkout: Path, code: str, *args: str):
    """Run code in a fresh interpreter on the checkout's sources, from the
    checkout; return the JSON of its last output line."""
    checkout = checkout.resolve()
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    out = subprocess.run([sys.executable, "-c", code, *args], cwd=checkout,
                         env=env, check=True, text=True,
                         stdout=subprocess.PIPE).stdout
    return json.loads(out.strip().splitlines()[-1])


DIGEST_CHILD = r"""
import contextlib, hashlib, io, json, os, pathlib, sys
from forestcount import count_configurations, series, solver
from forestcount.cli import main
from forestcount.solver import (CodimWeight, cached_solution, clear_cache,
                                solve_simple, solve_system)

sys.path.insert(0, "benchmarks")
from workloads import SESSION_FRONTIERS, session_queries

def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]

def rows(*series):
    return sha(json.dumps([s.grid() for s in series]))

def cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:           # --help
            code = exc.code
    return code, out.getvalue()

newton, tally, depth = solver._newton, [0, 0], [0]

def counted_newton(step, cmax, dmax, seed=None):
    # a _newton call inside another is a restart, with the step wrapped
    # by the outer call already; results pass through untouched
    if depth[0]:
        tally[1] += 1
        return newton(step, cmax, dmax, seed)

    def counted(t, e):
        tally[0] += 1
        return step(t, e)

    depth[0] += 1
    try:
        return newton(counted, cmax, dmax, seed)
    finally:
        depth[0] -= 1

solver._newton = counted_newton

def block(run):
    # run() from an empty solution cache and _pack memo: its Newton
    # steps / restarts and its _pack hits / misses
    clear_cache()
    series._pack.cache_clear()
    tally[:] = [0, 0]
    run()
    info = series._pack.cache_info()
    return f"{tally[0]} / {tally[1]}", f"{info.hits} / {info.misses}"

lines = {}
rules = {"odd": "odd", "linear": "linear",
         "k^2": CodimWeight("square", lambda k: k * k),
         "3k": CodimWeight("triple", lambda k: 3 * k)}

def solved(name, cmax, dmax):
    sol = solve_system(rules[name], cmax, dmax)
    lines[f"{name} ({cmax},{dmax}) n1/n2/n3"] = rows(sol.n1, sol.n2, sol.n3)

lines["(64,32) solves _pack hits / misses"] = block(
    lambda: [solved(name, 64, 32) for name in ("odd", "linear")])[1]
lines["odd (120,60) solve _pack hits / misses"] = block(
    lambda: solved("odd", 120, 60))[1]
for name in ("odd", "linear"):
    for cmax, dmax in ((47, 24), (40, 20), (0, 30)):
        solved(name, cmax, dmax)
solved("odd", 30, 60)
solved("k^2", 40, 20)
for name, conv in rules.items():
    sols = [solve_system(conv, cmax, dmax)
            for cmax in range(4) for dmax in range(4)]
    lines[f"{name} every (c<=3,d<=3) n1/n2/n3"] = rows(
        *(s for sol in sols for s in (sol.n1, sol.n2, sol.n3)))
steps, memo = block(lambda: [count_configurations(c, d, conv)
                             for c, d, conv in session_queries(1)])
lines["count-session seed 1 steps / restarts"] = steps
lines["count-session seed 1 _pack hits / misses"] = memo
sweeps = {"every-F": tuple((2 * f - 1, f) for f in range(2, 25)),
          "frontier": tuple((2 * f - 1, f) for f in SESSION_FRONTIERS),
          "tall-then-wide": ((0, 12), (1, 12), (3, 4), (10, 6), (12, 8),
                             (16, 10)),
          "widening-row": tuple((c, 20) for c in range(0, 41, 4))}
for sweep, boxes in sweeps.items():
    for name, conv in rules.items():
        def walk():
            for cmax, dmax in boxes:
                sol = cached_solution(conv, cmax, dmax)
                lines[f"{sweep} {name} ({cmax},{dmax})"] = rows(
                    sol.n1, sol.n2, sol.n3)
        lines[f"{sweep} {name} steps / restarts"] = block(walk)[0]
clear_cache()
lines["solve_simple(20,40)"] = rows(solve_simple(20, 40))
code, out = cli("verify", "--format", "jsonl")
lines["verify --format jsonl"] = f"exit {code} {sha(out)}"
for form in ("jsonl", "text"):
    command = f"verify --row-sum-dmax 24 --oracle-degree 4 --format {form}"
    code, out = cli(*command.split())
    lines[command] = f"exit {code} {sha(out)}"
code, out = cli("verify", "--artifact", "-")
lines["verify --artifact -"] = f"exit {code} {sha(out)}"
code, out = cli("verify", "--only", "cross-routes", "--format", "jsonl",
                "--artifact", "-")
lines["verify --only cross-routes --artifact -"] = f"exit {code} {sha(out)}"
artifact = json.loads(out.split("\n", 1)[1])
committed = json.loads(pathlib.Path("route_agreement.json").read_text())
lines["cross-routes --artifact -"] = (
    f"exit {code} {'committed' if artifact == committed else 'other'}")
for d in range(5):
    code, out = cli("oracle", "--degree", str(d), "--dump", "-")
    lines[f"oracle --degree {d} --dump -"] = f"exit {code} {sha(out)}"
commands = [f"count --codim {c} --degree 12" for c in range(3)] + [
    "table --route closed-form --cmax 1 --dmax 30",
    "asymptotics --codim 1 --degree 200", "simple --cmax 6 --dmax 20",
    "table --cmax 64 --dmax 32 --convention both",
    "count --codim 48 --degree 24", "count --codim 40 --degree 30"]
for command in commands:
    code, out = cli(*command.split(), "--format", "json")
    lines[command] = f"exit {code} {sha(out)}"
command = "table --cmax 48 --dmax 24 --format csv"
code, out = cli(*command.split())
lines[command] = f"exit {code} {sha(out)}"
for command in ("verify --only bogus", "asymptotics --codim 0 --degree 0"):
    lines[command] = f"exit {cli(*command.split())[0]}"
os.environ["COLUMNS"] = "80"
for command in ("", "count", "table", "simple", "asymptotics", "oracle",
                "verify"):
    code, out = cli(*command.split(), "--help")
    lines[f"{command or 'forestcount'} --help"] = f"exit {code} {sha(out)}"
print(json.dumps(lines))
"""


# the benchmark's suite and the default `verify`, as keyword overrides
COST_SUITES = {
    "verify --row-sum-dmax 24 --oracle-degree 4":
        {"row-sum": {"dmax": 24}, "oracle": {"max_degree": 4}},
    "verify": {},
}
# the boxes of README's fork crossover table
COST_BOXES = ((2, 2), (8, 4), (20, 10), (200, 10), (24, 12), (100, 12),
              (0, 60), (60, 14), (30, 15), (12, 20), (0, 80), (32, 16),
              (34, 17), (0, 90), (8, 30), (36, 18), (6, 36), (16, 24),
              (26, 20), (40, 20), (0, 120), (10, 40), (4, 60), (20, 30),
              (48, 24), (0, 200), (64, 32), (120, 60))
COSTS_CHILD = r"""
import json, sys, time
from forestcount import cli, series, solver, verify

def cold():
    solver.clear_cache()
    series._pack.cache_clear()

def ms(fn, *args, **kwargs):
    start = time.perf_counter()
    fn(*args, **kwargs)
    return (time.perf_counter() - start) * 1000

rounds, job = int(sys.argv[1]), json.loads(sys.argv[2])
if isinstance(job, dict):       # one suite's overrides
    names = list(verify.CHECKS)
    warm = {name: [] for name in names}
    alone = {name: [] for name in names}
    for _ in range(rounds):
        cold()
        for name in names:      # in list order, as the serial suite
            warm[name].append(ms(verify.CHECKS[name], **job.get(name, {})))
        for name in names:
            cold()
            alone[name].append(ms(verify.CHECKS[name], **job.get(name, {})))
    works = [verify.WORK[name](**job.get(name, {})) for name in names]
    in_order = cli._costs(works)
    print(json.dumps({name: [min(warm[name]), min(alone[name]), in_order[i],
                             cli._costs(works[i:i + 1])[0]]
                      for i, name in enumerate(names)}))
else:                           # boxes to solve cold, by rule
    times = {}
    for cmax, dmax in job:
        for rule in ("odd", "linear"):
            best = []
            for _ in range(rounds):
                cold()
                best.append(ms(solver.solve_system, rule, cmax, dmax))
            times[f"{rule} ({cmax},{dmax})"] = [min(best),
                                                cli._solve_ms(cmax, dmax)]
    print(json.dumps(times))
"""


def costs(parent: Path, change: Path, rounds: int) -> None:
    """Print each check's measured time in the serial suite (warm) and
    alone (cold) beside its price in order and alone, in both checkouts,
    for the suites of COST_SUITES, then each COST_BOXES box's cold solve
    time beside its price.  Every checkout runs each job in one fresh
    child, the best of `rounds` rounds, each round from an empty cache,
    and prices it with its own price rule."""
    for label, job in [*COST_SUITES.items(), ("cold solves", COST_BOXES)]:
        sides = [child(checkout, COSTS_CHILD, str(rounds), json.dumps(job))
                 for checkout in (parent, change)]
        item, heads = (("check", ("warm", "cold", "p.warm", "p.cold"))
                       if isinstance(job, dict) else ("box", ("solve", "price")))
        width = 8 * len(heads) - 1
        print(f"{label} (ms; best of {rounds}; p. is the checkout's price):")
        print(f"  {item:20} {'parent':>{width}} {'change':>{width}}")
        print(f"  {'':20} " + " ".join(f"{h:>7}" for h in heads * 2))
        rows = {name: sides[0][name] + sides[1][name] for name in sides[0]}
        if isinstance(job, dict):
            rows["all"] = [sum(col) for col in zip(*rows.values())]
        for name, row in rows.items():
            print(f"  {name:20} " + " ".join(f"{v:7.1f}" for v in row))


def digests(parent: Path, change: Path) -> bool:
    """Run DIGEST_CHILD in one child per checkout, print its lines side
    by side and return whether they all agree."""
    sides = [child(checkout, DIGEST_CHILD) for checkout in (parent, change)]
    same = True
    print(f"{'output':44} {'parent':>24} {'change':>24}")
    for name, p in sides[0].items():
        c = sides[1][name]
        same = same and p == c
        print(f"{name:44} {p:>24} {c:>24}" + ("  DIFFERS" if p != c else ""))
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    pair = sub.add_parser("pairs")
    pair.add_argument("--parent", type=Path, required=True)
    pair.add_argument("--change", type=Path, required=True)
    pair.add_argument("--workload", required=True)
    pair.add_argument("--seeds", type=seed_range, required=True)
    pair.add_argument("--out", type=Path, required=True)
    show = sub.add_parser("summary")
    show.add_argument("path", type=Path)
    count = sub.add_parser("counts")
    count.add_argument("--parent", type=Path, required=True)
    count.add_argument("--change", type=Path, required=True)
    count.add_argument("--seed", type=int, required=True)
    cost = sub.add_parser("costs")
    cost.add_argument("--parent", type=Path, required=True)
    cost.add_argument("--change", type=Path, required=True)
    cost.add_argument("--rounds", type=int, default=5)
    digest = sub.add_parser("digests")
    digest.add_argument("--parent", type=Path, required=True)
    digest.add_argument("--change", type=Path, required=True)
    args = parser.parse_args(argv)

    if args.cmd == "summary":
        summary(args.path)
    elif args.cmd == "counts":
        return 0 if counts(args.parent, args.change, args.seed) else 1
    elif args.cmd == "costs":
        costs(args.parent, args.change, args.rounds)
    elif args.cmd == "digests":
        return 0 if digests(args.parent, args.change) else 1
    else:
        for seed in args.seeds:
            order = LABELS if seed % 2 else LABELS[::-1]
            for label in order:
                checkout = getattr(args, label).resolve()
                record(args.out, label, checkout, args.workload, seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
