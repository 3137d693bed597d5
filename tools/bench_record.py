"""Record benchmark runs of two checkouts into one BENCH file, and summarise it.

    python3 tools/bench_record.py pairs --parent DIR --change DIR \
        --workload deep-table --seeds 51-60 --out BENCH_6.json
    python3 tools/bench_record.py summary BENCH_6.json
    python3 tools/bench_record.py counts --parent DIR --change DIR --seed 11
    python3 tools/bench_record.py digests --parent DIR --change DIR

Each run is `python3 benchmarks/run.py --workload W --seed N --seconds S
--trace 0` inside the checkout, S being run_seconds in this repository's
BENCHMARK.json, so both checkouts run for the same time.  The last two
lines of its standard output, the environment line and the result, are
appended to the BENCH file under the label `parent` or `change`, with a
digest of the checkout's sources; the two checkouts run alternately, the
parent first on odd seeds.
`summary` prints, per workload and end-to-end metric, each side's median
and quartiles and how many seed pairs the change won in the metric's
`better` direction, and marks each metric with a verdict, `better` and
the relative `bound` coming from BENCHMARK.json:

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
suffices; it exits 1 if a run's outputs were wrong.  It then prints the
hits and misses of the `series._pack` memo for three workloads, each in
a fresh child per checkout (run as for `digests`): the odd and linear
(64,32) solves, the odd (120,60) solve, where the memo evicts, and the
count-session queries of the seed asked through count_configurations.
A change that keeps every pack keeps all three.

`digests` runs one child per checkout, with PYTHONPATH=<checkout>/src
and the checkout as working directory, and prints side by side what a
change that keeps every count and report must keep: the SHA-256 of the
n1/n2/n3 rows for odd and linear at (64,32), (47,24), (40,20) and
(0,30), for odd (30,60) and (120,60), where the `_pack` memo evicts
during the solve, for weight(k) = k^2 at (40,20), a rule that never
becomes arithmetic and so makes the most products per Newton step, and
of solve_simple(20,40); the same digests of the frontier boxes
(2F-1, F) that a count session asks, asked in order through
cached_solution from an empty cache, so that each miss may start Newton
from the box before it: F = 2..24 for odd and linear, and F = 2..16 for
k^2, whose seeds often fail Newton's first-step check; the exit code
and SHA-256 of the default `forestcount verify --format jsonl`, of the
verify-suite workload's `verify --row-sum-dmax 24 --oracle-degree 4` in
jsonl and in text, and of `verify --artifact -`, each of which the CLI
shares with one forked worker on a machine with two CPUs or more; the
exit code and SHA-256 of `verify --only cross-routes --artifact -`, and
whether it writes the checkout's committed route_agreement.json; and
the exit code and SHA-256 of
`oracle --degree d --dump -` for d = 0..4; the exit code and SHA-256 of
the JSON output of `count --codim c --degree 12` for c = 0, 1, 2,
`table --route closed-form --cmax 1 --dmax 30`, `asymptotics --codim 1
--degree 200`, `simple --cmax 6 --dmax 20`, and of `table --cmax 64
--dmax 32 --convention both` and `count --codim 48 --degree 24`, which
the CLI solves in a forked worker per convention after the first on a
machine with two CPUs or more; the exit codes of the
usage errors `verify --only bogus` and `asymptotics --codim 0 --degree
0`; and the exit code and SHA-256 of `forestcount --help` and of each
subcommand's `--help`, with COLUMNS=80 so that the help width is fixed.
Digests are shown by their first 16 hex digits.  It marks each line
where the checkouts differ with DIFFERS and exits 1 if any does.

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
    seconds = 0 if trace else RUN_SECONDS
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, check=True, text=True,
                         stdout=subprocess.PIPE).stdout
    env_line, result_line = out.strip().splitlines()[-2:]
    return {**json.loads(env_line), **json.loads(result_line)}


def append(out: Path, label: str, checkout: Path, record: dict) -> None:
    doc = (json.loads(out.read_text()) if out.exists()
           else {"schema": SCHEMA, "runs": []})
    if doc.get("schema") != SCHEMA:
        raise SystemExit(f"{out}: schema is not {SCHEMA}")
    doc["runs"].append({"label": label, "source_sha256":
                        source_digest(checkout), **record})
    out.write_text(json.dumps(doc, indent=1) + "\n")


def record(out: Path, label: str, checkout: Path, workload: str,
           seed: int) -> None:
    rec = run_once(checkout, workload, seed)
    append(out, label, checkout, rec)
    print(f"{label:6} {workload} seed {seed}: wall_s "
          f"{rec['metrics']['wall_s']['value']:.4f} "
          f"correct={rec['correct']}", flush=True)


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
        by = {lab: {r["env"]["seed"]: r for r in runs
                    if r["label"] == lab and r["env"]["workload"] == w}
              for lab in LABELS}
        seeds = sorted(set(by["parent"]) & set(by["change"]))
        unpaired = sum(len(by[lab]) for lab in LABELS) - 2 * len(seeds)
        if not seeds:
            print(f"{w}: no complete pair, {unpaired} unpaired runs skipped")
            continue
        print(f"{w}: {len(seeds)} pairs, seeds {seeds[0]}-{seeds[-1]}"
              + (f", {unpaired} unpaired runs skipped" if unpaired else ""))
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
    return whether every run's outputs were correct."""
    correct = True
    for w in (w["name"] for w in BENCHMARK["workloads"]):
        runs = [run_once(checkout.resolve(), w, seed, trace=1)
                for checkout in (parent, change)]
        print(f"{w}, seed {seed}:")
        for label, run in zip(LABELS, runs):
            if not run["correct"]:
                correct = False
                print(f"  {label} run had wrong outputs "
                      f"({run['failed']} of {run['attempted']} failed)")
        print(f"  {'metric':28} {'parent':>14} {'change':>14}")
        for name in COUNTED:
            p, c = (r["metrics"][name]["value"] for r in runs)
            print(f"  {name:28} {p:>14,} {c:>14,}"
                  + ("  DIFFERS" if p != c else ""))
    print(f"series._pack memo, seed {seed}:")
    print(f"  {'workload':28} {'parent':>14} {'change':>14}")
    for w in MEMO_WORKLOADS:
        sides = [child(checkout, MEMO_CHILD, w, str(seed))
                 for checkout in (parent, change)]
        for i, what in enumerate(("hits", "misses")):
            p, c = (side[i] for side in sides)
            print(f"  {w + ' ' + what:28} {p:>14,} {c:>14,}"
                  + ("  DIFFERS" if p != c else ""))
    return correct


MEMO_WORKLOADS = ("(64,32) solves", "odd (120,60) solve", "count-session")
MEMO_CHILD = r"""
import json, sys
from forestcount import count_configurations, series, solve_system

if sys.argv[1] == "(64,32) solves":
    for conv in ("odd", "linear"):
        solve_system(conv, 64, 32)
elif sys.argv[1] == "odd (120,60) solve":
    solve_system("odd", 120, 60)
else:
    sys.path.insert(0, "benchmarks")
    from workloads import session_queries
    for c, d, conv in session_queries(int(sys.argv[2])):
        count_configurations(c, d, conv)
info = series._pack.cache_info()
print(json.dumps([info.hits, info.misses]))
"""


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
import contextlib, hashlib, io, json, os, pathlib
from forestcount.cli import main
from forestcount.solver import (CodimWeight, cached_solution, clear_cache,
                                solve_simple, solve_system)

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

lines = {}
boxes = [(conv, cmax, dmax) for conv in ("odd", "linear")
         for cmax, dmax in ((64, 32), (47, 24), (40, 20), (0, 30))]
for conv, cmax, dmax in boxes + [("odd", 30, 60), ("odd", 120, 60)]:
    sol = solve_system(conv, cmax, dmax)
    lines[f"{conv} ({cmax},{dmax}) n1/n2/n3"] = rows(sol.n1, sol.n2, sol.n3)
square = CodimWeight("square", lambda k: k * k)
sol = solve_system(square, 40, 20)
lines["k^2 (40,20) n1/n2/n3"] = rows(sol.n1, sol.n2, sol.n3)
for name, conv, top in (("odd", "odd", 24), ("linear", "linear", 24),
                        ("k^2", square, 16)):
    clear_cache()
    for f in range(2, top + 1):
        sol = cached_solution(conv, 2 * f - 1, f)
        lines[f"sweep {name} (2F-1,F) F={f}"] = rows(sol.n1, sol.n2, sol.n3)
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
    "count --codim 48 --degree 24"]
for command in commands:
    code, out = cli(*command.split(), "--format", "json")
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


def digests(parent: Path, change: Path) -> bool:
    """Print both checkouts' output digests side by side; return whether
    they all agree."""
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
    digest = sub.add_parser("digests")
    digest.add_argument("--parent", type=Path, required=True)
    digest.add_argument("--change", type=Path, required=True)
    args = parser.parse_args(argv)

    if args.cmd == "summary":
        summary(args.path)
    elif args.cmd == "counts":
        return 0 if counts(args.parent, args.change, args.seed) else 1
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
