"""tools/bench_record.py against two fake checkouts whose benchmarks/run.py
prints fixed environment and result lines, or crashes on some runs."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

# The change's run.py fails on seed 3 and on every verify-suite run, as
# benchmarks/run.py does when speed.scale_near raises.
RUN = """\
import argparse, json, sys
parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(flag)
args = parser.parse_args()
seed = int(args.seed)
if {crashes} and (seed == 3 or args.workload == "verify-suite"):
    print("Traceback (most recent call last):", file=sys.stderr)
    print("RuntimeError: the run was too short", file=sys.stderr)
    sys.exit(1)
env = {{"workload": args.workload, "seed": seed,
        "seconds": float(args.seconds), "trace": int(args.trace)}}
# a traced run prints the counted per-layer metrics instead
metrics = {{name: {{"value": {value} + seed / 1000, "unit": "s"}}
            for name in {names!r}[int(args.trace)]}}
print("a line before the last two")
print(json.dumps({{"env": env}}))
print(json.dumps({{"correct": True, "attempted": 1, "failed": 0,
                   "metrics": metrics}}))
"""
NAMES = list(bench_record.END_TO_END), bench_record.COUNTED
CRASH = "exit 1: RuntimeError: the run was too short"


@pytest.fixture
def checkouts(tmp_path):
    """A parent whose runs all finish, and a change that crashes on some."""
    sides = []
    for label, value, crashes in (("parent", 1.0, False),
                                  ("change", 0.5, True)):
        root = tmp_path / label
        (root / "benchmarks").mkdir(parents=True)
        (root / "src").mkdir()
        (root / "benchmarks" / "run.py").write_text(RUN.format(
            crashes=crashes, value=value, names=NAMES))
        sides.append(root)
    return sides


def pairs(parent, change, workload, seeds, out):
    assert bench_record.main(["pairs", "--parent", str(parent), "--change",
                              str(change), "--workload", workload,
                              "--seeds", seeds, "--out", str(out)]) == 0


def test_pairs_keeps_every_run_and_summary_pairs_the_rest(checkouts,
                                                          tmp_path, capsys):
    out = tmp_path / "BENCH.json"
    pairs(*checkouts, "deep-table", "1-4", out)
    pairs(*checkouts, "verify-suite", "5", out)
    runs = json.loads(out.read_text())["runs"]
    assert [(r["label"], r["env"]["workload"], r["env"]["seed"])
            for r in runs] == [
        ("parent", "deep-table", 1), ("change", "deep-table", 1),
        ("change", "deep-table", 2), ("parent", "deep-table", 2),
        ("parent", "deep-table", 3), ("change", "deep-table", 3),
        ("change", "deep-table", 4), ("parent", "deep-table", 4),
        ("parent", "verify-suite", 5), ("change", "verify-suite", 5)]
    crashed = [r for r in runs if "metrics" not in r]
    assert [(r["label"], r["env"]["seed"], r["exit_code"], r["error"])
            for r in crashed] == [
        ("change", 3, 1, "RuntimeError: the run was too short"),
        ("change", 5, 1, "RuntimeError: the run was too short")]
    printed = capsys.readouterr().out.splitlines()
    assert f"change deep-table seed 3: {CRASH}" in printed
    assert "parent deep-table seed 3: wall_s 1.0030 correct=True" in printed

    bench_record.summary(out)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "deep-table: 3 pairs, seeds 1-4, 1 unpaired runs skipped"
    assert lines[1] == f"  crashed: change seed 3, {CRASH}"
    # the change's wall_s is lower on all three pairs, and its median
    # 0.502 s is the one of seeds 1, 2 and 4
    wall = next(line for line in lines if line.startswith("  wall_s"))
    assert "change 0.502" in wall and "lower in 3/3" in wall
    assert lines[-2:] == [
        "verify-suite: no complete pair, 1 unpaired runs skipped",
        f"  crashed: change seed 5, {CRASH}"]


def test_counts_reports_a_crashed_run(checkouts, capsys):
    assert bench_record.main(["counts", "--parent", str(checkouts[0]),
                              "--change", str(checkouts[1]),
                              "--seed", "1"]) == 1
    printed = capsys.readouterr().out
    assert f"verify-suite, seed 1:\n  change run crashed, {CRASH}\n" in printed
    assert "deep-table, seed 1:\n  metric" in printed
