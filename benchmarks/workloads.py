"""The three benchmark workloads: their inputs, child commands and checks.

A workload turns the seed into inputs, names the command that one timed
run starts, and checks that run's output against references that do not
come from the timed code path.  Checks run outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"

SESSION_QUERIES = 400
SESSION_FRONTIERS = tuple(range(2, 25, 2))     # degrees 2, 4, ..., 24
SESSION_DMAX = SESSION_FRONTIERS[-1]


def load_reference(name: str):
    return json.loads((REFERENCE / name).read_text(encoding="utf-8"))


@dataclass
class Outcome:
    """Operations one run attempted and how many of them failed its checks."""

    attempted: int
    failed: int
    latencies_s: list[float] = field(default_factory=list)
    started_s: list[float] = field(default_factory=list)


class DeepTable:
    """One deep box on the degree axis, both conventions, as JSON."""

    name = "deep-table"
    dmax = 32
    cli_args = ("table", "--cmax", "64", "--dmax", str(dmax),
                "--convention", "both", "--format", "json")

    def __init__(self, seed: int, work: Path):
        self.reference = load_reference("deep_table.json")

    def child_args(self) -> list[str]:
        return ["cli", *self.cli_args]

    def check(self, returncode: int, out: bytes) -> Outcome:
        from forestcount.formulas import codim1_count, flat_count
        ok = (returncode == 0
              and hashlib.sha256(out).hexdigest() == self.reference["sha256"])
        if ok:
            tables = json.loads(out)["tables"]
            ok = len(tables) == 2 and all(
                t["values"][0] == [flat_count(d) for d in range(self.dmax + 1)]
                and t["values"][1] == [codim1_count(d)
                                       for d in range(self.dmax + 1)]
                for t in tables)
        return Outcome(1, 0 if ok else 1)


class VerifySuite:
    """All registered checks over small boxes that share cached solutions."""

    name = "verify-suite"
    cli_args = ("verify", "--row-sum-dmax", "24", "--oracle-degree", "4",
                "--format", "jsonl")

    def __init__(self, seed: int, work: Path):
        self.reference = load_reference("verify_suite.json")

    def child_args(self) -> list[str]:
        return ["cli", *self.cli_args]

    def check(self, returncode: int, out: bytes) -> Outcome:
        try:
            statuses = {r["check"]: r["status"] for r in
                        map(json.loads, out.decode("utf-8").splitlines())}
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError):
            statuses = None
        ok = returncode == 0 and statuses == self.reference["statuses"]
        return Outcome(1, 0 if ok else 1)


def session_queries(seed: int) -> list[tuple[int, int, str]]:
    """The count-session queries for a seed, in the order they are asked.

    Each random query draws d uniformly from 1..SESSION_DMAX, c uniformly
    from 0..2d-1 and the convention uniformly.  The session advances a
    degree frontier: at frontier F it first asks (2F-1, F) under both
    conventions, which the covering-box cache cannot serve, then the
    random queries whose degree lies above the previous frontier and at
    most F, in seeded order.  Those are always served from the cache, so
    the misses, and with them most of the session's cost, are the same
    for every seed.
    """
    rng = random.Random(seed)
    frontier_queries = [(2 * f - 1, f, conv) for f in SESSION_FRONTIERS
                        for conv in ("odd", "linear")]
    drawn = []
    for _ in range(SESSION_QUERIES - len(frontier_queries)):
        d = rng.randint(1, SESSION_DMAX)
        drawn.append((rng.randint(0, 2 * d - 1), d,
                      rng.choice(("odd", "linear"))))
    queries, low = [], 0
    for f in SESSION_FRONTIERS:
        queries += [q for q in frontier_queries if q[1] == f]
        queries += [q for q in drawn if low < q[1] <= f]
        low = f
    return queries


class CountSession:
    """One library session of seeded count_configurations queries."""

    name = "count-session"

    def __init__(self, seed: int, work: Path):
        from forestcount.dp import dp_table
        self.queries = session_queries(seed)
        self.path = work / f"queries-{seed}.json"
        self.path.write_text(json.dumps(self.queries), encoding="utf-8")
        # odd answers: the independent recurrence route over the query box
        self.odd = dp_table(2 * SESSION_DMAX - 1, SESSION_DMAX)
        # linear answers: the table recorded from the reference commit
        self.linear = [[int(v) for v in row] for row in
                       load_reference("count_session_linear.json")["values"]]

    def child_args(self) -> list[str]:
        return ["session", str(self.path)]

    def expected(self, c: int, d: int, conv: str) -> int:
        return (self.odd if conv == "odd" else self.linear)[c][d]

    def check(self, returncode: int, out: bytes) -> Outcome:
        n = len(self.queries)
        try:
            doc = json.loads(out)
            answers, latencies = doc["answers"], doc["latency_s"]
            started = doc["started_s"]
        except (json.JSONDecodeError, KeyError, TypeError):
            return Outcome(n, n)
        if returncode != 0 or len(answers) != n:
            return Outcome(n, n, latencies, started)
        failed = sum(int(a) != self.expected(*q)
                     for a, q in zip(answers, self.queries))
        return Outcome(n, failed, latencies, started)


WORKLOADS = {w.name: w for w in (DeepTable, CountSession, VerifySuite)}
