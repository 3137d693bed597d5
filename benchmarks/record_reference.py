"""Record the reference outputs the benchmark checks against.

    python3 benchmarks/record_reference.py

Run from the root of a checkout whose outputs are known to be right.
Every count, report and exit code of forestcount is meant to stay fixed,
so re-record only for a change that is meant to alter an output.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run
from workloads import REFERENCE, SESSION_DMAX, DeepTable, VerifySuite


def run_cli(args) -> bytes:
    child = run.run_child(run.python(str(run.HERE / "child.py"), "cli", *args),
                          "record")
    if child.returncode != 0:
        raise SystemExit(f"forestcount {' '.join(args)} exited "
                         f"{child.returncode}")
    return child.out


def write(name: str, doc: dict) -> None:
    (REFERENCE / name).write_text(json.dumps(doc, indent=1) + "\n",
                                  encoding="utf-8")


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    sys.path.insert(0, str(run.ROOT / "src"))
    from forestcount.solver import solve_system

    write("deep_table.json",
          {"args": DeepTable.cli_args,
           "sha256": hashlib.sha256(run_cli(DeepTable.cli_args)).hexdigest()})

    reports = [json.loads(line) for line in
               run_cli(VerifySuite.cli_args).decode().splitlines()]
    write("verify_suite.json",
          {"args": VerifySuite.cli_args,
           "statuses": {r["check"]: r["status"] for r in reports}})

    box = (2 * SESSION_DMAX - 1, SESSION_DMAX)
    n1 = solve_system("linear", *box).n1
    write("count_session_linear.json",
          {"convention": "linear", "box": box,
           "values": [[str(n1.coeff(c, d)) for d in range(box[1] + 1)]
                      for c in range(box[0] + 1)]})
    return 0


if __name__ == "__main__":
    sys.exit(main())
