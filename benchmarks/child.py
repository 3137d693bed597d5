"""One benchmark run inside a fresh interpreter.

    child.py [--trace SPANS | --speed REPORT] session QUERIES_JSON
    child.py [--trace SPANS | --speed REPORT] cli ARG...

`session` is a single library client: it asks every (c, d, convention)
query in QUERIES_JSON through count_configurations and prints the
answers and per-query latencies as JSON.  `cli` runs the command line
in-process.  With --trace the layer wrappers are installed first,
removed afterwards, and the spans written to SPANS as JSONL; the run
fails if any wrapper is left behind.  With --speed a speed.Sampler runs
throughout, and its ticks and the time they took are written to REPORT
as JSON.
"""

from __future__ import annotations

import json
import sys
import time

sampler = None


def sampler_busy_s() -> float:
    return sampler.busy_s if sampler else 0.0


def session(path: str) -> int:
    import forestcount

    with open(path, encoding="utf-8") as fh:
        queries = json.load(fh)
    answers, starts, latencies = [], [], []
    clock = time.perf_counter
    for c, d, conv in queries:
        busy, start = sampler_busy_s(), clock()
        value = forestcount.count_configurations(c, d, conv)
        # the sampler's ticks are not the query's time
        latencies.append(clock() - start - (sampler_busy_s() - busy))
        starts.append(start)
        answers.append(str(value))
    json.dump({"answers": answers, "latency_s": latencies,
               "started_s": starts}, sys.stdout)
    return 0


def cli(argv: list[str]) -> int:
    import forestcount.cli

    return forestcount.cli.main(argv)


def sampled(run, report_path: str) -> int:
    global sampler
    import speed

    sampler = speed.Sampler()
    sampler.start()
    try:
        code = run()
    finally:
        sampler.stop()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(sampler.report(), fh)
    return code


def main(argv: list[str]) -> int:
    spans_path = speed_path = None
    if argv[:1] == ["--trace"]:
        spans_path, argv = argv[1], argv[2:]
    elif argv[:1] == ["--speed"]:
        speed_path, argv = argv[1], argv[2:]
    mode, rest = argv[0], argv[1:]
    run = {"session": lambda: session(rest[0]), "cli": lambda: cli(rest)}[mode]
    if speed_path is not None:
        return sampled(run, speed_path)
    if spans_path is None:
        return run()

    import forestcount.cli  # noqa: F401  (every layer is loaded before wrapping)
    import layers

    tracer = layers.Tracer()
    tracer.install()
    try:
        code = run()
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    tracer.dump(spans_path)
    left = layers.leftover_wrappers()
    if left:
        print("wrappers left installed: " + ", ".join(left), file=sys.stderr)
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
