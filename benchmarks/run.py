"""forestcount benchmark: run one workload and report its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a forestcount checkout.  Every timed run is one
fresh child interpreter, started one at a time (a closed loop with one
client) until S seconds have passed; every output is checked against
references outside the timed region.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced runs and reports its per-layer metrics.
See benchmarks/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

SETUP_PROBES_PER_RUN = 2
MIN_SETUP_PROBES = 11
CHILD_TIMEOUT_S = 120
SETUP_CODE = """\
import sys, time
sys.path.insert(0, {here!r})
import speed
before = speed.calibrate()
start = time.perf_counter()
import forestcount.cli
forestcount.cli.build_parser()
took = time.perf_counter() - start
after = speed.calibrate()
sums = [b + a for b, a in zip(before[0], after[0])]
counts = [b + a for b, a in zip(before[1], after[1])]
print(took, speed.scale_of(sums, counts), forestcount.cli.__file__)
""".format(here=str(HERE))


def child_env() -> dict[str, str]:
    """A fixed environment: no FORESTCOUNT_* settings, the checkout's
    sources first on the path, one bytecode cache inside the checkout."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "LC_ALL": "C.UTF-8",
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONPYCACHEPREFIX": str(WORK / "pycache"),
    }


def python(*args: str) -> list[str]:
    # -S: no site-packages, so nothing installed can shadow or slow the
    # checkout's package
    return [sys.executable, "-S", *args]


@dataclass
class Run:
    wall_s: float
    rss_mb: float
    returncode: int
    out: bytes
    speed: dict | None = None   # the child's speed.Sampler report

    @property
    def scaled_s(self) -> float:
        """Wall time less the sampler's ticks, at reference speed."""
        return ((self.wall_s - self.speed["busy_s"])
                * speed.scale_near(self.speed["ticks"], -math.inf, math.inf))


def run_child(argv: list[str], name: str) -> Run:
    """Start one child, wait for it, return its wall time and peak RSS."""
    out_path, err_path = WORK / f"{name}.out", WORK / f"{name}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(),
                                cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(wall, usage.ru_maxrss / 1024, proc.returncode,
               out_path.read_bytes())


def compile_sources() -> None:
    """Fill the bytecode cache once, untimed, so every timed child loads
    the same compiled modules."""
    subprocess.run(python("-m", "compileall", "-q", str(ROOT / "src"),
                          str(HERE)),
                   env=child_env(), cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)


def setup_probe() -> tuple[float, float]:
    """Time for a fresh interpreter to import forestcount.cli and build
    its parser: as measured, and at reference speed (scaled by kernels
    timed just before and after)."""
    done = subprocess.run(python("-c", SETUP_CODE), env=child_env(), cwd=ROOT,
                          check=True, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    seconds, scale, origin = done.stdout.split()
    if not Path(origin).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"forestcount imported from {origin}")
    return float(seconds), float(seconds) * float(scale)


def repeat_for(seconds: float, step) -> None:
    """Call step() once, then again while a call as slow as the slowest
    so far would still end within `seconds` of the start."""
    deadline = time.perf_counter() + seconds
    slowest = 0.0
    while True:
        start = time.perf_counter()
        step()
        now = time.perf_counter()
        slowest = max(slowest, now - start)
        if now + slowest > deadline:
            return


def p97_5(values: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it; with
    400 samples, the 97.5th."""
    return sorted(values)[len(values) - 11]


def end_to_end(workload, seconds: float):
    speed_path = WORK / "speed.json"
    argv = python(str(HERE / "child.py"), "--speed", str(speed_path),
                  *workload.child_args())
    setups, runs, outcomes = [], [], []

    def step():
        # set-up probes are spread over the window like the runs, so both
        # see the same share of a busy machine
        setups.extend(setup_probe() for _ in range(SETUP_PROBES_PER_RUN))
        speed_path.unlink(missing_ok=True)
        run = run_child(argv, "run")
        if run.returncode == 0:
            run.speed = json.loads(speed_path.read_text(encoding="utf-8"))
        runs.append(run)
        outcomes.append(workload.check(run.returncode, run.out))

    repeat_for(seconds, step)
    while len(setups) < MIN_SETUP_PROBES:
        setups.append(setup_probe())
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    # a run that exited with an error counts as failed and is not timed
    timed = [(r, o) for r, o in zip(runs, outcomes) if r.speed]
    if not timed:
        raise RuntimeError("no run finished; see .bench_work/run.err")
    walls = [r.scaled_s for r, _ in timed]
    if all(len(o.latencies_s) > 10 for _, o in timed):
        query_s = statistics.median(
            p97_5([t * speed.scale_near(r.speed["ticks"], start, start + t)
                   for start, t in zip(o.started_s, o.latencies_s)])
            for r, o in timed)
    else:   # one query per run: the run is the query
        query_s = statistics.median(walls)
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
        "ok_ratio": (attempted - failed) / attempted,
        "query_p97.5_ms": query_s * 1000,
    }
    return attempted, failed, metrics, {
        "measured_walls_s": [r.wall_s for r in runs],
        "sampler_busy_s": [r.speed and r.speed["busy_s"] for r in runs],
        "measured_setups_s": [measured for measured, _ in setups]}


def per_layer(workload, seconds: float):
    import layers

    spans_path = WORK / "spans.jsonl"
    child = python(str(HERE / "child.py"))
    plain = child + workload.child_args()
    traced = child + ["--trace", str(spans_path), *workload.child_args()]
    plain_walls, layer_runs = [], []
    outcomes = []

    def step():
        spans_path.unlink(missing_ok=True)
        runs = [run_child(plain, "run"), run_child(traced, "run")]
        outcomes.extend(workload.check(r.returncode, r.out) for r in runs)
        plain_walls.append(runs[0].wall_s)
        layer_runs.append(layers.layer_metrics(layers.load_spans(spans_path),
                                               runs[1].wall_s))

    repeat_for(seconds, step)
    repeat = all(m[k] == layer_runs[0][k]
                 for m in layer_runs for k in layers.COUNT_METRICS)
    # every time from one run (the median traced one), so that the module
    # self times and the remainder still sum to its wall time
    walls = [m["trace.wall_s"] for m in layer_runs]
    metrics = dict(sorted(layer_runs, key=lambda m: m["trace.wall_s"])
                   [(len(layer_runs) - 1) // 2])
    metrics["trace.overhead_ratio"] = (statistics.median(walls)
                                       / statistics.median(plain_walls))
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes) + (not repeat)
    return attempted, failed, metrics, {
        "walls_s": plain_walls, "traced_walls_s": walls,
        "counts_repeat": repeat}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "forestcount" / "cli.py").is_file():
        print(f"error: no forestcount sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.pycache_prefix = str(WORK / "pycache")
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    WORK.mkdir(exist_ok=True)
    compile_sources()
    workload = WORKLOADS[args.workload](args.seed, WORK)
    measure = per_layer if args.trace else end_to_end
    attempted, failed, metrics, extra = measure(workload, args.seconds)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        raise RuntimeError("metrics out of step with BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    env = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "python": platform.python_version(), "nproc": os.cpu_count(),
           "cpu": cpu_model(), **extra}
    (WORK / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps({"env": env, **result}, indent=1), encoding="utf-8")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
