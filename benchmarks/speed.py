"""The machine's speed, sampled while a timed run executes.

On a shared host the same code runs up to twice as slow for seconds at a
time, with no stolen time the guest can see.  A run's wall time then
says as much about the neighbours as about the program.  So every timed
child samples its own core: a SIGALRM timer interrupts the program every
TICK_S, and the handler times one of four fixed kernels (an interpreter
loop, small and large big-integer products, and packing integers into
byte slots, the mix of the program's hot path).  The kernels never call
the program, so a faster program still shows as a faster run.

A speed scale is REF_S over the geometric mean of the kernels' mean
times; a time multiplied by it is in seconds at reference speed, the
speed at which that geometric mean takes REF_S.  A run is scaled by all
its ticks, a single query by the ticks around it.  The handler's own
time (`busy_s`) is subtracted before scaling.
"""

from __future__ import annotations

import math
import signal
import time

TICK_S = 0.0125
REF_S = 0.00028

_A, _B = (1 << 3000) - 12345, (1 << 2500) - 999
_BIG_A, _BIG_B = (1 << 24000) - 12345, (1 << 20000) - 999
_ROW = tuple(range(10 ** 30, 10 ** 30 + 400 * 7919, 7919))
_SLOT = 16


def _interpreter_loop() -> int:
    total = 0
    for i in range(1500):
        total += i * i
    return total


def _small_products() -> int:
    for _ in range(60):
        product = _A * _B
    return product


def _large_products() -> int:
    return _BIG_A * _BIG_B + _BIG_B * _BIG_A


def _slot_packing() -> list[int]:
    buf = bytearray(len(_ROW) * _SLOT)
    for c, v in enumerate(_ROW):
        buf[c * _SLOT:c * _SLOT + 13] = v.to_bytes(13, "little")
    raw = int.from_bytes(buf, "little").to_bytes(len(buf), "little")
    return [int.from_bytes(raw[c * _SLOT:(c + 1) * _SLOT], "little")
            for c in range(len(_ROW))]


KERNELS = (_interpreter_loop, _small_products, _large_products,
           _slot_packing)


def scale_of(sums: list[float], counts: list[int]) -> float:
    """REF_S over the geometric mean of the kernels' mean times."""
    logs = [math.log(s / n) for s, n in zip(sums, counts)]
    return REF_S / math.exp(sum(logs) / len(logs))


def calibrate(passes: int = 3) -> tuple[list[float], list[int]]:
    """Time every kernel `passes` times in a row, now."""
    clock = time.perf_counter
    sums = [0.0] * len(KERNELS)
    for i, kernel in enumerate(KERNELS):
        for _ in range(passes):
            start = clock()
            kernel()
            sums[i] += clock() - start
    return sums, [passes] * len(KERNELS)


def scale_near(ticks: list, start: float, end: float) -> float:
    """The scale from the sampler ticks near [start, end] (perf_counter
    times of the sampled child), widening the margin until every kernel
    has a sample."""
    margin = 2 * len(KERNELS) * TICK_S
    while margin < 1e4:
        sums = [0.0] * len(KERNELS)
        counts = [0] * len(KERNELS)
        for t, i, took in ticks:
            if start - margin <= t <= end + margin:
                sums[i] += took
                counts[i] += 1
        if min(counts) > 0:
            return scale_of(sums, counts)
        margin *= 4
    raise ValueError("the run was too short to sample every kernel")


class Sampler:
    """Times one kernel per SIGALRM tick, in turn, while it is started."""

    def __init__(self):
        self.ticks: list[tuple[float, int, float]] = []  # (start, kernel, s)
        self.busy_s = 0.0
        self._next = 0

    def _tick(self, signum, frame) -> None:
        clock = time.perf_counter
        entered = clock()
        i = self._next
        self._next = (i + 1) % len(KERNELS)
        start = clock()
        KERNELS[i]()
        self.ticks.append((start, i, clock() - start))
        self.busy_s += clock() - entered

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def report(self) -> dict:
        return {"busy_s": self.busy_s, "ticks": self.ticks}
