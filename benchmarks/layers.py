"""Per-layer tracing of forestcount from outside the package.

The traced run wraps each module's entry points from this file and
changes nothing under src/.  A wrapper records a span (name, start, end,
parent) in memory; the spans are written out as JSONL when the run ends
and folded into per-layer metrics by `layer_metrics`.

Names imported by value (`from .solver import cached_solution`) are
separate bindings, so a target is replaced in every forestcount module
namespace that holds it, plus the verify.CHECKS registry; a binding left
unwrapped would go uncounted.

A wrapper that computes work counts (cells, operand bits) does so after
its span has ended and records that bookkeeping time, so that it is
charged neither to the span nor to its parent's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time

MARK = "__forestbench_wrapper__"

# The layers: a span belongs to the module named before the first dot.
MODULES = ("series", "solver", "dp", "verify", "oracle", "formulas",
           "tables", "cli")


def _row_bits(series, top):
    return [sum(map(int.bit_length, row)) for row in series._rows[:top + 1]]


def _nonzero_prefix(bits):
    out, n = [], 0
    for b in bits:
        n += b > 0
        out.append(n)
    return out


def _mul_counts(result, a, b, dbound):
    """Output cells and the bits of every pair of operand rows multiplied.

    Both depend only on the operands and the bound, never on how the
    kernel packs its slots, so a faster packing leaves them unchanged.
    """
    top = min(dbound, a.dmax)
    ra, rb = _row_bits(a, top), _row_bits(b, top)
    na, nb = _nonzero_prefix(ra), _nonzero_prefix(rb)
    bits = (sum(x * nb[top - i] for i, x in enumerate(ra) if x)
            + sum(x * na[top - i] for i, x in enumerate(rb) if x))
    return {"cells": (a.cmax + 1) * (top + 1), "operand_bits": bits}


def _solve_counts(result, *args, **kwargs):
    return {"cells": (result.box[0] + 1) * (result.box[1] + 1)}


def _enumerate_counts(result, *args, **kwargs):
    return {"diagrams": len(result)}


def _targets():
    """(holder, attribute, span name, counter) for every wrapped entry point.

    Holders that are classes are patched in place; module-level functions
    are found by identity in every namespace (see `Tracer.install`).
    """
    from forestcount import (cli, dp, formulas, oracle, series, solver,
                             tables, verify)
    out = [
        (series.BiSeries, "_mul_bounded", "series.mul", _mul_counts),
        (series.BiSeries, "_divide_bounded", "series.divide", None),
        (solver, "solve_system", "solver.solve", _solve_counts),
        (solver, "cached_solution", "solver.cached", None),
        (solver, "_weighted_tail", "solver.tail", None),
        (solver.SystemSolution, "verify", "solver.verify", None),
        (solver, "solve_simple", "solver.simple", None),
        (dp, "_fill", "dp.fill", None),
        (verify.ZPolynomial, "residual", "verify.residual", None),
        (oracle, "enumerate_flat", "oracle.enumerate", _enumerate_counts),
        (oracle, "validate_diagram", "oracle.validate", None),
        (cli, "main", "cli", None),
    ]
    for name in ("to_csv", "to_json_dict", "to_json"):
        out.append((tables.CountTable, name, "tables.serialize", None))
    for name, fn in vars(formulas).items():
        if (inspect.isfunction(fn) and fn.__module__ == formulas.__name__
                and not name.startswith("_")):
            out.append((formulas, name, "formulas", None))
    for name in verify.CHECKS:
        out.append((verify.CHECKS, name, f"verify.check.{name}", None))
    return out


def _namespaces():
    """Every forestcount module namespace plus the check registry."""
    spaces = [vars(m) for name, m in sorted(sys.modules.items())
              if name == "forestcount" or name.startswith("forestcount.")]
    spaces.append(importlib.import_module("forestcount.verify").CHECKS)
    return spaces


class Tracer:
    """Spans recorded by wrappers installed on the forestcount layers."""

    def __init__(self):
        # [name, start, end, parent index or None, bookkeeping_s, counts]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                rec[5] = counter(result, *args, **kwargs)
                rec[4] = clock() - rec[2]
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def install(self) -> None:
        spaces = _namespaces()
        for holder, attr, name, counter in _targets():
            if isinstance(holder, type):
                original = vars(holder)[attr]
                setattr(holder, attr, self._wrap(name, original, counter))
                self._undo.append((holder, attr, original))
                continue
            original = holder[attr] if isinstance(holder, dict) \
                else getattr(holder, attr)
            wrapper = self._wrap(name, original, counter)
            for space in spaces:
                for key, value in list(space.items()):
                    if value is original:
                        space[key] = wrapper
                        self._undo.append((space, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._undo.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, book, counts in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "bookkeeping_s": book,
                                     "counts": counts}) + "\n")


def leftover_wrappers() -> list[str]:
    """Names of any tracing wrapper still bound in a forestcount namespace."""
    found = []
    for space in _namespaces():
        for key, value in space.items():
            if getattr(value, MARK, False):
                found.append(key)
            if isinstance(value, type) and value.__module__.startswith(
                    "forestcount"):
                found += [f"{value.__name__}.{k}"
                          for k, v in vars(value).items()
                          if getattr(v, MARK, False)]
    return sorted(set(found))


def load_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def layer_metrics(spans: list[dict], wall_s: float) -> dict[str, float]:
    """Fold one traced run's spans into the per-layer metrics.

    `<module>.self_s` splits the traced wall time by module; with
    `trace.remainder_s` (interpreter start-up, imports, the session loop
    and tracing bookkeeping) they sum to `trace.wall_s`.  `<name>.s` is
    the inclusive time of the outermost spans of that name.
    """
    n = len(spans)
    charged = [0.0] * n          # child time and child bookkeeping
    above: list[frozenset] = [frozenset()] * n
    for i, s in enumerate(spans):
        p = s["parent"]
        if p is not None:
            charged[p] += s["end"] - s["start"] + s["bookkeeping_s"]
            above[i] = above[p] | {spans[p]["name"]}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    outer_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    for i, s in enumerate(spans):
        name, dur = s["name"], s["end"] - s["start"]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur - charged[i]
        if name not in above[i]:
            outer_s[name] = outer_s.get(name, 0.0) + dur
        for key, value in (s["counts"] or {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
    # a miss is a cached_solution call that solved; every other one is a hit
    missed = {s["parent"] for s in spans if s["name"] == "solver.solve"
              and s["parent"] is not None
              and spans[s["parent"]]["name"] == "solver.cached"}
    hit_us = [(s["end"] - s["start"]) * 1e6 for i, s in enumerate(spans)
              if s["name"] == "solver.cached" and i not in missed]
    misses = len(missed)
    lookups = calls.get("solver.cached", 0)

    m: dict[str, float] = {}
    for mod in MODULES:
        m[f"{mod}.self_s"] = sum((v for k, v in self_s.items()
                                  if k.split(".")[0] == mod), 0.0)
    m["series.mul.calls"] = calls.get("series.mul", 0)
    m["series.mul.self_s"] = self_s.get("series.mul", 0.0)
    m["series.mul.cells"] = counts.get("series.mul.cells", 0)
    m["series.mul.operand_bits"] = counts.get("series.mul.operand_bits", 0)
    m["series.divide.calls"] = calls.get("series.divide", 0)
    m["series.divide.self_s"] = self_s.get("series.divide", 0.0)
    m["solver.solve.calls"] = calls.get("solver.solve", 0)
    m["solver.solve.cells"] = counts.get("solver.solve.cells", 0)
    m["solver.tail.calls"] = calls.get("solver.tail", 0)
    m["solver.tail.self_s"] = self_s.get("solver.tail", 0.0)
    m["solver.verify.s"] = outer_s.get("solver.verify", 0.0)
    m["solver.simple.s"] = outer_s.get("solver.simple", 0.0)
    m["solver.cache.hits"] = lookups - misses
    m["solver.cache.misses"] = misses
    m["solver.cache.hit_ratio"] = (lookups - misses) / lookups if lookups else 0.0
    m["solver.cache.hit_us"] = statistics.median(hit_us) if hit_us else 0.0
    m["dp.fill.calls"] = calls.get("dp.fill", 0)
    m["dp.fill.s"] = outer_s.get("dp.fill", 0.0)
    m["verify.residual.s"] = outer_s.get("verify.residual", 0.0)
    from forestcount.verify import CHECKS
    for name in CHECKS:
        m[f"verify.check.{name}.s"] = outer_s.get(f"verify.check.{name}", 0.0)
    m["oracle.enumerate.s"] = outer_s.get("oracle.enumerate", 0.0)
    m["oracle.validate.s"] = outer_s.get("oracle.validate", 0.0)
    m["oracle.diagrams"] = counts.get("oracle.enumerate.diagrams", 0)
    m["formulas.s"] = outer_s.get("formulas", 0.0)
    m["tables.serialize.s"] = outer_s.get("tables.serialize", 0.0)
    m["trace.spans"] = n
    m["trace.wall_s"] = wall_s
    m["trace.bookkeeping_s"] = sum(s["bookkeeping_s"] for s in spans)
    m["trace.remainder_s"] = wall_s - sum(m[f"{mod}.self_s"] for mod in MODULES)
    return m


# Metrics that count work; they must repeat exactly across traced runs.
COUNT_METRICS = ("series.mul.calls", "series.mul.cells",
                 "series.mul.operand_bits", "series.divide.calls",
                 "solver.solve.calls", "solver.solve.cells",
                 "solver.tail.calls", "solver.cache.hits",
                 "solver.cache.misses", "dp.fill.calls", "oracle.diagrams",
                 "trace.spans")
