"""Operation records and the statistics the benchmark reports.

Load is a closed loop from one process: one operation runs at a time and
the next starts when it returns.  Every operation gets a status:

* ``ok``: it returned and its output passed the benchmark's check;
* ``known-defect``: it raised the error a documented defect raises today
  (it counts as failed, but the run stays correct);
* ``wrong``: its output failed the check, or the check itself could not
  read the output;
* ``error``: it raised anything else.
"""

from __future__ import annotations

import math
import statistics
import warnings
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

# Tail percentiles tried from the highest down; the reported one is the
# highest with at least TAIL_BEYOND samples above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


class Wrong(Exception):
    """An operation's output failed its check."""


@dataclass
class Op:
    name: str
    seconds: float
    status: str
    digest: str = ""
    detail: str = ""


@dataclass
class Recorder:
    """Runs and times operations one at a time; notifies an optional tracer
    of operation boundaries so its spans carry the operation id."""

    tracer: object | None = None
    ops: list[Op] = field(default_factory=list)

    def begin(self, ahead: int = 0) -> None:
        """Spans from now on belong to the operation ``ahead`` places after
        the last one added."""
        if self.tracer is not None:
            self.tracer.begin_op(len(self.ops) + ahead)

    def add(self, op: Op) -> None:
        self.ops.append(op)

    def op(self, name: str, fn: Callable, check: Callable, known_defect=None):
        """Run fn(), then check(result) -> digest; return the result or None."""
        self.begin()
        t0 = perf_counter()
        try:
            out = fn()
        except Exception as exc:  # every failure is counted, none stops the run
            dt = perf_counter() - t0
            known = known_defect is not None and isinstance(exc, known_defect)
            self.add(Op(name, dt, "known-defect" if known else "error",
                        detail=f"{type(exc).__name__}: {exc}"))
            return None
        dt = perf_counter() - t0
        try:
            digest = str(check(out))
        except Exception as exc:  # a corrupted output must not crash the run
            self.add(Op(name, dt, "wrong", detail=f"{type(exc).__name__}: {exc}"))
            return None
        self.add(Op(name, dt, "ok", digest))
        return out


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND of n samples above it."""
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100 * n) >= TAIL_BEYOND:
            return p
    return 50.0


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(p / 100 * len(s)) - 1)]


def summarize(passes: list[list[Op]]) -> dict:
    """End-to-end figures over the passes of one run.

    The host's speed drifts within seconds, so each operation's time is
    first taken as its median over the passes, which keeps one slow
    stretch or hiccup from moving the figures.  ``wall_s`` is the sum of
    those times (one pass, operation by operation), ``op_p50_ms`` their
    median and ``op_tail_ms`` their highest ladder percentile with at
    least TAIL_BEYOND operations beyond it.
    """
    ops = [op for ops in passes for op in ops]
    failed = sum(op.status != "ok" for op in ops)
    if len({len(p) for p in passes}) == 1:
        per_op = [statistics.median(col) for col in zip(*([op.seconds for op in p]
                                                           for p in passes))]
        wall = sum(per_op)
    else:  # passes differ in shape only when the program failed mid-way
        per_op = [op.seconds for op in ops]
        wall = sum(per_op) / len(passes)
    tail_p = tail_percentile(len(per_op))
    return {
        "wall_s": wall,
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_tail_ms": percentile(per_op, tail_p) * 1e3,
        "tail_percentile": tail_p,
        "samples": len(per_op),
        "passes": len(passes),
        "attempted": len(ops),
        "failed": failed,
        "fail_ratio": failed / len(ops),
        "correct": all(op.status in ("ok", "known-defect") for op in ops),
    }


class WarningCounter:
    """Counts warnings instead of printing them; ``band_hits`` are the
    matrix layer's conditioning-band warnings."""

    def __init__(self):
        self.total = self.band_hits = 0
        self._ctx = warnings.catch_warnings()

    def _show(self, message, *args, **kwargs) -> None:
        self.total += 1
        if "tolerance band" in str(message):
            self.band_hits += 1

    def __enter__(self) -> "WarningCounter":
        self._ctx.__enter__()
        warnings.simplefilter("always")
        warnings.showwarning = self._show
        return self

    def __exit__(self, *exc) -> None:
        self._ctx.__exit__(*exc)
