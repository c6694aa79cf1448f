"""Closed-loop driver, span tracer and statistics shared by every workload.

A workload yields *rounds*: fixed lists of tasks whose composition never
depends on the seed.  The driver runs whole rounds, one task at a time, until
the timed work reaches the requested seconds, so every run attempts the same
operations in the same proportions and the share of failed operations is
identical from run to run.  Output checks run between tasks, outside the
timed spans.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

perf = time.perf_counter


@dataclass
class Task:
    """One operation: `run()` produces an output, `check(out)` returns None
    when the output is right or a one-line reason when it is not.

    `kept` marks an operation known to fail today (a named program fault);
    its failure is counted but does not make the run incorrect.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    kept: bool = False


class Tracer:
    """Records spans (name, start, end, parent, task id) in memory.

    With `enabled=False`, `call` is a plain call and nothing is recorded.
    The tracer also times its own bookkeeping, so the traced run can state
    how much of its wall time the tracing itself took.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.minima: dict[str, float] = {}
        self.bookkeeping_s = 0.0
        self._stack: list[int] = []
        self._task_id = -1

    def call(self, name: str, fn: Callable, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        b0 = perf()
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, self._task_id))
        self._stack.append(index)
        b1 = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf()
            self._stack.pop()
            self.spans[index] = (name, b1, end, parent, self._task_id)
            self.bookkeeping_s += (b1 - b0) + (perf() - end)

    def task(self, task_id: int, kind: str, fn: Callable):
        self._task_id = task_id
        return self.call("task." + kind, fn)

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + amount

    def worst(self, name: str, value: float, lower_is_worse: bool = False) -> None:
        """Keep the worst accuracy figure seen: the maximum error, or the
        minimum score when `lower_is_worse`.  A non-finite figure belongs to
        an operation whose check fails, which counts it as failed instead."""
        if not self.enabled or not math.isfinite(value):
            return
        if lower_is_worse:
            self.minima[name] = min(self.minima.get(name, math.inf), value)
        else:
            self.maxima[name] = max(self.maxima.get(name, 0.0), value)

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (summed self time, call count).  Self time is the
        span's duration minus the time its child spans cover; spans of one
        thread nest, so the children's durations simply add up."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _tid in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, tuple[float, int]] = {}
        for i, (name, start, end, _parent, _tid) in enumerate(self.spans):
            total, calls = out.get(name, (0.0, 0))
            out[name] = (total + (end - start) - child[i], calls + 1)
        return out

    def records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "task": t}
            for n, s, e, p, t in self.spans
        ]


@dataclass
class RunResult:
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    unexpected: list[str] = field(default_factory=list)
    kept_failures: list[str] = field(default_factory=list)
    timed_s: float = 0.0
    rounds: int = 0


def run_rounds(
    rounds: Iterable[list[Task]], seconds: float, tracer: Tracer
) -> RunResult:
    """Run whole rounds until the timed work reaches `seconds`."""
    res = RunResult()
    for batch in rounds:
        for task in batch:
            task_id = res.attempted
            res.attempted += 1
            error = None
            t0 = perf()
            try:
                out = tracer.task(task_id, task.kind, task.run)
            except Exception as exc:  # a raising operation is a failed one
                error = f"raised {type(exc).__name__}: {exc}"
            dt = perf() - t0
            res.latencies.append(dt)
            res.timed_s += dt
            if error is None:
                try:
                    error = task.check(out)
                except Exception as exc:  # a check that cannot run rejects
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                res.failed += 1
                note = f"{task.kind}: " + " ".join(error.split())
                (res.kept_failures if task.kept else res.unexpected).append(note)
        res.rounds += 1
        if res.timed_s >= seconds:
            break
    return res


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile, q in [0, 1]."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def cycle_rounds(make_round: Callable[[int], list[Task]]) -> Iterator[list[Task]]:
    """Endless rounds 0, 1, 2, ... built lazily from their index."""
    index = 0
    while True:
        yield make_round(index)
        index += 1
