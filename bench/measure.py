"""The measuring loop: set up, warm up, time whole rounds of ops, check each.

Load is a closed loop with one client: one op in flight, the next sent when
the previous returns. Only the op itself is timed; checks run between ops.
An op that raises is counted in ``failed`` and makes the run incorrect.

Times are reported at a fixed reference speed. The shared host this
benchmark was built on changes speed by up to 2x in phases of several
seconds, far more than the differences a change should be judged by, so
each timed interval is scaled to ``REFERENCE_MS``, the time of a fixed
pure-Python kernel on the reference machine: an op by the kernel's mean
time just before and just after it, a set-up (seconds long) by the mean
speed of the kernel run before, after, and every ``SAMPLE_EVERY_S`` during
it (see bench/README.md). The raw wall times are kept in the result file.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from collections import deque
from pathlib import Path

from probe import Probe
from workloads import WORKLOADS

MIN_OPS = 100  # so that p90 has ten samples beyond it
SETUP_REPEATS = 3  # set-up time is the median of these
REFERENCE_MS = 1.0  # the kernel's time on the reference machine (bench/README.md)
SAMPLE_EVERY_S = 0.2

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "scene_queries_per_op": "queries/op",
    "peak_rss_mb": "MB",
}

KERNEL_SIDE = 60


def _grid(side: int) -> dict[int, list[int]]:
    """Neighbour lists of a side x side grid, keyed by node."""
    n = side * side
    return {
        v: [
            w
            for w in (v - side, v - 1, v + 1, v + side)
            if 0 <= w < n and (w // side == v // side or w % side == v % side)
        ]
        for v in range(n)
    }


_KERNEL_ADJ = _grid(KERNEL_SIDE)


def _kernel() -> None:
    dist = {0: 0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in _KERNEL_ADJ[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)


def reference_ms() -> float:
    """Wall time of a fixed pure-Python kernel: BFS over a 60x60 grid.

    It does the library's kind of work (dict, list and queue access over
    thousands of nodes), so it slows with the host as the ops do. It runs
    with GC off and once untimed before the timed run, so that neither a
    collection the op left due nor the cache lines the op evicted count in
    it: it reads the host's speed, not the op's aftermath.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _kernel()
        started = time.perf_counter()
        _kernel()
        return (time.perf_counter() - started) * 1000.0
    finally:
        if enabled:
            gc.enable()


class SpeedDuring:
    """Samples the reference kernel from a SIGALRM timer while the block runs."""

    def __enter__(self) -> list[float]:
        self.samples: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, lambda *_: self.samples.append(reference_ms()))
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self.samples

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scratch: Path,
    size=None,
    min_ops: int = MIN_OPS,
    spans_path: Path | None = None,
) -> dict:
    """Run one workload and return the result document (metrics, counts, checks).

    Ops run in whole rounds until ``seconds`` of reference-speed op time and
    ``min_ops`` ops are done. A traced run reports the per-layer metrics
    and, given ``spans_path``, writes the spans it kept there as JSON lines.
    """
    cls = WORKLOADS[workload]
    size = size if size is not None else cls.Size()
    probe = Probe(trace)
    problems: list[str] = []
    setup_s: list[float] = []
    raw_setup_s: list[float] = []
    reference: list[float] = []
    scratch.mkdir(parents=True, exist_ok=True)
    bench = None
    try:
        with probe.installed():
            for _ in range(SETUP_REPEATS):
                if bench is not None:
                    bench.close()
                    bench = None
                probe.begin("setup")
                before = reference_ms()
                with SpeedDuring() as during:
                    started = time.perf_counter()
                    bench = cls(seed, size, scratch, probe)
                    warm_up = bench.run_op(0)
                    gc.collect()
                    elapsed = time.perf_counter() - started
                samples = [before, *during, reference_ms()]
                factor = statistics.mean(REFERENCE_MS / ms for ms in samples)
                probe.settle(factor)
                reference += samples
                raw_setup_s.append(elapsed)
                setup_s.append(elapsed * factor)
                problems += bench.check(0, warm_up)

            probe.begin("ops")
            op_ms: list[float] = []
            raw_op_ms: list[float] = []
            attempted = failed = queries = 0
            wall_s = busy_s = 0.0
            before = reference_ms()
            while busy_s < seconds or attempted < min_ops:
                for i in range(len(bench.ops)):
                    probe.start_op(attempted)
                    attempted += 1
                    started = time.perf_counter()
                    try:
                        output = bench.run_op(i)
                    except Exception as exc:  # an op the library failed: count it, keep going
                        output = None
                        if not failed:
                            traceback.print_exc(file=sys.stderr)
                        failed += 1
                        problems.append(f"op {i} failed: {exc!r}")
                    elapsed = time.perf_counter() - started
                    after = reference_ms()
                    factor = 2 * REFERENCE_MS / (before + after)
                    probe.settle(factor)
                    reference.append(after)
                    before = after
                    wall_s += elapsed
                    busy_s += elapsed * factor
                    if output is None:
                        continue
                    raw_op_ms.append(elapsed * 1000.0)
                    op_ms.append(elapsed * 1000.0 * factor)
                    queries += bench.queries(output)
                    problems += bench.check(i, output)
            probe.begin("checks")
            problems += bench.final_check()
    finally:
        if bench is not None:
            bench.close()
        shutil.rmtree(scratch, ignore_errors=True)

    completed = attempted - failed
    op_ms = op_ms or [0.0]
    raw_op_ms = raw_op_ms or [0.0]
    if trace:
        metrics = probe.per_layer(attempted, op_ms)
        if spans_path is not None:
            probe.write_spans(spans_path)
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "ops_per_s": completed / busy_s,
            "op_ms_p50": statistics.median(op_ms),
            "op_ms_p90": p90(op_ms),
            "scene_queries_per_op": queries / max(completed, 1),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "ops_per_round": len(bench.ops),
        "problems": problems[:20],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "metrics": metrics,
        "setup_s_each": setup_s,
        "raw_wall": {
            "setup_s_each": raw_setup_s,
            "ops_per_s": completed / wall_s,
            "op_ms_p50": statistics.median(raw_op_ms),
            "op_ms_p90": p90(raw_op_ms),
            "reference_ms_median": statistics.median(reference),
        },
    }
