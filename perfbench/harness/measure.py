"""Set-up, the closed measurement loop, statistics and the environment record."""

from __future__ import annotations

import gc
import itertools
import math
import os
import platform
import resource
import statistics
import subprocess
from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional

from . import program
from .reference import Speedometer, rounds_for

SETUP_REPEATS = 15
TAIL_SAMPLES = 10


@dataclass
class Record:
    position: int
    latency: float
    result: object
    error: Optional[str]


def set_up(workload, root: str, seed: int):
    """Import the program, build the operation pool, load the check context
    and warm up.  Returns (seconds taken, api, pool, context)."""
    start = perf_counter()
    api = program.load(os.path.join(root, "src"))
    pool = list(itertools.islice(workload.stream(api, seed), workload.pool_size))
    ctx = workload.context(root, seed)
    workload.warmup(api)
    return perf_counter() - start, api, pool, ctx


def run_op(workload, api, op, position: int) -> Record:
    start = perf_counter()
    try:
        result, error = workload.run(api, op), None
    except Exception as exc:  # a raising operation is a failed operation
        result, error = None, f"{type(exc).__name__}: {exc}"
    return Record(position, perf_counter() - start, result, error)


def check(workload, pool, ctx, record: Record) -> Optional[str]:
    """Why the operation failed (it raised, or its answer failed its check),
    or None."""
    if record.error is not None:
        return record.error
    try:
        return workload.check(pool[record.position], record.result, ctx, record.position)
    except Exception as exc:  # an unreadable answer fails its check
        return f"check could not read the answer: {type(exc).__name__}: {exc}"


@dataclass
class Loop:
    latencies: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    busy: float = 0.0  # seconds spent inside operations

    def add(self, workload, pool, ctx, record: Record) -> None:
        """Count a finished operation and check its answer, which is then
        dropped."""
        self.busy += record.latency
        self.latencies.append(record.latency)
        reason = check(workload, pool, ctx, record)
        if reason is not None:
            self.failures.append(f"op {record.position}: {reason}")


def closed_loop(workload, api, pool, ctx, seconds: float = math.inf, count: Optional[int] = None,
                tracer=None, loop: Optional[Loop] = None, speed: Optional[Speedometer] = None) -> Loop:
    """One client: each operation starts when the previous one returns.

    Stops after `count` operations, or at the end of the first whole cycle
    of the workload's operations after `seconds` have been spent inside
    operations, so that a run weighs each kind of operation the same.
    Given a `loop`, it goes on from that loop's operations and busy time.
    Each answer is checked right after its operation with the
    clock stopped, so neither checking nor kept answers show in the
    measurements.  Given a `speed`, the reference kernel runs after each
    operation for about a tenth of its time.
    """
    loop = Loop() if loop is None else loop
    first = len(loop.latencies)
    for index in itertools.count(first) if count is None else range(first, first + count):
        if index % workload.cycle == 0 and loop.busy >= seconds:
            break
        position = index % len(pool)
        if tracer is not None:
            tracer.op_id = index
        record = run_op(workload, api, pool[position], position)
        if speed is not None:
            speed.sample(rounds_for(record.latency))
        loop.add(workload, pool, ctx, record)
    return loop


def segmented_loop(workload, root: str, seed: int, seconds: float, segments: int = SETUP_REPEATS):
    """A closed loop of `seconds` busy time cut into `segments` equal parts,
    each run on a set-up of its own.  Each set-up starts from a collected
    heap with the previous one freed, so all do the same work, and spread
    over the run they see the machine at the same moments as the operations.
    The reference kernel runs after each set-up and operation.
    Returns (seconds of each set-up, loop, speedometer)."""
    setup_times, loop, speed = [], Loop(), Speedometer()
    for segment in range(1, segments + 1):
        api = pool = ctx = None
        gc.collect()
        took, api, pool, ctx = set_up(workload, root, seed)
        setup_times.append(took)
        speed.sample(rounds_for(took))
        closed_loop(workload, api, pool, ctx, seconds=seconds * segment / segments, loop=loop, speed=speed)
    return setup_times, loop, speed


def latency_stats(latencies: List[float]) -> dict:
    """Median, and the highest percentile with at least TAIL_SAMPLES samples
    beyond it: the (TAIL_SAMPLES + 1)-th largest latency.  Runs with fewer
    than 2 * TAIL_SAMPLES + 1 samples keep half of them beyond the tail."""
    ordered = sorted(latencies)
    count = len(ordered)
    beyond = min(TAIL_SAMPLES, (count - 1) // 2)
    return {
        "p50": statistics.median(ordered),
        "tail": ordered[count - 1 - beyond],
        "tail_percentile": 100.0 * (count - beyond) / count,
        "tail_beyond": beyond,
        "samples": count,
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: str) -> str:
    """HEAD commit of the repository at root; "unknown" outside one."""
    # git may look for a repository and for its settings only inside root.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root), GIT_CONFIG_NOSYSTEM="1",
               HOME=root, XDG_CONFIG_HOME=root)
    try:
        completed = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                                   text=True, env=env, check=False, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def environment(root: str, seed: int) -> dict:
    """The part of the environment record known before the run; the caller
    adds ``load_avg_end`` after it."""
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "load_avg_start": list(os.getloadavg()),
        "seed": seed,
        "git_commit": _git_commit(root),
    }
