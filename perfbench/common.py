"""Helpers shared by every perfbench workload: paths, digests, statistics."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

#: The benchmark's own directory and the checkout it measures.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Scratch space inside the checkout (daemon caches and logs); ignored by git.
WORK = ROOT / ".perfbench-work"

#: Pinned output digests (regenerate with ``python3 perfbench/pin.py``).
DIGESTS = HERE / "digests.json"

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10

clock = time.perf_counter


def run_limit(seconds: float) -> float:
    """How long a timed phase may run before it stops early."""
    return max(3 * seconds, 60.0)


def repro_env() -> dict:
    """Environment for a child interpreter that imports the checkout's ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def document_digest(document) -> str:
    """Digest of a JSON document, independent of key order."""
    return text_digest(json.dumps(document, sort_keys=True, separators=(",", ":")))


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def median(values) -> float:
    return statistics.median(values)


def tail(values) -> tuple[float, float, int]:
    """``(value, percentile, n)``: the highest percentile with at least
    :data:`TAIL_BEYOND` samples beyond it (the maximum when there are
    too few samples for that)."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(0, n - TAIL_BEYOND - 1)
    percentile = 100.0 * (rank + 1) / n
    return ordered[rank], round(percentile, 2), n


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_peak_rss_mb(pid: int) -> float:
    """Summed peak resident sets of ``pid`` and its live children.

    Children are listed per thread, and the daemon forks its pool from
    a worker thread, so every thread's list is read.
    """
    total = 0.0
    pids = [pid]
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as fh:
                pids += [int(child) for child in fh.read().split()]
    except OSError:
        pass
    for member in pids:
        try:
            with open(f"/proc/{member}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
        except OSError:
            continue  # exited between listing and reading
    return total


#: Host seconds :func:`calibration_loop` takes on the reference machine
#: (2-core x86 VM, CPython 3.11) when no other tenant slows it down.
REFERENCE_CALIBRATION_S = 0.0108


def calibration_loop() -> int:
    """A fixed piece of simulator-like work: a 4 K-entry table of two-bit
    counters, indexed by a hashed pseudo-random PC and the global history."""
    table = [1] * 4096
    history = hits = 0
    x = 12345
    for _ in range(20_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        taken = (x >> 3) & 1
        index = ((x >> 8) ^ history) & 4095
        counter = table[index]
        hits += (counter >= 2) == taken
        table[index] = min(3, counter + 1) if taken else max(0, counter - 1)
        history = ((history << 1) | taken) & 4095
    return hits


class HostSpeed:
    """Converts host seconds into reference seconds.

    The host is shared with other tenants, who slow it down by up to
    twice for spells of seconds, alike for this process, the daemon and
    a plain loop; raw host seconds of the same work then spread by tens
    of percent from run to run. So right after each short unit of work
    (a cell, a job, a set-up) the benchmark times
    :func:`calibration_loop`. The unit's host seconds times
    ``REFERENCE_CALIBRATION_S / loop seconds`` are its *reference
    seconds*: what the same work takes on the reference machine when
    nothing slows it. The spells last much longer than a unit, so the
    loop runs at the speed the unit ran at.
    """

    def __init__(self) -> None:
        self.scales: list[float] = []
        self.overhead_s = 0.0

    def scale(self) -> float:
        """Time the loop now; returns the host-to-reference factor."""
        start = clock()
        calibration_loop()
        took = clock() - start
        self.overhead_s += took
        self.scales.append(REFERENCE_CALIBRATION_S / took)
        return self.scales[-1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def emit(correct: bool, attempted: int, failed: int, metrics: dict, details: dict) -> None:
    """Print the details line, then the one-line result."""
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    sys.stdout.flush()
