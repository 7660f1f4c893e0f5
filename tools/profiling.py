"""The shared core of the floor-gated profilers in ``tools/profile_*.py``.

Each profiler lists its scenarios and measures them; this module owns
what they have in common (docs/PERFORMANCE.md, "Profiler methodology"):

* path setup: ``src/`` for :mod:`repro`, ``tests/`` for the frozen
  reference kernel and engine;
* :func:`repeat`: interleaved timed runs reporting best, median and IQR;
* :func:`paired_ratio`: a speedup as the median of per-round ratios;
* :func:`assert_identical`: whole-result identity through the cache
  codec, naming the differential test to run on a mismatch;
* :func:`main`: one command line (``--check-floor``, ``--json``) and one
  JSON document envelope;
* :func:`check_floor`: one floor rule for every ``BENCH_*_floor.json``.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from collections.abc import Callable, Iterable
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "tests"))  # frozen reference kernel and engine

#: Timed repeats per run. A floor gates the best of them, so one noisy
#: run cannot fail it.
REPEATS = 3


def repeat(
    runs: dict[str, Callable],
    times: int = REPEATS,
    setup: Callable | None = None,
) -> tuple[dict[str, dict[str, float]], dict[str, object]]:
    """Time each of ``runs`` ``times`` times, interleaved round-robin.

    Interleaving spreads host noise over every run alike, so ratios
    between them stay fair. With ``setup``, each run is called with a
    fresh ``setup()`` built outside the timed region. Returns each run's
    ``{"best", "median", "iqr", "rounds"}`` seconds (``rounds`` lists
    every timed run in round order) and its last result.
    """
    samples: dict[str, list[float]] = {name: [] for name in runs}
    results: dict[str, object] = {}
    for _ in range(times):
        for name, run in runs.items():
            args = () if setup is None else (setup(),)
            start = time.perf_counter()
            results[name] = run(*args)
            samples[name].append(time.perf_counter() - start)
    return {name: _spread(seconds) for name, seconds in samples.items()}, results


def _spread(seconds: list[float]) -> dict:
    if len(seconds) < 2:
        return {"best": seconds[0], "median": seconds[0], "iqr": 0.0, "rounds": seconds}
    q1, median, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
    return {"best": min(seconds), "median": median, "iqr": q3 - q1, "rounds": seconds}


def paired_ratio(timing: dict, numerator: str, denominator: str) -> float:
    """``numerator`` seconds over ``denominator`` seconds, as the median
    of the per-round ratios of :func:`repeat`'s timing: the two runs of a
    round share its host noise, so their ratio is steadier than the
    ratio of two best runs taken from different rounds."""
    return statistics.median(
        a / b for a, b in zip(timing[numerator]["rounds"], timing[denominator]["rounds"])
    )


def assert_identical(what: str, got: Iterable, expected: Iterable, test: str) -> None:
    """Raise unless each pair of cell results has the same cache encoding.

    The codec is lossless, so this compares the whole result: every
    counter, the critique census and the per-site rows.
    """
    from repro.sim.cache import encode_result

    got, expected = list(got), list(expected)
    if len(got) != len(expected) or any(
        encode_result(a) != encode_result(b) for a, b in zip(got, expected)
    ):
        raise AssertionError(f"{what}: results differ — run the differential tests ({test})")


def show(row: dict, key: str, *fields: str) -> None:
    """Print one measured row: its id, then each named field it has."""
    shown = "".join(f"  {field} {row[field]}" for field in fields if field in row)
    print(f"{row[key]:30s}{shown}", flush=True)


def check_floor(
    rows: list[dict],
    floor_path: Path,
    key: str,
    exact: Iterable[str] = (),
) -> list[str]:
    """Failure messages for ``rows`` against the floor file.

    The rule walks the floor file, not the rows, so a floor nobody
    measured cannot pass silently. A ``min_<field>`` floor needs
    ``row[field] >= floor * tolerance``, a ``max_<field>`` ceiling needs
    ``row[field] <= ceiling / tolerance``; fields in ``exact`` gate
    correctness and get no band. A dict floor is keyed by the rows'
    ``key``; a scalar floor applies to every row that has the field. A
    floor whose field was not measured fails.
    """
    floors = json.loads(Path(floor_path).read_text())
    tolerance = floors.get("tolerance", 0.75)
    by_id = {row[key]: row for row in rows}
    failures: list[str] = []
    for name, floor in floors.items():
        bound, _, field = name.partition("_")
        if bound not in ("min", "max"):
            continue
        if isinstance(floor, dict):
            targets = [(row_id, by_id.get(row_id, {}), value) for row_id, value in floor.items()]
        else:
            targets = [(row[key], row, floor) for row in rows if field in row] or [
                ("every row", {}, floor)
            ]
        band = 1.0 if field in exact else tolerance
        for row_id, row, value in targets:
            measured = row.get(field)
            if measured is None:
                failures.append(f"{row_id}: {name} floor set but {field} not measured")
                continue
            limit = value * band if bound == "min" else value / band
            if (measured < limit) if bound == "min" else (measured > limit):
                failures.append(
                    f"{row_id}: {field} {measured:g} is "
                    f"{'below' if bound == 'min' else 'above'} {limit:g} "
                    f"({name} {value:g}, tolerance {band:.0%})"
                )
    return failures


def main(
    name: str,
    doc: str,
    measure: Callable[[argparse.Namespace], tuple[dict, list[dict]]],
    *,
    schema: str,
    key: str,
    options: Callable[[argparse.ArgumentParser], None] | None = None,
    exact: Iterable[str] = (),
) -> int:
    """Parse the command line, measure, write the document, gate the floor.

    ``measure(args)`` returns the document's own fields and its rows.
    Exit status 1 means a floor regression.
    """
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    if options is not None:
        options(parser)
    parser.add_argument(
        "--check-floor", type=Path, default=None,
        help="floor JSON; exit 1 when a row misses its floor",
    )
    parser.add_argument(
        "--json", type=Path, default=Path(f"BENCH_{name}.json"),
        help="output path for the machine-readable result (default: %(default)s)",
    )
    args = parser.parse_args()
    started = time.perf_counter()
    fields, rows = measure(args)
    document = {
        "schema": schema,
        **fields,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "wall_seconds": round(time.perf_counter() - started, 2),
        "rows": rows,
    }
    args.json.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {args.json}")
    if args.check_floor is None:
        return 0
    failures = check_floor(rows, args.check_floor, key, exact)
    for failure in failures:
        print(f"FLOOR REGRESSION: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"floor check passed ({args.check_floor})")
    return 0
