"""The one timing routine behind every benchmark record.

:func:`measure` times named variants in interleaved rounds.  Before every
sample it calls the variant's factory outside the clock, so fresh engines,
graphs and pools are built untimed; ``warmup`` rounds run first and are
left out of the record; the first variant rotates each round, so a slow
patch of the machine lands on every variant alike; and no sample pays for
a garbage collection that another sample's garbage caused.  Each variant is
summarised by its raw samples, their median and a seeded percentile-
bootstrap 95% interval of that median.  :func:`ratio` and :func:`rate`
turn medians into a record's keys, each with its own interval, and
:func:`record` lays them out with the harness settings and :func:`stamp`.
"""

from __future__ import annotations

import gc
import os
import platform
import random
import statistics
import subprocess
import time
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

#: Bootstrap resamples per interval; the fixed seed makes every interval repeat.
RESAMPLES = 2000
SEED = 0


def measure(variants, rounds, warmup):
    """Time every variant ``rounds`` times, after ``warmup`` rounds left out.

    ``variants`` maps a name to a factory, called before every sample and
    outside the clock; it returns the zero-argument callable that is timed.
    Returns ``(timings, results)``: per variant, its :func:`summarise`
    summary and the value its last timed call returned.
    """
    names = list(variants)
    samples = {name: [] for name in names}
    results = {}
    # Objects that exist before the first sample are frozen out of the
    # collector, and each sample starts after a collection, so no sample
    # pays for scanning the process's heap or for earlier samples' garbage.
    gc.collect()
    gc.freeze()
    try:
        for index in range(warmup + rounds):
            shift = index % len(names)
            for name in names[shift:] + names[:shift]:
                call = variants[name]()
                gc.collect()
                start = perf_counter()
                result = call()
                elapsed = perf_counter() - start
                if index >= warmup:
                    samples[name].append(elapsed)
                    results[name] = result
    finally:
        gc.unfreeze()
    return {name: summarise(times) for name, times in samples.items()}, results


def summarise(samples):
    """Raw ``samples``, their median and the bootstrap 95% interval of the median."""
    return {"samples": samples, "median": statistics.median(samples), "ci95": _bootstrap(statistics.median, samples)}


def ratio(a, b):
    """``a``'s median over ``b``'s, as ``(value, [low, high])`` with a bootstrap 95% interval."""
    low, high = _bootstrap(lambda x, y: statistics.median(x) / statistics.median(y), a["samples"], b["samples"])
    return round(a["median"] / b["median"], 3), [round(low, 3), round(high, 3)]


def rate(count, timing):
    """``count`` per second of ``timing``'s median, as ``(value, [low, high])``."""
    low, high = timing["ci95"]
    return round(count / timing["median"], 3), [round(count / high, 3), round(count / low, 3)]


def _bootstrap(statistic, *sample_sets):
    """Seeded percentile-bootstrap 95% interval of ``statistic`` over resampled ``sample_sets``."""
    rng = random.Random(SEED)
    draws = sorted(
        statistic(*(rng.choices(samples, k=len(samples)) for samples in sample_sets)) for _ in range(RESAMPLES)
    )
    return [draws[int(0.025 * RESAMPLES)], draws[int(0.975 * RESAMPLES) - 1]]


def record(timings, rounds, warmup, **keys):
    """The timed part of a benchmark record.

    ``keys`` maps a record key to the ``(value, interval)`` pair of
    :func:`ratio` or :func:`rate`; the value sits under the key, where the
    regression gate reads it, and the interval under ``ci95``.
    """
    return {
        "rounds": rounds,
        "warmup": warmup,
        "timings": timings,
        **{key: value for key, (value, _) in keys.items()},
        "ci95": {key: interval for key, (_, interval) in keys.items()},
        "stamp": stamp(),
    }


def stamp():
    """Where and when a record was measured (perfbench's field names)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "recorded_at_unix": int(time.time()),
    }


def _git_sha():
    """The checkout's ``HEAD``, or ``None`` outside a checkout of this repository."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=20, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    return top[1] if len(top) == 2 and Path(top[0]).resolve() == ROOT else None
