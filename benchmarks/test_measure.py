"""Tests for the benchmark timing harness, on fake variants and a fake clock.

Nothing here depends on real timings: the clock is replaced by a counter
that logs every read, so each test asserts on what ran, in which order,
and what the record was computed from.
"""

import statistics

import _measure
import pytest
from _measure import measure, rate, ratio, stamp, summarise


@pytest.fixture
def log(monkeypatch):
    """A fake clock: each read returns the next integer and is logged."""
    events = []

    def clock():
        events.append("clock")
        return sum(1 for event in events if event == "clock")

    monkeypatch.setattr(_measure, "perf_counter", clock)
    return events


def _fake(name, log):
    """A factory that logs its own call and the call it returns."""

    def factory():
        log.append(f"build {name}")

        def call():
            log.append(f"run {name}")
            return name

        return call

    return factory


def test_start_variant_rotates_each_round(log):
    measure({name: _fake(name, log) for name in "abc"}, rounds=3, warmup=1)
    runs = [event for event in log if event.startswith("run")]
    starts = [runs[i] for i in range(0, len(runs), 3)]
    assert starts == ["run a", "run b", "run c", "run a"]


def test_warmup_samples_are_left_out(log):
    timings, results = measure({"a": _fake("a", log)}, rounds=3, warmup=2)
    assert log.count("run a") == 5
    assert len(timings["a"]["samples"]) == 3
    assert results == {"a": "a"}


def test_factory_is_called_outside_the_clock(log):
    measure({"a": _fake("a", log), "b": _fake("b", log)}, rounds=2, warmup=1)
    for index, event in enumerate(log):
        if event.startswith("build"):
            assert log[index + 1] == "clock" and log[index + 2] == f"run {event[6:]}"
            assert log[index + 3] == "clock"


def test_median_and_interval_come_from_the_recorded_samples():
    samples = [3.0, 1.0, 2.0, 10.0, 2.5]
    summary = summarise(samples)
    assert summary["samples"] == samples
    assert summary["median"] == statistics.median(samples)
    low, high = summary["ci95"]
    assert min(samples) <= low <= summary["median"] <= high <= max(samples)
    value, (low, high) = ratio(summary, summarise([1.0, 1.0, 1.0]))
    assert value == 2.5 and low <= value <= high
    assert rate(5, summarise([0.5, 0.5, 0.5])) == (10.0, [10.0, 10.0])


def test_seeded_bootstrap_repeats():
    samples = [0.9, 1.3, 1.1, 1.7, 1.0, 1.2, 0.95]
    assert summarise(samples) == summarise(list(samples))
    other = summarise([2.0, 2.4, 1.9, 2.2])
    assert ratio(other, summarise(samples)) == ratio(other, summarise(samples))


def test_stamp_carries_its_fields():
    fields = stamp()
    assert set(fields) == {"python", "implementation", "machine", "nproc", "git_sha", "recorded_at_unix"}
    assert fields["nproc"] >= 1 and fields["recorded_at_unix"] > 0
