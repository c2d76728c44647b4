"""Tracing-overhead bench: the flight recorder must be (almost) free.

The observability layer instruments every public engine driver, so its
cost model is load-bearing: with tracing *disabled* the per-call price is
one global ``None`` check (the no-op span), and with tracing *enabled* it
is one JSON line per span.  This bench measures both against a truly
unspanned baseline (a bench-local subclass that routes the public drivers
straight to the ``_core`` implementations) on a compute-light sweep, and
emits ``BENCH_obs.json`` so CI gates the two throughput ratios:

* ``throughput_ratio_disabled`` >= 0.95 — instrumented-but-off runs at
  least 95% of unspanned throughput;
* ``throughput_ratio_enabled`` >= 0.80 — a live trace costs at most 20%.

Each ratio compares the medians of 21 interleaved rounds: the variants
differ by about a dozen no-op spans per sweep, a gap the min of a handful
of ~25 ms rounds cannot resolve from machine noise.  Verdicts are
asserted byte-identical across all three variants.
"""

import json
import statistics
import time

from repro.engine import CachedEngine
from repro.graphs import grid_graph
from repro.local_model import NO, YES, FunctionIdObliviousAlgorithm
from repro.obs import trace
from repro.obs.report import aggregate, load_trace


#: Floors asserted here and gated again in CI via check_regression --gate.
DISABLED_FLOOR = 0.95
ENABLED_FLOOR = 0.80

_REPEATS = 21
_JOBS = 12


class UnspannedCachedEngine(CachedEngine):
    """CachedEngine with the span-emitting public drivers bypassed.

    Routing ``run``/``run_many`` straight to the ``_core`` implementations
    reproduces the pre-instrumentation drivers exactly, which makes this
    the honest "untraced" baseline: the production engine with tracing
    disabled is measured *against* it, not against itself.
    """

    def run(self, algorithm, graph, ids=None, nodes=None):
        return self._run_core(algorithm, graph, ids, nodes)

    def run_many(self, algorithm, jobs):
        return self._run_many_core(algorithm, jobs)


def _decider():
    def evaluate(view):
        return YES if view.center_degree() >= 2 else NO

    return FunctionIdObliviousAlgorithm(evaluate, radius=1, name="deg-floor")


def _jobs():
    # 8x8 grids: enough per-job compute (64 ball extractions + evaluations)
    # that the one span wrapping each job is measured against real work.
    return [(grid_graph(8, 8, label="b"), None) for _ in range(_JOBS)]


#: The three variants, timed round-robin so machine drift hits all alike.
_VARIANTS = ("unspanned", "tracing_disabled", "tracing_enabled")


def _interleaved_sweeps(trace_path, repeats=_REPEATS):
    """Time ``repeats`` run_many sweeps of every variant, interleaved.

    Each round runs every variant once, starting from a different variant
    each round, so a slow patch of the machine lands on all three rather
    than on whichever happened to run back-to-back through it.  A fresh
    CachedEngine per sweep keeps every repeat computing (cold ball cache
    and memo), so the measured seconds are dominated by the work the
    spans wrap rather than by cache lookups — the regime where span
    overhead would show if it were there.  The enabled variant appends to
    one trace file at ``trace_path``.
    """
    decider, jobs = _decider(), _jobs()
    outputs = {}
    times = {variant: [] for variant in _VARIANTS}
    for round_index in range(repeats):
        shift = round_index % len(_VARIANTS)
        for variant in _VARIANTS[shift:] + _VARIANTS[:shift]:
            engine = UnspannedCachedEngine() if variant == "unspanned" else CachedEngine()
            if variant == "tracing_enabled":
                trace.enable(trace_path)
            try:
                start = time.perf_counter()
                outputs[variant] = engine.run_many(decider, jobs)
                times[variant].append(time.perf_counter() - start)
            finally:
                trace.disable()
    return outputs, times


def test_bench_tracing_overhead(tmp_path, write_record):
    trace.disable()
    trace_path = tmp_path / "bench-trace.jsonl"
    outputs, times = _interleaved_sweeps(trace_path)
    baseline_out, disabled_out, enabled_out = (outputs[variant] for variant in _VARIANTS)
    times_unspanned, times_disabled, times_enabled = (times[variant] for variant in _VARIANTS)
    t_unspanned, t_disabled, t_enabled = (
        statistics.median(times_unspanned), statistics.median(times_disabled), statistics.median(times_enabled)
    )

    # Tracing (on or off) never changes a single verdict.
    assert disabled_out == baseline_out
    assert enabled_out == baseline_out

    # The trace actually recorded the sweeps it claims to have timed.
    spans = load_trace(str(trace_path))
    stats = aggregate(spans)
    assert stats["kinds"]["cached.run_many"]["count"] == _REPEATS
    assert stats["kinds"]["cached.run"]["count"] == _REPEATS * _JOBS

    ratio_disabled = t_unspanned / t_disabled if t_disabled > 0 else float("inf")
    ratio_enabled = t_unspanned / t_enabled if t_enabled > 0 else float("inf")
    payload = {
        "workload": f"run_many sweep: {_JOBS} grid graphs, fresh CachedEngine per repeat",
        "jobs": _JOBS,
        "repeats": _REPEATS,
        "statistic": "median",
        "spans_recorded": stats["spans"],
        "seconds": {
            "unspanned": round(t_unspanned, 6),
            "tracing_disabled": round(t_disabled, 6),
            "tracing_enabled": round(t_enabled, 6),
        },
        "seconds_per_repeat": {
            "unspanned": [round(t, 6) for t in times_unspanned],
            "tracing_disabled": [round(t, 6) for t in times_disabled],
            "tracing_enabled": [round(t, 6) for t in times_enabled],
        },
        "throughput_ratio_disabled": round(ratio_disabled, 3),
        "throughput_ratio_enabled": round(ratio_enabled, 3),
        "verdicts_identical_across_variants": True,
        "recorded_at_unix": int(time.time()),
    }
    write_record("obs", payload)

    assert ratio_disabled >= DISABLED_FLOOR, (
        f"tracing-disabled throughput only {ratio_disabled:.3f}x of unspanned "
        f"(unspanned {t_unspanned:.4f}s, disabled {t_disabled:.4f}s)"
    )
    assert ratio_enabled >= ENABLED_FLOOR, (
        f"tracing-enabled throughput only {ratio_enabled:.3f}x of unspanned "
        f"(unspanned {t_unspanned:.4f}s, enabled {t_enabled:.4f}s)"
    )
