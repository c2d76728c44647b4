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
of ~5 ms sweeps cannot resolve from machine noise.  Verdicts are
asserted byte-identical across all three variants.
"""

from functools import partial

from _measure import measure, ratio, record

from repro.engine import CachedEngine
from repro.graphs import grid_graph
from repro.local_model import NO, YES, FunctionIdObliviousAlgorithm
from repro.obs import trace
from repro.obs.report import aggregate, load_trace


#: Floors asserted here and gated again in CI via check_regression --gate.
DISABLED_FLOOR = 0.95
ENABLED_FLOOR = 0.80

ROUNDS, WARMUP = 21, 2
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


def _variant(engine_class, decider, jobs, trace_path=None):
    """A factory for one variant: a fresh engine per sweep, tracing on only when ``trace_path`` is given.

    A fresh CachedEngine per sweep keeps every sample computing (cold ball
    cache and memo), so the measured seconds are dominated by the work the
    spans wrap rather than by cache lookups — the regime where span
    overhead would show if it were there.  Tracing is switched here,
    outside the clock; the enabled variant appends to one trace file.
    """

    def factory():
        trace.disable()
        if trace_path is not None:
            trace.enable(trace_path)
        return partial(engine_class().run_many, decider, jobs)

    return factory


def test_bench_tracing_overhead(tmp_path, write_record):
    trace_path = tmp_path / "bench-trace.jsonl"
    work = _decider(), _jobs()
    try:
        timings, outputs = measure(
            {
                "unspanned": _variant(UnspannedCachedEngine, *work),
                "tracing_disabled": _variant(CachedEngine, *work),
                "tracing_enabled": _variant(CachedEngine, *work, trace_path),
            },
            rounds=ROUNDS,
            warmup=WARMUP,
        )
    finally:
        trace.disable()

    # Tracing (on or off) never changes a single verdict.
    assert outputs["tracing_disabled"] == outputs["unspanned"]
    assert outputs["tracing_enabled"] == outputs["unspanned"]

    # The trace actually recorded the sweeps it claims to have timed.
    spans = load_trace(str(trace_path))
    stats = aggregate(spans)
    assert stats["kinds"]["cached.run_many"]["count"] == WARMUP + ROUNDS
    assert stats["kinds"]["cached.run"]["count"] == (WARMUP + ROUNDS) * _JOBS

    ratio_disabled = ratio(timings["unspanned"], timings["tracing_disabled"])
    ratio_enabled = ratio(timings["unspanned"], timings["tracing_enabled"])
    payload = {
        "workload": f"run_many sweep: {_JOBS} grid graphs, fresh CachedEngine per sample",
        "jobs": _JOBS,
        "spans_recorded": stats["spans"],
        **record(
            timings, ROUNDS, WARMUP,
            throughput_ratio_disabled=ratio_disabled,
            throughput_ratio_enabled=ratio_enabled,
        ),
        "verdicts_identical_across_variants": True,
    }
    write_record("obs", payload)

    assert ratio_disabled[0] >= DISABLED_FLOOR, (
        f"tracing-disabled throughput only {ratio_disabled[0]:.3f}x of unspanned (95% interval {ratio_disabled[1]})"
    )
    assert ratio_enabled[0] >= ENABLED_FLOOR, (
        f"tracing-enabled throughput only {ratio_enabled[0]:.3f}x of unspanned (95% interval {ratio_enabled[1]})"
    )
