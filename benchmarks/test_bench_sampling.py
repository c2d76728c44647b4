"""Streaming-matrix and sampling benchmark: BENCH_sampling.json.

Two headline numbers, both gated by CI's consolidated
``check_regression.py --gate`` invocation:

* ``cells_per_second_streamed`` — throughput of ``iter_cells()`` over a
  variant-laddered cross of more than a million cells.  The stream is
  consumed for a fixed-size prefix (specs are built one at a time and
  dropped), so this is the marginal per-cell cost a budgeted sweep or an
  NDJSON expansion pays — a regression here means lazy expansion started
  materialising or the per-cell spec derivation got expensive.
* ``importance_replay_rate`` — the fraction of a fully-measured cross an
  importance-directed sample replays instead of re-running.  With a
  complete, digest-stable prior report and a small budget, almost all
  cells must be classified stable; a drop means the scorer started
  re-running cells whose verdicts did not change.

The record also captures the stratified-sampling plan digest over the
million-cell cross and the incremental-log sweep's verdict equality, so
the sampled path's correctness is re-asserted where its speed is measured.
"""

from itertools import islice

from _measure import measure, rate, record

from repro.campaign.runner import load_result_log, run_campaign, write_report
from repro.workloads import default_matrix, importance_sample, stratified_sample
from repro.workloads.matrix import WorkloadMatrix


_MATRIX_SEED = 0
_STREAM_PREFIX = 100_000
ROUNDS, WARMUP = 3, 0


def test_bench_sampling_streaming_and_replay(tmp_path, write_record):
    ladder = WorkloadMatrix(
        seed=_MATRIX_SEED, size_scales=(1, 2), sample_counts=(2, 3), replicas=1250
    )
    total = ladder.count_cells()
    assert total >= 1_000_000, f"variant cross only reaches {total} cells"

    # -- streamed expansion throughput (prefix of the million-cell cross) --
    def stream_prefix():
        stream = ladder.iter_cells()
        return lambda: sum(1 for _ in islice(stream, _STREAM_PREFIX))

    timings, consumed = measure({"stream_prefix": stream_prefix}, rounds=ROUNDS, warmup=WARMUP)
    assert consumed["stream_prefix"] == _STREAM_PREFIX
    cps = rate(_STREAM_PREFIX, timings["stream_prefix"])

    # -- stratified draw over the full million-cell cross ------------------
    plan = stratified_sample(ladder, budget=200, seed=3)
    assert len(plan.selected) == 200
    assert plan.total_cells == total

    # -- importance replay rate against a complete prior -------------------
    matrix = default_matrix(seed=_MATRIX_SEED)
    filters = dict(kinds=["verify"])
    log = tmp_path / "results.jsonl"
    report = run_campaign(
        matrix.iter_scenarios(**filters), quick=True, log_path=log
    )
    assert report.ok, "quick verify sweep misbehaved"
    assert len(load_result_log(log)) == len(report.results)
    prior = tmp_path / "prior.json"
    write_report(report, prior, now=0)
    budget = 10
    iplan = importance_sample(
        matrix, budget=budget, prior=prior, seed=0, quick=True, **filters
    )
    replay_rate = iplan.replayed_count / iplan.total_cells
    # The sweep resumed from its own log must reproduce every verdict.
    resumed = run_campaign(
        matrix.iter_scenarios(**filters), quick=True, log_path=log
    )
    stable = lambda rep: [  # noqa: E731
        (r.name, r.ok, r.spec_digest, r.summary) for r in rep.results
    ]
    assert stable(resumed) == stable(report)
    assert all(r.resumed for r in resumed.results)

    payload = {
        "workload": "streamed variant-ladder cross + budgeted sampling",
        "matrix_seed": _MATRIX_SEED,
        "ladder_cells_total": total,
        "stream_prefix_cells": _STREAM_PREFIX,
        **record(timings, ROUNDS, WARMUP, cells_per_second_streamed=cps),
        "stratified_plan_digest": plan.digest(),
        "importance_budget": budget,
        "importance_total_cells": iplan.total_cells,
        "importance_replayed_cells": iplan.replayed_count,
        "importance_replay_rate": round(replay_rate, 6),
        "log_resume_verdicts_identical": True,
    }
    write_record("sampling", payload)

    # In-test floors mirror the CI gates.  Streaming measures >100k cells/s
    # on a warm interpreter; 20k leaves headroom for slow shared runners.
    assert cps[0] >= 20_000, f"streamed expansion slowed to {cps[0]:.0f} cells/s (95% interval {cps[1]})"
    assert replay_rate >= 0.5, (
        f"importance sampling replays only {replay_rate:.1%} of a stable cross"
    )
