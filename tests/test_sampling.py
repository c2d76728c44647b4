"""Tests for budgeted sampling and incremental (crash-tolerant) campaigns.

Covers the streaming-matrix sampling contract: byte-identical
:class:`~repro.workloads.sampling.SamplePlan` for the same
``(seed, budget, strata, filters)``, importance-directed budgets spent on
flipped / stale / near-defeat cells, identical campaign digests across
worker counts *and* partition modes, and crash-resume through the
append-only JSONL result log.
"""

import json

import pytest

from repro.campaign.runner import (
    load_result_log,
    resume_campaign,
    run_campaign,
    write_report,
)
from repro.campaign.spec import CampaignReport, ScenarioResult
from repro.engine.parallel import ParallelEngine
from repro.jsonl import append, open_append
from repro.workloads import (
    SamplePlan,
    default_matrix,
    importance_sample,
    stratified_sample,
)
from repro.workloads.cli import main as workloads_main
from repro.workloads.sampling import SCORE_MISSING, _importance_score

#: Cheap, representative verify-only slice used by the campaign tests.
_VERIFY = dict(kinds=["verify"])


def _verdict_rows(report):
    """The stable (timing-free) fields a deterministic sweep must reproduce."""
    return [
        (r.name, r.ok, r.spec_digest, r.summary, r.sweeps, r.instances)
        for r in report.results
    ]


# ---------------------------------------------------------------------- #
# Stratified sampling
# ---------------------------------------------------------------------- #


class TestStratifiedSampling:
    def test_same_inputs_give_byte_identical_plans(self):
        matrix = default_matrix(seed=2)
        first = stratified_sample(matrix, budget=30, seed=9)
        second = stratified_sample(matrix, budget=30, seed=9)
        assert first == second
        assert first.digest() == second.digest()
        assert json.dumps(first.as_dict(), sort_keys=True) == json.dumps(
            second.as_dict(), sort_keys=True
        )

    def test_seed_changes_the_selection(self):
        matrix = default_matrix(seed=2)
        first = stratified_sample(matrix, budget=30, seed=9)
        moved = stratified_sample(matrix, budget=30, seed=10)
        assert first.selected != moved.selected
        assert first.digest() != moved.digest()

    def test_every_stratum_is_represented(self):
        matrix = default_matrix(seed=0)
        plan = stratified_sample(matrix, budget=40, seed=1, strata=("family",))
        selected_families = {name.split(":")[1] for name in plan.selected}
        all_families = {cell.family.name for cell in matrix.cells()}
        assert selected_families == all_families

    def test_plan_round_trips_and_detects_corruption(self, tmp_path):
        plan = stratified_sample(default_matrix(), budget=12, seed=3)
        path = plan.save(tmp_path / "plan.json")
        assert SamplePlan.load(path) == plan
        payload = json.loads(path.read_text())
        payload["budget"] = 99  # tamper without refreshing the digest
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="corrupt"):
            SamplePlan.load(path)

    def test_unknown_stratum_axis_is_rejected(self):
        with pytest.raises(ValueError, match="unknown stratum axis"):
            stratified_sample(default_matrix(), budget=5, strata=("familly",))

    def test_budget_beyond_the_cross_selects_everything(self):
        matrix = default_matrix()
        plan = stratified_sample(matrix, budget=10_000, seed=0, **_VERIFY)
        assert len(plan.selected) == matrix.count_cells(**_VERIFY)
        assert plan.replayed_count == 0

    def test_selected_cells_resolve_to_specs_in_plan_order(self):
        matrix = default_matrix(seed=0)
        plan = stratified_sample(matrix, budget=10, seed=4, **_VERIFY)
        specs = list(plan.iter_specs(matrix))
        assert [spec.name for spec in specs] == list(plan.selected)


# ---------------------------------------------------------------------- #
# Importance-directed sampling
# ---------------------------------------------------------------------- #


class TestImportanceSampling:
    def test_never_measured_cells_outrank_stable_ones(self, tmp_path):
        matrix = default_matrix(seed=0)
        ran = run_campaign(
            matrix.iter_scenarios(families=["cycle"], **_VERIFY), quick=True
        )
        prior = tmp_path / "prior.json"
        write_report(ran, prior, now=0)
        ran_names = {result.name for result in ran.results}
        budget = matrix.count_cells(**_VERIFY) - len(ran_names)
        plan = importance_sample(
            matrix, budget=budget, prior=prior, seed=0, quick=True, **_VERIFY
        )
        assert len(plan.selected) == budget
        assert set(plan.selected).isdisjoint(ran_names), (
            "stable already-measured cells must be replayed, not re-run"
        )

    def test_flipped_and_stale_results_reclaim_the_budget(self, tmp_path):
        matrix = default_matrix(seed=0)
        filters = dict(families=["cycle", "path"], **_VERIFY)
        report = run_campaign(matrix.iter_scenarios(**filters), quick=True)
        report.results[0].observed_correct = not report.results[0].observed_correct
        report.results[1].spec_digest = "stale"
        prior = tmp_path / "prior.json"
        write_report(report, prior, now=0)
        plan = importance_sample(
            matrix, budget=2, prior=prior, seed=0, quick=True, **filters
        )
        assert set(plan.selected) == {report.results[0].name, report.results[1].name}

    def test_leftover_budget_rotates_stable_cells_by_seed(self, tmp_path):
        matrix = default_matrix(seed=0)
        filters = dict(families=["cycle"], **_VERIFY)
        report = run_campaign(matrix.iter_scenarios(**filters), quick=True)
        prior = tmp_path / "prior.json"
        write_report(report, prior, now=0)
        first = importance_sample(matrix, budget=4, prior=prior, seed=0, quick=True, **filters)
        again = importance_sample(matrix, budget=4, prior=prior, seed=0, quick=True, **filters)
        moved = importance_sample(matrix, budget=4, prior=prior, seed=1, quick=True, **filters)
        assert first.selected == again.selected, "same seed must re-select the same cells"
        assert first.selected != moved.selected, "a new seed must rotate the stable subset"


# ---------------------------------------------------------------------- #
# Determinism across workers and chunking
# ---------------------------------------------------------------------- #


class TestSampledSweepDeterminism:
    def test_campaign_digests_identical_across_workers_and_partition(self):
        matrix = default_matrix(seed=5)
        plan = stratified_sample(matrix, budget=8, seed=2, **_VERIFY)
        baseline = None
        # Each worker count partitions the jobs into different chunks.
        for workers in (1, 2, 4):
            engine = ParallelEngine(workers=workers)
            report = run_campaign(plan.iter_specs(matrix), engine=engine, quick=True)
            rows = _verdict_rows(report)
            if baseline is None:
                baseline = rows
            assert rows == baseline, f"verdicts drifted at workers={workers}"
            assert report.ok


# ---------------------------------------------------------------------- #
# Incremental campaigns: the append-only result log
# ---------------------------------------------------------------------- #


class TestIncrementalCampaigns:
    def test_log_grows_incrementally_and_reuses_results(self, tmp_path):
        matrix = default_matrix(seed=0)
        plan = stratified_sample(matrix, budget=6, seed=5, **_VERIFY)
        log = tmp_path / "results.jsonl"
        first = run_campaign(plan.iter_specs(matrix), quick=True, log_path=log)
        assert len(load_result_log(log)) == len(first.results) == 6
        second = run_campaign(plan.iter_specs(matrix), quick=True, log_path=log)
        assert all(result.resumed for result in second.results)
        assert _verdict_rows(first) == _verdict_rows(second)

    def test_crash_resume_matches_the_uninterrupted_run(self, tmp_path):
        matrix = default_matrix(seed=0)
        plan = stratified_sample(matrix, budget=8, seed=5, **_VERIFY)
        log = tmp_path / "results.jsonl"
        uninterrupted = run_campaign(plan.iter_specs(matrix), quick=True, log_path=log)
        # Simulate a crash after 3 cells: keep 3 complete log lines and the
        # truncated head of the 4th (the in-flight write the crash cut off).
        lines = log.read_text().splitlines()
        log.write_text("\n".join(lines[:3]) + "\n" + lines[3][: len(lines[3]) // 2])
        resumed = run_campaign(plan.iter_specs(matrix), quick=True, log_path=log)
        assert [result.resumed for result in resumed.results] == [True] * 3 + [False] * 5
        assert _verdict_rows(resumed) == _verdict_rows(uninterrupted)
        # The re-run appended the missing cells: the log is complete again.
        assert len(load_result_log(log)) == 8

    def test_malformed_log_lines_are_skipped_not_fatal(self, tmp_path):
        matrix = default_matrix(seed=0)
        plan = stratified_sample(matrix, budget=2, seed=1, **_VERIFY)
        log = tmp_path / "results.jsonl"
        run_campaign(plan.iter_specs(matrix), quick=True, log_path=log)
        with log.open("a") as handle:
            handle.write('{"name": "half-written", "secti')
        assert set(load_result_log(log)) == set(plan.selected)

    def test_stale_logged_results_are_not_reused(self, tmp_path):
        matrix = default_matrix(seed=0)
        plan = stratified_sample(matrix, budget=2, seed=1, **_VERIFY)
        log = tmp_path / "results.jsonl"
        run_campaign(plan.iter_specs(matrix), quick=True, log_path=log)
        # quick=False changes every spec digest: nothing may be reused.
        fresh = run_campaign(plan.iter_specs(matrix), quick=False, log_path=log)
        assert not any(result.resumed for result in fresh.results)

    def test_resume_campaign_consults_the_log_for_missing_cells(self, tmp_path):
        matrix = default_matrix(seed=0)
        plan = stratified_sample(matrix, budget=6, seed=5, **_VERIFY)
        log = tmp_path / "results.jsonl"
        full = run_campaign(plan.iter_specs(matrix), quick=True, log_path=log)
        # Report knows only the first 2 cells; the log knows all 6.
        partial = run_campaign(
            matrix.iter_scenarios(names=list(plan.selected[:2]), **_VERIFY), quick=True
        )
        report_path = tmp_path / "report.json"
        write_report(partial, report_path, now=0)
        merged, reused = resume_campaign(
            report_path, scenarios=plan.iter_specs(matrix), quick=True, log_path=log
        )
        assert reused == 6, "2 from the report + 4 from the log"
        assert _verdict_rows(merged) == _verdict_rows(full)


@pytest.fixture(scope="module")
def recorded_cell():
    """One quick verify cell and the payload of its freshly recorded result."""
    cell = next(default_matrix(seed=0).iter_cells(**_VERIFY))
    (result,) = run_campaign([cell.spec], quick=True).results
    return cell, result.as_dict()


@pytest.mark.parametrize("recorded", ["fresh", "stale-digest", "empty-summary", "absent"])
def test_report_log_and_importance_readers_share_one_staleness_rule(tmp_path, recorded_cell, recorded):
    cell, payload = recorded_cell
    edits = {"fresh": {}, "stale-digest": {"spec_digest": "stale"}, "empty-summary": {"summary": ""}}
    prior = [] if recorded == "absent" else [ScenarioResult.from_dict({**payload, **edits[recorded]})]
    settles = recorded == "fresh"
    # The report being resumed.
    report_path = tmp_path / "report.json"
    write_report(CampaignReport("prior", "cached", True, prior), report_path, now=0)
    merged, reused = resume_campaign(report_path, [cell.spec], quick=True)
    assert reused == int(settles)
    assert [result.resumed for result in merged.results] == [settles]
    # The incremental result log.
    log = tmp_path / "results.jsonl"
    with open_append(log) as handle:
        for result in prior:
            append(handle, result.as_dict(), fsync=False)
    (from_log,) = run_campaign([cell.spec], quick=True, log_path=log).results
    assert from_log.resumed == settles
    # The importance sampler's score.
    score = _importance_score(cell, prior[0] if prior else None, True, 0.8)
    assert (score != SCORE_MISSING) == settles


# ---------------------------------------------------------------------- #
# CLI integration
# ---------------------------------------------------------------------- #


class TestSamplingCli:
    def test_sampled_sweep_pins_plan_and_resumes_from_log(self, tmp_path, capsys):
        args = [
            "--run", "--quick", "--sample", "5", "--kind", "verify",
            "--plan", str(tmp_path / "plan.json"),
            "--log", str(tmp_path / "results.jsonl"),
            "--output", str(tmp_path / "report.json"),
        ]
        assert workloads_main(args) == 0
        out = capsys.readouterr().out
        assert "stratified plan: 5/" in out and "sample plan pinned" in out
        assert workloads_main(args) == 0
        out = capsys.readouterr().out
        assert "loaded sample plan" in out
        assert out.count("resumed") >= 5, "the re-run must reuse every logged cell"

    def test_importance_from_requires_sample(self):
        with pytest.raises(SystemExit) as excinfo:
            workloads_main(["--run", "--importance-from", "nope.json"])
        assert excinfo.value.code == 2

    def test_sample_requires_run(self):
        with pytest.raises(SystemExit) as excinfo:
            workloads_main(["--list", "--sample", "5"])
        assert excinfo.value.code == 2
