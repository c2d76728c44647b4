"""The campaign subsystem: bundled scenarios, runner, reports, CLI, CI gate."""

import hashlib
import json
import subprocess
import sys
import time
import types
import warnings
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignReport,
    bundled_scenarios,
    get_scenario,
    replay_summary,
    resume_campaign,
    run_campaign,
    run_scenario,
    scenario_names,
    write_report,
)
from repro.campaign import runner
from repro.adversary.cli import main as adversary_main
from repro.campaign.cli import main as campaign_main
from repro.engine import ParallelEngine, StoreCorruptionWarning, VerdictStore
from repro.obs.report import load_trace
from repro.workloads.cli import main as workloads_main

REPO_ROOT = Path(__file__).resolve().parents[1]

SMOKE = ["classic-cycles-vs-paths", "sec2-promise-cycles"]

#: The three sweep front ends, each with a small quick sweep selecting a few scenarios.
SWEEP_CLIS = {
    "adversary": (adversary_main, ["adv-mis-parity", "--quick"]),
    "campaign": (campaign_main, ["classic-cycles-vs-paths", "--quick"]),
    "workloads": (workloads_main, ["--run", "--quick", "--family", "cycle", "--property", "colouring"]),
}


@pytest.fixture(params=sorted(SWEEP_CLIS))
def sweep_cli(request):
    """``(main, args)`` of one sweep CLI: the shared options must behave alike on all of them."""
    return SWEEP_CLIS[request.param]


def _parallel():
    return ParallelEngine(workers=2, adaptive=False)


# ---------------------------------------------------------------------- #
# The bundle
# ---------------------------------------------------------------------- #


def test_bundle_has_at_least_six_unique_scenarios():
    specs = bundled_scenarios()
    assert len(specs) >= 6
    names = [spec.name for spec in specs]
    assert len(set(names)) == len(names)
    sections = {spec.section for spec in specs}
    # The bundle spans both separation sections and the classic examples.
    assert any(s.startswith("2") for s in sections)
    assert any(s.startswith("3") for s in sections)
    assert "classic" in sections


def test_get_scenario_unknown_name():
    with pytest.raises(KeyError, match="unknown scenario"):
        get_scenario("no-such-scenario")


def test_specs_render_list_rows():
    for spec in bundled_scenarios():
        row = spec.as_row()
        assert row[0] == spec.name
        assert spec.kind in ("verify", "estimate", "search")


# ---------------------------------------------------------------------- #
# Runner: engine equivalence and expected failures
# ---------------------------------------------------------------------- #


def test_smoke_campaign_parallel_matches_direct():
    direct = run_campaign(SMOKE, engine="direct", quick=True, name="smoke")
    parallel = run_campaign(SMOKE, engine=_parallel(), quick=True, name="smoke")
    assert direct.ok and parallel.ok
    assert parallel.parallel_stats()["parallel_batches"] >= 1
    for d, p in zip(direct.results, parallel.results):
        assert d.name == p.name
        assert d.observed_correct == p.observed_correct
        assert d.instances == p.instances
        assert d.sweeps == p.sweeps
        # The verification details (counts, verdict, counter-examples) agree.
        for key in ("correct", "instances_checked", "assignments_checked", "counter_examples"):
            assert d.details[key] == p.details[key]


def test_estimate_scenario_statistics_backend_independent():
    direct = run_scenario("cor1-randomised", engine="direct", quick=True)
    parallel = run_scenario("cor1-randomised", engine=_parallel(), quick=True)
    assert direct.ok and parallel.ok
    assert parallel.engine_stats["parallel_batches"] >= 1
    for key in ("worst_yes_acceptance", "worst_no_rejection", "trials_per_instance"):
        assert direct.details[key] == parallel.details[key]


def test_expected_failure_scenario_cites_counterexample():
    result = run_scenario("sec3-oblivious-budget", quick=True)
    assert result.ok  # the failure is expected: that IS the separation
    assert result.observed_correct is False and result.expected_correct is False
    first = result.details["first_counterexample"]
    assert first is not None
    assert first["kind"] == "false-accept"
    assert first["assignment"]  # the witnessing identifier assignment is cited


def test_scenario_results_carry_engine_stats():
    result = run_scenario("classic-colouring", engine="cached", quick=True)
    assert result.engine == "cached"
    assert result.engine_stats["nodes_run"] > 0
    # The caching backend must actually reuse work across the sweep.
    assert result.engine_stats["evaluation_hits"] > 0


# ---------------------------------------------------------------------- #
# Reports
# ---------------------------------------------------------------------- #


def test_report_json_schema(tmp_path):
    report = run_campaign(SMOKE, engine="cached", quick=True, name="schema-check")
    path = write_report(report, tmp_path / "campaign.json")
    payload = json.loads(path.read_text())
    assert payload["campaign"] == "schema-check"
    assert payload["ok"] is True
    assert payload["quick"] is True
    assert len(payload["scenarios"]) == len(SMOKE)
    for scenario in payload["scenarios"]:
        for key in ("name", "kind", "engine", "seconds", "ok", "instances", "sweeps", "engine_stats", "details"):
            assert key in scenario
    assert isinstance(CampaignReport(name="x", engine="cached", quick=False).as_dict(), dict)


def test_summary_table_mentions_every_scenario():
    report = run_campaign(SMOKE, engine="cached", quick=True)
    table = report.summary_table()
    for name in SMOKE:
        assert name in table


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #


def test_cli_list(capsys):
    assert campaign_main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in scenario_names():
        assert name in out


def test_cli_runs_scenarios_and_writes_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = campaign_main(
        ["classic-cycles-vs-paths", "--quick", "--engine", "parallel", "--workers", "2", "--output", str(out_path)]
    )
    assert code == 0
    assert out_path.exists()
    out = capsys.readouterr().out
    assert "campaign OK" in out


def test_cli_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        campaign_main(["definitely-not-a-scenario", "--no-report"])


def test_cli_rejects_workers_with_non_parallel_engine(sweep_cli):
    main, args = sweep_cli
    with pytest.raises(SystemExit) as excinfo:
        main([*args, "--engine", "cached", "--workers", "2", "--no-report"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "bad",
    [
        ["--workers", "0"],
        ["--workers", "-3"],
        ["--min-replayed", "-1", "--store", "unused-store"],
        ["--min-replayed", "90", "--store", "unused-store"],
        ["--min-replayed", "nan", "--store", "unused-store"],
    ],
    ids=lambda bad: f"{bad[0].lstrip('-')}={bad[1]}",
)
def test_cli_rejects_out_of_range_values_at_parse_time(sweep_cli, bad, capsys):
    main, args = sweep_cli
    with pytest.raises(SystemExit) as excinfo:
        main([*args, *bad, "--no-report"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and f"argument {bad[0]}" in err


@pytest.mark.parametrize(
    "bad", [["--max-cells", "-1"], ["--replicas", "0"], ["--size-scale", "0"], ["--sample-count", "0"]],
    ids=lambda bad: f"{bad[0].lstrip('-')}={bad[1]}",
)
def test_workloads_cli_rejects_out_of_range_axes(bad, capsys):
    with pytest.raises(SystemExit) as excinfo:
        workloads_main(["--list", "--count-only", *bad])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and f"argument {bad[0]}" in err


def test_cli_trace_writes_readable_spans(sweep_cli, tmp_path, capsys):
    main, args = sweep_cli
    path = tmp_path / "sweep-trace.jsonl"
    assert main([*args, "--trace", str(path), "--no-report"]) == 0
    assert f"trace written to {path}" in capsys.readouterr().out
    spans = load_trace(str(path))
    assert any(span["kind"] == "campaign.run" for span in spans)


def test_cli_workers_alone_implies_parallel_engine(capsys):
    code = campaign_main(["classic-cycles-vs-paths", "--quick", "--workers", "2", "--no-report"])
    assert code == 0
    assert "campaign OK" in capsys.readouterr().out


def test_runner_rejects_workers_for_non_parallel_engine():
    with pytest.raises(ValueError, match="parallel"):
        run_scenario("classic-colouring", engine="cached", workers=2, quick=True)


# ---------------------------------------------------------------------- #
# The CI benchmark-regression gate
# ---------------------------------------------------------------------- #


def _run_gate(*args):
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "benchmarks" / "check_regression.py"), *args],
        capture_output=True,
        text=True,
    )


def _gate_specs(tmp_path, *triples):
    """Write one record per (key, baseline, fresh, floor) and run one --gate per record."""
    args = []
    for idx, (key, baseline_value, fresh_value, floor) in enumerate(triples):
        baseline = tmp_path / f"baseline{idx}.json"
        fresh = tmp_path / f"fresh{idx}.json"
        baseline.write_text(json.dumps({key: baseline_value}))
        fresh.write_text(json.dumps(fresh_value if isinstance(fresh_value, dict) else {key: fresh_value}))
        args += ["--gate", f"{baseline}:{fresh}:{key}:{floor}"]
    return _run_gate(*args)


def _gate(tmp_path, baseline_speedup, fresh_speedup):
    return _gate_specs(tmp_path, ("speedup_direct_over_cached", baseline_speedup, fresh_speedup, 3.0))


def test_regression_gate_passes_above_floor(tmp_path):
    proc = _gate(tmp_path, 10.0, 8.0)
    assert proc.returncode == 0, proc.stdout


def test_regression_gate_fails_below_floor(tmp_path):
    proc = _gate(tmp_path, 10.0, 2.5)
    assert proc.returncode == 1
    assert "below the 3.00x floor" in proc.stdout


def test_regression_gate_prints_interval_and_rounds(tmp_path):
    fresh = {"speedup_direct_over_cached": 8.0, "ci95": {"speedup_direct_over_cached": [7.25, 9.5]}, "rounds": 11}
    proc = _gate(tmp_path, 10.0, fresh)
    assert proc.returncode == 0, proc.stdout
    assert "fresh 8.00x [95% interval 7.25-9.50, 11 rounds]" in proc.stdout


@pytest.mark.parametrize("bad_baseline", [0.0, -2.5, float("nan")])
def test_regression_gate_rejects_unusable_baseline(tmp_path, bad_baseline):
    # A zero/negative/NaN baseline would make the comparison vacuous; it
    # must exit 2 with a clear message instead.
    proc = _gate(tmp_path, bad_baseline, 8.0)
    assert proc.returncode == 2
    assert "INVALID" in proc.stderr
    assert "positive finite speedup" in proc.stderr


def test_regression_gate_rejects_unusable_fresh_record(tmp_path):
    proc = _gate(tmp_path, 10.0, float("nan"))
    assert proc.returncode == 2
    assert "fresh record" in proc.stderr


def test_consolidated_gate_passes_all_records(tmp_path):
    proc = _gate_specs(
        tmp_path,
        ("speedup_direct_over_cached", 10.0, 8.0, 3.0),
        ("cells_per_second_serial", 500.0, 400.0, 2.0),
    )
    assert proc.returncode == 0, proc.stdout
    assert "across 2 gate(s)" in proc.stdout


def test_consolidated_gate_reports_every_failure(tmp_path):
    # No short-circuit: both failing gates must appear in one run's output.
    proc = _gate_specs(
        tmp_path,
        ("speedup_direct_over_cached", 10.0, 1.0, 3.0),
        ("cells_per_second_serial", 500.0, 1.0, 2.0),
    )
    assert proc.returncode == 1
    assert "speedup_direct_over_cached" in proc.stdout
    assert "cells_per_second_serial" in proc.stdout
    assert proc.stdout.count("FAIL") == 2


def test_consolidated_gate_rejects_positional_and_flag_mixing(tmp_path):
    # --gate is the one invocation form: the removed positional pair,
    # --key, --min-speedup and --max-drop are usage errors.
    record = tmp_path / "record.json"
    record.write_text(json.dumps({"speedup_direct_over_cached": 8.0}))
    gate = f"{record}:{record}:speedup_direct_over_cached:3.0"
    for extra in (["--min-speedup", "5.0"], ["--key", "other"], ["--max-drop", "0.5"], [str(record), str(record)]):
        proc = _run_gate("--gate", gate, *extra)
        assert proc.returncode == 2, f"{extra} should be a usage error"
    assert _run_gate(str(record), str(record)).returncode == 2


def test_consolidated_gate_rejects_malformed_spec(tmp_path):
    proc = _run_gate("--gate", "not-a-gate-spec")
    assert proc.returncode == 2
    assert "BASELINE:CURRENT:KEY:FLOOR" in proc.stderr


def test_regression_gate_rejects_missing_key(tmp_path):
    baseline = tmp_path / "baseline.json"
    fresh = tmp_path / "fresh.json"
    baseline.write_text(json.dumps({"something_else": 1.0}))
    fresh.write_text(json.dumps({"speedup_direct_over_cached": 8.0}))
    proc = _run_gate("--gate", f"{baseline}:{fresh}:speedup_direct_over_cached:3.0")
    assert proc.returncode == 2
    assert "missing" in proc.stderr


# ---------------------------------------------------------------------- #
# Persistence: --store replay, --resume merge, atomic report writes
# ---------------------------------------------------------------------- #


def test_atomic_write_report_with_injectable_timestamp(tmp_path):
    report = run_campaign(SMOKE, engine="cached", quick=True, name="atomic")
    path = write_report(report, tmp_path / "campaign.json", now=1234567890)
    payload = json.loads(path.read_text())
    assert payload["recorded_at_unix"] == 1234567890
    # No temporary files are left behind by the temp-file + os.replace dance.
    assert [p.name for p in tmp_path.iterdir()] == ["campaign.json"]
    # Overwriting an existing report goes through the same atomic path.
    write_report(report, path, now=1234567891)
    assert json.loads(path.read_text())["recorded_at_unix"] == 1234567891


def test_campaign_store_replays_second_run(tmp_path):
    store = tmp_path / "verdicts"
    cold = run_campaign(SMOKE, engine="cached", quick=True, name="cold", store=store)
    warm = run_campaign(SMOKE, engine="cached", quick=True, name="warm", store=store)
    assert cold.ok and warm.ok
    assert cold.jobs_replayed == 0 and cold.jobs_computed > 0
    assert warm.jobs_computed == 0 and warm.jobs_replayed == cold.jobs_computed
    for c, w in zip(cold.results, warm.results):
        assert c.observed_correct == w.observed_correct
        assert c.sweeps == w.sweeps
        assert w.engine == "persistent"


#: SHA-256 of the verdict-store segment and of the result log that one
#: fixed cached quick sweep of ``SMOKE`` writes, timings frozen at zero.
#: Stores and logs written by earlier versions must keep replaying, so
#: their bytes are pinned.  The segment's keys are job digests, which move
#: only when the algorithm fingerprint's definition does (it last changed
#: to cover every method of a decider's own classes); its values did not.
SMOKE_SEGMENT_SHA256 = "6e0ce04668305cf9fb0fad25cd6f4dee4f74a8f892511128c2436c056cfaae90"
SMOKE_LOG_SHA256 = "91de1809825478ce750d28b09e1d618602bf0af6f8af8dbca0b658d3fcc806e3"


def test_store_segment_and_result_log_bytes_are_pinned(tmp_path, monkeypatch):
    # Wall-clock timings are the only fields that vary between runs.
    monkeypatch.setattr(runner, "time", types.SimpleNamespace(perf_counter=lambda: 0.0, time=time.time))
    store, log = tmp_path / "store", tmp_path / "log.jsonl"
    report = run_campaign(SMOKE, engine="cached", quick=True, store=store, log_path=log)
    assert report.ok
    (segment,) = store.glob("segment-*.jsonl")
    assert hashlib.sha256(segment.read_bytes()).hexdigest() == SMOKE_SEGMENT_SHA256
    assert hashlib.sha256(log.read_bytes()).hexdigest() == SMOKE_LOG_SHA256


def test_campaign_log_inside_the_store_directory_is_not_a_segment(tmp_path):
    # The store owns only its segment-*.jsonl files: a campaign log kept
    # in the same directory must not be parsed (one corruption warning per
    # log line) nor deleted by clear().
    store = tmp_path / "verdicts"
    log = store / "log.jsonl"
    cold = run_campaign(SMOKE, engine="cached", quick=True, name="cold", store=store, log_path=log)
    logged = log.read_text()
    assert cold.ok and logged.count("\n") >= len(SMOKE)
    with warnings.catch_warnings():
        warnings.simplefilter("error", StoreCorruptionWarning)
        opened = VerdictStore(store)
        warm = run_campaign(SMOKE, engine="cached", quick=True, name="warm", store=store, log_path=log)
    assert opened.corrupt_lines_skipped == 0 and opened.segments_loaded == 1
    assert warm.ok
    opened.clear()
    assert log.read_text() == logged
    assert len(VerdictStore(store)) == 0


def test_scenario_spec_digest_stability_and_sensitivity():
    spec = get_scenario("classic-cycles-vs-paths")
    assert spec.digest(quick=True) == spec.digest(quick=True)
    # quick and full ladders differ, so their digests must differ.
    assert spec.digest(quick=True) != spec.digest(quick=False)
    assert spec.digest(True) != get_scenario("classic-colouring").digest(True)


def test_resume_campaign_reuses_fresh_and_reruns_stale(tmp_path):
    report_path = tmp_path / "report.json"
    report = run_campaign(SMOKE, engine="cached", quick=True, name="resumable")
    write_report(report, report_path)

    # Nothing changed: every requested scenario is reused verbatim.
    merged, reused = resume_campaign(report_path, scenarios=SMOKE, engine="cached")
    assert reused == len(SMOKE)
    assert all(r.resumed for r in merged.results)
    assert merged.ok

    # Corrupt one scenario's digest (simulating an edited spec): only that
    # scenario is re-run, and the merged report carries a fresh verdict.
    payload = json.loads(report_path.read_text())
    payload["scenarios"][0]["spec_digest"] = "stale"
    report_path.write_text(json.dumps(payload))
    merged, reused = resume_campaign(report_path, scenarios=SMOKE, engine="cached")
    assert reused == len(SMOKE) - 1
    rerun = [r for r in merged.results if not r.resumed]
    assert [r.name for r in rerun] == [payload["scenarios"][0]["name"]]
    assert merged.ok


def test_resume_preserves_unrequested_history(tmp_path):
    report_path = tmp_path / "report.json"
    report = run_campaign(SMOKE, engine="cached", quick=True, name="history")
    write_report(report, report_path)
    merged, reused = resume_campaign(report_path, scenarios=SMOKE[:1], engine="cached")
    assert reused == 1
    assert {r.name for r in merged.results} == set(SMOKE)


def test_cli_store_and_min_replayed_gate(sweep_cli, tmp_path, capsys):
    main, args = sweep_cli
    store = str(tmp_path / "verdicts")
    out1 = str(tmp_path / "r1.json")
    out2 = str(tmp_path / "r2.json")
    # Cold run cannot meet a replay floor...
    code = main([*args, "--store", store, "--min-replayed", "0.9", "--output", out1])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out
    # ...the warm run replays everything and passes it.
    code = main([*args, "--store", store, "--min-replayed", "0.9", "--output", out2])
    out = capsys.readouterr().out
    assert code == 0
    assert "store replay:" in out and "OK" in out.splitlines()[-1]
    # Verdicts of the two runs are identical.
    s1 = json.loads(Path(out1).read_text())["scenarios"]
    s2 = json.loads(Path(out2).read_text())["scenarios"]
    assert [s["name"] for s in s1] == [s["name"] for s in s2]
    for a, b in zip(s1, s2):
        assert a["observed_correct"] == b["observed_correct"]
        assert a["sweeps"] == b["sweeps"]


def test_cli_min_replayed_requires_store(sweep_cli):
    main, args = sweep_cli
    with pytest.raises(SystemExit) as excinfo:
        main([*args, "--min-replayed", "0.5", "--no-report"])
    assert excinfo.value.code == 2


def test_cli_min_replayed_ignores_resumed_scenarios(tmp_path, capsys):
    # A fully-reused resume recomputes nothing; the replay gate must judge
    # only what this invocation ran (here: nothing), not stale counters.
    store = str(tmp_path / "verdicts")
    report_path = tmp_path / "report.json"
    report = run_campaign(SMOKE, engine="cached", quick=True, name="warm-resume", store=store)
    write_report(report, report_path)
    code = campaign_main(
        ["--resume", str(report_path), *SMOKE, "--engine", "cached", "--store", store,
         "--min-replayed", "0.9", "--no-report"]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "resumed scenario(s) excluded" in out


def test_cli_partial_resume_gate_skips_unrequested_scenarios(tmp_path, capsys):
    # Resume a two-scenario report asking for only one of them, with a
    # store that has never seen either: nothing runs, so the gate must
    # pass, and the carried-over scenario counts as resumed, not computed.
    report_path = tmp_path / "r.json"
    assert campaign_main([*SMOKE, "--quick", "--engine", "cached", "--output", str(report_path)]) == 0
    capsys.readouterr()
    code = campaign_main(
        [SMOKE[0], "--quick", "--engine", "cached", "--resume", str(report_path),
         "--store", str(tmp_path / "s"), "--min-replayed", "0.9", "--no-report"]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "2 resumed scenario(s) excluded" in out
    assert "FAIL" not in out
    report, reused = resume_campaign(report_path, [SMOKE[0]], engine="cached")
    assert reused == 1
    assert [r.resumed for r in report.results] == [True, True]
    assert replay_summary(report) == (0, 0, 1.0, 2)


def test_cli_resume_writes_back_to_resume_path(sweep_cli, tmp_path, capsys):
    main, args = sweep_cli
    report_path = tmp_path / "report.json"
    assert main([*args, "--engine", "cached", "--output", str(report_path)]) == 0
    payload = json.loads(report_path.read_text())
    names = {s["name"] for s in payload["scenarios"]}
    payload["recorded_at_unix"] = 1
    report_path.write_text(json.dumps(payload))
    capsys.readouterr()
    code = main([*args, "--engine", "cached", "--resume", str(report_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert f"resumed from {report_path}: {len(names)} scenario(s) reused, 0 re-run" in out
    payload = json.loads(report_path.read_text())
    assert payload["recorded_at_unix"] != 1  # merged report was written back
    assert {s["name"] for s in payload["scenarios"]} == names
    assert all(s["resumed"] for s in payload["scenarios"])