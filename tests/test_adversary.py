"""The adversarial search subsystem: strategies, hunts, shrinking, integration."""

import pytest

from repro.adversary import (
    ExhaustiveStrategy,
    HillClimbStrategy,
    LazyGuardColouringDecider,
    ParityAuditMISDecider,
    RandomStrategy,
    find_counterexample,
    hunt_instance,
    resolve_strategy,
    shrink_counterexample,
    strategy_names,
)
from repro.adversary.cli import main as adversary_main
from repro.adversary.cli import search_scenarios
from repro.campaign import get_scenario, run_scenario
from repro.decision import InstanceFamily, decide
from repro.errors import AlgorithmError
from repro.graphs import cycle_graph, path_graph
from repro.local_model import NO, YES, FunctionAlgorithm, FunctionIdObliviousAlgorithm
from repro.properties import (
    MaximalIndependentSetProperty,
    ProperColouringDecider,
    ProperColouringProperty,
)


def _mono_cycle(n):
    return cycle_graph(n).with_labels({i: 0 for i in range(n)})


def _empty_mis_cycle(n):
    return cycle_graph(n).with_labels({i: 0 for i in range(n)})


def _mis_trap_family(n=4):
    return InstanceFamily("mis-trap", no_instances=[_empty_mis_cycle(n)])


MIS_POOL = lambda g: range(3 * g.num_nodes())  # noqa: E731


# ---------------------------------------------------------------------- #
# Strategies
# ---------------------------------------------------------------------- #


def test_strategy_names_and_resolution():
    assert strategy_names() == ["exhaustive", "hill-climb", "random"]
    g = cycle_graph(4)
    for name, cls in [
        ("exhaustive", ExhaustiveStrategy),
        ("random", RandomStrategy),
        ("hill-climb", HillClimbStrategy),
    ]:
        assert isinstance(resolve_strategy(name, g, range(8)), cls)
    with pytest.raises(AlgorithmError, match="unknown search strategy"):
        resolve_strategy("gradient-descent", g, range(8))
    with pytest.raises(AlgorithmError, match="pool of size"):
        ExhaustiveStrategy(g, range(3))
    with pytest.raises(AlgorithmError, match="duplicates"):
        RandomStrategy(g, [0, 0, 1, 2])


def test_exhaustive_strategy_enumerates_everything_once():
    g = path_graph(3)
    strat = ExhaustiveStrategy(g, range(3))
    seen = []
    while True:
        batch = strat.propose(4)
        if not batch:
            break
        seen.extend(batch)
    assert len(seen) == 6  # P(3, 3)
    assert len(set(seen)) == 6


def test_random_strategy_is_seed_deterministic_and_deduplicated():
    g = path_graph(3)
    a = RandomStrategy(g, range(6), seed=5)
    b = RandomStrategy(g, range(6), seed=5)
    c = RandomStrategy(g, range(6), seed=6)
    batch_a = a.propose(8) + a.propose(8)
    batch_b = b.propose(8) + b.propose(8)
    assert batch_a == batch_b
    assert len(set(batch_a)) == len(batch_a)
    assert c.propose(8) != batch_a[:8]


def test_hill_climb_is_seed_deterministic_across_observation_rounds():
    g = cycle_graph(5)

    def run(seed):
        strat = HillClimbStrategy(g, range(15), seed=seed)
        history = []
        for _ in range(4):
            batch = strat.propose(6)
            history.extend(batch)
            # Score by even-identifier fraction, like the MIS parity trap.
            strat.observe(
                [(ids, sum(i % 2 == 0 for i in ids.identifiers()) / 5) for ids in batch]
            )
        return history

    assert run(3) == run(3)
    assert run(3) != run(4)


def test_hill_climb_seeds_both_pool_extremes():
    g = path_graph(3)
    strat = HillClimbStrategy(g, range(10), seed=0)
    first = strat.propose(2)
    identifiers = [ids.identifiers() for ids in first]
    assert (0, 1, 2) in identifiers  # smallest legal ids in node order
    assert (9, 8, 7) in identifiers  # the adversarial largest-ids assignment


# ---------------------------------------------------------------------- #
# Hunts
# ---------------------------------------------------------------------- #


def test_hunt_instance_finds_planted_parity_defeat():
    graph = _empty_mis_cycle(4)
    hunt = hunt_instance(
        ParityAuditMISDecider(),
        graph,
        expected=False,
        strategy="hill-climb",
        pool=range(12),
        max_evaluations=400,
    )
    assert hunt.found
    ids = hunt.counter_example.ids
    assert all(i % 2 == 0 for i in ids.identifiers())
    assert hunt.executions <= 400


def test_hunt_instance_respects_budget_when_no_defeat_exists():
    # The correct MIS decider cannot be defeated by any assignment.
    from repro.properties import MaximalIndependentSetDecider

    graph = _empty_mis_cycle(4)
    hunt = hunt_instance(
        MaximalIndependentSetDecider(),
        graph,
        expected=False,
        strategy="random",
        pool=range(12),
        max_evaluations=40,
    )
    # Oblivious decider: a single evaluation settles the instance...
    assert hunt.executions == 1 and hunt.exhausted
    # ...and it correctly rejects the empty selection, so no defeat.
    assert not hunt.found


def test_defeated_oblivious_hunt_scores_like_a_defeated_batch():
    # An always-NO Id-oblivious decider falsely rejects every yes-instance;
    # its one-evaluation hunt must report the defeat with the batch path's score.
    always_no = FunctionIdObliviousAlgorithm(lambda v: NO, radius=0, name="always-no")
    hunt = hunt_instance(
        always_no, cycle_graph(5), expected=True, strategy="random", pool=range(10)
    )
    assert hunt.found and hunt.counter_example.kind == "false-reject"
    assert hunt.executions == 1 and hunt.exhausted
    assert hunt.best_score == 1.0
    assert hunt.as_dict()["best_score"] == 1.0


def _reject_leaves(view):
    return NO if view.center_degree() == 1 else YES


def test_undefeated_oblivious_hunt_scores_like_the_identifier_using_form():
    # A radius-1 decider rejecting exactly at the two leaves of P_6 is right
    # on a no-instance; 4 of 6 nodes output the defeat-ward YES.  The
    # one-evaluation oblivious hunt must score that like a batch job does.
    graph = path_graph(6)
    oblivious = FunctionIdObliviousAlgorithm(_reject_leaves, radius=1, name="leaf-reject")
    id_using = FunctionAlgorithm(_reject_leaves, radius=1, name="leaf-reject-ids")
    single = hunt_instance(oblivious, graph, expected=False, strategy="random", pool=range(12))
    batched = hunt_instance(
        id_using, graph, expected=False, strategy="random", pool=range(12), max_evaluations=4
    )
    assert not single.found and not batched.found
    assert (single.executions, batched.executions) == (1, 4)
    assert single.best_score == batched.best_score == pytest.approx(4 / 6)
    assert round(single.as_dict()["best_score"], 3) == 0.667


def test_hunt_budget_capped_for_id_dependent_decider():
    graph = _mono_cycle(5)
    hunt = hunt_instance(
        LazyGuardColouringDecider(3, guard_bound=10**6),  # effectively sound
        graph,
        expected=False,
        strategy="random",
        pool=range(15),
        max_evaluations=37,
    )
    assert not hunt.found
    assert hunt.executions == 37


def test_guided_search_beats_exhaustive_on_parity_trap():
    family = _mis_trap_family(4)
    prop = MaximalIndependentSetProperty()
    results = {}
    for strategy in ("exhaustive", "hill-climb"):
        results[strategy] = find_counterexample(
            ParityAuditMISDecider(),
            prop=prop,
            family=family,
            strategy=strategy,
            pool_factory=MIS_POOL,
            max_evaluations=4000,
            shrink=False,
        )
    assert results["exhaustive"].found and results["hill-climb"].found
    assert results["hill-climb"].executions < results["exhaustive"].executions


def test_find_counterexample_reports_survival_of_sound_decider():
    prop = ProperColouringProperty(3)
    family = InstanceFamily(
        "sound", yes_instances=[], no_instances=[_mono_cycle(5)]
    )
    report = find_counterexample(
        ProperColouringDecider(3), prop=prop, family=family, max_evaluations=30
    )
    assert not report.found
    assert report.minimal is None
    assert "no counterexample" in report.summary()
    payload = report.as_dict()
    assert payload["found"] is False and payload["counterexample"] is None


def test_search_report_counts_replay_through_verdict_store(tmp_path):
    from repro.engine import CachedEngine

    family = _mis_trap_family(4)
    prop = MaximalIndependentSetProperty()

    def hunt(engine):
        return find_counterexample(
            ParityAuditMISDecider(),
            prop=prop,
            family=family,
            strategy="hill-climb",
            pool_factory=MIS_POOL,
            max_evaluations=400,
            engine=engine,
            shrink=False,
        )

    cold_engine = CachedEngine().with_store(tmp_path / "store")
    cold = hunt(cold_engine)
    cold_engine.store.close()
    warm_engine = CachedEngine().with_store(tmp_path / "store")
    warm = hunt(warm_engine)
    warm_engine.store.close()
    assert cold.found and warm.found
    # Engine-side counters cover whole proposed batches, so they can exceed
    # `executions`, which stops counting at the defeat.
    assert cold.jobs_replayed == 0 and cold.jobs_computed >= cold.executions
    # The hunt is deterministic, so the warm pass replays every probe.
    assert warm.jobs_computed == 0 and warm.jobs_replayed == cold.jobs_computed
    assert warm.counter_example.ids == cold.counter_example.ids


# ---------------------------------------------------------------------- #
# Shrinking
# ---------------------------------------------------------------------- #


def test_shrink_minimises_parity_trap_to_single_even_node():
    prop = MaximalIndependentSetProperty()
    report = find_counterexample(
        ParityAuditMISDecider(),
        prop=prop,
        family=_mis_trap_family(8),
        strategy="hill-climb",
        pool_factory=MIS_POOL,
        max_evaluations=600,
    )
    assert report.found
    minimal = report.minimal
    assert minimal is not None and minimal.locally_minimal
    # One unselected isolated node with identifier 0 already defeats the
    # parity auditor: it violates maximality but the auditor (even id) is mute.
    assert minimal.counter.graph.num_nodes() == 1
    assert minimal.counter.ids.identifiers() == (0,)
    assert minimal.original_nodes == 8
    assert minimal.nodes_removed == 7


def test_shrink_respects_guard_bound_floor_on_identifiers():
    prop = ProperColouringProperty(3)
    family = InstanceFamily("guard", no_instances=[_mono_cycle(6)])
    report = find_counterexample(
        LazyGuardColouringDecider(3, guard_bound=12),
        prop=prop,
        family=family,
        strategy="hill-climb",
        pool_factory=lambda g: range(4 * g.num_nodes()),
        max_evaluations=600,
    )
    assert report.found
    minimal = report.minimal
    assert minimal is not None and minimal.locally_minimal
    # A single mono node is properly coloured, so the minimal witness is the
    # 2-node conflict; every identifier must stay at or above the guard bound.
    assert minimal.counter.graph.num_nodes() == 2
    assert sorted(minimal.counter.ids.identifiers()) == [12, 13]


def test_shrunk_witness_still_defeats_and_is_one_minimal():
    prop = MaximalIndependentSetProperty()
    decider = ParityAuditMISDecider()
    report = find_counterexample(
        decider,
        prop=prop,
        family=_mis_trap_family(6),
        pool_factory=MIS_POOL,
        max_evaluations=600,
    )
    minimal = report.minimal
    graph, ids = minimal.counter.graph, minimal.counter.ids
    # Still defeats: the decider accepts an instance outside the property.
    assert decide(decider, graph, ids) and not prop.contains(graph)
    # 1-minimal: removing any single node loses the defeat.
    for v in graph.nodes():
        kept = [u for u in graph.nodes() if u != v]
        if not kept:
            continue
        sub = graph.induced_subgraph(kept)
        sub_ids = ids.restrict(kept)
        assert decide(decider, sub, sub_ids) == prop.contains(sub)


def test_shrink_without_property_only_minimises_identifiers():
    decider = ParityAuditMISDecider()
    graph = _empty_mis_cycle(4)
    ids_map = {v: 2 * (i + 3) for i, v in enumerate(graph.nodes())}
    from repro.graphs import IdAssignment
    from repro.decision import CounterExample

    counter = CounterExample(
        graph=graph, ids=IdAssignment(ids_map), expected=False, accepted=True
    )
    minimal = shrink_counterexample(decider, counter, prop=None)
    # No ground truth for subgraphs: the node count must stay put...
    assert minimal.counter.graph.num_nodes() == 4
    # ...but identifiers still descend to the smallest all-even witness.
    assert sorted(minimal.counter.ids.identifiers()) == [0, 2, 4, 6]


# ---------------------------------------------------------------------- #
# Minimal witnesses and the campaign integration
# ---------------------------------------------------------------------- #


def test_find_counterexample_attaches_minimal_counterexample():
    prop = MaximalIndependentSetProperty()
    family = InstanceFamily(
        "trap-sweep",
        yes_instances=[],
        no_instances=[_empty_mis_cycle(4), _empty_mis_cycle(6)],
    )
    report = find_counterexample(
        ParityAuditMISDecider(),
        prop=prop,
        family=family,
        strategy="hill-climb",
        max_evaluations=800,
    )
    # default_pool gives {0..2n-1}; all-even assignments exist there too.
    assert report.found
    assert report.instances_tried == 1  # the hunt stops at the first defeat
    assert report.minimal.counter.graph.num_nodes() == 1
    assert "minimal false-accept" in report.summary()
    assert report.as_dict()["minimal"]["locally_minimal"] is True


def test_bundled_search_scenarios_behave_and_cite_minimal_witness():
    assert [spec.name for spec in search_scenarios()] == [
        "adv-colour-guard",
        "adv-mis-parity",
    ]
    for name in ("adv-colour-guard", "adv-mis-parity"):
        result = run_scenario(name, quick=True)
        assert result.ok and not result.observed_correct
        assert result.details["found"] is True
        minimal = result.details["minimal"]
        assert minimal["locally_minimal"] is True
        assert minimal["counterexample"]["num_nodes"] <= 2
        assert result.sweeps == result.details["executions"]


def test_search_scenario_runs_on_parallel_engine():
    from repro.engine import ParallelEngine

    engine = ParallelEngine(workers=2, adaptive=False)
    result = run_scenario("adv-mis-parity", engine=engine, quick=True)
    assert result.ok
    assert engine.stats.extra["parallel_batches"] >= 1
    serial = run_scenario("adv-mis-parity", quick=True)
    # Sharding must not change what the hunt finds or how long it takes.
    assert result.details["executions"] == serial.details["executions"]
    assert result.details["minimal"] == serial.details["minimal"]


def test_campaign_seed_override_changes_digest_and_respects_determinism():
    import dataclasses

    spec = get_scenario("adv-mis-parity")
    assert spec.digest(True) != dataclasses.replace(spec, seed=99).digest(True)
    a = run_scenario("adv-mis-parity", quick=True, seed=123)
    b = run_scenario("adv-mis-parity", quick=True, seed=123)
    assert a.details["executions"] == b.details["executions"]
    assert a.spec_digest == b.spec_digest
    assert a.spec_digest != run_scenario("adv-mis-parity", quick=True).spec_digest


def test_adversary_cli_list_and_hunt(tmp_path, monkeypatch, capsys):
    assert adversary_main(["--list"]) == 0
    assert "adv-mis-parity" in capsys.readouterr().out
    monkeypatch.chdir(tmp_path)
    assert adversary_main(["adv-mis-parity", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "DEFEATED" in out and "adversary OK" in out
    # Without --output a hunt writes no report anywhere.
    assert "report written" not in out
    assert list(tmp_path.iterdir()) == []


def test_adversary_cli_compare_writes_report(tmp_path, capsys):
    out_path = tmp_path / "hunts.json"
    code = adversary_main(
        ["adv-mis-parity", "--quick", "--compare", "--budget", "120", "--output", str(out_path)]
    )
    capsys.readouterr()
    # hill-climb defeats the trap; exhaustive/random survive the tiny budget,
    # which is itself the headline comparison — the CLI exits by expectation,
    # and with a survivor on an expect-defeat target it must signal failure.
    assert code == 1
    import json

    scenarios = json.loads(out_path.read_text())["scenarios"]
    assert [entry["name"] for entry in scenarios] == [
        f"adv-mis-parity/{strategy}" for strategy in strategy_names()
    ]
    by_strategy = {entry["details"]["strategy"]: entry["details"] for entry in scenarios}
    assert all(details["max_evaluations"] == 120 for details in by_strategy.values())
    assert by_strategy["hill-climb"]["found"] is True
    assert by_strategy["exhaustive"]["found"] is False


def test_adversary_cli_hunt_report_equals_run_scenario(tmp_path, capsys):
    out_path = tmp_path / "hunt.json"
    assert adversary_main(["adv-colour-guard", "--quick", "--output", str(out_path)]) == 0
    capsys.readouterr()
    import json

    [entry] = json.loads(out_path.read_text())["scenarios"]
    expected = run_scenario("adv-colour-guard", quick=True)
    assert entry["spec_digest"] == expected.spec_digest
    got, want = entry["details"], expected.details
    assert got["found"] is want["found"] is True
    assert got["executions"] == want["executions"] == 2
    assert got["minimal"] == want["minimal"]
    assert got["minimal"]["counterexample"]["num_nodes"] == 2
    assert got["minimal"]["checks"] == 71


def test_adversary_cli_resume_reruns_a_hunt_under_another_strategy(tmp_path, capsys):
    report_path = tmp_path / "hunt.json"
    assert adversary_main(["adv-mis-parity", "--quick", "--output", str(report_path)]) == 0
    capsys.readouterr()
    # Same settings: the recorded hunt is reused.
    assert adversary_main(["adv-mis-parity", "--quick", "--resume", str(report_path)]) == 0
    assert "1 scenario(s) reused, 0 re-run" in capsys.readouterr().out
    # Another strategy moves the spec digest, so the hunt runs again.
    code = adversary_main(
        ["adv-mis-parity", "--quick", "--budget", "120", "--strategy", "exhaustive",
         "--resume", str(report_path)]
    )
    out = capsys.readouterr().out
    assert code == 1  # exhaustive survives the small budget: UNEXPECTED
    assert "0 scenario(s) reused, 1 re-run" in out
    import json

    [entry] = json.loads(report_path.read_text())["scenarios"]
    assert entry["resumed"] is False
    assert entry["details"]["strategy"] == "exhaustive"
    assert entry["details"]["max_evaluations"] == 120
    assert entry["details"]["found"] is False


def test_adversary_cli_rejects_unknown_target():
    with pytest.raises(SystemExit):
        adversary_main(["no-such-target"])


def test_id_oblivious_algorithms_short_circuit_search():
    prop = ProperColouringProperty(3)
    family = InstanceFamily("oblivious", no_instances=[_mono_cycle(4)])
    always_yes = FunctionIdObliviousAlgorithm(lambda view: YES, radius=0, name="yes")
    report = find_counterexample(always_yes, prop=prop, family=family, max_evaluations=500)
    assert report.found
    assert report.executions == 1  # one evaluation settles an oblivious decider
    assert report.counter_example.ids is None
    assert report.minimal.counter.graph.num_nodes() == 2  # shrunk mono edge


# ---------------------------------------------------------------------- #
# Review regressions
# ---------------------------------------------------------------------- #


def test_hill_climb_batch_of_one_does_not_drop_the_high_seed():
    g = path_graph(3)
    strat = HillClimbStrategy(g, range(10), seed=0)
    singles = [strat.propose(1)[0] for _ in range(2)]
    identifiers = {ids.identifiers() for ids in singles}
    # Both canonical seeds must still be proposed, one per tiny batch.
    assert identifiers == {(0, 1, 2), (9, 8, 7)}


def test_find_counterexample_honours_pool_factory():
    prop = MaximalIndependentSetProperty()
    family = InstanceFamily("pool-bound", no_instances=[_empty_mis_cycle(3)])

    def hunt(pool):
        return find_counterexample(
            ParityAuditMISDecider(),
            prop=prop,
            family=family,
            strategy="exhaustive",
            pool_factory=lambda graph: pool,
            max_evaluations=10,
        )

    # An all-odd pool leaves the parity auditor no silent corner: every
    # assignment makes every violating node report, so the hunt must fail.
    assert not hunt([1, 3, 5]).found
    # An all-even pool is nothing but silent corners: defeat on the first try.
    report = hunt([0, 2, 4])
    assert report.found and report.executions == 1


def test_adversary_cli_compare_conflicts_with_strategy():
    with pytest.raises(SystemExit):
        adversary_main(["--compare", "--strategy", "random"])
