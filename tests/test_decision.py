"""Unit tests for repro.decision: semantics, verification, classes, audits, randomised deciders."""

import pytest

from repro.decision import (
    ClassWitness,
    DecisionClass,
    InstanceFamily,
    NonDeterministicDecider,
    ObliviousSimulation,
    audit_id_obliviousness,
    audit_order_invariance,
    decide,
    decide_outcome,
    estimate_acceptance_probability,
    evaluate_pq_decider,
    verify_decider,
    verify_nondeterministic_decider,
    wilson_interval,
)
from repro.engine import DirectEngine
from repro.errors import DecisionError, PromiseViolationError
from repro.graphs import cycle_graph, path_graph, sequential_assignment
from repro.local_model import (
    NO,
    YES,
    FunctionAlgorithm,
    FunctionIdObliviousAlgorithm,
    FunctionRandomisedAlgorithm,
)
from repro.properties import ProperColouringDecider, ProperColouringProperty


def test_decide_semantics():
    g = path_graph(3).with_labels({0: 0, 1: 1, 2: 0})
    dec = ProperColouringDecider(2)
    outcome = decide_outcome(dec, g)
    assert outcome.accepted and not outcome.rejecting_nodes
    bad = path_graph(3).with_labels({0: 0, 1: 0, 2: 1})
    outcome = decide_outcome(dec, bad)
    assert not outcome.accepted
    assert set(outcome.rejecting_nodes) == {0, 1}


def test_decider_must_return_verdicts():
    # decide, the verification sweep and the Monte-Carlo estimate all turn
    # outputs into verdicts through the one rule, so all three reject "maybe".
    g = path_graph(2)
    alg = FunctionIdObliviousAlgorithm(lambda v: "maybe", radius=0)
    rule = "decision algorithms must return YES or NO"
    with pytest.raises(DecisionError, match=rule):
        decide(alg, g)
    family = InstanceFamily("maybe", yes_instances=[g])
    with pytest.raises(DecisionError, match=rule):
        verify_decider(alg, ProperColouringProperty(3), family=family, samples=1)
    coin = FunctionRandomisedAlgorithm(lambda v, rng: "maybe", radius=0, name="maybe")
    with pytest.raises(DecisionError, match=rule):
        estimate_acceptance_probability(coin, g, trials=3)


def test_verify_decider_reports_counterexamples():
    prop = ProperColouringProperty(3)
    good = ProperColouringDecider(3)
    assert verify_decider(good, prop).correct

    # A broken decider that accepts everything.
    broken = FunctionIdObliviousAlgorithm(lambda v: YES, radius=1, name="always-yes")
    report = verify_decider(broken, prop)
    assert not report.correct
    assert all(not ce.expected for ce in report.counter_examples)  # only false accepts
    assert "FAILED" in report.summary()


def test_verify_decider_honours_an_empty_family():
    prop = ProperColouringProperty(3)
    report = verify_decider(ProperColouringDecider(3), prop, family=InstanceFamily("empty"))
    assert report.family_name == "empty"
    assert report.instances_checked == 0 and report.assignments_checked == 0
    assert report.correct


class _CountingEngine(DirectEngine):
    def __init__(self):
        super().__init__()
        self.batches = []

    def run_many(self, algorithm, jobs):
        self.batches.append(len(jobs))
        return super().run_many(algorithm, jobs)


def test_verify_decider_runs_the_whole_grid_in_one_batch_and_records_every_failure():
    prop = ProperColouringProperty(3)
    # Two no-instances (monochromatic cycles), k assignments each.
    family = InstanceFamily(
        "mono", no_instances=[cycle_graph(n).with_labels({i: 0 for i in range(n)}) for n in (4, 5)]
    )
    k = 3
    always_yes = FunctionIdObliviousAlgorithm(lambda v: YES, radius=1, name="always-yes")
    engine = _CountingEngine()
    report = verify_decider(
        always_yes,
        prop,
        family=family,
        assignments_factory=lambda g: [sequential_assignment(g, start) for start in range(k)],
        engine=engine,
    )
    assert engine.batches == [2 * k]
    assert report.instances_checked == 2 and report.assignments_checked == 2 * k
    # Every failing assignment is recorded, not just the first per instance.
    assert len(report.counter_examples) == 2 * k
    assert {ce.kind for ce in report.counter_examples} == {"false-accept"}


def test_promise_property_raises_outside_promise():
    from repro.separation.bounded_ids import CyclePromiseProblem

    prob = CyclePromiseProblem()
    with pytest.raises(PromiseViolationError):
        prob.contains(cycle_graph(5, label=99))  # size neither r nor f(r)


def test_class_witness_validation():
    prop = ProperColouringProperty(3)
    ok = ClassWitness(prop, DecisionClass.LD_STAR, ProperColouringDecider(3))
    assert ok.verify().correct
    id_using = FunctionAlgorithm(lambda v: YES, radius=1)
    with pytest.raises(DecisionError):
        ClassWitness(prop, DecisionClass.LD_STAR, id_using)


def test_nondeterministic_decider_two_colourability():
    # NLD-style certificate: a proper 2-colouring certifies "bipartite".
    verifier = FunctionIdObliviousAlgorithm(
        lambda view: NO
        if any(view.label_of(u)[1] == view.center_label()[1] for u in view.nodes_at_distance(1))
        or view.center_label()[1] not in (0, 1)
        else YES,
        radius=1,
        name="2col-verifier",
    )

    def prover(graph):
        colours = {}
        for start in graph.nodes():
            if start in colours:
                continue
            colours[start] = 0
            stack = [start]
            while stack:
                v = stack.pop()
                for u in graph.neighbours(v):
                    if u not in colours:
                        colours[u] = 1 - colours[v]
                        stack.append(u)
        return colours

    decider = NonDeterministicDecider(
        verifier=verifier,
        prover=prover,
        certificate_space=lambda graph: [0, 1],
        name="bipartite-nld",
    )
    family = InstanceFamily(
        "bipartite",
        yes_instances=[cycle_graph(6), path_graph(5)],
        no_instances=[cycle_graph(5)],
    )
    report = verify_nondeterministic_decider(decider, family)
    assert report.correct


def test_oblivious_simulation_agrees_when_ids_are_irrelevant():
    prop = ProperColouringProperty(2)
    base = FunctionAlgorithm(
        lambda v: NO
        if v.center_label() is None
        or any(v.label_of(u) == v.center_label() for u in v.nodes_at_distance(1))
        else YES,
        radius=1,
        name="colour-with-ids-available",
    )
    sim = ObliviousSimulation(base, identifier_pool=range(8))
    good = path_graph(4).with_labels({i: i % 2 for i in range(4)})
    bad = path_graph(4).with_labels({i: 0 for i in range(4)})
    assert decide(sim, good)
    assert not decide(sim, bad)


def test_audit_detects_id_dependence():
    g = path_graph(3, label="x")
    dependent = FunctionAlgorithm(
        lambda v: YES if v.center_id() % 2 == 0 else NO, radius=0, name="id-parity"
    )
    report = audit_id_obliviousness(dependent, g, identifier_pool=range(4))
    assert not report.invariant
    independent = FunctionAlgorithm(lambda v: YES, radius=0)
    assert audit_id_obliviousness(independent, g, identifier_pool=range(4)).invariant


def test_audit_order_invariance():
    g = path_graph(3, label="x")
    # Depends only on the relative order (am I the max?): order-invariant.
    oi = FunctionAlgorithm(
        lambda v: YES if v.center_id() == v.max_visible_identifier() else NO,
        radius=1,
        name="am-i-max",
    )
    assert audit_order_invariance(oi, g, identifier_pool=range(5)).invariant
    # Depends on the numeric value: not order-invariant.
    numeric = FunctionAlgorithm(lambda v: YES if v.center_id() > 10 else NO, radius=0)
    assert not audit_order_invariance(numeric, g, identifier_pool=range(15)).invariant


def test_wilson_interval_validates_and_clamps():
    # Invalid critical values are an explicit error, not a ZeroDivisionError
    # (or a silently nonsensical interval).
    for bad_z in (0.0, -1.96, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="z must be"):
            wilson_interval(5, 10, z=bad_z)
    with pytest.raises(ValueError, match="trials"):
        wilson_interval(0, -1)
    # The interval is clamped to [0, 1]: near phat = 1 the raw upper bound
    # can exceed 1.0 in floating point.
    for successes, trials in [(0, 7), (7, 7), (999_999, 1_000_000), (1, 3)]:
        low, high = wilson_interval(successes, trials)
        assert 0.0 <= low <= high <= 1.0
    low, high = wilson_interval(10, 10, z=1e-9)
    assert high <= 1.0


def test_wilson_interval_and_pq_evaluation():
    low, high = wilson_interval(90, 100)
    assert 0.8 < low < 0.9 < high <= 1.0
    assert wilson_interval(0, 0) == (0.0, 1.0)

    always_yes = FunctionRandomisedAlgorithm(lambda v, rng: YES, radius=0, name="yes")
    g = cycle_graph(4, label="c")
    est = estimate_acceptance_probability(always_yes, g, trials=20, seed=1)
    assert est.acceptance_rate == 1.0

    # Rejects with prob 1/2 per node -> accepts a 4-cycle with prob 1/16.
    coin = FunctionRandomisedAlgorithm(
        lambda v, rng: YES if rng.random() < 0.5 else NO, radius=0, name="coin"
    )
    family = InstanceFamily("coin-family", yes_instances=[], no_instances=[g])
    report = evaluate_pq_decider(coin, family, p=1.0, q=0.5, trials=60, seed=2)
    assert report.worst_no_rejection > 0.5
    assert report.satisfied


# ---------------------------------------------------------------------- #
# assignments_for: the sampled/exhaustive assignment pool
# ---------------------------------------------------------------------- #


def test_assignments_for_deduplicates_colliding_samples():
    from repro.decision import assignments_for
    from repro.graphs import BoundedIdentifierSpace

    g = path_graph(2)
    # A 2-node graph over a tiny bounded space: many of the sampled
    # assignments collide with each other and with the canonical one.
    space = BoundedIdentifierSpace(lambda n: n)
    assignments = assignments_for(g, id_space=space, samples=32, seed=0)
    assert len(assignments) == len(set(assignments))
    # The whole space has only P(2, 2) = 2 assignments.
    assert len(assignments) == 2


def test_assignments_for_includes_bounded_adversarial_assignment():
    from repro.decision import assignments_for
    from repro.graphs import BoundedIdentifierSpace

    g = path_graph(3)
    space = BoundedIdentifierSpace(lambda n: 2 * n + 4)
    assignments = assignments_for(g, id_space=space, samples=2, seed=1)
    adversarial = space.adversarial(g)
    assert adversarial in assignments
    assert assignments[0] == sequential_assignment(g)
    # The adversarial assignment uses the largest legal identifiers.
    assert adversarial.max_identifier() == space.bound_for(3) - 1


def test_assignments_for_include_adversarial_flag():
    from repro.decision import assignments_for
    from repro.graphs import BoundedIdentifierSpace

    g = path_graph(3)
    space = BoundedIdentifierSpace(lambda n: 10 * n)
    with_adv = assignments_for(g, id_space=space, samples=2, seed=3)
    without = assignments_for(g, id_space=space, samples=2, seed=3, include_adversarial=False)
    adversarial = space.adversarial(g)
    assert adversarial in with_adv
    assert adversarial not in without
    # Dropping the adversarial assignment removes exactly that one entry.
    assert [a for a in with_adv if a != adversarial] == without


def test_assignments_for_exhaustive_pool_overrides_sampling():
    from repro.decision import assignments_for

    g = path_graph(2)
    assignments = assignments_for(g, exhaustive_pool=[5, 7], samples=99)
    # Canonical 0,1 plus both injective assignments from the pool.
    assert len(assignments) == 3
    assert assignments[0] == sequential_assignment(g)
    pools = {a.identifiers() for a in assignments[1:]}
    assert pools == {(5, 7), (7, 5)}
