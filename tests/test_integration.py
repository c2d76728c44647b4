"""Integration tests: the classification table of Section 1.1, end to end, at small scale."""

from repro.analysis import oblivious_decider_is_fooled
from repro.decision import ObliviousSimulation, decide, verify_decider
from repro.graphs import BoundedIdentifierSpace, sequential_assignment
from repro.local_model import YES, FunctionIdObliviousAlgorithm
from repro.properties import ProperColouringDecider, ProperColouringProperty
from repro.separation.bounded_ids import (
    BoundedIdsLDDecider,
    SmallInstancesProperty,
    section2_family,
    section2_impossibility_certificate,
    small_bound,
)
from repro.separation.computability import (
    ComputabilityLDDecider,
    build_execution_graph,
    candidate_halt_scanner,
    run_separation_experiment,
)
from repro.turing import halting_machine


def test_cell_not_b_not_c_identifiers_not_needed():
    """(¬B, ¬C): the Id-oblivious simulation A* decides whatever A decides (finite pools)."""
    prop = ProperColouringProperty(3)
    base = ProperColouringDecider(3)
    simulated = ObliviousSimulation(base, identifier_pool=range(10))
    report = verify_decider(simulated, prop, samples=2)
    assert report.correct


def test_cell_b_separation():
    """(B, ·): the Section-2 witness is decidable with identifiers, not without."""
    fam = section2_family(r=2, tree_depth=4, bound_fn=small_bound)
    prop = SmallInstancesProperty(bound_fn=small_bound, tree_depth=4)
    ld = BoundedIdsLDDecider(bound_fn=small_bound, tree_depth=4)
    assert verify_decider(
        ld, prop, family=fam, id_space=BoundedIdentifierSpace(small_bound), samples=1
    ).correct

    cert = section2_impossibility_certificate(r=3, horizon=1, tree_depth=5, bound_fn=small_bound)
    assert cert.valid
    assert oblivious_decider_is_fooled(
        FunctionIdObliviousAlgorithm(lambda v: YES, radius=1, name="naive"), cert
    )


def test_cell_c_separation():
    """(¬B, C): the Section-3 witness is decidable with identifiers; candidates without fail."""
    m0 = halting_machine("0", delay=0)
    m1 = halting_machine("1", delay=0)
    ld = ComputabilityLDDecider()
    g0 = build_execution_graph(m0, r=1, fragment_side=2)
    g1 = build_execution_graph(m1, r=1, fragment_side=2)
    assert decide(ld, g0.graph, sequential_assignment(g0.graph))
    assert not decide(ld, g1.graph, sequential_assignment(g1.graph))

    experiment = run_separation_experiment(
        candidates=[candidate_halt_scanner(1)], machines=[m0, m1], r=1, fragment_side=2
    )
    assert experiment.every_candidate_fails()
