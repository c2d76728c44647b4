"""Experiment `table1`: the Section-1.1 classification table of LD vs LD*.

Regenerates, cell by cell, the paper's table

    |        | (C)        | (¬C)       |
    | (B)    | LD* != LD  | LD* != LD  |
    | (¬B)   | LD* != LD  | LD* = LD   |

by running the witness constructions (Sections 2 and 3) and the generic
Id-oblivious simulation ``A*`` (introduction) on finite families.
"""

from repro.analysis import format_table, oblivious_decider_is_fooled
from repro.decision import ObliviousSimulation, SeparationResult, decide, verify_decider
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


def _cell_b(computable: bool) -> SeparationResult:
    """Cells (B, C) and (B, ¬C): the Section-2 witness separates LD* from LD."""
    fam = section2_family(r=2, tree_depth=4, bound_fn=small_bound)
    prop = SmallInstancesProperty(bound_fn=small_bound, tree_depth=4)
    ld = BoundedIdsLDDecider(bound_fn=small_bound, tree_depth=4)
    ld_ok = verify_decider(
        ld, prop, family=fam, id_space=BoundedIdentifierSpace(small_bound), samples=1
    ).correct
    cert = section2_impossibility_certificate(r=3, horizon=1, tree_depth=5, bound_fn=small_bound)
    fooled = oblivious_decider_is_fooled(
        FunctionIdObliviousAlgorithm(lambda v: YES, radius=1, name="naive"), cert
    )
    return SeparationResult(
        bounded_ids=True, computable=computable, separated=ld_ok and cert.valid and fooled
    )


def _cell_not_b_c() -> SeparationResult:
    """Cell (¬B, C): the Section-3 witness separates LD* from LD."""
    m0, m1 = halting_machine("0"), halting_machine("1")
    ld = ComputabilityLDDecider()
    g0 = build_execution_graph(m0, r=1, fragment_side=2)
    g1 = build_execution_graph(m1, r=1, fragment_side=2)
    ld_ok = decide(ld, g0.graph, sequential_assignment(g0.graph)) and not decide(
        ld, g1.graph, sequential_assignment(g1.graph)
    )
    experiment = run_separation_experiment(
        candidates=[candidate_halt_scanner(1)], machines=[m0, m1], r=1, fragment_side=2
    )
    return SeparationResult(
        bounded_ids=False, computable=True, separated=ld_ok and experiment.every_candidate_fails()
    )


def _cell_not_b_not_c() -> SeparationResult:
    """Cell (¬B, ¬C): the Id-oblivious simulation A* works, so LD* = LD."""
    prop = ProperColouringProperty(3)
    simulated = ObliviousSimulation(ProperColouringDecider(3), identifier_pool=range(10))
    ok = verify_decider(simulated, prop, samples=2).correct
    return SeparationResult(bounded_ids=False, computable=False, separated=not ok)


def _classification_table():
    cells = [_cell_b(True), _cell_b(False), _cell_not_b_c(), _cell_not_b_not_c()]
    rows = [[c.cell_name(), c.verdict()] for c in cells]
    table = format_table(["model", "relationship"], rows, title="Section 1.1 classification")
    expected = {
        "(B, C)": "LD* != LD",
        "(B, ¬C)": "LD* != LD",
        "(¬B, C)": "LD* != LD",
        "(¬B, ¬C)": "LD* = LD",
    }
    assert {c.cell_name(): c.verdict() for c in cells} == expected
    return table


def test_bench_table1_classification(benchmark):
    table = benchmark.pedantic(_classification_table, rounds=1, iterations=1)
    print("\n" + table)
