"""Tests for the Section-3 separation (computability): fragments, G(M,r), checker, deciders, R."""

import pytest

from repro.decision import decide
from repro.graphs import sequential_assignment
from repro.turing import BLANK, halting_machine, looping_machine, walker_machine
from repro.separation.computability import (
    BoundedBudgetObliviousDecider,
    ComputabilityLDDecider,
    ComputabilityWitnessProperty,
    ExecutionGraphChecker,
    FragmentCollection,
    HaltingPromiseProblem,
    IdSimulationDecider,
    RandomisedObliviousDecider,
    build_execution_graph,
    candidate_always_accept,
    candidate_halt_scanner,
    neighbourhood_generator,
    parse_cell_label,
    run_separation_experiment,
    separation_algorithm,
)

# Small, fast parameters used throughout: the simplest machines and 2x2 fragments.
M0 = halting_machine("0", delay=0)
M1 = halting_machine("1", delay=0)
SIDE = 2


@pytest.fixture(scope="module")
def g_m0():
    return build_execution_graph(M0, r=1, fragment_side=SIDE)


@pytest.fixture(scope="module")
def g_m1():
    return build_execution_graph(M1, r=1, fragment_side=SIDE)


# ---------------------------------------------------------------------- #
# Promise problem R
# ---------------------------------------------------------------------- #


def test_halting_promise_problem():
    prob = HaltingPromiseProblem()
    loop = looping_machine()
    yes = prob.yes_instance(loop, n=8)
    no = prob.no_instance(walker_machine(4, "0"))
    assert prob.contains(yes) and not prob.contains(no)
    decider = IdSimulationDecider()
    assert decide(decider, yes, prob.instance_ids(yes))
    assert not decide(decider, no, prob.instance_ids(no))
    # Any fixed-budget Id-oblivious candidate is defeated by a slower machine.
    candidate = BoundedBudgetObliviousDecider(budget=3)
    slow_no = prob.no_instance(walker_machine(6, "0"))
    assert decide(candidate, slow_no)  # wrongly accepts: the machine halts after its budget
    assert not prob.contains(slow_no)


def test_promise_problem_rejects_bad_instances():
    prob = HaltingPromiseProblem()
    with pytest.raises(Exception):
        prob.yes_instance(M0, n=5)  # halting machine cannot label a yes-instance
    with pytest.raises(Exception):
        prob.no_instance(looping_machine())


# ---------------------------------------------------------------------- #
# Fragments
# ---------------------------------------------------------------------- #


def test_fragment_collection_terminates_even_for_non_halting_machines():
    collection = FragmentCollection(looping_machine(), r=1, side=SIDE)
    assert len(collection) > 0


def test_fragment_rows_are_locally_consistent_and_single_headed():
    collection = FragmentCollection(M0, r=1, side=SIDE)
    for frag in collection:
        for row in frag.rows:
            assert sum(1 for c in row if c.has_head) <= 1
            assert all(c.symbol in M0.alphabet for c in row)


def test_fragment_collection_contains_misleading_halting_cells():
    # The key obfuscation property: even for a machine that outputs 0, the
    # fragments contain windows showing a halting head over a non-zero symbol.
    collection = FragmentCollection(M0, r=1, side=SIDE)
    misleading = False
    for frag in collection:
        for row in frag.rows:
            for cell in row:
                if cell.has_head and cell.state == M0.halt_state and cell.symbol == "1":
                    misleading = True
    assert misleading


def test_glueable_variants_have_connected_non_natural_borders():
    collection = FragmentCollection(M0, r=1, side=SIDE)
    for frag in collection.glueable_variants():
        cells = frag.non_natural_border_cells(M0)
        assert cells  # top row always non-natural
        # connectivity within the fragment grid (4-adjacency)
        cells = set(cells)
        start = next(iter(cells))
        seen = {start}
        stack = [start]
        while stack:
            (i, j) = stack.pop()
            for (di, dj) in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nxt = (i + di, j + dj)
                if nxt in cells and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        assert seen == cells


def test_fragment_label_alphabet_bounded():
    collection = FragmentCollection(M0, r=1, side=SIDE)
    bound = 9 * len(M0.alphabet) * (len(M0.states) + 1)
    assert len(collection.label_alphabet()) <= bound


# ---------------------------------------------------------------------- #
# G(M, r), checker, LD decider
# ---------------------------------------------------------------------- #


def test_execution_graph_contains_table_and_fragments(g_m0):
    assert g_m0.graph.is_connected()
    assert len(g_m0.table_nodes()) == (g_m0.running_time + 1) ** 2
    assert len(g_m0.fragment_nodes()) == len(g_m0.fragments) * SIDE * SIDE
    # P1: the execution table is embedded with its labels
    pivot_label = g_m0.graph.label(g_m0.pivot)
    parsed = parse_cell_label(pivot_label)
    assert parsed is not None and parsed[2] == "pivot-cell"
    assert parsed[5] == BLANK and parsed[6] == M0.start_state


def test_structure_checker_accepts_gmr_and_rejects_corruptions(g_m0):
    checker = ExecutionGraphChecker()
    assert decide(checker, g_m0.graph)

    # Corruption 1: flip a tape symbol in the middle of the table.
    target = ("T", 1, 1)
    lab = list(g_m0.graph.label(target))
    lab[5] = "1" if lab[5] != "1" else "0"
    corrupted = g_m0.graph.with_labels({target: tuple(lab)})
    assert not decide(checker, corrupted)

    # Corruption 2: claim a different machine at one node.
    other = list(g_m0.graph.label(("T", 0, 1)))
    other[0] = M1.encode()
    corrupted2 = g_m0.graph.with_labels({("T", 0, 1): tuple(other)})
    assert not decide(checker, corrupted2)

    # Corruption 3: a bare execution table whose first row is not blank
    table_only = g_m0.table.to_grid_graph(1)
    lab3 = list(table_only.label(("T", 0, 1)))
    lab3[5] = "1"
    assert not decide(checker, table_only.with_labels({("T", 0, 1): tuple(lab3)}))


def test_ld_decider_theorem2(g_m0, g_m1):
    decider = ComputabilityLDDecider()
    ids0 = sequential_assignment(g_m0.graph)
    ids1 = sequential_assignment(g_m1.graph)
    # M0 outputs 0 -> G(M0, r) is a yes-instance; M1 outputs 1 -> no-instance.
    assert decide(decider, g_m0.graph, ids0)
    assert not decide(decider, g_m1.graph, ids1)


def test_witness_property_ground_truth(g_m0, g_m1):
    prop = ComputabilityWitnessProperty(fragment_side=SIDE)
    assert prop.contains(g_m0.graph)
    assert not prop.contains(g_m1.graph)
    # a corrupted copy of G(M0, r) is not a member
    lab = list(g_m0.graph.label(("T", 0, 1)))
    lab[5] = "1"
    assert not prop.contains(g_m0.graph.with_labels({("T", 0, 1): tuple(lab)}))


# ---------------------------------------------------------------------- #
# Coverage (P3), the generator B and the separation algorithm R
# ---------------------------------------------------------------------- #


def test_interior_table_neighbourhoods_covered_by_generator(g_m0):
    from repro.analysis import neighbourhood_keys

    r = 1
    views = neighbourhood_generator(M0, r, fragment_side=SIDE, skip_pivot_region=True)
    generated_keys = {v.oblivious_key() for v in views}
    interior = g_m0.interior_table_nodes(margin=r)
    keys = neighbourhood_keys(g_m0.graph, r, centers=interior)
    missing = [v for v, k in keys.items() if k not in generated_keys]
    assert not missing


def test_generator_halts_on_non_halting_machine():
    views = neighbourhood_generator(looping_machine(), 1, fragment_side=SIDE, skip_pivot_region=True)
    assert len(views) > 0


def test_separation_algorithm_defeats_candidates():
    experiment = run_separation_experiment(
        candidates=[candidate_halt_scanner(radius=1), candidate_always_accept(radius=1)],
        machines=[M0, M1],
        r=1,
        fragment_side=SIDE,
    )
    assert experiment.every_candidate_fails()
    # R halts on a non-halting machine too (computability of the reduction).
    assert isinstance(
        separation_algorithm(candidate_always_accept(1), looping_machine(), r=1, fragment_side=SIDE),
        bool,
    )


# ---------------------------------------------------------------------- #
# Corollary 1: randomised Id-oblivious decider
# ---------------------------------------------------------------------- #


def test_randomised_decider_corollary1(g_m0, g_m1):
    from repro.decision import estimate_acceptance_probability

    decider = RandomisedObliviousDecider(check_structure=False)
    yes_est = estimate_acceptance_probability(decider, g_m0.graph, trials=5, seed=0)
    assert yes_est.acceptance_rate == 1.0  # one-sided error: yes-instances always accepted
    no_est = estimate_acceptance_probability(decider, g_m1.graph, trials=5, seed=0)
    assert no_est.rejection_rate > 0.9
