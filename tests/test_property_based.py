"""Property-based (hypothesis) tests for the core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.graphs import (
    cycle_graph,
    extract_neighbourhood,
    path_graph,
    random_graph,
    sequential_assignment,
)
from repro.local_model import YES, FunctionIdObliviousAlgorithm, run_algorithm, simulate_algorithm
from repro.turing import ExecutionTable, halting_machine, row_successors, walker_machine


# ---------------------------------------------------------------------- #
# Graph invariants
# ---------------------------------------------------------------------- #


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    p = draw(st.floats(min_value=0.0, max_value=1.0))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    label = draw(st.sampled_from(["a", "b", None, 3]))
    return random_graph(n, p, seed=seed, label=label)


@given(small_graphs())
@settings(max_examples=40, deadline=None)
def test_handshake_lemma(g):
    assert sum(g.degree(v) for v in g.nodes()) == 2 * g.num_edges()


@given(small_graphs())
@settings(max_examples=40, deadline=None)
def test_components_partition_nodes(g):
    comps = g.connected_components()
    all_nodes = [v for comp in comps for v in comp]
    assert sorted(map(repr, all_nodes)) == sorted(map(repr, g.nodes()))


@given(small_graphs(), st.integers(min_value=0, max_value=3))
@settings(max_examples=40, deadline=None)
def test_ball_monotone_in_radius(g, radius):
    v = g.nodes()[0]
    smaller = g.ball_nodes(v, radius)
    larger = g.ball_nodes(v, radius + 1)
    assert smaller <= larger


@given(small_graphs())
@settings(max_examples=30, deadline=None)
def test_relabelling_preserves_structure(g):
    mapping = {v: ("renamed", i) for i, v in enumerate(g.nodes())}
    h = g.relabel_nodes(mapping)
    assert h.num_nodes() == g.num_nodes()
    assert h.num_edges() == g.num_edges()
    assert sorted(repr(lab) for lab in h.labels().values()) == sorted(
        repr(lab) for lab in g.labels().values()
    )


# ---------------------------------------------------------------------- #
# Identifier / view invariants
# ---------------------------------------------------------------------- #


@given(st.integers(min_value=3, max_value=12), st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=1000))
@settings(max_examples=40, deadline=None)
def test_oblivious_key_is_id_invariant(n, radius, offset):
    g = cycle_graph(n, label="c")
    ids_a = sequential_assignment(g)
    ids_b = sequential_assignment(g, start=offset + 1)
    va = extract_neighbourhood(g, 0, radius, ids_a)
    vb = extract_neighbourhood(g, 0, radius, ids_b)
    assert va.oblivious_key() == vb.oblivious_key()


@given(st.integers(min_value=1, max_value=8))
@settings(max_examples=20, deadline=None)
def test_id_assignment_roundtrips(n):
    g = path_graph(n)
    ids = sequential_assignment(g, start=5)
    assert ids.max_identifier() == n + 4
    assert ids.restrict(g.nodes()) == ids
    renamed = ids.renamed({i: i + 100 for i in ids.identifiers()})
    assert sorted(renamed.identifiers()) == [i + 100 for i in sorted(ids.identifiers())]


# ---------------------------------------------------------------------- #
# Execution-model equivalence (ball evaluation == message passing)
# ---------------------------------------------------------------------- #


@given(st.integers(min_value=3, max_value=9), st.integers(min_value=0, max_value=2))
@settings(max_examples=20, deadline=None)
def test_simulator_agrees_with_ball_runner(n, radius):
    g = cycle_graph(n, label="x")
    ids = sequential_assignment(g)
    alg = FunctionIdObliviousAlgorithm(
        lambda view: YES if len(view.nodes()) % 2 == 1 else YES, radius=radius, name="size-parity"
    )
    assert run_algorithm(alg, g, ids) == simulate_algorithm(alg, g, ids)[0]


# ---------------------------------------------------------------------- #
# Turing-machine invariants
# ---------------------------------------------------------------------- #


@given(st.integers(min_value=0, max_value=4), st.sampled_from(["0", "1"]))
@settings(max_examples=20, deadline=None)
def test_halting_machine_output_invariant(delay, output):
    m = halting_machine(output, delay=delay)
    result = m.run(10_000)
    assert result.halted and result.output == output
    # the execution table rows agree with the run history
    table = ExecutionTable(m)
    assert table.num_rows == result.steps + 1


@given(st.integers(min_value=1, max_value=5))
@settings(max_examples=10, deadline=None)
def test_real_table_rows_are_among_window_successors(distance):
    # Determinism inside the window: the true next row of an execution table
    # is always among the enumerated successors of the previous row.
    m = walker_machine(distance, "0")
    table = ExecutionTable(m)
    for i in range(table.num_rows - 1):
        successors = [rows for rows, _ in row_successors(m, table.row(i))]
        assert table.row(i + 1) in successors
