"""Unit tests for the Turing machine substrate."""

import pytest

from repro.errors import TuringMachineError
from repro.turing import (
    BLANK,
    Cell,
    ExecutionTable,
    TuringMachine,
    binary_counter_machine,
    consistent_cell,
    halting_machine,
    looping_machine,
    machines_outputting,
    row_successors,
    standard_library,
    walker_machine,
    zigzag_machine,
)


def test_machine_validation():
    with pytest.raises(TuringMachineError):
        TuringMachine("bad", ["s"], ["0"], {}, start_state="s", halt_state="h")  # halt not in states
    with pytest.raises(TuringMachineError):
        # not total
        TuringMachine("bad", ["s", "h"], ["0"], {}, start_state="s", halt_state="h")


def test_library_machines_have_expected_outputs():
    assert halting_machine("0").run(100).outputs_zero
    assert halting_machine("1").run(100).outputs_one
    assert walker_machine(3, "0").run(100).output == "0"
    assert walker_machine(3, "1").running_time(100) == 4
    assert zigzag_machine(2, 2, "1").run(100).output == "1"
    assert not looping_machine().run(500).halted
    with pytest.raises(TuringMachineError):
        looping_machine().running_time(100)


def test_halting_machine_running_time_scales_with_delay():
    times = [halting_machine("0", delay=d).running_time(1000) for d in range(4)]
    assert times == sorted(times)
    assert times[0] == 1


def test_binary_counter_scaling():
    t2 = binary_counter_machine(2).running_time(10_000)
    t3 = binary_counter_machine(3).running_time(10_000)
    assert t3 > 2 * t2  # super-linear growth in the number of bits


def _step_by_step(machine, fuel):
    """The reference run: apply :meth:`TuringMachine.step` until halt or fuel."""
    config, steps = machine.initial_configuration(), 0
    while steps < fuel and not machine.is_halting(config):
        config = machine.step(config)
        steps += 1
    halted = machine.is_halting(config)
    return halted, steps, config.symbol_at(config.head) if halted else None, config


def _library_machines():
    return standard_library() + machines_outputting("0") + machines_outputting("1") + [
        walker_machine(7, "1"),
        zigzag_machine(3, 3, "0"),
        binary_counter_machine(2),
        binary_counter_machine(3, "1"),
    ]


@pytest.mark.parametrize("fuel", [0, 1, 2, 7, 40, 500])
def test_run_without_history_matches_step_by_step(fuel):
    for machine in _library_machines():
        fast = machine.run(fuel, keep_history=False)
        assert (fast.halted, fast.steps, fast.output, fast.final) == _step_by_step(machine, fuel)
        assert fast.history == (fast.final,)
        full = machine.run(fuel)
        assert (full.halted, full.steps, full.output, full.final) == _step_by_step(machine, fuel)


def test_encode_decode_roundtrip():
    for m in standard_library():
        again = TuringMachine.decode(m.encode())
        assert again == m
        assert again.run(50, keep_history=False).halted == m.run(50, keep_history=False).halted
    with pytest.raises(TuringMachineError):
        TuringMachine._decode_uncached("not json")


def test_execution_table_structure():
    m = halting_machine("0", delay=1)
    table = ExecutionTable(m)
    s = m.running_time(100)
    assert table.num_rows == s + 1
    assert table.width == s + 1
    # exactly one head per row, starting at column 0
    assert table.head_position(0) == 0
    for i in range(table.num_rows):
        heads = [j for j in range(table.width) if table.cell(i, j).has_head]
        assert len(heads) == 1
    # first row is blank
    assert all(table.cell(0, j).symbol == BLANK for j in range(table.width))
    # last row is halting with output 0 under the head
    last_head = table.head_position(table.num_rows - 1)
    assert table.cell(table.num_rows - 1, last_head).state == m.halt_state
    assert table.output == "0"


def test_execution_table_rejects_non_halting():
    with pytest.raises(TuringMachineError):
        ExecutionTable(looping_machine(), fuel=200)


def test_label_alphabet_bounded_by_machine_description():
    # The paper requires that cell labels are bounded by a computable
    # function of M alone — in particular a row may not carry its index.
    # The bound here: coordinates contribute at most 3 x 3 values, the cell
    # content at most |alphabet| x (|states| + 1) values.
    for m in (halting_machine("0", delay=2), walker_machine(3, "1"), zigzag_machine(2, 2, "0")):
        table = ExecutionTable(m)
        bound = 9 * len(m.alphabet) * (len(m.states) + 1)
        assert len(table.label_alphabet(1)) <= bound
        # and the labels really do not mention any row/column index beyond mod 3
        for label in table.label_alphabet(1):
            assert label[3] in (0, 1, 2) and label[4] in (0, 1, 2)


def test_grid_graph_conversion():
    table = ExecutionTable(halting_machine("0"))
    g = table.to_grid_graph(r=1)
    assert g.num_nodes() == table.num_rows * table.width
    # interior degree 4, corner degree 2
    assert g.degree(("T", 0, 0)) == 2


def test_row_successors_deterministic_when_head_inside():
    m = walker_machine(2, "0")
    table = ExecutionTable(m)
    row0 = table.row(0)
    successors = row_successors(m, row0)
    assert len(successors) == 1
    assert successors[0][0] == table.row(1)


def test_row_successors_branch_when_head_outside():
    m = halting_machine("0")
    row = (Cell("0"), Cell("1"), Cell(BLANK))
    successors = row_successors(m, row)
    # 1 (no entry) + non-halting states entering from each side
    non_halt = len([q for q in m.states if q != m.halt_state])
    assert len(successors) == 1 + 2 * non_halt
    # symbols never change when the head is absent
    assert all(tuple(c.symbol for c in nxt) == ("0", "1", BLANK) for nxt, _ in successors)


def test_consistent_cell_accepts_real_table_and_rejects_corruption():
    m = walker_machine(2, "0")
    table = ExecutionTable(m)
    # every interior cell of the real table passes the 2x3 rule
    for i in range(1, table.num_rows):
        for j in range(table.width):
            above_left = table.cell(i - 1, j - 1) if j > 0 else None
            above = table.cell(i - 1, j)
            above_right = table.cell(i - 1, j + 1) if j + 1 < table.width else None
            assert consistent_cell(
                m, above_left, above, above_right, table.cell(i, j),
                left_unknown=(j == 0), right_unknown=(j + 1 == table.width),
            )
    # corrupting a symbol breaks consistency
    bad = Cell("1", None)
    assert not consistent_cell(
        m, table.cell(0, 0), table.cell(0, 1), table.cell(0, 2), bad,
        left_unknown=False, right_unknown=False,
    )
