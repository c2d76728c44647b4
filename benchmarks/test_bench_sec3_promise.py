"""Experiment `sec3-promise`: the Section-3 promise problem R (machine-labelled cycles).

The identifier-based decider (simulate M for Id(v) steps) classifies every
instance correctly under the promise; Id-oblivious candidates with any fixed
simulation budget are defeated by machines that halt just beyond the budget.
"""

from repro.analysis import ExperimentLog
from repro.decision import decide
from repro.separation.computability import (
    BoundedBudgetObliviousDecider,
    HaltingPromiseProblem,
    IdSimulationDecider,
)
from repro.turing import halting_machine, looping_machine, walker_machine


def _promise():
    log = ExperimentLog("sec3-promise")
    problem = HaltingPromiseProblem()
    decider = IdSimulationDecider()
    halting = [halting_machine("0", delay=d) for d in (0, 2)] + [walker_machine(5, "1")]
    loops = [looping_machine()]
    correct = 0
    total = 0
    for m in loops:
        inst = problem.yes_instance(m, n=8)
        total += 1
        correct += int(decide(decider, inst, problem.instance_ids(inst)))
    for m in halting:
        inst = problem.no_instance(m)
        total += 1
        correct += int(not decide(decider, inst, problem.instance_ids(inst)))
    # Fixed-budget oblivious candidate: defeated by the slowest halting machine.
    budget = 3
    candidate = BoundedBudgetObliviousDecider(budget)
    slow = problem.no_instance(walker_machine(6, "0"))
    candidate_fooled = decide(candidate, slow)
    log.add(
        {"machines": total, "oblivious_budget": budget},
        {
            "id_decider_accuracy": f"{correct}/{total}",
            "oblivious_candidate_fooled": candidate_fooled,
        },
    )
    assert correct == total and candidate_fooled
    return log


def test_bench_sec3_promise(benchmark):
    log = benchmark.pedantic(_promise, rounds=1, iterations=1)
    print("\n" + log.to_table())
