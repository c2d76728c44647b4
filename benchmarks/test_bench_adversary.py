"""Guided vs exhaustive counterexample search on the bundled trap candidates.

Two comparisons back the subsystem's claim, one per bundled trap:

* **exhaustive-reachable rungs** — each trap instantiated at ``n = 4``,
  where lexicographic enumeration *can* land the defeating assignment
  within the budget.  Both strategies hunt the same instance; the recorded
  ``speedup_exhaustive_over_guided`` is the smaller of the two
  executions ratios.  Every count is deterministic (lexicographic order
  and seeded hill-climbing), so the record is stable across machines and
  ``benchmarks/check_regression.py --key speedup_exhaustive_over_guided``
  gates it in CI without wall-clock noise.
* **beyond-reach rungs** — the bundled campaign scenarios at their quick
  ladders, where the guided hunt still lands the defeat while exhaustive
  enumeration exhausts the same budget without finding one.

Each guided defeat is then delta-debugged; the bench asserts the minimal
witness still defeats the candidate and is locally minimal.
"""

import time

from repro.adversary import (
    LazyGuardColouringDecider,
    ParityAuditMISDecider,
    find_counterexample,
)
from repro.campaign import bundled_scenarios
from repro.decision import InstanceFamily, decide
from repro.graphs import cycle_graph
from repro.properties import MaximalIndependentSetProperty, ProperColouringProperty


#: Per-instance budget for the exhaustive-reachable comparison: enough for
#: lexicographic enumeration to reach the first defeating assignment at n=4.
_BUDGET = 8000


def _bench_traps():
    """The bundled traps at their n=4 exhaustive-reachable rung."""
    mono4 = cycle_graph(4).with_labels({i: 0 for i in range(4)})
    return {
        "adv-colour-guard": dict(
            decider=LazyGuardColouringDecider(3, guard_bound=6),
            prop=ProperColouringProperty(3),
            family=InstanceFamily("colour-guard-n4", no_instances=[mono4]),
            pool_factory=lambda g: range(3 * g.num_nodes()),
        ),
        "adv-mis-parity": dict(
            decider=ParityAuditMISDecider(),
            prop=MaximalIndependentSetProperty(),
            family=InstanceFamily("mis-parity-n4", no_instances=[mono4]),
            pool_factory=lambda g: range(3 * g.num_nodes()),
        ),
    }


def _hunt(trap, strategy, shrink=False):
    start = time.perf_counter()
    report = find_counterexample(
        trap["decider"],
        prop=trap["prop"],
        family=trap["family"],
        strategy=strategy,
        pool_factory=trap["pool_factory"],
        max_evaluations=_BUDGET,
        batch_size=16,
        seed=0,
        shrink=shrink,
    )
    return report, time.perf_counter() - start


def _hunt_quick_spec(spec, strategy):
    """Hunt one bundled search scenario at its quick rung, without shrinking."""
    workload = spec.build(spec, spec.ladder(True))
    return find_counterexample(
        workload.decider,
        prop=workload.prop,
        family=workload.family,
        strategy=strategy,
        id_space=workload.id_space,
        pool_factory=workload.pool_factory,
        max_evaluations=spec.search_budget(True),
        batch_size=spec.batch_size,
        seed=spec.seed,
        engine=spec.engine,
        shrink=False,
    )


def test_bench_guided_search_beats_exhaustive_enumeration(write_record):
    record = {}
    ratios = []
    for name, trap in _bench_traps().items():
        exhaustive, t_exhaustive = _hunt(trap, "exhaustive")
        guided, t_guided = _hunt(trap, "hill-climb", shrink=True)
        random_walk, _ = _hunt(trap, "random")

        # Both reach the same defeat (a false-accept of the no-instance)...
        assert exhaustive.found and guided.found
        assert exhaustive.counter_example.kind == guided.counter_example.kind == "false-accept"
        # ...and the guided hunt gets there in measurably fewer executions.
        ratio = exhaustive.executions / guided.executions
        assert ratio >= 2.0, (
            f"{name}: guided search took {guided.executions} executions vs "
            f"exhaustive {exhaustive.executions} (ratio {ratio:.2f} < 2.0)"
        )
        ratios.append(ratio)

        # The shrunk witness is still a defeat and is locally minimal.
        minimal = guided.minimal
        assert minimal is not None and minimal.locally_minimal
        graph, ids = minimal.counter.graph, minimal.counter.ids
        assert decide(trap["decider"], graph, ids)
        assert not trap["prop"].contains(graph)
        assert graph.num_nodes() <= guided.counter_example.graph.num_nodes()

        record[name] = {
            "n": 4,
            "budget": _BUDGET,
            "executions": {
                "exhaustive": exhaustive.executions,
                "hill_climb": guided.executions,
                "random": random_walk.executions,
            },
            "random_found": random_walk.found,
            "ratio_exhaustive_over_guided": round(ratio, 3),
            "seconds": {
                "exhaustive": round(t_exhaustive, 6),
                "hill_climb": round(t_guided, 6),
            },
            "minimal": {
                "nodes": graph.num_nodes(),
                "max_id": ids.max_identifier() if ids is not None else -1,
                "shrink_checks": minimal.checks,
                "locally_minimal": minimal.locally_minimal,
            },
        }

    # Beyond-reach rungs: the bundled quick scenarios, same budget for both
    # strategies — guided lands the defeat, exhaustive never gets there.
    beyond = {}
    for spec in bundled_scenarios():
        if spec.kind != "search":
            continue
        guided = _hunt_quick_spec(spec, spec.strategy)
        exhaustive = _hunt_quick_spec(spec, "exhaustive")
        assert guided.found, f"{spec.name}: guided hunt must defeat the trap"
        assert not exhaustive.found, f"{spec.name}: quick rung should exceed exhaustive reach"
        assert guided.executions < exhaustive.executions
        beyond[spec.name] = {
            "sizes": list(spec.ladder(True)),
            "budget": spec.search_budget(True),
            "guided_executions": guided.executions,
            "exhaustive_executions": exhaustive.executions,
            "exhaustive_found": exhaustive.found,
        }

    payload = {
        "workload": "counterexample hunts on the bundled trap candidates",
        "strategy_comparison": record,
        "beyond_exhaustive_reach": beyond,
        # Deterministic headline (execution counts, not wall-clock): the
        # worse of the two per-trap ratios, gated by check_regression.py.
        "speedup_exhaustive_over_guided": round(min(ratios), 3),
        "recorded_at_unix": int(time.time()),
    }
    write_record("adversary", payload)
