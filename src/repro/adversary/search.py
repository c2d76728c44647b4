"""The counterexample-search driver: propose, batch-evaluate, observe, shrink.

:func:`find_counterexample` turns "find the Id that defeats this candidate"
into a budgeted, batched workload on the existing execution seams: each
strategy batch is submitted through
:meth:`~repro.engine.base.ExecutionEngine.run_many`, so a
:class:`~repro.engine.parallel.ParallelEngine` shards candidate evaluation
across its pool and an engine wrapped in a
:class:`~repro.engine.persistent.VerdictStore` replays already-settled
probes across resumed hunts (the report's ``jobs_replayed`` /
``jobs_computed`` record the split, exactly as in
:func:`~repro.decision.decider.verify_decider`).

Instances are hunted no-instances first (false-accepts are what the
paper's candidates are defeated by) and the hunt stops at the first defeat,
which is then delta-debugged to a locally-minimal witness by
:mod:`repro.adversary.shrink`.  This is the code's one "exhibit an Id"
loop; the "for every Id" quantifier is
:func:`~repro.decision.decider.verify_decider`'s fixed sweep, and both
turn outputs into verdicts through the same decision rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..decision.decider import CounterExample, DecisionOutcome, _judge
from ..decision.property import InstanceFamily, Property
from ..engine.base import EngineLike, resolve_engine, store_counters, store_job_split
from ..graphs.identifiers import IdAssignment, IdentifierSpace
from ..graphs.labelled_graph import LabelledGraph
from ..obs import trace
from .shrink import MinimalCounterExample, shrink_counterexample
from .strategies import StrategyLike, resolve_strategy

__all__ = [
    "InstanceHunt",
    "SearchReport",
    "default_pool",
    "hunt_instance",
    "find_counterexample",
]

#: Builds the identifier pool one instance is hunted over.
PoolFactory = Callable[[LabelledGraph], Sequence[int]]

#: Membership checks a found counter-example's shrink may spend.
SHRINK_BUDGET = 512


def default_pool(graph: LabelledGraph, id_space: Optional[IdentifierSpace] = None) -> List[int]:
    """The identifier pool hunted by default: the full bounded universe, or ``{0..2n-1}``.

    A bounded space's pool is its whole legal universe ``{0..f(n)-1}``;
    the unbounded space is approximated by twice the node count, matching
    :func:`~repro.graphs.identifiers.random_assignment`'s default.
    """
    n = graph.num_nodes()
    bound = id_space.bound_for(n) if id_space is not None else None
    return list(range(bound if bound is not None else max(2 * n, 1)))


@dataclass
class InstanceHunt:
    """Outcome of hunting one instance: executions spent and the defeat, if any."""

    expected: bool
    executions: int = 0
    batches: int = 0
    exhausted: bool = False
    best_score: float = 0.0
    counter_example: Optional[CounterExample] = None

    @property
    def found(self) -> bool:
        return self.counter_example is not None

    def as_dict(self) -> Dict[str, object]:
        return {
            "expected": self.expected,
            "executions": self.executions,
            "batches": self.batches,
            "exhausted": self.exhausted,
            "best_score": round(self.best_score, 6),
            "found": self.found,
        }


@dataclass
class SearchReport:
    """Aggregate outcome of a counterexample hunt over an instance family.

    ``executions`` counts decider runs up to and including the defeat
    (shrink probes are tallied separately inside ``minimal``);
    ``jobs_replayed`` / ``jobs_computed`` split the engine-side work
    between verdict-store replay and fresh computation, as in
    :class:`~repro.decision.decider.VerificationReport` — they cover whole
    proposed batches, so their sum can exceed ``executions``.
    """

    algorithm_name: str
    family_name: str
    strategy: str
    max_evaluations: int
    batch_size: int
    seed: int
    instances_tried: int = 0
    executions: int = 0
    batches: int = 0
    jobs_computed: int = 0
    jobs_replayed: int = 0
    counter_example: Optional[CounterExample] = None
    minimal: Optional[MinimalCounterExample] = None
    hunts: List[InstanceHunt] = field(default_factory=list)

    @property
    def found(self) -> bool:
        """``True`` when some instance yielded a defeating assignment."""
        return self.counter_example is not None

    def summary(self) -> str:
        """One-line human-readable summary citing the minimal witness when found."""
        head = (
            f"{self.strategy} search of {self.algorithm_name} on {self.family_name}: "
            f"{'DEFEATED' if self.found else 'no counterexample'} "
            f"[{self.executions} executions / {self.instances_tried} instances, "
            f"budget {self.max_evaluations}]"
        )
        if self.minimal is not None:
            head += f"; {self.minimal.describe()}"
        elif self.found:
            head += f"; {self.counter_example.describe()}"
        return head

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready record (used by campaign results and the CLI)."""
        return {
            "algorithm": self.algorithm_name,
            "family": self.family_name,
            "strategy": self.strategy,
            "max_evaluations": self.max_evaluations,
            "batch_size": self.batch_size,
            "seed": self.seed,
            "found": self.found,
            "instances_tried": self.instances_tried,
            "executions": self.executions,
            "batches": self.batches,
            "jobs_computed": self.jobs_computed,
            "jobs_replayed": self.jobs_replayed,
            "counterexample": None if self.counter_example is None else self.counter_example.as_dict(),
            "minimal": None if self.minimal is None else self.minimal.as_dict(),
            "hunts": [hunt.as_dict() for hunt in self.hunts],
        }


# ---------------------------------------------------------------------- #
# Per-instance hunt
# ---------------------------------------------------------------------- #


def _score(outcome: DecisionOutcome, expected: bool, n: int) -> float:
    """Defeat-ward fraction: the share of the ``n`` nodes already outputting
    the verdict that would flip the global answer against ``expected``."""
    rejecting = len(outcome.rejecting_nodes) / n if n else 0.0
    return rejecting if expected else 1.0 - rejecting


def hunt_instance(
    decider,
    graph: LabelledGraph,
    expected: bool,
    strategy: StrategyLike,
    pool: Sequence[int],
    seed: int = 0,
    max_evaluations: int = 256,
    batch_size: int = 16,
    engine: EngineLike = None,
    family_name: str = "",
) -> InstanceHunt:
    """Hunt one instance for a defeating assignment under a fixed budget.

    The strategy proposes candidate batches, the engine evaluates each
    batch through :meth:`~repro.engine.base.ExecutionEngine.run_many`, and
    the scored batch (fraction of nodes outputting the defeat-ward verdict)
    is fed back to the strategy.  Executions count evaluated jobs up to and
    including the defeat, so strategy comparisons are apples-to-apples.

    Id-oblivious deciders cannot be defeated *by an assignment*: for them a
    single canonical evaluation settles the instance.  Both paths score an
    evaluation the same way, and a defeat sets ``best_score`` to 1.0.
    """
    engine = resolve_engine(engine)
    hunt = InstanceHunt(expected=expected)
    n = graph.num_nodes()

    def _judged(ids: Optional[IdAssignment], outputs) -> float:
        """Judge one job's outputs and return its score."""
        hunt.executions += 1
        outcome, hunt.counter_example = _judge(outputs, expected, graph, ids, family_name)
        score = 1.0 if hunt.found else _score(outcome, expected, n)
        hunt.best_score = max(hunt.best_score, score)
        return score

    if not getattr(decider, "uses_identifiers", True):
        # Every assignment is equivalent; one evaluation settles it.
        hunt.batches, hunt.exhausted = 1, True
        _judged(None, engine.run(decider, graph, None))
        return hunt
    walker = resolve_strategy(strategy, graph, pool, seed)
    while hunt.executions < max_evaluations:
        batch = walker.propose(min(batch_size, max_evaluations - hunt.executions))
        if not batch:
            hunt.exhausted = True
            break
        hunt.batches += 1
        with trace.span("adversary.batch", batch=hunt.batches, size=len(batch)) as sp:
            outputs_list = engine.run_many(decider, [(graph, ids) for ids in batch])
            scored: List[Tuple[IdAssignment, float]] = []
            for ids, outputs in zip(batch, outputs_list):
                score = _judged(ids, outputs)
                if hunt.found:
                    sp.add(defeated=True)
                    return hunt
                scored.append((ids, score))
            sp.add(best_score=hunt.best_score)
        walker.observe(scored)
    return hunt


# ---------------------------------------------------------------------- #
# Family-level driver
# ---------------------------------------------------------------------- #


def find_counterexample(
    decider,
    prop: Optional[Property] = None,
    family: Optional[InstanceFamily] = None,
    strategy: StrategyLike = "hill-climb",
    id_space: Optional[IdentifierSpace] = None,
    pool_factory: Optional[PoolFactory] = None,
    max_evaluations: int = 256,
    batch_size: int = 16,
    seed: int = 0,
    engine: EngineLike = None,
    shrink: bool = True,
) -> SearchReport:
    """Hunt an instance family for an assignment defeating the decider.

    Instances are tried no-instances first (the candidates' defeats are
    false-accepts), each with its own ``max_evaluations`` budget, and the
    hunt stops at the first defeat; with ``shrink`` (the default) the found
    counter-example is delta-debugged to a locally-minimal witness (ground
    truth recomputed via ``prop``, at most :data:`SHRINK_BUDGET` checks)
    before the report is returned.  ``pool_factory`` overrides the
    identifier pool per instance — e.g. the promise problems' 1-based
    convention — and defaults to :func:`default_pool` over ``id_space``.
    """
    if family is None:
        if prop is None:
            raise ValueError("find_counterexample needs a property or an instance family")
        family = InstanceFamily.from_property(prop)
    engine = resolve_engine(engine)
    hunts: List[InstanceHunt] = []
    before = store_counters(engine)
    # A stable sort on membership: no-instances first, each kind in family order.
    for graph, expected in sorted(family.labelled_instances(), key=lambda pair: pair[1]):
        pool = list(pool_factory(graph)) if pool_factory is not None else default_pool(graph, id_space)
        hunt = hunt_instance(
            decider,
            graph,
            expected,
            strategy=strategy,
            pool=pool,
            seed=seed,
            max_evaluations=max_evaluations,
            batch_size=batch_size,
            engine=engine,
            family_name=family.name,
        )
        hunts.append(hunt)
        if hunt.found:
            break
    executions = sum(hunt.executions for hunt in hunts)
    # Attribute the hunts' jobs before shrinking, whose probes run through
    # the same engine but are tallied inside the minimal witness instead.
    replayed, computed = store_job_split(engine, before, executions)
    counter = hunts[-1].counter_example if hunts else None
    minimal = None
    if shrink and counter is not None:
        minimal = shrink_counterexample(
            decider, counter, prop=prop, id_space=id_space, engine=engine, max_checks=SHRINK_BUDGET
        )
    return SearchReport(
        algorithm_name=getattr(decider, "name", type(decider).__name__),
        family_name=family.name,
        strategy=strategy if isinstance(strategy, str) else getattr(strategy, "name", "custom"),
        max_evaluations=max_evaluations,
        batch_size=batch_size,
        seed=seed,
        instances_tried=len(hunts),
        executions=executions,
        batches=sum(hunt.batches for hunt in hunts),
        jobs_computed=computed,
        jobs_replayed=replayed,
        counter_example=counter,
        minimal=minimal,
        hunts=hunts,
    )
