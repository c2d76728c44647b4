"""Running local algorithms as deciders and verifying them exhaustively.

The acceptance semantics of local decision (Section 1.2):

* if ``(G, x)`` has the property, **every** node must output ``yes``;
* if ``(G, x)`` does not, **at least one** node must output ``no``.

:func:`decide` applies that rule to one input; :func:`verify_decider` checks
a decider against a whole :class:`~repro.decision.property.InstanceFamily`
under *every* identifier assignment drawn from a finite pool (or a sample of
random assignments) — this is the mechanical replacement for the paper's
"for every Id" quantifier, and it is how the test-suite and benchmarks
establish that the LD deciders of Sections 2 and 3 are correct and that
candidate Id-oblivious deciders are not.  Every place that turns a job's
outputs into a verdict — :func:`decide`, :func:`verify_decider`, the
adversary's hunts and the Monte-Carlo acceptance estimate — applies the
one rule ``_judge``.

The whole ``(instance × assignment)`` grid is submitted through one
``engine.run_many`` call per sweep, so whichever backend is selected sees
the full batch at once — the default :class:`~repro.engine.direct.DirectEngine`
then serves every assignment of a graph from one interned ball
collection (:mod:`repro.engine.interned`), and parallel/persistent
backends shard or replay the same batch with identical verdicts.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..engine.base import EngineLike, resolve_engine, store_counters, store_job_split
from ..errors import DecisionError
from ..graphs.identifiers import (
    IdAssignment,
    IdentifierSpace,
    UnboundedIdentifierSpace,
    enumerate_assignments,
    sequential_assignment,
)
from ..graphs.labelled_graph import LabelledGraph, Node
from ..local_model.algorithm import LocalAlgorithm
from ..local_model.outputs import NO, Verdict
from ..local_model.runner import run_algorithm
from .property import InstanceFamily, Property

__all__ = [
    "DecisionOutcome",
    "decide",
    "decide_outcome",
    "VerificationReport",
    "CounterExample",
    "verify_decider",
    "assignments_for",
]


@dataclass
class DecisionOutcome:
    """The result of running a decider on one input ``(G, x, Id)``."""

    accepted: bool
    outputs: Dict[Node, Verdict]
    rejecting_nodes: Tuple[Node, ...]

    def __bool__(self) -> bool:
        return self.accepted


def _judge(
    outputs: Dict[Node, Hashable],
    expected: Optional[bool] = None,
    graph: Optional[LabelledGraph] = None,
    ids: Optional[IdAssignment] = None,
    family: str = "",
) -> Tuple[DecisionOutcome, Optional[CounterExample]]:
    """The one rule turning a job's outputs into a verdict.

    Returns the :class:`DecisionOutcome` (raising :class:`DecisionError`
    on a non-verdict output) and, when ``expected`` is given and the
    global answer disagrees with it, the :class:`CounterExample` citing
    ``(graph, ids)``.
    """
    # One type test for the whole job; the per-node loop only names the offender.
    if not set(map(type, outputs.values())) <= {Verdict}:
        for v, out in outputs.items():
            if not isinstance(out, Verdict):
                raise DecisionError(
                    f"decider returned {out!r} at node {v!r}; decision algorithms must return YES or NO"
                )
    clean = dict(outputs)
    # Verdict members are singletons, so ``is NO`` is ``== NO`` at C speed.
    rejecting = tuple(itertools.compress(clean, map(operator.is_, clean.values(), itertools.repeat(NO))))
    outcome = DecisionOutcome(accepted=not rejecting, outputs=clean, rejecting_nodes=rejecting)
    if expected is None or outcome.accepted == expected:
        return outcome, None
    counter = CounterExample(
        graph=graph,
        ids=ids,
        expected=expected,
        accepted=outcome.accepted,
        family=family,
        rejecting_nodes=rejecting,
    )
    return outcome, counter


def decide_outcome(
    algorithm: LocalAlgorithm,
    graph: LabelledGraph,
    ids: Optional[IdAssignment] = None,
    engine: EngineLike = None,
) -> DecisionOutcome:
    """Run a decision algorithm on one input and return the detailed outcome."""
    return _judge(run_algorithm(algorithm, graph, ids, engine=engine))[0]


def decide(
    algorithm: LocalAlgorithm,
    graph: LabelledGraph,
    ids: Optional[IdAssignment] = None,
    engine: EngineLike = None,
) -> bool:
    """Return ``True`` when the decider accepts the input (every node outputs ``yes``)."""
    return decide_outcome(algorithm, graph, ids, engine=engine).accepted


# ---------------------------------------------------------------------- #
# Exhaustive / sampled verification over identifier assignments
# ---------------------------------------------------------------------- #


@dataclass
class CounterExample:
    """A single observed failure of a decider.

    Beyond the failing ``(graph, ids)`` pair, the counter-example records
    which nodes rejected, so reports can cite the concrete assignment (and
    local outputs) that witnesses the failure instead of only a boolean.
    """

    graph: LabelledGraph
    ids: Optional[IdAssignment]
    expected: bool
    accepted: bool
    family: str = ""
    rejecting_nodes: Tuple[Node, ...] = ()

    @property
    def kind(self) -> str:
        """``"false-reject"`` or ``"false-accept"``."""
        return "false-reject" if self.expected else "false-accept"

    def describe(self) -> str:
        """Human-readable one-liner citing the witnessing identifier assignment."""
        ids = "no ids" if self.ids is None else repr(self.ids)
        rejecting = (
            f", rejecting nodes {list(self.rejecting_nodes)[:4]!r}" if self.rejecting_nodes else ""
        )
        return f"{self.kind} on n={self.graph.num_nodes()} ({self.family}) under {ids}{rejecting}"

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready record of the failure, assignment included."""
        return {
            "kind": self.kind,
            "family": self.family,
            "num_nodes": self.graph.num_nodes(),
            "expected": self.expected,
            "accepted": self.accepted,
            "assignment": None if self.ids is None else {str(v): i for v, i in self.ids.items()},
            "rejecting_nodes": [str(v) for v in self.rejecting_nodes],
        }

    def __repr__(self) -> str:
        return f"CounterExample({self.kind}, n={self.graph.num_nodes()}, family={self.family!r})"


@dataclass
class VerificationReport:
    """Aggregate result of verifying a decider on an instance family.

    ``jobs_computed`` / ``jobs_replayed`` split the sweep's jobs between
    fresh evaluation and replay from a cross-run verdict store (see
    :class:`~repro.engine.persistent.PersistentEngine`); without a store
    every job counts as computed.
    """

    algorithm_name: str
    family_name: str
    instances_checked: int = 0
    assignments_checked: int = 0
    jobs_computed: int = 0
    jobs_replayed: int = 0
    counter_examples: List[CounterExample] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        """``True`` when no counter-example was found."""
        return not self.counter_examples

    @property
    def first_counterexample(self) -> Optional[CounterExample]:
        """The first observed failure (with its identifier assignment), or ``None``."""
        return self.counter_examples[0] if self.counter_examples else None

    def summary(self) -> str:
        """One-line human-readable summary, citing the first counter-example on failure."""
        status = "OK" if self.correct else f"FAILED ({len(self.counter_examples)} counter-examples)"
        line = (
            f"{self.algorithm_name} on {self.family_name}: {status} "
            f"[{self.instances_checked} instances x {self.assignments_checked} id-assignments]"
        )
        if self.jobs_replayed:
            line += f" ({self.jobs_replayed} replayed / {self.jobs_computed} computed)"
        if not self.correct:
            line += f"; first: {self.first_counterexample.describe()}"
        return line

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready summary (used by campaign reports)."""
        first = self.first_counterexample
        return {
            "algorithm": self.algorithm_name,
            "family": self.family_name,
            "instances_checked": self.instances_checked,
            "assignments_checked": self.assignments_checked,
            "jobs_computed": self.jobs_computed,
            "jobs_replayed": self.jobs_replayed,
            "correct": self.correct,
            "counter_examples": len(self.counter_examples),
            "first_counterexample": None if first is None else first.as_dict(),
            # Shrunk witnesses belong to find_counterexample's SearchReport;
            # the key stays so recorded verify details keep their shape.
            "first_minimal": None,
        }


def assignments_for(
    graph: LabelledGraph,
    id_space: Optional[IdentifierSpace] = None,
    exhaustive_pool: Optional[Sequence[int]] = None,
    samples: int = 4,
    seed: int = 0,
    include_adversarial: bool = True,
) -> List[IdAssignment]:
    """Produce the identifier assignments under which an input should be tested.

    Three sources are combined:

    * the canonical assignment ``0..n-1``;
    * every injective assignment from ``exhaustive_pool`` when that pool is
      given and small (this realises the paper's "for every Id" exactly on a
      finite universe);
    * otherwise ``samples`` random legal assignments from ``id_space`` (which
      defaults to the unbounded space), plus — for bounded spaces — the
      adversarial assignment using the largest legal identifiers, because the
      paper's LD deciders rely precisely on large identifiers showing up.
    """
    id_space = id_space or UnboundedIdentifierSpace()
    out: List[IdAssignment] = [sequential_assignment(graph)]
    if exhaustive_pool is not None:
        out.extend(enumerate_assignments(graph, exhaustive_pool))
    else:
        rng = random.Random(seed)
        for _ in range(samples):
            out.append(id_space.random(graph, rng))
        adversarial = getattr(id_space, "adversarial", None)
        if include_adversarial and callable(adversarial):
            out.append(adversarial(graph))
    # De-duplicate while keeping order.  Every assignment above covers
    # exactly the graph's nodes, so two are equal iff their identifiers,
    # read in graph.nodes() order, are equal: that tuple is the dedup key.
    nodes = graph.nodes()
    unique: List[IdAssignment] = []
    seen = set()
    for a in out:
        key = a.identifiers(nodes)
        if key not in seen:
            seen.add(key)
            unique.append(a)
    return unique


def verify_decider(
    algorithm: LocalAlgorithm,
    prop: Property,
    family: Optional[InstanceFamily] = None,
    id_space: Optional[IdentifierSpace] = None,
    exhaustive_pool: Optional[Sequence[int]] = None,
    samples: int = 4,
    seed: int = 0,
    assignments_factory: Optional[Callable[[LabelledGraph], Sequence[IdAssignment]]] = None,
    engine: EngineLike = None,
) -> VerificationReport:
    """Verify a decider against ground truth on a family of instances.

    For every instance in the family (or in the property's own generators
    when ``family`` is ``None``) and every identifier assignment produced
    by :func:`assignments_for` — or by ``assignments_factory`` when a
    problem needs a bespoke legal-assignment convention, e.g. the 1-based
    identifiers of the Section-2/3 promise problems — the decider is run
    and its global accept/reject compared with the property's membership
    answer.  Every failure is recorded as a :class:`CounterExample`
    carrying the witnessing assignment (see
    :attr:`VerificationReport.first_counterexample`).

    ``engine`` selects the execution backend for the whole sweep.  The
    sweep's ``(graph, assignment)`` grid is submitted through one call of
    the engine's batched :meth:`~repro.engine.base.ExecutionEngine.run_many`
    driver: the :class:`~repro.engine.cached.CachedEngine` answers repeats
    from its memo stores, and the :class:`~repro.engine.parallel.ParallelEngine`
    shards the grid across its worker pool.  An engine wrapped in a
    cross-run verdict store (``engine.with_store(path)``) replays
    already-settled jobs from disk and only fans out the misses; the
    report's ``jobs_replayed`` / ``jobs_computed`` fields record that split.

    Hunting for *one* defeating assignment, rather than checking every
    assignment of a fixed pool, is
    :func:`~repro.adversary.search.find_counterexample`'s job.
    """
    family = InstanceFamily.from_property(prop) if family is None else family
    engine = resolve_engine(engine)
    report = VerificationReport(algorithm_name=algorithm.name, family_name=family.name)
    # Snapshot the engine's store counters so the report can attribute this
    # sweep's jobs to replay vs fresh computation (zero/zero for storeless
    # engines, in which case every checked assignment counts as computed).
    before = store_counters(engine)
    jobs: List[Tuple[LabelledGraph, IdAssignment]] = []
    expected: List[bool] = []
    for graph, member in family.labelled_instances():
        if assignments_factory is not None:
            assignments = list(assignments_factory(graph))
        else:
            assignments = assignments_for(
                graph, id_space=id_space, exhaustive_pool=exhaustive_pool, samples=samples, seed=seed
            )
        report.instances_checked += 1
        jobs.extend((graph, ids) for ids in assignments)
        expected.extend([member] * len(assignments))
    # One batch over the whole (instance x assignment) grid: maximal fan-out
    # for sharding backends, identical verdict order for serial ones.
    for (graph, ids), member, outputs in zip(jobs, expected, engine.run_many(algorithm, jobs)):
        counter = _judge(outputs, member, graph, ids, family.name)[1]
        if counter is not None:
            report.counter_examples.append(counter)
    report.assignments_checked = len(jobs)
    report.jobs_replayed, report.jobs_computed = store_job_split(engine, before, len(jobs))
    return report
