"""Empirical audits of model contracts (Id-obliviousness, order-invariance).

The library *structurally* enforces Id-obliviousness by stripping
identifiers from the views of :class:`~repro.local_model.algorithm.IdObliviousAlgorithm`
instances.  Sometimes, however, one wants to ask the paper's original
question of an algorithm written against the full LOCAL interface: *is its
output actually independent of the identifier assignment?*  These audits
answer that question empirically, by re-running the algorithm under many
identifier assignments drawn from a finite pool and reporting any node whose
output changes.

The same machinery audits order-invariance (the OI model of the related
work): outputs must be stable under order-preserving renamings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Sequence

from ..engine.base import EngineLike, resolve_engine
from ..graphs.identifiers import (
    IdAssignment,
    enumerate_assignments,
    order_preserving_renamings,
    sequential_assignment,
)
from ..graphs.labelled_graph import LabelledGraph, Node
from ..local_model.algorithm import LocalAlgorithm
from ..local_model.runner import run_algorithm

__all__ = ["ObliviousnessViolation", "ObliviousnessAuditReport", "audit_id_obliviousness", "audit_order_invariance"]


@dataclass
class ObliviousnessViolation:
    """A node whose output changed between two identifier assignments."""

    node: Node
    ids_a: IdAssignment
    ids_b: IdAssignment
    output_a: Hashable
    output_b: Hashable


@dataclass
class ObliviousnessAuditReport:
    """Result of auditing an algorithm's (order-)invariance under identifier renaming."""

    algorithm_name: str
    graph_nodes: int
    assignments_tested: int = 0
    violations: List[ObliviousnessViolation] = field(default_factory=list)

    @property
    def invariant(self) -> bool:
        """``True`` when no output change was observed."""
        return not self.violations

    def summary(self) -> str:
        """One-line human-readable summary."""
        status = "invariant" if self.invariant else f"{len(self.violations)} violations"
        return (
            f"{self.algorithm_name}: {status} over {self.assignments_tested} assignments "
            f"on an n={self.graph_nodes} instance"
        )


def _audit(
    algorithm: LocalAlgorithm,
    graph: LabelledGraph,
    assignments: Sequence[IdAssignment],
    stop_at_first: bool,
    engine: EngineLike = None,
) -> ObliviousnessAuditReport:
    engine = resolve_engine(engine)
    report = ObliviousnessAuditReport(algorithm_name=algorithm.name, graph_nodes=graph.num_nodes())
    if not assignments:
        return report
    baseline_ids = assignments[0]
    baseline = run_algorithm(algorithm, graph, baseline_ids, engine=engine)
    report.assignments_tested = 1
    for ids in assignments[1:]:
        report.assignments_tested += 1
        outputs = run_algorithm(algorithm, graph, ids, engine=engine)
        for v in graph.nodes():
            if outputs[v] != baseline[v]:
                report.violations.append(
                    ObliviousnessViolation(
                        node=v, ids_a=baseline_ids, ids_b=ids, output_a=baseline[v], output_b=outputs[v]
                    )
                )
                if stop_at_first:
                    return report
    return report


def audit_id_obliviousness(
    algorithm: LocalAlgorithm,
    graph: LabelledGraph,
    identifier_pool: Optional[Sequence[int]] = None,
    stop_at_first: bool = False,
    engine: EngineLike = None,
) -> ObliviousnessAuditReport:
    """Audit whether an algorithm's outputs depend on the identifier assignment.

    All injective assignments from ``identifier_pool`` (default:
    ``0 .. 2n-1``) are tried; any node whose output differs between two of
    them is reported.  Note this is a *refutation* tool: a clean audit over a
    finite pool does not prove obliviousness in general — the paper's whole
    point is that the dependence may only show up for very large
    identifiers.
    """
    pool = list(identifier_pool) if identifier_pool is not None else list(range(2 * graph.num_nodes()))
    assignments = list(enumerate_assignments(graph, pool))
    return _audit(algorithm, graph, assignments, stop_at_first, engine=engine)


def audit_order_invariance(
    algorithm: LocalAlgorithm,
    graph: LabelledGraph,
    identifier_pool: Optional[Sequence[int]] = None,
    stop_at_first: bool = False,
    engine: EngineLike = None,
) -> ObliviousnessAuditReport:
    """Audit whether outputs are stable under *order-preserving* identifier renamings (the OI model)."""
    pool = list(identifier_pool) if identifier_pool is not None else list(range(3 * graph.num_nodes()))
    base = sequential_assignment(graph)
    assignments = [base] + list(order_preserving_renamings(base, pool))
    return _audit(algorithm, graph, assignments, stop_at_first, engine=engine)
