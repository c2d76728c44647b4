"""Neighbourhood coverage analysis — the engine of the impossibility arguments.

Both separations in the paper rest on the same local-indistinguishability
argument:

* Section 2 (``P ∉ LD*`` under (B)):  "For a large enough ``r ≫ t``, each
  ``t``-neighbourhood in ``Tr`` is already found in one of the yes-instances
  in ``Hr``.  But because ``A*`` accepts all of ``Hr``, it must also accept
  the no-instance ``Tr``."
* Section 3 (``P ∉ LD*`` under (C)):  the fragment collection ``C`` is added
  precisely so that "every ``r``-neighbourhood in ``T`` … is found already
  in some labelled fragment in ``C``", and the separation algorithm ``R``
  evaluates a candidate decider on the generated neighbourhood set
  ``B(N, t)``.

This module turns that argument into executable checks:

* :func:`neighbourhood_census` — the multiset of (Id-oblivious) neighbourhood
  types of a graph;
* :func:`coverage_report` — which nodes of a target graph have their
  neighbourhood type covered by a family of other graphs;
* :func:`build_impossibility_certificate` — package a full-coverage result
  as an :class:`~repro.decision.classes.ImpossibilityCertificate`;
* :func:`oblivious_decider_is_fooled` — the operational consequence: any
  concrete Id-oblivious decider that accepts every covering yes-instance
  necessarily accepts the covered no-instance too.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..decision.classes import ImpossibilityCertificate
from ..decision.decider import decide
from ..engine.base import EngineLike, resolve_engine
from ..errors import VerificationError
from ..graphs.labelled_graph import LabelledGraph, Node
from ..local_model.algorithm import IdObliviousAlgorithm

__all__ = [
    "neighbourhood_census",
    "neighbourhood_keys",
    "CoverageReport",
    "coverage_report",
    "build_impossibility_certificate",
    "oblivious_decider_is_fooled",
]


def neighbourhood_keys(
    graph: LabelledGraph,
    radius: int,
    centers: Optional[Iterable[Node]] = None,
    engine: EngineLike = None,
) -> Dict[Node, Tuple]:
    """Return, for every node (or every node in ``centers``), its Id-oblivious neighbourhood key.

    ``engine`` selects how views are produced; the
    :class:`~repro.engine.cached.CachedEngine` extracts all balls of the
    graph in one batched pass and caches them, which matters when the same
    graph is used both as a coverage target and as a covering instance.
    """
    views = resolve_engine(engine).views(graph, radius, ids=None, nodes=centers)
    return {v: view.oblivious_key() for v, view in views.items()}


def neighbourhood_census(graph: LabelledGraph, radius: int, engine: EngineLike = None) -> Counter:
    """Return the multiset (Counter) of Id-oblivious radius-``radius`` neighbourhood types of a graph."""
    return Counter(neighbourhood_keys(graph, radius, engine=engine).values())


@dataclass
class CoverageReport:
    """Which nodes of a target graph have neighbourhood types already present in a covering family."""

    radius: int
    target_nodes: int
    covering_graphs: int
    covered: List[Node] = field(default_factory=list)
    uncovered: List[Node] = field(default_factory=list)
    #: For covered nodes: the index of (one of) the covering graph(s) containing the type.
    witness_index: Dict[Node, int] = field(default_factory=dict)

    @property
    def fully_covered(self) -> bool:
        """``True`` when every target neighbourhood type occurs in the covering family."""
        return not self.uncovered

    @property
    def coverage_fraction(self) -> float:
        """Fraction of target nodes whose neighbourhood type is covered."""
        total = len(self.covered) + len(self.uncovered)
        return len(self.covered) / total if total else 1.0

    def summary(self) -> str:
        """One-line human-readable summary."""
        status = "FULL" if self.fully_covered else f"{self.coverage_fraction:.1%}"
        return (
            f"radius-{self.radius} coverage of {self.target_nodes} target nodes by "
            f"{self.covering_graphs} graphs: {status}"
        )


def coverage_report(
    target: LabelledGraph,
    covering: Sequence[LabelledGraph],
    radius: int,
    target_centers: Optional[Iterable[Node]] = None,
    engine: EngineLike = None,
) -> CoverageReport:
    """Check whether every radius-``radius`` neighbourhood type of ``target`` occurs in ``covering``.

    This is the mechanical form of the paper's indistinguishability step.
    ``target_centers`` restricts the check to a subset of the target's nodes
    (the paper sometimes only needs the nodes far from a boundary).
    """
    engine = resolve_engine(engine)
    covering_keys: Dict[Tuple, int] = {}
    for idx, g in enumerate(covering):
        for key in neighbourhood_keys(g, radius, engine=engine).values():
            covering_keys.setdefault(key, idx)

    target_keys = neighbourhood_keys(target, radius, centers=target_centers, engine=engine)
    report = CoverageReport(
        radius=radius,
        target_nodes=len(target_keys),
        covering_graphs=len(covering),
    )
    for node, key in target_keys.items():
        if key in covering_keys:
            report.covered.append(node)
            report.witness_index[node] = covering_keys[key]
        else:
            report.uncovered.append(node)
    return report


def build_impossibility_certificate(
    property_name: str,
    radius: int,
    fooling_instance: LabelledGraph,
    covering_yes_instances: Sequence[LabelledGraph],
    target_centers: Optional[Iterable[Node]] = None,
    notes: str = "",
    require_valid: bool = False,
    engine: EngineLike = None,
) -> ImpossibilityCertificate:
    """Build (and optionally insist on) an impossibility certificate from a coverage check."""
    report = coverage_report(fooling_instance, covering_yes_instances, radius, target_centers, engine=engine)
    cert = ImpossibilityCertificate(
        property_name=property_name,
        radius=radius,
        fooling_instance=fooling_instance,
        covering_yes_instances=list(covering_yes_instances),
        coverage_map=dict(report.witness_index),
        uncovered=list(report.uncovered),
        notes=notes,
    )
    if require_valid and not cert.valid:
        raise VerificationError(
            f"coverage check failed for {property_name!r}: {len(report.uncovered)} uncovered "
            f"neighbourhoods (e.g. {report.uncovered[:3]!r})"
        )
    return cert


def oblivious_decider_is_fooled(
    decider: IdObliviousAlgorithm,
    certificate: ImpossibilityCertificate,
    engine: EngineLike = None,
) -> bool:
    """Check the operational consequence of a valid certificate on a *concrete* Id-oblivious decider.

    Returns ``True`` when the decider is indeed fooled, i.e. it accepts every
    covering yes-instance **and** accepts the fooling no-instance.  (If the
    decider rejects some yes-instance it is simply not a correct decider for
    the property, which also confirms the separation for this candidate.)

    Raises
    ------
    VerificationError
        If the certificate is invalid (incomplete coverage), in which case no
        conclusion can be drawn, or if the decider's horizon exceeds the
        certificate's radius (the coverage statement would not apply to it).
    """
    if not certificate.valid:
        raise VerificationError("cannot apply an invalid impossibility certificate")
    if decider.radius > certificate.radius:
        raise VerificationError(
            f"decider horizon {decider.radius} exceeds certificate radius {certificate.radius}; "
            "the coverage statement does not constrain this decider"
        )
    engine = resolve_engine(engine)
    accepts_all_yes = all(decide(decider, g, engine=engine) for g in certificate.covering_yes_instances)
    if not accepts_all_yes:
        return False
    return decide(decider, certificate.fooling_instance, engine=engine)
