"""Local decision classes: LD, LD*, NLD, NLD*, BPLD.

The paper works with the following classes of labelled-graph properties
(Sections 1.2, 1.3 and 3.3):

* ``LD``   — decidable by a local algorithm in the full LOCAL model;
* ``LD*``  — decidable by an *Id-oblivious* local algorithm;
* ``NLD`` / ``NLD*`` — nondeterministic local decision: some certificate
  labelling makes every node accept (and no certificate fools the verifier
  on no-instances); prior work showed ``NLD* = NLD``;
* ``BPLD`` — randomised local decision via ``(p, q)``-deciders.

Membership in these classes is an existential statement ("there *exists* an
algorithm such that ..."), which code cannot decide in general.  What code
*can* do — and what this module does — is package concrete **witnesses**:
an algorithm claimed to decide a property within a class, together with the
machinery to check the claim mechanically on finite instance families.  The
separation results of the paper then take the form:

* a :class:`ClassWitness` for ``P ∈ LD`` that verifies cleanly, and
* an :class:`ImpossibilityCertificate` for ``P ∉ LD*`` produced by the
  neighbourhood-coverage analysis (see :mod:`repro.analysis.coverage`),
  showing that *every* Id-oblivious algorithm with a given horizon fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from ..engine.base import EngineLike, resolve_engine
from ..errors import DecisionError
from ..graphs.identifiers import IdAssignment, IdentifierSpace
from ..graphs.labelled_graph import LabelledGraph, Node
from ..local_model.algorithm import IdObliviousAlgorithm, LocalAlgorithm
from .decider import VerificationReport, decide, verify_decider
from .property import InstanceFamily, Property

__all__ = [
    "DecisionClass",
    "ClassWitness",
    "ImpossibilityCertificate",
    "SeparationResult",
    "NonDeterministicDecider",
    "verify_nondeterministic_decider",
]


class DecisionClass(str, Enum):
    """The decision classes discussed in the paper."""

    LD = "LD"
    LD_STAR = "LD*"
    NLD = "NLD"
    NLD_STAR = "NLD*"
    BPLD = "BPLD"

    def __str__(self) -> str:
        return self.value


@dataclass
class ClassWitness:
    """A concrete algorithm witnessing that a property belongs to a decision class.

    Attributes
    ----------
    property_:
        The property being decided.
    decision_class:
        Which class the witness claims membership of.
    algorithm:
        The witnessing algorithm.  For ``LD*`` it must be an
        :class:`~repro.local_model.algorithm.IdObliviousAlgorithm`.
    id_space:
        The identifier space the witness is designed for (model (B) vs (¬B));
        ``None`` means the witness works for any space.
    notes:
        Free-form provenance (paper section, construction parameters).
    """

    property_: Property
    decision_class: DecisionClass
    algorithm: LocalAlgorithm
    id_space: Optional[IdentifierSpace] = None
    notes: str = ""

    def __post_init__(self) -> None:
        if self.decision_class == DecisionClass.LD_STAR and self.algorithm.uses_identifiers:
            raise DecisionError(
                "an LD* witness must be an Id-oblivious algorithm; "
                f"{self.algorithm.name!r} declares that it uses identifiers"
            )

    def verify(
        self,
        family: Optional[InstanceFamily] = None,
        samples: int = 4,
        exhaustive_pool: Optional[Sequence[int]] = None,
        seed: int = 0,
        engine: EngineLike = None,
    ) -> VerificationReport:
        """Mechanically check the witness on a family of instances."""
        return verify_decider(
            self.algorithm,
            self.property_,
            family=family,
            id_space=self.id_space,
            exhaustive_pool=exhaustive_pool,
            samples=samples,
            seed=seed,
            engine=engine,
        )


@dataclass
class ImpossibilityCertificate:
    """Evidence that *no* Id-oblivious algorithm with horizon ``radius`` decides a property.

    The certificate is the heart of both separation proofs in the paper: a
    no-instance ``fooling_instance`` every one of whose radius-``radius``
    (identifier-free) neighbourhoods already occurs in some yes-instance of
    ``covering_yes_instances``.  Any Id-oblivious ``radius``-horizon decider
    that accepts all the yes-instances must therefore output ``yes`` at every
    node of the no-instance and wrongly accept it.

    ``uncovered`` lists neighbourhood keys of the fooling instance that were
    *not* found in the yes-instances — the certificate is only valid when it
    is empty.
    """

    property_name: str
    radius: int
    fooling_instance: LabelledGraph
    covering_yes_instances: List[LabelledGraph]
    coverage_map: Dict[Node, int] = field(default_factory=dict)
    uncovered: List[Node] = field(default_factory=list)
    notes: str = ""

    @property
    def valid(self) -> bool:
        """``True`` when every neighbourhood of the fooling instance is covered."""
        return not self.uncovered

    def explain(self) -> str:
        """Return a human-readable explanation of the certificate."""
        if self.valid:
            return (
                f"Every radius-{self.radius} neighbourhood of the no-instance "
                f"(n={self.fooling_instance.num_nodes()}) already occurs in one of "
                f"{len(self.covering_yes_instances)} yes-instances of {self.property_name!r}; "
                "hence any Id-oblivious decider with this horizon that accepts the yes-instances "
                "also accepts the no-instance."
            )
        return (
            f"Certificate INVALID: {len(self.uncovered)} neighbourhoods of the fooling instance "
            f"are not covered by the yes-instances (e.g. at nodes {self.uncovered[:3]!r})."
        )


@dataclass
class SeparationResult:
    """The outcome of one cell of the paper's classification table.

    ``separated`` records whether ``LD* != LD`` holds in the given model
    combination; ``ld_witness`` and ``certificates`` carry the evidence.
    """

    bounded_ids: bool
    computable: bool
    separated: bool
    ld_witness: Optional[ClassWitness] = None
    certificates: List[ImpossibilityCertificate] = field(default_factory=list)
    notes: str = ""

    def cell_name(self) -> str:
        """Return the table-cell name, e.g. ``"(B, ¬C)"``."""
        b = "B" if self.bounded_ids else "¬B"
        c = "C" if self.computable else "¬C"
        return f"({b}, {c})"

    def verdict(self) -> str:
        """Return ``"LD* != LD"`` or ``"LD* = LD"``."""
        return "LD* != LD" if self.separated else "LD* = LD"


# ---------------------------------------------------------------------- #
# Nondeterministic local decision (NLD) — certificates
# ---------------------------------------------------------------------- #


class NonDeterministicDecider:
    """A nondeterministic local decider: a verifier plus a certificate prover.

    In NLD (Fraigniaud–Korman–Peleg) a *prover* assigns a certificate to
    every node and a local *verifier* checks it:

    * if ``(G, x)`` is a yes-instance, **some** certificate assignment makes
      every node accept;
    * if ``(G, x)`` is a no-instance, **every** certificate assignment leaves
      at least one rejecting node.

    The verifier here is an ordinary local algorithm run on the graph whose
    labels have been extended to ``(original_label, certificate)``; the
    prover is a function producing the certificate assignment for
    yes-instances.  ``certificate_space`` enumerates candidate certificates
    per node for the (exponential) soundness check on small no-instances.
    """

    def __init__(
        self,
        verifier: LocalAlgorithm,
        prover: Callable[[LabelledGraph], Mapping[Node, object]],
        certificate_space: Callable[[LabelledGraph], Sequence[object]],
        name: str = "nld-decider",
        engine: EngineLike = None,
    ) -> None:
        self.verifier = verifier
        self.prover = prover
        self.certificate_space = certificate_space
        self.name = name
        # Resolve once so a named backend keeps one cache across all checks.
        self.engine = resolve_engine(engine)

    @staticmethod
    def _attach(graph: LabelledGraph, certificates: Mapping[Node, object]) -> LabelledGraph:
        return graph.map_labels(lambda v, lab: (lab, certificates.get(v)))

    def accepts_with(self, graph: LabelledGraph, certificates: Mapping[Node, object],
                     ids: Optional[IdAssignment] = None) -> bool:
        """Run the verifier on the certified graph and apply the acceptance rule."""
        certified = self._attach(graph, certificates)
        return decide(self.verifier, certified, ids, engine=self.engine)

    def accepts_yes_instance(self, graph: LabelledGraph, ids: Optional[IdAssignment] = None) -> bool:
        """Completeness on one yes-instance: the prover's certificates convince the verifier."""
        return self.accepts_with(graph, self.prover(graph), ids)

    def rejects_no_instance(
        self,
        graph: LabelledGraph,
        ids: Optional[IdAssignment] = None,
        max_nodes_for_exhaustive: int = 8,
    ) -> bool:
        """Soundness on one (small) no-instance: no certificate assignment is accepted.

        The check enumerates all assignments from ``certificate_space``,
        which is exponential in the number of nodes; callers keep
        no-instances tiny.
        """
        import itertools

        nodes = list(graph.nodes())
        if len(nodes) > max_nodes_for_exhaustive:
            raise DecisionError(
                f"exhaustive soundness check limited to {max_nodes_for_exhaustive} nodes, "
                f"got {len(nodes)}"
            )
        space = list(self.certificate_space(graph))
        for combo in itertools.product(space, repeat=len(nodes)):
            certificates = dict(zip(nodes, combo))
            if self.accepts_with(graph, certificates, ids):
                return False
        return True


def verify_nondeterministic_decider(
    decider: NonDeterministicDecider,
    family: InstanceFamily,
    ids_factory: Optional[Callable[[LabelledGraph], IdAssignment]] = None,
    max_nodes_for_exhaustive: int = 8,
) -> VerificationReport:
    """Check completeness and (exhaustive, small-instance) soundness of an NLD decider."""
    report = VerificationReport(algorithm_name=decider.name, family_name=family.name)
    for graph in family.yes:
        report.instances_checked += 1
        ids = ids_factory(graph) if ids_factory else None
        report.assignments_checked += 1
        if not decider.accepts_yes_instance(graph, ids):
            from .decider import CounterExample

            report.counter_examples.append(
                CounterExample(graph=graph, ids=ids, expected=True, accepted=False, family=family.name)
            )
    for graph in family.no:
        if graph.num_nodes() > max_nodes_for_exhaustive:
            continue
        report.instances_checked += 1
        ids = ids_factory(graph) if ids_factory else None
        report.assignments_checked += 1
        if not decider.rejects_no_instance(graph, ids, max_nodes_for_exhaustive):
            from .decider import CounterExample

            report.counter_examples.append(
                CounterExample(graph=graph, ids=ids, expected=False, accepted=True, family=family.name)
            )
    return report
