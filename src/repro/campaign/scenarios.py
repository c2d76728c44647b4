"""Bundled campaign scenarios drawn from the paper's Sections 2 and 3.

Each scenario is one cell of the validation grid: a graph family, a size
ladder, a property, a decider class and an engine.  The bundle covers both
sides of the paper's separations — deciders that must verify cleanly
(``expect_correct=True``) and candidate deciders whose *failure* is the
claim, with the defeating counter-example assignment cited in the report
(``expect_correct=False``).  The failures come in two flavours: the
Id-oblivious budget candidate is wrong under *every* assignment (a
``verify`` scenario), while the :mod:`repro.adversary` trap candidates are
wrong only in an exponentially small corner of the assignment space, so
their defeat must be *hunted* (``search`` scenarios at ladder sizes beyond
exhaustive reach).

The promise problems of Sections 2 and 3 use the paper's 1-based
identifier convention ("some node holds an identifier at least ``n``"), so
their scenarios install a bespoke ``assignments_factory`` generating
1-based injective assignments instead of the default
:func:`~repro.decision.decider.assignments_for` pool.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Sequence, Tuple

from ..adversary.candidates import LazyGuardColouringDecider, ParityAuditMISDecider
from ..decision.property import FunctionProperty, InstanceFamily
from ..graphs.generators import cycle_graph, path_graph
from ..graphs.identifiers import BoundedIdentifierSpace, IdAssignment, sequential_assignment
from ..graphs.labelled_graph import LabelledGraph
from ..local_model.algorithm import FunctionIdObliviousAlgorithm
from ..local_model.outputs import NO, YES
from ..properties.colouring import ProperColouringDecider, ProperColouringProperty, greedy_colouring
from ..properties.independent_set import (
    MaximalIndependentSetDecider,
    MaximalIndependentSetProperty,
    OUT_SET,
    greedy_mis,
)
from ..properties.matching import MaximalMatchingDecider, MaximalMatchingProperty, greedy_matching
from ..separation.bounded_ids import (
    BoundedIdsLDDecider,
    CyclePromiseProblem,
    IdThresholdCycleDecider,
    SmallInstancesProperty,
    SmallOrLargeProperty,
    StructureVerifier,
    section2_family,
    small_bound,
)
from ..separation.computability import (
    BoundedBudgetObliviousDecider,
    HaltingPromiseProblem,
    IdSimulationDecider,
    RandomisedObliviousDecider,
    build_execution_graph,
)
from ..turing.library import halting_machine, looping_machine
from .spec import ScenarioSpec, ScenarioWorkload

__all__ = [
    "bundled_scenarios",
    "get_scenario",
    "scenario_names",
]


def one_based_assignments(
    samples: int, seed: int = 0
) -> Callable[[LabelledGraph], Sequence[IdAssignment]]:
    """Assignment factory for the promise problems' positive-identifier convention.

    Produces the canonical 1-based sequential assignment plus ``samples - 1``
    random injective draws from ``{1, ..., 2n}``.  Any such assignment has a
    maximum identifier of at least ``n``, which is exactly what the LD
    deciders of the Section-2/3 promise problems rely on.
    """

    def factory(graph: LabelledGraph) -> List[IdAssignment]:
        nodes = list(graph.nodes())
        n = len(nodes)
        out = [sequential_assignment(graph, start=1)]
        rng = random.Random((seed << 16) ^ n)
        for _ in range(max(0, samples - 1)):
            out.append(IdAssignment(dict(zip(nodes, rng.sample(range(1, 2 * n + 1), n)))))
        return out

    return factory


# ---------------------------------------------------------------------- #
# Section 2 — bounded identifiers
# ---------------------------------------------------------------------- #


def _build_sec2_promise(spec: ScenarioSpec, sizes: Tuple[int, ...]) -> ScenarioWorkload:
    problem = CyclePromiseProblem()
    return ScenarioWorkload(
        family=problem.family(r_values=sizes),
        decider=IdThresholdCycleDecider(),
        prop=problem,
        assignments_factory=one_based_assignments(spec.samples, seed=spec.seed),
    )


def _build_sec2_property_p(spec: ScenarioSpec, sizes: Tuple[int, ...]) -> ScenarioWorkload:
    (depth,) = sizes
    return ScenarioWorkload(
        family=section2_family(r=2, tree_depth=depth, bound_fn=small_bound),
        decider=BoundedIdsLDDecider(bound_fn=small_bound, tree_depth=depth),
        prop=SmallInstancesProperty(bound_fn=small_bound, tree_depth=depth),
        id_space=BoundedIdentifierSpace(small_bound),
    )


def _build_sec2_structure(spec: ScenarioSpec, sizes: Tuple[int, ...]) -> ScenarioWorkload:
    (depth,) = sizes
    base = section2_family(r=2, tree_depth=depth, bound_fn=small_bound)
    # P' additionally contains the full layered tree (base.no[0]); the
    # corrupted instances (pivot-less slab, too-shallow tree) stay out.
    family = InstanceFamily(
        name=f"sec2-p-prime(r=2, depth={depth})",
        yes_instances=list(base.yes) + [base.no[0]],
        no_instances=list(base.no[1:]),
        description="small instances and the large tree (yes); corrupted variants (no)",
    )
    return ScenarioWorkload(
        family=family,
        decider=StructureVerifier(bound_fn=small_bound, tree_depth=depth),
        prop=SmallOrLargeProperty(bound_fn=small_bound, tree_depth=depth),
    )


# ---------------------------------------------------------------------- #
# Section 3 — computability
# ---------------------------------------------------------------------- #


def _build_sec3_promise(spec: ScenarioSpec, sizes: Tuple[int, ...]) -> ScenarioWorkload:
    problem = HaltingPromiseProblem()
    loop = looping_machine()
    halting = [halting_machine("0", delay=1), halting_machine("1", delay=3)]
    family = InstanceFamily(
        name=problem.name,
        yes_instances=[problem.yes_instance(loop, n) for n in sizes],
        no_instances=[problem.no_instance(m) for m in halting],
        description=f"looping cycles at n in {sizes}; halting machines at their minimal promise sizes",
    )
    return ScenarioWorkload(
        family=family,
        decider=IdSimulationDecider(),
        prop=problem,
        assignments_factory=one_based_assignments(spec.samples, seed=spec.seed),
    )


def _build_sec3_oblivious_budget(spec: ScenarioSpec, sizes: Tuple[int, ...]) -> ScenarioWorkload:
    problem = HaltingPromiseProblem()
    loop = looping_machine()
    # The machine halts well after the candidate's fixed simulation budget,
    # while its cycle still respects the promise — the candidate must
    # false-accept, which is the LD* impossibility made concrete.
    late = halting_machine("1", delay=6)
    family = InstanceFamily(
        name=f"{problem.name}-oblivious-candidate",
        yes_instances=[problem.yes_instance(loop, n) for n in sizes],
        no_instances=[problem.no_instance(late)],
        description="a fixed-budget Id-oblivious candidate is defeated by a late-halting machine",
    )
    return ScenarioWorkload(
        family=family,
        decider=BoundedBudgetObliviousDecider(budget=2),
        prop=problem,
        assignments_factory=one_based_assignments(spec.samples, seed=spec.seed),
    )


def _build_cor1_randomised(spec: ScenarioSpec, sizes: Tuple[int, ...]) -> ScenarioWorkload:
    decider = RandomisedObliviousDecider(check_structure=False)
    yes = [build_execution_graph(halting_machine("0", delay=d), r=1, fragment_side=2).graph for d in sizes]
    no = [build_execution_graph(halting_machine("1", delay=d), r=1, fragment_side=2).graph for d in sizes]
    family = InstanceFamily(
        name="cor1-execution-graphs",
        yes_instances=yes,
        no_instances=no,
        description=f"G(M, 1) for machines outputting 0 (yes) / 1 (no), delays {sizes}",
    )
    return ScenarioWorkload(
        family=family,
        decider=decider,
        target_p=1.0,
        target_q=0.5,
    )


# ---------------------------------------------------------------------- #
# Classic properties
# ---------------------------------------------------------------------- #


def _uniform_cycle_verdict(view):
    if view.center_degree() != 2:
        return NO
    if any(view.label_of(v) != "x" for v in view.nodes()):
        return NO
    return YES


def _build_cycles_vs_paths(spec: ScenarioSpec, sizes: Tuple[int, ...]) -> ScenarioWorkload:
    prop = FunctionProperty(
        lambda g: g.num_nodes() >= 3 and all(g.degree(v) == 2 for v in g.nodes()),
        name="uniform-cycle",
    )
    family = InstanceFamily(
        name=f"cycles-vs-paths(n in {sizes})",
        yes_instances=[cycle_graph(n, label="x") for n in sizes],
        no_instances=[path_graph(n, label="x") for n in sizes],
        description="uniformly labelled cycles (yes) and paths (no)",
    )
    decider = FunctionIdObliviousAlgorithm(_uniform_cycle_verdict, radius=1, name="cycle-decider")
    return ScenarioWorkload(family=family, decider=decider, prop=prop)


def _build_colouring(spec: ScenarioSpec, sizes: Tuple[int, ...]) -> ScenarioWorkload:
    prop = ProperColouringProperty(3)
    base = InstanceFamily.from_property(prop)
    yes = list(base.yes) + [greedy_colouring(cycle_graph(n)) for n in sizes]
    no = list(base.no) + [cycle_graph(n).with_labels({i: 0 for i in range(n)}) for n in sizes]
    family = InstanceFamily(
        name=f"proper-3-colouring(n in {sizes})",
        yes_instances=yes,
        no_instances=no,
        description="properly coloured cycles/paths (yes); monochromatic and odd-2-coloured (no)",
    )
    return ScenarioWorkload(family=family, decider=ProperColouringDecider(3), prop=prop)


def _build_matching(spec: ScenarioSpec, sizes: Tuple[int, ...]) -> ScenarioWorkload:
    prop = MaximalMatchingProperty()
    base = InstanceFamily.from_property(prop)
    yes = list(base.yes) + [greedy_matching(cycle_graph(n)) for n in sizes]
    # All-unmatched cycles: every edge violates maximality.
    no = list(base.no) + [cycle_graph(n) for n in sizes]
    family = InstanceFamily(
        name=f"maximal-matching(n in {sizes})",
        yes_instances=yes,
        no_instances=no,
        description="greedily matched cycles (yes); all-unmatched and malformed encodings (no)",
    )
    return ScenarioWorkload(family=family, decider=MaximalMatchingDecider(), prop=prop)


def _build_mis(spec: ScenarioSpec, sizes: Tuple[int, ...]) -> ScenarioWorkload:
    prop = MaximalIndependentSetProperty()
    base = InstanceFamily.from_property(prop)
    yes = list(base.yes) + [greedy_mis(cycle_graph(n)) for n in sizes]
    # Empty selections: every node violates maximality.
    no = list(base.no) + [
        cycle_graph(n).with_labels({i: OUT_SET for i in range(n)}) for n in sizes
    ]
    family = InstanceFamily(
        name=f"maximal-independent-set(n in {sizes})",
        yes_instances=yes,
        no_instances=no,
        description="greedy MIS cycles (yes); empty selections and violations (no)",
    )
    return ScenarioWorkload(family=family, decider=MaximalIndependentSetDecider(), prop=prop)


# ---------------------------------------------------------------------- #
# Adversarial searches — identifier-dependent trap candidates
# ---------------------------------------------------------------------- #


def _build_adv_colour_guard(spec: ScenarioSpec, sizes: Tuple[int, ...]) -> ScenarioWorkload:
    prop = ProperColouringProperty(3)
    # The guard bound is sized to the smallest instance: every ladder size n
    # keeps 4n - 2*min(sizes) >= n identifiers at or above the bound, so a
    # defeating all-non-guard assignment exists at every rung.
    guard_bound = 2 * min(sizes)
    family = InstanceFamily(
        name=f"adv-colour-guard(n in {sizes})",
        yes_instances=[greedy_colouring(cycle_graph(n)) for n in sizes],
        no_instances=[cycle_graph(n).with_labels({i: 0 for i in range(n)}) for n in sizes],
        description="monochromatic cycles defeat the lazy-guard candidate only "
        "under all-identifiers-above-the-bound assignments",
    )
    return ScenarioWorkload(
        family=family,
        decider=LazyGuardColouringDecider(3, guard_bound=guard_bound),
        prop=prop,
        pool_factory=lambda g: range(4 * g.num_nodes()),
    )


def _build_adv_mis_parity(spec: ScenarioSpec, sizes: Tuple[int, ...]) -> ScenarioWorkload:
    prop = MaximalIndependentSetProperty()
    family = InstanceFamily(
        name=f"adv-mis-parity(n in {sizes})",
        yes_instances=[greedy_mis(cycle_graph(n)) for n in sizes],
        no_instances=[
            cycle_graph(n).with_labels({i: OUT_SET for i in range(n)}) for n in sizes
        ],
        description="empty-selection cycles defeat the parity-audit candidate "
        "only under all-even identifier assignments",
    )
    return ScenarioWorkload(
        family=family,
        decider=ParityAuditMISDecider(),
        prop=prop,
        pool_factory=lambda g: range(3 * g.num_nodes()),
    )


# ---------------------------------------------------------------------- #
# The bundle
# ---------------------------------------------------------------------- #

_BUNDLE: Tuple[ScenarioSpec, ...] = (
    ScenarioSpec(
        name="sec2-promise-cycles",
        title="Section 2 warm-up: r-cycle vs f(r)-cycle promise, LD decider",
        section="2.1",
        kind="verify",
        graph_family="constant-labelled cycles (r and f(r) nodes)",
        property_name="sec2-cycle-promise",
        decider_name="IdThresholdCycleDecider",
        build=_build_sec2_promise,
        sizes=(4, 6, 8),
        quick_sizes=(4, 6),
        samples=6,
    ),
    ScenarioSpec(
        name="sec2-property-p",
        title="Theorem 1 witness: property P on layered-tree slabs, LD decider",
        section="2.2",
        kind="verify",
        graph_family="pivot-augmented slabs + layered trees (stand-in depth)",
        property_name="sec2-small-instances(P)",
        decider_name="BoundedIdsLDDecider",
        build=_build_sec2_property_p,
        # Depth 4 is the smallest stand-in whose tree has >= R(r) nodes, so
        # the identifier-threshold stage can actually fire; quick keeps it.
        sizes=(4,),
        quick_sizes=(4,),
        samples=2,
    ),
    ScenarioSpec(
        name="sec2-structure-verifier",
        title="P' in LD*: the Id-oblivious structure verifier",
        section="2.2",
        kind="verify",
        graph_family="pivot-augmented slabs + layered trees (stand-in depth)",
        property_name="sec2-small-or-large(P')",
        decider_name="StructureVerifier",
        build=_build_sec2_structure,
        sizes=(4,),
        quick_sizes=(3,),
        samples=2,
    ),
    ScenarioSpec(
        name="sec3-halting-promise",
        title="Section 3 warm-up: halting promise on machine-labelled cycles",
        section="3.1",
        kind="verify",
        graph_family="machine-labelled cycles",
        property_name="sec3-halting-promise",
        decider_name="IdSimulationDecider",
        build=_build_sec3_promise,
        sizes=(6, 9, 12),
        quick_sizes=(6, 8),
        samples=4,
    ),
    ScenarioSpec(
        name="sec3-oblivious-budget",
        title="LD* impossibility made concrete: fixed-budget candidate is defeated",
        section="3.1",
        kind="verify",
        graph_family="machine-labelled cycles",
        property_name="sec3-halting-promise",
        decider_name="oblivious-budget-2",
        build=_build_sec3_oblivious_budget,
        sizes=(6, 8),
        quick_sizes=(6,),
        samples=2,
        expect_correct=False,
    ),
    ScenarioSpec(
        name="cor1-randomised",
        title="Corollary 1: randomness substitutes for identifiers on G(M, r)",
        section="3.3",
        kind="estimate",
        graph_family="execution graphs G(M, 1) with side-2 fragments",
        property_name="cor1-witness",
        decider_name="RandomisedObliviousDecider",
        build=_build_cor1_randomised,
        sizes=(0, 1),
        quick_sizes=(0,),
        trials=20,
        quick_trials=6,
    ),
    ScenarioSpec(
        name="classic-cycles-vs-paths",
        title="LD* membership proof: uniform cycles against paths",
        section="classic",
        kind="verify",
        graph_family="uniformly labelled cycles and paths",
        property_name="uniform-cycle",
        decider_name="cycle-decider",
        build=_build_cycles_vs_paths,
        sizes=(16, 32, 64),
        quick_sizes=(8, 12),
        samples=6,
    ),
    ScenarioSpec(
        name="classic-colouring",
        title="Proper 3-colouring, the paper's first LD* example",
        section="classic",
        kind="verify",
        graph_family="coloured cycles and paths",
        property_name="proper-3-colouring",
        decider_name="ProperColouringDecider",
        build=_build_colouring,
        sizes=(8, 12, 16),
        quick_sizes=(8,),
        samples=4,
    ),
    ScenarioSpec(
        name="classic-matching",
        title="Maximal matching, locally checkable without identifiers",
        section="classic",
        kind="verify",
        graph_family="matching-labelled cycles and paths",
        property_name="maximal-matching",
        decider_name="MaximalMatchingDecider",
        build=_build_matching,
        sizes=(8, 12, 16),
        quick_sizes=(8,),
        samples=4,
    ),
    ScenarioSpec(
        name="classic-mis",
        title="Maximal independent set, the paper's second LD* example",
        section="classic",
        kind="verify",
        graph_family="MIS-labelled cycles, paths and stars",
        property_name="maximal-independent-set",
        decider_name="MaximalIndependentSetDecider",
        build=_build_mis,
        sizes=(8, 12, 16),
        quick_sizes=(8,),
        samples=4,
    ),
    ScenarioSpec(
        name="adv-colour-guard",
        title="Adversarial hunt: lazy-guard colouring candidate starved of guards",
        section="adversary",
        kind="search",
        graph_family="monochromatic cycles (no) and greedy colourings (yes)",
        property_name="proper-3-colouring",
        decider_name="LazyGuardColouringDecider",
        build=_build_adv_colour_guard,
        # n=12 already puts the defeat beyond exhaustive reach: the first
        # all-above-the-bound assignment sits past P(47, 11) lexicographic
        # predecessors, while the guided hunt lands it within the budget.
        sizes=(12, 16),
        quick_sizes=(8,),
        strategy="hill-climb",
        max_evaluations=600,
        quick_max_evaluations=300,
        batch_size=16,
        expect_correct=False,
    ),
    ScenarioSpec(
        name="adv-mis-parity",
        title="Adversarial hunt: parity-audit MIS candidate under all-even ids",
        section="adversary",
        kind="search",
        graph_family="empty-selection cycles (no) and greedy MIS (yes)",
        property_name="maximal-independent-set",
        decider_name="ParityAuditMISDecider",
        build=_build_adv_mis_parity,
        sizes=(10, 14),
        quick_sizes=(6,),
        strategy="hill-climb",
        max_evaluations=600,
        quick_max_evaluations=300,
        batch_size=16,
        expect_correct=False,
    ),
)

_BY_NAME: Dict[str, ScenarioSpec] = {spec.name: spec for spec in _BUNDLE}


def bundled_scenarios() -> List[ScenarioSpec]:
    """All bundled scenario specs, in bundle order."""
    return list(_BUNDLE)


def scenario_names() -> List[str]:
    """Names of all bundled scenarios, in bundle order."""
    return [spec.name for spec in _BUNDLE]


def get_scenario(name: str) -> ScenarioSpec:
    """Look a bundled scenario up by name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; choose from {scenario_names()}") from None
