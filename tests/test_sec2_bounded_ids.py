"""Tests for the Section-2 separation (bounded identifiers)."""

import pytest

from repro.analysis import oblivious_decider_is_fooled
from repro.decision import decide, verify_decider
from repro.errors import ConstructionError
from repro.graphs import BoundedIdentifierSpace, sequential_assignment
from repro.local_model import YES, FunctionIdObliviousAlgorithm
from repro.separation.bounded_ids import (
    BoundedIdsLDDecider,
    CyclePromiseProblem,
    IdThresholdCycleDecider,
    SlabSpec,
    SmallInstancesProperty,
    SmallOrLargeProperty,
    StructureVerifier,
    bound_R,
    build_layered_tree,
    build_small_instance,
    covering_slab_for,
    indistinguishability_certificate,
    max_small_instance_size,
    section2_family,
    section2_impossibility_certificate,
    slab_border_nodes,
    slab_nodes,
    small_bound,
)

DEPTH = 4


# ---------------------------------------------------------------------- #
# Promise problem
# ---------------------------------------------------------------------- #


def test_promise_problem_id_decider_correct():
    prob = CyclePromiseProblem()
    decider = IdThresholdCycleDecider()
    for r in (4, 5, 8):
        yes = prob.yes_instance(r)
        no = prob.no_instance(r)
        assert prob.contains(yes) and not prob.contains(no)
        assert decide(decider, yes, prob.instance_ids(yes))
        assert not decide(decider, no, prob.instance_ids(no))


def test_promise_problem_indistinguishability():
    prob = CyclePromiseProblem()
    cert = indistinguishability_certificate(prob, r=8, horizon=2)
    assert cert.valid
    # The operational consequence: any radius-2 Id-oblivious decider accepting
    # the r-cycle also accepts the f(r)-cycle.
    naive = FunctionIdObliviousAlgorithm(lambda v: YES, radius=2, name="naive")
    assert oblivious_decider_is_fooled(naive, cert)


# ---------------------------------------------------------------------- #
# Layered trees and slabs
# ---------------------------------------------------------------------- #


def test_layered_tree_and_slab_geometry():
    tree = build_layered_tree(3, r=1)
    assert tree.num_nodes() == 15
    # labels carry (r, x, y)
    assert tree.label(("n", 0, 0)) == (1, 0, 0)

    spec = SlabSpec(r=2, tree_depth=6, y0=1, x0=1, root_width=1)
    nodes = slab_nodes(spec)
    assert len(nodes) == 1 + 2 + 4
    border = slab_border_nodes(spec)
    # root (parent outside), bottom row (children outside), side columns
    assert (1, 1) in border
    assert all((x, 3) in border for x in range(4, 8))

    with pytest.raises(ConstructionError):
        SlabSpec(r=2, tree_depth=1, y0=0, x0=0)
    with pytest.raises(ConstructionError):
        SlabSpec(r=1, tree_depth=4, y0=0, x0=0, root_width=3)


def test_small_instance_has_single_pivot_adjacent_to_border():
    spec = SlabSpec(r=2, tree_depth=DEPTH, y0=1, x0=0, root_width=1)
    inst = build_small_instance(spec)
    pivot = ("pivot",)
    assert inst.has_node(pivot)
    border = slab_border_nodes(spec)
    assert set(inst.neighbours(pivot)) == {("n", x, y) for (x, y) in border}
    assert inst.num_nodes() == len(slab_nodes(spec)) + 1


def test_bound_R_exceeds_small_instance_sizes():
    for r in (0, 1, 2, 3):
        assert bound_R(r, small_bound) > max_small_instance_size(r)


# ---------------------------------------------------------------------- #
# Properties, verifier, decider
# ---------------------------------------------------------------------- #


def test_ground_truth_membership():
    fam = section2_family(r=2, tree_depth=DEPTH, bound_fn=small_bound)
    P = SmallInstancesProperty(bound_fn=small_bound, tree_depth=DEPTH)
    Pp = SmallOrLargeProperty(bound_fn=small_bound, tree_depth=DEPTH)
    assert all(P.contains(g) for g in fam.yes)
    assert not any(P.contains(g) for g in fam.no)
    # P' additionally contains the large instance but not the corrupted ones.
    assert Pp.contains(fam.no[0])
    assert not Pp.contains(fam.no[1])
    assert not Pp.contains(fam.no[2])


def test_structure_verifier_is_an_ldstar_witness_for_p_prime():
    fam = section2_family(r=2, tree_depth=DEPTH, bound_fn=small_bound)
    verifier = StructureVerifier(bound_fn=small_bound, tree_depth=DEPTH)
    assert all(decide(verifier, g) for g in fam.yes)
    assert decide(verifier, fam.no[0])  # the large instance is in P'
    assert not decide(verifier, fam.no[1])
    assert not decide(verifier, fam.no[2])


def test_ld_decider_decides_p_with_identifiers():
    fam = section2_family(r=2, tree_depth=DEPTH, bound_fn=small_bound)
    P = SmallInstancesProperty(bound_fn=small_bound, tree_depth=DEPTH)
    decider = BoundedIdsLDDecider(bound_fn=small_bound, tree_depth=DEPTH)
    report = verify_decider(
        decider, P, family=fam, id_space=BoundedIdentifierSpace(small_bound), samples=2
    )
    assert report.correct, report.summary()


def test_true_parameters_end_to_end_r1():
    # With the tight bound f(n) = n + 2 the true construction is materialisable at r = 1:
    # R(1) = 10, Tr has 2^11 - 1 = 2047 nodes.
    r = 1
    depth = bound_R(r, small_bound)
    assert depth == 10
    tree = build_layered_tree(depth, r)
    decider = BoundedIdsLDDecider(bound_fn=small_bound)
    assert not decide(decider, tree, sequential_assignment(tree))
    spec = SlabSpec(r=r, tree_depth=depth, y0=3, x0=2, root_width=2)
    small = build_small_instance(spec)
    assert decide(decider, small, sequential_assignment(small))


def test_coverage_certificate_theorem1():
    cert = section2_impossibility_certificate(r=3, horizon=1, tree_depth=5, bound_fn=small_bound)
    assert cert.valid
    # operational consequence for a concrete Id-oblivious candidate
    naive = FunctionIdObliviousAlgorithm(lambda v: YES, radius=1, name="naive")
    assert oblivious_decider_is_fooled(naive, cert)


def test_single_rooted_slabs_do_not_cover_aligned_columns():
    # The reproduction note recorded in DESIGN.md: with the paper-literal
    # single-rooted sub-trees only, nodes at positions divisible by 2^r are
    # not covered (their left horizontal edge crosses an aligned boundary).
    from repro.analysis import coverage_report
    from repro.separation.bounded_ids import enumerate_slab_specs

    r, depth, horizon = 2, 4, 1
    tree = build_layered_tree(depth, r)
    single_rooted = [
        build_small_instance(spec)
        for spec in enumerate_slab_specs(r, depth, root_widths=(1,))
    ]
    report = coverage_report(tree, single_rooted, radius=horizon)
    assert not report.fully_covered


def test_covering_slab_for_invalid_parameters():
    with pytest.raises(ConstructionError):
        covering_slab_for(0, 0, r=2, tree_depth=5, horizon=1)  # needs r >= 2h + 1
    with pytest.raises(ConstructionError):
        covering_slab_for(9, 2, r=3, tree_depth=5, horizon=1)  # (9, 2) not a tree node
