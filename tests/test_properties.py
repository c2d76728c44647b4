"""Unit tests for the classic property library (colouring, MIS, matching, planarity, paths, heredity)."""

import os
import subprocess
import sys

from repro.decision import verify_decider
from repro.graphs import cycle_graph, grid_graph, path_graph, star_graph
from repro.properties import (
    OUT_SET,
    MaximalIndependentSetDecider,
    MaximalIndependentSetProperty,
    MaximalMatchingDecider,
    MaximalMatchingProperty,
    PlanarityProperty,
    ProperColouringDecider,
    ProperColouringProperty,
    RegularPathProperty,
    greedy_colouring,
    greedy_matching,
    greedy_mis,
    is_hereditary_on,
    is_path,
    label_word,
)


def test_colouring_property_and_decider():
    prop = ProperColouringProperty(3)
    assert verify_decider(ProperColouringDecider(3), prop).correct
    g = greedy_colouring(grid_graph(3, 3))
    assert ProperColouringProperty(None).contains(g)
    assert not prop.contains(cycle_graph(4))  # unlabelled


def test_mis_property_and_decider():
    prop = MaximalIndependentSetProperty()
    assert verify_decider(MaximalIndependentSetDecider(), prop).correct
    g = greedy_mis(grid_graph(3, 4))
    assert prop.contains(g)
    # Empty set on a non-empty graph is not maximal.
    empty = path_graph(3).with_labels({i: OUT_SET for i in range(3)})
    assert not prop.contains(empty)


def test_matching_property_and_decider():
    prop = MaximalMatchingProperty()
    assert verify_decider(MaximalMatchingDecider(), prop).correct
    g = greedy_matching(grid_graph(3, 3))
    assert prop.contains(g)


def test_greedy_matching_does_not_depend_on_pythonhashseed():
    # Caterpillar legs are named ("leg", i, j): their neighbour sets iterate
    # in a hash-seed-dependent order, which must not change the matching.
    script = (
        "import sys; sys.path.insert(0, 'src')\n"
        "from repro.graphs import caterpillar_graph\n"
        "from repro.properties import greedy_matching\n"
        "for s in range(20):\n"
        "    g = greedy_matching(caterpillar_graph(12, seed=s))\n"
        "    print([(v, g.label(v)) for v in g.nodes()])\n"
    )
    outputs = set()
    for hash_seed in ("1", "2", "3", "4"):
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONHASHSEED=hash_seed),
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert result.returncode == 0, result.stderr
        outputs.add(result.stdout)
    assert len(outputs) == 1


def test_planarity_property():
    prop = PlanarityProperty()
    assert prop.contains(grid_graph(4, 4))
    assert all(prop.contains(g) for g in prop.yes_instances())
    assert not any(prop.contains(g) for g in prop.no_instances())


def test_path_language():
    lang = RegularPathProperty(alphabet=[0, 1], forbidden_windows=[(1, 1)], name="no-11")
    good = path_graph(4).with_labels({0: 1, 1: 0, 2: 1, 3: 0})
    bad = path_graph(4).with_labels({0: 0, 1: 1, 2: 1, 3: 0})
    assert lang.contains(good)
    assert not lang.contains(bad)
    assert not lang.contains(cycle_graph(4, label=0))  # not a path
    assert verify_decider(lang.decider(), lang).correct
    assert label_word(good) in ([1, 0, 1, 0], [0, 1, 0, 1])
    assert is_path(path_graph(1)) and not is_path(cycle_graph(3))


def test_path_language_reversal_closure():
    lang = RegularPathProperty(alphabet=["a", "b"], forbidden_windows=[("a", "b")], name="no-ab")
    word_ab = path_graph(2).with_labels({0: "a", 1: "b"})
    # the word can be read in both directions; "ab" occurs in one of them
    assert not lang.contains(word_ab)


def test_heredity_checks():
    colouring = ProperColouringProperty(3)
    assert is_hereditary_on(colouring, colouring.yes_instances())
    mis = MaximalIndependentSetProperty()
    assert not is_hereditary_on(mis, mis.yes_instances())
    planar = PlanarityProperty()
    assert is_hereditary_on(planar, [grid_graph(3, 3), star_graph(4)])
