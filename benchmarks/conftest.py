"""Shared fixtures and parameters for the benchmark harness.

Every benchmark regenerates one of the paper's artefacts (the Section-1.1
classification table, Figures 1-3, the promise problems, Theorems 1-2,
Corollary 1) at laptop scale and asserts the qualitative outcome the paper
reports; the measured timings are reported by pytest-benchmark.

Benchmarks that emit a machine-readable record time it through
``_measure.measure`` and write it through the ``write_record`` fixture
into the git-ignored ``benchmarks/out/``, so a test run never rewrites the
committed ``benchmarks/BENCH_*.json`` baselines.
"""

import json
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.decision import FunctionProperty, InstanceFamily, verify_decider
from repro.graphs import cycle_graph, path_graph
from repro.local_model import NO, YES, FunctionIdObliviousAlgorithm
from repro.turing import halting_machine

#: Where fresh benchmark records go; CI gates them against the committed ones.
RECORDS_OUT = Path(__file__).resolve().parent / "out"


@pytest.fixture
def write_record():
    """Write a fresh record as ``benchmarks/out/BENCH_<name>.json``."""

    def write(name: str, payload: dict) -> None:
        RECORDS_OUT.mkdir(exist_ok=True)
        (RECORDS_OUT / f"BENCH_{name}.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    return write


@pytest.fixture
def cycles_vs_paths():
    """The ``verify_decider`` cycles-vs-paths sweep the engine and store benches time.

    Property: "the input is a uniformly-labelled cycle".  The Id-oblivious
    radius-1 decider (every visible node has degree 2 and the right label)
    is the textbook LD* membership proof for this family; paths are the
    no-instances (their endpoints reject).  Every ball of a cycle is
    isomorphic, so a caching backend evaluates one view per graph where
    the direct backend evaluates |V| x |assignments| of them.
    ``verify(engine=...)`` runs the sweep: 16 random identifier assignments
    per instance plus the canonical one, seed 11.
    """
    sizes, samples = (64, 96, 128), 16

    def evaluate(view):
        if view.center_degree() != 2:
            return NO
        if any(view.label_of(v) != "x" for v in view.nodes()):
            return NO
        return YES

    decider = FunctionIdObliviousAlgorithm(evaluate, radius=1, name="cycle-decider")
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
    return SimpleNamespace(
        sizes=sizes, samples=samples, decider=decider, family=family,
        verify=partial(verify_decider, decider, prop, family=family, samples=samples, seed=11),
    )


@pytest.fixture(scope="session")
def machine_outputs_zero():
    """The smallest library machine in L0 (halts with output 0)."""
    return halting_machine("0", delay=0)


@pytest.fixture(scope="session")
def machine_outputs_one():
    """The smallest library machine in L1 (halts with output 1)."""
    return halting_machine("1", delay=0)
