"""Section 3 + Appendix A: separation of LD and LD* under computability (C)."""

from .fragments import Fragment, FragmentCollection, enumerate_fragments, fragment_collection
from .execution_graph import (
    PIVOT_CELL_TAG,
    ComputabilityWitnessProperty,
    ExecutionGraph,
    build_execution_graph,
    parse_cell_label,
)
from .local_checker import ExecutionGraphChecker, classify_neighbours
from .decider import ComputabilityLDDecider
from .neighbourhood_generator import build_partial_execution_graph, neighbourhood_generator
from .separation_argument import (
    SeparationExperiment,
    SeparationTrial,
    candidate_always_accept,
    candidate_halt_scanner,
    run_separation_experiment,
    separation_algorithm,
)
from .randomized_decider import RandomisedObliviousDecider
from .promise_cycles import (
    BoundedBudgetObliviousDecider,
    HaltingPromiseProblem,
    IdSimulationDecider,
    machine_cycle_instance,
)

__all__ = [
    "Fragment",
    "FragmentCollection",
    "enumerate_fragments",
    "fragment_collection",
    "PIVOT_CELL_TAG",
    "ComputabilityWitnessProperty",
    "ExecutionGraph",
    "build_execution_graph",
    "parse_cell_label",
    "ExecutionGraphChecker",
    "classify_neighbours",
    "ComputabilityLDDecider",
    "build_partial_execution_graph",
    "neighbourhood_generator",
    "SeparationExperiment",
    "SeparationTrial",
    "candidate_always_accept",
    "candidate_halt_scanner",
    "run_separation_experiment",
    "separation_algorithm",
    "RandomisedObliviousDecider",
    "HaltingPromiseProblem",
    "IdSimulationDecider",
    "BoundedBudgetObliviousDecider",
    "machine_cycle_instance",
]
