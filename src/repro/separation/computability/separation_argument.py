"""The separation algorithm ``R`` of Theorem 2: why ``P ∉ LD*`` under (C).

The proof of Theorem 2 converts any computable Id-oblivious decider ``A*``
for ``P = {G(M, r) : M outputs 0}`` into a *computable separator* of the
computably inseparable languages ``L0 = {M : M outputs 0}`` and
``L1 = {M : M outputs 1}``:

    Given a Turing machine ``N`` we first compute ``B(N, t)``.  Then we run
    ``A*`` on all the ``t``-neighbourhoods in ``B(N, t)``.  We accept ``N``
    precisely if ``A*`` accepts all of ``B(N, t)``.

Since no computable set can separate ``L0`` from ``L1`` (Lemma 1), no such
``A*`` exists.  Code cannot, of course, verify a statement about all
machines; what the reproduction does instead is run ``R`` built from
*concrete candidate* Id-oblivious deciders against machine families from
``L0`` and ``L1`` and exhibit, for every candidate, a misclassified machine
— together with checking that ``R`` itself halts on every library machine
including non-halting ones (which is exactly the computability property the
proof needs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ...engine.base import EngineLike, resolve_engine
from ...graphs.neighbourhood import Neighbourhood
from ...local_model.algorithm import FunctionIdObliviousAlgorithm, IdObliviousAlgorithm
from ...local_model.outputs import NO, YES, Verdict
from ...turing.machine import TuringMachine
from .execution_graph import parse_cell_label
from .neighbourhood_generator import neighbourhood_generator

__all__ = [
    "separation_algorithm",
    "SeparationTrial",
    "SeparationExperiment",
    "run_separation_experiment",
    "candidate_halt_scanner",
    "candidate_always_accept",
]


def separation_algorithm(
    candidate: IdObliviousAlgorithm,
    machine: TuringMachine,
    r: Optional[int] = None,
    fragment_side: Optional[int] = None,
    max_fragments: Optional[int] = 50_000,
    engine: EngineLike = None,
) -> bool:
    """The algorithm ``R``: accept ``machine`` iff ``candidate`` accepts every neighbourhood in ``B(machine, t)``.

    ``t`` is the candidate's local horizon; ``r`` defaults to it.  The call
    always terminates, for halting and non-halting machines alike.

    ``engine`` selects the backend for the candidate's evaluations.  The
    windows are per-node dict extractions with no interned payload, so a
    :class:`~repro.engine.cached.CachedEngine` evaluates every one of them
    without memoising.
    """
    evaluator = resolve_engine(engine)
    horizon = candidate.radius
    r = r if r is not None else max(horizon, 1)
    views = neighbourhood_generator(
        machine, r, fragment_side=fragment_side, max_fragments=max_fragments, skip_pivot_region=True
    )
    for view in views:
        # The candidate's horizon may be smaller than r; re-extract its view.
        sub = view if horizon >= view.radius else _shrink(view, horizon)
        if evaluator.evaluate_view(candidate, sub) == NO:
            return False
    return True


def _shrink(view: Neighbourhood, radius: int) -> Neighbourhood:
    from ...graphs.neighbourhood import extract_neighbourhood

    return extract_neighbourhood(view.graph, view.center, radius)


# ---------------------------------------------------------------------- #
# Candidate Id-oblivious deciders (all doomed, per Theorem 2)
# ---------------------------------------------------------------------- #


def candidate_halt_scanner(radius: int = 1) -> IdObliviousAlgorithm:
    """A natural-looking candidate: reject iff my view shows the machine halted with a non-zero output.

    This is exactly the strategy the fragment collection is designed to
    defeat: fragments showing a halting head with output 1 exist in *every*
    ``G(M, r)``, including those where ``M`` really outputs 0, so the scanner
    rejects yes-instances (and, run through ``R``, misclassifies members of
    ``L0``).
    """

    def scan(view: Neighbourhood) -> Verdict:
        for v in view.nodes():
            parsed = parse_cell_label(view.label_of(v))
            if parsed is None:
                return NO
            enc, _r, _tag, _xm, _ym, symbol, state = parsed
            if state is not None:
                machine = TuringMachine.decode(enc)
                if state == machine.halt_state and symbol != "0":
                    return NO
        return YES

    return FunctionIdObliviousAlgorithm(scan, radius=radius, name="candidate-halt-scanner")


def candidate_always_accept(radius: int = 1) -> IdObliviousAlgorithm:
    """The trivial candidate that accepts everything (misclassifies every member of ``L1``)."""
    return FunctionIdObliviousAlgorithm(lambda view: YES, radius=radius, name="candidate-always-accept")


# ---------------------------------------------------------------------- #
# Experiment harness
# ---------------------------------------------------------------------- #


@dataclass
class SeparationTrial:
    """One (candidate, machine) evaluation of the separation algorithm ``R``."""

    candidate: str
    machine: str
    machine_output: Optional[str]
    accepted_by_R: bool
    halted_generation: bool = True

    @property
    def correct(self) -> Optional[bool]:
        """Whether ``R``'s answer matches the L0/L1 ground truth (``None`` for non-halting machines)."""
        if self.machine_output == "0":
            return self.accepted_by_R
        if self.machine_output == "1":
            return not self.accepted_by_R
        return None


@dataclass
class SeparationExperiment:
    """Aggregate of separation trials for several candidates and machines."""

    trials: List[SeparationTrial] = field(default_factory=list)

    def misclassifications(self) -> List[SeparationTrial]:
        """Trials where ``R`` gave the wrong L0/L1 answer — the empirical content of Theorem 2."""
        return [t for t in self.trials if t.correct is False]

    def every_candidate_fails(self) -> bool:
        """``True`` when every candidate misclassifies at least one machine."""
        candidates = {t.candidate for t in self.trials}
        failing = {t.candidate for t in self.misclassifications()}
        return candidates == failing


def run_separation_experiment(
    candidates: Sequence[IdObliviousAlgorithm],
    machines: Sequence[TuringMachine],
    r: int = 1,
    fragment_side: Optional[int] = None,
    fuel: int = 5_000,
    max_fragments: Optional[int] = 50_000,
    engine: EngineLike = None,
) -> SeparationExperiment:
    """Run the separation algorithm ``R`` for every candidate against every machine."""
    engine = resolve_engine(engine)
    experiment = SeparationExperiment()
    for machine in machines:
        run = machine.run(fuel, keep_history=False)
        output = run.output if run.halted else None
        for candidate in candidates:
            accepted = separation_algorithm(
                candidate, machine, r=r, fragment_side=fragment_side, max_fragments=max_fragments, engine=engine
            )
            experiment.trials.append(
                SeparationTrial(
                    candidate=candidate.name,
                    machine=machine.name,
                    machine_output=output,
                    accepted_by_R=accepted,
                )
            )
    return experiment
