"""Randomised local decision: (p, q)-deciders and their empirical estimation.

Section 3.3 of the paper defines a randomised local algorithm ``A`` to be a
``(p, q)``-decider for a property ``P`` when for every input ``(G, x, Id)``:

* if ``(G, x) ∈ P``: with probability at least ``p``, *all* nodes output
  ``yes``;
* if ``(G, x) ∉ P``: with probability at least ``q``, *some* node outputs
  ``no``.

Corollary 1 exhibits a ``(1, 1 - o(1))``-decider for the Section-3 witness
property.  Since exact acceptance probabilities of arbitrary randomised
algorithms are not computable in closed form, this module estimates them by
Monte-Carlo trials and reports Wilson confidence intervals, which is what
the Corollary-1 benchmark sweeps over ``n``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..engine.base import EngineLike, resolve_engine, store_counters, store_job_split
from ..errors import DecisionError
from ..graphs.identifiers import IdAssignment
from ..graphs.labelled_graph import LabelledGraph
from ..local_model.algorithm import RandomisedLocalAlgorithm
from ..local_model.outputs import NO, Verdict
from .property import InstanceFamily

__all__ = [
    "AcceptanceEstimate",
    "PQDeciderReport",
    "estimate_acceptance_probability",
    "evaluate_pq_decider",
    "wilson_interval",
]


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> Tuple[float, float]:
    """Return the Wilson score confidence interval for a binomial proportion.

    ``z`` must be a positive finite critical value; the returned interval
    is clamped to ``[0, 1]`` (the raw upper bound can exceed 1.0 in
    floating point for proportions near 1).
    """
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    if not math.isfinite(z) or z <= 0:
        raise ValueError(f"z must be a positive finite critical value, got {z!r}")
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    centre = phat + z * z / (2 * trials)
    margin = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4 * trials * trials))
    return (
        max(0.0, (centre - margin) / denom),
        min(1.0, (centre + margin) / denom),
    )


@dataclass
class AcceptanceEstimate:
    """Monte-Carlo estimate of the probability that a randomised decider accepts one input.

    ``trials_replayed`` / ``trials_computed`` split the trials between
    replay from a cross-run verdict store and fresh simulation (all
    computed when the engine has no store).
    """

    instance_nodes: int
    trials: int
    accepts: int
    trials_computed: int = 0
    trials_replayed: int = 0

    @property
    def acceptance_rate(self) -> float:
        """The observed acceptance frequency."""
        return self.accepts / self.trials if self.trials else 0.0

    @property
    def rejection_rate(self) -> float:
        """The observed rejection frequency."""
        return 1.0 - self.acceptance_rate

    def acceptance_interval(self, z: float = 1.96) -> Tuple[float, float]:
        """Wilson confidence interval for the acceptance probability."""
        return wilson_interval(self.accepts, self.trials, z)


def _accepts(outputs) -> bool:
    for v, out in outputs.items():
        if not isinstance(out, Verdict):
            raise DecisionError(
                f"randomised decider returned {out!r} at node {v!r}; expected YES or NO"
            )
    return all(out != NO for out in outputs.values())


def estimate_acceptance_probability(
    algorithm: RandomisedLocalAlgorithm,
    graph: LabelledGraph,
    ids: Optional[IdAssignment] = None,
    trials: int = 200,
    seed: int = 0,
    engine: EngineLike = None,
) -> AcceptanceEstimate:
    """Estimate the probability that the randomised decider accepts ``(G, x, Id)``.

    All ``trials`` repetitions are submitted as one batch through the
    engine's :meth:`~repro.engine.base.ExecutionEngine.run_randomised_many`
    driver: a caching backend reuses the batched ball extraction across
    them (randomised outputs themselves are never memoised), and a parallel
    backend shards the trials across its worker pool.  Each trial's run
    seed is drawn up-front from ``random.Random(seed)`` — the exact
    sequence the serial loop used — so the estimate is identical for every
    backend and worker count.
    """
    engine = resolve_engine(engine)
    rng = random.Random(seed)
    before = store_counters(engine)
    jobs = [(graph, ids, rng.randrange(2**62)) for _ in range(trials)]
    outputs_list = engine.run_randomised_many(algorithm, jobs)
    accepts = sum(1 for outputs in outputs_list if _accepts(outputs))
    replayed, computed = store_job_split(engine, before, trials)
    return AcceptanceEstimate(
        instance_nodes=graph.num_nodes(),
        trials=trials,
        accepts=accepts,
        trials_computed=computed,
        trials_replayed=replayed,
    )


@dataclass
class PQDeciderReport:
    """Empirical evaluation of a candidate (p, q)-decider against an instance family."""

    algorithm_name: str
    family_name: str
    target_p: float
    target_q: float
    trials_per_instance: int
    yes_estimates: List[AcceptanceEstimate] = field(default_factory=list)
    no_estimates: List[AcceptanceEstimate] = field(default_factory=list)

    @property
    def worst_yes_acceptance(self) -> float:
        """The lowest observed acceptance rate over yes-instances (should be >= p)."""
        return min((e.acceptance_rate for e in self.yes_estimates), default=1.0)

    @property
    def worst_no_rejection(self) -> float:
        """The lowest observed rejection rate over no-instances (should be >= q)."""
        return min((e.rejection_rate for e in self.no_estimates), default=1.0)

    @property
    def satisfied(self) -> bool:
        """Whether the observed rates meet the (p, q) targets on every instance."""
        return (
            self.worst_yes_acceptance >= self.target_p - 1e-12
            and self.worst_no_rejection >= self.target_q - 1e-12
        )

    @property
    def trials_replayed(self) -> int:
        """Total trials replayed from a cross-run verdict store."""
        return sum(e.trials_replayed for e in self.yes_estimates + self.no_estimates)

    @property
    def trials_computed(self) -> int:
        """Total trials freshly simulated."""
        return sum(e.trials_computed for e in self.yes_estimates + self.no_estimates)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.algorithm_name} on {self.family_name}: "
            f"min yes-acceptance {self.worst_yes_acceptance:.3f} (target {self.target_p}), "
            f"min no-rejection {self.worst_no_rejection:.3f} (target {self.target_q}) "
            f"[{self.trials_per_instance} trials/instance] -> "
            f"{'meets' if self.satisfied else 'misses'} target"
        )


def evaluate_pq_decider(
    algorithm: RandomisedLocalAlgorithm,
    family: InstanceFamily,
    p: float,
    q: float,
    trials: int = 200,
    seed: int = 0,
    ids_factory=None,
    engine: EngineLike = None,
) -> PQDeciderReport:
    """Estimate whether a randomised decider meets the (p, q) targets on a family."""
    engine = resolve_engine(engine)
    report = PQDeciderReport(
        algorithm_name=algorithm.name,
        family_name=family.name,
        target_p=p,
        target_q=q,
        trials_per_instance=trials,
    )
    for graph in family.yes:
        ids = ids_factory(graph) if ids_factory else None
        report.yes_estimates.append(
            estimate_acceptance_probability(algorithm, graph, ids, trials=trials, seed=seed, engine=engine)
        )
    for graph in family.no:
        ids = ids_factory(graph) if ids_factory else None
        report.no_estimates.append(
            estimate_acceptance_probability(algorithm, graph, ids, trials=trials, seed=seed, engine=engine)
        )
    return report
