"""Declarative campaign scenario specs and their result records.

A *scenario* is one cell of the experiment grid the paper's claims are
validated on: a graph family x a size ladder x a property x a decider class
x an execution engine.  :class:`ScenarioSpec` describes that cell
declaratively (the axes are plain data; only the workload construction is a
callable), :class:`ScenarioWorkload` is the materialised cell, and
:class:`ScenarioResult` / :class:`CampaignReport` are the JSON-ready
records the campaign runner produces.

Three scenario kinds exist, matching the reproduction's validation modes:

* ``"verify"`` — exhaustive/sampled verification of a deterministic
  decider over identifier assignments
  (:func:`~repro.decision.decider.verify_decider`); the result records the
  verification verdict and, on failure, the first counter-example
  assignment;
* ``"estimate"`` — Monte-Carlo estimation of a randomised decider's
  acceptance statistics against ``(p, q)`` targets
  (:func:`~repro.decision.randomized.evaluate_pq_decider`);
* ``"search"`` — guided adversarial hunt for a defeating identifier
  assignment (:func:`~repro.adversary.search.find_counterexample`), with
  the found counter-example delta-debugged to a locally-minimal witness.

Scenarios may *expect* failure (``expect_correct=False``): the separation
arguments are demonstrated precisely by candidate Id-oblivious deciders
being defeated, and the counter-example that defeats them is part of the
report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..decision.property import InstanceFamily, Property
from ..engine.persistent import _code_token, _sha256
from ..graphs.identifiers import IdAssignment, IdentifierSpace
from ..graphs.labelled_graph import LabelledGraph
from ..obs.metrics import POOL_COUNTERS

__all__ = ["ScenarioSpec", "ScenarioWorkload", "ScenarioResult", "CampaignReport"]


@dataclass
class ScenarioWorkload:
    """A materialised scenario: concrete instances, decider and verification setup."""

    family: InstanceFamily
    decider: Any
    prop: Optional[Property] = None
    #: identifier space for ``assignments_for`` (verify scenarios)
    id_space: Optional[IdentifierSpace] = None
    #: bespoke legal-assignment generator overriding ``assignments_for``
    assignments_factory: Optional[Callable[[LabelledGraph], Sequence[IdAssignment]]] = None
    #: per-instance identifier factory (estimate scenarios)
    ids_factory: Optional[Callable[[LabelledGraph], IdAssignment]] = None
    #: per-instance identifier pool for adversarial hunts (search scenarios)
    pool_factory: Optional[Callable[[LabelledGraph], Sequence[int]]] = None
    #: (p, q) targets (estimate scenarios)
    target_p: float = 1.0
    target_q: float = 0.0


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative cell of the campaign grid.

    ``build(spec, sizes)`` materialises the workload for a given size
    ladder; every other axis is plain data, so ``--list`` can render the
    whole grid without constructing any graphs.
    """

    name: str
    title: str
    section: str  # the paper section (or "classic") the scenario draws on
    kind: str  # "verify" | "estimate" | "search"
    graph_family: str  # human-readable family axis
    property_name: str
    decider_name: str
    build: Callable[["ScenarioSpec", Tuple[int, ...]], ScenarioWorkload]
    sizes: Tuple[int, ...] = ()
    quick_sizes: Tuple[int, ...] = ()
    samples: int = 4  # id assignments per instance (verify)
    trials: int = 40  # Monte-Carlo trials per instance (estimate)
    quick_trials: int = 8
    seed: int = 0  # deterministic seed for sampling / search (--seed overrides)
    strategy: str = "hill-climb"  # search backend (search scenarios)
    max_evaluations: int = 256  # per-instance search budget (search)
    quick_max_evaluations: int = 0  # reduced budget under --quick (0 = same)
    batch_size: int = 16  # candidates proposed per search batch (search)
    engine: str = "cached"  # default backend when the runner gets no override
    expect_correct: bool = True
    description: str = ""

    def ladder(self, quick: bool) -> Tuple[int, ...]:
        """The size ladder to run: the quick one (when set) under ``--quick``."""
        if quick and self.quick_sizes:
            return self.quick_sizes
        return self.sizes

    def trial_count(self, quick: bool) -> int:
        """Monte-Carlo trials per instance, reduced under ``--quick``."""
        return min(self.trials, self.quick_trials) if quick else self.trials

    def search_budget(self, quick: bool) -> int:
        """Per-instance search budget, reduced under ``--quick`` when set."""
        if quick and self.quick_max_evaluations:
            return min(self.max_evaluations, self.quick_max_evaluations)
        return self.max_evaluations

    def digest(self, quick: bool) -> str:
        """Stable digest of everything that determines this scenario's workload.

        Covers the declarative axes *as effective for the given mode* (the
        quick ladder under ``--quick``), the expected verdict, and the code
        of the ``build`` callable — so editing a scenario's construction,
        sizes or sampling invalidates previously recorded results, which is
        what ``--resume`` uses to decide what must be re-run.
        """
        parts = [
            self.name,
            self.section,
            self.kind,
            self.graph_family,
            self.property_name,
            self.decider_name,
            repr(self.ladder(quick)),
            repr(self.samples),
            repr(self.trial_count(quick)),
            repr(self.seed),
            repr((self.strategy, self.search_budget(quick), self.batch_size)),
            repr(self.expect_correct),
            _code_token(self.build),
        ]
        return _sha256(*parts)

    def as_row(self) -> List[str]:
        """The ``--list`` table row."""
        return [
            self.name,
            self.section,
            self.kind,
            self.engine,
            "x".join(str(s) for s in self.sizes) or "-",
            self.title,
        ]


@dataclass
class ScenarioResult:
    """Outcome of running one scenario: verdicts, timings and engine statistics.

    ``spec_digest`` records the digest of the spec that produced the
    result (used by :meth:`settles` for staleness detection);
    ``jobs_replayed`` / ``jobs_computed`` split the scenario's jobs
    between verdict-store replay and fresh computation; ``resumed`` marks
    results carried over unchanged from a previous report;
    ``phase_seconds`` breaks ``seconds`` down by phase (``build`` /
    ``verify``, plus ``persist`` when the sweep logs incrementally).
    """

    name: str
    section: str
    kind: str
    engine: str
    seconds: float
    observed_correct: bool
    expected_correct: bool
    instances: int
    sweeps: int  # id-assignments checked (verify) / total trials (estimate)
    summary: str
    engine_stats: Dict[str, int] = field(default_factory=dict)
    details: Dict[str, Any] = field(default_factory=dict)
    spec_digest: str = ""
    jobs_computed: int = 0
    jobs_replayed: int = 0
    resumed: bool = False
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """``True`` when the scenario behaved as the paper predicts."""
        return self.observed_correct == self.expected_correct

    def settles(self, spec: ScenarioSpec, quick: bool) -> bool:
        """``True`` when this recorded result may stand in for running ``spec``.

        It must carry a verdict (a summary written by a completed run) and
        have been recorded under the spec's current digest for ``quick``.
        """
        return bool(self.summary and self.spec_digest) and self.spec_digest == spec.digest(quick)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "section": self.section,
            "kind": self.kind,
            "engine": self.engine,
            "seconds": round(self.seconds, 6),
            "ok": self.ok,
            "observed_correct": self.observed_correct,
            "expected_correct": self.expected_correct,
            "instances": self.instances,
            "sweeps": self.sweeps,
            "summary": self.summary,
            "engine_stats": dict(self.engine_stats),
            "details": self.details,
            "spec_digest": self.spec_digest,
            "jobs_computed": self.jobs_computed,
            "jobs_replayed": self.jobs_replayed,
            "resumed": self.resumed,
            "phase_seconds": {k: round(v, 6) for k, v in self.phase_seconds.items()},
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ScenarioResult":
        """Rebuild a result from its JSON record (tolerates older reports)."""
        return cls(
            name=payload["name"],
            section=payload.get("section", ""),
            kind=payload.get("kind", ""),
            engine=payload.get("engine", ""),
            seconds=float(payload.get("seconds", 0.0)),
            observed_correct=bool(payload.get("observed_correct", False)),
            expected_correct=bool(payload.get("expected_correct", True)),
            instances=int(payload.get("instances", 0)),
            sweeps=int(payload.get("sweeps", 0)),
            summary=payload.get("summary", ""),
            engine_stats=dict(payload.get("engine_stats", {})),
            details=dict(payload.get("details", {})),
            spec_digest=payload.get("spec_digest", ""),
            jobs_computed=int(payload.get("jobs_computed", 0)),
            jobs_replayed=int(payload.get("jobs_replayed", 0)),
            resumed=bool(payload.get("resumed", False)),
            phase_seconds={
                k: float(v) for k, v in dict(payload.get("phase_seconds", {})).items()
            },
        )


@dataclass
class CampaignReport:
    """Aggregate outcome of a campaign run, JSON-serialisable."""

    name: str
    engine: str
    quick: bool
    results: List[ScenarioResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """``True`` when every scenario behaved as expected."""
        return all(r.ok for r in self.results)

    @property
    def jobs_replayed(self) -> int:
        """Total jobs replayed from a verdict store across all scenarios."""
        return sum(r.jobs_replayed for r in self.results)

    @property
    def jobs_computed(self) -> int:
        """Total jobs freshly computed across all scenarios."""
        return sum(r.jobs_computed for r in self.results)

    #: Parallel-backend counters aggregated into the report head, so a
    #: regression (forks per sweep creeping up, payloads re-shipped every
    #: batch) is observable in the JSON without trawling per-scenario stats.
    #: Sourced from the typed metric declarations so the wire keys are
    #: declared exactly once (:data:`repro.obs.metrics.POOL_COUNTERS`).
    PARALLEL_COUNTER_KEYS = tuple(sorted(metric.name for metric in POOL_COUNTERS))

    def parallel_stats(self) -> Dict[str, int]:
        """Sum of the parallel-backend counters across all scenarios."""
        totals = {key: 0 for key in self.PARALLEL_COUNTER_KEYS}
        for result in self.results:
            for key in self.PARALLEL_COUNTER_KEYS:
                totals[key] += int(result.engine_stats.get(key, 0))
        return totals

    def as_dict(self) -> Dict[str, Any]:
        return {
            "campaign": self.name,
            "engine": self.engine,
            "quick": self.quick,
            "ok": self.ok,
            "jobs_computed": self.jobs_computed,
            "jobs_replayed": self.jobs_replayed,
            "parallel": self.parallel_stats(),
            "scenarios": [r.as_dict() for r in self.results],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CampaignReport":
        """Rebuild a report from its JSON record (used by ``--resume``)."""
        return cls(
            name=payload.get("campaign", "campaign"),
            engine=payload.get("engine", "per-scenario"),
            quick=bool(payload.get("quick", False)),
            results=[ScenarioResult.from_dict(s) for s in payload.get("scenarios", [])],
        )

    def summary_table(self) -> str:
        """Aligned text table of all scenario outcomes."""
        from ..analysis.reporting import format_table

        rows = [
            [
                r.name,
                r.kind,
                r.engine,
                f"{r.seconds:.3f}s",
                r.instances,
                r.sweeps,
                "resumed" if r.resumed else f"{r.jobs_replayed}/{r.jobs_replayed + r.jobs_computed}",
                "ok" if r.ok else "UNEXPECTED",
                r.summary,
            ]
            for r in self.results
        ]
        return format_table(
            ["scenario", "kind", "engine", "time", "instances", "sweeps", "replayed", "status", "summary"],
            rows,
            title=f"campaign {self.name!r} ({'quick' if self.quick else 'full'})",
        )
