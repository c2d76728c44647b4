"""Budgeted sampling over the streaming workload matrix.

A million-cell cross cannot be swept exhaustively on every run; this module
chooses *which* cells a budgeted sweep spends its executions on, in two
modes:

* :func:`stratified_sample` — split the budget into per-stratum quotas
  (default strata: family x property) and draw a seeded reservoir sample
  inside each stratum while streaming the cross once, so every stratum is
  represented and memory stays O(budget + strata) no matter how many cells
  the cross expands to;
* :func:`importance_sample` — read a prior :class:`~repro.campaign.spec.CampaignReport`
  and spend the budget on the cells whose verdicts are *interesting*:
  never measured (or stale digest), flipped against expectation, or
  near-defeat (hunts that found a defeating assignment or nearly exhausted
  their budget).  Stable cells are replayed from the prior report / verdict
  store instead of re-run; leftover budget rotates deterministically
  through the stable cells so long-running campaigns re-validate them over
  time.

Both return a :class:`SamplePlan`: a JSON-serialisable record of the
selection with its own SHA-256 digest, so a sampled sweep is resumable —
re-deriving the plan from the same ``(seed, budget, strata, filters)``
reproduces the selection byte-for-byte, and a saved plan file pins it
across processes and machines.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..campaign.spec import CampaignReport, ScenarioResult, ScenarioSpec
from .matrix import WorkloadCell, WorkloadMatrix

__all__ = [
    "SamplePlan",
    "STRATUM_AXES",
    "stratified_sample",
    "importance_sample",
]

#: Axes a stratified sample may stratify on, mapping to the cell attribute.
STRATUM_AXES: Tuple[str, ...] = ("family", "property", "construction", "regime", "kind")

#: Importance scores (higher = more budget-worthy; 0 = replay).
SCORE_MISSING = 4  # never measured, or recorded under a stale digest
SCORE_FLIPPED = 3  # prior verdict contradicted the expectation
SCORE_NEAR_DEFEAT = 2  # hunts that found a defeat or nearly exhausted budget
SCORE_STABLE = 0


def _stratum_of(family, axis, construction, regime, strata: Tuple[str, ...]) -> Tuple[str, ...]:
    """The stratum label of one base combo under the chosen axes."""
    values = {
        "family": family.name,
        "property": axis.name,
        "construction": construction.name,
        "regime": regime.name,
        "kind": regime.kind,
    }
    return tuple(values[axis_name] for axis_name in strata)


def _stratum_rng(seed: int, stratum: Tuple[str, ...]) -> random.Random:
    """A deterministic per-stratum RNG independent of stratum enumeration order."""
    token = hashlib.sha256(f"{seed}|{'|'.join(stratum)}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(token[:8], "big"))


def _tiebreak(seed: int, name: str) -> int:
    """Deterministic pseudo-random rank used to break score ties cell-by-cell."""
    token = hashlib.sha256(f"{seed}#{name}".encode("utf-8")).digest()
    return int.from_bytes(token[:8], "big")


def _normalise_filters(filters: Dict[str, object]) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
    """Canonicalise the axis filters for serialisation and digesting."""
    out = []
    for key in sorted(filters):
        value = filters[key]
        if value is None:
            continue
        if isinstance(value, str):
            value = (value,)
        out.append((key, tuple(sorted(value))))
    return tuple(out)


@dataclass(frozen=True)
class SamplePlan:
    """A deterministic, digestable selection of matrix cells to run.

    ``selected`` lists the chosen cell names in matrix stream order (the
    order a sweep visits them); ``replayed_count`` counts the cells the
    plan deliberately skips — a budgeted sweep replays their verdicts from
    the prior report or the verdict store instead of re-running them.
    ``filters`` records the axis filters the plan was drawn under, so the
    same slice of the cross can be re-streamed when the plan is executed.
    """

    mode: str  # "stratified" | "importance"
    matrix_seed: int
    seed: int
    budget: int
    strata: Tuple[str, ...]
    selected: Tuple[str, ...]
    replayed_count: int
    total_cells: int
    filters: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()
    source_digest: str = ""  # importance mode: digest of the prior report payload
    stratum_counts: Tuple[Tuple[str, int, int], ...] = field(default=())

    def digest(self) -> str:
        """SHA-256 over the canonical JSON payload: the plan's identity."""
        payload = self.as_dict()
        payload.pop("digest", None)
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready record of the plan (digest included)."""
        return {
            "mode": self.mode,
            "matrix_seed": self.matrix_seed,
            "seed": self.seed,
            "budget": self.budget,
            "strata": list(self.strata),
            "selected": list(self.selected),
            "replayed_count": self.replayed_count,
            "total_cells": self.total_cells,
            "filters": [[key, list(values)] for key, values in self.filters],
            "source_digest": self.source_digest,
            "stratum_counts": [list(row) for row in self.stratum_counts],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SamplePlan":
        """Rebuild a plan from its JSON record."""
        return cls(
            mode=str(payload["mode"]),
            matrix_seed=int(payload["matrix_seed"]),
            seed=int(payload["seed"]),
            budget=int(payload["budget"]),
            strata=tuple(payload.get("strata", ())),
            selected=tuple(payload["selected"]),
            replayed_count=int(payload.get("replayed_count", 0)),
            total_cells=int(payload.get("total_cells", 0)),
            filters=tuple(
                (key, tuple(values)) for key, values in payload.get("filters", ())
            ),
            source_digest=str(payload.get("source_digest", "")),
            stratum_counts=tuple(
                (row[0], int(row[1]), int(row[2])) for row in payload.get("stratum_counts", ())
            ),
        )

    def save(self, path: Union[str, Path]) -> Path:
        """Write the plan (with its digest) as JSON and return the path."""
        path = Path(path)
        payload = self.as_dict()
        payload["digest"] = self.digest()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SamplePlan":
        """Load a saved plan, verifying its recorded digest when present."""
        payload = json.loads(Path(path).read_text())
        recorded = payload.get("digest")
        plan = cls.from_dict(payload)
        if recorded is not None and recorded != plan.digest():
            raise ValueError(
                f"sample plan {path} is corrupt: recorded digest {recorded[:12]}... "
                f"does not match recomputed {plan.digest()[:12]}..."
            )
        return plan

    def filter_kwargs(self) -> Dict[str, object]:
        """The recorded axis filters as ``iter_cells`` keyword arguments."""
        return {key: list(values) for key, values in self.filters}

    def iter_specs(self, matrix: WorkloadMatrix) -> Iterator[ScenarioSpec]:
        """Stream the selected cells' specs from ``matrix`` in plan order."""
        if not self.selected:
            return iter(())
        return matrix.iter_scenarios(names=self.selected, **self.filter_kwargs())

    def summary(self) -> str:
        """One-line human-readable description of the plan."""
        head = (
            f"{self.mode} plan: {len(self.selected)}/{self.total_cells} cells selected "
            f"(budget {self.budget}, seed {self.seed}, {self.replayed_count} replayed), "
            f"digest {self.digest()[:12]}"
        )
        if self.strata:
            head += f", strata {'x'.join(self.strata)}"
        return head


def _check_strata(strata: Sequence[str]) -> Tuple[str, ...]:
    strata = tuple(strata)
    unknown = sorted(set(strata) - set(STRATUM_AXES))
    if not strata:
        raise ValueError("at least one stratification axis is required")
    if unknown:
        raise ValueError(f"unknown stratum axis name(s) {unknown}; choose from {list(STRATUM_AXES)}")
    return strata


def stratified_sample(
    matrix: WorkloadMatrix,
    budget: int,
    seed: int = 0,
    strata: Sequence[str] = ("family", "property"),
    **filters,
) -> SamplePlan:
    """Draw a seeded stratified sample of ``budget`` cells from the matrix.

    The budget splits into per-stratum quotas (equal shares, the remainder
    going to the earliest strata in matrix order), and each stratum keeps a
    reservoir sample (Algorithm R, per-stratum seeded RNG) while the cross
    streams past exactly once.  Memory is O(budget + strata); the same
    ``(matrix seed, budget, seed, strata, filters)`` always produces the
    same plan, independent of platform or process count.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    strata = _check_strata(strata)

    # The stratum universe comes from the (cheap) base combos, so quotas
    # are known before the variant-expanded cross streams.
    universe: List[Tuple[str, ...]] = []
    seen_universe = set()
    for family, axis, construction, regime in matrix._iter_combos(**filters):
        label = _stratum_of(family, axis, construction, regime, strata)
        if label not in seen_universe:
            seen_universe.add(label)
            universe.append(label)
    if not universe:
        raise ValueError("the filters admit no cells to sample from")

    base, extra = divmod(budget, len(universe))
    quotas = {
        label: base + (1 if idx < extra else 0) for idx, label in enumerate(universe)
    }
    rngs = {label: _stratum_rng(seed, label) for label in universe}
    reservoirs: Dict[Tuple[str, ...], List[Tuple[int, str]]] = {label: [] for label in universe}
    seen_counts = {label: 0 for label in universe}

    # The draw never needs a spec — only names and strata — so it streams
    # the cheap name universe (same deterministic order as ``iter_cells``),
    # an order of magnitude faster over million-cell crosses.
    total = 0
    for family, axis, construction, regime in matrix._iter_combos(**filters):
        label = _stratum_of(family, axis, construction, regime, strata)
        quota = quotas[label]
        reservoir = reservoirs[label]
        rng = rngs[label]
        for variant in matrix._iter_variants():
            name = matrix._cell_name(family, axis, construction, regime, variant)
            index = total
            total += 1
            seen_counts[label] += 1
            if quota == 0:
                continue
            if len(reservoir) < quota:
                reservoir.append((index, name))
            else:
                j = rng.randrange(seen_counts[label])
                if j < quota:
                    reservoir[j] = (index, name)

    chosen = sorted(pair for reservoir in reservoirs.values() for pair in reservoir)
    selected = tuple(name for _, name in chosen)
    return SamplePlan(
        mode="stratified",
        matrix_seed=matrix.seed,
        seed=seed,
        budget=budget,
        strata=strata,
        selected=selected,
        replayed_count=total - len(selected),
        total_cells=total,
        filters=_normalise_filters(filters),
        stratum_counts=tuple(
            ("|".join(label), len(reservoirs[label]), seen_counts[label]) for label in universe
        ),
    )


def _importance_score(
    cell: WorkloadCell,
    prior: Optional[ScenarioResult],
    quick: bool,
    near_defeat_fraction: float,
) -> int:
    """Score one cell's budget-worthiness against its prior result."""
    if prior is None or not prior.settles(cell.spec, quick):
        return SCORE_MISSING
    if not prior.ok:
        return SCORE_FLIPPED
    if cell.spec.kind == "search":
        budget = cell.spec.search_budget(quick) * max(1, prior.instances)
        executions = int(prior.details.get("executions", prior.sweeps))
        if prior.details.get("found") or executions >= near_defeat_fraction * budget:
            return SCORE_NEAR_DEFEAT
    return SCORE_STABLE


def importance_sample(
    matrix: WorkloadMatrix,
    budget: int,
    prior: Union[str, Path, CampaignReport],
    seed: int = 0,
    quick: bool = False,
    near_defeat_fraction: float = 0.8,
    **filters,
) -> SamplePlan:
    """Spend ``budget`` on the cells a prior report marks as interesting.

    Cells are scored against the prior :class:`~repro.campaign.spec.CampaignReport`
    (a report object or a path to its JSON): never-measured or
    stale-digest cells score highest, then verdicts that flipped against
    expectation, then near-defeat hunts (a counterexample was found, or
    ``near_defeat_fraction`` of the search budget was consumed).  The
    top-``budget`` cells by ``(score, deterministic per-seed tiebreak)``
    are selected; everything else is replayed.  Leftover budget beyond the
    interesting cells rotates through stable cells deterministically per
    seed, so repeated importance sweeps re-validate the stable region over
    time.  Memory is O(budget + |prior report|) over any cross size.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if isinstance(prior, (str, Path)):
        payload_text = Path(prior).read_text()
        source_digest = hashlib.sha256(payload_text.encode("utf-8")).hexdigest()
        report = CampaignReport.from_dict(json.loads(payload_text))
    else:
        report = prior
        source_digest = hashlib.sha256(
            json.dumps(report.as_dict(), sort_keys=True).encode("utf-8")
        ).hexdigest()
    prior_by_name = {result.name: result for result in report.results}

    # Keep the best `budget` cells on a min-heap: the worst survivor —
    # lowest score, then largest tiebreak — sits at the root and is
    # evicted as better cells stream past.
    heap: List[Tuple[int, int, int, str]] = []

    def push(entry: Tuple[int, int, int, str]) -> None:
        if len(heap) < budget:
            heapq.heappush(heap, entry)
        else:
            heapq.heappushpop(heap, entry)

    # Pass 1 — the cheap name stream: cells absent from the prior report
    # score SCORE_MISSING without a spec ever being built, so a small
    # report against a million-cell cross stays fast.
    prior_positions: Dict[str, int] = {}
    total = 0
    for family, axis, construction, regime in matrix._iter_combos(**filters):
        for variant in matrix._iter_variants():
            name = matrix._cell_name(family, axis, construction, regime, variant)
            if name in prior_by_name:
                prior_positions[name] = total
            else:
                push((SCORE_MISSING, -_tiebreak(seed, name), total, name))
            total += 1
    # Pass 2 — only the cells the prior actually measured need their spec
    # (digest staleness, search budgets): O(|report|) spec constructions.
    if prior_positions:
        for cell in matrix.iter_cells(names=sorted(prior_positions), **filters):
            score = _importance_score(
                cell, prior_by_name[cell.name], quick, near_defeat_fraction
            )
            push((score, -_tiebreak(seed, cell.name), prior_positions[cell.name], cell.name))

    chosen = sorted((index, name) for _score, _tb, index, name in heap)
    selected = tuple(name for _, name in chosen)
    return SamplePlan(
        mode="importance",
        matrix_seed=matrix.seed,
        seed=seed,
        budget=budget,
        strata=(),
        selected=selected,
        replayed_count=total - len(selected),
        total_cells=total,
        filters=_normalise_filters(filters),
        source_digest=source_digest,
    )
