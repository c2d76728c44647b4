"""Adversarial counterexample search and shrinking.

The paper's separations hinge on *exhibiting* identifier assignments that
defeat candidate deciders; this subsystem turns that exhibition into a
guided, batched, resumable workload instead of exhaustive enumeration:

* :mod:`repro.adversary.strategies` — the :class:`SearchStrategy`
  protocol and its deterministic, seedable implementations (exhaustive,
  random, mutation/hill-climbing guided by the defeat-ward node count);
* :mod:`repro.adversary.search` — :func:`find_counterexample`, the driver
  that proposes candidate batches and evaluates them through the engines'
  batched :meth:`~repro.engine.base.ExecutionEngine.run_many` seam (so
  :class:`~repro.engine.parallel.ParallelEngine` shards the hunt and a
  verdict store replays probes across resumed hunts), and the per-instance
  :func:`hunt_instance` it runs on each instance, no-instances first;
* :mod:`repro.adversary.shrink` — delta-debugging minimisation of found
  counter-examples to fewest nodes and smallest identifiers
  (:func:`shrink_counterexample` → :class:`MinimalCounterExample`);
* :mod:`repro.adversary.candidates` — identifier-dependent trap deciders
  wrong only in an exponentially small corner of the assignment space,
  the workloads the campaign's search scenarios hunt;
* :mod:`repro.adversary.cli` — the ``python -m repro.adversary`` command:
  the campaign's ``search`` scenarios run through the shared sweep path
  (:func:`repro.campaign.cli.run_sweep`), with ``--strategy``,
  ``--budget`` and ``--compare`` as spec overrides.
"""

from .candidates import LazyGuardColouringDecider, ParityAuditMISDecider
from .search import (
    InstanceHunt,
    SearchReport,
    default_pool,
    find_counterexample,
    hunt_instance,
)
from .shrink import MinimalCounterExample, shrink_counterexample
from .strategies import (
    ExhaustiveStrategy,
    HillClimbStrategy,
    RandomStrategy,
    SearchStrategy,
    resolve_strategy,
    strategy_names,
)

__all__ = [
    "SearchStrategy",
    "ExhaustiveStrategy",
    "RandomStrategy",
    "HillClimbStrategy",
    "resolve_strategy",
    "strategy_names",
    "InstanceHunt",
    "SearchReport",
    "default_pool",
    "hunt_instance",
    "find_counterexample",
    "MinimalCounterExample",
    "shrink_counterexample",
    "LazyGuardColouringDecider",
    "ParityAuditMISDecider",
]
