"""Lifecycle of the persistent worker pool behind the ParallelEngine.

The pool is process-wide and lazily created, so these tests bracket
themselves with ``shutdown_pool()`` to start from a known-cold state; the
pool re-forks lazily afterwards, so shutting it down never breaks later
tests.  The load-bearing claims: workers survive across sweeps with zero
re-forks, identical payloads are never re-shipped, a killed worker is
replaced without losing a batch, shutdown is idempotent, an unpicklable
decider runs in-process, a worker that cannot unpickle a payload is
replaced by a fresh fork, verdict-store replay happens in the parent only
(workers never open the store), and an adaptive engine routes a batch by
its size alone, whatever ran before it.
"""

import os
import signal
import sys
import time
import types

import pytest

from repro.engine import (
    POOL_MIN_UNITS,
    CachedEngine,
    ParallelEngine,
    PersistentEngine,
    VerdictStore,
    get_pool,
    shutdown_pool,
)
from repro.graphs import cycle_graph, path_graph
from repro.local_model import NO, YES, FunctionIdObliviousAlgorithm
from repro.obs.metrics import STORE_COMPUTED, STORE_REPLAYED


class Deg2Decider:
    """Module-level (hence picklable) Id-oblivious cycle decider."""

    name = "deg2"
    radius = 1
    uses_identifiers = False

    def evaluate(self, view):
        return YES if view.center_degree() == 2 else NO


class CoinAlgorithm:
    """Module-level picklable randomised algorithm."""

    name = "coin"
    radius = 1
    uses_identifiers = False

    def evaluate(self, view, rng):
        return YES if rng.random() < 0.5 else NO


class ExplodingDecider:
    """Module-level decider whose every evaluation raises."""

    name = "exploding"
    radius = 1
    uses_identifiers = False

    def evaluate(self, view):
        raise ZeroDivisionError("boom")


def _jobs(count=8, size=12):
    return [(cycle_graph(size, label="x"), None) for _ in range(count)]


@pytest.fixture
def cold_pool():
    shutdown_pool()
    yield get_pool()
    shutdown_pool()


# ---------------------------------------------------------------------- #
# Persistence across sweeps
# ---------------------------------------------------------------------- #


def test_pool_survives_sweeps_with_zero_reforks(cold_pool):
    engine = ParallelEngine(workers=2, adaptive=False)
    jobs = _jobs()
    first = engine.run_many(Deg2Decider(), jobs)
    assert first == CachedEngine().run_many(Deg2Decider(), jobs)
    forks_warm = cold_pool.forks
    assert forks_warm >= 2  # the one-off fork tax
    for _ in range(3):
        engine.reset_stats()
        assert engine.run_many(Deg2Decider(), jobs) == first
        # Workers persist: the three follow-up sweeps re-fork nothing.
        assert cold_pool.forks == forks_warm
        assert engine.stats.extra.get("parallel_forks", 0) == 0
        assert engine.stats.extra.get("parallel_batches") == 1


@pytest.mark.parametrize("randomised", [False, True], ids=["run_many", "run_randomised_many"])
def test_identical_payload_is_shipped_once(cold_pool, randomised):
    engine = ParallelEngine(workers=2, adaptive=False)
    if randomised:
        algorithm, sweep = CoinAlgorithm(), engine.run_randomised_many
        jobs = [(graph, ids, 100 + k) for k, (graph, ids) in enumerate(_jobs())]
    else:
        algorithm, sweep = Deg2Decider(), engine.run_many
        jobs = _jobs()
    first = sweep(algorithm, jobs)
    ships = cold_pool.payload_ships
    bytes_shipped = cold_pool.payload_ship_bytes
    assert ships >= 1 and bytes_shipped > 0
    for _ in range(3):
        assert sweep(algorithm, jobs) == first
    # Same algorithm object + same job list => same generation: nothing
    # but chunk indices travelled in the warm sweeps.
    assert cold_pool.payload_ships == ships
    assert cold_pool.payload_ship_bytes == bytes_shipped
    if randomised:
        # The same graphs under a changed seed are a new generation.
        reseeded = list(jobs)
        reseeded[0] = (jobs[0][0], jobs[0][1], 999)
        sweep(algorithm, reseeded)
    else:
        # A different job list is a new generation and ships again.
        sweep(algorithm, _jobs(count=6))
    assert cold_pool.payload_ships > ships


def test_pool_is_shared_across_engine_instances(cold_pool):
    jobs = _jobs()
    ParallelEngine(workers=2, adaptive=False).run_many(Deg2Decider(), jobs)
    forks_warm = cold_pool.forks
    # A second engine (a campaign builds one per scenario) reuses the
    # same live workers instead of forking its own.
    engine = ParallelEngine(workers=2, adaptive=False)
    engine.run_many(Deg2Decider(), jobs)
    assert cold_pool.forks == forks_warm


# ---------------------------------------------------------------------- #
# Lifecycle: shutdown, context manager, recovery
# ---------------------------------------------------------------------- #


def test_shutdown_is_idempotent_and_pool_recovers(cold_pool):
    engine = ParallelEngine(workers=2, adaptive=False)
    jobs = _jobs()
    expected = engine.run_many(Deg2Decider(), jobs)
    assert cold_pool.alive_workers() == 2
    shutdown_pool()
    assert cold_pool.alive_workers() == 0
    shutdown_pool()  # idempotent: a second shutdown is a no-op
    engine.shutdown()  # and the engine-level seam is too
    assert cold_pool.alive_workers() == 0
    # The pool re-forks lazily and the next sweep still works.
    assert engine.run_many(Deg2Decider(), jobs) == expected
    assert cold_pool.alive_workers() == 2


def test_parallel_engine_is_a_context_manager(cold_pool):
    jobs = _jobs()
    with ParallelEngine(workers=2, adaptive=False) as engine:
        expected = engine.run_many(Deg2Decider(), jobs)
        assert cold_pool.alive_workers() == 2
    assert cold_pool.alive_workers() == 0
    assert expected == CachedEngine().run_many(Deg2Decider(), jobs)


def test_killed_worker_is_replaced_without_losing_the_batch(cold_pool):
    engine = ParallelEngine(workers=2, adaptive=False)
    decider = Deg2Decider()
    jobs = _jobs()
    expected = engine.run_many(decider, jobs)
    victim = cold_pool._handles[0].process
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=5.0)
    deaths = cold_pool.deaths_recovered
    engine.reset_stats()
    assert engine.run_many(decider, jobs) == expected
    assert cold_pool.deaths_recovered == deaths + 1
    assert cold_pool.alive_workers() == 2


def test_worker_error_propagates_and_pool_stays_usable(cold_pool):
    engine = ParallelEngine(workers=2, adaptive=False)
    with pytest.raises(ZeroDivisionError, match="boom"):
        engine.run_many(ExplodingDecider(), _jobs())
    # The failure neither killed the workers nor desynchronised the pipes.
    assert cold_pool.alive_workers() == 2
    assert engine.run_many(Deg2Decider(), _jobs()) == CachedEngine().run_many(Deg2Decider(), _jobs())


# ---------------------------------------------------------------------- #
# Payloads travel pickled, or not at all
# ---------------------------------------------------------------------- #


def test_unpicklable_decider_runs_in_process(cold_pool):
    decider = FunctionIdObliviousAlgorithm(
        lambda view: YES if view.center_degree() == 2 else NO, radius=1, name="lambda-deg2"
    )
    engine = ParallelEngine(workers=2, adaptive=False)
    jobs = _jobs()
    counters = cold_pool.counters()
    outputs = engine.run_many(decider, jobs)
    assert outputs == CachedEngine().run_many(decider, jobs)
    # Nothing was forked or shipped: the batch never reached the pool.
    assert cold_pool.counters() == counters
    assert cold_pool.alive_workers() == 0
    assert "parallel_batches" not in engine.stats.extra
    # A warm pool changes nothing: the next picklable batch uses it, the
    # unpicklable one still runs in-process.
    engine.run_many(Deg2Decider(), jobs)
    counters = cold_pool.counters()
    assert engine.run_many(decider, jobs) == outputs
    assert cold_pool.counters() == counters


_LATE_MODULE_SOURCE = """
from repro.local_model import NO, YES


class LateDeg2Decider:
    name = "late-deg2"
    radius = 1
    uses_identifiers = False

    def evaluate(self, view):
        return YES if view.center_degree() == 2 else NO
"""


def test_worker_forked_before_a_class_existed_is_replaced(cold_pool):
    engine = ParallelEngine(workers=2, adaptive=False)
    jobs = _jobs()
    engine.run_many(Deg2Decider(), jobs)  # warm: both workers forked now
    forks = cold_pool.forks
    # A class importable only after the workers forked: it pickles by
    # reference in the parent, but the warm workers cannot resolve it.
    module = types.ModuleType("late_pool_deciders")
    exec(_LATE_MODULE_SOURCE, module.__dict__)
    sys.modules[module.__name__] = module
    try:
        decider = module.LateDeg2Decider()
        engine.reset_stats()
        outputs = engine.run_many(decider, jobs)
        assert outputs == CachedEngine().run_many(decider, jobs)
        # Each worker answered payload-error, was replaced by a fresh fork
        # and shipped the payload again; the batch still ran on the pool.
        assert engine.stats.extra["parallel_batches"] == 1
        assert cold_pool.forks == forks + 2
        assert engine.stats.extra["worker_deaths_recovered"] == 2
        assert cold_pool.alive_workers() == 2
    finally:
        del sys.modules[module.__name__]


# ---------------------------------------------------------------------- #
# Store replay stays in the parent
# ---------------------------------------------------------------------- #


def test_store_replay_happens_only_in_the_parent(cold_pool, tmp_path):
    decider = Deg2Decider()
    jobs = [(cycle_graph(n, label="x"), None) for n in (9, 10, 11, 12, 13, 14)]
    store_dir = tmp_path / "store"
    # Settle every job on disk through a plain serial store wrapper.
    with VerdictStore(store_dir) as store:
        PersistentEngine(store, inner=CachedEngine()).run_many(decider, jobs)
    # The default front holds every entry; a 1-entry front evicts all but
    # one, so five jobs miss in the parent and are sent to the inner engine.
    for front in (100_000, 1):
        seen = {}
        for label, inner in (("serial", CachedEngine()), ("parallel", ParallelEngine(workers=2, adaptive=False))):
            with VerdictStore(store_dir, max_memory_entries=front) as store:
                engine = PersistentEngine(store, inner=inner)
                outputs = engine.run_many(decider, jobs)
            seen[label] = (outputs, engine.stats.get(STORE_REPLAYED), engine.stats.get(STORE_COMPUTED))
            if label == "parallel" and front == 1:
                assert engine.stats.extra["parallel_batches"] == 1  # the misses reached the pool
        assert seen["parallel"] == seen["serial"]
        _, replayed, computed = seen["serial"]
        assert (replayed, computed) == ((len(jobs), 0) if front > 1 else (1, len(jobs) - 1))
        # Nothing but the parent ever wrote to the store.
        assert [p.name for p in store_dir.glob("*.jsonl")] == [f"segment-{os.getpid()}.jsonl"]


# ---------------------------------------------------------------------- #
# Routing
# ---------------------------------------------------------------------- #


class SlowDeg2Decider(Deg2Decider):
    """Deg2Decider that takes 20 ms per evaluation."""

    name = "slow-deg2"

    def evaluate(self, view):
        time.sleep(0.02)
        return super().evaluate(view)


def test_routing_depends_only_on_the_batch(cold_pool):
    engine = ParallelEngine(workers=2)  # adaptive
    forks_before = cold_pool.forks
    # A small batch with a slow decider stays in-process on a cold pool and
    # forks nothing.  A model that learns rates from past batches would
    # now rate in-process work as slow and send small batches to the pool.
    slow_jobs = [(path_graph(6, label="routing-slow"), None) for _ in range(4)]
    outputs = engine.run_many(SlowDeg2Decider(), slow_jobs)
    assert outputs == CachedEngine().run_many(Deg2Decider(), slow_jobs)
    assert cold_pool.forks == forks_before
    assert "parallel_batches" not in engine.stats.extra
    # Warm the pool with one forced batch.
    ParallelEngine(workers=2, adaptive=False).run_many(Deg2Decider(), _jobs())
    assert cold_pool.alive_workers() == 2
    # Below POOL_MIN_UNITS: in-process, although the pool is warm.
    small = [(path_graph(6, label="routing-small"), None) for _ in range(4)]
    assert sum(g.num_nodes() * (Deg2Decider.radius + 1) for g, _ in small) < POOL_MIN_UNITS
    batches = cold_pool.batches
    assert engine.run_many(Deg2Decider(), small) == CachedEngine().run_many(Deg2Decider(), small)
    assert cold_pool.batches == batches
    # At or above POOL_MIN_UNITS: the pool.
    size = 32
    large = [(cycle_graph(size, label="routing-large"), None) for _ in range(POOL_MIN_UNITS // (2 * size) + 1)]
    assert engine.run_many(Deg2Decider(), large) == CachedEngine().run_many(Deg2Decider(), large)
    assert cold_pool.batches == batches + 1
