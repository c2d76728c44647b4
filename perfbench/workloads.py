"""The benchmark's workloads: one closed-loop client each, inputs made from the seed.

Every workload runs *batches*.  A batch is one or more operations; each
operation is timed from outside the program and checked against a
reference.  ``batch(k)`` depends only on the seed and ``k``, so the same
seed gives the same inputs.  ``setup`` builds the inputs and warms the
program up; it is timed separately from the batches.

Each class records why it was chosen (``why``), which per-layer metrics
it must exercise (``exercises``: the traced run fails if one reads zero)
and which layers it is predicted to leave unmoved (``unmoved``).
"""

from __future__ import annotations

import hashlib
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Hashable, List, Optional, Tuple

from repro.campaign.runner import run_campaign
from repro.decision import InstanceFamily, estimate_acceptance_probability, verify_decider
from repro.engine import CachedEngine, DirectEngine, ParallelEngine, default_engine, get_pool, reset_shared_local_engine, shutdown_pool
from repro.local_model import YES
from repro.graphs import BoundedIdentifierSpace, cycle_graph, grid_graph, path_graph, random_regular_graph, torus_graph
from repro.obs.metrics import BALL_TABLES_GROWN, INTERN_CACHE_HITS, INTERN_CACHE_MISSES, global_metrics
from repro.separation.computability import RandomisedObliviousDecider, build_execution_graph
from repro.turing import halting_machine
from repro.workloads.matrix import default_matrix

from deciders import CycleDecider, CubicDecider, ThresholdCycleDecider, cycle_property
from layers import Recorder, span_spec_builds

_now = time.perf_counter


def derive(seed: int, *parts: object) -> int:
    """A stable 63-bit integer derived from the workload seed and ``parts``."""
    token = "|".join(str(p) for p in (seed,) + parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(token).digest()[:8], "big") >> 1


@dataclass
class Op:
    """One timed operation: latency, jobs settled, verdict check, verdict signature."""

    seconds: float
    jobs: int
    ok: bool
    signature: Hashable


@dataclass
class Batch:
    """Operations of one batch and the time spent inside the program for them."""

    ops: List[Op]
    busy_s: float


class Workload:
    """Interface every workload implements."""

    name = ""
    why = ""
    op_unit = ""
    job_unit = ""
    #: Name of the job rate in the report (``trials_per_s`` where jobs are trials).
    job_rate_name = "jobs_per_s"
    exercises: Tuple[str, ...] = ()
    unmoved: Tuple[str, ...] = ()
    #: Processes that compute at once (the speed probe runs on as many).
    processes = 1
    #: Whether each round is scaled by the machine speed measured during it
    #: (else by the speed over the whole run).
    scale_per_round = True
    #: Batches per round of the timed loop; rates are medians over rounds.
    round_batches = 1
    #: Batches in the fixed pass the traced run repeats (untraced, traced, untraced).
    fixed_batches = 1
    #: Whether the three fixed passes reuse the same batch indices (the pool
    #: workload may never repeat a graph, so it moves on instead).
    repeat_fixed_inputs = True

    def __init__(self, work_dir: Path, recorder: Optional[Recorder] = None) -> None:
        self.work_dir = work_dir
        self.recorder = recorder
        #: The timed loop's speed probe while it runs (else ``None``); a
        #: workload with long batches samples it between operations and
        #: leaves the time spent there out of its busy time.
        self.probe = None

    def setup(self, seed: int) -> None:
        """Build the inputs for ``seed`` and warm the program up."""
        raise NotImplementedError

    def pause_for_probe(self) -> float:
        """Sample the speed probe, if one is set, between two operations; return the seconds spent."""
        if self.probe is None:
            return 0.0
        started = _now()
        self.probe.sample()
        return _now() - started

    def batch(self, k: int) -> Batch:
        """Run batch ``k`` and return its timed, checked operations."""
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """Cumulative exact counters the traced run turns into per-layer deltas."""
        registry = global_metrics()
        return {
            "intern_hits": registry.get(INTERN_CACHE_HITS),
            "intern_misses": registry.get(INTERN_CACHE_MISSES),
            "ball_tables": registry.get(BALL_TABLES_GROWN),
        }

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer metrics the workload measures itself (not from spans)."""
        return {}

    def report(self) -> Dict[str, float]:
        """Workload-specific figures for the human-readable report of a timed run."""
        return {}

    def close(self) -> None:
        """Release processes and files."""


def _single_op(seconds: float, jobs: int, ok: bool, signature: Hashable) -> Batch:
    return Batch([Op(seconds, jobs, ok, signature)], seconds)


def _engine_counters(stats) -> Dict[str, float]:
    return {"evaluations": stats.evaluations, "evaluation_hits": stats.evaluation_hits}


# ---------------------------------------------------------------------- #
# verify
# ---------------------------------------------------------------------- #


class VerifyWorkload(Workload):
    """Repeated ``verify_decider`` calls on the default engine."""

    name = "verify"
    why = (
        "The paper's 'for every Id' sweep: repeated verify_decider calls on the default engine, "
        "where time goes to identifier generation, interned views and verdict aggregation."
    )
    op_unit = "verify_decider call"
    job_unit = "(graph, Id) job"
    exercises = (
        "graphs.assign_s", "graphs.assignments", "interned.intern_s", "interned.intern_hit_ratio",
        "interned.views_s", "engine.evaluate_s", "engine.evaluations", "decision.aggregate_s",
    )
    # Ball tables are grown once per graph during the warm-up and cached on
    # the interned graph, so interned.ball_tables reads 0 in the timed pass.
    unmoved = ("graphs.extract", "interned.key", "store", "pool", "campaign", "adversary", "workloads")

    INSTANCES = 24
    SAMPLES = 16

    def setup(self, seed: int) -> None:
        """Seeded cycles and paths, two deciders; warm-up interns every graph."""
        rng = random.Random(derive(seed, "verify"))
        # One size per stratum of [64, 512], so every seed has the same spread of work.
        width = (512 - 64) // self.INSTANCES
        sizes = [64 + index * width + rng.randrange(width) for index in range(self.INSTANCES)]
        kinds = [True, False] * (self.INSTANCES // 2)
        rng.shuffle(kinds)
        prop = cycle_property()
        families = []
        for is_cycle, n in zip(kinds, sizes):
            if is_cycle:
                families.append(InstanceFamily(name=f"cycle-{n}", yes_instances=[cycle_graph(n)]))
            else:
                families.append(InstanceFamily(name=f"path-{n}", no_instances=[path_graph(n)]))
        pairs = [(family, decider) for family in families for decider in (CycleDecider(), ThresholdCycleDecider())]
        rng.shuffle(pairs)
        self.pairs = pairs
        self.prop = prop
        self.id_space = BoundedIdentifierSpace()
        self.seed = seed
        self.fixed_batches = self.round_batches = len(pairs)
        for k in range(len(pairs)):  # warm-up: intern every graph, grow its ball tables
            self.batch(k)
            self.pause_for_probe()

    def batch(self, k: int) -> Batch:
        """One ``verify_decider`` call on one (instance, decider) pair."""
        family, decider = self.pairs[k % len(self.pairs)]
        started = _now()
        report = verify_decider(
            decider,
            self.prop,
            family=family,
            id_space=self.id_space,
            samples=self.SAMPLES,
            seed=derive(self.seed, "verify-op", k),
        )
        seconds = _now() - started
        jobs = report.assignments_checked
        ok = report.correct and report.instances_checked == 1 and jobs >= self.SAMPLES + 1
        return _single_op(seconds, jobs, ok, (family.name, decider.name, report.correct, jobs))

    def counters(self) -> Dict[str, float]:
        """Process counters plus the default engine's evaluation counts."""
        out = super().counters()
        out.update(_engine_counters(default_engine().stats))
        return out


# ---------------------------------------------------------------------- #
# cor1
# ---------------------------------------------------------------------- #


class Cor1Workload(Workload):
    """Corollary-1 acceptance estimates."""

    name = "cor1"
    why = (
        "Corollary 1, the paper's one positive randomised result: Monte-Carlo acceptance estimates "
        "whose time is per-trial dict ball extraction."
    )
    op_unit = "acceptance estimate"
    job_unit = "randomised trial"
    job_rate_name = "trials_per_s"
    exercises = (
        "graphs.extract_s", "graphs.extract_calls", "graphs.extract_per_trial", "engine.views_s",
        "engine.drive_s", "decision.estimate_s", "separation.build_s",
    )
    unmoved = ("graphs.assign", "interned", "store", "pool", "campaign", "adversary", "workloads")

    TRIALS = 4
    round_batches = fixed_batches = 2

    def setup(self, seed: int) -> None:
        """The delay-0 yes- and no-instances and the randomised decider."""
        self.instances = [
            (build_execution_graph(halting_machine("0", delay=0), r=1, fragment_side=2).graph, True),
            (build_execution_graph(halting_machine("1", delay=0), r=1, fragment_side=2).graph, False),
        ]
        self.decider = RandomisedObliviousDecider()
        self.seed = seed
        for graph, _ in self.instances:  # warm-up
            estimate_acceptance_probability(self.decider, graph, trials=1, seed=derive(seed, "warm-up"))
            self.pause_for_probe()

    def batch(self, k: int) -> Batch:
        """One acceptance estimate, alternating yes- and no-instance."""
        graph, is_yes = self.instances[k % 2]
        started = _now()
        estimate = estimate_acceptance_probability(
            self.decider, graph, trials=self.TRIALS, seed=derive(self.seed, "cor1-op", k)
        )
        seconds = _now() - started
        if is_yes:
            ok = estimate.acceptance_rate == 1.0
        else:
            ok = estimate.rejection_rate >= 0.9
        ok = ok and estimate.trials == self.TRIALS
        return _single_op(seconds, estimate.trials, ok, (is_yes, estimate.accepts, estimate.trials))

    def counters(self) -> Dict[str, float]:
        """Process counters plus the default engine's evaluation counts."""
        out = super().counters()
        out.update(_engine_counters(default_engine().stats))
        return out


# ---------------------------------------------------------------------- #
# matrix
# ---------------------------------------------------------------------- #


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.glob("*") if p.is_file())


class MatrixWorkload(Workload):
    """Cold and warm campaign passes over the default workload matrix."""

    name = "matrix"
    why = (
        "The 212-cell workload matrix through run_campaign: a cold pass writes a fresh verdict store, "
        "then a warm pass re-opens and replays it; the cold pass is the reference for the warm one."
    )
    op_unit = "matrix cell (cold or warm pass)"
    job_unit = "(graph, Id) job"
    exercises = (
        "interned.key_s", "interned.key_calls", "engine.evaluate_s", "engine.evaluations",
        "engine.memo_hit_ratio", "store.load_s", "store.digest_s", "store.lookup_s", "store.append_s",
        "store.replayed", "store.computed", "store.replay_ratio", "store.bytes_written", "campaign.build_s",
        "campaign.verify_s", "campaign.log_append_s", "adversary.search_s", "adversary.candidates",
        "workloads.expand_s",
    )
    unmoved = ("graphs.extract", "pool", "separation")

    def __init__(self, work_dir: Path, recorder: Optional[Recorder] = None) -> None:
        super().__init__(work_dir, recorder)
        self.cells = {"evaluations": 0, "evaluation_hits": 0, "replayed": 0, "computed": 0, "bytes": 0}
        self.pass_rates: Dict[str, List[float]] = {"cold": [], "warm": []}

    def setup(self, seed: int) -> None:
        """Reset process-wide warm state; one warm-up round."""
        shutdown_pool()
        reset_shared_local_engine()
        self.seed = seed
        self.passes = 0
        warm_up = self.batch(-1)
        if not all(op.ok for op in warm_up.ops):
            raise RuntimeError("matrix warm-up round reported misbehaving or unreplayed cells")
        self.pass_rates = {"cold": [], "warm": []}

    def _pass(self, store_dir: Path, warm: bool) -> Batch:
        times: List[float] = []
        probe_s = 0.0

        def feed():
            # A pass takes about a second, over which the machine's speed
            # moves; the probe runs between cells to follow it.
            nonlocal probe_s
            for spec in self.specs:
                probe_s += self.pause_for_probe()
                started = _now()
                yield spec
                times.append(_now() - started)

        self.passes += 1
        log_path = self.work_dir / f"log-{self.passes}.jsonl"
        started = _now()
        report = run_campaign(feed(), store=str(store_dir), log_path=str(log_path), name=self.name)
        busy = _now() - started - probe_s
        log_path.unlink()
        triples = [(r.name, r.spec_digest, r.observed_correct) for r in report.results]
        if not warm:
            self.reference = triples
        ops = []
        for index, result in enumerate(report.results):
            ok = result.ok and index < len(self.reference) and triples[index] == self.reference[index]
            if warm:  # a warm pass must replay every job of every cell
                ok = ok and result.jobs_computed == 0
            self.cells["evaluations"] += result.engine_stats.get("evaluations", 0)
            self.cells["evaluation_hits"] += result.engine_stats.get("evaluation_hits", 0)
            self.cells["replayed"] += result.jobs_replayed
            self.cells["computed"] += result.jobs_computed
            ops.append(Op(times[index], result.sweeps, ok, (warm, triples[index], result.jobs_computed)))
        if len(report.results) != len(self.specs) or len(times) != len(self.specs):
            ops.append(Op(0.0, 0, False, "incomplete pass"))
        self.pass_rates["warm" if warm else "cold"].append(len(ops) / busy)
        return Batch(ops, busy)

    def batch(self, k: int) -> Batch:
        """One round: a cold pass into a fresh store, then a warm pass replaying it."""
        # Each round expands the matrix under its own derived seed, so one run
        # averages over several matrices instead of resting on one draw.
        specs = default_matrix(derive(self.seed, "matrix", k)).scenarios()
        self.specs = specs if self.recorder is None else span_spec_builds(specs, self.recorder)
        store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=self.work_dir))
        try:
            cold = self._pass(store_dir, warm=False)
            self.cells["bytes"] += _dir_bytes(store_dir)
            warm = self._pass(store_dir, warm=True)
        finally:
            shutil.rmtree(store_dir)
        return Batch(cold.ops + warm.ops, cold.busy_s + warm.busy_s)

    def counters(self) -> Dict[str, float]:
        """Process counters plus per-cell engine, store and byte totals."""
        out = super().counters()
        out.update(self.cells)
        return out

    def report(self) -> Dict[str, float]:
        """Median cold (``cells_per_s``) and warm (``replay_cells_per_s``) pass rates."""
        return {
            "cells_per_s": statistics.median(self.pass_rates["cold"]),
            "replay_cells_per_s": statistics.median(self.pass_rates["warm"]),
        }


# ---------------------------------------------------------------------- #
# pool
# ---------------------------------------------------------------------- #


class PoolWorkload(Workload):
    """Sweeps of never-repeated graphs on the worker pool."""

    name = "pool"
    why = (
        "The only workload that forks, ships payloads and fans out: run_many sweeps over distinct "
        "grids, tori and random-regular graphs on ParallelEngine(workers=2), checked against serial engines."
    )
    op_unit = "run_many sweep"
    job_unit = "graph job"
    exercises = (
        "pool.fork_s", "pool.forks", "pool.payload_ships", "pool.payload_ship_bytes", "pool.batches",
        "pool.chunks", "pool.wait_s", "pool.speedup_vs_serial", "engine.drive_s",
    )
    unmoved = ("graphs.assign", "graphs.extract", "store", "campaign", "adversary", "decision", "workloads")

    # Every sweep goes to the pool (adaptive=False): with no spare CPU for a
    # second worker, the cost model's pool and in-process estimates tie for
    # every sweep size, so its routing became a coin flip on timing noise
    # and the share of in-process sweeps (26 to 70 of about 60) set the
    # throughput.  pool.routed_local therefore reads 0 here.

    WORKERS = processes = 2
    # The two-process probe reads the speed of a round too noisily (from 1.0
    # to 3.0 between neighbouring rounds): scaled per round, ops_per_s
    # spread by 0.06 over six runs, scaled over the whole run by 0.04.
    scale_per_round = False
    GRAPHS_PER_SWEEP = 6
    SIDE = 12
    WARM_UP = 3
    round_batches = 2
    fixed_batches = 6
    repeat_fixed_inputs = False

    def setup(self, seed: int) -> None:
        """Reset process-wide warm state; warm-up sweeps fork the pool."""
        shutdown_pool()
        reset_shared_local_engine()
        self.seed = seed
        self.engine = ParallelEngine(workers=self.WORKERS, adaptive=False)
        self.oracle = DirectEngine()
        # Only the traced run times the like-for-like serial engine (the
        # workers run CachedEngines); every run checks against the oracle.
        self.serial = CachedEngine() if self.recorder is not None else None
        self.decider = CubicDecider()
        self.seen: set = set()
        self.graphs_made = 0
        self.routed_local = 0
        self.reference_counts: Dict[str, float] = {}
        self.parallel_s = self.serial_s = 0.0
        for k in range(-self.WARM_UP, 0):  # warm-up: fork the pool, teach the cost model
            self.batch(k)
            self.pause_for_probe()
        if get_pool().batches == 0:
            raise RuntimeError("pool warm-up never dispatched to the worker pool")
        self.parallel_s = self.serial_s = 0.0
        self.routed_local = 0

    def _graphs(self, k: int) -> List:
        """Sweep ``k``: every sweep has the same shape, and no graph repeats.

        Grids and tori carry a label unique to the sweep, which makes them
        distinct inputs (nothing is replayed from a memo) of identical size.
        """
        rng = random.Random(derive(self.seed, "pool-graphs", k))
        graphs = []
        for copy in range(self.GRAPHS_PER_SWEEP // 3):
            tag = f"sweep{k}.{copy}"
            graphs.append(grid_graph(self.SIDE, self.SIDE, label=tag))
            graphs.append(torus_graph(self.SIDE, self.SIDE, label=tag))
            graphs.append(random_regular_graph(self.SIDE * self.SIDE, 3, seed=rng.getrandbits(32), label=tag))
        for graph in graphs:
            self.seen.add(graph)
        self.graphs_made += len(graphs)
        return graphs

    def batch(self, k: int) -> Batch:
        """One ``run_many`` sweep on the pool, checked against serial engines."""
        jobs = [(graph, None) for graph in self._graphs(k)]
        batches_before = get_pool().batches
        started = _now()
        outputs = self.engine.run_many(self.decider, jobs)
        seconds = _now() - started
        if get_pool().batches == batches_before:
            self.routed_local += 1
        tracing = self.recorder is not None and self.recorder.active
        if tracing:
            self.recorder.stop()  # the references are not part of the traced sweep
        before = Workload.counters(self)
        ok = outputs == self.oracle.run_many(self.decider, jobs) and len(self.seen) == self.graphs_made
        if self.serial is not None:
            started = _now()
            ok = self.serial.run_many(self.decider, jobs) == outputs and ok
            self.serial_s += _now() - started
            self.parallel_s += seconds
        for key, value in Workload.counters(self).items():  # keep reference work out of the counts
            self.reference_counts[key] = self.reference_counts.get(key, 0) + value - before[key]
        if tracing:
            self.recorder.start()
        signature = tuple(sum(1 for out in o.values() if out == YES) for o in outputs)
        return _single_op(seconds, len(jobs), ok, signature)

    def counters(self) -> Dict[str, float]:
        """Process counters (without the reference runs) plus engine, pool and routing counts."""
        out = super().counters()
        for key, value in getattr(self, "reference_counts", {}).items():
            out[key] -= value
        engine = getattr(self, "engine", None)
        if engine is not None:
            out.update(_engine_counters(engine.stats))
        out.update({f"pool.{key}": value for key, value in get_pool().counters().items()})
        out["routed_local"] = getattr(self, "routed_local", 0)
        return out

    def report(self) -> Dict[str, float]:
        """How many timed sweeps the cost model kept in-process."""
        return {"routed_local": self.routed_local, "graphs": self.graphs_made}

    def layer_metrics(self) -> Dict[str, float]:
        """Serial CachedEngine time over pool time for the same sweeps."""
        return {"pool.speedup_vs_serial": self.serial_s / self.parallel_s if self.parallel_s else 0.0}

    def close(self) -> None:
        """Stop the worker pool."""
        shutdown_pool()


WORKLOADS = {cls.name: cls for cls in (VerifyWorkload, Cor1Workload, MatrixWorkload, PoolWorkload)}
