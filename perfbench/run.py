"""Repository benchmark for the verification stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced: set-up (imports,
input construction, warm-up) is timed in this process and in two fresh
child processes and reported as the median; then a closed loop with one
client runs operations for ``--seconds`` seconds, checking every result
against a reference.

``--trace 1`` reports the per-layer metrics instead.  It wraps the public
functions of each layer (see ``layers.py``), traces one set-up and one
fixed pass of operations, and runs the same pass untraced before and after
it to measure the tracing overhead.  It then re-runs itself with the same
seed in a child process and fails unless every exact count repeats.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it are a human-readable report and a ``{"stamp": ...}`` line naming the
machine, toolchain and code that produced the numbers.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up is measured this many times (here and in fresh child processes).
SETUP_REPEATS = 3

#: ``(name, unit, better)`` of the end-to-end metrics (``--trace 0``).
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("jobs_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: ``(name, unit, better)`` of the per-layer metrics (``--trace 1``); a
#: layer the workload bypasses reads 0.
PER_LAYER = (
    ("graphs.assign_s", "s", "lower"),
    ("graphs.assignments", "count", "lower"),
    ("graphs.extract_s", "s", "lower"),
    ("graphs.extract_calls", "count", "lower"),
    ("graphs.extract_per_trial", "count", "lower"),
    ("interned.intern_s", "s", "lower"),
    ("interned.intern_hit_ratio", "ratio", "higher"),
    ("interned.views_s", "s", "lower"),
    ("interned.ball_tables", "count", "lower"),
    ("interned.key_s", "s", "lower"),
    ("interned.key_calls", "count", "lower"),
    ("interned.key_fallbacks", "count", "lower"),
    ("engine.drive_s", "s", "lower"),
    ("engine.views_s", "s", "lower"),
    ("engine.evaluate_s", "s", "lower"),
    ("engine.evaluations", "count", "lower"),
    ("engine.memo_hit_ratio", "ratio", "higher"),
    ("engine.key_memo_hit_ratio", "ratio", "higher"),
    ("decision.aggregate_s", "s", "lower"),
    ("decision.estimate_s", "s", "lower"),
    ("store.load_s", "s", "lower"),
    ("store.lookup_s", "s", "lower"),
    ("store.digest_s", "s", "lower"),
    ("store.append_s", "s", "lower"),
    ("store.replayed", "count", "higher"),
    ("store.computed", "count", "lower"),
    ("store.replay_ratio", "ratio", "higher"),
    ("store.bytes_written", "bytes", "lower"),
    ("pool.fork_s", "s", "lower"),
    ("pool.forks", "count", "lower"),
    ("pool.payload_ships", "count", "lower"),
    ("pool.payload_ship_bytes", "bytes", "lower"),
    ("pool.batches", "count", "higher"),
    ("pool.chunks", "count", "higher"),
    ("pool.routed_local", "count", "lower"),
    ("pool.wait_s", "s", "lower"),
    ("pool.speedup_vs_serial", "ratio", "higher"),
    ("campaign.run_s", "s", "lower"),
    ("campaign.build_s", "s", "lower"),
    ("campaign.verify_s", "s", "lower"),
    ("campaign.log_append_s", "s", "lower"),
    ("adversary.search_s", "s", "lower"),
    ("adversary.candidates", "count", "lower"),
    ("workloads.expand_s", "s", "lower"),
    ("separation.build_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
)

#: Figures of the untraced report printed with their units next to the
#: end-to-end metrics: workload-specific names for the job rate, the
#: matrix's cold and warm pass rates, the tail latency and the error rate.
REPORTED = {
    "trials_per_s": "1/s",
    "cells_per_s": "1/s",
    "replay_cells_per_s": "1/s",
    "op_p95_ms": "ms",
    "error_rate": "ratio",
}

#: Counts that must repeat exactly between two traced runs with one seed.
EXACT_COUNTS = (
    "graphs.assignments",
    "graphs.extract_calls",
    "interned.key_calls",
    "interned.ball_tables",
    "engine.evaluations",
    "store.bytes_written",
    "pool.payload_ship_bytes",
    "pool.forks",
)

#: Layers that work only during set-up; the traced run reports them from
#: its traced set-up, every other per-layer metric from its traced pass.
SETUP_LAYERS = ("workloads.expand_s", "separation.build_s", "pool.fork_s", "pool.forks")

#: Span names whose self time does not map to ``<span>_s``.
_SPAN_METRIC = {"campaign.run": "campaign.run_s"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time one set-up and exit (used for repeats)")
    parser.add_argument("--no-repeat-check", action="store_true", help="traced run without the child repeat")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------- #
# Environment stamp and memory
# ---------------------------------------------------------------------- #


def _git_sha():
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=20, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    return top[1] if len(top) == 2 and Path(top[0]).resolve() == ROOT else None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _stamp(workload: str, seed: int) -> dict:
    import numpy

    blas = None
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "git_sha": _git_sha(),
        "src_digest": _src_digest(),
        "machine": platform.machine(),
    }


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _peak_rss_mb(skip=()) -> float:
    """Peak resident memory of this process plus its live children (pool workers) not in ``skip``."""
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = sum(_vm_hwm_kb(child.pid) for child in multiprocessing.active_children() if child.pid not in skip)
    return (own_kb + children_kb) / 1024.0


# ---------------------------------------------------------------------- #
# Runs
# ---------------------------------------------------------------------- #


def _child(args, *extra) -> dict:
    """Run this script again with the same workload and seed; return its last JSON line."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    done = subprocess.run(command, capture_output=True, text=True, timeout=170, cwd=str(ROOT))
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"child run {' '.join(extra)} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _run_batches(workload, indices, ops, failures) -> float:
    """Run batches ``indices``; append their ops; return busy seconds."""
    busy = 0.0
    for k in indices:
        try:
            batch = workload.batch(k)
        except Exception:  # a crashed operation is a failed operation, never dropped
            failures.append(traceback.format_exc())
            ops.append(None)
            break
        ops.extend(batch.ops)
        busy += batch.busy_s
    return busy


def _kernel() -> int:
    """The fixed interpreter-bound reference work of :class:`SpeedProbe`."""
    table = {}
    for i in range(1500):
        table[(i, i & 7)] = str(i)
    return len(sorted(table.values()))


def _kernel_helper(conn) -> None:
    """Helper process of a multi-process :class:`SpeedProbe`: time ``n`` kernels on request."""
    gc.disable()  # as in SpeedProbe.sample
    while True:
        reps = conn.recv()
        if reps is None:
            return
        started = time.perf_counter()
        for _ in range(reps):
            _kernel()
        conn.send(time.perf_counter() - started)


class SpeedProbe:
    """Tracks how fast this machine runs Python while the workload runs.

    On a shared host the speed of a virtual CPU drifts by a fifth or more,
    on scales from tenths of a second to tens of seconds, which no amount
    of repetition within one run removes.  A fixed interpreter-bound
    kernel, timed between operations for about 5% of the time, measures
    that drift; each round of the timed loop is reported at the speed
    where the kernel takes :data:`REFERENCE_S`, using the kernel times
    taken during that round (or during the whole run, for a workload
    whose ``scale_per_round`` is false).

    A workload that computes on ``processes`` processes at once is probed
    with the kernel running on as many processes at once (forked helpers),
    so the probe sees the same contention for CPUs.  Helpers are forked
    rather than spawned: ``spawn`` starts multiprocessing's resource
    tracker, a process that outlives this one.
    """

    #: Kernel time that defines reference speed (about its median on a
    #: 2-vCPU x86_64 VM with Python 3.11).
    REFERENCE_S = 4.0e-4
    SHARE = 0.05
    #: Kernels timed back to back in one sample (about 10 ms): the first
    #: one after an operation runs on cold caches.
    CHUNK = 25

    def __init__(self, processes: int = 1, share: float = SHARE) -> None:
        self.share = share
        self.kernel_s = 0.0
        self.samples = 0
        #: Wall time spent in samples, for callers that subtract it.
        self.spent_s = 0.0
        self._owed_s = 0.0
        self._last = time.perf_counter()
        self._helpers = []
        context = multiprocessing.get_context("fork")
        for _ in range(processes - 1):
            parent, child = context.Pipe()
            helper = context.Process(target=_kernel_helper, args=(child,), daemon=True)
            helper.start()
            child.close()
            self._helpers.append((helper, parent))

    def sample(self, work_s: Optional[float] = None) -> None:
        """Owe the kernel ``share`` of ``work_s`` and time the whole kernels owed on every probe process.

        ``work_s`` defaults to the time since the previous sample ended, so
        callers between operations and between batches share one account.
        """
        if work_s is None:
            work_s = time.perf_counter() - self._last
        mean = self.kernel_s / self.samples if self.samples else self.REFERENCE_S
        self._owed_s += self.share * work_s
        reps = int(self._owed_s / mean)
        if reps < self.CHUNK:
            self._last = time.perf_counter()
            return
        self._owed_s -= reps * mean
        entered = time.perf_counter()
        for _, conn in self._helpers:
            conn.send(reps)
        # The kernel makes no cyclic garbage; with the collector off, its
        # time does not depend on how many objects the program holds.
        collecting = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        for _ in range(reps):
            _kernel()
        self.kernel_s += time.perf_counter() - started
        if collecting:
            gc.enable()
        for _, conn in self._helpers:
            self.kernel_s += conn.recv()
        self.samples += reps * (1 + len(self._helpers))
        self._last = time.perf_counter()
        self.spent_s += self._last - entered

    def slowdown(self, since: Tuple[float, int] = (0.0, 0)) -> Optional[float]:
        """Measured kernel time over the reference: above 1 on a slower-than-reference host.

        ``since`` is a :meth:`mark`; the slowdown is then over the kernels
        timed after it, or ``None`` when there were none.
        """
        kernel_s, samples = self.kernel_s - since[0], self.samples - since[1]
        return kernel_s / samples / self.REFERENCE_S if samples else None

    def mark(self) -> Tuple[float, int]:
        """The kernel time and count so far, for :meth:`slowdown`."""
        return self.kernel_s, self.samples

    def pids(self) -> set:
        """Process ids of the helper processes."""
        return {helper.pid for helper, _ in self._helpers}

    def close(self) -> None:
        """Stop the helper processes and wait for them."""
        for helper, conn in self._helpers:
            conn.send(None)
            helper.join(timeout=30)
            conn.close()
        self._helpers = []


#: Peak memory is read after this many rounds (or at the end of a shorter
#: run): the pool workers' caches keep growing with every sweep, so a
#: reading at the end would measure how many rounds the run fitted in.
RSS_ROUNDS = 5


def _timed_loop(workload, seconds: float, probe: SpeedProbe):
    """Run whole rounds of batches until ``seconds`` have passed.

    Returns the rounds as ``(ops, busy seconds, slowdown)``, the
    tracebacks of failed batches and the peak memory read after
    :data:`RSS_ROUNDS` rounds.  The workload may sample the probe between
    the operations of a batch (time it spends there is not busy time); the
    loop samples it after every batch.
    """
    rounds, failures = [], []
    peak_mb = None
    workload.probe = probe
    started = time.perf_counter()
    k = 0
    while not failures and (not rounds or time.perf_counter() - started < seconds):
        ops, busy = [], 0.0
        mark = probe.mark()
        for _ in range(workload.round_batches):
            busy += _run_batches(workload, [k], ops, failures)
            probe.sample()
            k += 1
            if failures:
                break
        rounds.append((ops, busy, probe.slowdown(mark)))
        if len(rounds) == RSS_ROUNDS:
            peak_mb = _peak_rss_mb(probe.pids())
    workload.probe = None
    return rounds, failures, peak_mb if peak_mb is not None else _peak_rss_mb(probe.pids())


def _percentile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def _timed_setup(workload, seed: int, import_s: float) -> float:
    """Imports plus ``workload.setup(seed)``, in seconds at reference machine speed.

    Workloads sample the probe between their warm-up operations, here for
    a fifth of the time (set-up is short); the probe's own time is left
    out.  A set-up that never sampled it is probed right after, for about
    0.25 s.
    """
    probe = SpeedProbe(type(workload).processes, share=0.2)
    try:
        workload.probe = probe
        started = time.perf_counter()
        workload.setup(seed)
        elapsed = import_s + time.perf_counter() - started - probe.spent_s
        workload.probe = None
        if not probe.samples:
            probe.sample(0.25 / probe.share)
    finally:
        probe.close()
    return elapsed / probe.slowdown()


def measure(args, workload_cls, import_s: float, work_dir: Path) -> dict:
    """The untraced run: set-up three times, then the timed closed loop; end-to-end metrics."""
    setup_times = [_child(args, "--setup-only")["setup_s"] for _ in range(SETUP_REPEATS - 1)]
    workload = workload_cls(work_dir)
    try:
        setup_times.append(_timed_setup(workload, args.seed, import_s))
        probe = SpeedProbe(workload_cls.processes)
        try:
            rounds, failures, peak_mb = _timed_loop(workload, args.seconds, probe)
        finally:
            probe.close()
        extras = workload.report()
    finally:
        workload.close()
    ops = [op for round_ops, _, _ in rounds for op in round_ops]
    failed = sum(1 for op in ops if op is None or not op.ok)
    # Rates and latencies are stated at reference machine speed (see
    # SpeedProbe), each round at the speed measured during it.
    slowdown = probe.slowdown() or 1.0
    if not workload_cls.scale_per_round:
        rounds = [(round_ops, busy, None) for round_ops, busy, _ in rounds]
    rounds = [(round_ops, busy, round_slowdown or slowdown) for round_ops, busy, round_slowdown in rounds]
    raw_latencies = [op.seconds for round_ops, _, _ in rounds for op in round_ops if op is not None]
    latencies = [op.seconds / s for round_ops, _, s in rounds for op in round_ops if op is not None]
    # Rates are medians over rounds (each round repeats the same mix of
    # operations), so a burst of load from elsewhere on the machine moves
    # one round, not the result.
    whole = [(round_ops, busy, s) for round_ops, busy, s in rounds if busy > 0 and None not in round_ops]
    whole = whole or [([], 1.0, 1.0)]
    metrics = {
        "ops_per_s": statistics.median(s * len(round_ops) / busy for round_ops, busy, s in whole),
        "jobs_per_s": statistics.median(s * sum(op.jobs for op in round_ops) / busy for round_ops, busy, s in whole),
        "op_p50_ms": 1000.0 * statistics.median(latencies) if latencies else 0.0,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_mb,
    }
    # op_p95_ms is meaningful only with at least ten samples beyond it.
    p95 = 1000.0 * _percentile(latencies, 95) if len(latencies) >= 200 else None
    report = {
        "workload": workload_cls.name,
        "why": workload_cls.why,
        "predicted_unmoved": list(workload_cls.unmoved),
        "op": workload_cls.op_unit,
        "job": workload_cls.job_unit,
        "ops": len(ops),
        "rounds": len(rounds),
        "machine_slowdown": slowdown,
        "probe_samples": probe.samples,
        "round_slowdowns": [s for _, _, s in rounds],
        "raw_ops_per_s": statistics.median(len(round_ops) / busy for round_ops, busy, _ in whole),
        "raw_op_p50_ms": 1000.0 * statistics.median(raw_latencies) if raw_latencies else 0.0,
        "round_ops_per_s": [s * len(round_ops) / busy for round_ops, busy, s in whole],
        "busy_s": sum(busy for _, busy, _ in rounds),
        "setup_repeats_s": setup_times,
        "op_p95_ms": p95,
        "error_rate": failed / len(ops) if ops else 1.0,
    }
    report[workload_cls.job_rate_name] = metrics["jobs_per_s"]
    report.update({name: value * slowdown if name.endswith("_per_s") else value for name, value in extras.items()})
    for trace_text in failures:
        sys.stderr.write(trace_text)
    return {"ops": ops, "failed": failed, "metrics": metrics, "report": report, "checks": []}


def _delta(before: dict, after: dict) -> dict:
    return {key: after.get(key, 0) - before.get(key, 0) for key in after}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _layer_metrics(recorder, totals: dict) -> dict:
    """Per-layer metrics from one recording and the counter deltas over it."""
    metrics = {name: 0.0 for name, _, _ in PER_LAYER}
    for span, seconds in recorder.self_s.items():
        metrics[_SPAN_METRIC.get(span, span + "_s")] = seconds
    calls, counts = recorder.calls, recorder.counts
    metrics["graphs.assignments"] = counts["graphs.assignments"]
    metrics["graphs.extract_calls"] = calls["graphs.extract"]
    metrics["graphs.extract_per_trial"] = _ratio(calls["graphs.extract"], counts["decision.trials"])
    metrics["interned.intern_hit_ratio"] = _ratio(
        totals["intern_hits"], totals["intern_hits"] + totals["intern_misses"]
    )
    metrics["interned.ball_tables"] = totals["ball_tables"]
    metrics["interned.key_calls"] = calls["interned.key"]
    metrics["interned.key_fallbacks"] = counts["interned.key_fallbacks"]
    metrics["engine.evaluations"] = totals.get("evaluations", 0)
    metrics["engine.memo_hit_ratio"] = _ratio(
        totals.get("evaluation_hits", 0), totals.get("evaluations", 0) + totals.get("evaluation_hits", 0)
    )
    memo = [engine.cache_stats()["memo"] for engine in recorder.engines]
    memo_hits = sum(m["hits"] for m in memo)
    metrics["engine.key_memo_hit_ratio"] = _ratio(memo_hits, memo_hits + sum(m["misses"] for m in memo))
    metrics["store.replayed"] = totals.get("replayed", 0)
    metrics["store.computed"] = totals.get("computed", 0)
    metrics["store.replay_ratio"] = _ratio(
        metrics["store.replayed"], metrics["store.replayed"] + metrics["store.computed"]
    )
    metrics["store.bytes_written"] = totals.get("bytes", 0)
    for name, key in (
        ("pool.forks", "pool.parallel_forks"),
        ("pool.payload_ships", "pool.payload_ships"),
        ("pool.payload_ship_bytes", "pool.payload_ship_bytes"),
        ("pool.batches", "pool.parallel_batches"),
        ("pool.chunks", "pool.parallel_chunks"),
        ("pool.routed_local", "routed_local"),
    ):
        metrics[name] = totals.get(key, 0)
    metrics["adversary.candidates"] = counts["adversary.candidates"]
    metrics["trace.spans"] = len(recorder.spans)
    return metrics


def trace_layers(args, workload_cls, work_dir: Path) -> dict:
    """The traced run: per-layer metrics from one traced set-up and one traced fixed pass."""
    from layers import Recorder, default_instrumentation

    recorder = Recorder()
    instrumentation = default_instrumentation(recorder, str(ROOT))
    workload = workload_cls(work_dir, recorder)
    checks = []
    passes = {}
    try:
        instrumentation.install()
        before = workload.counters()
        recorder.start()
        workload.setup(args.seed)
        recorder.stop()
        setup_metrics = _layer_metrics(recorder, _delta(before, workload.counters()))
        instrumentation.uninstall()
        recorder.clear()

        fixed = workload.fixed_batches
        for index, label in enumerate(("untraced-1", "traced", "untraced-2")):
            offset = 0 if workload.repeat_fixed_inputs else index * fixed
            traced = label == "traced"
            if traced:
                instrumentation.install()
                before = workload.counters()
                recorder.start()
            ops, failures = [], []
            started = time.perf_counter()
            _run_batches(workload, range(offset, offset + fixed), ops, failures)
            wall = time.perf_counter() - started
            if traced:
                recorder.stop()
                totals = _delta(before, workload.counters())
                instrumentation.uninstall()
            for trace_text in failures:
                sys.stderr.write(trace_text)
            passes[label] = (ops, wall)
        layer_extra = workload.layer_metrics()
    finally:
        instrumentation.uninstall()
        workload.close()

    metrics = _layer_metrics(recorder, totals)
    for name in SETUP_LAYERS:
        metrics[name] = setup_metrics[name]
    metrics.update(layer_extra)
    untraced = [passes["untraced-1"][1], passes["untraced-2"][1]]
    metrics["trace.overhead_frac"] = passes["traced"][1] / statistics.mean(untraced) - 1.0
    unattributed = recorder.unattributed_s()
    metrics["trace.unattributed_frac"] = _ratio(unattributed, recorder.wall)

    self_total = sum(recorder.self_s.values())
    drift = abs(self_total + unattributed - recorder.wall)
    checks.append(("layer self times + unattributed == traced wall", drift <= 1e-6 * max(recorder.wall, 1.0)))
    for name in workload_cls.exercises:
        checks.append((f"{name} is non-zero on {workload_cls.name}", metrics[name] > 0))
    if workload_cls.repeat_fixed_inputs:
        signatures = [[op.signature for op in passes[label][0] if op is not None] for label in passes]
        checks.append(("traced and untraced verdicts identical", signatures[0] == signatures[1] == signatures[2]))
    ops = [op for label in passes for op in passes[label][0]]
    failed = sum(1 for op in ops if op is None or not op.ok)
    dominant = sorted(
        ((metrics[_SPAN_METRIC.get(span, span + "_s")], span) for span in recorder.self_s), reverse=True
    )[:4]
    report = {
        "workload": workload_cls.name,
        "why": workload_cls.why,
        "traced_wall_s": recorder.wall,
        "fixed_pass_wall_s": {label: passes[label][1] for label in passes},
        "dominant_layers": [(span, round(seconds, 4)) for seconds, span in dominant],
        "predicted_unmoved": list(workload_cls.unmoved),
        "setup_layers": list(SETUP_LAYERS),
    }
    if not args.no_repeat_check:
        again = _child(args, "--trace", "1", "--no-repeat-check")["metrics"]
        for name in EXACT_COUNTS:
            repeat = again[name]["value"]
            checks.append((f"{name} repeats exactly ({metrics[name]} vs {repeat})", metrics[name] == repeat))
    return {"ops": ops, "failed": failed, "metrics": metrics, "report": report, "checks": checks}


def _check_declaration(workloads) -> None:
    """Fail loudly when BENCHMARK.json and this script disagree on names or units."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        "workloads": sorted(workloads),
        "end_to_end": [(name, unit, better) for name, unit, better in END_TO_END],
        "per_layer": [(name, unit, better) for name, unit, better in PER_LAYER],
    }
    found = {
        "workloads": sorted(w["name"] for w in declared["workloads"]),
        "end_to_end": [(m["name"], m["unit"], m["better"]) for m in declared["end_to_end"]],
        "per_layer": [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]],
    }
    for key, value in expected.items():
        if found[key] != value:
            raise SystemExit(f"error: BENCHMARK.json {key} do not match perfbench/run.py")


def _stop_processes() -> None:
    """Stop and wait for every process this run started that is still running.

    Workloads stop their pools and probes on the way out; this catches what
    an error path left behind, so no process outlives the benchmark.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def main(argv=None) -> int:
    """Command-line entry point; returns the process exit code."""
    args = _parse(argv)
    # Some exact counts depend on string hash order (the pickle layout of
    # shipped payloads, the matrix's evaluations), so a traced run re-runs
    # itself under a hash seed made from --seed; its same-seed child
    # repeat inherits it.  Untraced runs keep the interpreter's default.
    hash_seed = str(args.seed % 2**32)
    if args.trace and os.environ.get("PYTHONHASHSEED") != hash_seed:
        command = [sys.executable, str(Path(__file__).resolve()), *(sys.argv[1:] if argv is None else argv)]
        os.execve(sys.executable, command, dict(os.environ, PYTHONHASHSEED=hash_seed))
    try:
        return _main(args)
    finally:
        _stop_processes()


def _main(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"error: the program's sources ({SRC / 'repro'}) are missing; nothing to benchmark\n")
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _PROCESS_START
    _check_declaration(WORKLOADS)
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}\n")
        return 2
    workload_cls = WORKLOADS[args.workload]
    work_root = ROOT / ".perfbench"
    work_dir = work_root / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            workload = workload_cls(work_dir)
            try:
                print(json.dumps({"setup_s": _timed_setup(workload, args.seed, import_s)}))
            finally:
                workload.close()
            return 0
        if args.trace:
            result = trace_layers(args, workload_cls, work_dir)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            result = measure(args, workload_cls, import_s, work_dir)
            units = {name: unit for name, unit, _ in END_TO_END}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    failed_checks = [name for name, passed in result["checks"] if not passed]
    print(json.dumps({"stamp": _stamp(args.workload, args.seed)}, sort_keys=True))
    print(json.dumps({"report": result["report"]}, sort_keys=True, default=str))
    for name, passed in result["checks"]:
        print(f"check {'ok  ' if passed else 'FAIL'} {name}")
    for name, value in result["metrics"].items():
        print(f"{name:32s} {value:>16.6g} {units[name]}")
    for name, unit in REPORTED.items():
        if name in result["report"]:
            value = result["report"][name]
            shown = "n/a (fewer than 10 samples beyond it)" if value is None else f"{value:>16.6g}"
            print(f"{name:32s} {shown} {unit} (report)")
    correct = result["failed"] == 0 and not failed_checks
    print(json.dumps({
        "correct": correct,
        "attempted": len(result["ops"]),
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
