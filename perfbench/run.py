"""The repository benchmark: three TPC-H workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload scan_agg --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(environment, per-statement and set-up breakdown, tail percentiles and
sample counts, every span's self time) goes to ``perfbench/results/``.

Workloads (see ``workloads.py``; all measured load comes from this one
process):

* ``scan_agg``, ``join`` -- one client in a closed loop over warm tables.
  A *round* runs every statement of the mix once.  A *read* is one
  statement.
* ``serve_fresh`` -- a SessionServer with 2 in flight and 2 worker threads.
  Session A cycles Q6, Q10, Q3, append; that cycle is its *round*.
  Session B reads a seeded stream of Q6/Q10/Q3 until A's epoch ends.  An
  epoch is ``EPOCH_CYCLES`` cycles; each starts from a fresh copy of the
  base lineitem, so the table never grows by more than 5%.

Set-up is timed in fresh processes, so every set-up starts with empty
process-wide caches: ``SETUPS - 1`` child interpreters each set up once,
then this process sets up the tables it measures.  The expected results
are built in another child, so the reference's inputs never count in this
process's peak memory.

Timings are client-side wall clock.  A timing is reported as its median
and as the highest percentile that has at least 10 samples beyond it.
The end-to-end timings are scaled to the machine's nominal speed with
``speed.py``'s probe, timed beside the work: before every statement in the
single-client workloads, around every epoch in serve_fresh and around
every set-up.  The record keeps the unscaled figures too.
Every result is compared with ``reference.py``, which shares no code with
``repro.engine`` or ``repro.core``; a mismatch, an exception, a rejection
or a timeout counts as a failed operation and makes the run incorrect.

The traced run (``--trace 1``) alternates untraced slices with slices
that have ``spans.Tracer`` wrapped around the engine's entry points, half
of ``--seconds`` each, plus one traced cold pass on fresh tables for the
compile-time metric.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import importlib
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import reference
import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

#: Set-ups per run, each in a fresh process; ``setup_s`` is their median.
SETUPS = 5
#: Deadline for one child interpreter (a set-up or the expected results);
#: either takes a few seconds.
CHILD_TIMEOUT_S = 30.0
#: A timing's tail is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10
#: Per-query deadline in serve_fresh; a timeout is a failed read.
QUERY_TIMEOUT_S = 30.0
#: Probes timed before and after every serve_fresh epoch and every set-up.
PROBES_AROUND = 3
#: Length of one untraced or traced slice of a traced run.  The machine's
#: speed drifts over seconds; alternating short slices lets a drift slow
#: both sides of ``trace.overhead_frac`` alike.
TRACE_SLICE_S = 2.5

#: Per-layer metric -> the spans whose self time it sums.
LAYER_SPANS: Dict[str, Tuple[str, ...]] = {
    "op.group_aggregate_ms": ("op.group_aggregate",),
    "multithread.aggregate_ms": ("multithread.aggregate",),
    "op.hash_join_ms": ("op.hash_join",),
    "op.nested_loop_join_ms": ("op.nested_loop_join",),
    "op.filter_ms": ("op.filter",),
    "op.scan_ms": ("op.scan",),
    "storage.unscaled_ms": ("storage.unscaled",),
    "gpusim.execute_ms": ("gpusim.execute",),
    "gpusim.execute_streamed_ms": ("gpusim.execute_streamed",),
    "op.sort_ms": ("op.sort",),
    "op.project_ms": ("op.project",),
    "op.aggregate_ms": ("op.aggregate",),
    "op.limit_ms": ("op.limit",),
    "op.drop_ms": ("op.drop",),
    "session.execute_self_ms": ("session.execute",),
    "plan.stats_ms": ("plan.stats", "plan.stats_collect"),
    "storage.decimal_vector_ms": ("storage.decimal_vector",),
    "storage.encoding_ms": ("storage.encoding",),
    "sql.parse_ms": ("sql.parse",),
    "plan.rewrite_ms": ("plan.rewrite",),
    "plan.planner_ms": ("plan.planner",),
    "analysis.plan_ms": ("analysis.plan",),
}

#: ``sim.*`` metric -> the ExecutionReport field it sums.
SIM_FIELDS = {
    "sim.scan_s": "scan_seconds",
    "sim.pcie_s": "pcie_seconds",
    "sim.kernel_s": "kernel_seconds",
    "sim.filter_s": "filter_seconds",
    "sim.aggregate_s": "aggregate_seconds",
    "sim.sort_s": "sort_seconds",
    "sim.pipeline_s": "pipeline_seconds",
    "sim.compile_s": "compile_seconds",
    "sim.pcie_bytes": "pcie_bytes",
}

ALL_STATEMENTS = ("Q1", "Q6", "Q3", "Q5", "Q10")


# ------------------------------------------------------------ statistics

def median(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n)``: the highest percentile with at least 10 samples beyond it.

    With 10 samples or fewer no value has 10 beyond it; the smallest
    sample is returned, with its percentile, so the record shows why.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if not n:
        return 0.0, 0.0, 0
    index = max(n - 1 - TAIL_BEYOND, 0)
    return ordered[index], 100.0 * (index + 1) / n, n


# ------------------------------------------------------------- recording

class Outcome:
    """Attempted and failed operations, as the client saw them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, label: str, candidates, result) -> bool:
        """Count one result; it must match one of the ``candidates``."""
        self.attempted += 1
        rows = workloads.normalise(result.rows)
        reason = "no snapshot to compare with"
        for expected in candidates:
            reason = expected.mismatch(result.column_names, rows)
            if reason is None:
                return True
        self.failures.append(f"{label}: {reason}")
        return False

    def error(self, label: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failures.append(f"{label}: {type(exc).__name__}: {exc}")

    def ok(self) -> None:
        self.attempted += 1

    def absorb(self, attempted: int, failures: Sequence[str]) -> None:
        """Count what a child process saw."""
        self.attempted += attempted
        self.failures += failures


@dataclass
class Sample:
    """One checked read: statement, client latency and its report."""

    statement: str
    seconds: float
    report: object
    queued: float = 0.0
    served: float = 0.0


@dataclass
class Phase:
    """What one measured phase produced."""

    reads: List[Sample] = field(default_factory=list)
    #: Per round: (wall seconds, simulated seconds, speed scale).
    rounds: List[Tuple[float, float, float]] = field(default_factory=list)
    #: Per round: its reads (single-client workloads only).
    round_reads: List[List[Sample]] = field(default_factory=list)
    appends: List[float] = field(default_factory=list)
    wall: float = 0.0
    #: ``wall`` at nominal machine speed.
    scaled_wall: float = 0.0
    #: Every probe timed during the phase, in ms.
    probes: List[float] = field(default_factory=list)
    cache: Tuple[int, int] = (0, 0)
    residency: Tuple[int, int] = (0, 0)

    def absorb(self, other: "Phase") -> None:
        """Add what a later phase of the same kind produced."""
        self.reads += other.reads
        self.rounds += other.rounds
        self.round_reads += other.round_reads
        self.appends += other.appends
        self.wall += other.wall
        self.scaled_wall += other.scaled_wall
        self.probes += other.probes
        self.cache = (self.cache[0] + other.cache[0], self.cache[1] + other.cache[1])
        self.residency = (
            self.residency[0] + other.residency[0], self.residency[1] + other.residency[1],
        )


# ---------------------------------------------------------------- set-up

def prepare() -> None:
    """Import what set-up uses, so that no set-up timing includes it.

    Modules the engine imports lazily on its first query stay unimported:
    a cold pass pays for them, as a real first query does.
    """
    for module in ("repro.engine", "repro.storage.relation", "repro.storage.tpch",
                   "repro.workloads.tpch_queries"):
        importlib.import_module(module)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_statement(db, statement: str):
    from repro.workloads import tpch_queries

    return db.execute(getattr(tpch_queries, f"{statement}_SQL"))


def cold_pass(db, mix, expected, outcome: Outcome, label: str) -> float:
    """Run every statement once; return the summed execute seconds."""
    total = 0.0
    for statement in mix:
        started = time.perf_counter()
        try:
            result = run_statement(db, statement)
        except Exception as exc:  # counted as a failure; the run goes on
            outcome.error(f"{label} {statement}", exc)
            continue
        total += time.perf_counter() - started
        outcome.check(f"{label} {statement}", expected[statement][:1], result)
    return total


def setup(workload, seed: int, expected, outcome: Outcome):
    """Generate, register and run one cold pass; return the db and timings.

    ``expected`` maps each statement to its cold-pass result first.
    """
    from repro.engine import Database

    probes = speed.probes(PROBES_AROUND)
    started = time.perf_counter()
    relations = workloads.engine_relations(workload, seed)
    generated = time.perf_counter()
    db = Database(simulate_rows=workloads.SIMULATE_ROWS)
    for relation in relations:
        db.register(relation)
    registered = time.perf_counter()
    first_pass = cold_pass(db, workload.mix, expected, outcome, "setup")
    times = {
        "datagen_s": generated - started,
        "register_s": registered - generated,
        "first_pass_s": first_pass,
    }
    times["total_s"] = sum(times.values())
    probes += speed.probes(PROBES_AROUND)
    times["probe_ms"] = statistics.median(probes)
    times["scaled_total_s"] = times["total_s"] * speed.scale(probes)
    return db, relations, times


def traced_cold_pass(workload, relations, expected, outcome: Outcome, tracer) -> None:
    """A cold pass on a fresh database over fresh column copies."""
    from repro.engine import Database

    db = Database(simulate_rows=workloads.SIMULATE_ROWS)
    for relation in relations:
        db.register(workloads.fresh_copy(relation))
    tracer.request = "cold"
    cold_pass(db, workload.mix, expected, outcome, "traced cold pass")
    tracer.request = None


# ---------------------------------------------------------- single client

def closed_loop(db, workload, expected, seconds: float, outcome: Outcome, tracer=None) -> Phase:
    """Whole rounds of the mix until ``seconds`` have passed."""
    phase = Phase()
    cache = db.kernel_cache
    hits, misses = cache.hits, cache.misses
    deadline = time.perf_counter() + seconds
    attempts = 0
    while not attempts or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.request = tracer.new_request()
        attempts += 1
        reads: List[Sample] = []
        probes = []
        for statement in workload.mix:
            probes.append(speed.probe_ms())
            started = time.perf_counter()
            try:
                result = run_statement(db, statement)
            except Exception as exc:
                outcome.error(statement, exc)
                continue
            elapsed = time.perf_counter() - started
            if outcome.check(statement, expected[statement], result):
                reads.append(Sample(statement, elapsed, result.report))
        phase.reads += reads
        phase.probes += probes
        wall, scale = sum(r.seconds for r in reads), speed.scale(probes)
        phase.wall += wall
        phase.scaled_wall += wall * scale
        if len(reads) == len(workload.mix):
            phase.round_reads.append(reads)
            phase.rounds.append((wall, sum(r.report.total_seconds for r in reads), scale))
    if tracer is not None:
        tracer.request = None
    phase.cache = (cache.hits - hits, cache.misses - misses)
    return phase


# ----------------------------------------------------------- serve_fresh

def expectations(workload, seed: int) -> Dict[str, list]:
    """Each statement's expected results; serve_fresh has one per snapshot."""
    if workload.serving:
        return snapshot_expectations(workload, seed)
    tables = workloads.reference_tables(workload, seed)
    return {s: [reference.expected(s, tables)] for s in workload.mix}


def snapshot_expectations(workload, seed: int) -> Dict[str, list]:
    """Each statement's expected result after 0..EPOCH_CYCLES appends."""
    tables = workloads.reference_tables(workload, seed)
    batches = workloads.epoch_batches(workload, seed)
    out: Dict[str, list] = {statement: [] for statement in workload.mix}
    lineitem = tables["lineitem"]
    for count in range(len(batches) + 1):
        if count:
            lineitem = reference.extend(lineitem, batches[count - 1])
        snapshot = dict(tables, lineitem=lineitem)
        for statement in workload.mix:
            out[statement].append(reference.expected(statement, snapshot))
    return out


@dataclass
class Epoch:
    #: Appends that returned, and appends started: a read may see any
    #: snapshot between the first count at its submit and the second at
    #: its result.
    appended: int = 0
    appending: int = 0
    done: bool = False


async def serve(db, base_lineitem, workload, seed, seconds, expected, outcome, reads_b) -> Phase:
    """Epochs of session A's cycles with session B reading alongside."""
    from repro.engine.serving.server import ServerConfig, SessionServer
    from repro.workloads import tpch_queries

    phase = Phase()
    batches = [
        workloads.literal_rows(batch) for batch in workloads.epoch_batches(workload, seed)
    ]
    config = ServerConfig(max_in_flight=2, worker_threads=2, default_timeout=QUERY_TIMEOUT_S)

    async def read(session, statement: str, epoch: Epoch) -> Optional[Sample]:
        low = epoch.appended
        started = time.perf_counter()
        try:
            served = await session.execute(getattr(tpch_queries, f"{statement}_SQL"))
        except Exception as exc:
            outcome.error(f"{session.name} {statement}", exc)
            return None
        elapsed = time.perf_counter() - started
        candidates = expected[statement][low:epoch.appending + 1]
        if not outcome.check(f"{session.name} {statement}", candidates, served.result):
            return None
        sample = Sample(
            statement, elapsed, served.report,
            served.queued_seconds, served.wall_seconds - served.queued_seconds,
        )
        phase.reads.append(sample)
        return sample

    epoch_rounds: List[Tuple[float, float]] = []

    async def session_a(session, epoch: Epoch) -> None:
        try:
            cycle_start, cycle_sim, cycle_ok = time.perf_counter(), 0.0, True
            for op, batch in workloads.session_a_ops():
                if op != "append":
                    sample = await read(session, op, epoch)
                    cycle_ok = cycle_ok and sample is not None
                    cycle_sim += sample.report.total_seconds if sample else 0.0
                    continue
                epoch.appending += 1
                started = time.perf_counter()
                try:
                    await session.append("lineitem", batches[batch])
                except Exception as exc:
                    outcome.error("A append", exc)
                    return  # later snapshots would not match; end the epoch
                finished = time.perf_counter()
                outcome.ok()
                epoch.appended += 1
                phase.appends.append(finished - started)
                if cycle_ok:
                    epoch_rounds.append((finished - cycle_start, cycle_sim))
                cycle_start, cycle_sim, cycle_ok = time.perf_counter(), 0.0, True
        finally:
            epoch.done = True

    async def session_b(session, epoch: Epoch) -> None:
        while not epoch.done:
            await read(session, next(reads_b), epoch)

    cache = db.kernel_cache
    hits, misses = cache.hits, cache.misses
    async with SessionServer(db, config) as server:
        a, b = server.session("A"), server.session("B")
        residency = db.residency
        resident = (residency.hits, residency.misses)
        deadline = time.perf_counter() + seconds
        epochs = 0
        while not epochs or time.perf_counter() < deadline:
            db.register(workloads.fresh_copy(base_lineitem), replace=True)
            epoch = Epoch()
            epoch_rounds.clear()
            # Probes run while no query does, so neither slows the other.
            probes = speed.probes(PROBES_AROUND)
            started = time.perf_counter()
            await asyncio.gather(session_a(a, epoch), session_b(b, epoch))
            wall = time.perf_counter() - started
            probes += speed.probes(PROBES_AROUND)
            scale = speed.scale(probes)
            phase.probes += probes
            phase.wall += wall
            phase.scaled_wall += wall * scale
            phase.rounds += [(seconds, sim, scale) for seconds, sim in epoch_rounds]
            epochs += 1
    phase.cache = (cache.hits - hits, cache.misses - misses)
    phase.residency = (residency.hits - resident[0], residency.misses - resident[1])
    return phase


# --------------------------------------------------------------- tracing

def install(tracer: spans.Tracer) -> None:
    """Wrap every traced entry point where its caller looks it up."""
    import repro.analysis.plan as analysis_plan
    from repro.core.jit.pipeline import KernelCache
    from repro.core.multithread import aggregation
    from repro.engine import session
    from repro.engine.plan import physical, planner, stats
    from repro.engine.serving.server import SessionServer
    from repro.gpusim import executor
    from repro.storage.column import Column

    tracer.wrap(session.Database, "execute", "session.execute", keep_result=True)
    tracer.wrap(session.Database, "append", "storage.append")
    tracer.wrap(session, "parse_query", "sql.parse")
    tracer.wrap(session, "plan_query", "plan.planner")
    tracer.wrap(session, "run_plan", "executor.run_plan")
    tracer.wrap(planner, "apply_rules", "plan.rewrite")
    tracer.wrap(analysis_plan, "analyze_plan", "analysis.plan")
    tracer.wrap(stats, "column_stats", "plan.stats")
    tracer.wrap(stats, "collect_column_stats", "plan.stats_collect")
    tracer.wrap(physical, "execute_streamed", "gpusim.execute_streamed")
    tracer.wrap(executor, "execute", "gpusim.execute")
    tracer.wrap(aggregation, "aggregate", "multithread.aggregate")
    tracer.wrap(KernelCache, "compile", "jit.compile")
    tracer.wrap(Column, "unscaled", "storage.unscaled")
    tracer.wrap(Column, "decimal_vector", "storage.decimal_vector")
    tracer.wrap(Column, "encoding", "storage.encoding")
    for cls in operator_classes(physical.PhysicalOp):
        tracer.wrap(cls, "run", operator_span(cls.__name__), operator=True)
    tracer.wrap_async(SessionServer, "_execute", "serving.execute")


def operator_classes(base: type) -> List[type]:
    """Every subclass of ``base`` that defines its own ``run``."""
    found, pending = [], list(base.__subclasses__())
    while pending:
        cls = pending.pop()
        pending += cls.__subclasses__()
        if "run" in cls.__dict__:
            found.append(cls)
    return found


def operator_span(class_name: str) -> str:
    """``GroupAggregateOp`` -> ``op.group_aggregate``."""
    stem = class_name[:-2] if class_name.endswith("Op") else class_name
    snake = "".join(f"_{c.lower()}" if c.isupper() else c for c in stem).lstrip("_")
    return f"op.{snake}"


# --------------------------------------------------------------- metrics

def round_metrics(phase: Phase) -> Dict[str, float]:
    """The timing end-to-end metrics of one phase, at nominal machine speed."""
    return {
        "round_p50_ms": 1e3 * median([wall * scale for wall, _, scale in phase.rounds]),
        "sim_round_s": median([sim for _, sim, _ in phase.rounds]),
        "reads_per_s": len(phase.reads) / phase.scaled_wall if phase.scaled_wall else 0.0,
    }


def tails(phase: Phase) -> Dict[str, Dict[str, float]]:
    """Round and read tails, each with its percentile and sample count."""
    out = {}
    for name, samples in (
        ("round_tail_ms", [wall for wall, _, _ in phase.rounds]),
        ("read_tail_ms", [r.seconds for r in phase.reads]),
    ):
        value, percentile, n = tail(samples)
        out[name] = {"value": 1e3 * value, "percentile": percentile, "samples": n}
    return out


def unit(name: str) -> str:
    for suffix, label in (
        ("_ms", "ms"), ("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"),
        ("_bytes", "bytes"), ("_builds", "count"),
    ):
        if name.endswith(suffix):
            return label
    return "ratio"


def untraced_layer_metrics(phase: Phase, serving: bool) -> Dict[str, float]:
    """Per-layer numbers that need no spans: simulated time and latencies."""
    # Per-layer medians are taken per round, or per read in serve_fresh.
    groups = [[r] for r in phase.reads] if serving else phase.round_reads
    out: Dict[str, float] = {}
    for metric, attr in SIM_FIELDS.items():
        out[metric] = median([sum(getattr(r.report, attr) for r in g) for g in groups])
    skipped = sum(r.report.zone_chunks_skipped for r in phase.reads)
    total = sum(r.report.zone_chunks_total for r in phase.reads)
    out["sim.zone_skip_ratio"] = skipped / total if total else 0.0
    out["report.data_plane_share"] = median([
        sum(r.report.data_plane_seconds for r in g) / sum(r.seconds for r in g) for g in groups
    ])
    for statement in ALL_STATEMENTS:
        out[f"stmt.{statement}.p50_ms"] = 1e3 * median(
            [r.seconds for r in phase.reads if r.statement == statement]
        )
    out["read_p50_ms"] = 1e3 * median([r.seconds for r in phase.reads])
    out["round_wall_p50_ms"] = 1e3 * median([wall for wall, _, _ in phase.rounds])
    out["speed.probe_ms"] = median(phase.probes)
    out.update({name: t["value"] for name, t in tails(phase).items()})
    out["append_p50_ms"] = 1e3 * median(phase.appends)
    out["serving.queue_ms"] = 1e3 * median([r.queued for r in phase.reads]) if serving else 0.0
    out["serving.exec_ms"] = 1e3 * median([r.served for r in phase.reads]) if serving else 0.0
    return out


def hit_ratio(counts: Tuple[int, int]) -> float:
    hits, misses = counts
    return hits / (hits + misses) if hits + misses else 0.0


def span_metrics(tracer: spans.Tracer, untraced: Phase, traced: Phase, serving: bool):
    """Per-layer metrics from the traced phase, and every span's self time."""
    tracer.link()
    seconds = spans.self_times(tracer.spans)
    table = spans.per_request(tracer.spans, seconds)
    if serving:
        requests = sorted({s.request for s in tracer.spans if s.name == "serving.execute"})
        walls = [r.seconds for r in traced.reads]
    else:
        requests = [r for r in table if isinstance(r, int)]
        walls = [wall for wall, _, _ in traced.rounds]

    def summed(names: Sequence[str], index: int) -> List[float]:
        """Per request: the summed self time (index 0) or call count (1) of ``names``."""
        return [sum(table[r].get(n, (0.0, 0))[index] for n in names) for r in requests]

    out = {
        metric: 1e3 * median(summed(names, 0)) for metric, names in LAYER_SPANS.items()
    }
    builds = summed(("plan.stats_collect",), 1)
    out["plan.stats_builds"] = sum(builds) / len(builds) if builds else 0.0
    out["jit.compile_ms"] = 1e3 * table.get("cold", {}).get("jit.compile", (0.0, 0))[0]
    out["jit.cache_hit_ratio"] = hit_ratio(traced.cache)
    out["gpusim.residency_hit_ratio"] = hit_ratio(traced.residency)
    out["storage.append_ms"] = 1e3 * median(
        [s.end - s.start for s in tracer.spans if s.name == "storage.append"]
    )
    covered, layered = spans.attributed(tracer.spans, seconds, requests)
    out["trace.coverage"] = covered / sum(walls) if walls else 0.0
    out["trace.layer_coverage"] = layered / sum(walls) if walls else 0.0
    if serving:
        before = median([r.seconds for r in untraced.reads])
        after = median([r.seconds for r in traced.reads])
    else:
        before = median([wall for wall, _, _ in untraced.rounds])
        after = median([wall for wall, _, _ in traced.rounds])
    out["trace.overhead_frac"] = after / before - 1.0 if before else 0.0

    detail = {
        name: {
            "self_ms_median": 1e3 * median(summed((name,), 0)),
            "calls_per_request": sum(summed((name,), 1)) / max(len(requests), 1),
        }
        for name in sorted({s.name for s in tracer.spans})
    }
    return out, detail


# ----------------------------------------------------------------- main

def environment() -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
        # Load average misses a host that slows every guest down; the probe does not.
        "speed_probe_ms_start": median(speed.probes(5)),
    }


def child(role: str, workload_name: str, seed: int, payload=None):
    """Run ``role`` in a fresh interpreter; return what it sent back and its peak RSS."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child", role,
        "--workload", workload_name, "--seed", str(seed), "--seconds", "1",
    ]
    done = subprocess.run(
        command, input=pickle.dumps(payload), capture_output=True,
        timeout=CHILD_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        stderr = done.stderr.decode(errors="replace")[-2000:]
        raise RuntimeError(f"{role} process exited with {done.returncode}: {stderr}")
    return pickle.loads(done.stdout)


def child_main(role: str, workload_name: str, seed: int) -> int:
    """The child side of :func:`child`: read the payload, pickle the answer."""
    answer = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # a stray print must not corrupt the pickle
    workload = workloads.WORKLOADS[workload_name]
    payload = pickle.load(sys.stdin.buffer)
    if role == "expect":
        result = expectations(workload, seed)
    else:
        outcome = Outcome()
        prepare()
        _, _, times = setup(workload, seed, payload, outcome)
        result = {"times": times, "attempted": outcome.attempted, "failures": outcome.failures}
    pickle.dump((result, peak_rss_mb()), answer)
    answer.close()
    return 0


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return its full record, result line included."""
    workload = workloads.WORKLOADS[workload_name]
    env = environment()
    outcome = Outcome()
    expected, reference_rss = child("expect", workload_name, seed)
    cold = {statement: results[:1] for statement, results in expected.items()}

    setups, setup_rss = [], []
    for _ in range(SETUPS - 1):
        try:
            got, rss = child("setup", workload_name, seed, cold)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            outcome.error("setup process", exc)
            break  # the next would fail the same way
        outcome.absorb(got["attempted"], got["failures"])
        setups.append(got["times"])
        setup_rss.append(rss)
    prepare()
    db, relations, times = setup(workload, seed, cold, outcome)
    setups.append(times)
    gc.collect()

    reads_b = workloads.session_b_reads(seed)

    def measure(measured: float, tracer=None) -> Phase:
        if workload.serving:
            return asyncio.run(serve(
                db, relations[0], workload, seed, measured, expected, outcome, reads_b
            ))
        return closed_loop(db, workload, expected, measured, outcome, tracer)

    detail: Dict[str, object] = {}
    if not trace:
        phase = measure(seconds)
        metrics = {"setup_s": median([s["scaled_total_s"] for s in setups])}
        metrics.update(round_metrics(phase))
        metrics["peak_rss_mb"] = peak_rss_mb()
    else:
        tracer = spans.Tracer()
        install(tracer)
        try:
            traced_cold_pass(workload, relations, expected, outcome, tracer)
        finally:
            tracer.uninstall()
        phase, traced = Phase(), Phase()
        slices = max(1, round(seconds / (2 * TRACE_SLICE_S)))
        for _ in range(slices):
            phase.absorb(measure(seconds / (2 * slices)))
            install(tracer)
            try:
                traced.absorb(measure(seconds / (2 * slices), tracer))
            finally:
                tracer.uninstall()
        metrics = untraced_layer_metrics(phase, workload.serving)
        layers, detail["spans"] = span_metrics(tracer, phase, traced, workload.serving)
        metrics.update(layers)
        metrics["setup.datagen_s"] = median([s["datagen_s"] for s in setups])
        metrics["setup.first_pass_s"] = median([s["first_pass_s"] for s in setups])
        metrics["failed_frac"] = len(outcome.failures) / max(outcome.attempted, 1)
        RESULTS.mkdir(exist_ok=True)
        tracer.dump(RESULTS / f"{workload_name}-seed{seed}-spans.jsonl.gz")

    env["loadavg_end"] = list(os.getloadavg())
    env["speed_probe_ms_end"] = median(speed.probes(5))
    detail.update({
        "statements_p50_ms": {
            s: 1e3 * median([r.seconds for r in phase.reads if r.statement == s])
            for s in workload.mix
        },
        "setups": setups,
        # Peak RSS of the process that built the expected results, and the
        # median of the set-up processes'; neither is in ``peak_rss_mb``.
        "reference_peak_rss_mb": reference_rss,
        "setup_peak_rss_mb": median(setup_rss),
        "rounds": len(phase.rounds),
        "reads": len(phase.reads),
        "appends": len(phase.appends),
        "read_p50_ms": 1e3 * median([r.seconds for r in phase.reads]),
        "append_p50_ms": 1e3 * median(phase.appends),
        "tails": tails(phase),
        "round_walls_ms": [1e3 * wall for wall, _, _ in phase.rounds],
        "round_scales": [scale for _, _, scale in phase.rounds],
        "round_wall_p50_ms": 1e3 * median([wall for wall, _, _ in phase.rounds]),
        "reads_per_wall_s": len(phase.reads) / phase.wall if phase.wall else 0.0,
        "probe_ms": median(phase.probes),
    })
    failed = len(outcome.failures)
    return {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env, "failures": outcome.failures[:50], "detail": detail,
        "line": {
            "correct": failed == 0,
            "attempted": max(outcome.attempted, 1),
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit(name)} for name, value in metrics.items()
            },
        },
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("expect", "setup"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.child:
        return child_main(args.child, args.workload, args.seed)

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    detail = record["detail"]
    print("detail " + json.dumps({
        "environment": record["environment"],
        "statements_p50_ms": detail["statements_p50_ms"],
        "setup_median_s": {
            key: median([s[key] for s in detail["setups"]]) for key in detail["setups"][0]
        },
        "tails": detail["tails"],
        "failures": record["failures"][:5],
        "record": str(path.relative_to(HERE.parent)),
    }))
    line = record["line"]
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
