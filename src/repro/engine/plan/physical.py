"""Physical operators: executable, costed plan nodes.

Each operator both *computes* (bit-exactly, over the real rows registered
with the engine) and *charges* the simulated cost model (scaled to the
engine's ``simulate_rows``, since every model is linear in N).  The
executor threads a :class:`Batch` through the chain.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.decimal import inference
from repro.core.decimal.context import DecimalSpec
from repro.core.decimal.value import DecimalValue
from repro.core.decimal.vectorized import DecimalVector
from repro.core.jit.pipeline import JitOptions, KernelCache
from repro.core.multithread import aggregation as mt_aggregation
from repro.engine.plan.cost import CostEstimate, CostModel, OptimizerConfig
from repro.engine.sql.ast_nodes import AggregateCall, Comparison, OrderKey, SelectItem
from repro.errors import ExecutionError, PlanningError, StorageError
from repro.gpusim import occupancy as gpu_occupancy
from repro.gpusim import timing as gpu_timing
from repro.gpusim.residency import DeviceResidency
from repro.gpusim.device import DEFAULT_DEVICE, DEFAULT_HOST, GpuDevice, HostSystem
from repro.gpusim.streaming import StreamingConfig, execute_streamed
from repro.storage.column import Column
from repro.storage.relation import Relation
from repro.storage.schema import CharType, DateType, DecimalType, DoubleType, IntType


@dataclass
class KernelExecution:
    """Per-kernel launch record: chunking and pipelined-vs-serial timing.

    Every launch runs through :func:`execute_streamed`.  With streaming off
    (``streamed=False``) it is one chunk, so the two times coincide.  With
    streaming on, ``pipelined_seconds`` is what the report charges while
    ``serial_seconds`` is what the unchunked launch would have cost, so
    ``overlap_speedup`` is the per-kernel win from transfer/compute overlap.
    Times come from the simulated rows alone: an empty batch is charged as
    one chunk of one simulated row.
    """

    name: str
    expression: str
    chunks: int
    streamed: bool
    transfer_seconds_per_chunk: float
    kernel_seconds_per_chunk: float
    serial_seconds: float
    pipelined_seconds: float
    #: Measured wall-clock of the kernel's *data plane* (the numpy limb
    #: arithmetic actually run in this process), as opposed to the simulated
    #: GPU seconds above which come from instruction counts.
    data_plane_seconds: float = 0.0
    #: SM occupancy fraction of this launch (from the register-pressure
    #: model).  The device scheduler uses it as the kernel's SM demand:
    #: launches from concurrent queries are co-resident while their
    #: occupancies sum to <= 1.
    occupancy: float = 1.0

    @property
    def overlap_speedup(self) -> float:
        if self.pipelined_seconds == 0:
            return 1.0
        return self.serial_seconds / self.pipelined_seconds


@dataclass
class ExecutionReport:
    """Simulated time breakdown of one query."""

    scan_seconds: float = 0.0
    pcie_seconds: float = 0.0
    #: Simulated bytes behind the scan/PCIe charges above -- the volume the
    #: rewrite rules (build-side pushdown, projection pruning) reduce.
    scan_bytes: float = 0.0
    pcie_bytes: float = 0.0
    compile_seconds: float = 0.0
    kernel_seconds: float = 0.0
    filter_seconds: float = 0.0
    aggregate_seconds: float = 0.0
    sort_seconds: float = 0.0
    #: Operator pipeline overhead: intermediate materialisation, operator
    #: setup, result collection -- the host-side engine cost around the
    #: kernels (RateupDB heritage; calibrated on Figure 14(b)).
    pipeline_seconds: float = 0.0
    kernels_compiled: int = 0
    kernels_cached: int = 0
    simulated_rows: int = 0
    #: Zone-map chunk pruning on the scanned codec columns: chunks whose
    #: zone map proved the pushed-down filter unsatisfiable (never read or
    #: shipped) vs total chunks scanned.
    zone_chunks_skipped: int = 0
    zone_chunks_total: int = 0
    #: Measured wall-clock spent in the data plane (register expansion,
    #: numpy limb kernels, oracle conversions for aggregation).  *Not* part
    #: of :attr:`total_seconds` -- the simulated times come from the timing
    #: model; this is the real cost of producing the bit-exact results.
    data_plane_seconds: float = 0.0
    #: One record per JIT-kernel launch, in execution order.  Streamed
    #: entries carry the chunk count and the pipelined-vs-serial split.
    kernel_executions: List[KernelExecution] = field(default_factory=list)

    @property
    def streamed_kernels(self) -> List[KernelExecution]:
        return [entry for entry in self.kernel_executions if entry.streamed]

    @property
    def overlap_speedup(self) -> float:
        """Aggregate serial/pipelined ratio across the streamed kernels."""
        streamed = self.streamed_kernels
        pipelined = sum(entry.pipelined_seconds for entry in streamed)
        if pipelined == 0:
            return 1.0
        return sum(entry.serial_seconds for entry in streamed) / pipelined

    @property
    def total_seconds(self) -> float:
        return (
            self.scan_seconds
            + self.pcie_seconds
            + self.compile_seconds
            + self.kernel_seconds
            + self.filter_seconds
            + self.aggregate_seconds
            + self.sort_seconds
            + self.pipeline_seconds
        )

    @property
    def execution_seconds(self) -> float:
        """Everything except JIT compilation (the Figure 14(b) split)."""
        return self.total_seconds - self.compile_seconds


@dataclass
class Batch:
    """Columns flowing between operators, plus the simulated row count."""

    columns: Dict[str, Column]
    rows: int
    simulated_rows: float

    def column(self, name: str) -> Column:
        try:
            return self.columns[name]
        except KeyError:
            raise ExecutionError(f"column {name!r} not in batch") from None


@dataclass
class QueryContext:
    """Everything operators need: device models, caches, options."""

    relation: Relation
    simulate_rows: int
    #: Relations brought in by JOIN clauses, keyed by table name.
    joined: Dict[str, Relation] = field(default_factory=dict)
    device: GpuDevice = DEFAULT_DEVICE
    host: HostSystem = DEFAULT_HOST
    kernel_cache: KernelCache = field(default_factory=KernelCache)
    jit_options: JitOptions = field(default_factory=JitOptions)
    include_scan: bool = True
    streaming: StreamingConfig = field(default_factory=StreamingConfig)
    #: Simulated bytes of scanned columns not yet shipped to the device.
    #: With streaming enabled, ScanOp defers its PCIe charge here; the
    #: first kernel consuming a column pipelines its transfer against
    #: compute, and :func:`repro.engine.executor.run_plan` flushes whatever
    #: no kernel consumed as a plain serial transfer.
    pending_transfer: Dict[str, float] = field(default_factory=dict)
    #: Cost model for runtime physical choices (stream chunk sizing); None
    #: reproduces the un-costed behaviour.
    cost_model: Optional["CostModel"] = None
    #: Whether the optimizer is on for this query (cost-based chunk sizing).
    optimizer: "OptimizerConfig" = field(default_factory=lambda: OptimizerConfig.off())
    #: Cross-query device residency of columns (shared by the serving
    #: layer's sessions).  ``None`` keeps the single-query behaviour:
    #: every scan ships its columns over PCIe.
    residency: Optional["DeviceResidency"] = None
    #: Cooperative cancellation flag, polled between operators by
    #: :func:`repro.engine.executor.run_plan`.  Returning True raises
    #: :class:`repro.errors.QueryCancelledError` at the next operator
    #: boundary -- never mid-kernel, so shared caches stay consistent.
    cancel_check: Optional[Callable[[], bool]] = None
    report: ExecutionReport = field(default_factory=ExecutionReport)


OutputValue = Union[DecimalValue, int, float, str]


class PhysicalOp:
    """Base class: transforms a batch and charges the report."""

    #: Planner-attached :class:`~repro.engine.plan.cost.CostEstimate` for
    #: EXPLAIN display; ``None`` when the query planned without costing.
    estimated: Optional["CostEstimate"] = None

    def run(self, batch: Optional[Batch], context: QueryContext) -> Batch:
        raise NotImplementedError


class ScanOp(PhysicalOp):
    """Read the needed columns from storage, then ship them over PCIe.

    Columns with a storage codec are charged at their *encoded* wire size,
    and pushed-down literal predicates (attached by the planner from an
    adjacent filter) prune whole chunks through the zone-map index before
    any byte is read or shipped.  Pruning affects only the simulated byte
    accounting -- the batch always carries the full rows, and the filter
    operator computes the exact mask, so results stay bit-exact.
    """

    def __init__(
        self,
        columns: List[str],
        predicates: Optional[List[Comparison]] = None,
        table: str = "",
    ):
        self.columns = columns  # the columns the query actually touches
        #: Literal conjuncts from the immediately-following filter; used
        #: only for zone-map chunk pruning, never for row elimination.
        self.predicates = list(predicates or [])
        #: The scanned relation's name, for plan snapshots; ``run`` reads
        #: ``context.relation``.
        self.table = table

    def run(self, batch: Optional[Batch], context: QueryContext) -> Batch:
        relation = context.relation
        scale = context.simulate_rows / max(relation.rows, 1)
        skip = _zone_skip_mask(relation, self.predicates) if self.predicates else None
        kept_fraction = 1.0
        if skip is not None:
            kept_fraction = float(np.count_nonzero(~skip)) / max(relation.rows, 1)

        # Per-column bytes this scan actually reads and ships: encoded wire
        # size for codec columns (minus zone-skipped chunks), stored bytes
        # (scaled by the surviving-row fraction) otherwise.
        wire: Dict[str, float] = {}
        for name in self.columns:
            column = relation.column(name)
            if column.codec is not None and isinstance(column.column_type, DecimalType):
                encoding = column.encoding()
                context.report.zone_chunks_total += len(encoding.chunks)
                if skip is None:
                    wire[name] = float(encoding.wire_bytes)
                else:
                    kept = 0
                    for chunk in encoding.chunks:
                        if skip[chunk.zone.row_start : chunk.zone.row_stop].all():
                            context.report.zone_chunks_skipped += 1
                        else:
                            kept += chunk.wire_bytes
                    wire[name] = float(kept)
            else:
                wire[name] = column.bytes_stored * kept_fraction

        simulated_bytes = int(sum(wire.values()) * scale)
        if context.include_scan:
            context.report.scan_seconds += gpu_timing.disk_scan_time(simulated_bytes, context.host)
            context.report.scan_bytes += simulated_bytes
        ship = self.columns
        if context.residency is not None:
            # Shared device: columns another query already shipped are
            # resident (keyed by version, so appends re-ship), and this
            # scan pays PCIe only for the cold ones.
            ship = [
                name
                for name in self.columns
                if context.residency.admit(
                    (relation.name, name, relation.column(name).version),
                    wire[name] * scale,
                )
            ]
        if context.streaming.enabled:
            # Defer the H2D copy: the first kernel touching each column
            # streams its transfer chunk-wise, overlapped with compute.
            for name in ship:
                context.pending_transfer[name] = (
                    context.pending_transfer.get(name, 0.0) + wire[name] * scale
                )
        else:
            ship_bytes = int(sum(wire[name] for name in ship) * scale) if ship else 0
            context.report.pcie_seconds += gpu_timing.pcie_time(ship_bytes, context.device)
            context.report.pcie_bytes += ship_bytes
        columns = {name: relation.column(name) for name in self.columns}
        context.report.simulated_rows = context.simulate_rows
        return Batch(columns=columns, rows=relation.rows, simulated_rows=float(context.simulate_rows))


class FilterOp(PhysicalOp):
    """Apply WHERE conjuncts; selectivity scales the simulated row count.

    A filter after the aggregate is the HAVING clause: it runs over the
    aggregated batch, where output aliases resolve.
    """

    def __init__(self, predicates: List[Comparison], always_false: bool = False):
        self.predicates = predicates
        #: Plan-time proof that the conjuncts are unsatisfiable (set by the
        #: predicate-simplify rule): no kernel runs, the batch just empties.
        self.always_false = always_false

    def run(self, batch: Optional[Batch], context: QueryContext) -> Batch:
        assert batch is not None
        if self.always_false:
            empty = np.empty(0, dtype=np.int64)
            return Batch(
                columns={name: column.take(empty) for name, column in batch.columns.items()},
                rows=0,
                simulated_rows=0.0,
            )
        mask = _conjunct_mask(self.predicates, batch.column, batch.rows)
        indices = np.nonzero(mask)[0]
        selectivity = len(indices) / max(batch.rows, 1)
        # Filter kernel: one pass over each *distinct* predicate column --
        # a column named by several conjuncts is still read only once.
        predicate_columns = {p.column for p in self.predicates}
        predicate_columns.update(p.column_rhs for p in self.predicates if p.column_rhs)
        predicate_bytes = sum(
            batch.column(name).bytes_stored / max(batch.rows, 1)
            for name in predicate_columns
        )
        traffic = predicate_bytes * batch.simulated_rows
        context.report.filter_seconds += (
            gpu_timing.dram_pass_time(traffic, context.device)
            + context.device.kernel_launch_overhead
        )
        return Batch(
            columns={name: column.take(indices) for name, column in batch.columns.items()},
            rows=len(indices),
            simulated_rows=batch.simulated_rows * selectivity,
        )


class JoinOp(PhysicalOp):
    """Shared right-side handling and match kernel for the equi-joins.

    The joined relation is scanned and shipped over PCIe like any other
    input.  Build-side predicates (sunk here by the filter-pushdown rule)
    are evaluated *during* that scan -- the evaluation rides the far
    slower disk read, so it charges no extra kernel time -- and only the
    surviving rows' ship columns cross PCIe.  Filtering the build side
    before the join is equivalent to joining then filtering for an inner
    join, and the output keeps the same left-major, right-scan order, so
    results stay bit-exact.
    """

    def __init__(
        self,
        join,
        right_columns: List[str],
        right_predicates: Optional[List[Comparison]] = None,
    ):
        self.join = join
        self.right_columns = right_columns  # the joined table's shipped columns
        self.right_predicates = list(right_predicates or [])

    def _prepare_right(self, context: QueryContext):
        """Scan/filter/ship the right side; returns (relation, keep, sim_rows)."""
        try:
            right_relation = context.joined[self.join.table]
        except KeyError:
            raise ExecutionError(f"joined relation {self.join.table!r} missing") from None
        right_scale = context.simulate_rows / max(right_relation.rows, 1)

        keep: Optional[np.ndarray] = None
        survival = 1.0
        if self.right_predicates:
            mask = _conjunct_mask(
                self.right_predicates, right_relation.column, right_relation.rows
            )
            keep = np.nonzero(mask)[0]
            survival = len(keep) / max(right_relation.rows, 1)

        # The scan reads ship + predicate columns; PCIe carries only the
        # ship columns of rows that survived the build-side predicates.
        scan_columns = list(self.right_columns)
        for predicate in self.right_predicates:
            for name in (predicate.column, predicate.column_rhs):
                if name is not None and name not in scan_columns:
                    scan_columns.append(name)
        scanned_bytes = int(right_relation.wire_bytes_for(scan_columns) * right_scale)
        ship_bytes = int(
            right_relation.wire_bytes_for(self.right_columns) * right_scale * survival
        )
        if context.include_scan:
            context.report.scan_seconds += gpu_timing.disk_scan_time(
                scanned_bytes, context.host
            )
            context.report.scan_bytes += scanned_bytes
        context.report.pcie_seconds += gpu_timing.pcie_time(ship_bytes, context.device)
        context.report.pcie_bytes += ship_bytes

        sim_right = right_relation.rows * right_scale * survival
        return right_relation, keep, sim_right

    def _join(
        self, batch: Batch, right_relation: Relation, keep: Optional[np.ndarray]
    ) -> Batch:
        """Match keys and gather both sides, in left-major, right-scan order.

        One build/probe serves both algorithms: the right side's rows are
        bucketed by key in scan order, and each left row emits its bucket.
        """
        right_key_column = right_relation.column(self.join.right_column)
        if keep is not None:
            right_key_column = right_key_column.take(keep)
        left_keys, right_keys = _join_keys(
            batch.column(self.join.left_column), right_key_column
        )
        build: Dict = {}
        for row, key in enumerate(right_keys):
            build.setdefault(key, []).append(row)
        left_indices: List[int] = []
        right_indices: List[int] = []
        for row, key in enumerate(left_keys):
            for match in build.get(key, ()):
                left_indices.append(row)
                right_indices.append(match)

        match_ratio = len(left_indices) / max(batch.rows, 1)
        left_take = np.asarray(left_indices, dtype=np.int64)
        right_take = np.asarray(right_indices, dtype=np.int64)
        columns = {
            name: column.take(left_take) for name, column in batch.columns.items()
        }
        for name in self.right_columns:
            if name in columns:
                continue  # left side wins on (unexpected) name collisions
            column = right_relation.column(name)
            if keep is not None:
                column = column.take(keep)
            columns[name] = column.take(right_take)
        return Batch(
            columns=columns,
            rows=len(left_indices),
            simulated_rows=batch.simulated_rows * match_ratio,
        )


class HashJoinOp(JoinOp):
    """Inner equi-join: hash-build on the joined table, probe the batch.

    The simulated cost covers the right-side scan/transfer, one build pass
    over the right side, and one probe pass over the left batch, both at
    hash-table (random access) bandwidth.
    """

    def run(self, batch: Optional[Batch], context: QueryContext) -> Batch:
        assert batch is not None
        right_relation, keep, sim_right = self._prepare_right(context)
        context.report.filter_seconds += gpu_timing.hash_join_time(
            batch.simulated_rows, sim_right, context.device
        )
        return self._join(batch, right_relation, keep)


class NestedLoopJoinOp(JoinOp):
    """Inner equi-join by exhaustive comparison.

    The cost model picks this over the hash join only when the build side
    is tiny: it saves the build pass and a kernel launch at the price of
    O(left x right) streamed key comparisons.  Only the simulated cost
    differs from the hash join: both share one match kernel, so their
    output rows and order are identical.
    """

    def run(self, batch: Optional[Batch], context: QueryContext) -> Batch:
        assert batch is not None
        right_relation, keep, sim_right = self._prepare_right(context)
        context.report.filter_seconds += gpu_timing.nested_loop_join_time(
            batch.simulated_rows, sim_right, context.device
        )
        return self._join(batch, right_relation, keep)


class ProjectOp(PhysicalOp):
    """Evaluate non-aggregate expressions through the JIT engine."""

    def __init__(self, items: List[SelectItem], carry: Optional[List[str]] = None):
        self.items = items
        #: Columns retained alongside the select items (ORDER BY keys that
        #: are not select items; the sort-key-retention rule fills this).
        #: They stay device-resident for the sort, so they are excluded
        #: from the result-transfer charge.
        self.carry = list(carry or [])

    def run(self, batch: Optional[Batch], context: QueryContext) -> Batch:
        assert batch is not None
        out: Dict[str, Column] = {}
        for index, item in enumerate(self.items):
            text = item.expression
            assert isinstance(text, str)
            bare = text.strip()
            if bare in batch.columns:
                # Bare column projections (any type) pass straight through.
                column = batch.columns[bare]
                out[item.name] = Column(item.name, column.column_type, column.data)
                continue
            vector = _evaluate_expression(text, batch, context, kernel_name=f"calc_expr_{index}")
            out[item.name] = Column(item.name, DecimalType(vector.spec), vector.to_compact())
        result_bytes = sum(
            column.bytes_stored / max(batch.rows, 1) for column in out.values()
        ) * batch.simulated_rows
        context.report.pcie_seconds += gpu_timing.pcie_time(int(result_bytes), context.device)
        context.report.pcie_bytes += result_bytes
        for name in self.carry:
            if name not in out:
                out[name] = batch.column(name)
        return Batch(columns=out, rows=batch.rows, simulated_rows=batch.simulated_rows)


#: Threads per value (TPI) of the multi-threaded aggregation, for grouped
#: and ungrouped aggregates alike.
AGGREGATION_TPI = 8


class AggregationOp(PhysicalOp):
    """What the two aggregation operators share: ``items`` is the whole
    SELECT list, only its :attr:`aggregates` compute, and ``group_by``
    holds the key columns (empty when ungrouped)."""

    def __init__(self, items: List[SelectItem], group_by: Optional[List[str]] = None):
        self.items = items
        self.group_by = group_by or []

    @property
    def aggregates(self) -> List[SelectItem]:
        return [item for item in self.items if item.is_aggregate]


class AggregateOp(AggregationOp):
    """Ungrouped aggregation via the multi-threaded multi-pass reducer.

    The engine has no NULL, so SUM/AVG/MIN/MAX over zero rows raise
    :class:`ExecutionError`; ``COUNT(*)`` returns 0.
    """

    def run(self, batch: Optional[Batch], context: QueryContext) -> Batch:
        assert batch is not None
        out: Dict[str, Column] = {}
        sim_n = max(int(round(batch.simulated_rows)), 1)
        for index, item in enumerate(self.aggregates):
            call = item.expression
            assert isinstance(call, AggregateCall)
            if call.function == "COUNT":
                spec = inference.count_spec(sim_n)
                out[item.name] = Column.decimal_from_unscaled(item.name, [batch.rows], spec)
                continue
            if batch.rows == 0:
                raise ExecutionError(
                    f"{call} over zero rows has no value (the engine has no NULL)"
                )
            vector = _evaluate_expression(
                call.argument, batch, context, kernel_name=f"agg_expr_{index}"
            )
            started = time.perf_counter()
            unscaled = vector.to_unscaled()
            context.report.data_plane_seconds += time.perf_counter() - started
            run = mt_aggregation.aggregate(
                unscaled,
                vector.spec,
                op=call.function.lower(),
                tpi=AGGREGATION_TPI,
                device=context.device,
                simulate_tuples=sim_n,
            )
            context.report.aggregate_seconds += run.seconds
            out[item.name] = Column.decimal_from_unscaled(item.name, [run.value], run.spec)
        return Batch(columns=out, rows=1, simulated_rows=1.0)


class GroupAggregateOp(AggregationOp):
    """GROUP BY + aggregates.

    Tuples are grouped by sorting on the key columns (DECIMAL keys compare
    via the comparison operators of section III-A); each group reduces with
    the multi-pass aggregation.  The simulated cost adds the key sort, a
    per-aggregate payload gather (every value moves into its group's
    segment), and the multi-pass reduction itself.
    """

    def run(self, batch: Optional[Batch], context: QueryContext) -> Batch:
        assert batch is not None
        aggregates = self.aggregates
        keys = [_grouping_key(batch.column(name)) for name in self.group_by]
        rows = batch.rows
        composite = list(zip(*keys)) if keys else [()] * rows
        group_order: Dict[Tuple, List[int]] = {}
        for row, key in enumerate(composite):
            group_order.setdefault(key, []).append(row)
        groups = sorted(group_order)

        sim_n = max(int(round(batch.simulated_rows)), 1)
        # Sort cost over the key bytes + aggregation passes over all rows.
        key_bytes = sum(
            batch.column(name).bytes_stored / max(rows, 1) for name in self.group_by
        )
        context.report.sort_seconds += gpu_timing.dram_pass_time(
            gpu_timing.sort_passes(sim_n) * key_bytes * batch.simulated_rows,
            context.device,
        )

        out: Dict[str, List] = {name: [] for name in self.group_by}
        aggregate_columns: Dict[str, Tuple[List[int], DecimalSpec]] = {}

        # Evaluate each aggregate's input expression once over all rows.
        vectors: Dict[int, Tuple[List[int], DecimalSpec]] = {}
        for index, item in enumerate(aggregates):
            call = item.expression
            assert isinstance(call, AggregateCall)
            if call.function != "COUNT":
                vector = _evaluate_expression(
                    call.argument, batch, context, kernel_name=f"agg_expr_{index}"
                )
                started = time.perf_counter()
                vectors[index] = (vector.to_unscaled(), vector.spec)
                context.report.data_plane_seconds += time.perf_counter() - started
                # Payload gather: every (4*Lw+1)-byte value moves into its
                # group segment before the blockwise reduction.
                value_bytes = 4 * vector.spec.words + 1
                context.report.aggregate_seconds += gpu_timing.group_gather_time(
                    batch.simulated_rows * value_bytes
                )

        group_sim = sim_n / max(len(groups), 1)
        for key in groups:
            indices = group_order[key]
            for position, name in enumerate(self.group_by):
                out[name].append(key[position])
            for index, item in enumerate(aggregates):
                call = item.expression
                assert isinstance(call, AggregateCall)
                if call.function == "COUNT":
                    values, spec = aggregate_columns.setdefault(
                        item.name, ([], inference.count_spec(sim_n))
                    )
                    values.append(len(indices))
                    continue
                unscaled, spec = vectors[index]
                subset = [unscaled[i] for i in indices]
                run = mt_aggregation.aggregate(
                    subset,
                    spec,
                    op=call.function.lower(),
                    tpi=AGGREGATION_TPI,
                    device=context.device,
                    simulate_tuples=max(int(group_sim), 1),
                )
                context.report.aggregate_seconds += run.seconds
                values, _spec = aggregate_columns.setdefault(item.name, ([], run.spec))
                values.append(run.value)

        # Zero-group inputs (everything filtered away) still need typed,
        # empty output columns.
        for index, item in enumerate(aggregates):
            if item.name in aggregate_columns:
                continue
            call = item.expression
            if call.function == "COUNT":
                aggregate_columns[item.name] = ([], inference.count_spec(sim_n))
            else:
                _values, spec = vectors[index]
                aggregate_columns[item.name] = ([], inference.sum_result(spec, sim_n))

        columns: Dict[str, Column] = {}
        for name in self.group_by:
            columns[name] = _column_from_keys(name, out[name], batch.column(name))
        for item in aggregates:
            values, spec = aggregate_columns[item.name]
            columns[item.name] = Column.decimal_from_unscaled(item.name, values, spec)
        return Batch(columns=columns, rows=len(groups), simulated_rows=float(len(groups)))


class LimitOp(PhysicalOp):
    """LIMIT n over the (already ordered) result batch."""

    def __init__(self, count: int):
        if count < 0:
            raise PlanningError(f"LIMIT must be non-negative, got {count}")
        self.count = count

    def run(self, batch: Optional[Batch], context: QueryContext) -> Batch:
        assert batch is not None
        keep = min(self.count, batch.rows)
        return Batch(
            columns={name: column.head(keep) for name, column in batch.columns.items()},
            rows=keep,
            simulated_rows=float(keep),
        )


class SortOp(PhysicalOp):
    """ORDER BY over the (small) result batch."""

    def __init__(self, keys: List[OrderKey]):
        self.keys = keys

    def run(self, batch: Optional[Batch], context: QueryContext) -> Batch:
        assert batch is not None
        order = np.arange(batch.rows)
        for key in reversed(self.keys):
            column = batch.column(key.column)
            values = _sort_values(column)
            data = np.asarray(values)[order]
            ranks = np.argsort(data, kind="stable")
            if not key.ascending:
                # Reversing the ascending permutation would also reverse the
                # relative order of equal keys, breaking the multi-key
                # stability this loop depends on.  Instead, invert the sort
                # key itself: densely rank the values (ties share a rank,
                # which also works for non-negatable dtypes like CHAR bytes)
                # and stable-sort on the negated ranks.
                ranked = np.empty(len(ranks), dtype=np.int64)
                if len(ranks):
                    ordered = data[ranks]
                    distinct = np.ones(len(ranks), dtype=bool)
                    distinct[1:] = ordered[1:] != ordered[:-1]
                    ranked[ranks] = np.cumsum(distinct) - 1
                ranks = np.argsort(-ranked, kind="stable")
            order = order[ranks]
        context.report.sort_seconds += context.device.kernel_launch_overhead
        return Batch(
            columns={name: column.take(order) for name, column in batch.columns.items()},
            rows=batch.rows,
            simulated_rows=batch.simulated_rows,
        )


class DropOp(PhysicalOp):
    """Remove carried helper columns once their consumer (the sort) ran."""

    def __init__(self, columns: List[str]):
        self.columns = columns

    def run(self, batch: Optional[Batch], context: QueryContext) -> Batch:
        dropped = set(self.columns)
        assert batch is not None
        return Batch(
            columns={
                name: column
                for name, column in batch.columns.items()
                if name not in dropped
            },
            rows=batch.rows,
            simulated_rows=batch.simulated_rows,
        )


# ------------------------------------------------------------------ helpers


def _evaluate_expression(
    text: str, batch: Batch, context: QueryContext, kernel_name: str
) -> DecimalVector:
    """JIT-compile and run one expression kernel over the batch.

    A bare column reference needs no kernel at all: the aggregation
    operators (section III-E2) consume the compact column directly, so no
    JIT compilation is charged.
    """
    bare = text.strip()
    if bare in batch.columns and isinstance(
        batch.columns[bare].column_type, DecimalType
    ):
        # No kernel to overlap with: a deferred transfer ships serially.
        _flush_pending_transfer(context, [bare])
        started = time.perf_counter()
        vector = batch.columns[bare].decimal_vector()
        context.report.data_plane_seconds += time.perf_counter() - started
        return vector
    schema = {
        name: column.column_type.spec
        for name, column in batch.columns.items()
        if isinstance(column.column_type, DecimalType)
    }
    compiled, cached = context.kernel_cache.compile(
        text, schema, context.jit_options, name=kernel_name
    )
    if cached:
        context.report.kernels_cached += 1
    else:
        # The NVRTC startup base is charged once per query, on the first
        # kernel compiled.
        include_base = context.report.kernels_compiled == 0
        context.report.compile_seconds += gpu_timing.compile_time(
            [compiled.kernel], include_base=include_base
        )
        context.report.kernels_compiled += 1
    kernel = compiled.kernel
    inputs = {name: batch.column(name).data for name in kernel.input_columns}
    # Simulated time comes from the simulated row count only; the real rows
    # (possibly none) drive the data plane.  Columns whose scan-time
    # transfer is still pending stream their H2D copy with this kernel.
    sim = max(int(round(batch.simulated_rows)), 1)
    transfer_bytes = 0.0
    for column in kernel.input_columns:
        transfer_bytes += context.pending_transfer.pop(column, 0.0)
    context.report.pcie_bytes += transfer_bytes
    chunk_rows = choose_chunk_rows(
        kernel,
        sim,
        transfer_bytes,
        context.streaming,
        context.device,
        context.cost_model,
        context.optimizer,
    )
    started = time.perf_counter()
    run = execute_streamed(
        kernel,
        inputs,
        batch.rows,
        simulate_tuples=sim,
        chunk_rows=chunk_rows,
        device=context.device,
        transfer_bytes=int(transfer_bytes),
    )
    elapsed = time.perf_counter() - started
    # The pipelined total splits into pure compute (``kernel_seconds``) and
    # the exposed, non-overlapped transfer remainder (``pcie_seconds``).
    compute_total = run.kernel_seconds_per_chunk * run.chunks
    context.report.kernel_seconds += compute_total
    context.report.pcie_seconds += max(run.pipelined_seconds - compute_total, 0.0)
    context.report.data_plane_seconds += elapsed
    context.report.kernel_executions.append(
        KernelExecution(
            name=kernel.name,
            expression=kernel.expression_sql,
            chunks=run.chunks,
            streamed=context.streaming.enabled,
            transfer_seconds_per_chunk=run.transfer_seconds_per_chunk,
            kernel_seconds_per_chunk=run.kernel_seconds_per_chunk,
            serial_seconds=run.serial_seconds,
            pipelined_seconds=run.pipelined_seconds,
            data_plane_seconds=elapsed,
            occupancy=gpu_occupancy.compute(kernel, context.device).occupancy,
        )
    )
    return run.result


def choose_chunk_rows(
    kernel,
    simulate_rows: int,
    transfer_bytes: float,
    streaming: StreamingConfig,
    device: GpuDevice,
    cost_model: Optional[CostModel] = None,
    optimizer: Optional[OptimizerConfig] = None,
) -> int:
    """Simulated rows per stream chunk for one kernel launch.

    With streaming off the whole batch is one chunk (the serial launch);
    otherwise the cost model picks the size when the optimizer allows it,
    else the streaming config's explicit or auto-sized chunk.  The
    executor and EXPLAIN both size chunks here.
    """
    if not streaming.enabled:
        return simulate_rows
    if cost_model is not None and optimizer is not None and optimizer.enabled:
        return cost_model.choose_chunk_rows(kernel, simulate_rows, streaming, transfer_bytes)
    return streaming.resolve_chunk_rows(kernel, device, simulate_rows)


def _flush_pending_transfer(context: QueryContext, columns) -> None:
    """Serially charge deferred transfers for columns used outside a kernel."""
    pending = sum(context.pending_transfer.pop(name, 0.0) for name in columns)
    if pending:
        context.report.pcie_seconds += gpu_timing.pcie_time(int(pending), context.device)
        context.report.pcie_bytes += pending


def _zone_skip_mask(
    relation: Relation, predicates: List[Comparison]
) -> Optional[np.ndarray]:
    """Rows living in chunks some zone map proves empty, or None.

    Only literal conjuncts over codec-carrying DECIMAL columns contribute;
    a chunk is skippable when any conjunct's zone verdict is ``False``
    (no row in the chunk can satisfy it, hence none can satisfy the
    conjunction).
    """
    skip: Optional[np.ndarray] = None
    for predicate in predicates:
        if predicate.column_rhs is not None or predicate.column not in relation:
            continue
        column = relation.column(predicate.column)
        if column.codec is None or not isinstance(column.column_type, DecimalType):
            continue
        spec = column.column_type.spec
        target = DecimalValue.from_literal(str(predicate.literal), spec).unscaled
        for zone in column.encoding().zones:
            if zone.evaluate(predicate.op, target) is False:
                if skip is None:
                    skip = np.zeros(relation.rows, dtype=bool)
                skip[zone.row_start : zone.row_stop] = True
    return skip


#: Each SQL comparison operator as the function that applies it.
COMPARATORS: Dict[str, Callable] = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _compare(lhs, op: str, rhs):
    """Apply comparison ``op`` (element-wise on arrays)."""
    try:
        compare = COMPARATORS[op]
    except KeyError:
        raise ExecutionError(f"unsupported comparison {op!r}") from None
    return compare(lhs, rhs)


def _conjunct_mask(
    predicates: List[Comparison], column: Callable[[str], Column], rows: int
) -> np.ndarray:
    """AND of the conjuncts' masks over ``rows`` rows; ``column`` looks up inputs."""
    mask = np.ones(rows, dtype=bool)
    for predicate in predicates:
        left = column(predicate.column)
        if predicate.column_rhs is not None:
            mask &= _evaluate_column_predicate(
                left, predicate.op, column(predicate.column_rhs)
            )
            continue
        encoded = _evaluate_predicate_encoded(left, predicate)
        mask &= encoded if encoded is not None else _evaluate_predicate(left, predicate)
    return mask


def _evaluate_predicate_encoded(
    column: Column, predicate: Comparison
) -> Optional[np.ndarray]:
    """Evaluate ``column <op> literal`` on encoded bytes, before expansion.

    Applies only when the column carries an order-preserving codec and the
    scan already materialised its encoding (never pay an encode just to
    filter).  Chunks whose zone map decides the predicate outright skip
    per-row work; mixed chunks compare encoded bytes against the encoded
    literal, which by the order-preserving property equals the numeric
    comparison -- so the mask is bit-identical to the expanded path's.
    Returns None when the encoded path does not apply.
    """
    if not isinstance(column.column_type, DecimalType):
        return None
    codec = column.codec
    if codec is None or not codec.order_preserving:
        return None
    encoding = column.cached_encoding()
    if encoding is None:
        return None
    op = predicate.op
    if op not in COMPARATORS:
        return None
    spec = column.column_type.spec
    target = DecimalValue.from_literal(str(predicate.literal), spec).unscaled
    try:
        literal = codec.encode_literal(target, spec)
    except StorageError:
        return None
    mask = np.zeros(column.rows, dtype=bool)
    for chunk in encoding.chunks:
        verdict = chunk.zone.evaluate(op, target)
        rows = slice(chunk.zone.row_start, chunk.zone.row_stop)
        if verdict is True:
            mask[rows] = True
        elif verdict is None:
            mask[rows] = _compare(codec.compare_chunk(chunk, literal), op, 0)
    return mask


def _evaluate_predicate(column: Column, predicate: Comparison) -> np.ndarray:
    """Evaluate ``column <op> literal`` to a boolean mask."""
    literal = predicate.literal
    column_type = column.column_type
    if isinstance(column_type, DecimalType):
        spec = column_type.spec
        target = DecimalValue.from_literal(str(literal), spec).unscaled
        values = np.array(column.unscaled(), dtype=object)
        lhs = values
        rhs = target
    elif isinstance(column_type, DateType):
        rhs = _parse_date(literal) if isinstance(literal, str) else int(literal)
        lhs = column.data
    elif isinstance(column_type, CharType):
        # Stored CHAR values are space-padded to the declared width.
        rhs = str(literal).ljust(column_type.width).encode()
        lhs = column.data
    else:
        rhs = literal
        lhs = column.data
    return _compare(lhs, predicate.op, rhs)


def _evaluate_column_predicate(left: Column, op: str, right: Column) -> np.ndarray:
    """Evaluate ``left <op> right`` between two columns.

    DECIMAL columns compare exactly with scale alignment (the comparison
    operators of section III-A); other types compare on their raw values.
    """
    if isinstance(left.column_type, DecimalType) and isinstance(
        right.column_type, DecimalType
    ):
        from repro.core.decimal import vectorized as _vz

        order = _vz.compare(left.decimal_vector(), right.decimal_vector())
        return _compare(order, op, 0)
    return _compare(left.data, op, right.data)


def _parse_date(text: str) -> int:
    """'YYYY-MM-DD' -> days since 1992-01-01 (the TPC-H epoch here)."""
    import datetime

    parsed = datetime.date.fromisoformat(text)
    return (parsed - datetime.date(1992, 1, 1)).days


def _grouping_key(column: Column) -> List:
    if isinstance(column.column_type, DecimalType):
        return column.unscaled()
    if isinstance(column.column_type, CharType):
        return [value.decode().rstrip() for value in column.data.tolist()]
    return column.data.tolist()


def _join_keys(left: Column, right: Column) -> Tuple[List, List]:
    """Both sides' equi-join keys, comparable with each other.

    DECIMAL keys compare by value: when the two sides' scales differ (an
    INT key counts as scale 0), both unscaled lists rescale to the larger
    scale.  Keys of equal scale, INT = INT among them, compare as stored.
    """
    left_keys, right_keys = _grouping_key(left), _grouping_key(right)
    left_scale, right_scale = _key_scale(left), _key_scale(right)
    if left_scale is None or right_scale is None or left_scale == right_scale:
        return left_keys, right_keys
    scale = max(left_scale, right_scale)
    left_factor = 10 ** (scale - left_scale)
    right_factor = 10 ** (scale - right_scale)
    return (
        [key * left_factor for key in left_keys],
        [key * right_factor for key in right_keys],
    )


def _key_scale(column: Column) -> Optional[int]:
    """Decimal scale of a numeric join key (INT is 0); None for other types."""
    if isinstance(column.column_type, DecimalType):
        return column.column_type.spec.scale
    if isinstance(column.column_type, IntType):
        return 0
    return None


def _column_from_keys(name: str, values: List, template: Column) -> Column:
    if isinstance(template.column_type, DecimalType):
        return Column.decimal_from_unscaled(name, values, template.column_type.spec)
    if isinstance(template.column_type, CharType):
        return Column.chars(name, [str(v) for v in values], template.column_type.width)
    if isinstance(template.column_type, DateType):
        return Column.dates(name, values)
    if isinstance(template.column_type, DoubleType):
        return Column.doubles(name, values)
    return Column.integers(name, values)


def _sort_values(column: Column) -> List:
    if isinstance(column.column_type, DecimalType):
        return column.unscaled()
    return column.data.tolist()
