"""Query -> operator list -> rewrite rules -> costing (paper Figure 3).

:func:`build_plan` turns a parsed query straight into the bottom-up
physical operator list, with a hash join for every join.  ``plan_query``
then drives the rewrite-rule engine (:mod:`repro.engine.plan.rules`) to a
fixpoint over that list, swaps a join to the nested-loop algorithm where
the :class:`~repro.engine.plan.cost.CostModel` prefers it, and annotates
every operator with an ISGBD-style per-node
:class:`~repro.engine.plan.cost.CostEstimate` for EXPLAIN.

The returned :class:`PhysicalPlan` behaves like the plain operator list
older call sites expect, and additionally carries the rewrite trace and
the cost-based choices.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional

from repro.engine.plan.cost import (
    CostEstimate,
    CostModel,
    OptimizerConfig,
    PlanStats,
    join_output_rows,
    predicate_selectivity,
)
from repro.engine.plan.physical import (
    AggregateOp,
    DropOp,
    FilterOp,
    GroupAggregateOp,
    HashJoinOp,
    JoinOp,
    LimitOp,
    NestedLoopJoinOp,
    PhysicalOp,
    ProjectOp,
    ScanOp,
    SortOp,
)
from repro.engine.plan.rules import RewriteEvent, apply_rules, default_rules, mentions
from repro.engine.sql.ast_nodes import Query
from repro.errors import PlanningError

#: Estimated stored bytes per row of a computed (JIT) result column when
#: the catalog has no entry for it: a 4-word DECIMAL payload plus sign.
ESTIMATED_RESULT_BYTES = 17.0


class PhysicalPlan:
    """The physical operator chain plus its planning trace.

    Iterates/indexes like the plain ``List[PhysicalOp]`` the executor and
    EXPLAIN historically consumed; ``events`` records the rewrite-rule
    firings and ``choices`` the cost-based physical decisions.
    """

    def __init__(
        self,
        ops: List[PhysicalOp],
        events: Optional[List[RewriteEvent]] = None,
        choices: Optional[List[str]] = None,
    ):
        self.ops = list(ops)
        self.events = list(events or [])
        self.choices = list(choices or [])
        #: :class:`repro.analysis.AnalysisReport` from the plan-level
        #: static analyzer, which :func:`plan_query` runs on every plan.
        self.analysis = None

    def __iter__(self) -> Iterator[PhysicalOp]:
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    def __getitem__(self, index):
        return self.ops[index]


def build_plan(
    query: Query,
    available_columns: List[str],
    joined_columns: "Optional[dict]" = None,
) -> List[PhysicalOp]:
    """Turn a parsed query into its bottom-up operator list (scan first).

    ``joined_columns`` maps each JOINed table name to its column list so
    column references resolve across every relation in the query.  A
    :class:`FilterOp` after the aggregate is the HAVING clause.
    """
    joined_columns = joined_columns or {}
    # Columns named in any ON clause must survive from whichever relation
    # owns them (a later join's left key may come from an earlier join).
    on_columns = [c for join in query.joins for c in (join.left_column, join.right_column)]
    referenced = _referenced_columns(query, available_columns)
    for column in on_columns:
        if column in available_columns and column not in referenced:
            referenced.append(column)
    ops: List[PhysicalOp] = [ScanOp(referenced, table=query.table)]
    for join in query.joins:
        right_available = joined_columns.get(join.table, [])
        right_needed = _referenced_columns(query, right_available)
        for column in on_columns:
            if column in right_available and column not in right_needed:
                right_needed.append(column)
        ops.append(HashJoinOp(join, right_needed))
    if query.where:
        ops.append(FilterOp(query.where))
    if query.has_aggregates:
        if query.group_by:
            ops.append(GroupAggregateOp(query.select_items, query.group_by))
        elif all(item.is_aggregate for item in query.select_items):
            ops.append(AggregateOp(query.select_items))
        else:
            raise PlanningError("mixing aggregates and bare expressions requires GROUP BY")
        if query.having:
            ops.append(FilterOp(query.having))
    else:
        ops.append(ProjectOp(query.select_items))
    if query.order_by:
        ops.append(SortOp(query.order_by))
    if query.limit is not None:
        ops.append(LimitOp(query.limit))
    return ops


def plan_query(
    query: Query,
    available_columns: List[str],
    joined_columns=None,
    *,
    stats: Optional[PlanStats] = None,
    optimizer: Optional[OptimizerConfig] = None,
    cost_model: Optional[CostModel] = None,
    jit_options=None,
    label: Optional[str] = None,
) -> PhysicalPlan:
    """Build the physical operator plan for a parsed query.

    Without ``stats``/``optimizer``/``cost_model`` this reproduces the
    historical fixed-shape translation (plus the always-on sort-key
    retention pass) and annotates no costs.  ``jit_options``/``label``
    parameterize the plan-level static analyzer, which runs on every plan,
    optimized or not.
    """
    optimizer = optimizer if optimizer is not None else OptimizerConfig.off()
    ops = build_plan(query, available_columns, joined_columns)
    ops, events = apply_rules(ops, default_rules(optimize=optimizer.enabled), stats)

    choices: List[str] = []
    costed = stats is not None and cost_model is not None
    rows = float(stats.simulate_rows) if stats is not None else 0.0

    for index, op in enumerate(ops):
        estimate: Optional[CostEstimate] = None
        if isinstance(op, ScanOp):
            if costed:
                estimate = cost_model.scan(stats.main.bytes_for(op.columns) * rows, rows)
        elif isinstance(op, JoinOp):
            op, estimate, rows = _plan_join(op, rows, stats, optimizer, cost_model, choices)
            ops[index] = op
        elif isinstance(op, FilterOp):
            if costed:
                if op.always_false:
                    estimate = CostEstimate(0.0, 0.0, 0.0)
                else:
                    estimate = cost_model.filter(
                        op.predicates,
                        _predicate_bytes(op.predicates, stats),
                        rows,
                        table=stats.main,
                    )
            if op.always_false:
                rows = 0.0
            else:
                rows *= predicate_selectivity(
                    op.predicates, stats.main if stats is not None else None
                )
        elif isinstance(op, GroupAggregateOp):
            groups = _estimate_groups(op.group_by, rows, stats)
            if costed:
                key_bytes = sum(_column_bytes(stats, name) for name in op.group_by)
                estimate = cost_model.group_aggregate(
                    key_bytes, ESTIMATED_RESULT_BYTES * len(op.aggregates), rows, groups
                )
            rows = groups
        elif isinstance(op, AggregateOp):
            if costed:
                estimate = cost_model.aggregate(ESTIMATED_RESULT_BYTES * len(op.aggregates), rows)
            rows = 1.0
        elif isinstance(op, ProjectOp):
            if costed:
                result_bytes = sum(
                    _column_bytes(stats, str(item.expression).strip()) for item in op.items
                )
                estimate = cost_model.project(result_bytes, rows)
        elif isinstance(op, SortOp):
            if costed:
                key_bytes = sum(_column_bytes(stats, key.column) for key in op.keys)
                estimate = cost_model.sort(key_bytes, rows)
        elif isinstance(op, DropOp):
            if costed:
                estimate = CostEstimate(0.0, 0.0, rows)
        elif isinstance(op, LimitOp):
            if costed:
                estimate = cost_model.limit(op.count, rows)
            rows = min(float(op.count), rows)
        op.estimated = estimate
    _push_zone_predicates(ops)
    plan = PhysicalPlan(ops, events, choices)
    # Imported lazily: repro.analysis.plan pulls in the JIT pipeline,
    # which this module must not depend on at import time.
    from repro.analysis import Severity
    from repro.analysis.plan import analyze_plan
    from repro.errors import PlanAnalysisError

    plan.analysis = analyze_plan(
        plan,
        stats=stats,
        jit_options=jit_options,
        label=label or query.table,
    )
    if optimizer.strict_plan_analysis and plan.analysis.has_errors:
        raise PlanAnalysisError(
            "plan analysis failed:\n" + plan.analysis.format(Severity.ERROR),
            report=plan.analysis,
        )
    return plan


def _push_zone_predicates(ops: List[PhysicalOp]) -> None:
    """Attach the adjacent filter's literal conjuncts to the leading scan.

    The scan uses them only for zone-map chunk pruning (byte accounting);
    the filter still computes the exact mask, so this is always sound.
    Conservatively limited to the scan-then-filter prefix -- a join or
    project in between could change the row space the predicates see.
    """
    if len(ops) < 2 or not isinstance(ops[0], ScanOp):
        return
    filter_op = ops[1]
    if not isinstance(filter_op, FilterOp) or filter_op.always_false:
        return
    ops[0].predicates = [
        predicate
        for predicate in filter_op.predicates
        if predicate.column_rhs is None
    ]


def _plan_join(
    op: JoinOp,
    rows: float,
    stats: Optional[PlanStats],
    optimizer: OptimizerConfig,
    cost_model: Optional[CostModel],
    choices: List[str],
):
    """Cost one join, choosing its algorithm when the optimizer is on.

    The estimates keep the catalog's *relative* cardinalities (the right
    side scales by ``simulate_rows / main.rows``) rather than the
    execution model's uniform inflation of every relation to
    ``simulate_rows``: inflation multiplies both algorithms' linear terms
    alike but squares the nested-loop term, so estimating on inflated
    counts would never classify any build side as small.
    """
    right = stats.table(op.join.table) if stats is not None else None
    if right is None or cost_model is None:
        return op, None, rows
    scale = stats.simulate_rows / max(stats.main.rows, 1)
    survival = predicate_selectivity(op.right_predicates, right)
    right_rows = right.rows * scale * survival
    right_bytes = right.bytes_for(op.right_columns) * right_rows
    # |L| * |R| / max(ndv(L.key), ndv(R.key)).  NDVs are catalog-scale, so
    # inflate them by the same simulate factor as the row counts: a key
    # column's distinct count grows with the relation it indexes.
    left_ndv = stats.column_ndv(op.join.left_column)
    right_ndv = right.ndv(op.join.right_column)
    out_rows = join_output_rows(
        rows,
        right_rows,
        left_ndv * scale if left_ndv else 0.0,
        right_ndv * scale if right_ndv else 0.0,
    )
    if not optimizer.enabled:
        return op, cost_model.hash_join(rows, right_rows, right_bytes, out_rows), out_rows
    name, estimate, candidates = cost_model.choose_join(
        rows, right_rows, right_bytes, out_rows
    )
    loser = next(key for key in candidates if key != name)
    choices.append(
        f"join {op.join.table}: {name} "
        f"({estimate.total_seconds:.4f}s vs {loser} "
        f"{candidates[loser].total_seconds:.4f}s, est {out_rows:,.0f} rows out)"
    )
    if name != "hash":
        op = NestedLoopJoinOp(op.join, op.right_columns, op.right_predicates)
    return op, estimate, out_rows


def _estimate_groups(
    group_by: List[str], rows: float, stats: Optional[PlanStats]
) -> float:
    """Distinct-group estimate: product of the group keys' NDVs.

    Capped by the input rows (a grouping cannot produce more groups than
    rows) and falling back to the square-root rule of thumb when any key
    has no statistics (computed columns, missing catalog entries).
    """
    fallback = max(1.0, math.sqrt(max(rows, 1.0)))
    if stats is None:
        return fallback
    product = 1.0
    for name in group_by:
        ndv = stats.column_ndv(name)
        if ndv is None:
            return fallback
        product *= max(ndv, 1)
    return max(1.0, min(product, max(rows, 1.0)))


def _column_bytes(stats: Optional[PlanStats], name: str) -> float:
    """Catalog bytes/row of a column; computed columns get the default."""
    if stats is not None:
        for table in [stats.main, *stats.joined.values()]:
            if name in table.column_bytes:
                return table.column_bytes[name]
    return ESTIMATED_RESULT_BYTES


def _predicate_bytes(predicates, stats: Optional[PlanStats]) -> float:
    """Bytes/row a filter pass reads: each distinct column once."""
    columns = {p.column for p in predicates}
    columns.update(p.column_rhs for p in predicates if p.column_rhs)
    return sum(_column_bytes(stats, name) for name in columns)


def _referenced_columns(query: Query, available: List[str]) -> List[str]:
    """Columns the query touches, in catalog order (drives scan/PCIe cost)."""
    mentioned = set()
    for item in query.select_items:
        text = item.expression.argument if item.is_aggregate else item.expression
        for name in available:
            if mentions(text, name):
                mentioned.add(name)
    for predicate in list(query.where) + list(query.having):
        mentioned.add(predicate.column)
        if predicate.column_rhs is not None:
            mentioned.add(predicate.column_rhs)
    mentioned.update(query.group_by)
    for key in query.order_by:
        if key.column in available:
            mentioned.add(key.column)
    return [name for name in available if name in mentioned]

