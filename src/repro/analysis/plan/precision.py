"""Precision/scale dataflow pass over physical plans (``PREC*`` rules).

Propagates ``DECIMAL(p, s)`` specs through the plan exactly the way
execution does -- the scan's column specs flow through joins and
projections, every JIT expression is compiled against the schema its batch
would carry, and aggregates widen through the section III-B3 inference
rules -- then proves at the *plan* level that every expression result fits
the register width the JIT allocates.

The proof is deliberately redundant with the kernel range pass
(``repro.analysis.ranges``): this pass walks the optimised expression
*tree* with the same interval transfer functions the kernel pass applies
to the *IR*, and then cross-checks the two verdicts.  Agreement is
reported as a ``PREC004`` proof; disagreement is a ``PREC002`` error --
the two layers analysing the same expression must never tell different
stories, so a bug in either transfer function surfaces as a mismatch
instead of a silently wrong proof.

Rules:

* ``PREC001`` (error): a plan-level interval can exceed its node's
  allocated word container (the plan-level analogue of ``RANGE001``).
* ``PREC002`` (error): the plan-level overflow verdict disagrees with the
  kernel range pass on the same expression.
* ``PREC003`` (error): an expression cannot compile against the decimal
  schema its batch carries (e.g. pruning removed an input column).
* ``PREC004`` (info): proof -- the expression result fits its container
  and the plan-level and kernel-level analyses agree.
* ``PREC005`` (info/error): aggregate widening proof over the simulated
  tuple count (error when the widened spec cannot be constructed).

Expressions are compiled through a module-private analysis-only
:class:`~repro.core.jit.pipeline.KernelCache`: warming the session's
shared cache from the analyzer would flip execution's compiled-vs-cached
accounting, and strict analysis is forced off so an overflowing kernel is
*reported* here rather than raising mid-analysis.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.ranges import (
    POSSIBLE_OVERFLOW,
    _abs_interval,
    _container_limit,
    _div_interval,
    _magnitude,
    _mod_interval,
    _mul_interval,
    _rescale_interval,
)
from repro.core.decimal import inference
from repro.core.decimal.context import DecimalSpec
from repro.core.jit import expr_ast
from repro.core.jit.pipeline import JitOptions, KernelCache
from repro.engine.plan.physical import (
    AggregationOp,
    DropOp,
    HashJoinOp,
    NestedLoopJoinOp,
    ProjectOp,
    ScanOp,
)
from repro.errors import ReproError
from repro.storage.schema import DecimalType

PLAN_OVERFLOW = "PREC001"
PROOF_MISMATCH = "PREC002"
EXPR_UNTYPABLE = "PREC003"
EXPR_PROOF = "PREC004"
AGGREGATE_PROOF = "PREC005"

Interval = Tuple[int, int]

#: Analysis-only compilation cache, shared across all plan analyses in the
#: process.  Never the session's cache: pre-warming that would turn
#: execution's first compile into a hit and silently stop charging compile
#: time in reports.
_ANALYSIS_CACHE = KernelCache()


def check_precision_flow(
    plan_ops, stats, label: str = "", jit_options: Optional[JitOptions] = None
) -> List[Diagnostic]:
    """Run the precision-dataflow pass; returns its diagnostics.

    Declines (empty list) without statistics: column specs come from the
    catalog, and a plan analysed without them could prove nothing sound.
    """
    findings: List[Diagnostic] = []
    if stats is None:
        return findings
    options = replace(jit_options or JitOptions(), strict_analysis=False)

    def report(
        rule: str, severity: Severity, message: str, position: Optional[int] = None
    ) -> None:
        findings.append(
            Diagnostic(rule, severity, message, kernel=label, instruction=position)
        )

    # The decimal schema the executor would build from the batch at each
    # operator, plus the non-decimal columns flowing alongside (those pass
    # through projections bare but never enter a kernel).
    schema: Dict[str, DecimalSpec] = {}
    non_decimal: Set[str] = set()
    sim_n = max(int(stats.simulate_rows), 1)

    def spec_of(text: str, kernel_name: str, position: int) -> Optional[DecimalSpec]:
        bare = text.strip()
        if bare in schema:
            return schema[bare]
        if bare in non_decimal:
            return None
        return _check_expression(
            text, schema, kernel_name, options, report, position
        )

    for position, op in enumerate(plan_ops):
        if isinstance(op, ScanOp):
            schema, non_decimal = {}, set()
            for name in op.columns:
                column_type = stats.main.column_types.get(name)
                if isinstance(column_type, DecimalType):
                    schema[name] = column_type.spec
                else:
                    non_decimal.add(name)
        elif isinstance(op, (HashJoinOp, NestedLoopJoinOp)):
            right = stats.table(op.join.table)
            for name in op.right_columns:
                if name in schema or name in non_decimal:
                    continue  # left side wins on name collisions
                column_type = right.column_types.get(name) if right else None
                if isinstance(column_type, DecimalType):
                    schema[name] = column_type.spec
                else:
                    non_decimal.add(name)
        elif isinstance(op, ProjectOp):
            produced: Dict[str, DecimalSpec] = {}
            produced_other: Set[str] = set()
            for index, item in enumerate(op.items):
                text = item.expression
                assert isinstance(text, str)
                spec = spec_of(text, f"calc_expr_{index}", position)
                if spec is not None:
                    produced[item.name] = spec
                else:
                    produced_other.add(item.name)
            for name in op.carry:
                if name in schema:
                    produced.setdefault(name, schema[name])
                elif name in non_decimal:
                    produced_other.add(name)
            schema, non_decimal = produced, produced_other
        elif isinstance(op, AggregationOp):
            produced = {}
            produced_other = set()
            for name in op.group_by:
                if name in schema:
                    produced[name] = schema[name]
                else:
                    produced_other.add(name)
            for index, item in enumerate(op.aggregates):
                call = item.expression
                if call.function == "COUNT":
                    produced[item.name] = inference.count_spec(sim_n)
                    continue
                arg_spec = spec_of(call.argument, f"agg_expr_{index}", position)
                if arg_spec is None:
                    produced_other.add(item.name)
                    continue
                result = _aggregate_spec(
                    call.function, arg_spec, sim_n, report, position, str(call)
                )
                if result is None:
                    produced_other.add(item.name)
                else:
                    produced[item.name] = result
            schema, non_decimal = produced, produced_other
        elif isinstance(op, DropOp):
            for name in op.columns:
                schema.pop(name, None)
                non_decimal.discard(name)
        # Filter/Sort/Limit leave the schema unchanged.
    return findings


def _aggregate_spec(
    function: str,
    arg_spec: DecimalSpec,
    sim_n: int,
    report,
    position: int,
    what: str,
) -> Optional[DecimalSpec]:
    """Widen an aggregate input spec and report the proof (``PREC005``)."""
    try:
        if function == "SUM":
            result = inference.sum_result(arg_spec, sim_n)
        elif function == "AVG":
            result = inference.avg_result(arg_spec, sim_n)
        else:  # MIN/MAX keep the input spec
            result = inference.minmax_result(arg_spec)
    except ReproError as error:
        report(
            AGGREGATE_PROOF,
            Severity.ERROR,
            f"{what}: no overflow-free spec over {sim_n} simulated rows: {error}",
            position,
        )
        return None
    report(
        AGGREGATE_PROOF,
        Severity.INFO,
        f"{what}: input {arg_spec} over <= {sim_n} simulated rows widens to "
        f"{result} ({result.words} word(s)) -- overflow-free by construction",
        position,
    )
    return result


def _check_expression(
    text: str,
    schema: Dict[str, DecimalSpec],
    kernel_name: str,
    options: JitOptions,
    report,
    position: int,
) -> Optional[DecimalSpec]:
    """Compile one expression and run the plan-level interval proof.

    Returns the result spec execution would see (the kernel's), or None
    when the expression cannot compile against this plan's schema.
    """
    try:
        compiled, _cached = _ANALYSIS_CACHE.compile(
            text, dict(schema), options, name=kernel_name
        )
    except ReproError as error:
        report(
            EXPR_UNTYPABLE,
            Severity.ERROR,
            f"{kernel_name} ({text!r}) cannot compile against the plan "
            f"schema: {error}",
            position,
        )
        return None

    overflows: List[Tuple[str, int, DecimalSpec]] = []
    _walk_intervals(compiled.tree, overflows)
    plan_overflow = bool(overflows)
    analysis = compiled.kernel.analysis
    kernel_overflow = analysis is not None and any(
        diagnostic.rule == POSSIBLE_OVERFLOW for diagnostic in analysis.errors
    )

    for node_sql, magnitude, spec in overflows:
        report(
            PLAN_OVERFLOW,
            Severity.ERROR,
            f"{kernel_name}: {node_sql} bound {magnitude} exceeds its "
            f"{spec.words}-word container ({spec})",
            position,
        )
    if plan_overflow != kernel_overflow:
        verdict = {True: "overflow possible", False: "overflow-free"}
        report(
            PROOF_MISMATCH,
            Severity.ERROR,
            f"{kernel_name}: plan-level interval proof says "
            f"{verdict[plan_overflow]} but the kernel range pass says "
            f"{verdict[kernel_overflow]} -- the two layers must agree",
            position,
        )
    elif not plan_overflow:
        result = compiled.kernel.result_spec
        report(
            EXPR_PROOF,
            Severity.INFO,
            f"{kernel_name}: result {result} fits {result.words} word(s); "
            "plan-level and kernel-level overflow proofs agree",
            position,
        )
    return compiled.kernel.result_spec


def _walk_intervals(tree: expr_ast.Expr, overflows: List) -> Interval:
    """Interval walk over the *optimised* expression tree.

    Uses the same transfer functions as the kernel range pass
    (``repro.analysis.ranges``) so the two layers' verdicts are directly
    comparable: column leaves start at their spec bounds, ``+``/``-``
    align operands to the result scale, division pre-scales the dividend
    by ``10**(s2 + 4)``, and every node's bound is checked against its
    inferred spec's word container (clamping on overflow, exactly as the
    IR pass clamps, so downstream bounds stay meaningful).
    """

    def check(node: expr_ast.Expr, interval: Interval) -> Interval:
        spec = node.spec
        if spec is None:
            return interval
        limit = _container_limit(spec)
        if _magnitude(interval) > limit:
            overflows.append((node.to_sql(), _magnitude(interval), spec))
            return (-limit, limit)
        return interval

    def walk(node: expr_ast.Expr) -> Interval:
        if isinstance(node, expr_ast.ColumnRef):
            bound = node.spec.max_unscaled
            return (-bound, bound)
        if isinstance(node, expr_ast.Literal):
            unscaled = int(node.value * 10**node.spec.scale)
            return check(node, (unscaled, unscaled))
        if isinstance(node, expr_ast.UnaryOp):
            lo, hi = walk(node.operand)
            interval = (-hi, -lo) if node.op == "-" else (lo, hi)
            return check(node, interval)
        if isinstance(node, expr_ast.BinaryOp):
            a = walk(node.left)
            b = walk(node.right)
            if node.op in ("+", "-"):
                a = _rescale_interval(a, node.left.spec.scale, node.spec.scale)
                b = _rescale_interval(b, node.right.spec.scale, node.spec.scale)
                if node.op == "+":
                    interval = (a[0] + b[0], a[1] + b[1])
                else:
                    interval = (a[0] - b[1], a[1] - b[0])
            elif node.op == "*":
                interval = _mul_interval(a, b)
            elif node.op == "/":
                factor = 10 ** inference.div_prescale(node.right.spec)
                interval = _div_interval(a, b, factor)
            else:  # "%"
                interval = _mod_interval(a, b)
            return check(node, interval)
        if isinstance(node, expr_ast.FuncCall):
            arg = walk(node.argument)
            if node.function == "ABS":
                interval = _abs_interval(arg)
            elif node.function == "SIGN":
                interval = (-1 if arg[0] < 0 else 0, 1 if arg[1] > 0 else 0)
            elif node.function == "POWER":
                # Normally expanded before codegen; cover it defensively.
                interval = arg
                for _ in range(max(node.scale_arg - 1, 0)):
                    interval = _mul_interval(interval, arg)
            else:  # ROUND/TRUNC/CEIL/FLOOR: floor/ceil bracket every mode
                interval = _rescale_interval(
                    arg, node.argument.spec.scale, node.spec.scale
                )
            return check(node, interval)
        if isinstance(node, expr_ast.NaryAdd):
            total: Interval = (0, 0)
            for term in node.terms:
                t = _rescale_interval(
                    walk(term), term.spec.scale, node.spec.scale
                )
                total = (total[0] + t[0], total[1] + t[1])
            return check(node, total)
        if isinstance(node, expr_ast.NaryMul):
            product: Interval = (1, 1)
            for factor in node.factors:
                product = _mul_interval(product, walk(factor))
            return check(node, product)
        # Unknown node kind: claim only what its spec already guarantees.
        if node.spec is not None:
            bound = node.spec.max_unscaled
            return (-bound, bound)
        return (0, 0)

    return walk(tree)
