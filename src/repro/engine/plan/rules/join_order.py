"""Multi-join reordering on real column statistics.

The rewrite engine historically rewrote *within* the parse-order join
sequence; this rule searches over the sequence itself.  Every join in the
engine is an inner equi-join executed left-deep (batch |><| R1 |><| R2
...), so any permutation in which each join's probe-side key column is
already available produces the same output *multiset* -- and under an
aggregation (grouped output is emitted in sorted key order, and exact
decimal aggregation is order-independent) the same output *rows*, bit
for bit.  The rule therefore fires only below an aggregate operator.

The search minimises the summed intermediate cardinalities, estimated
with the statistics subsystem (:mod:`repro.engine.plan.stats`): each
join's output is ``|L| * |R| / max(ndv(L.key), ndv(R.key))`` with the
build side pre-shrunk by its pushed-down predicates' selectivity.  With
<= :data:`DP_JOIN_LIMIT` joins every valid permutation is enumerated
(bounded DP); beyond that a greedy smallest-intermediate-first pass
keeps planning linear.

Loose ``FilterOp`` nodes interleaved between joins (placed there by
an earlier pushdown firing) are hoisted into a single filter above the
reordered joins -- legal for inner joins, which only add columns -- and
the pushdown rule re-sinks them to their new lowest slots on the same
rewrite pass.
"""

from __future__ import annotations

from itertools import permutations
from typing import List, Optional, Sequence, Tuple

from repro.engine.plan.physical import AggregationOp, FilterOp, JoinOp, PhysicalOp, ScanOp
from repro.engine.plan.rules import RewriteRule, join_section

#: Exhaustive permutation search up to this many joins; greedy beyond.
DP_JOIN_LIMIT = 4


class JoinReorderRule(RewriteRule):
    """Reorder the leading join run to minimise intermediate rows."""

    name = "join-reorder"

    def apply(self, nodes: List[PhysicalOp], stats=None):
        found = join_section(nodes)
        if stats is None or found is None:
            return None
        section_end, joins, filters = found
        scan = nodes[0]
        if len(joins) < 2 or any(f.always_false for f in filters):
            return None
        # Bit-exactness gate: reordering permutes intermediate row order,
        # which only an aggregation above provably absorbs (sorted group
        # emission + exact, order-independent decimal reduction).
        if not any(isinstance(node, AggregationOp) for node in nodes[section_end:]):
            return None
        if any(stats.table(join.join.table) is None for join in joins):
            return None

        chosen = self._choose_order(scan, joins, stats)
        if chosen is None or chosen == list(range(len(joins))):
            return None

        reordered = [joins[index] for index in chosen]
        rebuilt: List[PhysicalOp] = [scan, *reordered]
        loose = [p for node in filters for p in node.predicates]
        if loose:
            # One merged filter above the joins; pushdown re-sinks it.
            rebuilt.append(FilterOp(loose))
        new_nodes = rebuilt + nodes[section_end:]

        current_cost = self._order_cost(scan, joins, list(range(len(joins))), stats)
        chosen_cost = self._order_cost(scan, joins, chosen, stats)
        detail = (
            "joins reordered to "
            + " -> ".join(join.join.table for join in reordered)
            + f" (est intermediate rows {current_cost:,.0f} -> {chosen_cost:,.0f},"
            " NDV-based)"
        )
        return new_nodes, detail

    # ----------------------------------------------------------- estimation

    @staticmethod
    def _estimate_join(left_rows: float, join: JoinOp, stats) -> float:
        """Estimated output rows of one join step (catalog-row scale)."""
        from repro.engine.plan.cost import join_output_rows, predicate_selectivity

        right = stats.table(join.join.table)
        assert right is not None  # checked before the search starts
        survival = predicate_selectivity(join.right_predicates, right)
        right_rows = right.rows * survival
        left_ndv = stats.column_ndv(join.join.left_column)
        right_ndv = right.ndv(join.join.right_column)
        return join_output_rows(left_rows, right_rows, left_ndv, right_ndv)

    def _order_cost(
        self,
        scan: ScanOp,
        joins: Sequence[JoinOp],
        order: Sequence[int],
        stats,
    ) -> float:
        """Summed intermediate cardinalities of one join order."""
        rows = float(stats.main.rows)
        cost = 0.0
        for index in order:
            rows = self._estimate_join(rows, joins[index], stats)
            cost += rows
        return cost

    # --------------------------------------------------------------- search

    @staticmethod
    def _available_after(
        scan: ScanOp, joins: Sequence[JoinOp], order: Sequence[int]
    ) -> set:
        available = set(scan.columns)
        for index in order:
            join = joins[index]
            available |= set(join.right_columns)
            available.add(join.join.right_column)
        return available

    def _is_valid(
        self, scan: ScanOp, joins: Sequence[JoinOp], order: Sequence[int]
    ) -> bool:
        """Every join's probe key must exist when the join runs."""
        available = set(scan.columns)
        for index in order:
            join = joins[index]
            if join.join.left_column not in available:
                return False
            available |= set(join.right_columns)
            available.add(join.join.right_column)
        return True

    def _choose_order(
        self, scan: ScanOp, joins: Sequence[JoinOp], stats
    ) -> Optional[List[int]]:
        count = len(joins)
        if count <= DP_JOIN_LIMIT:
            best: Optional[Tuple[float, Tuple[int, ...]]] = None
            for order in permutations(range(count)):
                if not self._is_valid(scan, joins, order):
                    continue
                cost = self._order_cost(scan, joins, order, stats)
                # Strict < with lexicographic enumeration: ties keep the
                # earliest (parse-closest) order, so the rule is stable.
                if best is None or cost < best[0]:
                    best = (cost, order)
            return None if best is None else list(best[1])

        # Greedy smallest-intermediate-first for long join chains.
        remaining = list(range(count))
        order: List[int] = []
        rows = float(stats.main.rows)
        while remaining:
            available = self._available_after(scan, joins, order)
            candidates = [
                index
                for index in remaining
                if joins[index].join.left_column in available
            ]
            if not candidates:
                return None  # no valid completion from here
            chosen = min(
                candidates,
                key=lambda index: (self._estimate_join(rows, joins[index], stats), index),
            )
            rows = self._estimate_join(rows, joins[chosen], stats)
            order.append(chosen)
            remaining.remove(chosen)
        return order
