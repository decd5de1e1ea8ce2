"""Filter pushdown: move WHERE conjuncts below joins, and into build sides.

For the inner equi-joins this engine supports, a conjunct commutes with
every join above the relation that owns its columns, so each predicate
sinks to the lowest slot where its columns exist:

* columns from the scanned (left) table -> a filter directly above the
  scan, so fewer rows enter every join;
* columns from one joined table -> the join's *build side*: the predicate
  is evaluated while that table is scanned, and only surviving rows are
  shipped over PCIe -- the transfer-volume lever the streaming model
  (DESIGN.md section 5) is bound by;
* mixed-table conjuncts -> the lowest join under which both sides exist.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.engine.plan.physical import FilterOp, JoinOp, PhysicalOp
from repro.engine.plan.rules import RewriteRule, join_section
from repro.engine.sql.ast_nodes import Comparison


def _predicate_columns(predicate: Comparison) -> List[str]:
    columns = [predicate.column]
    if predicate.column_rhs is not None:
        columns.append(predicate.column_rhs)
    return columns


class FilterPushdownRule(RewriteRule):
    """Sink WHERE conjuncts to their lowest legal plan position."""

    name = "filter-pushdown"

    def apply(self, nodes: List[PhysicalOp], stats=None):
        found = join_section(nodes)
        if found is None:
            return None
        section_end, joins, filters = found
        scan = nodes[0]
        if not filters or not joins:
            return None
        if any(f.always_false for f in filters):
            return None  # the plan is already empty below this point

        def build_columns(join: JoinOp) -> set:
            """Columns readable on the join's build (right) side."""
            columns = set(join.right_columns)
            columns.add(join.join.right_column)
            for predicate in join.right_predicates:
                columns.update(_predicate_columns(predicate))
            return columns

        # Columns available in the flowing batch after the scan / each join.
        available = [set(scan.columns)]
        for join in joins:
            available.append(available[-1] | set(join.right_columns))

        # Slot every predicate (slot k = directly above join k; 0 = above scan).
        slots: List[List[Comparison]] = [[] for _ in range(len(joins) + 1)]
        build: List[List[Comparison]] = [[] for _ in joins]
        for node in filters:
            for predicate in node.predicates:
                columns = set(_predicate_columns(predicate))
                placed = False
                for index, join in enumerate(joins):
                    if columns <= build_columns(join):
                        build[index].append(predicate)
                        placed = True
                        break
                if placed:
                    continue
                for slot, have in enumerate(available):
                    if columns <= have:
                        slots[slot].append(predicate)
                        placed = True
                        break
                if not placed:
                    # Unresolvable columns: keep the conjunct at the top slot
                    # so execution reports the missing column, not the planner.
                    slots[-1].append(predicate)

        old_signature = self._signature(nodes[:section_end])
        rebuilt_signature = self._rebuilt_signature(scan, joins, slots, build)
        if rebuilt_signature == old_signature:
            return None

        # Rebuild the section: scan, [filter], join1(+build preds), [filter], ...
        rebuilt: List[PhysicalOp] = [scan]
        if slots[0]:
            rebuilt.append(FilterOp(slots[0]))
        for index, join in enumerate(joins):
            if build[index]:
                join.right_predicates = list(join.right_predicates) + build[index]
            rebuilt.append(join)
            if slots[index + 1]:
                rebuilt.append(FilterOp(slots[index + 1]))
        new_nodes = rebuilt + nodes[section_end:]

        details = []
        pushed_build = sum(len(group) for group in build)
        if pushed_build:
            details.append(f"{pushed_build} conjunct(s) into join build side(s)")
        below = sum(len(slot) for slot in slots[:-1])
        if below:
            details.append(f"{below} conjunct(s) below join(s)")
        detail = "pushed " + ", ".join(details) if details else "merged filter placement"
        return new_nodes, detail

    @staticmethod
    def _signature(nodes: List[PhysicalOp]) -> Tuple:
        parts: List[Tuple] = [("scan",)]
        for node in nodes[1:]:
            if isinstance(node, FilterOp):
                parts.append(("filter", tuple(id(p) for p in node.predicates)))
            elif isinstance(node, JoinOp):
                parts.append(
                    ("join", node.join.table, tuple(id(p) for p in node.right_predicates))
                )
        return tuple(parts)

    @staticmethod
    def _rebuilt_signature(scan, joins, slots, build) -> Tuple:
        parts: List[Tuple] = [("scan",)]
        if slots[0]:
            parts.append(("filter", tuple(id(p) for p in slots[0])))
        for index, join in enumerate(joins):
            predicates = tuple(id(p) for p in list(join.right_predicates) + build[index])
            parts.append(("join", join.join.table, predicates))
            if slots[index + 1]:
                parts.append(("filter", tuple(id(p) for p in slots[index + 1])))
        return tuple(parts)
