"""Rewrite-soundness differential pass (``RULE*`` rules).

Every rewrite-rule firing records structural before/after snapshots of the
operator list (:func:`repro.engine.plan.rules.snapshot_nodes`).  This
pass replays each firing and verifies the *rule-specific* invariant that
makes the rewrite semantics-preserving -- a differential check, so a rule
bug (pushdown dropping a conjunct, reordering losing a join, pruning
removing a shipped column some node needs) becomes a static analyzer error
at plan time instead of a bit-diff at execution time.

Rules:

* ``RULE001`` (error): filter pushdown changed the global conjunct
  multiset or the non-filter plan structure.
* ``RULE002`` (error): a pushed conjunct landed where its columns are not
  readable (batch availability, or a build side's stored columns).
* ``RULE003`` (error): join reordering changed the join set, the
  predicates, or nodes outside the reordered section.
* ``RULE004`` (error): join reordering fired without the aggregate gate
  (order changes below a bare projection are observable).
* ``RULE005`` (error): projection pruning grew a ship set or changed
  anything besides shrinking ship sets.
* ``RULE006`` (error): predicate simplification increased a filter's
  conjunct count or changed the node structure.
* ``RULE007`` (error): sort-key retention left an ORDER BY key
  unavailable at the sort, or leaked a carried column past its drop.
* ``RULE000`` (info): a rule fired for which no audit is implemented.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, List, Optional, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, Severity

PUSHDOWN_CONJUNCTS = "RULE001"
PUSHDOWN_PLACEMENT = "RULE002"
REORDER_JOINS = "RULE003"
REORDER_GATE = "RULE004"
PRUNING_GREW = "RULE005"
SIMPLIFY_GREW = "RULE006"
RETENTION_BROKEN = "RULE007"
UNAUDITED_RULE = "RULE000"

Snapshot = Tuple[Tuple[object, ...], ...]


def check_rewrites(events, stats=None, label: str = "") -> List[Diagnostic]:
    """Audit every rewrite event that carries snapshots."""
    findings: List[Diagnostic] = []

    def report(rule: str, severity: Severity, message: str) -> None:
        findings.append(Diagnostic(rule, severity, message, kernel=label))

    for index, event in enumerate(events):
        before = getattr(event, "before", None)
        after = getattr(event, "after", None)
        if before is None or after is None:
            continue
        what = f"rewrite[{index}] {event.rule}"
        if event.rule == "filter-pushdown":
            _audit_pushdown(before, after, stats, report, what)
        elif event.rule == "join-reorder":
            _audit_reorder(before, after, report, what)
        elif event.rule == "projection-pruning":
            _audit_pruning(before, after, report, what)
        elif event.rule == "predicate-simplify":
            _audit_simplify(before, after, report, what)
        elif event.rule == "sort-key-retention":
            _audit_retention(after, report, what)
        else:
            report(
                UNAUDITED_RULE,
                Severity.INFO,
                f"{what}: no soundness audit implemented for this rule",
            )
    return findings


# ------------------------------------------------------------ snapshot views


def _predicate_columns(predicate: Tuple) -> Set[str]:
    columns = {predicate[0]}
    if predicate[3] is not None:
        columns.add(predicate[3])
    return columns


def _conjunct_multiset(snapshot: Snapshot) -> Counter:
    """Every WHERE/HAVING/build-side conjunct in the plan, as a multiset."""
    conjuncts: Counter = Counter()
    for node in snapshot:
        if node[0] == "filter":
            conjuncts.update(node[1])
        elif node[0] == "having":
            conjuncts.update(node[1])
        elif node[0] == "join":
            conjuncts.update(node[5])
    return conjuncts


def _skeleton(snapshot: Snapshot) -> Tuple:
    """The plan with filters removed and join predicates stripped.

    Pushdown may only move conjuncts between filter slots and build sides;
    everything this view keeps must therefore be invariant under it.
    """
    parts = []
    for node in snapshot:
        if node[0] == "filter":
            continue
        if node[0] == "join":
            parts.append(node[:5])
        else:
            parts.append(node)
    return tuple(parts)


def _join_nodes(snapshot: Snapshot) -> Iterable[Tuple]:
    return (node for node in snapshot if node[0] == "join")


# ------------------------------------------------------------------- audits


def _audit_pushdown(
    before: Snapshot, after: Snapshot, stats, report, what: str
) -> None:
    if _conjunct_multiset(before) != _conjunct_multiset(after):
        lost = _conjunct_multiset(before) - _conjunct_multiset(after)
        gained = _conjunct_multiset(after) - _conjunct_multiset(before)
        report(
            PUSHDOWN_CONJUNCTS,
            Severity.ERROR,
            f"{what} changed the conjunct multiset "
            f"(dropped: {sorted(lost)}, invented: {sorted(gained)}) -- "
            "pushdown must only *move* conjuncts",
        )
    if _skeleton(before) != _skeleton(after):
        report(
            PUSHDOWN_CONJUNCTS,
            Severity.ERROR,
            f"{what} changed the plan beyond filter placement",
        )
    _check_placement(after, stats, report, what)


def _check_placement(after: Snapshot, stats, report, what: str) -> None:
    """Replay availability over the rewritten scan/join/filter section."""
    available: Set[str] = set()
    for node in after:
        if node[0] == "scan":
            available = set(node[2])
        elif node[0] == "join":
            table, _left, right_key, right_columns, predicates = node[1:6]
            right = stats.table(table) if stats is not None else None
            if right is not None:
                stored = set(right.column_types)
            else:
                # Without a catalog the provable build-readable set is the
                # ship set plus the join key (what the join itself reads).
                stored = set(right_columns) | {right_key}
            for predicate in predicates:
                missing = _predicate_columns(predicate) - stored
                if missing:
                    report(
                        PUSHDOWN_PLACEMENT,
                        Severity.ERROR,
                        f"{what} pushed {predicate[0]} {predicate[1]} ... into "
                        f"{table!r}'s build side but {sorted(missing)} are not "
                        "readable there",
                    )
            available |= set(right_columns)
        elif node[0] == "filter":
            for predicate in node[1]:
                missing = _predicate_columns(predicate) - available
                if missing:
                    report(
                        PUSHDOWN_PLACEMENT,
                        Severity.ERROR,
                        f"{what} placed conjunct on {predicate[0]!r} where "
                        f"{sorted(missing)} are not available",
                    )
        else:
            break  # past the rewritable section; aliases resolve elsewhere


def _audit_reorder(before: Snapshot, after: Snapshot, report, what: str) -> None:
    if Counter(_join_nodes(before)) != Counter(_join_nodes(after)):
        report(
            REORDER_JOINS,
            Severity.ERROR,
            f"{what} changed the join set (a reorder must permute the "
            "same joins, predicates and ship sets)",
        )
    if _conjunct_multiset(before) != _conjunct_multiset(after):
        report(
            REORDER_JOINS,
            Severity.ERROR,
            f"{what} changed the conjunct multiset while reordering",
        )
    if before and after and before[0] != after[0]:
        report(
            REORDER_JOINS,
            Severity.ERROR,
            f"{what} changed the leading scan",
        )

    def tail(snapshot: Snapshot) -> Tuple:
        index = 1
        while index < len(snapshot) and snapshot[index][0] in ("join", "filter"):
            index += 1
        return snapshot[index:]

    if tail(before) != tail(after):
        report(
            REORDER_JOINS,
            Severity.ERROR,
            f"{what} changed nodes above the reordered join run",
        )
    if not any(node[0] == "aggregate" for node in after):
        report(
            REORDER_GATE,
            Severity.ERROR,
            f"{what} fired without an aggregate above the join run -- "
            "row order below a bare projection is observable, so the "
            "aggregate gate is a bit-exactness precondition",
        )


def _audit_pruning(before: Snapshot, after: Snapshot, report, what: str) -> None:
    if len(before) != len(after):
        report(
            PRUNING_GREW,
            Severity.ERROR,
            f"{what} changed the node count ({len(before)} -> {len(after)})",
        )
        return
    for old, new in zip(before, after):
        if old[0] != new[0]:
            report(
                PRUNING_GREW,
                Severity.ERROR,
                f"{what} changed a node kind ({old[0]} -> {new[0]})",
            )
        elif old[0] == "scan":
            if new[1] != old[1] or not set(new[2]) <= set(old[2]):
                report(
                    PRUNING_GREW,
                    Severity.ERROR,
                    f"{what} must only shrink the scan ship set "
                    f"({old[2]} -> {new[2]})",
                )
        elif old[0] == "join":
            same_join = old[1:4] == new[1:4] and old[5] == new[5]
            if not same_join or not set(new[4]) <= set(old[4]):
                report(
                    PRUNING_GREW,
                    Severity.ERROR,
                    f"{what} must only shrink {old[1]!r}'s ship set "
                    f"({old[4]} -> {new[4]})",
                )
        elif old != new:
            report(
                PRUNING_GREW,
                Severity.ERROR,
                f"{what} changed a {old[0]} node (pruning only touches "
                "scan/join ship sets)",
            )


def _audit_simplify(before: Snapshot, after: Snapshot, report, what: str) -> None:
    if tuple(node[0] for node in before) != tuple(node[0] for node in after):
        report(
            SIMPLIFY_GREW,
            Severity.ERROR,
            f"{what} changed the plan structure (it must only rewrite "
            "conjunct lists in place)",
        )
        return
    for old, new in zip(before, after):
        if old[0] != "filter":
            if old != new:
                report(
                    SIMPLIFY_GREW,
                    Severity.ERROR,
                    f"{what} changed a {old[0]} node",
                )
            continue
        became_false = bool(new[2]) and not old[2]
        if len(new[1]) > len(old[1]) and not became_false:
            report(
                SIMPLIFY_GREW,
                Severity.ERROR,
                f"{what} grew a filter from {len(old[1])} to "
                f"{len(new[1])} conjunct(s)",
            )


def _audit_retention(after: Snapshot, report, what: str) -> None:
    project: Optional[Tuple] = None
    for node in after:
        if node[0] == "project" and project is None:
            project = node
        elif node[0] == "sort" and project is not None:
            outputs = set(project[1]) | set(project[3])
            missing = [key for key, _asc in node[1] if key not in outputs]
            if missing:
                report(
                    RETENTION_BROKEN,
                    Severity.ERROR,
                    f"{what} left ORDER BY key(s) {missing} neither selected "
                    "nor carried through the projection",
                )
    if project is not None:
        leaked = set(project[3]) - set(project[1])
        dropped: Set[str] = set()
        for node in after:
            if node[0] == "drop":
                dropped |= set(node[1])
        if leaked - dropped:
            report(
                RETENTION_BROKEN,
                Severity.ERROR,
                f"{what} carried {sorted(leaked - dropped)} past the sort "
                "without a matching drop (they would leak into the result)",
            )
