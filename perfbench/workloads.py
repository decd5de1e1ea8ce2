"""The benchmark's three workloads: inputs, statement mixes, operation sequences.

Every input is a pure function of the workload and ``--seed``.  The engine
receives relations from ``repro.storage.tpch``; :mod:`reference` re-derives
the same raw values on its own, and the append batches are generated here
as raw integers first and only then rendered as SQL literals, so both
sides see identical rows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

import reference

#: Simulated relation size the timing model charges (the paper's scale).
SIMULATE_ROWS = 10_000_000

#: Rows per append batch in every workload.
APPEND_ROWS = 100


@dataclass(frozen=True)
class Workload:
    """One named set of inputs and the statements run over them."""

    name: str
    #: Statements of one round, in execution order.
    mix: Tuple[str, ...]
    lineitem_rows: int
    #: Also generate orders/customer/nation at bench_ext_tpch_real's ratios.
    joins: bool = False
    #: Two concurrent sessions through a SessionServer, with appends.
    serving: bool = False

    @property
    def order_count(self) -> int:
        return self.lineitem_rows // 5

    @property
    def customer_count(self) -> int:
        return self.order_count // 8


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("scan_agg", ("Q1", "Q6"), 200_000),
        Workload("join", ("Q3", "Q5", "Q10"), 200_000, joins=True),
        Workload("serve_fresh", ("Q6", "Q10", "Q3"), 20_000, joins=True, serving=True),
    )
}


@dataclass(frozen=True)
class Seeds:
    """Generator seeds derived from the benchmark seed."""

    lineitem: int
    orders: int
    customer: int
    appends: int
    reads: int


def seeds_for(seed: int) -> Seeds:
    return Seeds(seed, seed + 101, seed + 202, seed + 303, seed + 404)


# ---------------------------------------------------------------- inputs

def engine_relations(workload: Workload, seed: int) -> List:
    """The relations the engine registers, from ``repro.storage.tpch``."""
    from repro.storage import tpch

    s = seeds_for(seed)
    relations = [
        tpch.lineitem_with_orderkeys(
            rows=workload.lineitem_rows, seed=s.lineitem, order_count=workload.order_count
        )
    ]
    if workload.joins:
        relations += [
            tpch.orders(rows=workload.order_count, seed=s.orders),
            tpch.customer(rows=workload.customer_count, seed=s.customer),
            tpch.nation(),
        ]
    return relations


def reference_tables(workload: Workload, seed: int) -> Dict[str, reference.Table]:
    """The same inputs as raw Python values, for the reference."""
    s = seeds_for(seed)
    tables = {"lineitem": reference.lineitem(workload.lineitem_rows, s.lineitem, workload.order_count)}
    if workload.joins:
        tables["orders"] = reference.orders(workload.order_count, s.orders)
        tables["customer"] = reference.customer(workload.customer_count, s.customer)
        tables["nation"] = reference.nation()
    return tables


def epoch_batches(workload: Workload, seed: int) -> List[List[tuple]]:
    """The raw lineitem batches session A appends in every serve_fresh epoch.

    Values follow the generator's distributions and keys stay inside the
    order key space, so appended rows reach every statement's result.
    """
    rng = np.random.default_rng(seeds_for(seed).appends)
    n = APPEND_ROWS
    batches = []
    for _ in range(EPOCH_CYCLES):
        columns = [
            [int(q) * 100 for q in rng.integers(1, 51, n)],
            [int(p) for p in rng.integers(90000, 10500000, n)],
            [int(d) for d in rng.integers(0, 11, n)],
            [int(t) for t in rng.integers(0, 9, n)],
            [str(x) for x in rng.choice(np.array(["A", "N", "R"]), n)],
            [str(x) for x in rng.choice(np.array(["O", "F"]), n)],
            [int(d) for d in rng.integers(0, 2526, n)],
            [int(k) for k in rng.integers(1, workload.order_count + 1, n)],
        ]
        batches.append(list(zip(*columns)))
    return batches


def _scaled(unscaled: int) -> str:
    return f"{unscaled // 100}.{unscaled % 100:02d}"


def literal_rows(batch: Sequence[tuple]) -> List[tuple]:
    """A raw batch as host literals for ``Database.append``."""
    return [
        (_scaled(q), _scaled(p), _scaled(d), _scaled(t), *rest)
        for q, p, d, t, *rest in batch
    ]


def fresh_copy(relation):
    """The same rows in new Column objects, so every version cache is cold."""
    from repro.storage.relation import Relation

    return Relation(relation.name, [column.head(column.rows) for column in relation.columns])


# ------------------------------------------------------- operation streams

#: Session A's cycles per serve_fresh epoch.  Each epoch restarts from the
#: base tables, so a run appends at most this many batches before reset:
#: 10 x 100 rows is 5% of the 20K-row lineitem.
EPOCH_CYCLES = 10


def session_a_ops() -> List[Tuple[str, Optional[int]]]:
    """Session A's epoch: reads Q6, Q10, Q3 then appends batch i, ten times."""
    ops: List[Tuple[str, Optional[int]]] = []
    for cycle in range(EPOCH_CYCLES):
        ops += [("Q6", None), ("Q10", None), ("Q3", None), ("append", cycle)]
    return ops


def session_b_reads(seed: int) -> Iterator[str]:
    """Session B's endless seeded read stream."""
    rng = random.Random(seeds_for(seed).reads)
    mix = WORKLOADS["serve_fresh"].mix
    while True:
        yield rng.choice(mix)


# ------------------------------------------------------------ comparison

def normalise(rows) -> List[tuple]:
    """Engine rows as reference values: decimals become exact ``Dec`` pairs."""
    return [
        tuple(v if isinstance(v, (int, str)) else reference.parse_decimal(str(v)) for v in row)
        for row in rows
    ]
