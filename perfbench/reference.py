"""Independent result reference for the benchmark's TPC-H statements.

Row-at-a-time evaluation of Q1, Q6, Q3, Q5 and Q10 with Python ints,
``fractions`` and ``decimal``.  It imports nothing from ``repro``: the
inputs are re-derived here from the same seeded numpy draws that
``repro.storage.tpch`` makes, so no storage encoding or decoding code is
shared with the engine.  If the generators change their draws, every
comparison fails loudly instead of passing against shared code.

A decimal value is a :class:`Dec` pair ``(unscaled, scale)``, so a wrong
result scale counts as a mismatch even when the number is equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from decimal import Decimal
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

#: Every DECIMAL column the generators produce has scale 2, at any precision.
SCALE = 2

#: TPC-H's 25 nations, in ``n_nationkey`` order.
NATION_NAMES = (
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
    "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
    "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA",
    "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
    "UNITED STATES",
)

#: Day 0 of every DATE column.
EPOCH = date(1992, 1, 1)


class Dec(NamedTuple):
    """An exact decimal: ``unscaled * 10**-scale``."""

    unscaled: int
    scale: int

    def __str__(self) -> str:
        return str(Decimal(f"{self.unscaled}E-{self.scale}"))


def parse_decimal(text: str) -> Dec:
    """The exact :class:`Dec` a decimal string spells, scale included."""
    sign, digits, exponent = Decimal(text).as_tuple()
    magnitude = int("".join(map(str, digits)) or "0")
    return Dec(-magnitude if sign else magnitude, -exponent)


def days(iso: str) -> int:
    """A DATE literal as days since :data:`EPOCH`."""
    return (date.fromisoformat(iso) - EPOCH).days


# ---------------------------------------------------------------- inputs
#
# Each generator repeats the draws of its namesake in repro.storage.tpch,
# in the same order, and returns plain Python lists keyed by column name.

Table = Dict[str, list]


def lineitem(rows: int, seed: int, order_count: int) -> Table:
    """``tpch.lineitem_with_orderkeys``."""
    rng = np.random.default_rng(seed)
    table: Table = {
        "l_quantity": [int(q) * 10**SCALE for q in rng.integers(1, 51, rows)],
        "l_extendedprice": [int(p) for p in rng.integers(90000, 10500000, rows)],
        "l_discount": [int(d) for d in rng.integers(0, 11, rows)],
        "l_tax": [int(t) for t in rng.integers(0, 9, rows)],
        "l_returnflag": [str(x) for x in rng.choice(np.array(["A", "N", "R"]), rows)],
        "l_linestatus": [str(x) for x in rng.choice(np.array(["O", "F"]), rows)],
        "l_shipdate": [int(d) for d in rng.integers(0, 2526, rows)],
    }
    keys = np.random.default_rng(seed + 1).integers(1, order_count + 1, rows)
    table["l_orderkey"] = [int(k) for k in keys]
    return table


def orders(rows: int, seed: int) -> Table:
    """``tpch.orders``."""
    rng = np.random.default_rng(seed)
    rng.integers(100000, 50000000, rows)  # o_totalprice: no statement reads it
    orderdate = [int(d) for d in rng.integers(0, 2526, rows)]
    rng.choice(np.array(["1-URGENT", "3-MEDIUM", "5-LOW"]), rows)  # o_orderpriority
    custkey = [int(c) for c in rng.integers(1, max(rows // 10, 2), rows)]
    return {
        "o_orderkey": list(range(1, rows + 1)),
        "o_orderdate": orderdate,
        "o_custkey": custkey,
    }


def customer(rows: int, seed: int) -> Table:
    """``tpch.customer``."""
    rng = np.random.default_rng(seed)
    segments = rng.choice(
        np.array(["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]), rows
    )
    nationkeys = rng.integers(0, len(NATION_NAMES), rows)
    return {
        "c_custkey": list(range(1, rows + 1)),
        "c_mktsegment": [str(s) for s in segments],
        "c_nationkey": [int(k) for k in nationkeys],
    }


def nation() -> Table:
    """``tpch.nation``."""
    return {"n_nationkey": list(range(len(NATION_NAMES))), "n_name": list(NATION_NAMES)}


def extend(table: Table, rows: Sequence[Sequence]) -> Table:
    """``table`` with raw rows (values in column order) appended."""
    names = list(table)
    return {name: table[name] + [row[i] for row in rows] for i, name in enumerate(names)}


# ------------------------------------------------------------ statements

@dataclass(frozen=True)
class Expected:
    """A statement's expected result.

    SQL leaves the order of ORDER BY ties open.  ``rows`` holds the first
    ``count`` rows in order, then any further rows that tie with the last
    of them.  A result matches when it has ``count`` rows, its ORDER BY
    keys equal those of the first ``count`` rows here, and each of its
    rows is one of these rows.
    """

    columns: Tuple[str, ...]
    rows: List[tuple]
    #: Positions of the ORDER BY columns, most significant first.
    order_by: Tuple[int, ...]
    count: int

    def order_key(self, row: tuple) -> tuple:
        return tuple(row[i] for i in self.order_by)

    def mismatch(self, columns: Sequence[str], rows: Sequence[tuple]) -> Optional[str]:
        """Why ``rows`` is not a valid result, or None if it is."""
        if tuple(columns) != self.columns:
            return f"columns {tuple(columns)} != {self.columns}"
        if len(rows) != self.count:
            return f"{len(rows)} rows, expected {self.count}"
        want = [self.order_key(row) for row in self.rows[:self.count]]
        if [self.order_key(row) for row in rows] != want:
            return "ORDER BY keys differ"
        for row in rows:
            if row not in self.rows:
                return f"unexpected row {row}"
        if len(set(rows)) != len(rows):
            return "duplicate rows"
        return None


def ordered(columns, rows: List[tuple], order_by, limit: Optional[int] = None) -> Expected:
    """``rows`` (already in ORDER BY order) cut to LIMIT, keeping boundary ties."""
    count = len(rows) if limit is None else min(limit, len(rows))
    full = Expected(tuple(columns), rows, tuple(order_by), count)
    end = count
    while 0 < count and end < len(rows) and full.order_key(rows[end]) == full.order_key(rows[count - 1]):
        end += 1
    return Expected(full.columns, rows[:end], full.order_by, count)


def _revenue_rows(revenue: Dict, limit: Optional[int], columns: Tuple[str, str]) -> Expected:
    """``key, SUM(price * (1 - discount))`` ordered by revenue descending."""
    rows = sorted((key, Dec(total, 2 * SCALE)) for key, total in revenue.items())
    rows.sort(key=lambda row: row[1].unscaled, reverse=True)
    return ordered(columns, rows, (1,), limit)


def q1(li: Table) -> Expected:
    """Pricing summary report, grouped by (returnflag, linestatus)."""
    cutoff = days("1998-09-02")
    groups: Dict[Tuple[str, str], List[int]] = {}
    for qty, price, disc, tax, flag, status, ship in zip(
        li["l_quantity"], li["l_extendedprice"], li["l_discount"], li["l_tax"],
        li["l_returnflag"], li["l_linestatus"], li["l_shipdate"],
    ):
        if ship > cutoff:
            continue
        acc = groups.setdefault((flag, status), [0, 0, 0, 0, 0, 0])
        disc_price = price * (100 - disc)
        acc[0] += qty
        acc[1] += price
        acc[2] += disc_price
        acc[3] += disc_price * (100 + tax)
        acc[4] += disc
        acc[5] += 1
    rows = []
    for key in sorted(groups):
        qty, price, disc_price, charge, disc, count = groups[key]
        rows.append(key + (
            Dec(qty, SCALE),
            Dec(price, SCALE),
            Dec(disc_price, 2 * SCALE),
            Dec(charge, 3 * SCALE),
            _avg(qty, count, SCALE),
            _avg(price, count, SCALE),
            _avg(disc, count, SCALE),
            Dec(count, 0),
        ))
    columns = (
        "l_returnflag", "l_linestatus", "sum_qty", "sum_base_price", "sum_disc_price",
        "sum_charge", "avg_qty", "avg_price", "avg_disc", "count_order",
    )
    return ordered(columns, rows, (0, 1))


def _avg(total: int, count: int, scale: int) -> Dec:
    """AVG as the paper's division: four extra digits, truncated toward zero."""
    return Dec(int(Fraction(total, count) * 10**4), scale + 4)


def q6(li: Table) -> Expected:
    """Forecasting revenue change: one filtered SUM."""
    low, high = days("1994-01-01"), days("1995-01-01")
    revenue = 0
    for qty, price, disc, ship in zip(
        li["l_quantity"], li["l_extendedprice"], li["l_discount"], li["l_shipdate"]
    ):
        if low <= ship < high and 5 <= disc <= 7 and qty < 24 * 10**SCALE:
            revenue += price * disc
    return ordered(("revenue",), [(Dec(revenue, 2 * SCALE),)], ())


def q3(li: Table, orders_: Table, customer_: Table) -> Expected:
    """Shipping priority: revenue of BUILDING customers' early orders."""
    building = {
        key for key, segment in zip(customer_["c_custkey"], customer_["c_mktsegment"])
        if segment == "BUILDING"
    }
    cutoff = days("1995-03-15")
    wanted = {
        key for key, when, cust in zip(
            orders_["o_orderkey"], orders_["o_orderdate"], orders_["o_custkey"]
        )
        if when < cutoff and cust in building
    }
    revenue: Dict[int, int] = {}
    for key, price, disc in zip(li["l_orderkey"], li["l_extendedprice"], li["l_discount"]):
        if key in wanted:
            revenue[key] = revenue.get(key, 0) + price * (100 - disc)
    return _revenue_rows(revenue, 10, ("o_orderkey", "revenue"))


def q5(li: Table, orders_: Table, customer_: Table, nation_: Table) -> Expected:
    """Local supplier volume: 1994 revenue per customer nation."""
    names = dict(zip(nation_["n_nationkey"], nation_["n_name"]))
    cust_nation = {
        key: names[nation_key]
        for key, nation_key in zip(customer_["c_custkey"], customer_["c_nationkey"])
        if nation_key in names
    }
    low, high = days("1994-01-01"), days("1995-01-01")
    order_nation = {
        key: cust_nation[cust]
        for key, when, cust in zip(
            orders_["o_orderkey"], orders_["o_orderdate"], orders_["o_custkey"]
        )
        if low <= when < high and cust in cust_nation
    }
    revenue: Dict[str, int] = {}
    for key, price, disc in zip(li["l_orderkey"], li["l_extendedprice"], li["l_discount"]):
        name = order_nation.get(key)
        if name is not None:
            revenue[name] = revenue.get(name, 0) + price * (100 - disc)
    return _revenue_rows(revenue, None, ("n_name", "revenue"))


def q10(li: Table, orders_: Table, customer_: Table) -> Expected:
    """Returned item reporting: Q4-1993 returned revenue per customer."""
    customers = set(customer_["c_custkey"])
    low, high = days("1993-10-01"), days("1994-01-01")
    order_cust = {
        key: cust
        for key, when, cust in zip(
            orders_["o_orderkey"], orders_["o_orderdate"], orders_["o_custkey"]
        )
        if low <= when < high and cust in customers
    }
    revenue: Dict[int, int] = {}
    for key, flag, price, disc in zip(
        li["l_orderkey"], li["l_returnflag"], li["l_extendedprice"], li["l_discount"]
    ):
        cust = order_cust.get(key)
        if cust is not None and flag == "R":
            revenue[cust] = revenue.get(cust, 0) + price * (100 - disc)
    return _revenue_rows(revenue, 20, ("c_custkey", "revenue"))


def expected(statement: str, tables: Dict[str, Table]) -> Expected:
    """The reference result of one named statement over ``tables``."""
    li = tables["lineitem"]
    if statement == "Q1":
        return q1(li)
    if statement == "Q6":
        return q6(li)
    if statement == "Q3":
        return q3(li, tables["orders"], tables["customer"])
    if statement == "Q5":
        return q5(li, tables["orders"], tables["customer"], tables["nation"])
    if statement == "Q10":
        return q10(li, tables["orders"], tables["customer"])
    raise ValueError(f"no reference for statement {statement!r}")
