"""The reference evaluator on a hand-checked five-row table."""

import pytest

import reference
import workloads
from reference import Dec, days

# quantity, price, discount, tax (unscaled at scale 2), flag, status, shipdate, orderkey
LINEITEM = [
    (1000, 10000, 5, 2, "A", "F", days("1994-06-01"), 1),
    (2000, 20000, 6, 0, "A", "F", days("1994-07-01"), 2),
    (3000, 30000, 10, 8, "N", "O", days("1998-09-03"), 1),
    (500, 5000, 7, 1, "A", "F", days("1998-09-02"), 3),
    (100, 100000, 0, 4, "R", "F", days("1993-01-01"), 3),
]
ORDERS = [(1, days("1995-03-14"), 1), (2, days("1994-05-01"), 2), (3, days("1993-11-15"), 1)]
CUSTOMERS = [(1, "BUILDING", 2), (2, "MACHINERY", 7)]


def columns(names, rows):
    return {name: [row[i] for row in rows] for i, name in enumerate(names)}


TABLES = {
    "lineitem": columns(
        ["l_quantity", "l_extendedprice", "l_discount", "l_tax", "l_returnflag",
         "l_linestatus", "l_shipdate", "l_orderkey"],
        LINEITEM,
    ),
    "orders": columns(["o_orderkey", "o_orderdate", "o_custkey"], ORDERS),
    "customer": columns(["c_custkey", "c_mktsegment", "c_nationkey"], CUSTOMERS),
    "nation": reference.nation(),
}

# Worked by hand: row 3 ships after Q1's cutoff, row 4 exactly on it.
HAND = {
    "Q1": [
        ("A", "F", Dec(3500, 2), Dec(35000, 2), Dec(3295000, 4), Dec(331865000, 6),
         Dec(11666666, 6), Dec(116666666, 6), Dec(60000, 6), Dec(3, 0)),
        ("R", "F", Dec(100, 2), Dec(100000, 2), Dec(10000000, 4), Dec(1040000000, 6),
         Dec(1000000, 6), Dec(1000000000, 6), Dec(0, 6), Dec(1, 0)),
    ],
    "Q6": [(Dec(170000, 4),)],
    "Q3": [(3, Dec(10465000, 4)), (1, Dec(3650000, 4))],
    "Q5": [("GERMANY", Dec(1880000, 4))],
    "Q10": [(1, Dec(10000000, 4))],
}


@pytest.mark.parametrize("statement", sorted(HAND))
def test_reference_matches_hand_computation(statement):
    assert reference.expected(statement, TABLES).rows == HAND[statement]


def test_engine_agrees_on_the_hand_table():
    from repro.engine import Database

    db = Database(simulate_rows=10_000_000)
    for name, schema, rows in [
        ("lineitem", {
            "l_quantity": "DECIMAL(12, 2)", "l_extendedprice": "DECIMAL(12, 2)",
            "l_discount": "DECIMAL(3, 2)", "l_tax": "DECIMAL(3, 2)",
            "l_returnflag": "CHAR(1)", "l_linestatus": "CHAR(1)",
            "l_shipdate": "DATE", "l_orderkey": "BIGINT",
        }, workloads.literal_rows(LINEITEM)),
        ("orders", {"o_orderkey": "BIGINT", "o_orderdate": "DATE", "o_custkey": "BIGINT"}, ORDERS),
        ("customer", {"c_custkey": "BIGINT", "c_mktsegment": "CHAR(10)", "c_nationkey": "BIGINT"},
         CUSTOMERS),
        ("nation", {"n_nationkey": "BIGINT", "n_name": "CHAR(25)"},
         list(zip(*TABLES["nation"].values()))),
    ]:
        db.create_table(name, schema, rows)
    from repro.workloads import tpch_queries

    for statement in HAND:
        result = db.execute(getattr(tpch_queries, f"{statement}_SQL"))
        expected = reference.expected(statement, TABLES)
        assert expected.mismatch(result.column_names, workloads.normalise(result.rows)) is None


def test_mismatch_accepts_any_order_of_ties_but_not_wrong_scale():
    rows = [(1, Dec(5, 0)), (2, Dec(5, 0)), (3, Dec(4, 0))]
    expected = reference.ordered(("k", "v"), rows, (1,), limit=1)
    assert expected.rows == rows[:2]  # the tie at the LIMIT boundary is kept
    assert expected.mismatch(("k", "v"), [(2, Dec(5, 0))]) is None
    assert expected.mismatch(("k", "v"), [(3, Dec(4, 0))]) == "ORDER BY keys differ"
    assert expected.mismatch(("k", "v"), [(1, Dec(50, 1))]) is not None
    assert expected.mismatch(("v", "k"), [(1, Dec(5, 0))]).startswith("columns")


def test_parse_decimal_keeps_the_scale():
    assert reference.parse_decimal("-0.0500") == Dec(-500, 4)
    assert reference.parse_decimal("12") == Dec(12, 0)
