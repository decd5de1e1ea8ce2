"""Golden simulated reports for the TPC-H queries, serial and streamed.

Every simulated :class:`ExecutionReport` field and every
``kernel_executions`` entry of Q1/Q6/Q3/Q5/Q10 and of one query whose
filter matches no row is pinned, with streaming off and with
``StreamingConfig(enabled=True, chunk_rows=None)``, together with the
result rows.  Only the measured ``data_plane_seconds`` is left out.  A
refactor of the execution path must reproduce these numbers exactly.

Regenerate the golden file (only for an intended change to the timing
model) with the command below; the file then pins the new behaviour, so
drop ``CHANGED`` and its test at the same time::

    PYTHONPATH=src python tests/engine/test_report_golden.py --write
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path
from typing import Dict

import pytest

from repro.engine import Database
from repro.gpusim.streaming import StreamingConfig
from repro.storage import tpch
from repro.workloads.tpch_queries import Q1_SQL, Q3_SQL, Q5_SQL, Q6_SQL, Q10_SQL

GOLDEN = Path(__file__).with_name("report_golden.json")

ROWS = 20_000
SEED = 1
SIMULATE_ROWS = 10_000_000

#: A grouped revenue query whose filter keeps no lineitem row: every
#: kernel launches over an empty batch.
ZERO_ROW_SQL = """
SELECT l_returnflag, SUM(l_extendedprice * (1 - l_discount)) AS revenue
FROM lineitem
WHERE l_quantity < 0
GROUP BY l_returnflag
"""

QUERIES = {
    "Q1": Q1_SQL,
    "Q6": Q6_SQL,
    "Q3": Q3_SQL,
    "Q5": Q5_SQL,
    "Q10": Q10_SQL,
    "zero_rows": ZERO_ROW_SQL,
}

MODES = {
    "serial": StreamingConfig(),
    "streamed": StreamingConfig(enabled=True, chunk_rows=None),
}

#: Measured wall clock, not part of the simulated model.
UNPINNED = {"data_plane_seconds"}


def _database(streaming: StreamingConfig) -> Database:
    order_count = ROWS // 5
    db = Database(simulate_rows=SIMULATE_ROWS, streaming=streaming)
    db.register(
        tpch.lineitem_with_orderkeys(rows=ROWS, seed=SEED, order_count=order_count)
    )
    db.register(
        tpch.orders(rows=order_count, seed=SEED + 101, lineitem_orders=order_count)
    )
    db.register(tpch.customer(rows=order_count // 8, seed=SEED + 202))
    db.register(tpch.nation())
    return db


def _pinned(record) -> Dict:
    return {
        f.name: getattr(record, f.name)
        for f in dataclasses.fields(record)
        if f.name not in UNPINNED and f.name != "kernel_executions"
    }


def snapshot() -> Dict:
    """Rows and simulated reports of every query in every mode."""
    out: Dict = {}
    for mode, streaming in MODES.items():
        db = _database(streaming)
        for name, sql in QUERIES.items():
            result = db.execute(sql)
            report = result.report
            out[f"{mode}/{name}"] = {
                "rows": [[str(value) for value in row] for row in result.rows],
                "report": _pinned(report),
                "kernel_executions": [_pinned(k) for k in report.kernel_executions],
            }
    return out


@pytest.fixture(scope="module")
def current():
    return snapshot()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


#: The one entry that intentionally differs from the golden file.  An
#: empty batch on the streamed path used to return zero time, although the
#: kernel's pending transfer was already counted in ``pcie_bytes``.
#: Simulated time now comes from the simulated row count alone, so the
#: launch is charged like the serial one (one chunk, the same kernel
#: seconds) and the popped transfer is charged as PCIe seconds.
CHANGED = "streamed/zero_rows"

KEYS = [f"{mode}/{query}" for mode in MODES for query in QUERIES]


@pytest.mark.parametrize("key", [key for key in KEYS if key != CHANGED])
def test_report_matches_golden(current, golden, key):
    assert current[key] == golden[key]


def test_streamed_zero_rows_charges_its_transfer(current, golden):
    now, was = current[CHANGED], golden[CHANGED]
    serial_report = golden["serial/zero_rows"]["report"]
    (serial_launch,) = golden["serial/zero_rows"]["kernel_executions"]
    (launch,) = now["kernel_executions"]
    (old_launch,) = was["kernel_executions"]
    assert now["rows"] == was["rows"] == []

    assert old_launch["chunks"] == 0 and old_launch["pipelined_seconds"] == 0.0
    assert launch["chunks"] == 1
    assert launch["kernel_seconds_per_chunk"] == serial_launch["kernel_seconds_per_chunk"]
    assert launch["transfer_seconds_per_chunk"] > 0.0
    for name in ("name", "expression", "streamed", "occupancy"):
        assert launch[name] == old_launch[name]

    changed = {"kernel_seconds", "pcie_seconds"}
    assert {k: v for k, v in now["report"].items() if k not in changed} == {
        k: v for k, v in was["report"].items() if k not in changed
    }
    assert now["report"]["kernel_seconds"] == serial_report["kernel_seconds"]
    assert now["report"]["pcie_seconds"] == pytest.approx(
        was["report"]["pcie_seconds"] + launch["transfer_seconds_per_chunk"], rel=1e-12
    )


def test_golden_covers_every_query(current, golden):
    assert sorted(current) == sorted(golden) == sorted(KEYS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_report_golden.py --write")
    GOLDEN.write_text(json.dumps(snapshot(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
