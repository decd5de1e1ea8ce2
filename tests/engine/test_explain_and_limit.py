"""Tests for EXPLAIN and LIMIT."""

import pytest

from repro.core.decimal.context import DecimalSpec
from repro.engine import Database
from repro.errors import ParseError
from repro.storage import Column, Relation
from repro.storage.datagen import decimal_column


def make_db(rows=40):
    relation = Relation(
        "r",
        [
            decimal_column("a", DecimalSpec(10, 2), rows, seed=1),
            Column.integers("k", list(range(rows))),
        ],
    )
    db = Database(simulate_rows=1_000_000)
    db.register(relation)
    return db, relation


class TestLimit:
    def test_limit_truncates(self):
        db, relation = make_db()
        result = db.execute("SELECT k FROM r ORDER BY k DESC LIMIT 5")
        assert [row[0] for row in result.rows] == [39, 38, 37, 36, 35]

    def test_limit_larger_than_rows(self):
        db, _ = make_db(rows=3)
        result = db.execute("SELECT k FROM r LIMIT 100")
        assert len(result.rows) == 3

    def test_limit_zero(self):
        db, _ = make_db()
        result = db.execute("SELECT k FROM r LIMIT 0")
        assert result.rows == []

    def test_limit_parse_errors(self):
        db, _ = make_db()
        with pytest.raises(ParseError):
            db.execute("SELECT k FROM r LIMIT 1.5")
        with pytest.raises(ParseError):
            db.execute("SELECT k FROM r LIMIT x")

    def test_limit_with_aggregate(self):
        db, relation = make_db()
        result = db.execute("SELECT SUM(a) FROM r LIMIT 1")
        assert result.scalar.unscaled == sum(relation.column("a").unscaled())


class TestExplain:
    def test_operator_chain(self):
        db, _ = make_db()
        explained = db.explain("SELECT a * 2 FROM r WHERE k < 10 ORDER BY k LIMIT 3")
        text = explained.format()
        assert "Scan r" in text
        assert "Filter" in text
        assert "Project (JIT)" in text
        assert "Sort" in text

    def test_kernel_details(self):
        db, _ = make_db()
        explained = db.explain("SELECT a + a + 1.5 FROM r")
        assert len(explained.kernels) == 1
        kernel = explained.kernels[0]
        assert kernel.result_spec.startswith("DECIMAL")
        assert kernel.estimated_ms > 0
        assert "__global__" in kernel.source

    def test_bare_column_aggregate_needs_no_kernel(self):
        db, _ = make_db()
        explained = db.explain("SELECT SUM(a), COUNT(*) FROM r")
        assert explained.kernels == []
        assert "Aggregate" in explained.format()

    def test_group_aggregate_kernels(self):
        db, _ = make_db()
        explained = db.explain("SELECT k, SUM(a * 2) FROM r GROUP BY k")
        assert len(explained.kernels) == 1
        assert "GroupAggregate" in explained.format()

    def test_estimates_scale_with_rows(self):
        db, _ = make_db()
        small = db.explain("SELECT a + a FROM r", simulate_rows=1_000_000)
        large = db.explain("SELECT a + a FROM r", simulate_rows=100_000_000)
        assert large.kernels[0].estimated_ms > small.kernels[0].estimated_ms

    def test_with_source_flag(self):
        db, _ = make_db()
        explained = db.explain("SELECT a + 1 FROM r")
        assert "toCompact" in explained.format(with_source=True)
        assert "toCompact" not in explained.format(with_source=False)

    def test_explain_does_not_execute(self):
        db, _ = make_db()
        db.explain("SELECT a + 123456 FROM r")
        # The session cache is untouched by explain (it compiles privately).
        assert len(db.kernel_cache) == 0

    def test_each_kernel_compiles_once(self, monkeypatch):
        """EXPLAIN keeps each kernel's IR for the compile-time model
        instead of compiling every expression a second time."""
        from repro.core.jit import pipeline
        from repro.engine import explain
        from repro.storage import tpch
        from repro.workloads.tpch_queries import Q1_SQL

        compile_expression = pipeline.compile_expression
        explain_query = explain.explain_query
        inside, compiled = [], []

        def counting_compile(text, *args, **kwargs):
            if inside:
                compiled.append(text)
            return compile_expression(text, *args, **kwargs)

        def tracked_explain(*args, **kwargs):
            inside.append(True)
            try:
                return explain_query(*args, **kwargs)
            finally:
                inside.clear()

        monkeypatch.setattr(pipeline, "compile_expression", counting_compile)
        monkeypatch.setattr(explain, "explain_query", tracked_explain)
        db = Database(simulate_rows=1_000_000)
        db.register(tpch.lineitem(rows=200))
        explained = db.explain(Q1_SQL)
        assert len(explained.kernels) == 2
        assert sorted(compiled) == sorted(k.expression for k in explained.kernels)
