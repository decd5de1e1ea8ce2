"""Failure-injection and robustness tests across layers.

A library trusted with exact arithmetic must fail loudly, not wrongly:
corrupted storage, overflowing inputs, and malformed plans all need to
surface as typed errors rather than silent bad numbers.
"""

import numpy as np
import pytest

from repro.core.decimal import compact
from repro.core.decimal.context import DecimalSpec
from repro.core.decimal.vectorized import DecimalVector
from repro.core.jit import compile_expression
from repro.engine import Database
from repro.errors import (
    CapabilityError,
    CatalogError,
    ConversionError,
    DivisionByZeroError,
    ExecutionError,
    ParseError,
    PrecisionOverflowError,
    ReproError,
    SchemaError,
)
from repro.gpusim import execute
from repro.storage import Column, Relation


class TestErrorHierarchy:
    def test_every_library_error_is_a_repro_error(self):
        import inspect

        import repro.errors as errors_module

        for name, obj in inspect.getmembers(errors_module, inspect.isclass):
            if issubclass(obj, Exception):
                assert issubclass(obj, ReproError) or obj is ReproError, name

    def test_errors_catchable_at_base(self):
        with pytest.raises(ReproError):
            DecimalSpec(0, 0)
        with pytest.raises(ReproError):
            Database().execute("SELECT a FROM nowhere")


class TestCorruptedStorage:
    def test_magnitude_overlapping_sign_bit(self):
        """Compact bytes whose magnitude spills into the sign bit."""
        spec = DecimalSpec(10, 2)
        data = np.zeros((1, spec.compact_bytes), dtype=np.uint8)
        data[0, :] = 0xFF  # all bits set: magnitude over the container
        # Unpacking tolerates it (sign bit reads as negative)...
        negative, words = compact.unpack_column(data, spec)
        assert negative[0]
        # ...but repacking an overlapping magnitude is rejected.
        bad_words = np.full((1, spec.words), 0xFFFFFFFF, dtype=np.uint32)
        with pytest.raises(ConversionError):
            compact.pack_column(np.array([False]), bad_words, spec)

    def test_truncated_compact_column(self):
        spec = DecimalSpec(18, 2)
        with pytest.raises(ConversionError):
            DecimalVector.from_compact(np.zeros((5, 3), dtype=np.uint8), spec)

    def test_wrong_shape_column_rejected_at_construction(self):
        from repro.storage.schema import DecimalType

        with pytest.raises(SchemaError):
            Column("c", DecimalType(DecimalSpec(18, 2)), np.zeros((4,), dtype=np.uint8))


class TestArithmeticFailures:
    def test_zero_divisor_in_kernel(self):
        spec = DecimalSpec(8, 2)
        compiled = compile_expression("a / b", {"a": spec, "b": spec})
        columns = {
            "a": DecimalVector.from_unscaled([100, 200], spec).to_compact(),
            "b": DecimalVector.from_unscaled([5, 0], spec).to_compact(),
        }
        with pytest.raises(DivisionByZeroError):
            execute(compiled.kernel, columns, 2)

    def test_overflowing_input_data(self):
        spec = DecimalSpec(4, 2)
        with pytest.raises(PrecisionOverflowError):
            DecimalVector.from_unscaled([10_000], spec)

    def test_sum_container_guarantee(self):
        """SUM's widened spec absorbs the worst case; no silent wrap."""
        db = Database(simulate_rows=1000)
        spec = DecimalSpec(4, 0)
        values = [9999] * 500
        db.register(Relation("t", [Column.decimal_from_unscaled("v", values, spec)]))
        result = db.execute("SELECT SUM(v) FROM t")
        assert result.scalar.unscaled == 9999 * 500


class TestEngineRobustness:
    def test_empty_table_aggregation(self):
        db = Database()
        db.create_table("empty", {"v": "DECIMAL(6, 2)"})
        # The engine has no NULL: an ungrouped SUM over zero rows is a
        # typed engine error, never the reducer's internal one.
        with pytest.raises(ExecutionError, match="over zero rows"):
            db.execute("SELECT SUM(v) FROM empty")

    def test_filter_to_empty_then_group(self):
        db = Database()
        db.create_table(
            "t", {"g": "CHAR(1)", "v": "DECIMAL(6, 2)"}, rows=[("A", "1.00")]
        )
        result = db.execute("SELECT g, SUM(v) FROM t WHERE v > 100 GROUP BY g")
        assert result.rows == []

    def test_malformed_sql_cannot_mutate_state(self):
        db = Database()
        db.create_table("t", {"v": "INT"}, rows=[(1,)])
        for bad in ["SELECT", "SELECT v FROM", "SELECT v FROM t WHERE", "FROM t"]:
            with pytest.raises(ParseError):
                db.execute(bad)
        assert db.execute("SELECT v FROM t").rows == [(1,)]

    def test_baseline_capability_error_is_clean(self):
        from repro.baselines import create
        from repro.storage.datagen import relation_r1

        wide = relation_r1(DecimalSpec(74, 2), rows=5, seed=1)
        engine = create("HEAVY.AI")
        with pytest.raises(CapabilityError) as excinfo:
            engine.run_projection(wide, "c1 + c2 + c3")
        assert "words" in str(excinfo.value)

    def test_drop_then_query(self):
        db = Database()
        db.create_table("t", {"v": "INT"}, rows=[(1,)])
        db.drop("t")
        with pytest.raises(CatalogError):
            db.execute("SELECT v FROM t")
