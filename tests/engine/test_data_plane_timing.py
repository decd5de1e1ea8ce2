"""Measured data-plane wall time in reports; EXPLAIN measures none."""

from repro.core.decimal.context import DecimalSpec
from repro.engine import Database
from repro.gpusim.streaming import StreamingConfig
from repro.storage.column import Column
from repro.storage.relation import Relation


def make_db(**kwargs):
    db = Database(**kwargs)
    spec = DecimalSpec(15, 2)
    db.register(
        Relation(
            "t",
            [
                Column.decimal_from_unscaled("a", [123456, -99, 0, 500], spec),
                Column.decimal_from_unscaled("b", [7, 3, 11, -2], spec),
            ],
        )
    )
    return db


class TestReportDataPlaneSeconds:
    def test_kernel_query_records_wall_time(self):
        result = make_db().execute("SELECT a * b + a AS v FROM t")
        report = result.report
        assert report.data_plane_seconds > 0.0
        assert report.kernel_executions
        for entry in report.kernel_executions:
            assert entry.data_plane_seconds > 0.0
        # Measured wall time stays out of the simulated total.
        assert report.data_plane_seconds != report.total_seconds

    def test_aggregation_conversion_is_timed(self):
        result = make_db().execute("SELECT SUM(a) FROM t")
        assert result.report.data_plane_seconds > 0.0

    def test_streamed_kernels_record_wall_time(self):
        db = make_db(streaming=StreamingConfig(enabled=True, chunk_rows=2))
        result = db.execute("SELECT a * b AS v FROM t")
        streamed = result.report.streamed_kernels
        assert streamed
        for entry in streamed:
            assert entry.data_plane_seconds > 0.0


class TestExplainMeasured:
    def test_default_explain_skips_measurement(self, monkeypatch):
        """EXPLAIN estimates only: no kernel's data plane runs."""
        from repro.gpusim import executor

        def refuse(*args, **kwargs):
            raise AssertionError("EXPLAIN ran a kernel")

        monkeypatch.setattr(executor, "execute", refuse)
        explained = make_db().explain("SELECT a * b FROM t")
        assert explained.kernels
        assert "data plane" not in explained.format()
