"""Tests for frame-of-reference compression (the Figure 14(b) case study)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decimal.context import DecimalSpec
from repro.errors import StorageError
from repro.storage.codecs import ForCodec, choose_codec
from repro.storage.column import Column


def encode(values, spec, chunk_rows=None):
    column = Column.decimal_from_unscaled("v", values, spec).with_codec(
        ForCodec(), chunk_rows=chunk_rows
    )
    return column, column.encoding()


def decode(encoding):
    return [
        value
        for chunk in encoding.chunks
        for value in encoding.codec.decode_chunk(chunk, encoding.spec)
    ]


def ratio(values, spec):
    column, encoding = encode(values, spec)
    return column.bytes_stored / encoding.wire_bytes


class TestForCompression:
    @given(
        st.lists(st.integers(min_value=-(10**12), max_value=10**12), min_size=1, max_size=500)
    )
    @settings(max_examples=50, deadline=None)
    def test_lossless(self, values):
        _, encoding = encode(values, DecimalSpec(20, 2), chunk_rows=64)
        assert decode(encoding) == values

    def test_narrow_range_compresses_well(self):
        """TPC-H quantities: values 1..50 at huge declared precision."""
        spec = DecimalSpec(135, 2)  # the LEN=16 extended precision
        assert ratio([q * 100 for q in range(1, 51)] * 20, spec) > 10

    def test_wide_range_compresses_poorly(self):
        spec = DecimalSpec(20, 0)
        assert ratio([(-1) ** i * 10**19 + i for i in range(200)], spec) < 2

    def test_block_structure(self):
        spec = DecimalSpec(10, 0)
        _, encoding = encode(list(range(100)), spec, chunk_rows=32)
        assert [chunk.zone.rows for chunk in encoding.chunks] == [32, 32, 32, 4]
        # The reference is the chunk's zone minimum, stored at full width.
        assert [zone.min_unscaled for zone in encoding.zones] == [0, 32, 64, 96]
        assert encoding.wire_bytes == sum(
            spec.compact_bytes + chunk.data.shape[1] * chunk.zone.rows
            for chunk in encoding.chunks
        )

    def test_delta_widths_minimal(self):
        spec = DecimalSpec(10, 0)
        _, encoding = encode([1000, 1001, 1002, 1003], spec, chunk_rows=4)
        assert encoding.chunks[0].data.shape == (4, 1)
        _, encoding = encode([0, 255, 256], spec)
        assert encoding.chunks[0].data.shape == (3, 2)

    def test_empty_column_encodes_to_no_chunks(self):
        _, encoding = encode([], DecimalSpec(5, 0))
        assert encoding.chunks == [] and encoding.wire_bytes == 0

    def test_bad_block_size(self):
        column = Column.decimal_from_unscaled("v", [1], DecimalSpec(5, 0))
        with pytest.raises(StorageError):
            ForCodec().encode_column(column.data, [1], DecimalSpec(5, 0), chunk_rows=0)

    def test_never_chosen_automatically(self):
        values = [q * 100 for q in range(1, 51)]
        assert not isinstance(choose_codec(DecimalSpec(135, 2), values), ForCodec)
        assert not ForCodec().order_preserving
