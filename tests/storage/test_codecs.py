"""Storage codecs: round-trips, order preservation, zone maps, gating."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.ranges import prove_narrow_container
from repro.core.decimal import dinf
from repro.core.decimal.context import DecimalSpec
from repro.errors import StorageError
from repro.storage.codecs import (
    CompactCodec,
    NarrowCodec,
    OrderPreservingCodec,
    ZoneMap,
    choose_codec,
)
from repro.storage.column import Column

#: Values crossing every interesting boundary: sign flips, zero, the
#: 1/2/8-byte magnitude-length edges, and wide (>uint64) magnitudes.
BOUNDARY_VALUES = st.sampled_from(
    [
        0,
        1,
        -1,
        127,
        128,
        255,
        256,
        -255,
        -256,
        65535,
        65536,
        -65535,
        -65536,
        2**63 - 1,
        2**63,
        -(2**63),
        10**25,
        -(10**25),
    ]
)
SIGNED_INTS = st.integers(min_value=-(10**30), max_value=10**30)


class TestDinfEncoding:
    @given(st.lists(SIGNED_INTS | BOUNDARY_VALUES, min_size=1, max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_is_bit_exact(self, values):
        data, lengths = dinf.encode(values)
        assert dinf.decode(data, lengths) == values

    @given(
        SIGNED_INTS | BOUNDARY_VALUES,
        SIGNED_INTS | BOUNDARY_VALUES,
    )
    @settings(max_examples=300, deadline=None)
    def test_memcmp_order_equals_numeric_order(self, a, b):
        ea, eb = dinf.encode_one(a).tobytes(), dinf.encode_one(b).tobytes()
        if a < b:
            assert ea < eb
        elif a > b:
            assert ea > eb
        else:
            assert ea == eb

    @given(
        st.lists(SIGNED_INTS | BOUNDARY_VALUES, min_size=1, max_size=100),
        SIGNED_INTS | BOUNDARY_VALUES,
    )
    @settings(max_examples=200, deadline=None)
    def test_padded_compare_matches_python(self, values, literal):
        data, _lengths = dinf.encode(values)
        order = dinf.compare(data, dinf.encode_one(literal))
        expected = [(v > literal) - (v < literal) for v in values]
        assert order.tolist() == expected

    def test_zero_is_the_single_pivot_byte(self):
        assert dinf.encode_one(0).tolist() == [dinf.ZERO_PREFIX]

    def test_magnitude_cap_raises(self):
        with pytest.raises(ValueError):
            dinf.encode([1 << (8 * dinf.MAX_MAGNITUDE_BYTES)])

    def test_paper_sweep_precisions_supported(self):
        # The LEN sweep's widest spec (precision 285) must be encodable.
        assert dinf.supports(DecimalSpec(285, 2).max_unscaled)


SPEC = DecimalSpec(12, 2)


def _column(values, codec=None, chunk_rows=None):
    column = Column.decimal_from_unscaled("c", list(values), SPEC)
    if codec is not None:
        column = column.with_codec(codec, chunk_rows=chunk_rows)
    return column


class TestCodecColumns:
    @pytest.mark.parametrize(
        "codec", [CompactCodec(), OrderPreservingCodec()], ids=["compact", "dinf"]
    )
    def test_chunked_round_trip(self, codec):
        values = [0, -12345, 10**10, 42, -1, 999, -(10**9)]
        column = _column(values, codec, chunk_rows=3)
        encoding = column.encoding()
        decoded = []
        for chunk in encoding.chunks:
            decoded.extend(codec.decode_chunk(chunk, SPEC))
        assert decoded == values
        assert [z.rows for z in encoding.zones] == [3, 3, 1]

    def test_zone_maps_record_exact_stats(self):
        column = _column([5, 0, -3, 7, 0, 0], OrderPreservingCodec(), chunk_rows=3)
        zones = column.encoding().zones
        assert (zones[0].min_unscaled, zones[0].max_unscaled) == (-3, 5)
        assert (zones[1].min_unscaled, zones[1].max_unscaled) == (0, 7)
        assert zones[0].zero_count == 1 and zones[1].zero_count == 2
        assert all(z.null_count == 0 for z in zones)

    def test_dinf_wire_bytes_beat_compact_padding(self):
        column = _column(range(100))
        encoded = column.with_codec(OrderPreservingCodec())
        assert encoded.wire_bytes < column.bytes_stored
        assert column.wire_bytes == column.bytes_stored  # no codec -> stored

    def test_encoding_is_cached_per_version(self):
        column = _column([1, 2, 3], OrderPreservingCodec())
        assert column.cached_encoding() is None  # not materialised yet
        first = column.encoding()
        assert column.encoding() is first
        assert column.cached_encoding() is first
        column.invalidate()
        assert column.cached_encoding() is None
        assert column.encoding() is not first

    def test_take_drops_the_encoding_cache(self):
        column = _column([1, 2, 3, 4], OrderPreservingCodec(), chunk_rows=2)
        column.encoding()
        subset = column.take(np.array([3, 0]))
        assert subset.codec is column.codec
        assert subset.cached_encoding() is None
        assert subset.encoding().zones[0].min_unscaled == 1


class TestZoneMapVerdicts:
    ZONE = ZoneMap(row_start=0, rows=4, min_unscaled=10, max_unscaled=20)

    @pytest.mark.parametrize(
        "op,literal,verdict",
        [
            ("<", 10, False),
            ("<", 21, True),
            ("<", 15, None),
            ("<=", 9, False),
            ("<=", 20, True),
            (">", 20, False),
            (">", 9, True),
            (">=", 21, False),
            (">=", 10, True),
            ("=", 25, False),
            ("=", 15, None),
            ("<>", 25, True),
            ("<>", 15, None),
        ],
    )
    def test_truth_table(self, op, literal, verdict):
        assert self.ZONE.evaluate(op, literal) is verdict

    def test_constant_chunk_decides_equality(self):
        zone = ZoneMap(row_start=0, rows=4, min_unscaled=7, max_unscaled=7)
        assert zone.evaluate("=", 7) is True
        assert zone.evaluate("<>", 7) is False


class TestNarrowCodec:
    NARROW_SPEC = DecimalSpec(8, 2)  # max_unscaled 99,999,999 < 2**31

    def test_requires_a_range_proof(self):
        with pytest.raises(StorageError):
            NarrowCodec(None)

    def test_spec_proof_round_trips(self):
        proof = prove_narrow_container(self.NARROW_SPEC)
        assert proof is not None and proof.source == "spec"
        codec = NarrowCodec(proof)
        values = [0, -1, 99_999_999, -99_999_999, 42]
        column = Column.decimal_from_unscaled("c", values, self.NARROW_SPEC)
        encoding = codec.encode_column(column.data, values, self.NARROW_SPEC, 2)
        decoded = []
        for chunk in encoding.chunks:
            decoded.extend(codec.decode_chunk(chunk, self.NARROW_SPEC))
        assert decoded == values
        assert encoding.wire_bytes == 4 * len(values)

    def test_memcmp_order_is_preserved(self):
        proof = prove_narrow_container(self.NARROW_SPEC)
        codec = NarrowCodec(proof)
        values = sorted([-99_999_999, -256, -1, 0, 1, 255, 99_999_999])
        encoded = [
            codec.encode_literal(v, self.NARROW_SPEC).tobytes() for v in values
        ]
        assert encoded == sorted(encoded)

    def test_wide_spec_has_no_spec_proof_without_observation(self):
        wide = DecimalSpec(20, 2)
        assert prove_narrow_container(wide) is None
        proof = prove_narrow_container(wide, observed=(-1000, 1000))
        assert proof is not None and proof.source == "observed"

    def test_encode_revalidates_against_the_container(self):
        # An observed-interval proof does not survive data that outgrows
        # it (e.g. after an append): encode raises, never truncates.
        wide = DecimalSpec(20, 2)
        codec = NarrowCodec(prove_narrow_container(wide, observed=(0, 100)))
        values = [0, 2**31]  # second value exceeds int32
        column = Column.decimal_from_unscaled("c", values, wide)
        with pytest.raises(StorageError):
            codec.encode_column(column.data, values, wide, 16)

    def test_spec_mismatch_raises(self):
        codec = NarrowCodec(prove_narrow_container(self.NARROW_SPEC))
        with pytest.raises(StorageError):
            codec.encode_literal(1, DecimalSpec(20, 2))


class TestChooseCodec:
    def test_small_values_prefer_dinf(self):
        codec = choose_codec(SPEC, [0, 100, -5000])
        assert codec.name == "dinf"

    def test_narrow_wins_on_wide_int32_values(self):
        # Values needing 4 magnitude bytes: dinf = 5 B/row, narrow = 4.
        values = [2**30, -(2**30), 2**29]
        codec = choose_codec(DecimalSpec(12, 2), values)
        assert codec.name == "narrow32"

    def test_narrow_never_selected_without_a_proof(self):
        # Same byte profile but one value outside int32: the proof fails
        # and the selection must fall back to an unguarded codec.
        values = [2**30, -(2**30), 2**32]
        codec = choose_codec(DecimalSpec(12, 2), values)
        assert codec.name != "narrow32"

    def test_huge_spec_without_values_falls_back_to_compact_or_dinf(self):
        codec = choose_codec(DecimalSpec(285, 2))
        assert codec.name in ("dinf", "compact")
