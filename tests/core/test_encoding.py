"""Unit and property tests for the order-preserving encodings.

The memcmp-comparability invariant (paper section 4.2) is the foundation
of every run search, so it gets hypothesis coverage on every type.
"""

import pytest
from hypothesis import given, strategies as st

from repro.core import encoding as enc
from repro.core.entry import begin_ts_of_sort_key
from tests.conftest import encode_composite, encode_value

int64s = st.integers(min_value=enc.INT64_MIN, max_value=enc.INT64_MAX)
uint64s = st.integers(min_value=0, max_value=enc.UINT64_MAX)
floats = st.floats(allow_nan=False, width=64)
texts = st.text(max_size=64)
byte_strings = st.binary(max_size=64)


class TestInt64:
    @given(int64s, int64s)
    def test_order_preserved(self, a, b):
        assert (a < b) == (enc.encode_int64(a) < enc.encode_int64(b))

    @given(int64s)
    def test_roundtrip(self, a):
        value, offset = enc.decode_int64(enc.encode_int64(a), 0)
        assert value == a and offset == 8

    def test_out_of_range(self):
        with pytest.raises(enc.EncodingError):
            enc.encode_int64(1 << 63)
        with pytest.raises(enc.EncodingError):
            enc.encode_int64(-(1 << 63) - 1)


class TestFloat64:
    @given(floats, floats)
    def test_order_preserved(self, a, b):
        assert (a < b) == (enc.encode_float64(a) < enc.encode_float64(b))

    @given(floats)
    def test_roundtrip(self, a):
        value, _ = enc.decode_float64(enc.encode_float64(a), 0)
        assert value == a or (a == 0.0 and value == 0.0)

    def test_nan_rejected(self):
        with pytest.raises(enc.EncodingError):
            enc.encode_float64(float("nan"))

    def test_negative_zero_and_zero_compare_equal_numerically(self):
        # -0.0 == 0.0 but their encodings may differ; order must not invert.
        assert enc.encode_float64(-0.0) <= enc.encode_float64(0.0)


class TestStrings:
    @given(texts, texts)
    def test_order_preserved(self, a, b):
        assert (a < b) == (enc.encode_str(a) < enc.encode_str(b))

    @given(texts)
    def test_roundtrip(self, a):
        value, _ = enc.decode_str(enc.encode_str(a), 0)
        assert value == a

    @given(byte_strings, byte_strings)
    def test_bytes_order_preserved(self, a, b):
        assert (a < b) == (enc.encode_bytes(a) < enc.encode_bytes(b))

    @given(byte_strings)
    def test_bytes_roundtrip(self, a):
        value, _ = enc.decode_bytes(enc.encode_bytes(a), 0)
        assert value == a

    def test_embedded_zero_bytes(self):
        a = enc.encode_bytes(b"\x00")
        b = enc.encode_bytes(b"\x00\x00")
        assert a < b

    def test_prefix_sorts_before_extension(self):
        assert enc.encode_str("ab") < enc.encode_str("abc")

    def test_truncated_decode_raises(self):
        with pytest.raises(enc.EncodingError):
            enc.decode_bytes(b"\x01\x02", 0)  # no terminator

    def test_invalid_escape_raises(self):
        with pytest.raises(enc.EncodingError):
            enc.decode_bytes(b"\x00\x07", 0)


class TestDescendingTimestamps:
    @given(uint64s, uint64s)
    def test_order_inverted(self, a, b):
        assert (a > b) == (enc.encode_ts_desc(a) < enc.encode_ts_desc(b))

    @given(uint64s)
    def test_roundtrip(self, a):
        # read back as every sort key's suffix is
        assert begin_ts_of_sort_key(enc.encode_ts_desc(a)) == a


class TestComposite:
    @given(
        st.lists(int64s, min_size=1, max_size=3),
        st.lists(int64s, min_size=1, max_size=3),
    )
    def test_tuple_order_matches_bytes_order(self, a, b):
        if len(a) != len(b):
            return  # fixed-arity composites only
        assert (tuple(a) < tuple(b)) == (
            encode_composite(a) < encode_composite(b)
        )

    def test_mixed_types_dispatch(self):
        out = encode_composite([1, 2.5, "x", b"y"])
        assert isinstance(out, bytes) and len(out) > 0

    def test_unsupported_type_raises(self):
        with pytest.raises(enc.EncodingError):
            encode_value(object())


class TestHashing:
    def test_fnv_deterministic_across_calls(self):
        assert enc.fnv1a64(b"umzi") == enc.fnv1a64(b"umzi")

    def test_fnv_known_vector(self):
        # FNV-1a 64-bit of empty input is the offset basis.
        assert enc.fnv1a64(b"") == 0xCBF29CE484222325

    def test_hash_values_concatenates(self):
        one = enc.hash_values([enc.encode_int64(1), enc.encode_int64(2)])
        other = enc.hash_values([enc.encode_int64(1) + enc.encode_int64(2)])
        assert one == other

    @given(st.lists(st.binary(max_size=17), max_size=40))
    def test_fnv_column_is_fnv_per_key(self, keys):
        assert enc.fnv1a64_column(keys) == [enc.fnv1a64(k) for k in keys]

    @given(st.integers(min_value=0, max_value=17), st.integers(min_value=1, max_value=30))
    def test_fnv_column_one_width(self, width, count):
        keys = [bytes([(i * 37 + j) % 256 for j in range(width)]) for i in range(count)]
        assert enc.fnv1a64_column(keys) == [enc.fnv1a64(k) for k in keys]
        with pytest.MonkeyPatch.context() as patch:  # every batch as lanes
            patch.setattr(enc, "FNV_LANE_CROSSOVER", 1)
            assert enc.fnv1a64_column(keys) == [enc.fnv1a64(k) for k in keys]

    def test_fnv_column_edges(self):
        assert enc.fnv1a64_column([]) == []
        assert enc.fnv1a64_column([b"umzi"]) == [enc.fnv1a64(b"umzi")]
        count = enc.FNV_LANE_CROSSOVER
        mixed = [bytes([w * 11 + i]) * w for w in range(18) for i in range(count)]
        mixed = mixed[1::2] + mixed[::2]  # widths 0-17 interleaved in one batch
        assert enc.fnv1a64_column(mixed) == [enc.fnv1a64(k) for k in mixed]
        for width in range(18):  # a lane's largest and smallest products
            for fill in (0x00, 0xFF):
                keys = [bytes([fill]) * width] * count  # one width: the lanes
                assert enc.fnv1a64_column(keys) == [enc.fnv1a64(keys[0])] * count

    @given(uint64s, st.integers(min_value=1, max_value=64))
    def test_high_bits_range(self, value, nbits):
        assert 0 <= enc.high_bits(value, nbits) < (1 << nbits)

    def test_high_bits_rejects_bad_width(self):
        with pytest.raises(enc.EncodingError):
            enc.high_bits(1, 0)


class TestPrefixSuccessor:
    @given(byte_strings)
    def test_successor_is_greater_than_all_extensions(self, prefix):
        successor = enc.prefix_successor(prefix)
        if successor == b"":
            return  # +infinity sentinel for all-0xFF prefixes
        assert successor > prefix
        assert successor > prefix + b"\x00"
        assert successor > prefix + b"\xff" * 4

    def test_all_ff_gives_infinity_sentinel(self):
        assert enc.prefix_successor(b"\xff\xff") == b""

    def test_carry(self):
        assert enc.prefix_successor(b"a\xff") == b"b"
