"""Order-preserving (memcmp-comparable) key encodings.

Paper section 4.2: "All ordering columns, i.e., the hash column, equality
columns, sort columns and beginTS, are stored in lexicographically
comparable formats, similar to LevelDB, so that keys can be compared by
simply using memory compare operations."

This module provides exactly that: every supported column type encodes to
``bytes`` such that ``encode(a) < encode(b)`` iff ``a < b`` under the
type's natural order.  ``beginTS`` is stored *descending* (section 4.2
sorts beginTS in descending order to put the newest version first), which
is achieved by encoding its bitwise complement.

Encodings
---------
* signed 64-bit int  -> 8 bytes big-endian with the sign bit flipped;
* float              -> 8 bytes of the IEEE-754 image, sign-adjusted so the
  byte order matches numeric order (standard trick used by key-value
  stores);
* str                -> UTF-8 with ``0x00`` escaped as ``0x00 0xFF`` and a
  ``0x00 0x00`` terminator, so variable-length strings compare correctly
  inside composite keys;
* bytes              -> same escape/terminator scheme as str.

The hash column uses 64-bit FNV-1a -- deterministic across processes
(unlike Python's builtin ``hash``), cheap, and well-spread in the high
bits, which is what the offset array consumes.
"""

from __future__ import annotations

import struct
from operator import itemgetter
from typing import Iterable, List, Sequence, Tuple, Union

KeyValue = Union[int, float, str, bytes]

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1
UINT64_MAX = (1 << 64) - 1

_STRING_TERMINATOR = b"\x00\x00"
_STRING_ESCAPED_ZERO = b"\x00\xff"

_FNV64_OFFSET = 0xCBF29CE484222325
_FNV64_PRIME = 0x100000001B3
# fnv1a64_column: a batch of one width hashes as 128-bit lanes of one int
# once it holds this many keys; below it the scalar loop is faster (on a
# shared 2-vCPU x86 host, CPython 3.11: 7 8-byte keys take 7.0 us either
# way, 200 take 57 us against 188).
FNV_LANE_CROSSOVER = 7
_FNV64_OFFSET_LANE = struct.pack("<Q8x", _FNV64_OFFSET)
_FNV64_MASK_LANE = struct.pack("<Q8x", UINT64_MAX)


class EncodingError(ValueError):
    """Raised for values outside the encodable domain."""


# ---------------------------------------------------------------------------
# scalar encodings
# ---------------------------------------------------------------------------


def encode_int64(value: int) -> bytes:
    """Encode a signed 64-bit integer; big-endian with flipped sign bit."""
    if not INT64_MIN <= value <= INT64_MAX:
        raise EncodingError(f"integer {value} outside signed 64-bit range")
    return struct.pack(">Q", (value + (1 << 63)) & UINT64_MAX)


def decode_int64(data: bytes, offset: int) -> Tuple[int, int]:
    """Decode an int64; returns ``(value, next_offset)``."""
    (raw,) = struct.unpack_from(">Q", data, offset)
    return raw - (1 << 63), offset + 8


def encode_uint64(value: int) -> bytes:
    """Encode an unsigned 64-bit integer (used for hashes and timestamps)."""
    if not 0 <= value <= UINT64_MAX:
        raise EncodingError(f"integer {value} outside unsigned 64-bit range")
    return struct.pack(">Q", value)


def decode_uint64(data: bytes, offset: int) -> Tuple[int, int]:
    (value,) = struct.unpack_from(">Q", data, offset)
    return value, offset + 8


def encode_float64(value: float) -> bytes:
    """Encode a float so byte order equals numeric order.

    Positive floats: flip the sign bit.  Negative floats: flip all bits.
    NaN is rejected -- it has no place in an ordered index key.
    """
    if value != value:  # NaN
        raise EncodingError("NaN is not orderable and cannot be an index key")
    if value == 0.0:
        value = 0.0  # normalize -0.0: equal values must encode equally
    (raw,) = struct.unpack(">Q", struct.pack(">d", value))
    if raw & (1 << 63):
        raw ^= UINT64_MAX
    else:
        raw ^= 1 << 63
    return struct.pack(">Q", raw)


def decode_float64(data: bytes, offset: int) -> Tuple[float, int]:
    (raw,) = struct.unpack_from(">Q", data, offset)
    if raw & (1 << 63):
        raw ^= 1 << 63
    else:
        raw ^= UINT64_MAX
    (value,) = struct.unpack(">d", struct.pack(">Q", raw))
    return value, offset + 8


def encode_bytes(value: bytes) -> bytes:
    """Escape-and-terminate encoding for variable-length byte strings."""
    return value.replace(b"\x00", _STRING_ESCAPED_ZERO) + _STRING_TERMINATOR


def decode_bytes(data: bytes, offset: int) -> Tuple[bytes, int]:
    end = data.find(b"\x00", offset)
    if end >= 0 and data[end + 1 : end + 2] == b"\x00":
        return data[offset:end], end + 2  # no escape before the terminator
    out = bytearray()
    i = offset
    n = len(data)
    while i < n:
        byte = data[i]
        if byte == 0x00:
            if i + 1 >= n:
                raise EncodingError("truncated escaped byte string")
            nxt = data[i + 1]
            if nxt == 0x00:
                return bytes(out), i + 2
            if nxt == 0xFF:
                out.append(0x00)
                i += 2
                continue
            raise EncodingError(f"invalid escape 0x00 0x{nxt:02x}")
        out.append(byte)
        i += 1
    raise EncodingError("unterminated byte string")


def encode_str(value: str) -> bytes:
    return encode_bytes(value.encode("utf-8"))


def decode_str(data: bytes, offset: int) -> Tuple[str, int]:
    raw, nxt = decode_bytes(data, offset)
    return raw.decode("utf-8"), nxt


# ---------------------------------------------------------------------------
# whole-column encodings (the groom kernel)
# ---------------------------------------------------------------------------
#
# The scalar encodings above a column at a time, without their domain
# checks: ``ColumnSpec.validate`` checked the values once, at ``upsert``.

_PACK_U64 = struct.Struct(">Q").pack
_SIGN_BIT = 1 << 63


def encode_int64_column(values: Iterable[int]) -> List[bytes]:
    return [_PACK_U64(value + _SIGN_BIT) for value in values]


def encode_float64_column(values: Sequence[float]) -> List[bytes]:
    count = len(values)
    images = struct.unpack(f">{count}Q", struct.pack(f">{count}d", *values))
    # An image above the sign bit is a negative float (all bits flip); the
    # sign bit alone is -0.0, which encodes as +0.0 like every other image
    # at or below it (sign bit set).
    return [
        _PACK_U64(raw ^ UINT64_MAX if raw > _SIGN_BIT else raw | _SIGN_BIT)
        for raw in images
    ]


def encode_bytes_column(values: Iterable[bytes]) -> List[bytes]:
    return [
        value.replace(b"\x00", _STRING_ESCAPED_ZERO) + _STRING_TERMINATOR
        for value in values
    ]


def encode_str_column(values: Iterable[str]) -> List[bytes]:
    return [
        value.encode().replace(b"\x00", _STRING_ESCAPED_ZERO) + _STRING_TERMINATOR
        for value in values
    ]


def encode_ts_desc_column(timestamps: Iterable[int]) -> List[bytes]:
    return [_PACK_U64(UINT64_MAX - timestamp) for timestamp in timestamps]


# ---------------------------------------------------------------------------
# descending timestamps
# ---------------------------------------------------------------------------


def encode_ts_desc(timestamp: int) -> bytes:
    """Encode ``beginTS`` so larger (newer) timestamps sort *first*."""
    if not 0 <= timestamp <= UINT64_MAX:
        raise EncodingError(f"timestamp {timestamp} outside unsigned 64-bit range")
    return struct.pack(">Q", UINT64_MAX - timestamp)


# ---------------------------------------------------------------------------
# hashing
# ---------------------------------------------------------------------------


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a -- the deterministic hash for equality columns."""
    value = _FNV64_OFFSET
    for byte in data:
        value ^= byte
        value = (value * _FNV64_PRIME) & UINT64_MAX
    return value


def fnv1a64_column(keys: Sequence[bytes]) -> List[int]:
    """``[fnv1a64(key) for key in keys]``, the whole batch at once.

    Keys of one width are 128-bit little-endian lanes of one Python int, so
    a byte position is one XOR, one multiply and one AND for the batch: a
    lane is below 2**64 after the AND and the prime below 2**41, so a
    lane's product stays below 2**105 and no carry crosses a lane.  A batch
    of mixed widths, or of fewer than ``FNV_LANE_CROSSOVER`` keys, takes the
    scalar loop.
    """
    count = len(keys)
    widths = set(map(len, keys))
    if count < FNV_LANE_CROSSOVER or len(widths) > 1:
        return list(map(fnv1a64, keys))
    (width,) = widths
    joined = b"".join(keys)
    lanes = bytearray(16 * count)  # byte 16*i is lane i's lowest
    value = int.from_bytes(_FNV64_OFFSET_LANE * count, "little")
    mask = int.from_bytes(_FNV64_MASK_LANE * count, "little")
    for position in range(width):
        lanes[::16] = joined[position::width]
        value = ((value ^ int.from_bytes(lanes, "little")) * _FNV64_PRIME) & mask
    return list(struct.unpack(f"<{2 * count}Q", value.to_bytes(16 * count, "little"))[::2])


def _fmix64(value: int) -> int:
    """MurmurHash3's 64-bit avalanche finalizer.

    FNV-1a alone diffuses short inputs poorly into the *high* bits (all
    contiguous int64 keys share the same top byte), and the offset array
    consumes exactly those bits (paper section 4.2: "the most significant
    n bits of hash values").  The finalizer gives every bucket entropy.
    """
    value ^= value >> 33
    value = (value * 0xFF51AFD7ED558CCD) & UINT64_MAX
    value ^= value >> 33
    value = (value * 0xC4CEB9FE1A85EC53) & UINT64_MAX
    value ^= value >> 33
    return value


def hash_values(encoded_values: Iterable[bytes]) -> int:
    """Hash the concatenated encodings of the equality-column values."""
    return _fmix64(fnv1a64(b"".join(encoded_values)))


def high_bits(hash_value: int, nbits: int) -> int:
    """The most significant ``nbits`` of a 64-bit hash (offset-array bucket)."""
    if not 0 < nbits <= 64:
        raise EncodingError(f"nbits must be in (0, 64], got {nbits}")
    return hash_value >> (64 - nbits)


# ---------------------------------------------------------------------------
# composite keys
# ---------------------------------------------------------------------------


def prefix_successor(prefix: bytes) -> bytes:
    """Smallest byte string strictly greater than every string with ``prefix``.

    Used to build exclusive upper bounds for prefix scans.  Returns ``b""``
    sentinel (meaning "+infinity") if the prefix is all ``0xFF``.
    """
    out = bytearray(prefix)
    while out:
        if out[-1] != 0xFF:
            out[-1] += 1
            return bytes(out)
        out.pop()
    return b""


def columns_of(rows: Iterable[Sequence], positions: Iterable[int]) -> List[List]:
    """Every rows -> columns transpose (``zip(*rows)`` makes an iterator per row)."""
    return [list(map(itemgetter(p), rows)) for p in positions]


__all__ = [
    "EncodingError",
    "KeyValue",
    "columns_of",
    "decode_bytes",
    "decode_float64",
    "decode_int64",
    "decode_str",
    "decode_uint64",
    "encode_bytes",
    "encode_bytes_column",
    "encode_float64",
    "encode_float64_column",
    "encode_int64",
    "encode_int64_column",
    "encode_str",
    "encode_str_column",
    "encode_ts_desc",
    "encode_ts_desc_column",
    "encode_uint64",
    "fnv1a64",
    "fnv1a64_column",
    "hash_values",
    "high_bits",
    "prefix_successor",
]
