"""Per-run Bloom filters for point lookups (extension).

The paper's related work (section 9) notes that "bLSM uses bloom filters
to improve point lookup performance"; Umzi itself relies on the synopsis +
offset array.  Synopses prune by *range*, which helps nothing under random
ingest (every run spans the key space, Figure 11b).  A Bloom filter over
the exact key bytes prunes by *membership* and keeps working in exactly
that regime.

This module provides a compact, serializable Bloom filter keyed by a run's
entry key bytes.  It is opt-in (``UmziConfig.use_bloom_filters``) and
evaluated in ``benchmarks/bench_ablation_bloom.py``.
"""

from __future__ import annotations

import math
import struct
from typing import Iterable

from repro.core.encoding import UINT64_MAX, fnv1a64

_MAGIC = b"UMZB"


def _mix(h: int, i: int) -> int:
    """Double hashing: h1 + i*h2 over the two 32-bit halves of one hash."""
    h1 = h & 0xFFFFFFFF
    h2 = (h >> 32) | 1  # odd, so it cycles the whole table
    return (h1 + i * h2) & UINT64_MAX


class BloomFilter:
    """A standard k-hash Bloom filter over byte-string keys."""

    def __init__(self, num_bits: int, num_hashes: int) -> None:
        if num_bits < 8:
            num_bits = 8
        if not 1 <= num_hashes <= 16:
            raise ValueError("num_hashes must be within [1, 16]")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._bits = bytearray((num_bits + 7) // 8)

    @classmethod
    def for_capacity(
        cls, expected_keys: int, false_positive_rate: float = 0.01
    ) -> "BloomFilter":
        """Size the filter for a target false-positive rate."""
        expected_keys = max(expected_keys, 1)
        if not 0.0 < false_positive_rate < 1.0:
            raise ValueError("false_positive_rate must be in (0, 1)")
        ln2 = math.log(2.0)
        num_bits = int(-expected_keys * math.log(false_positive_rate) / (ln2 ** 2))
        num_hashes = max(1, min(16, round((num_bits / expected_keys) * ln2)))
        return cls(num_bits=num_bits, num_hashes=num_hashes)

    # -- operations ---------------------------------------------------------------

    def add(self, key: bytes) -> None:
        h = fnv1a64(key)
        for i in range(self.num_hashes):
            bit = _mix(h, i) % self.num_bits
            self._bits[bit >> 3] |= 1 << (bit & 7)

    def add_all(self, keys: Iterable[bytes]) -> None:
        for key in keys:
            self.add(key)

    def might_contain(self, key: bytes) -> bool:
        h = fnv1a64(key)
        for i in range(self.num_hashes):
            bit = _mix(h, i) % self.num_bits
            if not self._bits[bit >> 3] & (1 << (bit & 7)):
                return False
        return True

    # -- serialization ----------------------------------------------------------------

    def to_bytes(self) -> bytes:
        return (
            _MAGIC
            + struct.pack(">IH", self.num_bits, self.num_hashes)
            + bytes(self._bits)
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "BloomFilter":
        if data[:4] != _MAGIC:
            raise ValueError("not a Bloom filter blob")
        num_bits, num_hashes = struct.unpack_from(">IH", data, 4)
        out = cls(num_bits=num_bits, num_hashes=num_hashes)
        payload = data[10:]
        if len(payload) != len(out._bits):
            raise ValueError("Bloom filter payload length mismatch")
        out._bits = bytearray(payload)
        return out

    @property
    def size_bytes(self) -> int:
        return len(self._bits)

    def fill_ratio(self) -> float:
        """Fraction of set bits (diagnostics; ~0.5 at design capacity)."""
        set_bits = sum(bin(b).count("1") for b in self._bits)
        return set_bits / self.num_bits


__all__ = ["BloomFilter"]
