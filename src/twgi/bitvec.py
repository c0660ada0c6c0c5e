"""Packed bitvectors and a rank/select-capable label sequence.

Positions and ordinals are 1-based at the public interface, matching the
conventions of the navigation formulas built on top of them.  ``rank(i, b)``
counts occurrences of bit ``b`` in positions ``1..i``; ``select(k, b)``
returns the position of the ``k``-th occurrence of ``b``.

``BitVec`` holds its length, its packed bits and their count of ones, and
nothing more: bit i of a sequence is bit i % 8 of byte i // 8 (LSB first),
and every other module hands it bit arrays or packed bytes.  No build, load
or query ranks or selects on it: navigation reads node offsets decoded once
from the set bits, so it keeps no rank directory (a directory pays only
where ranks are asked; Navarro, *Compact Data Structures*, 2016).  ``rank``
is a popcount over the packed prefix, O(n), and ``select`` a binary search
over it; both remain for the test oracles and the bench's micro-timings.

``LabelSeq`` has one layout for every alphabet of up to 256 symbols: the
symbols as bytes, plus each symbol's count sampled every 128 positions.  A
rank is one sampled count plus a C-level ``bytes.count`` of the rest of the
block; select is again a binary search over rank.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Iterable, Sequence

import numpy as np

from .errors import BoundsError, NotFoundError


class BitVec:
    """Static bit sequence: n, its packed bytes (bits past n zero) and its
    count of ones.  ``access`` reads one byte; ``rank`` and ``select`` scan."""

    __slots__ = ("n", "_packed", "_ones")

    def __init__(self, bits: Iterable[int] | str | np.ndarray = ()):
        """``bits``: a 0/1 iterable, a ``"01"`` string or a numpy array.
        In a string only ``"1"`` is a one; elsewhere any nonzero value is."""
        if isinstance(bits, str):
            bits = np.frombuffer(bits.encode(), np.uint8) == ord("1")
        elif not isinstance(bits, np.ndarray):
            bits = list(bits)
        bits = np.asarray(bits) != 0
        self._set(np.packbits(bits, bitorder="little").tobytes(), len(bits))

    @classmethod
    def from_packed(cls, data: bytes, length: int) -> "BitVec":
        """Wrap LSB-first packed bytes holding at least ``length`` bits."""
        if len(data) << 3 < length:
            raise BoundsError(f"{len(data)} bytes cannot hold {length} bits")
        bv = cls.__new__(cls)
        bv._set(bytes(data[:(length + 7) >> 3]), length)
        return bv

    def _set(self, packed: bytes, n: int) -> None:
        if n & 7:  # bits past n read as zero, so popcounts stay exact
            packed = packed[:-1] + bytes((packed[-1] & ((1 << (n & 7)) - 1),))
        self.n = n
        self._packed = packed
        self._ones = int.from_bytes(packed, "little").bit_count()

    # -- public 1-based interface -------------------------------------------

    def __len__(self) -> int:
        return self.n

    @property
    def ones(self) -> int:
        return self._ones

    @property
    def zeros(self) -> int:
        return self.n - self._ones

    def access(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise BoundsError(f"bit position {i} outside [1..{self.n}]")
        p = i - 1
        return (self._packed[p >> 3] >> (p & 7)) & 1

    def rank(self, i: int, b: int = 1) -> int:
        if not 0 <= i <= self.n:
            raise BoundsError(f"rank position {i} outside [0..{self.n}]")
        r1 = (int.from_bytes(self._packed[:(i + 7) >> 3], "little")
              & ((1 << i) - 1)).bit_count()
        return r1 if b else i - r1

    def select(self, k: int, b: int = 1) -> int:
        total = self._ones if b else self.n - self._ones
        if not 1 <= k <= total:
            raise NotFoundError(
                f"select({k}, {b}): only {total} such bits present")
        # the least prefix p holding k such bits
        return bisect_left(range(self.n + 1), k, key=lambda p: self.rank(p, b))

    def bits(self) -> np.ndarray:
        """The n bits as a uint8 array of zeros and ones."""
        return np.unpackbits(np.frombuffer(self._packed, np.uint8),
                             count=self.n, bitorder="little")

    def to_packed(self) -> bytes:
        return self._packed

    def to01(self) -> str:
        return (self.bits() + ord("0")).tobytes().decode()

    def __eq__(self, other) -> bool:
        return (isinstance(other, BitVec) and self.n == other.n
                and self._packed == other._packed)

    def __repr__(self) -> str:
        body = self.to01() if self.n <= 48 else self.to01()[:45] + "..."
        return f"BitVec({body!r})"


_BLOCK_BITS = 7  # a row of symbol counts every 128 positions
_NEEDLE = [b""] + [bytes((c - 1,)) for c in range(1, 257)]  # symbol id -> its byte


class LabelSeq:
    """Sequence over a compact alphabet [1..sigma], sigma <= 256, with
    per-symbol rank, select, access, and partial rank.

    The symbols are stored once, as bytes of id - 1.  Row k of a flat count
    table, ``_occ``, holds each symbol's occurrences among the first 128 k
    symbols (the sampled occurrence table of FM-index rank), so a rank reads
    one count and adds a C-level ``bytes.count`` over at most 127 bytes.  The
    table holds sigma + 1 int32 counts every 128 positions, about sigma/4 bits
    per position: 8 MB per million symbols at sigma = 256, against 1 MB of
    symbol bytes.  The path searches (``TunneledGraph._search_pairs`` and the
    text index's ``TextIndex._search_from``) read the count table and the
    bytes directly, by the same formula, and ``_search_pairs`` a range end's
    border symbol as one byte: a change to the layout must update all three.
    """

    __slots__ = ("n", "sigma", "_bytes", "_occ", "_stride")

    def __init__(self, symbols: Sequence[int] | np.ndarray, sigma: int):
        syms = np.asarray(symbols, np.int64)
        n = len(syms)
        if sigma > 256:
            raise BoundsError(f"alphabet of {sigma} symbols is larger than 256")
        if n >= 1 << 31:
            raise BoundsError(f"{n} symbols overflow the 32-bit counts")
        if n and not (1 <= syms.min() and syms.max() <= sigma):
            raise BoundsError("symbol id outside [1..sigma]")
        self.n = n
        self.sigma = sigma
        self._bytes = (syms - 1).astype(np.uint8).tobytes()
        # column c of row k: occurrences of c among the first 128 k symbols;
        # column 0 stays zero, so symbol ids index the rows directly
        self._stride = stride = sigma + 1
        rows = (n >> _BLOCK_BITS) + 1
        block = np.arange(n) >> _BLOCK_BITS
        per_block = np.bincount((block + 1) * stride + syms, minlength=(rows + 1) * stride)
        occ = per_block[:rows * stride].reshape(rows, stride).cumsum(axis=0)
        self._occ = array("i", occ.astype(np.int32).tobytes())

    def __len__(self) -> int:
        return self.n

    def ids(self) -> np.ndarray:
        """The symbol ids as an int64 array."""
        return self.codes().astype(np.int64) + 1

    def codes(self) -> np.ndarray:
        """The symbol ids less one, as a read-only uint8 array: a stable
        sort of it is a radix sort, where one of ``ids()`` is a merge sort."""
        return np.frombuffer(self._bytes, np.uint8)

    def access(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise BoundsError(f"position {i} outside [1..{self.n}]")
        return self._bytes[i - 1] + 1

    def rank(self, i: int, c: int) -> int:
        """Occurrences of symbol ``c`` in positions 1..i; 0 for unknown c."""
        if not 0 <= i <= self.n:
            raise BoundsError(f"rank position {i} outside [0..{self.n}]")
        if not 1 <= c <= self.sigma:
            return 0
        k = i >> _BLOCK_BITS
        return (self._occ[k * self._stride + c]
                + self._bytes.count(_NEEDLE[c], k << _BLOCK_BITS, i))

    def partial_rank(self, i: int) -> int:
        """rank of symbols[i] at its own position i."""
        if not 1 <= i <= self.n:
            raise BoundsError(f"position {i} outside [1..{self.n}]")
        c = self._bytes[i - 1] + 1
        k = i >> _BLOCK_BITS
        return (self._occ[k * self._stride + c]
                + self._bytes.count(_NEEDLE[c], k << _BLOCK_BITS, i))

    def select(self, k: int, c: int) -> int:
        """Position of the k-th occurrence of symbol c: the least i with
        rank(i, c) = k."""
        total = self.count(c)
        if not 1 <= k <= total:
            raise NotFoundError(f"select({k}) of symbol {c}: only {total} present")
        return bisect_left(range(self.n + 1), k, key=lambda i: self.rank(i, c))

    def count(self, c: int) -> int:
        return self.rank(self.n, c)

    def __eq__(self, other) -> bool:
        return (isinstance(other, LabelSeq) and self.sigma == other.sigma
                and self._bytes == other._bytes)

    def __repr__(self) -> str:
        return f"LabelSeq(n={self.n}, sigma={self.sigma})"
