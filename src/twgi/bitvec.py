"""Rank/select bitvectors and a rank/select-capable label sequence.

Positions and ordinals are 1-based at the public interface, matching the
conventions of the navigation formulas built on top of them.  ``rank(i, b)``
counts occurrences of bit ``b`` in positions ``1..i``; ``select(k, b)``
returns the position of the ``k``-th occurrence of ``b``.

The rank directory is two-level: absolute counts per superblock (512 bits)
plus 16-bit relative counts per 64-bit word, with a popcount for the word
remainder.  Select is a binary search over rank, O(log n): no query path
selects (navigation reads offsets decoded once from the set bits), so it
keeps no directory of its own.

``BitVec`` alone knows the packed layout: bit i of a sequence is bit i % 8
of byte i // 8 (LSB first), and every other module hands it bit arrays or
packed bytes.  The directory is built once with numpy; queries read only
pure-Python words and ``array`` counts.

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

_WORD = 64
_SUPER_WORDS = 8  # 512-bit superblocks


class BitVec:
    """Static bit sequence with O(1) rank and O(log n) select."""

    __slots__ = ("n", "_words", "_super", "_rel", "_ones")

    def __init__(self, bits: Iterable[int] | str | np.ndarray = ()):
        """``bits``: a 0/1 iterable, a ``"01"`` string or a numpy array.
        In a string only ``"1"`` is a one; elsewhere any nonzero value is."""
        if isinstance(bits, str):
            bits = np.frombuffer(bits.encode(), np.uint8) == ord("1")
        elif not isinstance(bits, np.ndarray):
            bits = list(bits)
        bits = np.asarray(bits) != 0
        self._build(np.packbits(bits, bitorder="little"), len(bits))

    @classmethod
    def from_packed(cls, data: bytes, length: int) -> "BitVec":
        """Wrap LSB-first packed bytes holding at least ``length`` bits."""
        bv = cls.__new__(cls)
        bv._build(np.frombuffer(data, np.uint8, count=(length + 7) >> 3), length)
        return bv

    def _build(self, packed: np.ndarray, n: int) -> None:
        nwords = (n + _WORD - 1) >> 6
        buf = np.zeros(nwords * 8, np.uint8)
        buf[:len(packed)] = packed
        if n & 7:  # bits past n read as zero, so popcounts stay exact
            buf[n >> 3] &= (1 << (n & 7)) - 1
        words = buf.view("<u8")
        pc = np.bitwise_count(words).astype(np.int64)
        before = np.cumsum(pc) - pc
        ones = int(pc.sum())
        sup = np.append(before[::_SUPER_WORDS], ones)
        rel = before - before[np.arange(nwords) // _SUPER_WORDS * _SUPER_WORDS]
        # query-time state is pure Python: a numpy scalar read per rank
        # would cost more than the rank itself
        self.n = n
        self._words = words.tolist()
        self._super = array("q", sup.tobytes())
        self._rel = array("H", rel.astype(np.uint16).tobytes() if nwords else bytes(2))
        self._ones = ones

    # -- internal 0-based helpers (p = exclusive prefix length) ------------

    def rank1_prefix(self, p: int) -> int:
        w = p >> 6
        r = p & 63
        base = self._super[w >> 3] + self._rel[w] if w < len(self._rel) else self._ones
        if r and w < len(self._words):
            base += (self._words[w] & ((1 << r) - 1)).bit_count()
        return base

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
        return (self._words[p >> 6] >> (p & 63)) & 1

    def rank(self, i: int, b: int = 1) -> int:
        if not 0 <= i <= self.n:
            raise BoundsError(f"rank position {i} outside [0..{self.n}]")
        r1 = self.rank1_prefix(i)
        return r1 if b else i - r1

    def select(self, k: int, b: int = 1) -> int:
        total = self._ones if b else self.n - self._ones
        if not 1 <= k <= total:
            raise NotFoundError(
                f"select({k}, {b}): only {total} such bits present")
        # the least prefix p holding k such bits
        rank = self.rank1_prefix if b else lambda p: p - self.rank1_prefix(p)
        return bisect_left(range(self.n + 1), k, key=rank)

    def bits(self) -> np.ndarray:
        """The n bits as a uint8 array of zeros and ones."""
        return np.unpackbits(np.frombuffer(self.to_packed(), np.uint8),
                             count=self.n, bitorder="little")

    def to_packed(self) -> bytes:
        return np.array(self._words, "<u8").tobytes()[:(self.n + 7) >> 3]

    def to01(self) -> str:
        return (self.bits() + ord("0")).tobytes().decode()

    def __eq__(self, other) -> bool:
        return (isinstance(other, BitVec) and self.n == other.n
                and self._words == other._words)

    def __repr__(self) -> str:
        body = self.to01() if self.n <= 48 else self.to01()[:45] + "..."
        return f"BitVec({body!r})"


_BLOCK_BITS = 7  # a row of symbol counts every 128 positions
_NEEDLE = [b""] + [bytes((c - 1,)) for c in range(1, 257)]  # symbol id -> its byte


class LabelSeq:
    """Sequence over a compact alphabet [1..sigma], sigma <= 256, with
    per-symbol rank, select, access, and partial rank.

    The symbols are stored once, as bytes of id - 1.  Row k of a flat count
    table holds each symbol's occurrences among the first 128 k symbols (the
    sampled occurrence table of FM-index rank), so a rank reads one count and
    adds a C-level ``bytes.count`` over at most 127 bytes.  The path search
    (``TunneledGraph._search_pairs``) reads the count table and the bytes
    directly: it ranks by the same formula, and reads a range end's border
    symbol as one byte.  A change to the layout must update both.
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
