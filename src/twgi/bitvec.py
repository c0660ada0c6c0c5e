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


_SMALL_SIGMA = 64


class LabelSeq:
    """Sequence over a compact alphabet [1..sigma] with per-symbol rank,
    select, access, and partial rank.

    Small alphabets keep one bitvector per symbol, which makes partial rank
    a single O(1) rank; larger alphabets use a wavelet matrix with one level
    per bit of the symbol id.
    """

    __slots__ = ("n", "sigma", "_syms", "_per_symbol", "_levels", "_zeros",
                 "_nbits")

    def __init__(self, symbols: Sequence[int] | np.ndarray, sigma: int):
        syms = np.asarray(symbols, np.int64)
        if syms.size and not (1 <= syms.min() and syms.max() <= sigma):
            raise BoundsError("symbol id outside [1..sigma]")
        self.n = len(syms)
        self.sigma = sigma
        self._syms = array("H", syms.astype(np.uint16).tobytes())
        self._per_symbol = None
        self._levels = None
        self._zeros = None
        self._nbits = 0
        if sigma <= _SMALL_SIGMA:
            self._per_symbol = [None] + [BitVec(syms == c) for c in range(1, sigma + 1)]
        else:
            # wavelet matrix: level lev holds bit nbits-1-lev of each id, in
            # the order a stable partition on the bits above it leaves
            self._nbits = nbits = max(1, (sigma - 1).bit_length())
            self._levels, self._zeros = [], []
            seq = syms - 1
            for lev in range(nbits):
                bit = ((seq >> (nbits - 1 - lev)) & 1) != 0
                self._levels.append(BitVec(bit))
                self._zeros.append(self.n - int(bit.sum()))
                seq = np.concatenate((seq[~bit], seq[bit]))

    def __len__(self) -> int:
        return self.n

    def access(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise BoundsError(f"position {i} outside [1..{self.n}]")
        return self._syms[i - 1]

    def rank(self, i: int, c: int) -> int:
        """Occurrences of symbol ``c`` in positions 1..i; 0 for unknown c."""
        if not 0 <= i <= self.n:
            raise BoundsError(f"rank position {i} outside [0..{self.n}]")
        if not 1 <= c <= self.sigma:
            return 0
        if self._per_symbol is not None:
            return self._per_symbol[c].rank1_prefix(i)
        return self._wm_rank(i, c - 1)

    def partial_rank(self, i: int) -> int:
        """rank of symbols[i] at its own position i."""
        if not 1 <= i <= self.n:
            raise BoundsError(f"position {i} outside [1..{self.n}]")
        c = self._syms[i - 1]
        if self._per_symbol is not None:
            return self._per_symbol[c].rank1_prefix(i)
        return self._wm_rank(i, c - 1)

    def select(self, k: int, c: int) -> int:
        """Position of the k-th occurrence of symbol c: the least i with
        rank(i, c) = k."""
        total = self.count(c)
        if not 1 <= k <= total:
            raise NotFoundError(f"select({k}) of symbol {c}: only {total} present")
        return bisect_left(range(self.n + 1), k, key=lambda i: self.rank(i, c))

    def count(self, c: int) -> int:
        return self.rank(self.n, c)

    # -- wavelet matrix internals -----------------------------------------

    def _wm_rank(self, i: int, v: int) -> int:
        p = i
        s = 0
        nbits = self._nbits
        for lev in range(nbits):
            bv = self._levels[lev]
            if (v >> (nbits - 1 - lev)) & 1:
                z = self._zeros[lev]
                p = z + bv.rank1_prefix(p)
                s = z + bv.rank1_prefix(s)
            else:
                p = p - bv.rank1_prefix(p)
                s = s - bv.rank1_prefix(s)
        return p - s

    def __eq__(self, other) -> bool:
        return (isinstance(other, LabelSeq) and self.sigma == other.sigma
                and self._syms == other._syms)

    def __repr__(self) -> str:
        return f"LabelSeq(n={self.n}, sigma={self.sigma})"
