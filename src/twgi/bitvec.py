"""Rank/select bitvectors and a rank/select-capable label sequence.

Positions and ordinals are 1-based at the public interface, matching the
conventions of the navigation formulas built on top of them.  ``rank(i, b)``
counts occurrences of bit ``b`` in positions ``1..i``; ``select(k, b)``
returns the position of the ``k``-th occurrence of ``b``.

The rank directory is two-level: absolute counts per superblock (512 bits)
plus 16-bit relative counts per 64-bit word, with a popcount for the word
remainder.  Select binary-searches the directory, narrowed by sampled hints
(one per 512 occurrences).
"""

from __future__ import annotations

from array import array
from typing import Iterable, Sequence

from .errors import BoundsError, NotFoundError

_WORD = 64
_SUPER_WORDS = 8  # 512-bit superblocks
_HINT_EVERY = 512


def _pack_bits(bits) -> tuple[bytes, int]:
    if isinstance(bits, str):
        bits = [1 if ch == "1" else 0 for ch in bits]
    else:
        bits = list(bits)
    n = len(bits)
    buf = bytearray((n + 7) >> 3)
    for i, b in enumerate(bits):
        if b:
            buf[i >> 3] |= 1 << (i & 7)
    return bytes(buf), n


class BitVec:
    """Static bit sequence with O(1) rank and near-O(1) select."""

    __slots__ = ("n", "_words", "_super", "_rel", "_ones",
                 "_hints1", "_hints0")

    def __init__(self, bits: Iterable[int] | str = ()):
        data, n = _pack_bits(bits)
        self._build(data, n)

    @classmethod
    def from_packed(cls, data: bytes, length: int) -> "BitVec":
        """Wrap LSB-first packed bytes holding ``length`` bits."""
        bv = cls.__new__(cls)
        bv._build(data, length)
        return bv

    def _build(self, data: bytes, n: int) -> None:
        nwords = (n + _WORD - 1) >> 6
        padded = data.ljust(nwords * 8, b"\x00")
        words = [int.from_bytes(padded[w * 8:w * 8 + 8], "little")
                 for w in range(nwords)]
        # mask padding bits beyond n so popcounts stay exact
        if n & 63 and nwords:
            words[-1] &= (1 << (n & 63)) - 1
        nsuper = (nwords + _SUPER_WORDS - 1) // _SUPER_WORDS
        sup = array("q", [0] * (nsuper + 1))
        rel = array("H", [0] * max(nwords, 1))
        hints1 = array("q")
        hints0 = array("q")
        ones = 0
        for w, word in enumerate(words):
            if w % _SUPER_WORDS == 0:
                sup[w // _SUPER_WORDS] = ones
            rel[w] = ones - sup[w // _SUPER_WORDS]
            zeros = w * _WORD - ones
            pc = word.bit_count()
            zc = _WORD - pc if (w + 1) * _WORD <= n else (n - w * _WORD) - pc
            # hint h holds the word containing the (h*_HINT_EVERY + 1)-th bit
            while len(hints1) * _HINT_EVERY + 1 <= ones + pc:
                hints1.append(w)
            while len(hints0) * _HINT_EVERY + 1 <= zeros + zc:
                hints0.append(w)
            ones += pc
        sup[nsuper] = ones
        hints1.append(max(nwords - 1, 0))
        hints0.append(max(nwords - 1, 0))
        self.n = n
        self._words = words
        self._super = sup
        self._rel = rel
        self._ones = ones
        self._hints1 = hints1
        self._hints0 = hints0

    # -- internal 0-based helpers (p = exclusive prefix length) ------------

    def rank1_prefix(self, p: int) -> int:
        w = p >> 6
        r = p & 63
        base = self._super[w >> 3] + self._rel[w] if w < len(self._rel) else self._ones
        if r and w < len(self._words):
            base += (self._words[w] & ((1 << r) - 1)).bit_count()
        return base

    def _ones_before_word(self, w: int) -> int:
        if w >= len(self._rel):
            return self._ones
        return self._super[w >> 3] + self._rel[w]

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
        return self._select1(k) if b else self._select0(k)

    def _select1(self, k: int) -> int:
        h = (k - 1) // _HINT_EVERY
        lo = self._hints1[h]
        hi = self._hints1[h + 1] if h + 1 < len(self._hints1) else len(self._words) - 1
        # largest word with ones_before < k
        while lo < hi:
            mid = (lo + hi + 1) >> 1
            if self._ones_before_word(mid) < k:
                lo = mid
            else:
                hi = mid - 1
        t = k - self._ones_before_word(lo)
        word = self._words[lo]
        for _ in range(t - 1):
            word &= word - 1
        return (lo << 6) + (word & -word).bit_length()

    def _select0(self, k: int) -> int:
        h = (k - 1) // _HINT_EVERY
        lo = self._hints0[h]
        hi = self._hints0[h + 1] if h + 1 < len(self._hints0) else len(self._words) - 1
        while lo < hi:
            mid = (lo + hi + 1) >> 1
            zeros_before = (mid << 6) - self._ones_before_word(mid)
            if zeros_before < k:
                lo = mid
            else:
                hi = mid - 1
        t = k - ((lo << 6) - self._ones_before_word(lo))
        tail = self.n - (lo << 6)
        mask = (1 << tail) - 1 if tail < _WORD else (1 << _WORD) - 1
        word = ~self._words[lo] & mask
        for _ in range(t - 1):
            word &= word - 1
        return (lo << 6) + (word & -word).bit_length()

    def iter_ones(self):
        """Positions of the set bits, ascending: one pass over the words,
        no select."""
        for w, word in enumerate(self._words):
            base = w << 6
            while word:
                low = word & -word
                yield base + low.bit_length()
                word ^= low

    def to_packed(self) -> bytes:
        out = bytearray()
        for w in self._words:
            out += w.to_bytes(8, "little")
        return bytes(out[:(self.n + 7) >> 3])

    def to01(self) -> str:
        return "".join(str(self.access(i)) for i in range(1, self.n + 1))

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

    def __init__(self, symbols: Sequence[int], sigma: int):
        symbols = list(symbols)
        if any(not 1 <= v <= sigma for v in symbols):
            raise BoundsError("symbol id outside [1..sigma]")
        self.n = len(symbols)
        self.sigma = sigma
        self._syms = array("H", symbols)
        self._per_symbol = None
        self._levels = None
        self._zeros = None
        self._nbits = 0
        if sigma <= _SMALL_SIGMA:
            packs = [bytearray((self.n + 7) >> 3) for _ in range(sigma + 1)]
            for i, v in enumerate(symbols):
                packs[v][i >> 3] |= 1 << (i & 7)
            self._per_symbol = [None] + [
                BitVec.from_packed(bytes(p), self.n) for p in packs[1:]]
        else:
            nbits = max(1, (sigma - 1).bit_length())
            levels = []
            zeros = []
            seq = [v - 1 for v in symbols]
            for lev in range(nbits):
                shift = nbits - 1 - lev
                buf = bytearray((self.n + 7) >> 3)
                lo, hi = [], []
                for i, v in enumerate(seq):
                    if (v >> shift) & 1:
                        buf[i >> 3] |= 1 << (i & 7)
                        hi.append(v)
                    else:
                        lo.append(v)
                bv = BitVec.from_packed(bytes(buf), self.n)
                levels.append(bv)
                zeros.append(len(lo))
                seq = lo + hi
            self._levels = levels
            self._zeros = zeros
            self._nbits = nbits

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
        """Position of the k-th occurrence of symbol c."""
        if not 1 <= c <= self.sigma:
            raise NotFoundError(f"symbol {c} not in alphabet")
        if self._per_symbol is not None:
            return self._per_symbol[c].select(k, 1)
        total = self._wm_rank(self.n, c - 1)
        if not 1 <= k <= total:
            raise NotFoundError(f"select({k}) of symbol {c}: only {total} present")
        return self._wm_select(k, c - 1)

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

    def _wm_select(self, k: int, v: int) -> int:
        nbits = self._nbits
        starts = [0]
        s = 0
        for lev in range(nbits):
            bv = self._levels[lev]
            if (v >> (nbits - 1 - lev)) & 1:
                s = self._zeros[lev] + bv.rank1_prefix(s)
            else:
                s = s - bv.rank1_prefix(s)
            starts.append(s)
        p = starts[nbits] + k - 1  # 0-based position at the deepest level
        for lev in range(nbits - 1, -1, -1):
            bv = self._levels[lev]
            if (v >> (nbits - 1 - lev)) & 1:
                p = bv.select(p - self._zeros[lev] + 1, 1) - 1
            else:
                p = bv.select(p + 1, 0) - 1
        return p + 1

    def __eq__(self, other) -> bool:
        return (isinstance(other, LabelSeq) and self.sigma == other.sigma
                and self._syms == other._syms)

    def __repr__(self) -> str:
        return f"LabelSeq(n={self.n}, sigma={self.sigma})"
