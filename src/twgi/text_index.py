"""Text self-index on a tunneled Wheeler graph.

The Wheeler graph of a string is a path whose node order is the colex order
of prefixes, i.e. the suffix array of the reversed text; its label array is
the BWT of the reversed text.  After tunneling, count / locate / extract are
answered with sampling structures:

* text-position samples on the run-contracted node sequence for locate and
  extract,
* cumulative tunnel-width sums at aligned ranks for count,
* skip pointers inside long tunnels, and the backpointers from each exit,
  which are derived from the skip pointers.

A walk that reaches a tunnel at its entrance crosses it in one jump: the
tunnel record gives the exit and the length.  Skip pointers serve only walks
that start inside a tunnel, and extract's back hop to a position inside one.
All copies of a tunnel node share one walk to the exit, where the walk
splits by copy.

A forward step takes a known out-edge: a node's only one, or the one of its
copy at a tunnel exit.  So no walk ranks L: the step reads the edge's
target, landing copy and label from the step table, ``land`` decoded once
per L position when the index is made.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .bitvec import LabelSeq
from .errors import BoundsError, FormatError, InvariantError, ValidationError
from .tunnel import Block, TraversalPos, TunneledGraph, find_string_blocks, tunnel_graph
from .wheeler import WheelerGraph, unary


# ---------------------------------------------------------------------------
# suffix array construction (prefix doubling)


def suffix_array(seq) -> list[int]:
    """Suffix array of seq plus a virtual terminator smaller than every
    symbol.  Returns len(seq)+1 start positions; position len(seq) is the
    empty suffix and always sorts first."""
    return _suffix_array(seq).tolist()


def _suffix_array(seq) -> np.ndarray:
    """suffix_array as an int64 array.

    Prefix doubling (Manber & Myers 1993): when rank orders the suffixes
    by their first k symbols, the pair (rank[i], rank[i+k]) orders them by
    their first 2k.  Each round is one sort; the rounds stop once every rank
    is distinct.
    """
    n = len(seq) + 1
    rank = np.unique(np.append(np.fromiter(seq, np.int64, n - 1), -1),
                     return_inverse=True)[1]
    k = 1
    while rank.max() < n - 1:
        # no second key past the end: such a suffix holds the terminator in
        # its first k symbols, so its rank is already distinct
        key = rank * n
        key[:n - k] += rank[k:]
        rank = np.unique(key, return_inverse=True)[1]
        k *= 2
    sa = np.empty(n, np.int64)
    sa[rank] = np.arange(n)
    return sa


# ---------------------------------------------------------------------------
# Wheeler graph of a string


def _string_graph(text: bytes):
    """Succinct graph plus the node-index -> Wheeler-rank table, an array.

    rank[i] is the Wheeler rank of the node reached after i-1 text
    characters (i = 1..|T|+1): the colex rank of the prefix of length i-1.
    """
    n = len(text)
    rev = text[::-1]
    alphabet, ids = np.unique(np.frombuffer(rev, np.uint8), return_inverse=True)
    sigma = len(alphabet)
    sa = _suffix_array(rev)
    isa = np.empty(n + 1, np.int64)
    isa[sa] = np.arange(1, n + 2)
    rank = np.concatenate(([0], isa[::-1]))
    # the node of a reversed suffix leaves by the symbol before it: L is the
    # BWT of the reversed text, without the sink (the suffix at 0)
    l_ids = ids[sa[sa > 0] - 1] + 1
    C = [0, 0] + np.cumsum(np.bincount(l_ids, minlength=sigma + 1)[1:]).tolist()
    # the source (empty prefix) always has rank 1 and in-degree 0, the sink
    # out-degree 0; every other degree is 1
    nodes = np.arange(1, n + 2)
    g = WheelerGraph(n + 1, n, sigma, LabelSeq(l_ids, sigma), C,
                     unary(nodes != 1), unary(nodes != rank[n + 1]), alphabet.tolist())
    return g, rank


def build_graph_from_text(text: bytes) -> WheelerGraph:
    """Wheeler graph of the string: a path in colex-of-prefix order whose
    label array is the BWT of the reversed text."""
    return _string_graph(text)[0]


# ---------------------------------------------------------------------------
# the index


@dataclass
class StepCounter:
    """Counts graph traversal operations: forward steps, and jumps by a
    tunnel record or a skip pointer."""

    steps: int = 0


class TextIndex:
    """Tunneled FM-index over a byte string: count, locate, extract."""

    def __init__(self, tg: TunneledGraph, n: int, sample_rate_n: int,
                 sample_rate_t: int, skip, loc, cnt):
        self.tg = tg
        self._step_to, self._step_land, self._step_byte = tg.step_table()
        self.n = n                       # |T| + 1, node count of the original graph
        self.sample_rate_n = sample_rate_n
        self.sample_rate_t = sample_rate_t
        self.skip = skip                 # pointer node -> (exit rank, distance)
        self.back = {}                   # exit rank -> [(distance, node)] ascending
        for node, (exit_rank, dist) in skip.items():
            self.back.setdefault(exit_rank, []).append((dist, node))
        for ptrs in self.back.values():
            ptrs.sort()
        self.loc = loc                   # non-tunnel node rank -> text position
        self.cnt = cnt                   # cumulative widths at rank multiples
        # the samples by text position, for extract to bisect
        pos = np.fromiter(loc.values(), np.int64, len(loc))
        by_pos = np.argsort(pos)
        self.ext_pos = pos[by_pos].tolist()
        self.ext_node = np.fromiter(loc, np.int64, len(loc))[by_pos].tolist()

    @property
    def text_len(self) -> int:
        return self.n - 1

    # -- forward walking -----------------------------------------------------

    def _fstep(self, node: int, off: int, counter: StepCounter):
        """One simulated original step: returns (node', off', label byte).
        Copy ``off`` of a tunnel node of out-degree w > 1 leaves by its
        off-th out-edge, any other node by its only one; the step table
        holds that edge's target, landing copy and label."""
        tg = self.tg
        lstart = tg.g._lstart
        p = lstart[node]
        deg = lstart[node + 1] - p
        if deg > 1 and tg._kind[node]:
            if not 1 <= off <= deg:
                raise BoundsError(f"copy {off} of node {node} is outside its {deg} out-edges")
            p += off
        elif deg:
            p += 1
        else:
            raise BoundsError("walked past the sink")
        counter.steps += 1
        return self._step_to[p], self._step_land[p] or off, self._step_byte[p]

    def _to_exit(self, v: int, counter: StepCounter) -> tuple[int, int]:
        """(exit, distance) of the tunnel node v: its tunnel's exit and the
        text positions from v to it.  An entrance reads both off its tunnel
        record; an inner node follows skip pointers and single edges until
        it reaches a node whose out-degree is not 1."""
        rec = self.tg.entrance_info.get(v)
        if rec is not None:
            counter.steps += 1
            return rec.exit, rec.length - 1
        lstart, step_to, skip = self.tg.g._lstart, self._step_to, self.skip
        cur, dist = v, 0
        for _ in range(self.n):
            ptr = skip.get(cur)
            if ptr is not None:
                cur = ptr[0]
                dist += ptr[1]
                counter.steps += 1
                continue
            p = lstart[cur]
            if lstart[cur + 1] - p != 1:
                return cur, dist
            cur = step_to[p + 1]
            dist += 1
            counter.steps += 1
        raise FormatError(f"found no tunnel exit in {self.n} steps from node {v}")

    def node_width(self, v: int, counter: StepCounter | None = None) -> int:
        """Width of the tunnel containing v (1 outside tunnels): the
        out-degree of its exit."""
        if not self.tg.is_tunnel_node(v):
            return 1
        counter = counter if counter is not None else StepCounter()
        return self.tg.g.outdeg(self._to_exit(v, counter)[0])

    # -- counting --------------------------------------------------------------

    def count(self, pattern: bytes, counter: StepCounter | None = None) -> int:
        """Occurrences of the pattern in the text (|T|+1 for the empty
        pattern: every node is an occurrence)."""
        counter = counter if counter is not None else StepCounter()
        if len(pattern) == 0:
            return self.n
        got = self.tg._search_pairs(pattern)
        if got is None:
            return 0
        (lo, lo_off), (hi, hi_off) = got
        w_hi = self.node_width(hi, counter)
        if hi_off is None:
            hi_off = w_hi
        total = self._range_weight(lo, hi, counter)
        return total - (lo_off - 1) - (w_hi - hi_off)

    def _range_weight(self, lo: int, hi: int, counter: StepCounter) -> int:
        """Sum of w(v) over ranks [lo..hi] using the aligned samples plus at
        most ~2*sample_rate_t boundary width evaluations."""
        rt = self.sample_rate_t
        a = (lo - 1 + rt - 1) // rt   # smallest aligned index >= lo-1
        b = hi // rt                  # largest aligned index <= hi
        total = 0
        if a <= b:
            total += self.cnt[b] - self.cnt[a]
            for v in range(lo, a * rt + 1):
                total += self.node_width(v, counter)
            for v in range(b * rt + 1, hi + 1):
                total += self.node_width(v, counter)
        else:
            for v in range(lo, hi + 1):
                total += self.node_width(v, counter)
        return total

    # -- locating ----------------------------------------------------------------

    def locate_one(self, p: TraversalPos, counter: StepCounter | None = None) -> int:
        """Text position (1-based) of the original node at the simulated
        position p: walk forward to the next text-order sample, crossing
        each tunnel in one jump to its exit, and subtract the travelled
        distance."""
        counter = counter if counter is not None else StepCounter()
        node, off = p.node, p.offset
        if not 1 <= node <= self.tg.g.n:
            raise BoundsError(f"node {node} outside [1..{self.tg.g.n}]")
        if off < 1 or off > 1 and not self.tg._kind[node]:
            raise BoundsError(f"node {node} has no copy {off}")
        travelled = 0
        is_tunnel_node = self.tg.is_tunnel_node
        for _ in range(self.n):
            pos = self.loc.get(node)
            if pos is not None:
                return pos - travelled
            if is_tunnel_node(node):
                node, dist = self._to_exit(node, counter)
                travelled += dist
            node, off, _ = self._fstep(node, off, counter)
            travelled += 1
        raise FormatError(f"found no sample in {self.n} steps")

    def locate(self, pattern: bytes, limit: int | None = None,
               counter: StepCounter | None = None) -> list[int]:
        """Ascending start positions of the pattern (all, or first `limit`
        found).  The empty pattern is rejected."""
        if len(pattern) == 0:
            raise ValidationError("locate needs a non-empty pattern")
        if limit is not None and limit < 0:
            raise ValidationError(f"locate limit {limit} is negative")
        counter = counter if counter is not None else StepCounter()
        got = self.tg._search_pairs(pattern)
        if got is None or limit == 0:
            return []
        (lo, lo_off), (hi, hi_off) = got
        out = []
        plen = len(pattern)
        for v in range(lo, hi + 1):
            # every copy of a tunnel node reaches the same exit: walk there
            # once, then locate each copy from the exit
            if self.tg.is_tunnel_node(v):
                node, dist = self._to_exit(v, counter)
                w_v = self.tg.g.outdeg(node)
            else:
                node, dist, w_v = v, 0, 1
            first = lo_off if v == lo else 1
            last = (hi_off if hi_off is not None else w_v) if v == hi else w_v
            for o in range(first, last + 1):
                end_pos = self.locate_one(TraversalPos(node, o), counter) - dist
                out.append(end_pos - plen)
                if limit is not None and len(out) >= limit:
                    return _distinct_sorted(out)
        return _distinct_sorted(out)

    # -- extracting -----------------------------------------------------------------

    def extract(self, start: int, length: int,
                counter: StepCounter | None = None) -> bytes:
        """T[start .. start+length-1] (1-based, inclusive)."""
        if start < 1 or length < 0 or start + length - 1 > self.text_len:
            raise BoundsError(
                f"extract({start},{length}) outside text of length {self.text_len}")
        if length == 0:
            return b""
        counter = counter if counter is not None else StepCounter()
        idx = bisect_right(self.ext_pos, start) - 1
        if idx >= 0:
            pos, node, off = self.ext_pos[idx], self.ext_node[idx], 1
        else:
            # the first sample may sit past `start` when the source node
            # lives inside a tunnel; the source is always rank 1, copy 1
            pos, node, off = 1, 1, 1
        for _ in range(self.n):
            if pos >= start:
                break
            if self.tg.is_tunnel_node(node):
                exit_rank, dist = self._to_exit(node, counter)
                if pos + dist > start:
                    # target lies inside this tunnel: hop to the exit's
                    # backpointer closest before the target, then plain-walk
                    # (no pointer sits between that backpointer and the target)
                    node, pos = self._back_hop(exit_rank, pos + dist, start, node, pos)
                    counter.steps += 1
                    while pos < start:
                        node, off, _ = self._fstep(node, off, counter)
                        pos += 1
                    break
                node, pos = exit_rank, pos + dist
                if pos == start:
                    break
            node, off, _ = self._fstep(node, off, counter)
            pos += 1
        else:
            raise FormatError(f"did not reach text position {start} in {self.n} steps")
        out = bytearray()
        for _ in range(length):
            node, off, byte = self._fstep(node, off, counter)
            out.append(byte)
        return bytes(out)

    def _back_hop(self, exit_rank: int, exit_pos: int, target: int,
                  cur_node: int, cur_pos: int):
        """Best pointer node at or before the target position: the pointer
        nearest the exit that is at least exit_pos - target away, if it
        lies past cur_pos (the distances are distinct and ascending)."""
        ptrs = self.back.get(exit_rank, ())
        i = bisect_left(ptrs, (exit_pos - target,))
        if i < len(ptrs) and exit_pos - ptrs[i][0] > cur_pos:
            dist_b, node_b = ptrs[i]
            return node_b, exit_pos - dist_b
        return cur_node, cur_pos

    # -- bookkeeping ------------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "n": self.n,
            "n_t": self.tg.g.n,
            "m_t": self.tg.g.m,
            "sigma": self.tg.g.sigma,
            "tunnels": len(self.tg.tunnels),
            "sample_rate_n": self.sample_rate_n,
            "sample_rate_t": self.sample_rate_t,
        }

    def __repr__(self) -> str:
        return (f"TextIndex(|T|={self.text_len}, n_t={self.tg.g.n}, "
                f"tunnels={len(self.tg.tunnels)})")


def _distinct_sorted(positions: list[int]) -> list[int]:
    positions.sort()
    if len(set(positions)) != len(positions):
        raise InvariantError("two occurrences located at one text position")
    return positions


def build_index(text: bytes, *, sample_rate_n: int | None = None,
                sample_rate_t: int | None = None, min_width: int = 2,
                min_length: int = 2, tunneling: bool = True) -> TextIndex:
    """Build the full index: string graph, block discovery, tunneling, and
    all sampling structures.  With tunneling off this degenerates to a plain
    FM-index over the Wheeler graph."""
    if isinstance(text, str):
        raise TypeError("text must be bytes")
    text = bytes(text)
    g, rank = _string_graph(text)
    n = g.n
    # column t of a string block's row r is the node t steps after r in text
    # order; tunnel_graph checks every block
    at = np.argsort(rank)  # rank[at[r]] = r
    expanded = []
    for sb in (find_string_blocks(g, min_width, min_length) if tunneling else []):
        rows = at[sb.start_rank:sb.start_rank + sb.width]
        expanded.append(Block(sb.width, sb.length,
                              rank[rows + np.arange(sb.length)[:, None]].tolist()))
    tg = tunnel_graph(g, expanded)
    nt = tg.g.n
    if (sample_rate_n is not None and sample_rate_n < 1) or \
            (sample_rate_t is not None and sample_rate_t < 1):
        raise ValidationError("sample rates must be >= 1")
    rate_n = sample_rate_n if sample_rate_n is not None else \
        max(1, math.ceil(math.log2(max(2, n))))
    rate_t = sample_rate_t if sample_rate_t is not None else \
        max(1, math.ceil(math.log2(max(2, nt))))

    # one pass over each tunnel's column roots sets the widths and the skip
    # pointers; tg.tunnels lists the tunnels in block order
    phi = tg.node_map
    widths = np.ones(nt + 1, dtype=np.int64)
    skip = {}
    for blk, rec in zip([b for b in expanded if b.width > 1], tg.tunnels):
        roots = phi[[col[0] for col in blk.columns]].tolist()
        widths[roots] = blk.width
        for j in range(rate_t, blk.size, rate_t):
            skip[roots[j - 1]] = (rec.exit, blk.size - j)
    cumulative = np.cumsum(widths[1:])
    if nt and int(cumulative[-1]) != n:
        raise InvariantError("width conservation broke: every original node "
                             "must be counted exactly once")
    cnt = [0] + cumulative[rate_t - 1::rate_t].tolist()

    # run-contracted text-order sequence: one element per non-tunnel node,
    # one per run of text positions through one tunnel.  A run starts at its
    # tunnel's entrance and rows of one block lie at least s+1 positions
    # apart, so an element starts at every position whose node is not inner.
    # A sample that falls on a tunnel element moves to the next plain one.
    node = phi[rank[1:]]  # by text position - 1
    first = np.flatnonzero(tg.inner_marks.bits()[node - 1] == 0)
    plain = np.flatnonzero(tg.entrance_marks.bits()[node[first] - 1] == 0)
    wanted = sorted({1, len(first), *range(rate_n, len(first) + 1, rate_n)})
    at_plain = first[plain[np.searchsorted(plain, np.array(wanted) - 1)]]
    loc = dict(zip(node[at_plain].tolist(), (at_plain + 1).tolist()))

    tg.node_map = None  # needed only to place the samples above
    return TextIndex(tg, n, rate_n, rate_t, skip, loc, cnt)
