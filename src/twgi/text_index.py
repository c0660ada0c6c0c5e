"""Text self-index on a tunneled Wheeler graph.

The Wheeler graph of a string is a path whose node order is the colex order
of prefixes, i.e. the suffix array of the reversed text; its label array is
the BWT of the reversed text.  After tunneling, count / locate / extract are
answered with text-position samples on plain nodes of the run-contracted
node sequence (Ferragina & Manzini 2005) and with one walk of every tunnel,
by pointer jumping (Wyllie 1979), when the index is made.  It orders each
tunnel's nodes by distance to its exit, so that a walk crosses a tunnel in
one jump wherever it meets it (Baier 2018) and extract lands inside one in
one read, and sums the tunnel nodes' widths, which count searches twice.
The walk is also the check that walks may trust the records, and it gives
the skip pointers and cnt samples that an index file stores.

Locate walks each occurrence to the next text-order sample.  The copies of a
tunnel node share its exit, where the walk splits by copy.  A range of
``_LOCKSTEP_MIN_STARTS`` (node, copy) starts or more walks them all in
lockstep on numpy arrays, one hop a round through a table by L position,
made on the first such locate: a hop takes an edge, jumps a landing on an
entrance to its exit and names the edge the walk leaves by next, or the
sample it reached.  A round is two gathers over every walk, finished ones
included, so a smaller range walks one start at a time; the threshold is
the measured break-even.

A forward step takes a known out-edge: a node's only one, or the one of its
copy at a tunnel exit.  So no walk ranks L: the step reads the edge's
target, landing copy and label from the graph's step table, the landing
rule decoded once per L position when the graph is made.  ``_fstep`` is
that rule; ``extract`` writes it out in its seek and output loops, with
the same checks, and ``_leave`` holds it as arrays for the hop table, so a
change to the step rule must update all three.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter

import numpy as np

from .bitvec import LabelSeq
from .errors import BoundsError, FormatError, InvariantError, ValidationError
from .tunnel import TraversalPos, TunneledGraph, _expand, find_string_blocks, tunnel_graph
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

# A range with fewer (node, copy) starts walks them one at a time.  Measured
# on the 20 KB benchmark indexes (CPython 3.11, numpy 2.4, Xeon), as
# locate(p, limit=k) with the two paths timed in turn on 100 patterns of 100
# or more occurrences, on the benchmark's clock, the hop table already made:
# the lockstep path took 56-63 us at 6 starts against 30-36 us, broke even
# at 14 starts on fib-locate, fib-locate-plain and rand96-count and 16-18
# on cpm4-build, and took 70-90 against 101-122 us at 24 starts
_LOCKSTEP_MIN_STARTS = 16
# the hop table's mark of a step that _fstep refuses, in the low half of a
# walk's sum above its steps, which must stay below it: at most 2 a hop and
# n hops, so an index of 2^30 nodes or more walks one start at a time
_STUCK = 2 ** 31


@dataclass
class StepCounter:
    """Counts graph traversal operations: forward steps, and jumps across a
    tunnel to its exit or, in extract, to a node inside it."""

    steps: int = 0


class TextIndex:
    """Tunneled FM-index over a byte string: count, locate, extract.

    The constructor walks every tunnel once (``_walk_tunnels``); the skip
    nodes and ``cnt`` that an index file stores are read off that walk.  Walks
    trust what it checks for every producer: it raises ValidationError
    unless both rates are >= 1, the records account for the n original
    nodes, each exit's out-degree and entrance's in-degree (one less at
    rank 1) is its width, the tunnels walk as ``_walk_tunnels`` requires,
    and ``loc`` maps plain nodes to distinct positions in [1..n]."""

    def __init__(self, tg: TunneledGraph, n: int, sample_rate_n: int,
                 sample_rate_t: int, loc):
        g, nt, rate_t = tg.g, tg.g.n, sample_rate_t
        if sample_rate_n < 1 or rate_t < 1:
            raise ValidationError(f"sample rates {sample_rate_n} and {rate_t} must be at least 1")
        # walks cross a tunnel by its record's exit and length
        if tg.orig_n != n:
            raise ValidationError("tunnel records must account for the n - n_t collapsed nodes")
        if any(g.outdeg(t.exit) != t.width or g.indeg(t.entrance) != t.width - (t.entrance == 1)
               for t in tg.tunnels):
            raise ValidationError("a tunnel's exit must have out-degree equal to its width, "
                                  "and its entrance in-degree, less one at rank 1")
        kind = np.frombuffer(tg._kind, np.uint8)
        pos = np.fromiter(loc.values(), np.int64, len(loc))
        at = np.fromiter(loc, np.int64, len(loc))
        by_pos = np.argsort(pos)         # the samples by text position, for extract to bisect
        ext_pos = pos[by_pos]
        if ((at < 1) | (at > nt)).any() or kind[at].any() or not len(loc) or ext_pos[0] < 1 \
                or ext_pos[-1] != n or (np.diff(ext_pos) == 0).any():
            raise ValidationError(f"loc must map plain nodes in [1..{nt}] to distinct "
                                  f"positions in [1..{n}], {n} among them")
        self.tg = tg
        self.n = n                       # |T| + 1, node count of the original graph
        self.sample_rate_n = sample_rate_n
        self.sample_rate_t = sample_rate_t
        self._tun = memoryview(tg._tun)
        self._walk_tunnels()
        ranks = np.arange(0, nt + 1, rate_t)  # cnt: the cumulative widths at them
        self.cnt = (ranks + np.asarray(self._extra)[tg._tun.searchsorted(ranks, "right")]).tolist()
        self.loc = loc                   # non-tunnel node rank -> text position
        self.ext_pos = ext_pos.tolist()
        self.ext_node = at[by_pos].tolist()
        # and by node, for the lockstep walk to gather: 0 off the samples, and
        # int32 unless a position needs more
        self._samp = np.zeros(nt + 1, np.int32 if n < 2 ** 31 else np.int64)
        self._samp[at] = pos

    def _walk_tunnels(self) -> None:
        """Keeps, as memoryviews (no copy; reads as fast as ``array``): ``_chain``,
        the tunnel nodes by exit, then distance to it (the node k steps on from
        ``_chain[i]`` is ``_chain[i - k]``), and a last 0; ``_to_exit``, their
        distances and a last 0; ``_slot``, each node's index in ``_chain``
        (that last one if plain); ``_extra``, the tunnel nodes' widths past 1
        summed in rank order; and the skip nodes.  Pointer jumping: each tunnel node points to
        its out-edge's target, an exit to itself, and a round doubles how far
        pointers reach.  Raises ValidationError unless every tunnel node but
        the exits has one out-edge, into a tunnel node, and each entrance
        reaches its record's exit in length - 1 steps."""
        tg, nt, rate_t = self.tg, self.tg.g.n, self.sample_rate_t
        if not tg.tunnels:  # every width is 1
            self._slot = self._chain = self._to_exit = memoryview(array("i"))
            self._extra, self.skip_nodes = memoryview(array("q", [0])), []
            return
        exits, entrances, widths, lengths = np.array(
            sorted(map(attrgetter("exit", "entrance", "width", "length"), tg.tunnels))).T
        tun, k = tg._tun, len(tg._tun)
        slot = np.full(nt + 1, k, np.int32)  # index in tun while walking, then in chain
        slot[tun] = np.arange(k, dtype=np.int32)
        at_exit = slot[exits]
        lstart = np.frombuffer(tg.g._lstart, np.int64)
        first = lstart[tun]
        deg = lstart[tun + 1] - first
        # each node points to its out-edge's target (int64: gathers by it convert nothing)
        step_to = np.frombuffer(tg._step_to, np.int32)
        nxt = slot[step_to.take(first + 1, mode="clip")].astype(np.int64)
        nxt[at_exit], deg[at_exit] = at_exit, 1
        if (deg != 1).any() or (nxt == k).any():
            raise ValidationError("a tunnel node other than its exit must have one out-edge, "
                                  "into a tunnel node")
        dist = np.ones(k, np.int32)
        dist[at_exit] = 0
        # one pair of buffers (fresh arrays slow the load); "wrap" lets out= skip a copy
        gathered, far = np.empty(k, np.int32), np.empty(k, np.int64)
        for _ in range(int(lengths.max() - 1).bit_length()):
            dist += dist.take(nxt, out=gathered, mode="wrap")
            nxt, far = nxt.take(nxt, out=far, mode="wrap"), nxt
        # each entrance must reach its record's exit in length - 1 steps; as the
        # exits differ and the tunnels have sum(length) nodes, all lie on chains
        ent = slot[entrances]
        if (nxt[ent] != at_exit).any() or (dist[ent] != lengths - 1).any():
            raise ValidationError("each tunnel's entrance must reach its record's exit "
                                  "by length - 1 single edges")
        run = np.cumsum(lengths) - lengths
        start, past = np.empty(k, np.int64), np.empty(k, np.int64)  # by each exit
        start[at_exit], past[at_exit] = run, widths - 1
        at = start.take(nxt) + dist
        chain, to_exit, extra = np.zeros(k + 1, np.int32), np.zeros(k + 1, np.int32), \
            np.zeros(k + 1, np.int64)
        chain[at], to_exit[at], slot[tun] = tun, dist, at
        np.cumsum(past.take(nxt), out=extra[1:])
        self._slot, self._chain, self._to_exit, self._extra = map(memoryview,
                                                                  (slot, chain, to_exit, extra))
        # by exit, then distance s - rate_t, s - 2 rate_t, ... > 0 in a tunnel of length s
        self.skip_nodes = np.concatenate([chain[i + (s - 1) % rate_t + 1:i + s:rate_t] for i, s
                                          in zip(run.tolist(), lengths.tolist())]).tolist()

    @cached_property
    def skip(self) -> dict[int, tuple[int, int]]:
        """Pointer node -> (exit, distance) in ``skip_nodes`` order, made on first read."""
        slot, chain, to_exit = self._slot, self._chain, self._to_exit
        return {v: (chain[slot[v] - to_exit[slot[v]]], to_exit[slot[v]])
                for v in self.skip_nodes}

    @property
    def text_len(self) -> int:
        return self.n - 1

    # -- forward walking -----------------------------------------------------

    def _fstep(self, node: int, off: int, counter: StepCounter):
        """One simulated original step: returns (node', off', label byte).
        Copy ``off`` of a tunnel node of out-degree w > 1 leaves by its
        off-th out-edge, any other node by its only one; the step table
        holds that edge's target, landing copy and label.  ``extract``
        writes this step out and ``_leave`` holds it as arrays: a change
        here must update them too."""
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
        return tg._step_to[p], tg._step_land[p] or off, tg._step_byte[p]

    def node_width(self, v: int) -> int:
        """Width of the tunnel holding node v in [1..n_t], 1 outside tunnels."""
        if not 1 <= v <= self.tg.g.n:
            raise BoundsError(f"node {v} outside [1..{self.tg.g.n}]")
        if not self.tg._kind[v]:
            return 1
        return self._cum(v) - self._cum(v - 1)

    def _cum(self, v: int) -> int:
        """Widths of nodes 1..v summed: v plus the tunnel nodes' widths past 1.
        An array over all nodes cost each load more than the search costs."""
        return v + self._extra[bisect_right(self._tun, v)]

    # -- counting --------------------------------------------------------------

    def count(self, pattern: bytes, counter: StepCounter | None = None) -> int:
        """Occurrences of the pattern in the text (|T|+1 for the empty
        pattern: every node is an occurrence).  Count takes no step."""
        if len(pattern) == 0:
            return self.n
        got = self.tg._search_pairs(pattern)
        if got is None:
            return 0
        (lo, lo_off), (hi, hi_off) = got
        # copies lo_off.. of lo up to copy hi_off of hi: hi's width counts
        # only when the range holds all of hi (hi_off None)
        cum = self._cum
        if hi_off is None:
            return cum(hi) - cum(lo - 1) - (lo_off - 1)
        return cum(hi - 1) - cum(lo - 1) + hi_off - (lo_off - 1)

    # -- locating ----------------------------------------------------------------

    def locate_one(self, p: TraversalPos, counter: StepCounter | None = None) -> int:
        """Text position (1-based) of the original node at the simulated
        position p; raises BoundsError unless p's node is in [1..n_t] and its
        offset a copy of that node, within the width of its own tunnel."""
        if not 1 <= p.offset <= self.node_width(p.node):
            raise BoundsError(f"node {p.node} has no copy {p.offset}")
        return self._walk(p.node, p.offset, counter if counter is not None else StepCounter())

    def _walk(self, node: int, off: int, counter: StepCounter) -> int:
        """Text position of copy ``off`` of the node: walk forward to the
        next text-order sample, crossing each tunnel in one jump to its exit,
        and subtract the travelled distance."""
        travelled = 0
        loc, kind, slot, chain, to_exit = (self.loc, self.tg._kind, self._slot, self._chain,
                                           self._to_exit)
        for _ in range(self.n):
            pos = loc.get(node)
            if pos is not None:
                return pos - travelled
            if kind[node]:
                i = slot[node]
                dist = to_exit[i]
                if dist:
                    travelled += dist
                    node = chain[i - dist]
                    counter.steps += 1
            node, off, _ = self._fstep(node, off, counter)
            travelled += 1
        raise FormatError(f"found no sample in {self.n} steps")

    def locate(self, pattern: bytes, limit: int | None = None,
               counter: StepCounter | None = None) -> list[int]:
        """Ascending start positions of the pattern (all, or the first
        `limit` in rank and copy order).  The empty pattern is rejected.

        Every copy of a tunnel node reaches the same exit, so each node of
        the range walks there once and its copies start from the exit
        (``_starts``).  A range of ``_LOCKSTEP_MIN_STARTS`` starts or more
        walks them all at once through the hop table (``_lockstep``), which
        the first such range makes; a smaller one walks start by start
        (``_walk``): the threshold is where the two broke even on the
        benchmark's indexes.  Both give the same positions and steps."""
        if len(pattern) == 0:
            raise ValidationError("locate needs a non-empty pattern")
        if limit is not None and limit < 0:
            raise ValidationError(f"locate limit {limit} is negative")
        counter = counter if counter is not None else StepCounter()
        got = self.tg._search_pairs(pattern)
        if got is None or limit == 0:
            return []
        (lo, lo_off), (hi, hi_off) = got
        nodes, offs, dists = self._starts(lo, lo_off, hi, hi_off, limit, counter)
        plen = len(pattern)
        if len(nodes) < _LOCKSTEP_MIN_STARTS or 2 * self.n >= _STUCK:
            found = [self._walk(v, o, counter) - d - plen for v, o, d in zip(nodes, offs, dists)]
        else:
            found = (self._lockstep(nodes, offs, dists, counter) - plen).tolist()
        return _distinct_sorted(found)

    def _starts(self, lo: int, lo_off: int, hi: int, hi_off: int | None,
                limit: int | None, counter: StepCounter):
        """(nodes, copies, distances) of the range's occurrences, the first
        ``limit`` of them: a plain node starts at its one copy, and the
        copies of a tunnel node at its exit, the distance to it travelled."""
        if limit is not None and hi - lo >= limit:  # every node holds an occurrence
            hi, hi_off = lo + limit - 1, None
        lstart, kind, slot, chain, to_exit = (self.tg.g._lstart, self.tg._kind, self._slot,
                                              self._chain, self._to_exit)
        nodes, offs, dists = [], [], []
        nxt = lo
        for v in [v for v in range(lo, hi + 1) if kind[v]] + [hi + 1]:
            nodes += range(nxt, v)  # the plain nodes before v
            offs += [1] * (v - nxt)
            dists += [0] * (v - nxt)
            if v > hi:
                break
            dist = to_exit[slot[v]]
            node = chain[slot[v] - dist]
            if dist:
                counter.steps += 1
            first = lo_off if v == lo else 1
            last = hi_off if v == hi and hi_off is not None else lstart[node + 1] - lstart[node]
            nodes += [node] * (last - first + 1)
            offs += range(first, last + 1)
            dists += [dist] * (last - first + 1)
            nxt = v + 1
        return nodes[:limit], offs[:limit], dists[:limit]

    @cached_property
    def _hops(self) -> tuple[np.ndarray, np.ndarray]:
        """The lockstep walk's hop table by L position q, made on first use.
        A hop takes edge q and, if it lands on a tunnel's entrance, jumps to
        the exit.  ``nxt[q]`` is the L position the walk then leaves by (at
        an exit, by its landing copy), or 0 if the edge reaches a sample or
        where ``_fstep`` would raise.  ``val[q]`` is what the hop adds to the
        walk's sum: its steps (1, or 2 with a jump) in the low 32 bits, plus
        ``_STUCK`` where ``_fstep`` would raise, and above them the position
        of the sample reached less 1, or minus the distance travelled.
        Entry 0, 0 and 0, is the hop of a finished walk."""
        tg = self.tg
        to = np.frombuffer(tg._step_to, np.int32)
        lstart = np.frombuffer(tg.g._lstart, np.int64)
        got = self._samp.take(to)
        q = lstart.take(to) + 1  # a plain node leaves by its one out-edge
        val = (got - 1).astype(np.int64) * 2 ** 32 + 1
        # a walk jumps before an in-tunnel move, so the hops that land in a
        # tunnel land on its entrance; the in-tunnel moves are no walk's hop
        ent = self._into(np.fromiter(tg.entrance_info, np.int64, len(tg.entrance_info)))
        at, dist = self._jump(to.take(ent).astype(np.int64))
        q[ent] = self._leave(at, np.frombuffer(tg._step_land, np.int32).take(ent))
        val[ent] -= dist.astype(np.int64) * 2 ** 32 - (dist != 0)  # the jump's distance and step
        q[self._into(np.flatnonzero(lstart[2:] == lstart[1:-1]) + 1)] = -1  # into a sink
        q[got != 0] = 0
        val[q < 0] = _STUCK
        nxt = np.maximum(q, 0).astype(np.int32)
        nxt[0] = val[0] = 0
        return nxt, val

    def _into(self, nodes: np.ndarray) -> np.ndarray:
        """The L positions of the edges into the given nodes."""
        istart = np.frombuffer(self.tg.g._istart, np.int64)
        first = istart.take(nodes)
        j = _expand(first + 1, istart.take(nodes + 1) - first)[1]
        return np.frombuffer(self.tg._pos, np.int32).take(j)

    def _jump(self, node: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(node, distance) of each walk after it jumps to its tunnel's exit:
        a plain node or an exit stays, at distance 0."""
        if not self.tg.tunnels:
            return node, np.zeros_like(node)
        # a plain node's slot reads the last 0 of _to_exit and _chain
        c = np.asarray(self._slot).take(node)
        d = np.asarray(self._to_exit).take(c)
        if np.count_nonzero(d):  # locate starts no walk inside a tunnel
            node = np.where(d != 0, np.asarray(self._chain).take(c - d), node)
        return node, d

    def _leave(self, node: np.ndarray, off) -> np.ndarray:
        """The L position each walk at a copy ``off`` of a plain node or an
        exit leaves by, by ``_fstep``'s rule: 0 at a sample, -1 where
        ``_fstep`` raises.  An exit's out-degree is its width, above 1."""
        lstart = np.frombuffer(self.tg.g._lstart, np.int64)
        first = lstart.take(node)
        off = np.where(np.frombuffer(self.tg._kind, np.uint8).take(node) != 0, off, 1)
        q = np.where((off < 1) | (off > lstart.take(node + 1) - first), -1, first + off)
        q[self._samp.take(node) != 0] = 0
        return q

    def _lockstep(self, nodes, offs, dists, counter: StepCounter) -> np.ndarray:
        """Text positions of the walks from copy offs[i] of nodes[i], dists[i]
        already travelled, walked together: a walk inside a tunnel jumps to
        its exit, then each round adds every walk's hop to its sum and moves
        it on by the hop table, until every walk stands at 0.  A walk that
        stuck is walked again by ``_walk``, to raise ``_fstep``'s error: the
        first to stick, in the earliest round."""
        nxt, val = self._hops
        node, d = self._jump(np.array(nodes, np.int64))
        counter.steps += int(np.count_nonzero(d))
        start = self._leave(node, np.array(offs, np.int64))
        acc = (self._samp.take(node) - d - np.array(dists, np.int64)) * 2 ** 32
        acc[start < 0] = _STUCK
        q = np.maximum(start, 0)
        for _ in range(self.n):
            if not np.count_nonzero(q):
                break
            acc += val.take(q)
            q = nxt.take(q)
        else:
            if not (acc & _STUCK).any():
                raise FormatError(f"found no sample in {self.n} steps")
        if (acc & _STUCK).any():
            stuck, q = start < 0, np.maximum(start, 0)
            while not stuck.any():  # the round where the first walk stuck
                stuck = (val.take(q) & _STUCK) != 0
                q = nxt.take(q)
            i = int(stuck.argmax())
            self._walk(int(nodes[i]), int(offs[i]), StepCounter())  # raises
            raise InvariantError("the hop table took a step that the walk does not")
        counter.steps += int((acc & 0xFFFFFFFF).sum())
        return acc >> 32

    # -- extracting -----------------------------------------------------------------

    def extract(self, start: int, length: int,
                counter: StepCounter | None = None) -> bytes:
        """T[start .. start+length-1] (1-based, inclusive).

        The walk seeks from the nearest sample at or before ``start``,
        jumping across each tunnel to its exit, or onto the target's node
        when the target lies inside it; it then steps once per output byte.
        Both loops write out ``_fstep``'s step, checks included, and add
        their steps to the counter at the end."""
        if start < 1 or length < 0 or start + length - 1 > self.text_len:
            raise BoundsError(
                f"extract({start},{length}) outside text of length {self.text_len}")
        if length == 0:
            return b""
        counter = counter if counter is not None else StepCounter()
        tg = self.tg
        kind, lstart = tg._kind, tg.g._lstart
        step_to, step_land, step_byte = tg._step_to, tg._step_land, tg._step_byte
        slot, chain, to_exit = self._slot, self._chain, self._to_exit
        idx = bisect_right(self.ext_pos, start) - 1
        if idx >= 0:
            pos, node, off = self.ext_pos[idx], self.ext_node[idx], 1
        else:
            # the first sample may sit past `start` when the source node
            # lives inside a tunnel; the source is always rank 1, copy 1
            pos, node, off = 1, 1, 1
        steps = 0
        for _ in range(self.n):
            if pos >= start:
                break
            if kind[node]:
                # in-tunnel moves keep the copy: jump to the exit, or onto the target
                i = slot[node]
                hop = min(to_exit[i], start - pos)
                if hop:
                    node = chain[i - hop]
                    pos += hop
                    steps += 1
                    continue
            p = lstart[node]
            deg = lstart[node + 1] - p
            if deg > 1 and kind[node]:
                if not 1 <= off <= deg:
                    raise BoundsError(f"copy {off} of node {node} is outside its {deg} out-edges")
                p += off
            elif deg:
                p += 1
            else:
                raise BoundsError("walked past the sink")
            node, off = step_to[p], step_land[p] or off
            pos += 1
            steps += 1
        else:
            raise FormatError(f"did not reach text position {start} in {self.n} steps")
        out = bytearray(length)
        for i in range(length):
            p = lstart[node]
            deg = lstart[node + 1] - p
            if deg > 1 and kind[node]:
                if not 1 <= off <= deg:
                    raise BoundsError(f"copy {off} of node {node} is outside its {deg} out-edges")
                p += off
            elif deg:
                p += 1
            else:
                raise BoundsError("walked past the sink")
            node, off = step_to[p], step_land[p] or off
            out[i] = step_byte[p]
        counter.steps += steps + length
        return bytes(out)

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
                sample_rate_t: int | None = None, tunneling: bool = True) -> TextIndex:
    """Build the full index: string graph, block discovery (blocks of width
    and length >= 2, each merging an edge), tunneling, and all sampling
    structures.  With tunneling off this degenerates to a plain FM-index."""
    if isinstance(text, str):
        raise TypeError("text must be bytes")
    if (sample_rate_n is not None and sample_rate_n < 1) or \
            (sample_rate_t is not None and sample_rate_t < 1):
        raise ValidationError("sample rates must be >= 1")
    text = bytes(text)
    g, rank = _string_graph(text)
    n = g.n
    # rank holds the nodes by text position and at their positions, the text
    # order that StringBlock.block reads; tunnel_graph checks every block
    at = np.argsort(rank)  # rank[at[r]] = r
    found = find_string_blocks(g) if tunneling else []
    tg = tunnel_graph(g, [sb.block(rank, at) for sb in found])
    rate_n = sample_rate_n if sample_rate_n is not None else \
        max(1, math.ceil(math.log2(max(2, n))))
    rate_t = sample_rate_t if sample_rate_t is not None else \
        max(1, math.ceil(math.log2(max(2, tg.g.n))))

    # run-contracted text-order sequence: one element per non-tunnel node,
    # one per run of text positions through one tunnel.  A run starts at its
    # tunnel's entrance and rows of one block lie at least s+1 positions
    # apart, so an element starts at every position whose node is not inner.
    # A sample that falls on a tunnel element moves to the next plain one.
    node = tg.node_map[rank[1:]]  # by text position - 1
    first = np.flatnonzero(tg.inner_marks.bits()[node - 1] == 0)
    plain = np.flatnonzero(np.isin(node[first], [t.entrance for t in tg.tunnels], invert=True))
    wanted = sorted({1, len(first), *range(rate_n, len(first) + 1, rate_n)})
    at_plain = first[plain[np.searchsorted(plain, np.array(wanted) - 1)]]
    loc = dict(zip(node[at_plain].tolist(), (at_plain + 1).tolist()))

    tg.node_map = None  # needed only to place the samples above
    return TextIndex(tg, n, rate_n, rate_t, loc)
