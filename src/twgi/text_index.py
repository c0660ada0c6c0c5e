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
lockstep on numpy arrays, one step a round: retire the walks at a sample,
read off a node-indexed table of the samples' positions; jump those inside
a tunnel to its exit, with no index list, reading a 0 distance at a plain
node; step the rest.  A round's numpy calls cost the same however few walks
are live, so a smaller range walks one start at a time; the threshold is
the measured break-even.

A forward step takes a known out-edge: a node's only one, or the one of its
copy at a tunnel exit.  So no walk ranks L: the step reads the edge's
target, landing copy and label from the graph's step table, the landing
rule decoded once per L position when the graph is made.  ``_fstep`` is
that rule; ``extract`` writes it out in its seek and output loops, with
the same checks, so a change to the step rule must update both.
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

# A range with fewer (node, copy) starts walks them one at a time.  Measured
# on the 20 KB benchmark indexes (CPython 3.11, numpy 2.4, Xeon), as
# locate(p, limit=k) with the two paths timed in turn on 100 patterns: the
# lockstep path took 80-90 us at 4 starts against 20-25 us, broke even at
# 32-40 starts on fib-locate-plain, 40-46 on fib-locate, 43-48 on
# rand96-count and 53-55 on cpm4-build, and took 440 against 570 us at 96
# starts on cpm4-build
_LOCKSTEP_MIN_STARTS = 44


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
        writes this step out: a change here must update it too."""
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
        walks them all at once (``_lockstep``), a smaller one start by start
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
        if len(nodes) < _LOCKSTEP_MIN_STARTS:
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

    def _lockstep(self, nodes, offs, dists, counter: StepCounter) -> np.ndarray:
        """Text positions of the walks from copy offs[i] of nodes[i], dists[i]
        already travelled, walked together: each round retires the walks at
        a sample, jumps the walks inside a tunnel to its exit and steps every
        walk left once through the step table.  A walk has travelled its
        distance, its jumps and the rounds before it retires."""
        tg = self.tg
        lstart = np.frombuffer(tg.g._lstart, np.int64)
        step_to = np.frombuffer(tg._step_to, np.int32)
        step_land = np.frombuffer(tg._step_land, np.int32)
        slot, chain, to_exit = map(np.asarray, (self._slot, self._chain, self._to_exit))
        samp, tunneled = self._samp, bool(tg.tunnels)
        node, off, base = (np.array(a, np.int64) for a in (nodes, offs, dists))
        lend, count, done = lstart[1:], np.count_nonzero, []
        for rnd in range(self.n):
            got = samp[node]  # the sample's text position at the node, or 0
            hits = count(got)
            if hits:
                hit = got.nonzero()[0]
                done.append(got[hit] - base[hit] - rnd)
                if hits == len(got):
                    return np.concatenate(done)
                live = (got == 0).nonzero()[0]
                node, off, base = node[live], off[live], base[live]
            if tunneled:
                # a plain node's slot reads the last 0 of _to_exit and _chain
                c = slot[node]
                d = to_exit[c]
                jumps = count(d)
                if jumps:
                    base += d
                    node = np.where(d != 0, chain[c - d], node)
                    counter.steps += jumps
            # a walk leaves by the out-edge of its copy: no edge or start puts
            # a copy above 1 on a plain node, so only a node of fewer
            # out-edges than the copy needs _fstep's rule
            p = lstart[node] + off
            over = p > lend[node]
            if count(over):
                deg = lend[node] - lstart[node]
                bad = (over & (deg != 1)).nonzero()[0]
                if len(bad):
                    self._fstep(int(node[bad[0]]), int(off[bad[0]]), counter)  # raises
                p = lstart[node] + np.minimum(off, deg)  # a tunnel node of one out-edge
            land = step_land[p]
            node = step_to[p].astype(np.int64)
            # an in-tunnel move (landing copy 0) keeps the copy
            off = land if count(land) == len(land) else np.where(land != 0, land, off)
            counter.steps += len(node)
        raise FormatError(f"found no sample in {self.n} steps")

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
    # column t of a string block's row r is the node t steps after r in text
    # order; tunnel_graph checks every block
    at = np.argsort(rank)  # rank[at[r]] = r
    expanded = []
    for sb in (find_string_blocks(g) if tunneling else []):
        rows = at[sb.start_rank:sb.start_rank + sb.width]
        expanded.append(Block(sb.width, sb.length,
                              rank[rows + np.arange(sb.length)[:, None]].tolist()))
    tg = tunnel_graph(g, expanded)
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
