"""Text self-index on a tunneled Wheeler graph.

The Wheeler graph of a string is a path whose node order is the colex order
of prefixes, i.e. the suffix array of the reversed text; its label array is
the BWT of the reversed text.  After tunneling, count / locate / extract are
answered with text-position samples on plain nodes of the run-contracted
node sequence (Ferragina & Manzini 2005) and with one walk of every tunnel,
by pointer jumping (Wyllie 1979), when the index is made.  It orders each
tunnel's nodes by distance to its exit, so that a walk crosses a tunnel in
one jump wherever it meets it (Baier 2018) and extract reads a tunnel's
bytes up to its exit as one slice, and sums the tunnel nodes' widths, which
count searches twice.
The walk is also the check that walks may trust the records; an index file
stores nothing that it derives.

Locate walks each occurrence to the next text-order sample.  The copies of a
tunnel node share its exit, where the walk splits by copy.  Each start, in
numpy arrays from the search's range on, is the L position the walk leaves
by (0 on a sample) and its sum so far, read off a table by node where the
range holds a tunnel node; the starts walk in lockstep through a table by L
position, made on the first locate: a hop takes an edge, jumps a landing on
an entrance to its exit and names the edge the walk leaves by next, or the
sample it reached.  The hop table is that one-hop table composed with
itself (pointer jumping, Wyllie 1979) until an entry takes as many hops as
the least power of 2 at or above the sample rate, so a round is two gathers
over every walk and mostly the only one; ``locate_one`` walks its one start
the same way.

A forward step takes a known out-edge: a node's only one, or the one of its
copy at a tunnel exit.  So no walk ranks L: the step reads the edge's
target, landing copy and label from the graph's step table, the landing
rule decoded once per L position when the graph is made.  ``_fstep`` is
that rule, with both of its checks, a copy past the exit's out-degree and a
step past the sink; it is the tests' oracle and the bench times it.  One
successor table by L position holds the rule as an array
(``_successors``): the edge a walk takes next after each edge, jumping an
entrance to its exit.  The hop table and extract's signed successor table
(``_extract_tables``, made on the first extract) are read off it, and a
lockstep walk starts by its copy's out-edge.  The load proves that no walk
needs the copy check, nor a hop walk the sink check (``TextIndex``);
extract finds the sink where its table reads 0.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter

import numpy as np

from .bitvec import LabelSeq
from .errors import BoundsError, FormatError, InvariantError, ValidationError
from .tunnel import TraversalPos, TunneledGraph, _expand, find_string_blocks, tunnel_graph
from .wheeler import WheelerGraph, unary


# The k-gram table's one-byte searches call the function, not the method, so
# a wrapper put on the method (a tracer's span) sees the queries' searches only.
_table_search = TunneledGraph._search_pairs

# The most one-byte searches that making the k-gram table takes, at a few
# microseconds each.
_TABLE_SEARCHES = 1 << 11


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

# a walk's steps, at most 2 a hop and n hops, share its sum with the
# position above them and must stay in the low half: TextIndex refuses an
# index of this many nodes or more
_MAX_NODES = 2 ** 30


@dataclass
class StepCounter:
    """Counts graph traversal operations: forward steps, and jumps across a
    tunnel to its exit, one step each.  Extract counts a step for each byte
    it returns and for each byte it reads on the way to ``start``, but one
    for each tunnel slice begun before ``start``, however many of the
    slice's bytes lie there."""

    steps: int = 0


class TextIndex:
    """Tunneled FM-index over a byte string: count, locate, extract.

    The constructor walks every tunnel once (``_walk_tunnels``), and
    ``skip`` is read off that walk; ``sample_rate_t`` is only its stride.
    Walks trust what it checks for every producer: it raises ValidationError
    unless n < 2^30 (a walk's steps must stay in the low half of its sum),
    both rates are >= 1, the records account for the n original nodes, each
    exit's out-degree and entrance's in-degree (one less at rank 1) is its
    width, the tunnels walk as ``_walk_tunnels`` requires, the samples put
    distinct plain nodes in [1..n_t] at distinct positions in [1..n], n
    among them, and every node of out-degree 0 holds a sample.

    So on every index it accepts no walk takes a copy past an exit's
    out-degree, and no hop walk steps past a sink.  Of the step rule's
    two readers, ``_fstep`` checks both, and the successor table by L
    position (``_successors``, read by ``_hop_table`` and
    ``_extract_tables``) neither:
    1. An edge into an entrance lands at a copy in [1..w] of its record,
       as ``TunneledGraph`` decodes I'.
    2. That record's exit has out-degree w (checked here).
    3. The entrance reaches that exit by in-tunnel moves, which keep the
       copy (``_walk_tunnels``), and an inner node's one in-edge is the
       move from the tunnel node before it (``TunneledGraph`` and
       ``_walk_tunnels``): a walk meets a tunnel only at its entrance.
    4. ``_starts`` hands on copy 1 of a plain node, or copies of a tunnel
       node within its width, at its exit, as searches land and carry them;
       ``locate_one`` checks its copy against ``node_width``, and extract
       walks from copy 1 of a sample.  Copy k of an exit leaves by its k-th
       out-edge, the slot an index file gives it and the transform's row
       order keeps (``TunneledGraph._copy_is_slot`` holds).  ``_fstep``
       and ``_successors`` read it, ``_starts`` through the start table's
       offsets (``_start_table``), and the search, which narrows an exit
       end by shifting its L bound
       (``TunneledGraph._search_pairs``); ``TunneledGraph._edges`` runs only
       in ``step`` and on a general graph whose copy is not slot.
    5. Every node of out-degree 0 holds a sample, where a hop walk stops.
    Extract stops at no sample: a file whose samples trade positions still
    loads, and its extract can start at the sink or reach it, which extract
    checks for.

    Count and locate search from a start state: the search state, as
    ``tg._search_pairs`` passes it on, after the pattern's first k bytes,
    read off a table of every k-byte prefix of the text (``_kgrams``).  The
    first count or locate makes it, from the index alone, and no file
    stores it; k is the deepest level, at most 8, that the table reaches in
    at most min(n_t // 4, 2048) one-byte searches, so one query per load
    pays a few milliseconds for it, whatever the index's size."""

    def __init__(self, tg: TunneledGraph, n: int, sample_rate_n: int,
                 sample_rate_t: int, nodes, positions):
        """The samples: node ``nodes[i]`` at text position ``positions[i]``, two
        integer arrays of one length, kept as arrays only, by position and by node."""
        if n >= _MAX_NODES:
            raise ValidationError(f"an index holds fewer than {_MAX_NODES} nodes, not {n}")
        g, nt = tg.g, tg.g.n
        if sample_rate_n < 1 or sample_rate_t < 1:
            raise ValidationError(f"sample rates {sample_rate_n} and {sample_rate_t} "
                                  f"must be at least 1")
        # walks cross a tunnel by its record's exit and length
        if tg.orig_n != n:
            raise ValidationError("tunnel records must account for the n - n_t collapsed nodes")
        if any(g.outdeg(t.exit) != t.width or g.indeg(t.entrance) != t.width - (t.entrance == 1)
               for t in tg.tunnels):
            raise ValidationError("a tunnel's exit must have out-degree equal to its width, "
                                  "and its entrance in-degree, less one at rank 1")
        at, pos = np.asarray(nodes, np.int64), np.asarray(positions, np.int64)
        by_pos = np.argsort(pos)         # the samples by text position, for extract to bisect
        ext_pos = pos[by_pos]
        if not 0 < len(at) == len(pos) or ((at < 1) | (at > nt)).any() \
                or np.frombuffer(tg._kind, np.uint8)[at].any() or np.bincount(at).max() > 1 \
                or np.diff(ext_pos, prepend=0).min() < 1 or ext_pos[-1] != n:
            raise ValidationError(f"loc must map plain nodes in [1..{nt}] to distinct "
                                  f"positions in [1..{n}], {n} among them")
        self.tg = tg
        self.n = n                       # |T| + 1, node count of the original graph
        self.sample_rate_n = sample_rate_n
        self.sample_rate_t = sample_rate_t
        self._tun = memoryview(tg._tun)
        self._walk_tunnels()
        self.ext_pos = array("i", ext_pos.astype(np.int32).tobytes())
        self.ext_node = array("i", at[by_pos].astype(np.int32).tobytes())
        self._samp = np.zeros(nt + 1, np.int32)  # by node, 0 off them, for the lockstep walk
        self._samp[at] = pos
        lstart = np.frombuffer(g._lstart, np.int64)
        if not self._samp.take(np.flatnonzero(lstart[2:] == lstart[1:-1]) + 1).all():
            raise ValidationError("every node of out-degree 0 must hold a sample")

    def _walk_tunnels(self) -> None:
        """Keeps, as memoryviews (no copy; reads as fast as ``array``): ``_chain``,
        the tunnel nodes by exit, then distance to it (the node k steps on from
        ``_chain[i]`` is ``_chain[i - k]``), and a last 0; ``_to_exit``, their
        distances and a last 0; ``_slot``, each node's index in ``_chain``
        (that last one if plain); and ``_extra``, the tunnel nodes' widths past
        1 summed in rank order.  Pointer jumping: each tunnel node points to
        its out-edge's target, an exit to itself, and a round doubles how far
        pointers reach.  Raises ValidationError unless every tunnel node but
        the exits has one out-edge, into a tunnel node, and each entrance
        reaches its record's exit in length - 1 steps."""
        tg, nt = self.tg, self.tg.g.n
        if not tg.tunnels:  # every width is 1
            self._slot = self._chain = self._to_exit = memoryview(array("i"))
            self._extra = memoryview(array("q", [0]))
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

    @cached_property
    def skip(self) -> dict[int, tuple[int, int]]:
        """Pointer node -> (exit, distance), made on first read: a tunnel of
        length s has a pointer at each distance s - rate_t, s - 2 rate_t, ...
        > 0, listed by exit, then by ascending distance.  No query reads it."""
        chain, dist = np.asarray(self._chain)[:-1], np.asarray(self._to_exit)[:-1]
        lengths = np.diff(np.flatnonzero(dist == 0), append=len(dist))  # a run starts at its exit
        s = np.repeat(lengths, lengths)
        at = np.flatnonzero((dist > 0) & ((s - dist) % self.sample_rate_t == 0))
        return dict(zip(chain[at].tolist(), zip(chain[at - dist[at]].tolist(),
                                                dist[at].tolist())))

    @property
    def text_len(self) -> int:
        return self.n - 1

    # -- forward walking -----------------------------------------------------

    def _fstep(self, node: int, off: int, counter: StepCounter):
        """One simulated original step: returns (node', off', label byte).
        Copy ``off`` of a tunnel node of out-degree w > 1 leaves by its
        off-th out-edge, any other node by its only one; the step table
        holds that edge's target, landing copy and label.  ``_successors``
        holds this step as an array for the hop table and extract: a change
        here must update it."""
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
        Locate reads it by node off ``_start_table``, which no load makes: an
        array over all nodes would cost each load more than the search costs."""
        return v + self._extra[bisect_right(self._tun, v)]

    # -- searching -------------------------------------------------------------

    @cached_property
    def _kgrams(self) -> tuple[int, array, list[array]]:
        """(k, keys, states): the search state of every k-byte prefix that
        occurs, made on the first count or locate (Bowtie's ``ftab``).  Level
        j + 1 extends each state of level j by each alphabet byte, one
        ``_search_pairs`` step, and keeps the non-empty states.  k is the
        deepest level, at most 8, whose levels take at most min(n_t // 4,
        ``_TABLE_SEARCHES``) such steps in all: the table and the work to make
        it stay within a quarter of the nodes, and the first query of a load
        pays a bounded cost, which one query per load does not win back.
        ``keys`` holds each prefix as ``int.from_bytes(prefix, "big")``,
        ascending as the alphabet is, and unsigned, as 8 bytes from 0x80 up
        pass 2^63; every prefix has k bytes, so one starting with 0x00
        collides with no shorter one.
        ``states`` holds four int32 arrays, a, lo_off, b and hi_off by key,
        with hi_off None as 0.  At k = 0 the one key is the empty prefix's,
        whose state is the full range."""
        tg, nt, alphabet = self.tg, self.tg.g.n, self.tg.g.alphabet
        level, k, budget = [(0, 1, 1, nt, None)], 0, min(nt // 4, _TABLE_SEARCHES)
        while k < 8 and len(level) * len(alphabet) <= budget:
            budget -= len(level) * len(alphabet)
            deeper = []
            for key, *state in level:
                for c in alphabet:
                    got = _table_search(tg, bytes((c,)), state)
                    if got is not None:
                        (a, lo_off), (b, hi_off) = got
                        deeper.append((key << 8 | c, a, lo_off, b, hi_off))
            level, k = deeper, k + 1
        keys, *states = list(zip(*level)) or [()] * 5
        return k, array("Q", keys), [array("i", [x or 0 for x in col]) for col in states]

    def _search(self, pattern: bytes):
        """``tg._search_pairs(pattern)``, its first k steps read off the
        k-gram table: a pattern shorter than k is searched in full, and one
        whose first k bytes are no key occurs nowhere, since the table holds
        every non-empty state of depth k."""
        k, keys, (a, lo_off, b, hi_off) = self._kgrams
        if len(pattern) < k:
            return self.tg._search_pairs(pattern)
        key = int.from_bytes(pattern[:k], "big")
        i = bisect_left(keys, key)
        if i == len(keys) or keys[i] != key:
            return None
        return self.tg._search_pairs(pattern[k:], (a[i], lo_off[i], b[i], hi_off[i] or None))

    # -- counting --------------------------------------------------------------

    def count(self, pattern: bytes) -> int:
        """Occurrences of the pattern in the text (|T|+1 for the empty
        pattern: every node is an occurrence).  Count takes no step.  The
        search (``_search``) starts from the k-gram table's state of the
        pattern's first k bytes, which the first count or locate makes."""
        if isinstance(pattern, str):
            raise TypeError("pattern must be bytes")
        if len(pattern) == 0:
            return self.n
        got = self._search(pattern)
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
        offset a copy of that node, within the width of its own tunnel.  The
        one start walks as a range's starts do (``locate``)."""
        if not 1 <= p.offset <= self.node_width(p.node):
            raise BoundsError(f"node {p.node} has no copy {p.offset}")
        counter = counter if counter is not None else StepCounter()
        q, acc = self._starts(p.node, p.offset, p.node, p.offset, None, counter)
        return int(self._lockstep(q, acc, counter)[0])

    def locate(self, pattern: bytes, limit: int | None = None,
               counter: StepCounter | None = None) -> list[int]:
        """Ascending start positions of the pattern (all, or the first
        `limit` in rank and copy order).  The empty pattern is rejected.

        Every copy of a tunnel node reaches the same exit, so its copies
        start from the exit, each start read off a table by node
        (``_starts``), which the first locate of a range holding a tunnel
        node makes.  The starts then walk all at once through the hop table
        (``_lockstep``), which the first locate makes.  The search is
        count's, from the k-gram table (``_search``)."""
        if isinstance(pattern, str):
            raise TypeError("pattern must be bytes")
        if len(pattern) == 0:
            raise ValidationError("locate needs a non-empty pattern")
        if limit is not None and limit < 0:
            raise ValidationError(f"locate limit {limit} is negative")
        counter = counter if counter is not None else StepCounter()
        got = self._search(pattern)
        if got is None or limit == 0:
            return []
        (lo, lo_off), (hi, hi_off) = got
        q, acc = self._starts(lo, lo_off, hi, hi_off, limit, counter)
        positions = np.sort(self._lockstep(q, acc, counter) - len(pattern))
        if np.count_nonzero(positions[1:] == positions[:-1]):
            raise InvariantError("two occurrences located at one text position")
        return positions.tolist()

    def _starts(self, lo: int, lo_off: int, hi: int, hi_off: int | None,
                limit: int | None, counter: StepCounter):
        """(q, acc), int64 arrays, the lockstep walks of the range's
        occurrences, the first ``limit`` of them: a plain node starts at its
        one copy, and the copies of a tunnel node at its exit, the distance
        to it travelled.  A walk from copy k of a node starts at L position
        lstart[node] + k, its copy's out-edge (by rule 4 of ``TextIndex``
        a plain node starts at copy 1 and a tunnel node at its exit), or at
        0 on a sample; its sum ``acc`` holds the sample's position, or minus
        the distance travelled, above 32 low bits of steps, 0 so far.  The
        range keeps copies lo_off.. of lo and ..hi_off of hi, none of lo if
        lo_off is past its width; one jump is counted for each tunnel node
        off its exit with a kept copy.  A range of plain nodes, one copy
        each, reads its nodes' L starts and samples as two slices.  Any
        other range is the run of original ranks from its first kept copy to
        its last; one search of the widths summed finds each rank's node,
        and a gather of each of ``_start_table``'s arrays by node gives the
        starts and the jumps, whatever the range's size.  Both paths return
        fresh arrays, which ``_lockstep`` adds into."""
        if limit is not None and hi - lo > limit:  # every node past lo holds an occurrence
            hi, hi_off = lo + limit, None
        i, j = bisect_left(self._tun, lo), bisect_right(self._tun, hi)
        if i == j and lo_off == 1 and hi_off in (None, 1):  # plain nodes, one copy each
            stop = hi + 1 if limit is None else min(hi + 1, lo + limit)
            samp = self._samp[lo:stop]
            lstart = np.frombuffer(self.tg.g._lstart, np.int64)
            return (lstart[lo:stop] + 1) * (samp == 0), samp * np.int64(2 ** 32)
        cw, off, s = self._start_table
        first = min(int(cw[lo - 1]) + lo_off, int(cw[lo]) + 1)
        last = int(cw[hi]) if hi_off is None else int(cw[hi - 1]) + hi_off
        if limit is not None:
            last = min(last, first + limit - 1)
        if last < first:  # lo_off past the width of lo, the range's one node
            return np.zeros(0, np.int64), np.zeros(0, np.int64)
        ranks = np.arange(first, last + 1)
        node = cw[lo:hi + 1].searchsorted(ranks) + lo
        counter.steps += int(np.count_nonzero(s[node[0]:node[-1] + 1] < 0))
        return off.take(node) + ranks, s.take(node) * np.int64(2 ** 32)

    @cached_property
    def _start_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(cw, off, s), three int32 arrays by node v in [0..n_t] from which
        ``_starts`` reads a range's starts, made on the first locate whose
        range holds a tunnel node (a plain range reads slices), never at
        load.  A range's occurrences are the original ranks of its copies:
        copy k of node v has rank cw[v - 1] + k, and ``cw[v]`` is ``_cum(v)``.
        The walk from that copy leaves by L position ``off[v] + rank``:
        lstart[exit] + k, the exit's k-th out-edge (a plain node is its own
        exit), or 0 on a sample.  Its sum starts at ``s[v]`` above 32 low
        bits of steps: the sample's position, minus the distance to the exit
        (negative exactly on a tunnel node off its exit, one jump), or 0."""
        nt, tun = self.tg.g.n, self.tg._tun
        cw = np.ones(nt + 1, np.int32)
        cw[0] = 0
        cw[tun] += np.diff(np.asarray(self._extra)).astype(np.int32)  # the widths past 1
        np.cumsum(cw, out=cw)
        exits = np.arange(nt + 1)
        exits[tun], dist = self._exits(tun)
        s = self._samp.copy()
        s[tun] = -dist
        off = np.where(s > 0, -1, np.frombuffer(self.tg.g._lstart, np.int64).take(exits))
        off[1:] -= cw[:-1]
        return cw, off.astype(np.int32), s

    @cached_property
    def _hops(self) -> tuple[np.ndarray, np.ndarray]:
        """The lockstep walk's hop table by L position, made on first use:
        ``_hop_table``'s one-hop table composed with itself until an entry
        takes ``_round_hops`` hops.  ``nxt[q]`` is the L position the walk
        leaves by after them, or 0 once it stopped on the way; ``val[q]`` is
        their sum: their steps in the low 32 bits, and above them the
        sample's position less 1, or minus the distance travelled.  Each
        composition is two gathers over the table, which keeps its int32
        ``nxt`` and int64 ``val``: 12 bytes per L position."""
        nxt, val = self._hop_table()
        for _ in range(self._round_hops.bit_length() - 1):
            val += val.take(nxt)
            nxt = nxt.take(nxt)
        return nxt, val

    @property
    def _round_hops(self) -> int:
        """The hops a lockstep round takes: the least power of 2 at or above
        ``sample_rate_n``, the text-order gap between most samples, so that
        most walks end in one round."""
        return 1 << (self.sample_rate_n - 1).bit_length()

    def _hop_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The one-hop table by L position q, made afresh on each call.
        A hop takes edge q and, if it lands on a tunnel's entrance, jumps to
        the exit.  ``nxt[q]`` is ``_successors``' entry, the L position the
        walk then leaves by, or 0 if the edge reaches a sample.  ``val[q]`` is
        what the hop adds to the walk's sum: its steps (1, or 2 with a jump)
        in the low 32 bits, and above them the position of the sample
        reached less 1, or minus the distance travelled.  Entry 0, 0 and 0,
        is the hop of a finished walk.  Every hop that leaves is one that
        ``_fstep`` takes, by the argument in ``TextIndex``: the landing copy
        is within the exit's out-degree, and every sink is a sample."""
        succ, ent, dist = self._successors()
        got = self._samp.take(np.frombuffer(self.tg._step_to, np.int32))
        val = (got - 1).astype(np.int64) * 2 ** 32 + 1
        val[ent] -= dist.astype(np.int64) * 2 ** 32 - (dist != 0)  # the jump's distance and step
        succ *= got == 0  # a hop that reaches a sample stops (a multiply beats a masked store)
        val[0] = 0
        return succ, val

    def _successors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(succ, ent, dist), the step rule as arrays by L position, made
        afresh on each call for the hop table and extract's table.
        ``succ[q]``, int32, is the edge that ``_fstep`` takes next from edge
        q's target, at the copy q lands on (copy 1 after an in-tunnel move,
        whose entry no walk reads, as walks jump); where q enters a tunnel's
        entrance, the edge by which the walk leaves the exit at that copy.
        It is 0 only into a sink and at q = 0.  ``ent`` holds the L
        positions of the edges into entrances and ``dist`` each one's
        distance to its exit.  No copy needs a check (``TextIndex``)."""
        tg = self.tg
        lstart = np.frombuffer(tg.g._lstart, np.int64)
        to = np.frombuffer(tg._step_to, np.int32)
        q = lstart.take(to) + 1
        ent = self._into(np.fromiter(tg.entrance_info, np.int64, len(tg.entrance_info)))
        exits, dist = self._exits(to.take(ent))
        q[ent] = lstart.take(exits) + np.frombuffer(tg._step_land, np.int32).take(ent)
        q[self._into(np.flatnonzero(lstart[2:] == lstart[1:-1]) + 1)] = 0
        succ = q.astype(np.int32)
        succ[0] = 0
        return succ, ent, dist

    def _exits(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The exit of each given tunnel node and its distance to it, as
        ``_walk_tunnels`` orders them: two int32 arrays."""
        c = np.asarray(self._slot).take(nodes)
        dist = np.asarray(self._to_exit).take(c)
        return np.asarray(self._chain).take(c - dist), dist

    def _into(self, nodes: np.ndarray) -> np.ndarray:
        """The L positions of the edges into the given nodes."""
        istart = np.frombuffer(self.tg.g._istart, np.int64)
        first = istart.take(nodes)
        j = _expand(first + 1, istart.take(nodes + 1) - first)[1]
        return np.frombuffer(self.tg._pos, np.int32).take(j)

    def _lockstep(self, q: np.ndarray, acc: np.ndarray, counter: StepCounter) -> np.ndarray:
        """Text positions of the walks that leave by L positions q with sums
        acc, as ``_starts`` gives them, walked together: each round adds
        every walk's next ``_round_hops`` hops to its sum (in place) and
        moves it on by the hop table, until every walk stands at 0.  A walk
        takes at most n hops, so it ends within ceil(n / hops) rounds; one
        that has not, as on a file whose steps cycle, raises FormatError."""
        nxt, val = self._hops
        for _ in range(-(-self.n // self._round_hops) + 1):
            if not np.count_nonzero(q):
                break
            acc += val.take(q)
            q = nxt.take(q)
        else:
            raise FormatError(f"found no sample in {self.n} steps")
        counter.steps += int((acc & 0xFFFFFFFF).sum())
        return acc >> 32

    # -- extracting -----------------------------------------------------------------

    @cached_property
    def _extract_tables(self) -> tuple[memoryview, bytes]:
        """(succ, moves), extract's tables, made on the first extract.
        ``succ`` is ``_successors``' table, a memoryview of int32, 4 bytes
        per L position, negated where q enters a tunnel's entrance: there it
        names the out-edge by which the walk leaves the exit.  ``moves``
        holds each tunnel node's in-tunnel move byte, 0 at an exit, in the
        order of ``_chain`` reversed, so that the bytes a walk reads from
        ``_chain[i]`` to its exit start at ``len(moves) - 1 - i`` and are
        contiguous: one byte per tunnel node."""
        succ, ent, _ = self._successors()
        succ[ent] *= -1
        chain = np.asarray(self._chain)[:-1]
        byte = np.frombuffer(self.tg._step_byte, np.uint8).take(
            np.frombuffer(self.tg.g._lstart, np.int64).take(chain) + 1)
        moves = np.where(np.asarray(self._to_exit)[:-1] > 0, byte, 0).astype(np.uint8)
        return memoryview(succ), moves[::-1].tobytes()

    def extract(self, start: int, length: int,
                counter: StepCounter | None = None) -> bytes:
        """T[start .. start+length-1] (1-based, inclusive).

        One loop walks from the nearest sample at or before ``start``
        through ``start + length - 1`` and reads every byte on the way off
        ``succ`` (``_extract_tables``, made on the first extract).  A
        positive entry names the next edge: two reads and a store a byte.
        A negative one follows an edge into a tunnel's entrance: the
        tunnel's bytes up to its exit, or up to the last one wanted, are one
        slice of ``moves``, and the walk goes on at the negated entry, the
        exit's out-edge for the copy it landed on.  The walk starts at copy
        1 of the sample, or of the source's exit after the source's tunnel
        slice.  It raises on a step past the sink, which samples with
        swapped positions reach: at the start, or where ``succ`` reads 0
        with bytes still wanted.  It needs no copy check (``TextIndex``).
        Each pass of the loop reads at least one byte, so it ends after at
        most ``start + length - pos`` of them, pos the sample's position.
        The counter gets a step for each byte read before ``start``, but one
        for each tunnel slice begun there, and one for each byte returned."""
        if start < 1 or length < 0 or start + length - 1 > self.text_len:
            raise BoundsError(
                f"extract({start},{length}) outside text of length {self.text_len}")
        if length == 0:
            return b""
        counter = counter if counter is not None else StepCounter()
        lstart, step_to, step_byte = self.tg.g._lstart, self.tg._step_to, self.tg._step_byte
        slot, to_exit = self._slot, self._to_exit
        succ, moves = self._extract_tables
        rev = len(moves) - 1
        idx = bisect_right(self.ext_pos, start) - 1
        # the first sample may sit past `start` when the source node lives
        # inside a tunnel; the source is always rank 1, copy 1
        pos, node = (self.ext_pos[idx], self.ext_node[idx]) if idx >= 0 else (1, 1)
        seek, total = start - pos, start + length - pos
        out = bytearray(total)
        j = saved = 0  # bytes read; seek steps saved by tunnel slices
        if self.tg._kind[node]:
            # the source can be an entrance: read up to its exit at once
            i = slot[node]
            j = min(to_exit[i], total)
            out[:j] = moves[rev - i:rev - i + j]
            saved = max(min(j, seek) - 1, 0)
            node = self._chain[i - j]
        p = lstart[node] + 1  # copy 1 of a sample or of the source's exit
        if j < total and p > lstart[node + 1]:
            raise BoundsError("walked past the sink")
        while j < total:
            for j in range(j, total):
                out[j] = step_byte[p]
                q = succ[p]
                if q <= 0:
                    break
                p = q
            j += 1  # out[j] was written, whether succ ran out or the walk did
            if q >= 0:
                if j < total:
                    raise BoundsError("walked past the sink")
                break
            # edge p enters a tunnel, whose moves keep the copy: read up
            # to the exit at once, then leave it by the edge -q names
            i = slot[step_to[p]]
            k = min(to_exit[i], total - j)
            out[j:j + k] = moves[rev - i:rev - i + k]
            if j < seek and k:
                saved += min(k, seek - j) - 1
            j += k
            p = -q
        counter.steps += total - saved
        del out[:seek]
        return bytes(out)

    # -- bookkeeping ------------------------------------------------------------------

    def stats(self) -> dict:
        """Sizes of the index, of its k-gram table (k, its keys and its
        resident bytes), of its hop table (the hops a lockstep round takes,
        the least power of 2 at or above ``sample_rate_n``, and its resident
        bytes), of its start table (its resident bytes, 0 on an index
        without tunnels, whose ranges never read it) and of extract's tables
        (their resident bytes), each made here if no query has made it."""
        k, keys, states = self._kgrams
        nxt, val = self._hops
        starts = self._start_table if self.tg.tunnels else ()
        succ, moves = self._extract_tables
        return {
            "n": self.n,
            "n_t": self.tg.g.n,
            "m_t": self.tg.g.m,
            "sigma": self.tg.g.sigma,
            "tunnels": len(self.tg.tunnels),
            "sample_rate_n": self.sample_rate_n,
            "sample_rate_t": self.sample_rate_t,
            "kgram_k": k,
            "kgram_keys": len(keys),
            "kgram_bytes": sum(map(sys.getsizeof, [keys, *states])),
            "hops_per_round": self._round_hops,
            "hop_bytes": nxt.nbytes + val.nbytes,
            "start_bytes": sum(a.nbytes for a in starts),
            "extract_bytes": succ.nbytes + len(moves),
        }

    def __repr__(self) -> str:
        return (f"TextIndex(|T|={self.text_len}, n_t={self.tg.g.n}, "
                f"tunnels={len(self.tg.tunnels)})")


def build_index(text: bytes, *, sample_rate_n: int | None = None,
                tunneling: bool = True) -> TextIndex:
    """Build the full index: string graph, block discovery (blocks of width
    and length >= 2, each merging an edge), tunneling, and all sampling
    structures.  With tunneling off this degenerates to a plain FM-index.
    The skip stride is ceil(log2 n_t)."""
    if isinstance(text, str):
        raise TypeError("text must be bytes")
    if sample_rate_n is not None and sample_rate_n < 1:
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
    rate_t = max(1, math.ceil(math.log2(max(2, tg.g.n))))

    # run-contracted text-order sequence: one element per non-tunnel node,
    # one per run of text positions through one tunnel.  A run starts at its
    # tunnel's entrance and rows of one block lie at least s+1 positions
    # apart, so an element starts at every position whose node is not inner.
    # A sample on a tunnel element moves to the next plain one, which may hold the next.
    node = tg.node_map[rank[1:]]  # by text position - 1
    first = np.flatnonzero(tg.inner_marks.bits()[node - 1] == 0)
    plain = np.flatnonzero(np.isin(node[first], [t.entrance for t in tg.tunnels], invert=True))
    wanted = np.r_[1, np.arange(rate_n, len(first) + 1, rate_n), len(first)]
    at_plain = np.unique(first[plain[np.searchsorted(plain, wanted - 1)]])

    tg.node_map = None  # needed only to place the samples above
    return TextIndex(tg, n, rate_n, rate_t, node[at_plain], at_plain + 1)
