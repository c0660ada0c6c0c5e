"""Text self-index on a tunneled Wheeler graph.

The Wheeler graph of a string is a path whose node order is the colex order
of prefixes, i.e. the suffix array of the reversed text; its label array is
the BWT of the reversed text.  After tunneling, count / locate / extract are
answered with sampling structures:

* text-position samples on plain nodes of the run-contracted node sequence
  for locate and extract,
* cumulative tunnel-width sums at aligned ranks for count,
* skip pointers inside long tunnels, at the exits and distances that
  ``_skip_pairs`` reads off the records, and the backpointers they give.

A walk that reaches a tunnel at its entrance crosses it in one jump: the
tunnel record gives the exit and the length.  Skip pointers serve only walks
that start inside a tunnel, and extract's back hop to a position inside one.
All copies of a tunnel node share one walk to the exit, where the walk
splits by copy.  Walks trust the records and the samples: ``TextIndex``
checks them for every producer.

Locate walks each occurrence to the next text-order sample (Ferragina &
Manzini 2005).  The range's tunnel nodes walk to their exits first, once
each; a range of ``_LOCKSTEP_MIN_STARTS`` (node, copy) starts or more then
walks them all in lockstep on numpy arrays, one step a round: retire the
walks at a sample, jump those at an entrance to the exit, step the rest.  A
round's numpy calls cost the same however few walks are live, so a smaller
range walks one start at a time; the threshold is the measured break-even.

A forward step takes a known out-edge: a node's only one, or the one of its
copy at a tunnel exit.  So no walk ranks L: the step reads the edge's
target, landing copy and label from the graph's step table, the landing
rule decoded once per L position when the graph is made.  ``_fstep`` is
that rule; ``extract`` writes it out in its seek and output loops, with
the same checks, so a change to the step rule must update both.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .bitvec import LabelSeq
from .errors import BoundsError, FormatError, InvariantError, ValidationError
from .tunnel import (_ENTRANCE, Block, TraversalPos, TunneledGraph, find_string_blocks,
                     tunnel_graph)
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
# on the 20 KB benchmark indexes (CPython 3.11, numpy 2.4): the lockstep walk
# took 80-140 us at 1-4 starts against 6-16 us for the single walks, broke
# even near 30 starts on fib-locate and 48 on cpm4-build, and took 262
# against 762 us at 188 starts on cpm4-build
_LOCKSTEP_MIN_STARTS = 40


@dataclass
class StepCounter:
    """Counts graph traversal operations: forward steps, and jumps by a
    tunnel record or a skip pointer."""

    steps: int = 0


class TextIndex:
    """Tunneled FM-index over a byte string: count, locate, extract.

    ``skip`` lists the pointer nodes in the order of ``_skip_pairs``.  Walks
    trust what the constructor checks for every producer: it raises
    ValidationError unless both rates are >= 1, the records account for the
    n original nodes, each exit's out-degree and entrance's in-degree (one
    less at rank 1) is its width, the pointers are distinct tunnel nodes,
    ``loc`` maps plain nodes to distinct positions in [1..n], and ``cnt`` is
    n_t // rate_t + 1 non-decreasing samples from 0 to at most n, k rate_t
    without tunnels."""

    def __init__(self, tg: TunneledGraph, n: int, sample_rate_n: int,
                 sample_rate_t: int, skip, loc, cnt):
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
        nodes, pairs = np.asarray(skip, np.int64), _skip_pairs(tg.tunnels, rate_t)
        if len(nodes) != len(pairs) or not _distinct_in(nodes, 1, nt) or not kind[nodes].all():
            raise ValidationError(f"skip pointers must sit on {len(pairs)} distinct tunnel "
                                  f"nodes in [1..{nt}]")
        pos = np.fromiter(loc.values(), np.int64, len(loc))
        at = np.fromiter(loc, np.int64, len(loc))
        if ((at < 1) | (at > nt)).any() or kind[at].any() or not _distinct_in(pos, 1, n) \
                or pos.max(initial=0) != n:
            raise ValidationError(f"loc must map plain nodes in [1..{nt}] to distinct "
                                  f"positions in [1..{n}], {n} among them")
        cnt = np.asarray(cnt, np.int64)
        if (len(cnt) != nt // rate_t + 1 or cnt[0] or cnt[-1] > n or (np.diff(cnt) < 0).any()
                or not tg.tunnels and (cnt != np.arange(0, nt + 1, rate_t)).any()):
            raise ValidationError(f"cnt must hold {nt // rate_t + 1} non-decreasing samples from "
                                  f"0 to at most {n}, k * {rate_t} without tunnels")
        self.tg = tg
        self.n = n                       # |T| + 1, node count of the original graph
        self.sample_rate_n = sample_rate_n
        self.sample_rate_t = sample_rate_t
        self.skip = dict(zip(nodes.tolist(), pairs))  # pointer node -> (exit rank, distance)
        self.back = {}                   # exit rank -> [(distance, node)] ascending
        for node, (exit_rank, dist) in self.skip.items():
            self.back.setdefault(exit_rank, []).append((dist, node))
        self.loc = loc                   # non-tunnel node rank -> text position
        self.cnt = cnt.tolist()          # cumulative widths at rank multiples
        by_pos = np.argsort(pos)         # the samples by text position, for extract to bisect
        self.ext_pos = pos[by_pos].tolist()
        self.ext_node = at[by_pos].tolist()
        by_node = np.argsort(at)         # and by node, for the lockstep walk to search
        self._loc_at, self._loc_pos = at[by_node], pos[by_node]
        # the records' entrances, exits and lengths - 1, by entrance
        self._entr = np.array(sorted((t.entrance, t.exit, t.length - 1) for t in tg.tunnels),
                              np.int64).reshape(-1, 3).T

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

    def _to_exit(self, v: int, counter: StepCounter) -> tuple[int, int]:
        """(exit, distance) of the tunnel node v: its tunnel's exit and the
        text positions from v to it.  An entrance reads both off its tunnel
        record; an inner node follows skip pointers and single edges until
        it reaches a node whose out-degree is not 1."""
        rec = self.tg.entrance_info.get(v)
        if rec is not None:
            counter.steps += 1
            return rec.exit, rec.length - 1
        lstart, step_to, skip = self.tg.g._lstart, self.tg._step_to, self.skip
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
        # copies lo_off.. of lo up to copy hi_off of hi: hi's width counts
        # only when the range holds all of hi (hi_off None)
        if hi_off is None:
            return self._range_weight(lo, hi, counter) - (lo_off - 1)
        return self._range_weight(lo, hi - 1, counter) + hi_off - (lo_off - 1)

    def _range_weight(self, lo: int, hi: int, counter: StepCounter) -> int:
        """Sum of w(v) over ranks [lo..hi]: the aligned samples inside it,
        and at each end the widths up to the nearer sample, added or taken
        off, at most ~sample_rate_t width evaluations in all.  Without
        tunnels every width is 1, so the sum is the range's size."""
        if not self.tg.tunnels:
            return hi - lo + 1
        rt, kind = self.sample_rate_t, self.tg._kind

        def widths(first: int, last: int) -> int:
            return sum(self.node_width(v, counter) if kind[v] else 1
                       for v in range(first, last + 1))

        a = (lo - 1 + rt - 1) // rt   # smallest aligned index >= lo-1
        b = hi // rt                  # largest aligned index <= hi
        if a > b:
            return widths(lo, hi)
        if lo - 1 - (a - 1) * rt < a * rt - (lo - 1):  # the sample below lo - 1 is nearer
            a -= 1
            left = -widths(a * rt + 1, lo - 1)
        else:
            left = widths(lo, a * rt)
        if (b + 1) * rt - hi < hi - b * rt and (b + 1) * rt <= self.tg.g.n:
            b += 1
            right = -widths(hi + 1, b * rt)
        else:
            right = widths(b * rt + 1, hi)
        return self.cnt[b] - self.cnt[a] + left + right

    # -- locating ----------------------------------------------------------------

    def locate_one(self, p: TraversalPos, counter: StepCounter | None = None) -> int:
        """Text position (1-based) of the original node at the simulated
        position p; raises BoundsError unless p is a position of the graph."""
        self.tg.check_pos(p)
        return self._walk(p.node, p.offset, counter if counter is not None else StepCounter())

    def _walk(self, node: int, off: int, counter: StepCounter) -> int:
        """Text position of copy ``off`` of the node: walk forward to the
        next text-order sample, crossing each tunnel in one jump to its exit,
        and subtract the travelled distance."""
        travelled = 0
        loc, kind = self.loc, self.tg._kind
        for _ in range(self.n):
            pos = loc.get(node)
            if pos is not None:
                return pos - travelled
            if kind[node]:
                node, dist = self._to_exit(node, counter)
                travelled += dist
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
        lstart, kind = self.tg.g._lstart, self.tg._kind
        nodes, offs, dists = [], [], []
        nxt = lo
        for v in [v for v in range(lo, hi + 1) if kind[v]] + [hi + 1]:
            nodes += range(nxt, v)  # the plain nodes before v
            offs += [1] * (v - nxt)
            dists += [0] * (v - nxt)
            if v > hi:
                break
            node, dist = self._to_exit(v, counter)
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
        a sample, jumps the walks at a tunnel entrance to its record's exit
        and steps every walk left once through the step table.  A walk has
        travelled its distance, its jumps and the rounds before it retires."""
        tg = self.tg
        kind = np.frombuffer(tg._kind, np.uint8)
        lstart = np.frombuffer(tg.g._lstart, np.int64)
        step_to = np.frombuffer(tg._step_to, np.int32)
        step_land = np.frombuffer(tg._step_land, np.int32)
        at, pos, (entrances, exits, lengths) = self._loc_at, self._loc_pos, self._entr
        node, off, base = (np.array(a, np.int64) for a in (nodes, offs, dists))
        lend, below_last, tunneled = lstart[1:], at[:-1], len(entrances) > 0
        count, done = np.count_nonzero, []
        for rnd in range(self.n):
            i = below_last.searchsorted(node)  # the sample at or after the node, or the last
            hit = at[i] == node
            if count(hit):
                h = hit.nonzero()[0]
                done.append(pos[i[h]] - base[h] - rnd)
                live = (~hit).nonzero()[0]
                if not len(live):
                    return np.concatenate(done)
                node, off, base = node[live], off[live], base[live]
            if tunneled:
                ent = (kind[node] == _ENTRANCE).nonzero()[0]  # never inner-marked
                if len(ent):
                    j = entrances.searchsorted(node[ent])
                    node[ent] = exits[j]
                    base[ent] += lengths[j]
                    counter.steps += len(ent)
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
        crossing each tunnel by its record until the target lies inside one,
        then hopping back from its exit and stepping; it then steps once per
        output byte.  Both loops write out ``_fstep``'s step, checks
        included, and add their steps to the counter at the end."""
        if start < 1 or length < 0 or start + length - 1 > self.text_len:
            raise BoundsError(
                f"extract({start},{length}) outside text of length {self.text_len}")
        if length == 0:
            return b""
        counter = counter if counter is not None else StepCounter()
        tg = self.tg
        kind, lstart = tg._kind, tg.g._lstart
        step_to, step_land, step_byte = tg._step_to, tg._step_land, tg._step_byte
        idx = bisect_right(self.ext_pos, start) - 1
        if idx >= 0:
            pos, node, off = self.ext_pos[idx], self.ext_node[idx], 1
        else:
            # the first sample may sit past `start` when the source node
            # lives inside a tunnel; the source is always rank 1, copy 1
            pos, node, off = 1, 1, 1
        steps, inside = 0, False
        for _ in range(self.n):
            if pos >= start:
                break
            if kind[node] and not inside:
                exit_rank, dist = self._to_exit(node, counter)
                if pos + dist > start:
                    # target lies inside this tunnel: hop to the exit's
                    # backpointer closest before the target, then step
                    # (no pointer sits between that backpointer and the target)
                    node, pos = self._back_hop(exit_rank, pos + dist, start, node, pos)
                    steps += 1
                    inside = True
                    continue
                node, pos = exit_rank, pos + dist
                if pos == start:
                    break
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


def _distinct_in(vals: np.ndarray, lo: int, hi: int) -> bool:
    """Whether the ints are distinct and in [lo..hi].  A sort: ``np.unique``
    hashes, ten times slower on the 1,334 loc positions of a 20 KB index."""
    vals = np.sort(vals)
    return not len(vals) or (lo <= vals[0] and vals[-1] <= hi and (np.diff(vals) > 0).all())


def _skip_pairs(tunnels, rate_t: int) -> list[tuple[int, int]]:
    """(exit, distance) of every skip pointer, in file order: by exit, then
    by ascending distance s - j, j = rate_t, 2 rate_t, ... < s for a tunnel
    of length s, so (s - 1) // rate_t of them."""
    return [(t.exit, d) for t in sorted(tunnels, key=attrgetter("exit"))
            for d in range((t.length - 1) % rate_t + 1, t.length, rate_t)]


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
    nt = tg.g.n
    rate_n = sample_rate_n if sample_rate_n is not None else \
        max(1, math.ceil(math.log2(max(2, n))))
    rate_t = sample_rate_t if sample_rate_t is not None else \
        max(1, math.ceil(math.log2(max(2, nt))))

    # tg.tunnels lists the tunnels in block order; the skip pointer at
    # distance d from an exit is the root of column s - d of its tunnel
    phi = tg.node_map
    widths = np.ones(nt + 1, dtype=np.int64)
    roots = {}  # exit -> the tunnel's column roots
    for blk, rec in zip(expanded, tg.tunnels):
        roots[rec.exit] = phi[[col[0] for col in blk.columns]].tolist()
        widths[roots[rec.exit]] = blk.width
    skip = [roots[e][-1 - d] for e, d in _skip_pairs(tg.tunnels, rate_t)]
    cumulative = np.cumsum(widths[1:])
    if nt and int(cumulative[-1]) != n:
        raise InvariantError("width conservation broke: every original node "
                             "must be counted exactly once")
    cnt = np.append(0, cumulative[rate_t - 1::rate_t])

    # run-contracted text-order sequence: one element per non-tunnel node,
    # one per run of text positions through one tunnel.  A run starts at its
    # tunnel's entrance and rows of one block lie at least s+1 positions
    # apart, so an element starts at every position whose node is not inner.
    # A sample that falls on a tunnel element moves to the next plain one.
    node = phi[rank[1:]]  # by text position - 1
    first = np.flatnonzero(tg.inner_marks.bits()[node - 1] == 0)
    plain = np.flatnonzero(np.isin(node[first], [t.entrance for t in tg.tunnels], invert=True))
    wanted = sorted({1, len(first), *range(rate_n, len(first) + 1, rate_n)})
    at_plain = first[plain[np.searchsorted(plain, np.array(wanted) - 1)]]
    loc = dict(zip(node[at_plain].tolist(), (at_plain + 1).tolist()))

    tg.node_map = None  # needed only to place the samples above
    return TextIndex(tg, n, rate_n, rate_t, skip, loc, cnt)
