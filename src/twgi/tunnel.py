"""Block recognition, block discovery, the tunneling transform, and
traversal / path search on tunneled Wheeler graphs.

A block is a family of w label-isomorphic subtrees whose column tuples
occupy consecutive Wheeler ranks; tunneling collapses the w copies into
one, redirecting boundary edges.  Traversal of the original graph is
simulated on the tunneled one with (node, tunnel offset) pairs; the copy
an edge lands on and the copy an exit edge leaves are decoded when the graph
is made, so a traversal does no arithmetic on I' and O'.

``tunnel_graph`` checks all blocks at once and collapses them with array
operations over the graph's edge arrays.  The tunneled rank phi counts the
nodes outside rows 2..w; a node in row >= 2 takes phi[v - row + 1], its
row-1 node's, as condition (i) makes each column a run of consecutive
ranks.  The kept edges are a mask (no edge inside a row >= 2).  I' and O'
mark the first kept edge into each original target and out of each original
(source, label) group: both are contiguous in edge order.

On the path graph of a text, blocks are runs of colex-adjacent nodes that
keep moving together (Baier, CPM 2018), and ``find_string_blocks`` measures
them without a walk.  The pair (r, r+1) extends ext[r] columns: 0 at the
sink or where the two successors stop being adjacent, 1 where the out-labels
differ, else 1 + ext[succ(r)].  A run of rows lasts the least ext over its
pairs, cut one short of the smallest gap d between the rows' text positions
(column d would revisit a row).  A tunnel must merge an edge, so w, s >= 2.

One landing rule places an edge, and the graph decodes it once, with one
stable sort of L, into the step table: per L position the edge's target, its
landing copy and its label byte.  An edge into an inner node keeps the copy
(landing copy 0); one into entrance r enters copy width - (I' ones among r's
in-edges after it), since each root with in-edges opens one I' group and the
roots without in-edges come first in Wheeler order, so the groups are the
last copies; any other edge lands at offset 1.  By block condition (v) only
in-tunnel moves reach inner nodes, so the target alone tells whether an
edge carries the copy.  ``land`` reads the table through the L position of
each edge rank, and the text walks, which take one known out-edge at a time,
read it by L position.

The exit-copy table holds, by edge rank, the copy that each edge leaving a
tunnel node, other than an in-tunnel move, leaves from (0 for any other
edge): the transform reads it off the block rows, an index file off the
exits' out-edge slots, and ``exit_copies`` is its dict view.  Kept edges
sort by (label, tunneled source, original source), and the rows of a column
are consecutive original ranks, ascending with the copy; so inside one label
range of one tunnel node the exit copy never falls as the edge rank rises.
``TunneledGraph`` checks the records, marks and exit copies of every graph.

A search step ranks L once for a node range; only its end nodes take the
copy rule, and every node between them takes all its edges (Gagie, Manzini
and Siren's range search with Baier's tunnel offsets).  ``_search_pairs``
writes the step out: it ranks L as ``LabelSeq.rank`` does and lands both
ends by the step table.  A tunnel end of one out-edge needs no rank: it
keeps its copy on an in-tunnel move and drops it on an edge of another
label.  ``_edges``, the one narrowing rule, which ``step`` calls too, takes
any other tunnel end by at most one binary search over the exit-copy table.
A graph without tunnels is searched the same way, as
``tunnel_graph(g, [])``: no node is marked, every edge lands at offset 1,
and the step is the plain range step.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .bitvec import _BLOCK_BITS, _NEEDLE, BitVec
from .errors import BoundsError, InvariantError, NotFoundError, ValidationError
from .wheeler import CheckResult, NodeRange, WheelerGraph, _encode


@dataclass
class Block:
    """A width-w, size-s family of label-isomorphic subtrees.

    ``columns[j]`` holds the j-th column tuple (v_{1,j}, .., v_{w,j});
    ``columns[0]`` are the subtree roots.  Column tuples occupy consecutive
    Wheeler ranks, ascending with the row index.
    """

    width: int
    size: int
    columns: list[tuple[int, ...]]
    entry_label: int | None = field(default=None, compare=False)

    def node_set(self) -> set[int]:
        return {v for col in self.columns for v in col}

    def key(self):
        return (self.width, self.columns[0], frozenset(self.columns[1:]))


@dataclass(frozen=True)
class StringBlock:
    """Path-graph specialization: s collapsed columns starting at the run
    of ranks [start_rank .. start_rank+width-1]; the implied block has s+1
    column tuples, the last staying uncollapsed."""

    start_rank: int
    width: int
    length: int

    def expand(self, g: WheelerGraph) -> Block:
        s_max, cols = derive_string_block(g, self.start_rank, self.width)
        if s_max < self.length:
            raise ValidationError(
                f"string block ({self.start_rank},{self.width},{self.length})"
                f" only extends to length {s_max}")
        entry = g.in_label(self.start_rank)
        entry_byte = g.label_byte(entry) if entry is not None else None
        return Block(self.width, self.length, cols[:self.length], entry_byte)


@dataclass(frozen=True)
class TraversalPos:
    """A simulated position in the original graph: tunneled node rank plus
    the tunnel offset (which collapsed copy we are in; 1 outside tunnels)."""

    node: int
    offset: int = 1


@dataclass(frozen=True)
class TunnelRecord:
    entrance: int   # tunneled rank of the collapsed root column
    exit: int       # tunneled rank of the last collapsed column
    width: int
    length: int


# ---------------------------------------------------------------------------
# block checking


def check_block(g: WheelerGraph, b: Block) -> CheckResult:
    """Verify the five block conditions against the graph."""
    bad = _check_blocks(g.n, g.edge_arrays(), [b])
    return CheckResult.good() if bad is None else bad[1]


def _entries(blocks: list[Block]):
    """One entry per listed block node, column by column: (block, node,
    row, column) as int64 arrays, rows and columns counted from 1."""
    columns = list(chain.from_iterable(b.columns for b in blocks))
    ncols = np.array([len(b.columns) for b in blocks], np.int64)
    col_block, col_num = _expand(np.zeros(len(blocks), np.int64), ncols)
    col, row = _expand(np.zeros(len(columns), np.int64),
                       np.fromiter(map(len, columns), np.int64, len(columns)))
    nodes = np.fromiter(chain.from_iterable(columns), np.int64, len(col))
    return col_block[col], nodes, row + 1, col_num[col] + 1


def _expand(lo, deg):
    """(owner, position) of every slot of the runs [lo[k], lo[k] + deg[k])."""
    owner = np.repeat(np.arange(len(deg)), deg)
    return owner, np.arange(int(deg.sum())) + np.repeat(lo - (np.cumsum(deg) - deg), deg)


def _check_blocks(n: int, edges, blocks: list[Block]) -> tuple[int, CheckResult] | None:
    """The first block to fail a block condition, as (index, result), or
    None; a malformed block raises ValidationError unless one before it
    fails.  ``edges`` are the graph's (sources, targets, labels).

    All blocks are checked at once; each reports the first it fails of
    bounds, distinct, (i), (ii) subtree shape and isomorphism, (iii), (iv)
    and (v).  Each listed node is an entry keyed by (block, node); an
    out-edge is internal when it reaches an entry of the same block and
    row, cross when it reaches another row.  (ii) needs internal in-degree
    0 at roots and 1 elsewhere, and one (parent column, label) across the
    rows of a column; (v) groups out-edges by (column, label, row).
    """
    shaped = next((i for i, b in enumerate(blocks) if b.width < 1 or b.size < 1
                   or len(b.columns) != b.size or any(len(col) != b.width for col in b.columns)),
                  None)
    if shaped is not None:
        found = _check_blocks(n, edges, blocks[:shaped])
        if found is None:
            raise ValidationError("malformed block: column shape does not match width/size")
        return found
    if not blocks:
        return None
    src, tgt, lab = edges
    eb, ev, er, ec = _entries(blocks)
    nb, ne = len(blocks), len(ev)
    width = np.array([b.width for b in blocks], np.int64)[eb]
    top = np.arange(ne) - (er - 1)  # the row-1 entry of each entry's column
    inb = (ev >= 1) & (ev <= n)
    node = np.where(inb, ev, 0)  # node 0 has no edges
    key = eb * (n + 1) + node
    order = np.argsort(key, kind="stable")
    skey = key[order]

    outdeg, indeg = np.bincount(src, minlength=n + 2), np.bincount(tgt, minlength=n + 2)
    k, at = _expand((np.cumsum(outdeg) - outdeg)[node], outdeg[node])
    j = np.argsort(src, kind="stable")[at]
    c, q = lab[j], eb[k] * (n + 1) + tgt[j]
    hit = np.minimum(np.searchsorted(skey, q), ne - 1)
    t = np.where(skey[hit] == q, order[hit], -1)  # the target's entry in the block
    internal = (t >= 0) & (er[t] == er[k])
    cross = (t >= 0) & ~internal

    # (ii): the parents inside the row, then each parent's column and label
    parents = np.bincount(t[internal], minlength=ne)
    parent = np.full(ne, -1)
    parent[t[internal]] = ec[k[internal]] * 256 + c[internal]
    shape_bad = parents != (ec > 1)
    iso_bad = (ec > 1) & (parent != parent[top])

    # (iii): one label on every edge into a root
    rk, at = _expand((np.cumsum(indeg) - indeg)[node], np.where(ec == 1, indeg[node], 0))
    lo, hi = np.full(nb, 256), np.full(nb, -1)
    np.minimum.at(lo, eb[rk], lab[at])
    np.maximum.at(hi, eb[rk], lab[at])
    stored = np.array([-1 if b.entry_label is None else b.entry_label for b in blocks])
    mixed = hi > lo

    # (v): per column and label, one internal edge and no other in every
    # row, or no internal or cross edge in any row
    groups, inv = np.unique(k * 256 + c, return_inverse=True)
    n_int = np.bincount(inv, internal)
    case_a = (n_int == 1) & (np.bincount(inv) == 1)
    cols, cinv = np.unique(top[groups // 256] * 256 + groups % 256, return_inverse=True)
    cv, cl = cols // 256, cols % 256
    v_bad = ((np.bincount(cinv, case_a) < width[cv])
             & (np.bincount(cinv, (n_int > 0) | (np.bincount(inv, cross) > 0)) > 0))

    def ii_detail(e):
        if shape_bad[e] and ec[e] == 1:
            return f"root {ev[e]} has an in-edge inside its subtree"
        if shape_bad[e]:
            return f"node {ev[e]} has {parents[e]} parents inside subtree {er[e]}"
        pc, pl = divmod(int(parent[top[e]]), 256)
        u = ev[top[e] + (pc - ec[e]) * width[e]]
        return f"edge ({u},{ev[top[e]]},{pl}) of subtree 1 has no counterpart in subtree {er[e]}"

    stages = [  # (condition, failing items, the block of each item, detail of an item)
        ("bounds", ~inb, eb, lambda e: f"node rank {ev[e]} outside [1..{n}]"),
        ("distinct", np.isin(np.arange(ne), order[1:][skey[1:] == skey[:-1]]), eb,
         lambda e: "block nodes are not pairwise distinct"),
        ("i", (er < width) & (np.append(ev[1:], 0) != ev + 1), eb,
         lambda e: f"column {ec[e]} is not a run of consecutive ranks"),
        ("ii", shape_bad | iso_bad, eb, ii_detail),
        ("iii", mixed | ((hi >= 0) & (stored >= 0) & (stored != lo)), np.arange(nb),
         lambda b: (f"edges into the roots carry labels {lo[b]} and {hi[b]}" if mixed[b]
                    else "stored entry label does not match the graph")),
        ("iv", (ec > 1) & (indeg[node] != 1), eb,
         lambda e: f"node {ev[e]} has in-degree {indeg[node[e]]}, expected 1"),
        ("v", v_bad, eb[cv],
         lambda i: f"column {ec[cv[i]]}, letter {cl[i]}: neither uniformity case holds"),
    ]
    fails = np.zeros((len(stages), nb), bool)
    for s, (_, bad, owner, _) in enumerate(stages):
        fails[s, owner[bad]] = True
    failed = np.flatnonzero(fails.any(axis=0))
    if not failed.size:
        return None
    b = int(failed[0])
    cond, bad, owner, detail = stages[int(np.argmax(fails[:, b]))]
    return b, CheckResult.bad(cond, detail(np.flatnonzero(bad & (owner == b))[0]))


def _require_path_graph(g: WheelerGraph) -> None:
    if g.m != g.n - 1:
        raise ValidationError("not a path graph: edge count must be n-1")
    # np.diff(starts)[r] is node r's degree for r >= 1 (index 0 is unused)
    branching = np.flatnonzero((np.diff(g._lstart) > 1) | (np.diff(g._istart) > 1))
    if branching.size:
        raise ValidationError(f"not a path graph: node {branching[0]} has branching degree")


def _walk_string_block(g: WheelerGraph, start: int, w: int, s: int | None = None):
    """Walk and check the column tuples of the string block seeded at
    [start .. start+w-1]: (the tuples that passed, first failed condition as
    (name, detail) or None).  With s, check the block of length s; without,
    stop at the first failure or at the tuple after the first column with
    mixed out-labels, so len(columns) - 1 is the longest valid length.
    """
    if w < 1 or start < 1 or start + w - 1 > g.n:
        return [], ("bounds", f"seed run outside [1..{g.n}]")
    cols = [tuple(range(start, start + w))]
    present = [lab for lab in map(g.in_label, cols[0]) if lab is not None]
    if any(lab != present[0] for lab in present):
        return cols, ("iii", "in-labels of the seed column differ")
    used = set(cols[0])
    j = 1
    while s is None or j <= s:
        last = cols[-1]
        outs = [g.out_label_single(r) for r in last]
        if None in outs:
            return cols, ("ii", f"column {j} contains the sink")
        if any(o != outs[0] for o in outs):
            if s is not None and j < s:
                return cols, ("iii", f"in-labels of column {j + 1} differ")
            s = j
        nxt = tuple(g.edge_target(g.out_edge_rank(r, o, 1)) for r, o in zip(last, outs))
        if any(nxt[i + 1] != nxt[i] + 1 for i in range(w - 1)):
            return cols, ("i", f"column {j + 1} is not consecutive")
        if used.intersection(nxt):
            return cols, ("distinct", f"column {j + 1} overlaps the block")
        cols.append(nxt)
        used.update(nxt)
        j += 1
    return cols, None


def derive_string_block(g: WheelerGraph, start: int, w: int):
    """Greedily derive the longest valid string block at (start, w).

    Returns (s_max, columns) where columns holds the s_max+1 implied tuples
    (just the seed column when s_max = 0, none when the seed is out of
    bounds).  The block of length s passes check_string_block iff
    s <= s_max.
    """
    cols, _ = _walk_string_block(g, start, w)
    return max(len(cols) - 1, 0), cols


def check_string_block(g: WheelerGraph, sb: StringBlock) -> CheckResult:
    """Check the path-graph block conditions for the implied s+1 tuples."""
    _require_path_graph(g)
    if sb.length < 1 or sb.width < 1:
        raise ValidationError("string block needs width >= 1 and length >= 1")
    _, violation = _walk_string_block(g, sb.start_rank, sb.width, sb.length)
    return CheckResult.bad(*violation) if violation else CheckResult.good()


def find_string_blocks(g: WheelerGraph) -> list[StringBlock]:
    """Heuristic block discovery on the Wheeler graph of a string.

    A block of width w and length s merges (w-1)(s-1) edges, so only blocks
    of width and length >= 2 are kept.  Seeds on maximal runs of nodes with
    equal (out-label, in-label), then selects greedily by (w-1)(s-1) with
    ties to smaller start rank.  Overlapping candidates are truncated to
    their longest conflict-free column prefix and re-scored.

    A seed widens only onto the source row.  Any other row next to a seed
    differs in its out-label, leaving the widened block at most 1 long, or
    in its in-label, leaving it 0 long.  The source, rank 1, has no
    in-label, so a seed at rank 2 takes it in when its length holds.

    Lengths come from arrays, not walks.  Column t of row r is the node at
    text position pos[r] + t.  ext[r], the columns by which the pair (r, r+1)
    extends, is 0 if either is the sink or succ(r+1) != succ(r)+1, else 1 if
    their out-labels differ, else 1 + ext[succ(r)], read off a running
    minimum over text order.  The seed [start..start+w-1] is valid up to
    min(ext[start..start+w-2], d-1), d the smallest gap between its rows'
    positions.
    """
    _require_path_graph(g)
    n = g.n
    src, tgt, lab = g.edge_arrays()
    succ, out, inl = np.zeros(n + 2, np.int64), np.full(n + 2, -1), np.full(n + 2, -1)
    succ[src], out[src], inl[tgt] = tgt, lab, lab  # -1: no such edge
    step, path, v = array("q", succ.tobytes()), array("q"), 1  # words, not n int objects
    while v and len(path) < n:
        path.append(v)
        v = step[v]
    if v or len(path) != n:
        raise ValidationError("not a path graph: some nodes lie off the source's path")
    path = np.frombuffer(path, np.int64)
    extends, at = succ[path + 1] == succ[path] + 1, np.arange(n)  # no edge enters node 1
    stop = np.where(extends & (out[path] == out[path + 1]), n, at)
    stop = np.minimum.accumulate(stop[::-1])[::-1]  # where the 1 + ext[succ(r)] chain ends
    pos, ext = np.zeros((2, n + 1), np.int64)
    pos[path], ext[path] = at, stop - at + extends[stop]
    pos, ext = array("q", pos.tobytes()), array("q", ext.tobytes())
    starts = np.flatnonzero(np.diff(out[1:n + 1] * 257 + inl[1:n + 1], prepend=-259)) + 1
    widths = np.diff(starts, append=n + 1)  # runs of equal (out, in), labels -1..255
    seeds = (widths >= 2) & (out[starts] >= 0)

    def longest(start: int, w: int) -> int:
        ps = sorted(pos[start:start + w])
        gap = min(b - a for a, b in zip(ps, ps[1:]))
        return min(min(ext[start:start + w - 1]), gap - 1)

    heap = []
    for start, w in zip(starts[seeds].tolist(), widths[seeds].tolist()):
        s = longest(start, w)
        if s >= 2:
            if start == 2 and longest(1, w + 1) == s:  # the source row
                start, w = 1, w + 1
            heap.append((-(w - 1) * (s - 1), start, w, s))
    heapq.heapify(heap)
    used = bytearray(n)  # collapsed nodes, by text position
    selected = []
    while heap:
        _, start, w, s = heapq.heappop(heap)
        rows, s2 = pos[start:start + w], s
        for p in rows:
            hit = used.find(1, p, p + s2)
            if hit >= 0:
                s2 = hit - p
        if s2 == s:
            selected.append(StringBlock(start, w, s))
            for p in rows:
                used[p:p + s] = b"\x01" * s
        elif s2 >= 2:
            heapq.heappush(heap, (-(w - 1) * (s2 - 1), start, w, s2))
    return sorted(selected, key=lambda sb: sb.start_rank)


# ---------------------------------------------------------------------------
# the tunneling transform


_ENTRANCE, _INNER = 1, 2  # the mark bits of TunneledGraph._kind


class TunneledGraph:
    """A tunneled Wheeler graph with the traversal support structures.

    Holds the succinct graph of G_t, bitvectors I'/O' (first edge per
    original target / per original (source, letter) group), inner marks over
    nodes, per-tunnel records, the step table, the exit-copy table, and the
    original-to-tunneled node map while one is known (``tunnel_graph`` sets
    it; an index file does not store it).  The entrance marks and the
    original node count are read off the records.  With ``exit_copies``
    None the exit copies are the exits' out-edge slots, as on the string
    tunnels of an index file.  Raises ValidationError unless the records
    have their own entrances and exits in [1..n_t], width >= 2, length >= 1;
    sum(length - 1) inner marks, none on an entrance, one on each exit but
    an entrance of length 1; in-edges of inner nodes only from tunnel nodes;
    and exit copies as ``_exit_table`` checks them.
    """

    def __init__(self, g, iprime, oprime, inner_marks, tunnels, exit_copies,
                 node_map=None):
        self.g = g
        self.iprime = iprime
        self.oprime = oprime
        self.inner_marks = inner_marks
        self.tunnels = list(tunnels)
        # a tunnel of width w and length s collapsed (w - 1) s original nodes
        self.orig_n = g.n + sum((t.width - 1) * t.length for t in self.tunnels)
        self.node_map = node_map
        self.entrance_info = {t.entrance: t for t in self.tunnels}
        n, ntun = g.n, len(self.tunnels)
        for t in self.tunnels:
            if not (1 <= t.entrance <= n and 1 <= t.exit <= n and t.width >= 2 and t.length >= 1):
                raise ValidationError(f"{t} needs an entrance and an exit in [1..{n}], "
                                      f"width >= 2 and length >= 1")
        exits = [t.exit for t in self.tunnels]
        if len(self.entrance_info) < ntun or len(set(exits)) < ntun:
            raise ValidationError("two tunnel records share an entrance or an exit")
        # both marks decoded once into one byte per node (index 0 unused):
        # every traversal step reads it, and most nodes carry no mark
        kind = np.zeros(n + 1, np.uint8)
        kind[1:] = inner_marks.bits() * _INNER
        entr = np.array(list(self.entrance_info), np.int64)
        if kind[entr].any():
            raise ValidationError(f"tunnel entrance {entr[kind[entr] > 0][0]} must not "
                                  f"be inner-marked")
        if inner_marks.ones != sum(t.length - 1 for t in self.tunnels):
            raise ValidationError("tunnel records must account for every inner mark")
        if any(t.exit != t.entrance if t.length == 1 else not kind[t.exit] for t in self.tunnels):
            raise ValidationError("a tunnel's exit must be inner-marked, or its entrance "
                                  "when its length is 1")
        kind[entr] |= _ENTRANCE
        self._kind = bytearray(kind.tobytes())
        self._w_max = max((t.width for t in self.tunnels), default=1)
        # the i-th c of L is edge C[c] + i: a stable sort of L gives each
        # edge rank its L position, and the table is indexed by L position
        order = np.argsort(g.L.codes(), kind="stable")
        pos = np.append(0, order + 1).astype(np.int32)
        istart = np.frombuffer(g._istart, np.int64)
        to, lands = np.zeros(g.m + 1, np.int32), np.ones(g.m + 1, np.int32)
        to[1:][order] = np.repeat(np.arange(1, n + 1, dtype=np.int32), np.diff(istart[1:]))
        # an edge lands at copy 1 unless it enters a tunnel (see the module
        # notes): only the in-edges of entrances and the out-edges of
        # tunnel nodes are visited
        deg = istart[entr + 1] - istart[entr]
        owner, j = _expand(istart[entr] + 1, deg)
        ones = np.append(0, np.cumsum(iprime.bits()[j - 1], dtype=np.int64))  # ones[k]: in j[:k]
        width = np.array([t.width for t in self.tunnels], np.int64)
        copy = (width - ones[np.cumsum(deg)])[owner] + ones[1:]
        if copy.min(initial=1) < 1:
            raise ValidationError(f"I' marks more groups into entrance "
                                  f"{entr[owner[np.argmin(copy)]]} than it has copies")
        lands[pos[j]] = copy
        lstart = np.frombuffer(g._lstart, np.int64)
        self._tun = tun = np.flatnonzero(kind)  # the tunnel nodes, ascending
        owner, p = _expand(lstart[tun] + 1, lstart[tun + 1] - lstart[tun])  # L positions
        moves = (kind[to[p]] & _INNER) != 0  # the in-tunnel moves, which keep the copy
        inner = tun[(kind[tun] & _INNER) != 0]
        if moves.sum() != (istart[inner + 1] - istart[inner]).sum():
            raise ValidationError("every edge into an inner tunnel node must leave a tunnel node")
        lands[p[moves]] = 0
        exit_table = (_exit_table(g, tun[owner], p, moves, pos, exits, self._w_max, exit_copies)
                      if ntun or exit_copies else ())
        self._pos, self._step_to, self._step_land, self._exit_copy = (
            array("i", np.asarray(a, np.int32).tobytes()) for a in (pos, to, lands, exit_table))
        self._step_byte = bytes(1) + g.L.codes().tobytes().translate(bytes(g.alphabet).ljust(256))

    @property
    def entrance_marks(self) -> BitVec:
        """The records' entrances as marks over the nodes, made on each read."""
        return BitVec(np.frombuffer(self._kind, np.uint8)[1:] & _ENTRANCE)

    @property
    def exit_copies(self) -> dict[int, int]:
        """The exit-copy table as a dict by edge rank, made on each read."""
        return {j: copy for j, copy in enumerate(self._exit_copy) if copy}

    def is_tunnel_node(self, r: int) -> bool:
        return self._kind[r] != 0

    def check_pos(self, p: TraversalPos) -> None:
        """Raises BoundsError unless p's node is in [1..n_t] and its offset
        is 1, or at most the widest tunnel's width at a tunnel node.  A node's
        own width is that of its tunnel, found by walking to the exit, which
        ``TextIndex`` does when it is made; a general graph has no such walk,
        so ``step`` keeps the widest width and ``TextIndex.locate_one`` checks
        the node's own."""
        if not 1 <= p.node <= self.g.n:
            raise BoundsError(f"node {p.node} outside [1..{self.g.n}]")
        if not 1 <= p.offset <= (self._w_max if self._kind[p.node] else 1):
            raise BoundsError(f"node {p.node} has no copy {p.offset}")

    def land(self, j: int, copy: int | None) -> tuple[int, int | None]:
        """(node, offset) that edge j reaches from copy ``copy`` of its
        source: one read of the step table at j's L position."""
        p = self._pos[j]
        return self._step_to[p], self._step_land[p] or copy

    # -- search ------------------------------------------------------------------

    def _edges(self, a: int, lo_off: int, b: int, hi_off: int | None, c: int):
        """The c-edges leaving nodes [a..b] from copy lo_off of node a up to
        copy hi_off of node b (None: its full width), as (first edge, copy,
        last edge, copy), or None.  Each copy is the one ``land`` carries:
        the end node's offset on its in-tunnel move, else 1 for the first
        edge and None (the full width) for the last."""
        g, kind, pos, lands = self.g, self._kind, self._pos, self._step_land
        rank, lstart, base = g.L.rank, g._lstart, g.C[c]
        first = base + rank(lstart[a], c) + 1
        last = base + rank(lstart[b + 1], c)
        if first > last:
            return None
        lo_copy, hi_copy, copy = 1, None, self._exit_copy.__getitem__
        if kind[a] and lo_off > 1:
            end = last if a == b else base + rank(lstart[a + 1], c)  # node a's last c-edge
            if first <= end and not lands[pos[first]]:
                lo_copy = lo_off
            elif first <= end:
                first += bisect_left(range(first, end + 1), lo_off, key=copy)
        if kind[b] and hi_off is not None:
            start = first if a == b else base + rank(lstart[b], c) + 1  # node b's first
            if start <= last and not lands[pos[last]]:
                hi_copy = hi_off
            elif start <= last:
                last = start - 1 + bisect_right(range(start, last + 1), hi_off, key=copy)
        return (first, lo_copy, last, hi_copy) if first <= last else None

    def step(self, p: TraversalPos, c: int, k: int = 1) -> TraversalPos:
        """Take the k-th c-labeled edge from the simulated original position."""
        self.check_pos(p)
        if not 1 <= c <= self.g.sigma:
            raise NotFoundError(f"symbol {c} not in alphabet")
        got = self._edges(p.node, p.offset, p.node, p.offset, c)
        if got is None or not 1 <= k <= got[2] - got[0] + 1:
            raise NotFoundError(f"copy {p.offset} of node {p.node} has no {k}-th {c}-edge")
        return TraversalPos(*self.land(got[0] + k - 1, p.offset))

    def _search_pairs(self, pattern):
        """Offset-annotated Wheeler range of the pattern over the simulated
        original graph; None when empty.  Each symbol takes ``_edges`` and
        ``land`` at both (node, offset) ends (hi's offset None: its full
        width), written out as the module notes say."""
        g, edges = self.g, self._edges
        ids, C, lstart, kind = g._label_to_id, g.C, g._lstart, self._kind
        L, occ, stride = g.L._bytes, g.L._occ, g.L._stride
        pos, to, lands, bits = self._pos, self._step_to, self._step_land, _BLOCK_BITS
        a, lo_off, b, hi_off = 1, 1, g.n, None
        for byte in pattern:
            c = ids.get(byte)
            if c is None:
                return None
            p = q = 0  # the L positions of the end edges, once known
            lo_copy, hi_copy, narrow = 1, None, False
            if kind[a] and lo_off > 1:
                i = lstart[a]
                if lstart[a + 1] - i != 1 or L[i] == c - 1 and lands[i + 1]:
                    narrow = True
                elif L[i] == c - 1:  # an in-tunnel move keeps the copy
                    p, lo_copy = i + 1, lo_off
            if kind[b] and hi_off is not None:
                i = lstart[b]
                if lstart[b + 1] - i != 1 or L[i] == c - 1 and lands[i + 1]:
                    narrow = True
                elif L[i] == c - 1:
                    q, hi_copy = i + 1, hi_off
            if narrow:
                got = edges(a, lo_off, b, hi_off, c)
                if got is None:
                    return None
                first, lo_copy, last, hi_copy = got
                p, q = pos[first], pos[last]
            else:
                base, needle = C[c], _NEEDLE[c]
                if not p:
                    i = lstart[a]
                    k = i >> bits
                    first = base + occ[k * stride + c] + L.count(needle, k << bits, i) + 1
                if not q:
                    i = lstart[b + 1]
                    k = i >> bits
                    last = base + occ[k * stride + c] + L.count(needle, k << bits, i)
                    if not p and first > last:  # an end taken unranked has its edge
                        return None
                    q = pos[last]
                p = p or pos[first]
            a, lo_off, b, hi_off = to[p], lands[p] or lo_copy, to[q], lands[q] or hi_copy
            if a > b:
                raise InvariantError("follow produced a non-coherent range")
        return (a, lo_off), (b, hi_off)

    def path_search(self, pattern) -> NodeRange:
        """Non-empty iff the pattern labels a path in the original graph;
        the returned range is over tunneled node ranks."""
        got = self._search_pairs(pattern)
        return NodeRange.empty() if got is None else NodeRange(got[0][0], got[1][0])

    def __repr__(self) -> str:
        return (f"TunneledGraph(n_t={self.g.n}, m_t={self.g.m}, "
                f"tunnels={len(self.tunnels)})")


def _exit_table(g: WheelerGraph, src, p, moves, pos, exits, w_max: int, exit_copies):
    """The copy each edge leaves a tunnel node from, by edge rank (0: none).
    Raises ValidationError unless exactly the out-edges ``src``/``p`` (by
    source and L position) of tunnel nodes that are no in-tunnel ``moves``
    have a copy, in [1..w_max], and inside one (source, label) range the
    copies do not fall as the edge rank rises, beside no in-tunnel move.
    With ``exit_copies`` None, the out-edges of the ``exits`` leave the copy
    of their slot, and it suffices that exactly they leave."""
    leave = ~moves
    if exit_copies is None:
        is_exit = np.zeros(g.n + 1, bool)
        is_exit[exits] = True
        if (leave != is_exit[src]).any():
            raise ValidationError("only a tunnel's exits may leave it: an out-edge of any "
                                  "other tunnel node must enter an inner node, and an exit's not")
        table = np.zeros(g.m + 1, np.int64)  # by L position
        table[p[leave]] = (p - np.frombuffer(g._lstart, np.int64)[src])[leave]
        return table.take(pos)
    rank = np.zeros(g.m + 1, np.int64)
    rank[pos] = np.arange(g.m + 1)
    j = rank[p]
    listed, need = set(exit_copies), set(j[leave].tolist())
    if need - listed:
        raise ValidationError(f"exit edge {min(need - listed)} has no recorded copy")
    if listed - need:
        raise ValidationError(f"edge {min(listed - need)} has a copy but does not leave a "
                              f"tunnel node for a node that is not inner")
    if any(not 1 <= o <= w_max for o in exit_copies.values()):
        raise ValidationError(f"exit copies must lie in [1..{w_max}], the widest tunnel's")
    table = np.zeros(g.m + 1, np.int64)
    table[list(exit_copies)] = list(exit_copies.values())
    by_rank = np.argsort(j)
    group, held = (src * 256 + g.L.codes()[p - 1])[by_rank], table[j[by_rank]]
    if ((group[1:] == group[:-1])
            & ((np.diff(held) < 0) | (held[1:] == 0) | (held[:-1] == 0))).any():
        raise ValidationError("exit copies must not fall as the edge rank rises inside one "
                              "(source, label) range, and an in-tunnel move must be alone in it")
    return table


def tunnel_graph(g: WheelerGraph, blocks: list[Block]) -> TunneledGraph:
    """Collapse the given pairwise-disjoint blocks.

    Every block must pass check_block; width-1 blocks are accepted and act
    as the identity.  Node count drops by sum (w-1)*s, edge count by
    sum (w-1)*(s-1).

    phi is a cumulative sum over the mask "row < 2": a node v in row r >= 2
    gets phi[v - r + 1], its row-1 node's, as condition (i) puts rows 2..r
    of its column right after it.  The kept edges are a mask over the edge
    arrays.  I' marks each kept edge whose original target differs from the
    previous one's (the first into it), O' each whose (source, label) does.
    """
    src, tgt, lab = g.edge_arrays()
    bad = _check_blocks(g.n, (src, tgt, lab), blocks)
    if bad is not None:
        bidx, res = bad
        raise ValidationError(
            f"block {bidx} violates condition ({res.condition}): {res.detail}",
            condition=res.condition)
    real = [b for b in blocks if b.width > 1]
    n = g.n
    eb, ev, er, ec = _entries(real)
    order = np.argsort(ev, kind="stable")
    again = order[1:][ev[order][1:] == ev[order][:-1]]
    if again.size:
        raise ValidationError(f"blocks overlap at node {ev[again.min()]}", condition="disjoint")
    block, row = np.full(n + 1, -1), np.zeros(n + 1, np.int64)
    block[ev], row[ev] = eb, er
    phi = np.cumsum(row < 2) - 1  # node 0 counts itself
    nt = int(phi[n])
    expected = n - sum((b.width - 1) * b.size for b in real)
    if nt != expected:
        raise InvariantError(f"node accounting broke: {nt} != {expected}")

    inside = (block[src] >= 0) & (block[src] == block[tgt]) & (row[src] == row[tgt])
    kept = ~inside | (row[src] < 2)
    u, v, c, inside = src[kept], tgt[kept], lab[kept], inside[kept]
    tg = _encode(nt, phi[u], phi[v], c)
    exits = np.flatnonzero((block[u] >= 0) & ~inside)
    roots = phi[ev[er == 1]]  # column by column
    starts = roots[ec[er == 1] == 1]
    ends = roots[np.cumsum([b.size for b in real], dtype=np.int64) - 1]
    return TunneledGraph(
        tg,
        BitVec(np.diff(v, prepend=0) != 0),
        BitVec((np.diff(u, prepend=0) != 0) | (np.diff(c, prepend=-1) != 0)),
        BitVec(np.isin(np.arange(1, nt + 1), roots[ec[er == 1] > 1])),  # inner marks
        [TunnelRecord(a, z, b.width, b.size)
         for a, z, b in zip(starts.tolist(), ends.tolist(), real)],
        dict(zip((exits + 1).tolist(), row[u[exits]].tolist())),
        node_map=phi,
    )
