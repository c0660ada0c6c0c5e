"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the library's own formulas:
colex orders come from sorting reversed prefixes, occurrence counts from
naive scans, and random Wheeler graphs are built constructively so that the
axioms hold by construction.  Where the library computes with array
operations, the loop form it replaced stays here as the reference.
"""

import heapq
import math
import random
from array import array
from bisect import bisect_left, bisect_right

import numpy as np
import pytest

from twgi.bitvec import BitVec
from twgi.errors import BoundsError, FormatError, InvariantError, NotFoundError, ValidationError
from twgi.text_index import StepCounter, TextIndex, _string_graph, build_index
from twgi.tunnel import (
    Block,
    StringBlock,
    TraversalPos,
    TunneledGraph,
    TunnelRecord,
    _ENTRANCE,
    _require_path_graph,
    tunnel_graph,
)
from twgi.wheeler import CheckResult, EdgeList, NodeRange, encode, validate_wheeler


def colex_string_graph(text: bytes):
    """Wheeler graph of a string via brute-force colex sort of prefixes.

    Returns (EdgeList, rank) where rank[k] is the Wheeler rank of the node
    reached after reading the length-k prefix (k = 0..len(text)).
    """
    n = len(text)
    prefs = [text[:k][::-1] for k in range(n + 1)]
    order = sorted(range(n + 1), key=lambda k: prefs[k])
    rank = [0] * (n + 1)
    for r, k in enumerate(order):
        rank[k] = r + 1
    edges = [(rank[k], rank[k + 1], text[k]) for k in range(n)]
    return EdgeList(n + 1, edges), rank


def naive_count(text: bytes, pat: bytes) -> int:
    if not pat:
        return len(text) + 1
    return sum(1 for i in range(len(text) - len(pat) + 1)
               if text[i:i + len(pat)] == pat)


def naive_locate(text: bytes, pat: bytes) -> list[int]:
    """1-based start positions of pat in text."""
    m = len(pat)
    return [i + 1 for i in range(len(text) - m + 1) if text[i:i + m] == pat]


def edgelist_step(el: EdgeList, v: int, c: int, k: int):
    """k-th c-labeled out-edge target of node v, in (label, source, input)
    order; None when it does not exist."""
    seen = 0
    for u, w, lab in el.edges:
        if u == v and lab == c:
            seen += 1
            if seen == k:
                return w
    return None


def naive_path_range(el: EdgeList, pattern: bytes):
    """(lo, hi) ranks of the nodes that end a path labeled ``pattern``,
    walking the edge list from every node; None when no path has the label.
    Asserts that the end nodes form one run of ranks (path coherence)."""
    ends = set(range(1, el.n + 1))
    for byte in pattern:
        ends = {v for u, v, lab in el.edges if u in ends and lab == byte}
    if not ends:
        return None
    lo, hi = min(ends), max(ends)
    assert len(ends) == hi - lo + 1, f"the ends of {pattern!r} are not one run: {sorted(ends)}"
    return lo, hi


def random_wheeler_edge_list(rng: random.Random, n_max=20, sigma_max=4,
                             allow_sources=True) -> EdgeList:
    """Constructively generate a valid Wheeler graph.

    Nodes with in-edges are grouped into label zones ordered by label; the
    edges into each zone pair sorted sources with sorted targets, which makes
    axioms (i) and (ii) hold by construction.
    """
    n = rng.randint(1, n_max)
    z = rng.randint(1 if allow_sources else 0, n) if allow_sources else 0
    z = min(z, n)
    sigma = rng.randint(1, sigma_max)
    labels = sorted(rng.randint(0, sigma - 1) for _ in range(n - z))
    edges = []
    pos = z + 1
    while pos <= n:
        c = labels[pos - z - 1]
        hi = pos
        while hi + 1 <= n and labels[hi + 1 - z - 1] == c:
            hi += 1
        targets = []
        for r in range(pos, hi + 1):
            for _ in range(rng.randint(1, 3)):
                targets.append(r)
        sources = sorted(rng.randint(1, n) for _ in targets)
        edges.extend((u, v, 97 + c) for u, v in zip(sources, sorted(targets)))
        pos = hi + 1
    el = EdgeList(n, edges)
    assert validate_wheeler(el), "generator must produce valid graphs"
    return el


def fibonacci_word(nbytes: int) -> bytes:
    a, b = b"a", b"ab"
    while len(b) < nbytes:
        a, b = b, b + a
    return b[:nbytes]


def copy_paste_mutate(rng: random.Random, size: int, sigma: int) -> bytes:
    alpha = bytes(range(97, 97 + sigma)) if sigma <= 26 else bytes(range(256))[:sigma]
    out = bytearray(rng.choice(alpha) for _ in range(max(4, size // 16)))
    while len(out) < size:
        if rng.random() < 0.8 and len(out) > 4:
            start = rng.randrange(len(out))
            span = rng.randint(1, min(len(out) - start, size - len(out)))
            out += out[start:start + span]
        else:
            out.append(rng.choice(alpha))
        if rng.random() < 0.15:
            out[rng.randrange(len(out))] = rng.choice(alpha)
    return bytes(out[:size])


def random_text(rng: random.Random, size: int, sigma: int) -> bytes:
    if sigma <= 26:
        alpha = bytes(range(97, 97 + sigma))
    else:
        alpha = bytes(range(sigma))
    return bytes(rng.choice(alpha) for _ in range(size))


def fig1_edge_list() -> EdgeList:
    """A 35-node Wheeler graph embedding the two label-isomorphic 7-node
    trees of width 2, with root in-degrees 2 vs 1 and per-copy exit counts
    that differ (3 vs 1 'c'-exits, 2 vs 0 'a'-exits)."""
    a, b, c = 97, 98, 99
    edges = [
        (17, 9, a), (18, 9, a), (16, 8, a), (19, 10, a), (20, 11, a),
        (10, 5, a), (11, 6, a), (34, 14, a), (34, 15, a), (26, 13, a),
        (21, 12, a), (14, 7, a),
        (2, 17, b), (3, 17, b), (4, 18, b), (1, 16, b), (8, 19, b),
        (9, 20, b), (31, 24, b), (32, 25, b), (20, 21, b), (25, 23, b),
        (35, 26, b), (21, 22, b),
        (8, 31, c), (9, 32, c), (31, 34, c), (32, 35, c), (5, 27, c),
        (6, 28, c), (6, 29, c), (6, 30, c), (14, 33, c),
    ]
    return EdgeList(35, edges)


def fig1_block() -> Block:
    return Block(2, 7, [(8, 9), (19, 20), (31, 32), (10, 11), (24, 25),
                        (34, 35), (5, 6)])


def unequal_exit_graph():
    """Width-2 single-column tunnel where copy 1 has no 'd'-exit but copy 2
    does; naive offset arithmetic misattributes the exit here."""
    el = EdgeList(7, [(2, 3, 97), (1, 4, 98), (3, 5, 99), (4, 6, 99),
                      (6, 7, 100)])
    return el, [Block(2, 1, [(5, 6)])]


def chain_graph(depth: int = 3):
    """`depth` single-column tunnels in sequence: every exit lands straight
    on the next entrance."""
    n = 2 + 2 * depth
    edges = [(1, 3, 97), (2, 4, 97)]
    for d in range(depth - 1):
        base = 3 + 2 * d
        edges.append((base, base + 2, 98 + d))
        edges.append((base + 1, base + 3, 98 + d))
    el = EdgeList(n, edges)
    blocks = [Block(2, 1, [(3 + 2 * d, 4 + 2 * d)]) for d in range(depth - 1)]
    return el, blocks


def block_offsets(blocks) -> dict[int, int]:
    """Original rank -> tunnel offset (row index) for block members."""
    out = {}
    for b in blocks:
        if b.width == 1:
            continue
        for col in b.columns:
            for i, v in enumerate(col, 1):
                out[v] = i
    return out


def assert_simulation_equal(el: EdgeList, tg, blocks) -> int:
    """Exhaustively compare tg.step against the untunneled edge list over
    every (node, symbol, ordinal), including not-found agreement.  Returns
    the number of positions checked."""
    offsets = block_offsets(blocks)
    phi = tg.node_map
    alphabet = sorted({c for _, _, c in el.edges})
    checked = 0
    for v in range(1, el.n + 1):
        pos = TraversalPos(phi[v], offsets.get(v, 1))
        for byte in alphabet:
            cid = label_id(tg.g, byte)
            k = 0
            while True:
                k += 1
                want = edgelist_step(el, v, byte, k)
                if want is None:
                    if cid is not None:
                        try:
                            got = tg.step(pos, cid, k)
                        except NotFoundError:
                            pass
                        else:
                            raise AssertionError(
                                f"step({v},{byte!r},{k}) found {got}, expected none")
                    break
                got = tg.step(pos, cid, k)
                expect = TraversalPos(phi[want], offsets.get(want, 1))
                assert got == expect, (
                    f"step({v},{byte!r},{k}) = {got}, expected {expect}")
                checked += 1
    return checked


def random_tunneled_graphs(seed: int, count: int):
    """(edge list, blocks, tunneled graph) for random Wheeler graphs of at
    most 14 nodes, tunneled on disjoint brute-force blocks; fig1 first."""
    el, blocks = fig1_edge_list(), [fig1_block()]
    yield el, blocks, tunnel_graph(encode(el), blocks)
    rng = random.Random(seed)
    for _ in range(count):
        el = random_wheeler_edge_list(rng, n_max=14)
        g = encode(el)
        blocks, used = [], set()
        for b in enumerate_blocks_bruteforce(g):
            if b.width > 1 and not used & node_set(b):
                blocks.append(b)
                used |= node_set(b)
        if blocks:
            yield el, blocks, tunnel_graph(g, blocks)


def make_patterns(rng: random.Random, text: bytes, count: int,
                  max_len: int = 32, min_len: int = 1) -> list[bytes]:
    """Mixed positive/negative patterns drawn from and around the text."""
    pats = []
    n = len(text)
    alpha = sorted(set(text)) or [97]
    while len(pats) < count:
        roll = rng.random()
        ln = rng.randint(min_len, max_len)
        if roll < 0.6 and n:
            i = rng.randrange(n)
            p = bytearray(text[i:i + min(ln, n - i)])
            if not p:
                continue
            if roll < 0.15:  # mutate one byte: usually turns it negative
                p[rng.randrange(len(p))] = rng.choice(alpha) ^ 1
            pats.append(bytes(p))
        else:
            pats.append(bytes(rng.choice(alpha) for _ in range(ln)))
    return pats


# ---------------------------------------------------------------------------
# select-based navigation: the rank/select formulas of the (L, C, I, O)
# representation, which the library answers from its node-offset arrays


def select_edge_target(g, j: int) -> int:
    return g.I.rank(g.I.select(j, 0), 1)


def edge_label(g, j: int) -> int:
    """Symbol id of the edge of Wheeler rank j: the largest c with
    C[c] < j, C being non-decreasing with C[sigma + 1] = m."""
    if not 1 <= j <= g.m:
        raise BoundsError(f"edge rank {j} outside [1..{g.m}]")
    return bisect_left(g.C, j, 1, g.sigma + 2) - 1


def in_label(g, r: int):
    """Symbol id shared by all in-edges of node r, or None."""
    return edge_label(g, g._istart[r] + 1) if g.indeg(r) else None


def out_label(g, r: int):
    """Symbol id of the single out-edge of node r (path graphs), or None."""
    return g.L.access(g._lstart[r] + 1) if g.outdeg(r) else None


def label_byte(g, c: int) -> int:
    """The byte of symbol id c."""
    return g.alphabet[c - 1]


def is_tunnel_node(tg, v: int) -> bool:
    """Whether node v of the tunneled graph lies in a tunnel."""
    return tg._kind[v] != 0


def label_id(g, byte: int) -> int | None:
    """The symbol id of a byte, or None outside the alphabet."""
    return g._label_to_id.get(byte)


def entrance_marks(tg) -> BitVec:
    """The records' entrances as the graph marks them, over the nodes."""
    return BitVec(np.frombuffer(tg._kind, np.uint8)[1:] & _ENTRANCE)


def node_set(b: Block) -> set[int]:
    """Every node of the block."""
    return {v for col in b.columns for v in col}


def block_key(b: Block):
    """The block up to the order of its non-root columns."""
    return (b.width, b.columns[0], frozenset(b.columns[1:]))


def write_blocks_file(fh, blocks: list[Block]) -> None:
    """The blocks as ``persist.read_blocks_file`` reads them."""
    for b in blocks:
        fh.write(f"BLOCK {b.width} {b.size}\n")
        for col in b.columns:
            fh.write(" ".join(map(str, col)) + "\n")


def select_edge_source(g, j: int) -> int:
    c = edge_label(g, j)
    pos = g.L.select(j - g.C[c], c)
    return g.O.rank(g.O.select(pos, 0), 1)


def select_node_offsets(g):
    """(lstart, istart) with one select per node and vector; index 0 unused."""
    lstart = [0] + [g.O.select(i, 1) - i for i in range(1, g.n + 2)]
    istart = [0] + [g.I.select(i, 1) - i for i in range(1, g.n + 2)]
    return lstart, istart


def select_edge_list(g) -> EdgeList:
    return EdgeList(g.n, [(select_edge_source(g, j), select_edge_target(g, j),
                           g.alphabet[edge_label(g, j) - 1])
                          for j in range(1, g.m + 1)])


def structures_equal(g, h) -> bool:
    """Whether two succinct graphs hold the same sizes, alphabet, C, L, I and O."""
    return (g.n == h.n and g.m == h.m and g.sigma == h.sigma and g.alphabet == h.alphabet
            and g.C == h.C and g.L == h.L and g.I == h.I and g.O == h.O)


# ---------------------------------------------------------------------------
# the integer codec of the index file, one bit per loop step


def loop_pack_ints(vals, width: int) -> bytes:
    buf = bytearray((len(vals) * width + 7) >> 3)
    pos = 0
    for v in vals:
        for b in range(width):
            if (v >> b) & 1:
                buf[pos >> 3] |= 1 << (pos & 7)
            pos += 1
    return bytes(buf)


def loop_unpack_ints(data: bytes, count: int, width: int) -> list[int]:
    out = []
    pos = 0
    for _ in range(count):
        val = 0
        for b in range(width):
            val |= ((data[pos >> 3] >> (pos & 7)) & 1) << b
            pos += 1
        out.append(val)
    return out


def scan_exit_groups(tg, j1: int, j2: int):
    """Every per-copy exit-edge group in the label range [j1, j2], by one
    O' select per group: (first edge, last edge, copy), ordered by copy."""
    starts = []
    base = tg.oprime.rank(j1)
    while base + len(starts) <= tg.oprime.ones:
        p = tg.oprime.select(base + len(starts))
        if p > j2:
            break
        starts.append(p)
    ends = [s - 1 for s in starts[1:]] + [j2]
    return [(s0, e0, tg.exit_copies.get(s0, idx + 1))
            for idx, (s0, e0) in enumerate(zip(starts, ends))]


def oracle_land(tg, j: int, copy):
    """(node, offset) that edge j reaches from copy ``copy`` of its source,
    from edge_target, the marks and a scan of I': an inner-marked target
    keeps the copy; a record's entrance r is entered at copy width - (I'
    ones among r's in-edges after j), since the I'-marked groups are the
    last copies; any other target is reached at offset 1."""
    g = tg.g
    r = g.edge_target(j)
    if tg.inner_marks.access(r):
        return r, copy
    rec = next((t for t in tg.tunnels if t.entrance == r), None)
    if rec is None:
        return r, 1
    k = j + 1
    while k <= g.m and g.edge_target(k) == r:
        k += 1
    return r, rec.width - sum(tg.iprime.access(i) for i in range(j + 1, k))


def assert_lands(tg) -> int:
    """The step table and land() against oracle_land at every L position p,
    whose edge is C[c] + partial_rank(p), c the label there.  A copy of -1
    shows whether the edge keeps the walk's copy.  Returns the edges seen."""
    g = tg.g
    assert len(tg._pos) == len(tg._step_to) == len(tg._step_land) == len(tg._step_byte) == g.m + 1
    for p in range(1, g.m + 1):
        c = g.L.access(p)
        j = g.C[c] + g.L.partial_rank(p)
        node, off = oracle_land(tg, j, -1)
        assert tg._pos[j] == p, (j, p)
        assert tg.land(j, -1) == (node, off), j
        assert (tg._step_to[p], tg._step_land[p] or -1, tg._step_byte[p]) == \
            (node, off, label_byte(g, c)), p
    return g.m


def scan_node_first(tg, v, c, min_copy, max_copy):
    """First c-edge leaving node v from a copy in [min_copy, max_copy]
    (None = unbounded), over the scanned exit groups: (edge, "carry", copy)
    for an in-tunnel move, which keeps the copy, else (edge, "plain", None)."""
    j1, j2 = tg.g.edge_range_for_label(NodeRange(v, v), c)
    if j1 > j2:
        return None
    if not is_tunnel_node(tg, v):
        return (j1, "plain", None)
    if tg.inner_marks.access(tg.g.edge_target(j1)):
        return (j1, "carry", min_copy if min_copy is not None else 1)
    for s0, _, copy in scan_exit_groups(tg, j1, j2):
        if min_copy is not None and copy < min_copy:
            continue
        if max_copy is not None and copy > max_copy:
            return None
        return (s0, "plain", None)
    return None


def scan_node_last(tg, v, c, min_copy, max_copy):
    """Last such c-edge, as scan_node_first picks the first."""
    j1, j2 = tg.g.edge_range_for_label(NodeRange(v, v), c)
    if j1 > j2:
        return None
    if not is_tunnel_node(tg, v):
        return (j2, "plain", None)
    if tg.inner_marks.access(tg.g.edge_target(j1)):
        return (j1, "carry", max_copy)
    best = None
    for _, e0, copy in scan_exit_groups(tg, j1, j2):
        if min_copy is not None and copy < min_copy:
            continue
        if max_copy is not None and copy > max_copy:
            break
        best = (e0, "plain", None)
    return best


def edges_search(tg, pattern, seen=None, state=None):
    """The path search as one ``_edges`` call and two ``land`` calls per
    symbol, from ``state`` as ``_search_pairs`` takes it: the reference for
    ``TunneledGraph._search_pairs``.  ``seen``, a Counter, counts how each
    step can take its ends: "plain" when neither end has a copy to narrow
    by, else per such end "narrow" (not one out-edge, or its c-edge leaves
    the tunnel), "keeps" (its one edge is an in-tunnel c-move) or "other
    label" (its one edge is no c-edge).  In a step that narrows no end it
    also counts each end as "border", when the range's first out-edge (for
    lo) or last (for hi) is a c-edge, which the step takes unranked, or
    else as "ranked": the end drops out and the step ranks L for it."""
    g = tg.g
    a, lo_off, b, hi_off = state or (1, 1, g.n, None)
    lo, hi = (a, lo_off), (b, hi_off)
    for byte in pattern:
        c = label_id(g, byte)
        if c is None:
            return None
        if seen is not None:
            ends = [v for v, narrows in ((lo[0], lo[1] > 1), (hi[0], hi[1] is not None))
                    if narrows and is_tunnel_node(tg, v)]
            seen["plain"] += not ends
            kinds = []
            for v in ends:
                p = g._lstart[v] + 1
                kinds.append("narrow" if g.outdeg(v) != 1 or g.L.access(p) == c
                             and tg._step_land[p] else "keeps" if g.L.access(p) == c
                             else "other label")
            if "narrow" not in kinds:
                first, last = g._lstart[lo[0]] + 1, g._lstart[hi[0] + 1]
                kinds += ["border" if first <= last and g.L.access(p) == c else "ranked"
                          for p in (first, last)]
            seen.update(kinds)
        got = tg._edges(*lo, *hi, c)
        if got is None:
            return None
        lo, hi = tg.land(*got[:2]), tg.land(*got[2:])
        if lo[0] > hi[0]:
            raise InvariantError("follow produced a non-coherent range")
    return lo, hi


def fstep_extract(ix, start: int, length: int, counter=None) -> bytes:
    """Extract with one ``_fstep`` call per seek and output step: the
    reference for ``TextIndex.extract``, which writes that step out.  It
    finds a tunnel's exit by ``walk_to_exit``, not by the index's walked
    arrays, and counts one step for each jump across a tunnel, to its exit
    or, stepping a scratch counter, to the target inside it."""
    if start < 1 or length < 0 or start + length - 1 > ix.text_len:
        raise BoundsError(f"extract({start},{length}) outside text of length {ix.text_len}")
    if length == 0:
        return b""
    counter = counter if counter is not None else StepCounter()
    idx = bisect_right(ix.ext_pos, start) - 1
    pos, node, off = (ix.ext_pos[idx], ix.ext_node[idx], 1) if idx >= 0 else (1, 1, 1)
    for _ in range(ix.n):
        if pos >= start:
            break
        if is_tunnel_node(ix.tg, node):
            exit_rank, dist = walk_to_exit(ix.tg.g, node)
            if dist:
                counter.steps += 1
                if pos + dist > start:
                    while pos < start:
                        node, off, _ = ix._fstep(node, off, StepCounter())
                        pos += 1
                    break
                node, pos = exit_rank, pos + dist
                continue
        node, off, _ = ix._fstep(node, off, counter)
        pos += 1
    else:
        raise FormatError(f"did not reach text position {start} in {ix.n} steps")
    out = bytearray()
    for _ in range(length):
        node, off, byte = ix._fstep(node, off, counter)
        out.append(byte)
    return bytes(out)


def fstep_walk(ix, node: int, off: int, counter=None) -> int:
    """Text position of copy ``off`` of the node, with one ``_fstep`` call
    per step: the reference for ``TextIndex.locate_one`` and ``locate``,
    which walk the hop table.  It walks forward to the next text-order
    sample, crossing each tunnel in one jump to its exit, counted as one
    step, and subtracts the travelled distance."""
    counter = counter if counter is not None else StepCounter()
    travelled = 0
    kind, slot, chain, to_exit = ix.tg._kind, ix._slot, ix._chain, ix._to_exit
    for _ in range(ix.n):
        pos = ix.loc.get(node)
        if pos is not None:
            return pos - travelled
        if kind[node]:
            i = slot[node]
            dist = to_exit[i]
            if dist:
                travelled += dist
                node = chain[i - dist]
                counter.steps += 1
        node, off, _ = ix._fstep(node, off, counter)
        travelled += 1
    raise FormatError(f"found no sample in {ix.n} steps")


def fstep_hop_table(ix) -> tuple[list[int], list[int]]:
    """(nxt, val) lists by L position q, by ``_fstep`` and ``walk_to_exit``:
    the reference for ``TextIndex._hop_table``.  The hop takes edge q and,
    if it lands on an entrance, jumps to the exit; it then names the edge
    that ``_fstep`` leaves by, or 0 at a sample.  Its value is its steps
    plus the sample's position less 1, or less the distance travelled,
    times 2^32.  ``_fstep`` raises BoundsError where a hop would take a copy
    past an exit's out-degree or step past a sink, which no index allows."""
    tg, m = ix.tg, ix.tg.g.m
    nxt, val = [0] * (m + 1), [0] * (m + 1)
    for q in range(1, m + 1):
        v, off = tg._step_to[q], tg._step_land[q] or 1
        if v in ix.loc:
            val[q] = (ix.loc[v] - 1) * 2 ** 32 + 1
            continue
        steps, dist = 1, 1
        if v in tg.entrance_info:
            v, d = walk_to_exit(tg.g, v)
            steps, dist = 1 + (d > 0), 1 + d
        ix._fstep(v, off, StepCounter())
        deg = tg.g.outdeg(v)
        nxt[q] = tg.g._lstart[v] + (off if deg > 1 and tg._kind[v] else 1)
        val[q] = steps - dist * 2 ** 32
    return nxt, val


def fstep_extract_tables(ix) -> tuple[list[int], bytes]:
    """(succ, moves) by ``_fstep`` and ``walk_to_exit``: the reference for
    ``TextIndex._extract_tables``.  ``succ[q]`` names the edge that ``_fstep``
    leaves edge q's target by, at copy 1 after an in-tunnel move.  When the
    target is a tunnel's entrance, it names the edge that ``_fstep`` leaves
    the exit by, at the copy that edge q lands on, negated.  It is 0 into a
    sink and at q = 0.  ``moves`` walks each tunnel from its entrance to its
    exit, exits descending, and takes each in-tunnel move's byte, then a 0
    for the exit."""
    tg, g = ix.tg, ix.tg.g
    succ = [0] * (g.m + 1)
    for q in range(1, g.m + 1):
        v, off, sign = tg._step_to[q], tg._step_land[q] or 1, 1
        if v in tg.entrance_info:
            v, sign = walk_to_exit(g, v)[0], -1
        elif not g.outdeg(v):
            continue
        p = g._lstart[v] + (off if g.outdeg(v) > 1 and tg._kind[v] else 1)
        assert ix._fstep(v, off, StepCounter()) == (tg._step_to[p], tg._step_land[p] or off,
                                                    tg._step_byte[p])
        succ[q] = sign * p
    moves = bytearray()
    for t in sorted(tg.tunnels, key=lambda t: t.exit, reverse=True):
        v, (exit_rank, dist) = t.entrance, walk_to_exit(g, t.entrance)
        assert exit_rank == t.exit
        for _ in range(dist):
            v, _, byte = ix._fstep(v, 1, StepCounter())
            moves.append(byte)
        moves.append(0)
    return succ, bytes(moves)


# ---------------------------------------------------------------------------
# loop forms of the Wheeler axiom check, the block check and the tunneling
# transform, which the library computes with array operations


def loop_validate_wheeler(el: EdgeList) -> CheckResult:
    """validate_wheeler by loops over the edges: the same conditions, in the
    same order, with the same details."""
    if el.n < 1:
        raise ValidationError("graph needs at least one node")
    for u, v, c in el.edges:
        if not (1 <= u <= el.n and 1 <= v <= el.n):
            raise ValidationError(f"edge ({u},{v}) rank outside [1..{el.n}]")
        if not 0 <= c <= 255:
            raise ValidationError(f"label {c} outside byte range")
    indeg = [0] * (el.n + 1)
    for _, v, _ in el.edges:
        indeg[v] += 1
    max_zero = max((r for r in range(1, el.n + 1) if indeg[r] == 0), default=0)
    min_pos = min((r for r in range(1, el.n + 1) if indeg[r] > 0), default=el.n + 1)
    if max_zero > min_pos:
        return CheckResult.bad(
            "zero-indegree-prefix",
            f"node {max_zero} has in-degree 0 but follows node {min_pos} "
            f"which has positive in-degree")

    # axiom (i): a1 < a2 implies v1 < v2 -- label target zones must be
    # strictly increasing with the label order
    by_label: dict[int, list[tuple[int, int]]] = {}
    for u, v, c in el.edges:
        by_label.setdefault(c, []).append((u, v))
    labels = sorted(by_label)
    run_max, run_max_edge, run_max_label = -1, None, None
    for c in labels:
        targets = [v for _, v in by_label[c]]
        mn = min(targets)
        if run_max >= mn:
            u2, v2 = next(e for e in by_label[c] if e[1] == mn)
            return CheckResult.bad(
                "axiom-i",
                f"edge {run_max_edge} labeled {run_max_label!r} reaches node "
                f"{run_max} but smaller-ranked node {mn} is reached by edge "
                f"({u2},{v2}) with larger label {c!r}")
        mx = max(targets)
        if mx > run_max:
            run_max = mx
            run_max_edge = next(e for e in by_label[c] if e[1] == mx)
            run_max_label = c

    # axiom (ii): same label and u1 < u2 implies v1 <= v2
    for c in labels:
        per_source: dict[int, list[int]] = {}
        for u, v in by_label[c]:
            per_source.setdefault(u, []).append(v)
        prev_max, prev_src = -1, None
        for u in sorted(per_source):
            cur_min = min(per_source[u])
            if prev_max > cur_min:
                return CheckResult.bad(
                    "axiom-ii",
                    f"label {c!r}: source {prev_src} reaches node {prev_max} "
                    f"but larger source {u} reaches smaller node {cur_min}")
            m = max(per_source[u])
            if m > prev_max:
                prev_max, prev_src = m, u
    return CheckResult.good()


class GraphView:
    """Decoded adjacency of a WheelerGraph, shared across block checks."""

    __slots__ = ("n", "edges", "out_adj", "in_adj")

    def __init__(self, g):
        el = g.to_edge_list()
        self.n = g.n
        self.edges = el.edges
        self.out_adj = [[] for _ in range(g.n + 1)]
        self.in_adj = [[] for _ in range(g.n + 1)]
        for idx, (u, v, c) in enumerate(el.edges):
            self.out_adj[u].append((idx, v, c))
            self.in_adj[v].append((idx, u, c))


def loop_check_block(view: GraphView, b: Block) -> CheckResult:
    """The five block conditions by loops over a GraphView, in the order
    bounds, distinct, (i), (ii), (iii), (iv), (v)."""
    w, s = b.width, b.size
    if w < 1 or s < 1 or len(b.columns) != s or any(len(c) != w for c in b.columns):
        raise ValidationError("malformed block: column shape does not match width/size")
    nodes = [v for col in b.columns for v in col]
    for v in nodes:
        if not 1 <= v <= view.n:
            return CheckResult.bad("bounds", f"node rank {v} outside [1..{view.n}]")
    if len(set(nodes)) != len(nodes):
        return CheckResult.bad("distinct", "block nodes are not pairwise distinct")
    for j, col in enumerate(b.columns, 1):
        for i in range(w - 1):
            if col[i + 1] != col[i] + 1:
                return CheckResult.bad(
                    "i", f"column {j} is not a run of consecutive ranks")

    in_block = set(nodes)
    vi = [set() for _ in range(w + 1)]
    colidx = {}
    for j, col in enumerate(b.columns, 1):
        for i, v in enumerate(col, 1):
            vi[i].add(v)
            colidx[v] = (i, j)

    # subtree shape: s-1 internal edges, root parentless, everyone else
    # with exactly one internal parent
    ei = [None] * (w + 1)
    for i in range(1, w + 1):
        edges_i = []
        indeg_within = {}
        for u in vi[i]:
            for _, v, c in view.out_adj[u]:
                if v in vi[i]:
                    edges_i.append((u, v, c))
                    indeg_within[v] = indeg_within.get(v, 0) + 1
        root = b.columns[0][i - 1]
        if indeg_within.get(root, 0) != 0:
            return CheckResult.bad("ii", f"root {root} has an in-edge inside its subtree")
        for v in vi[i]:
            if v != root and indeg_within.get(v, 0) != 1:
                return CheckResult.bad(
                    "ii", f"node {v} has {indeg_within.get(v, 0)} parents inside subtree {i}")
        if len(edges_i) != s - 1:
            return CheckResult.bad(
                "ii", f"subtree {i} has {len(edges_i)} internal edges, expected {s - 1}")
        ei[i] = set(edges_i)

    # label-preserving isomorphism along rows (simultaneous traversal of the
    # forced correspondences)
    for u, v, c in ei[1]:
        _, cu = colidx[u]
        _, cv = colidx[v]
        for i in range(2, w + 1):
            u2 = b.columns[cu - 1][i - 1]
            v2 = b.columns[cv - 1][i - 1]
            if (u2, v2, c) not in ei[i]:
                return CheckResult.bad(
                    "ii", f"edge ({u},{v},{c}) of subtree 1 has no counterpart in subtree {i}")

    # (iii) all edges into any root carry one label
    entry = None
    for root in b.columns[0]:
        for _, _, c in view.in_adj[root]:
            if entry is None:
                entry = c
            elif c != entry:
                return CheckResult.bad(
                    "iii", f"edges into the roots carry labels {entry} and {c}")

    # (iv) non-root block nodes have total in-degree 1
    for col in b.columns[1:]:
        for v in col:
            if len(view.in_adj[v]) != 1:
                return CheckResult.bad(
                    "iv", f"node {v} has in-degree {len(view.in_adj[v])}, expected 1")

    # (v) per column and letter: either one internal edge per copy and no
    # escapes, or no internal edges and only escapes to non-block nodes
    for j, col in enumerate(b.columns, 1):
        letters = set()
        for v in col:
            for _, _, c in view.out_adj[v]:
                letters.add(c)
        for c in letters:
            holds_a = True
            holds_b = True
            for i, v in enumerate(col, 1):
                internal = outside = cross = 0
                for _, t, lab in view.out_adj[v]:
                    if lab != c:
                        continue
                    if t in vi[i]:
                        internal += 1
                    elif t in in_block:
                        cross += 1
                    else:
                        outside += 1
                if not (internal == 1 and outside == 0 and cross == 0):
                    holds_a = False
                if not (internal == 0 and cross == 0):
                    holds_b = False
            if not holds_a and not holds_b:
                return CheckResult.bad(
                    "v", f"column {j}, letter {c}: neither uniformity case holds")
    return CheckResult.good()


def loop_tunnel_graph(g, blocks: list[Block]):
    """tunnel_graph by loops: GraphView, loop_check_block per block, phi by
    a rank counter, the kept edges and I'/O' from 7-tuples and dicts."""
    view = GraphView(g)
    real = []
    for bidx, b in enumerate(blocks):
        res = loop_check_block(view, b)
        if not res:
            raise ValidationError(
                f"block {bidx} violates condition ({res.condition}): {res.detail}",
                condition=res.condition)
        if b.width > 1:
            real.append(b)
    node_to: dict[int, tuple[int, int, int]] = {}
    for bidx, b in enumerate(real):
        for j, col in enumerate(b.columns, 1):
            for i, v in enumerate(col, 1):
                if v in node_to:
                    raise ValidationError(
                        f"blocks overlap at node {v}", condition="disjoint")
                node_to[v] = (bidx, i, j)

    n = g.n
    phi = array("q", [0] * (n + 1))
    col_rank: dict[tuple[int, int], int] = {}
    nt = 0
    for v in range(1, n + 1):
        info = node_to.get(v)
        if info is not None and info[1] > 1:
            phi[v] = col_rank[(info[0], info[2])]
        else:
            nt += 1
            phi[v] = nt
            if info is not None:
                col_rank[(info[0], info[2])] = nt
    expected = n - sum((b.width - 1) * b.size for b in real)
    if nt != expected:
        raise InvariantError(f"node accounting broke: {nt} != {expected}")

    # no sort needed: view edges are in (label, source, input) order and phi never decreases
    kept = []
    for idx, (u, v, cbyte) in enumerate(view.edges):
        iu = node_to.get(u)
        iv = node_to.get(v)
        if (iu is not None and iv is not None and iu[0] == iv[0]
                and iu[1] == iv[1] and iu[1] >= 2):
            continue  # duplicate subtree edge of a copy >= 2
        kept.append((cbyte, phi[u], u, idx, phi[v], v, iu))

    tedges = [(pu, pv, cbyte) for cbyte, pu, u, idx, pv, v, iu in kept]
    tg = encode(EdgeList(nt, tedges))
    mt = len(tedges)

    # I' marks the first kept edge into each original target, O' the first
    # out of each original (source, letter) group
    first_in, first_out = {}, {}
    exit_copies = {}
    for pos, (cbyte, pu, u, idx, pv, v, iu) in enumerate(kept):
        first_in.setdefault(v, pos)
        first_out.setdefault((u, cbyte), pos)
        if iu is not None:
            iv = node_to.get(v)
            inside = (iv is not None and iv[0] == iu[0] and iv[1] == iu[1])
            if not inside:
                exit_copies[pos + 1] = iu[1]

    tunnels = [TunnelRecord(col_rank[(bidx, 1)], col_rank[(bidx, b.size)], b.width, b.size)
               for bidx, b in enumerate(real)]
    entrance, inner = [], []
    for (_, j), r in col_rank.items():
        (entrance if j == 1 else inner).append(r)
    edges, ranks = np.arange(mt), np.arange(1, nt + 1)
    out = TunneledGraph(
        tg,
        BitVec(np.isin(edges, list(first_in.values()))),
        BitVec(np.isin(edges, list(first_out.values()))),
        BitVec(np.isin(ranks, inner)),
        tunnels,
        exit_copies,
        node_map=phi,
    )
    # the graph marks its records' entrances: they are the first columns' roots
    assert entrance_marks(out) == BitVec(np.isin(ranks, entrance))
    assert out.orig_n == n
    return out


def walk_to_exit(g, v: int) -> tuple[int, int]:
    """(exit, distance) of the tunnel node v by single-edge steps: follow
    the one out-edge until a node whose out-degree is not 1.  Reads no
    tunnel record and no skip pointer."""
    cur = v
    for dist in range(g.n):
        if g.outdeg(cur) != 1:
            return cur, dist
        cur = g.edge_target(g.out_edge_rank(cur, out_label(g, cur), 1))
    raise InvariantError(f"no node of out-degree other than 1 within {g.n} steps of {v}")


def loop_samples(text: bytes, **kw):
    """(loc, skip, cnt) of build_index by loops, for the blocks that
    ``walk_string_blocks`` finds at ``min_width`` and ``min_length``
    (default 2, build_index's): see ``_loop_build``."""
    return _loop_build(text, **kw)[3:]


def oracle_index(text: bytes, **kw) -> TextIndex:
    """The TextIndex of the blocks that ``walk_string_blocks`` finds at
    ``min_width`` and ``min_length``, with the samples of ``loop_samples``.
    At the defaults it equals build_index's; other thresholds give tunnels
    that build_index never makes but an index file may hold, such as
    length-1 ones or only width-3 ones."""
    tg, rate_n, rate_t, loc, _, _ = _loop_build(text, **kw)
    tg.node_map = None
    return TextIndex(tg, len(text) + 1, rate_n, rate_t, loc)


def with_stride(ix: TextIndex, rate_t: int) -> TextIndex:
    """ix with skip stride rate_t, which build_index sets to ceil(log2 n_t)."""
    return TextIndex(ix.tg, ix.n, ix.sample_rate_n, rate_t, ix.loc)


def _loop_build(text: bytes, *, sample_rate_n=None, sample_rate_t=None,
                min_width: int = 2, min_length: int = 2):
    """(tunneled graph, rate_n, rate_t, loc, skip, cnt) by loops:
    block membership node by node, the run-contracted elements from it
    position by position, and the pointers and widths column by column."""
    g, rank = _string_graph(text)
    rank = rank.tolist()
    n = g.n
    at = sorted(range(len(rank)), key=rank.__getitem__)  # rank[at[r]] = r
    blocks = []
    for sb in walk_string_blocks(g, min_width, min_length):
        rows = at[sb.start_rank:sb.start_rank + sb.width]
        blocks.append(Block(sb.width, sb.length,
                            [tuple(rank[i + t] for i in rows) for t in range(sb.length)]))
    tg = tunnel_graph(g, blocks)
    nt = tg.g.n
    rate_n = sample_rate_n or max(1, math.ceil(math.log2(max(2, n))))
    rate_t = sample_rate_t or max(1, math.ceil(math.log2(max(2, nt))))
    phi = tg.node_map.tolist()
    real = [b for b in blocks if b.width > 1]

    block_of = [-1] * (n + 1)
    for bidx, blk in enumerate(real):
        for col in blk.columns:
            for v in col:
                block_of[v] = bidx
    # one element per node outside the blocks, one per run of positions in
    # one block: (first position, plain)
    elements = []
    for i in range(1, n + 1):
        b = block_of[rank[i]]
        if b < 0 or b != block_of[rank[i - 1]]:
            elements.append((i, b < 0))
    loc = {}
    for k in sorted({1, len(elements), *range(rate_n, len(elements) + 1, rate_n)}):
        e = k - 1
        while not elements[e][1]:  # a sample moves to the next plain element
            e += 1
        loc[phi[rank[elements[e][0]]]] = elements[e][0]

    skip = {}
    widths = [1] * (nt + 1)
    for blk in real:
        s = blk.size
        exit_rank = phi[blk.columns[s - 1][0]]
        for j in range(rate_t, s, rate_t):
            skip[phi[blk.columns[j - 1][0]]] = (exit_rank, s - j)
        for col in blk.columns:
            widths[phi[col[0]]] = blk.width
    cnt, total = [0], 0
    for v in range(1, nt + 1):
        total += widths[v]
        if v % rate_t == 0:
            cnt.append(total)
    return tg, rate_n, rate_t, loc, skip, cnt


# ---------------------------------------------------------------------------
# block discovery by walking the graph: the column walk that derives and
# checks a string block node by node, the string-block finder built on it,
# and the exhaustive search for maximal blocks


def _walk_string_block(g, start: int, w: int, s: int | None = None):
    """Walk and check the column tuples of the string block seeded at
    [start .. start+w-1]: (the tuples that passed, first failed condition as
    (name, detail) or None).  With s, check the block of length s; without,
    stop at the first failure or at the tuple after the first column with
    mixed out-labels, so len(columns) - 1 is the longest valid length.
    """
    if w < 1 or start < 1 or start + w - 1 > g.n:
        return [], ("bounds", f"seed run outside [1..{g.n}]")
    cols = [tuple(range(start, start + w))]
    present = [lab for lab in (in_label(g, r) for r in cols[0]) if lab is not None]
    if any(lab != present[0] for lab in present):
        return cols, ("iii", "in-labels of the seed column differ")
    used = set(cols[0])
    j = 1
    while s is None or j <= s:
        last = cols[-1]
        outs = [out_label(g, r) for r in last]
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


def derive_string_block(g, start: int, w: int):
    """Greedily derive the longest valid string block at (start, w).

    Returns (s_max, columns) where columns holds the s_max+1 implied tuples
    (just the seed column when s_max = 0, none when the seed is out of
    bounds).  The block of length s passes check_string_block iff
    s <= s_max.
    """
    cols, _ = _walk_string_block(g, start, w)
    return max(len(cols) - 1, 0), cols


def check_string_block(g, sb: StringBlock) -> CheckResult:
    """Check the path-graph block conditions for the implied s+1 tuples:
    the s collapsed columns and the uncollapsed one after them."""
    _require_path_graph(g)
    if sb.length < 1 or sb.width < 1:
        raise ValidationError("string block needs width >= 1 and length >= 1")
    _, violation = _walk_string_block(g, sb.start_rank, sb.width, sb.length)
    return CheckResult.bad(*violation) if violation else CheckResult.good()


def walk_string_blocks(g, min_w: int = 2, min_s: int = 2) -> list[StringBlock]:
    """find_string_blocks by walks, at any width and length thresholds:
    seeds on maximal runs of equal out-labels split by in-label, widens each
    seed while derive_string_block finds a length no shorter, then selects
    greedily by (w-1)(s-1), ties to the smaller start rank, truncating
    overlapping candidates.  At the defaults, find_string_blocks' fixed
    thresholds, a seed of length 2 or more widens only onto the source row;
    at length 1 any neighbour row may join."""
    n = g.n
    out = [None] + [out_label(g, r) for r in range(1, n + 1)] + [None]
    inl = [None] + [in_label(g, r) for r in range(1, n + 1)] + [None]

    seeds = []
    r = 1
    while r <= n:
        if out[r] is None:
            r += 1
            continue
        r2 = r
        while r2 + 1 <= n and out[r2 + 1] == out[r]:
            r2 += 1
        a = r
        while a <= r2:
            b = a
            while b + 1 <= r2 and inl[b + 1] == inl[a]:
                b += 1
            if b - a + 1 >= min_w:
                seeds.append((a, b - a + 1))
            a = b + 1
        r = r2 + 1

    candidates = {}
    for start, w in seeds:
        s, cols = derive_string_block(g, start, w)
        if s < 1:
            continue
        while True:
            for ns, nw in ((start - 1, w + 1), (start, w + 1)):
                if ns < 1 or ns + nw - 1 > n:
                    continue
                s2, cols2 = derive_string_block(g, ns, nw)
                if s2 >= s:
                    start, w, s, cols = ns, nw, s2, cols2
                    break
            else:
                break
        if s >= min_s and w >= min_w and (start, w, s) not in candidates:
            candidates[(start, w, s)] = cols

    heap = []
    for (start, w, s), cols in candidates.items():
        heapq.heappush(heap, (-(w - 1) * (s - 1), start, w, s, cols))
    used = set()
    selected = []
    while heap:
        _, start, w, s, cols = heapq.heappop(heap)
        collapsed = [set(col) for col in cols[:s]]
        if any(colset & used for colset in collapsed):
            s2 = 0
            for colset in collapsed:
                if colset & used:
                    break
                s2 += 1
            if s2 >= min_s:
                heapq.heappush(heap, (-(w - 1) * (s2 - 1), start, w, s2, cols[:s2 + 1]))
            continue
        selected.append(StringBlock(start, w, s))
        for colset in collapsed:
            used |= colset
    selected.sort(key=lambda sb: sb.start_rank)
    return selected


def enumerate_blocks_bruteforce(g, max_nodes: int = 64) -> list[Block]:
    """All maximal blocks, by exhaustive extension of every legal single
    column.  Guarded by a node-count limit."""
    if g.n > max_nodes:
        raise ValidationError(
            f"graph has {g.n} nodes, over the brute-force guard {max_nodes}")
    view = GraphView(g)
    stack = []
    for w in range(1, g.n + 1):
        for base in range(1, g.n - w + 2):
            b = Block(w, 1, [tuple(range(base, base + w))])
            if loop_check_block(view, b):
                stack.append(b)
    seen = set()
    maximal = {}
    while stack:
        b = stack.pop()
        key = block_key(b)
        if key in seen:
            continue
        seen.add(key)
        exts = _bf_extensions(view, b)
        if exts:
            stack.extend(exts)
        else:
            maximal[key] = b
    return sorted(maximal.values(),
                  key=lambda b: (b.columns[0][0], b.width, b.size,
                                 sorted(c[0] for c in b.columns)))


def _bf_extensions(view, b: Block) -> list[Block]:
    out = []
    w = b.width
    blocknodes = node_set(b)
    # append a column: its first row must be a child of a first-row node
    child_bases = set()
    for col in b.columns:
        for _, t, _ in view.out_adj[col[0]]:
            child_bases.add(t)
    for u in sorted(child_bases):
        if u in blocknodes or u + w - 1 > view.n:
            continue
        nb = Block(w, b.size + 1, b.columns + [tuple(range(u, u + w))])
        if loop_check_block(view, nb):
            out.append(nb)
    # prepend new roots: only possible when the old roots have in-degree 1
    roots = b.columns[0]
    if all(len(view.in_adj[r]) == 1 for r in roots):
        q = view.in_adj[roots[0]][0][1]
        if 1 <= q and q + w - 1 <= view.n:
            nb = Block(w, b.size + 1, [tuple(range(q, q + w))] + b.columns)
            if loop_check_block(view, nb):
                out.append(nb)
    # widen by one row below or above
    if all(col[0] - 1 >= 1 for col in b.columns):
        nb = Block(w + 1, b.size, [(col[0] - 1,) + col for col in b.columns])
        if loop_check_block(view, nb):
            out.append(nb)
    if all(col[-1] + 1 <= view.n for col in b.columns):
        nb = Block(w + 1, b.size, [col + (col[-1] + 1,) for col in b.columns])
        if loop_check_block(view, nb):
            out.append(nb)
    return out


# ---------------------------------------------------------------------------
# small indexes shared across test modules

SMALL_TEXTS = {
    "fib": fibonacci_word(2048),
    "cpm4": copy_paste_mutate(random.Random(4), 2048, 4),
    "rand96": random_text(random.Random(1), 2048, 96),
    # sigma 77 after mutation: tunnels over a large alphabet
    "cpm96": copy_paste_mutate(random.Random(4), 2048, 96),
}


@pytest.fixture(scope="session")
def small_index():
    """small_index(name, tunneling) -> the TextIndex of SMALL_TEXTS[name],
    built once per session.  Queries do not modify an index."""
    built = {}

    def get(name: str, tunneling: bool = True):
        key = (name, tunneling)
        if key not in built:
            built[key] = build_index(SMALL_TEXTS[name], tunneling=tunneling)
        return built[key]

    return get


@pytest.fixture
def exit_lookups(monkeypatch):
    """watch(tg) counts reads of tg's exit-copy table in watch.calls, so a
    guard can show that it saw the tunnel exits."""
    class Counting:
        def __init__(self, table):
            self.table = table

        def __getitem__(self, j):
            watch.calls += 1
            return self.table[j]

    def watch(tg):
        monkeypatch.setattr(tg, "_exit_copy", Counting(tg._exit_copy))
        return tg

    watch.calls = 0
    return watch
