import functools
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SMALL_TEXTS,
    assert_lands,
    assert_simulation_equal,
    block_offsets,
    chain_graph,
    check_string_block,
    colex_string_graph,
    copy_paste_mutate,
    derive_string_block,
    edges_search,
    entrance_marks,
    enumerate_blocks_bruteforce,
    fibonacci_word,
    fig1_block,
    fig1_edge_list,
    label_id,
    make_patterns,
    naive_count,
    naive_path_range,
    node_set,
    random_text,
    random_tunneled_graphs,
    structures_equal,
    unequal_exit_graph,
    walk_string_blocks,
)
import twgi
from twgi import text_index
from twgi.bitvec import BitVec
from twgi.errors import BoundsError, InvariantError, NotFoundError, ValidationError
from twgi.persist import deserialize_index, serialize_index
from twgi.text_index import build_graph_from_text, build_index
from twgi.tunnel import (
    Block,
    StringBlock,
    TraversalPos,
    TunneledGraph,
    TunnelRecord,
    check_block,
    find_string_blocks,
    tunnel_graph,
)
from twgi.wheeler import EdgeList, NodeRange, WheelerGraph, encode, validate_wheeler


def abcabc():
    g = build_graph_from_text(b"abcabc")
    blocks = [sb.expand(g) for sb in find_string_blocks(g)]
    return g, blocks, tunnel_graph(g, blocks)


class TestCheckBlock:
    def test_fig1_block_ok(self):
        g = encode(fig1_edge_list())
        assert check_block(g, fig1_block())

    def test_degenerate_width1_ok(self):
        g = encode(fig1_edge_list())
        assert check_block(g, Block(1, 1, [(22,)]))

    def test_abcabc_columns_ok(self):
        g = encode(colex_string_graph(b"abcabc")[0])
        assert check_block(g, Block(2, 2, [(2, 3), (4, 5)]))

    def test_violations_are_named(self):
        g = encode(fig1_edge_list())
        # last column replaced by a non-consecutive pair
        res = check_block(g, Block(2, 7, fig1_block().columns[:6] + [(5, 7)]))
        assert not res and res.condition == "i"
        # duplicated node across columns
        res = check_block(g, Block(2, 7, [(8, 10)] + fig1_block().columns[1:]))
        assert not res and res.condition == "distinct"
        # column straddling two in-label zones
        res = check_block(g, Block(2, 1, [(15, 16)]))
        assert not res and res.condition == "iii"
        # a shorter prefix of the columns is itself a legal block
        assert check_block(g, Block(2, 2, [(8, 9), (19, 20)]))

    def test_condition_iv_violation(self):
        g = encode(fig1_edge_list())
        # (17,18) as a second column: 17 has in-degree 2
        res = check_block(g, Block(2, 2, [(16, 17), (18, 19)]))
        assert not res

    def test_condition_v_violation(self):
        # appending the (27,28) column to the fig1 block makes column (5,6)
        # letter 'c' satisfy neither uniformity case
        g = encode(fig1_edge_list())
        b = fig1_block()
        res = check_block(g, Block(2, 8, b.columns + [(27, 28)]))
        assert not res and res.condition == "v"


class TestCheckStringBlock:
    def test_abcabc_ok(self):
        g = build_graph_from_text(b"abcabc")
        assert check_string_block(g, StringBlock(2, 2, 2))

    def test_width1_ok(self):
        g = build_graph_from_text(b"abcabc")
        for start in range(2, 6):
            assert check_string_block(g, StringBlock(start, 1, 1))

    def test_mixed_in_labels_violation(self):
        g = build_graph_from_text(b"abcabc")
        res = check_string_block(g, StringBlock(3, 2, 1))
        assert not res and res.condition == "iii"

    def test_requires_path_graph(self):
        g = encode(fig1_edge_list())
        with pytest.raises(ValidationError):
            check_string_block(g, StringBlock(2, 2, 1))
        with pytest.raises(ValidationError, match="not a path graph"):
            StringBlock(2, 2, 1).expand(g)
        # n-1 edges, but node 1 has two out-edges, or node 3 two in-edges
        for edges, node in (([(1, 2, 97), (1, 3, 98)], 1), ([(1, 3, 97), (2, 3, 97)], 3)):
            with pytest.raises(ValidationError, match=f"node {node} has branching"):
                check_string_block(encode(EdgeList(3, edges)), StringBlock(1, 1, 1))
            with pytest.raises(ValidationError, match=f"node {node} has branching"):
                StringBlock(1, 1, 1).expand(encode(EdgeList(3, edges)))

    def test_agrees_with_check_block_on_expansion(self):
        g = build_graph_from_text(b"abcabc")
        sb = StringBlock(2, 2, 2)
        assert check_string_block(g, sb)
        assert check_block(g, sb.expand(g))

    def test_matches_derive(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(2, 60)
            text = bytes(rng.choice(b"ab" if rng.random() < 0.6 else b"abc")
                         for _ in range(n))
            g = build_graph_from_text(text)
            for _ in range(12):
                start = rng.randint(1, g.n)
                w = rng.randint(1, 4)
                s_max, _ = derive_string_block(g, start, w)
                for s in range(1, s_max + 3):
                    ok = bool(check_string_block(g, StringBlock(start, w, s)))
                    assert ok == (s <= s_max), (text, start, w, s, s_max)

    def test_named_conditions_match_colex_columns(self):
        rng = random.Random(29)
        seen = set()
        for _ in range(80):
            alpha = rng.choice((b"a", b"ab", b"abc", b"aab"))
            text = bytes(rng.choice(alpha) for _ in range(rng.randint(2, 40)))
            g = build_graph_from_text(text)
            for _ in range(25):
                start = rng.randint(0, g.n + 1)
                w, s = rng.randint(1, 4), rng.randint(1, 5)
                res = check_string_block(g, StringBlock(start, w, s))
                want = string_block_violation(text, start, w, s)
                if want is None:
                    assert res, (text, start, w, s, res)
                    continue
                cond, col = want
                assert not res and res.condition == cond, (text, start, w, s, res, want)
                if col is not None:
                    assert f"column {col} " in res.detail, (text, start, w, s, res, want)
                seen.add((cond, col is not None and col > 1))
        assert seen >= {("bounds", False), ("iii", False), ("iii", True), ("ii", True),
                        ("i", True), ("distinct", True)}


def string_block_violation(text, start, w, s):
    """First failed path-graph block condition of StringBlock(start, w, s)
    on the colex oracle graph of text, as (name, column), column None for
    the bounds and the seed column; None when the block is valid."""
    el, _ = colex_string_graph(text)
    succ = {u: (v, c) for u, v, c in el.edges}
    into = {v: c for _, v, c in el.edges}
    if start < 1 or start + w - 1 > el.n:
        return "bounds", None
    cols = [list(range(start, start + w))]
    if len({into[v] for v in cols[0] if v in into}) > 1:
        return "iii", None
    for j in range(1, s + 1):
        if any(v not in succ for v in cols[-1]):
            return "ii", j
        if j < s and len({succ[v][1] for v in cols[-1]}) > 1:
            return "iii", j + 1
        nxt = [succ[v][0] for v in cols[-1]]
        if nxt != list(range(nxt[0], nxt[0] + w)):
            return "i", j + 1
        if any(v in col for v in nxt for col in cols):
            return "distinct", j + 1
        cols.append(nxt)
    return None


ORACLE_TEXTS = {
    "fib": fibonacci_word(2048),
    "cpm4": copy_paste_mutate(random.Random(4), 2048, 4),
    "cpm4-s7": copy_paste_mutate(random.Random(7), 1500, 4),
    "cpm96": copy_paste_mutate(random.Random(2), 1024, 96),
    "rand2": random_text(random.Random(3), 2048, 2),
    "rand4": random_text(random.Random(5), 2048, 4),
    "rand96": random_text(random.Random(1), 2048, 96),
}


def short_texts():
    """Every text of length 0..10 over {a, b}, three texts whose blocks
    end in a column of differing out-labels (``abcabd``, ``bacac``) or
    widen onto the last rank (``cacacb``), then short random and copy-paste
    texts."""
    texts = [bytes(t) for k in range(11) for t in itertools.product(b"ab", repeat=k)]
    texts += [b"abcabd", b"bacac", b"cacacb"]
    rng = random.Random(47)
    for k in range(40):
        size, sigma = rng.randint(3, 64), (1, 2, 3, 4, 96)[k % 5]
        texts.append(random_text(rng, size, sigma) if k % 2
                     else copy_paste_mutate(rng, size, min(sigma, 26)))
    return texts


@functools.cache
def found_and_walked(text: bytes):
    """The blocks of find_string_blocks and of the walking oracle, both at
    the finder's fixed thresholds (width and length at least 2)."""
    g = build_graph_from_text(text)
    return find_string_blocks(g), walk_string_blocks(g)


def at_least(blocks, min_w: int, min_s: int):
    return [sb for sb in blocks if sb.width >= min_w and sb.length >= min_s]


class TestExpand:
    """One expansion: ``StringBlock.expand`` and the build read a block's
    columns off the text order through ``StringBlock.block``, and the
    column walk of conftest is their oracle."""

    @staticmethod
    def texts():
        yield from SMALL_TEXTS.values()
        rng = random.Random(131)
        for _ in range(200):
            n = rng.randint(2, 300)
            yield (copy_paste_mutate(rng, n, rng.choice((2, 4))) if rng.random() < 0.7
                   else random_text(rng, n, rng.choice((2, 3))))

    def test_expand_walk_and_build_agree(self, monkeypatch):
        built = []
        to_tunnels = text_index.tunnel_graph
        monkeypatch.setattr(text_index, "tunnel_graph",
                            lambda g, blocks: built.append((g, blocks)) or to_tunnels(g, blocks))
        blocks = 0
        for text in self.texts():
            build_index(text)
            g, passed = built.pop()
            found = find_string_blocks(g)
            assert len(passed) == len(found)
            for sb, b in zip(found, passed):
                got = sb.expand(g)
                s_max, cols = derive_string_block(g, sb.start_rank, sb.width)
                assert s_max >= sb.length, (text, sb)
                assert (got.width, got.size) == (b.width, b.size) == (sb.width, sb.length)
                assert got.columns == cols[:sb.length] == b.columns, (text, sb)
                blocks += 1
        assert blocks > 1000

    def test_rows_follow_the_text(self):
        # row r's column t is the node t text positions after r
        for text in (b"abcabc", b"mississippi", fibonacci_word(50)):
            g = build_graph_from_text(text)
            rank = colex_string_graph(text)[1]  # by text position
            for start in range(1, g.n + 1):
                k = rank.index(start)
                for s in range(1, g.n - k + 1):
                    assert StringBlock(start, 1, s).expand(g).columns == [
                        (r,) for r in rank[k:k + s]]
                with pytest.raises(ValidationError, match="runs past the sink"):
                    StringBlock(start, 1, g.n - k + 1).expand(g)

    def test_seed_outside_the_nodes_raises(self):
        g = build_graph_from_text(b"abcabc")
        assert g.n == 7 and StringBlock(6, 2, 1).expand(g).columns == [(6, 7)]
        for a, w, s in ((0, 2, 1), (-1, 3, 1), (7, 2, 1), (8, 1, 1), (2, 0, 1), (2, 2, 0)):
            with pytest.raises(ValidationError, match=r"needs w, s >= 1, rows in \[1..7\]"):
                StringBlock(a, w, s).expand(g)


class TestFindStringBlocks:
    # the finder has no thresholds of its own: each (min_w, min_s) compares
    # the blocks of one size class, the ones at least that wide and long
    @pytest.mark.parametrize("min_w", [2, 3])
    @pytest.mark.parametrize("min_s", [1, 2, 3])
    @pytest.mark.parametrize("name", list(ORACLE_TEXTS))
    def test_matches_walking_oracle(self, name, min_w, min_s):
        found, walked = found_and_walked(ORACLE_TEXTS[name])
        assert at_least(found, min_w, min_s) == at_least(walked, min_w, min_s)

    @pytest.mark.parametrize("min_w", [1, 2, 3])
    @pytest.mark.parametrize("min_s", [1, 2, 3])
    def test_matches_walking_oracle_short(self, min_w, min_s):
        for text in short_texts():
            found, walked = found_and_walked(text)
            assert at_least(found, min_w, min_s) == at_least(walked, min_w, min_s), text

    @pytest.mark.parametrize("text", [b"baabaaba", b"bbabbabb"])
    def test_seed_takes_in_the_source_row(self, text):
        # the source, rank 1, has no in-label, so it joins the seed of equal
        # out-labels that starts at rank 2 without shortening it
        found, walked = found_and_walked(text)
        assert found == walked == [StringBlock(1, 3, 2)]

    def test_rejects_cycle_off_the_path(self):
        # a Wheeler graph with n-1 edges and no branching, whose nodes 2 and
        # 3 form a cycle that the source's path never reaches
        g = encode(EdgeList(3, [(2, 3, 98), (3, 2, 97)]))
        with pytest.raises(ValidationError, match="not a path graph"):
            find_string_blocks(g)

    def test_abcabc(self):
        g = build_graph_from_text(b"abcabc")
        assert find_string_blocks(g) == [StringBlock(2, 2, 2)]

    def test_no_repeats_empty(self):
        g = build_graph_from_text(b"abc")
        assert find_string_blocks(g) == []

    def test_periodic_matches_bruteforce_containment(self):
        for k in (2, 3, 4):
            text = b"abc" * k
            g = build_graph_from_text(text)
            found = find_string_blocks(g)
            assert found, f"(abc)^{k} must tunnel"
            maximal = enumerate_blocks_bruteforce(g)
            for sb in found:
                nodes = node_set(sb.expand(g))
                assert any(nodes <= node_set(mb) for mb in maximal), (k, sb)

    def test_selected_blocks_disjoint(self):
        rng = random.Random(31)
        for _ in range(40):
            text = bytes(rng.choice(b"abcd"[:rng.randint(2, 4)])
                         for _ in range(rng.randint(4, 400)))
            g = build_graph_from_text(text)
            used = set()
            for sb in find_string_blocks(g):
                nodes = node_set(sb.expand(g))
                assert not (nodes & used)
                used |= nodes

    def test_heuristic_blocks_are_seed_maximal(self):
        rng = random.Random(37)
        for _ in range(30):
            text = bytes(rng.choice(b"ab") for _ in range(rng.randint(4, 120)))
            g = build_graph_from_text(text)
            blocks = find_string_blocks(g)
            selected = {v for sb in blocks for v in node_set(sb.expand(g))}
            for sb in blocks:
                own = node_set(sb.expand(g))
                for ext in (StringBlock(sb.start_rank, sb.width, sb.length + 1),
                            StringBlock(sb.start_rank - 1, sb.width + 1, sb.length),
                            StringBlock(sb.start_rank, sb.width + 1, sb.length)):
                    if ext.start_rank < 1:
                        continue
                    if not check_string_block(g, ext):
                        continue
                    # a passing extension must be blocked by the greedy
                    # disjointness (its extra nodes belong to other blocks)
                    extra = node_set(ext.expand(g)) - own
                    assert extra & (selected - own), (text, sb, ext)


class TestBruteforce:
    def test_fig1_contains_the_block(self):
        g = encode(fig1_edge_list())
        blocks = enumerate_blocks_bruteforce(g)
        want = fig1_block()
        hits = [b for b in blocks if b.width == 2 and b.size == 7]
        assert len(hits) == 1
        assert set(hits[0].columns) == set(want.columns)
        assert hits[0].columns[0] == want.columns[0]

    def test_distinct_labels_only_width1(self):
        g = build_graph_from_text(b"abcdef")
        blocks = enumerate_blocks_bruteforce(g)
        assert blocks
        assert all(b.width == 1 for b in blocks)

    def test_abcabc_cross_check(self):
        g = build_graph_from_text(b"abcabc")
        maximal = enumerate_blocks_bruteforce(g)
        found = find_string_blocks(g)
        for sb in found:
            nodes = node_set(sb.expand(g))
            assert any(nodes <= node_set(mb) for mb in maximal)

    def test_size_guard(self):
        g = build_graph_from_text(bytes(range(97, 97 + 26)) * 3)
        with pytest.raises(ValidationError):
            enumerate_blocks_bruteforce(g, max_nodes=64)


class TestTunnelGraph:
    def test_fig1_node_drop(self):
        g = encode(fig1_edge_list())
        tg = tunnel_graph(g, [fig1_block()])
        assert g.n - tg.g.n == 7  # (w-1)*s = 1*7
        assert validate_wheeler(tg.g.to_edge_list())

    def test_empty_blocks_identity(self):
        el = EdgeList(3, [(1, 2, 97), (2, 3, 98)])
        g = encode(el)
        tg = tunnel_graph(g, [])
        assert structures_equal(tg.g, g)
        assert tg.iprime.to01() == "11"
        assert tg.oprime.to01() == "11"
        assert not tg.tunnels

    def test_width1_blocks_are_identity(self):
        g = encode(fig1_edge_list())
        tg = tunnel_graph(g, [Block(1, 1, [(22,)])])
        assert structures_equal(tg.g, g)
        assert not tg.tunnels

    def test_abcabc_frozen_structures(self):
        _, _, tg = abcabc()
        assert tg.g.n == 5 and tg.g.m == 5
        labels = bytes(tg.g.alphabet[tg.g.L.access(i) - 1]
                       for i in range(1, tg.g.m + 1))
        assert labels == b"abcca"
        assert tg.g.I.to01() == "11001010101"
        assert tg.g.O.to01() == "10101001011"
        assert tg.iprime.to01() == "11111"
        assert tg.oprime.to01() == "11111"
        assert entrance_marks(tg).to01() == "01000"
        assert tg.inner_marks.to01() == "00100"
        assert tg.tunnels[0].entrance == 2 and tg.tunnels[0].exit == 3
        assert tg.tunnels[0].width == 2 and tg.tunnels[0].length == 2

    def test_reencode_roundtrip(self):
        g = encode(fig1_edge_list())
        tg = tunnel_graph(g, [fig1_block()])
        again = encode(tg.g.to_edge_list())
        assert structures_equal(again, tg.g)

    def test_overlapping_blocks_error(self):
        g = encode(fig1_edge_list())
        b = fig1_block()
        with pytest.raises(ValidationError):
            tunnel_graph(g, [b, Block(2, 1, [(19, 20)])])

    def test_non_block_error(self):
        g = encode(fig1_edge_list())
        with pytest.raises(ValidationError):
            tunnel_graph(g, [Block(2, 1, [(15, 16)])])

    def test_accounting_identity(self):
        rng = random.Random(41)
        for _ in range(25):
            text = bytes(rng.choice(b"abc") for _ in range(rng.randint(4, 300)))
            g = build_graph_from_text(text)
            blocks = [sb.expand(g) for sb in find_string_blocks(g)]
            tg = tunnel_graph(g, blocks)
            assert tg.g.n == g.n - sum((b.width - 1) * b.size for b in blocks)
            assert tg.g.m == g.m - sum((b.width - 1) * (b.size - 1) for b in blocks)


class TestOffsets:
    def test_enter_offset_examples(self):
        _, _, tg = abcabc()
        # edge 1 = (v1 -> x1), edge 2 = (former v4 -> x1), edge 3 = (x1 -> x2)
        assert tg.land(1, None) == (2, 1)
        assert tg.land(2, None) == (2, 2)
        assert tg.land(3, 2) == (3, 2)  # an in-tunnel move keeps the copy
        a = label_id(tg.g, 97)
        assert tg._edges(1, 1, 5, None, a) == (1, 1, 2, None)
        assert tg._search_pairs(b"a") == ((2, 1), (2, 2))

    def test_enter_offset_needs_an_edge_into_the_entrance(self):
        # only an edge into an entrance lands past copy 1
        for tg in (abcabc()[2], tunnel_graph(encode(fig1_edge_list()), [fig1_block()])):
            assert assert_lands(tg) == tg.g.m
            past = {tg.g.edge_target(j) for j in range(1, tg.g.m + 1) if tg.land(j, 1)[1] > 1}
            assert past and past <= set(tg.entrance_info)

    def test_exit_edge_examples(self):
        _, _, tg = abcabc()
        c = label_id(tg.g, ord("c"))
        # c-edges of x2 (rank 3) are edges 4 and 5
        assert tg.g.edge_range_for_label(NodeRange(3, 3), c) == (4, 5)
        assert tg._edges(3, 1, 3, 1, c) == (4, 1, 4, None)
        assert tg._edges(3, 2, 3, 2, c) == (5, 1, 5, None)
        assert tg._edges(3, 1, 3, 2, c) == (4, 1, 5, None)
        assert tg._edges(3, 2, 3, 1, c) is None  # lo copy above hi copy
        assert tg._edges(3, 3, 3, 3, c) is None  # offset beyond the group count
        b = label_id(tg.g, ord("b"))  # x1 -> x2 is an in-tunnel move: it keeps the copy
        assert tg._edges(2, 2, 2, 2, b) == (3, 2, 3, 2)
        assert tg._edges(2, 1, 2, None, b) == (3, 1, 3, None)
        with pytest.raises(BoundsError, match="node 3 has no copy 3"):
            tg.step(TraversalPos(3, 3), c)  # above the widest tunnel's width
        with pytest.raises(NotFoundError):
            tg.step(TraversalPos(3, 1), c, 2)  # each copy has one c-edge

    def test_copy_above_the_widest_tunnel(self):
        # an in-tunnel move carries the copy, so only the widest tunnel's
        # width bounds it on entry
        _, _, tg = abcabc()
        b = label_id(tg.g, ord("b"))
        assert tg.step(TraversalPos(2, 2), b) == TraversalPos(3, 2)
        with pytest.raises(BoundsError, match="node 2 has no copy 5"):
            tg.step(TraversalPos(2, 5), b)

    def test_missing_exit_copy_raises(self):
        _, _, tg = abcabc()
        assert tg.exit_copies == {4: 1, 5: 2}
        for j in (4, 5):
            copies = {k: o for k, o in tg.exit_copies.items() if k != j}
            with pytest.raises(ValidationError, match=f"exit edge {j} has no recorded copy"):
                TunneledGraph(tg.g, tg.iprime, tg.oprime, tg.inner_marks, tg.tunnels, copies)

    @pytest.mark.parametrize("edges,copies,match", [
        # entrance 2's b-edges: the in-tunnel move 2 -> 3 and edge 3, 2 -> 4
        ([(1, 2, 97), (2, 3, 98), (2, 4, 98), (3, 5, 99), (3, 6, 99)], {3: 1, 4: 1, 5: 2},
         "in-tunnel move must be alone"),
        # as exit slots (an index file's copies), edge 3 leaves from no exit
        ([(1, 2, 97), (2, 3, 98), (2, 4, 98), (3, 5, 99), (3, 6, 99)], None,
         "only a tunnel's exits may leave it"),
        # edge 2, 1 -> 3, enters the inner node 3 from a plain node
        ([(1, 2, 97), (1, 3, 98), (2, 3, 98), (3, 4, 99), (3, 5, 99)], {4: 1, 5: 2},
         "must leave a tunnel node"),
        # the exit 3 steps to itself by a b-edge, a second in-edge of the inner node 3
        ([(1, 2, 97), (2, 3, 98), (3, 3, 98), (3, 4, 99), (3, 5, 99)], {4: 1, 5: 2},
         "must have one in-edge"),
    ])
    def test_edges_beside_in_tunnel_moves_rejected(self, edges, copies, match):
        # one tunnel of width 2 from entrance 2 to its inner exit 3
        n = max(max(u, v) for u, v, _ in edges)
        g = encode(EdgeList(n, edges))
        with pytest.raises(ValidationError, match=match):
            TunneledGraph(g, BitVec("1" * g.m), BitVec("1" * g.m), BitVec("001".ljust(n, "0")),
                          [TunnelRecord(2, 3, 2, 2)], copies)

    def test_enter_offset_with_sourceless_root(self):
        # tunnel roots (1, 2) where copy 1 has no in-edge at all: the only
        # entering edge must yield offset 2, the last copy
        el = EdgeList(4, [(3, 2, 97), (4, 3, 98), (3, 4, 99)])
        assert validate_wheeler(el)
        g = encode(el)
        blocks = [Block(2, 1, [(1, 2)])]
        assert check_block(g, blocks[0])
        tg = tunnel_graph(g, blocks)
        a = label_id(tg.g, 97)
        entering_edge = tg.g.out_edge_rank(tg.node_map[3], a, 1)
        assert tg.land(entering_edge, None) == (tg.node_map[2], 2)
        assert assert_lands(tg) == tg.g.m
        assert_simulation_equal(el, tg, blocks)


class TestStep:
    def test_step_examples(self):
        _, _, tg = abcabc()
        a, b, c = (label_id(tg.g, x) for x in b"abc")
        assert tg.step(TraversalPos(1, 1), a) == TraversalPos(2, 1)
        assert tg.step(TraversalPos(2, 2), b) == TraversalPos(3, 2)
        assert tg.step(TraversalPos(3, 2), c) == TraversalPos(5, 1)

    def test_step_rejects_a_copy_outside_the_node(self):
        _, _, tg = abcabc()
        a, b = label_id(tg.g, 97), label_id(tg.g, 98)
        # node 1 lies outside any tunnel, node 2 is a tunnel entrance
        for pos, c in ((TraversalPos(1, 0), a), (TraversalPos(1, 2), a),
                       (TraversalPos(1, 7), a), (TraversalPos(2, 0), b),
                       (TraversalPos(2, -1), b)):
            with pytest.raises(BoundsError, match=f"no copy {pos.offset}"):
                tg.step(pos, c)
        assert tg.step(TraversalPos(1, 1), a) == TraversalPos(2, 1)

    def test_step_not_found(self):
        _, _, tg = abcabc()
        b = label_id(tg.g, ord("b"))
        with pytest.raises(NotFoundError):
            tg.step(TraversalPos(1, 1), b)

    def test_simulation_abcabc(self):
        g, blocks, tg = abcabc()
        assert_simulation_equal(g.to_edge_list(), tg, blocks)

    def test_simulation_fig1(self):
        el = fig1_edge_list()
        g = encode(el)
        blocks = [fig1_block()]
        tg = tunnel_graph(g, blocks)
        assert_simulation_equal(el, tg, blocks)

    def test_simulation_unequal_exits(self):
        el, blocks = unequal_exit_graph()
        g = encode(el)
        tg = tunnel_graph(g, blocks)
        assert_simulation_equal(el, tg, blocks)
        d = label_id(tg.g, 100)
        with pytest.raises(NotFoundError):
            tg.step(TraversalPos(tg.node_map[5], 1), d)

    def test_simulation_chains(self):
        for depth in (2, 3, 4):
            el, blocks = chain_graph(depth)
            g = encode(el)
            tg = tunnel_graph(g, blocks)
            assert_simulation_equal(el, tg, blocks)

    def test_simulation_random_strings(self):
        rng = random.Random(43)
        for _ in range(25):
            text = bytes(rng.choice(b"abc"[:rng.randint(2, 3)])
                         for _ in range(rng.randint(4, 150)))
            g = build_graph_from_text(text)
            blocks = [sb.expand(g) for sb in find_string_blocks(g)]
            tg = tunnel_graph(g, blocks)
            assert_simulation_equal(g.to_edge_list(), tg, blocks)

    def test_simulation_bruteforce_blocks(self):
        el = fig1_edge_list()
        g = encode(el)
        for blk in enumerate_blocks_bruteforce(g):
            tg = tunnel_graph(g, [blk])
            assert_simulation_equal(el, tg, [blk])


class TestTunneledSearch:
    def test_search_step_examples(self):
        _, _, tg = abcabc()
        a = label_id(tg.g, 97)
        assert tg.path_search(b"a") == NodeRange(2, 2)
        assert tg._edges(2, 1, 2, None, a) is None  # x1 has no a-edge
        assert tg.path_search(b"aa").is_empty
        assert tg.path_search(b"ab") == NodeRange(3, 3)
        assert tg._search_pairs(b"ab") == ((3, 1), (3, 2))

    def test_path_search_examples(self):
        _, _, tg = abcabc()
        assert not tg.path_search(b"bca").is_empty
        assert tg.path_search(b"") == NodeRange(1, 5)
        assert tg.path_search(b"cc").is_empty

    def test_existence_equivalence_strings(self):
        rng = random.Random(47)
        for _ in range(30):
            text = bytes(rng.choice(b"ab") for _ in range(rng.randint(2, 120)))
            g = build_graph_from_text(text)
            el = g.to_edge_list()
            blocks = [sb.expand(g) for sb in find_string_blocks(g)]
            tg = tunnel_graph(g, blocks)
            for _ in range(40):
                plen = rng.randint(1, 6)
                pat = bytes(rng.choice(b"ab") for _ in range(plen))
                want = naive_count(text, pat) > 0
                assert (not tg.path_search(pat).is_empty) == want, (text, pat)
                assert (naive_path_range(el, pat) is not None) == want

    def test_existence_equivalence_general(self):
        el = fig1_edge_list()
        g = encode(el)
        tg = tunnel_graph(g, [fig1_block()])
        rng = random.Random(53)
        for _ in range(300):
            pat = bytes(rng.choice(b"abc") for _ in range(rng.randint(1, 6)))
            assert tg.path_search(pat).is_empty == (naive_path_range(el, pat) is None), pat

    def test_range_is_the_image_of_the_original_range(self):
        # the search's (node, offset) ends are the images of the original
        # graph's Wheeler range; an offset of None stands for the block width
        rng = random.Random(97)
        patterns = found = 0
        for el, blocks, tg in random_tunneled_graphs(83, 200):
            phi, offsets = tg.node_map, block_offsets(blocks)
            width = {v: b.width for b in blocks for col in b.columns for v in col}
            alphabet = sorted({c for _, _, c in el.edges}) or [97]
            for _ in range(40):
                pat = bytes(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
                want, got = naive_path_range(el, pat), tg._search_pairs(pat)
                patterns += 1
                if want is None:
                    assert got is None, pat
                    continue
                (lo, lo_off), (hi, hi_off) = got
                assert (lo, lo_off) == (phi[want[0]], offsets.get(want[0], 1)), pat
                assert hi == phi[want[1]], pat
                assert (hi_off or width[want[1]]) == offsets.get(want[1], 1), pat
                found += 1
        assert patterns > 5000 and found > 1000

    def test_offset_tracked_search_rejects_phantom_paths(self):
        # copy 1 exits by nothing, copy 2 exits by 'd': a bare node-range
        # follow would accept "acd"; the offset-tracked search must not
        el, blocks = unequal_exit_graph()
        g = encode(el)
        tg = tunnel_graph(g, blocks)
        assert tg.path_search(b"acd").is_empty
        assert not tg.path_search(b"bcd").is_empty
        assert naive_path_range(el, b"acd") is None


def search_against_reference(tg, patterns, edges_calls, exit_lookups):
    """Asserts that tg._search_pairs equals edges_search on every pattern.
    Returns the reference's Counter of step kinds, plus "fallback": the
    ``_edges`` calls of ``_search_pairs``, and "exit reads": its reads of
    the exit-copy table."""
    seen = Counter()
    exit_lookups(edges_calls(tg))
    for pat in patterns:
        want = edges_search(tg, pat, seen)
        before, reads = edges_calls.calls, exit_lookups.calls
        assert tg._search_pairs(pat) == want, pat
        seen["fallback"] += edges_calls.calls - before
        seen["exit reads"] += exit_lookups.calls - reads
    assert seen["fallback"] <= seen["narrow"]
    return seen


class CountingBytes(bytes):
    """L's bytes, counting the ``count`` calls."""

    calls = 0

    def count(self, *args):
        self.calls += 1
        return super().count(*args)


SEARCH_BRANCHES = ("plain", "keeps", "other label", "shifted", "narrow", "fallback",
                   "exit reads", "border", "ranked")


class TestSearchLoop:
    """The written-out search answers as the composition it replaced, one
    ``_edges`` and two ``land`` calls per symbol, and each of its branches
    runs: the plain step, an end whose border edge carries the symbol, one
    that drops out and ranks L, a one-out-edge end that keeps its copy, one
    whose edge has another label, an end whose L bound shifts to its copy's
    slot, and the ``_edges`` fallback."""

    @pytest.mark.parametrize("name", list(SMALL_TEXTS))
    @pytest.mark.parametrize("tunneling", [True, False])
    def test_text_index_equals_edges_search(self, name, tunneling, small_index, edges_calls,
                                            exit_lookups):
        text, ix = SMALL_TEXTS[name], small_index(name, tunneling)
        rng = random.Random(109)
        patterns = make_patterns(rng, text, 150, max_len=24)
        for plen in (1, 2, 5, 13, 34, 97):
            starts = (rng.randrange(len(text) - plen + 1) for _ in range(10))
            patterns += [text[i:i + plen] for i in starts]
        for tg in (ix.tg, deserialize_index(serialize_index(ix)).tg):
            seen = search_against_reference(tg, patterns, edges_calls, exit_lookups)
            assert seen["plain"] > 0 and seen["border"] > 0 and seen["ranked"] > 0, seen
            if not tg.tunnels:  # no end ever has a copy to narrow by
                assert set(seen) <= {"plain", "border", "ranked", "fallback", "exit reads"}
                assert seen["fallback"] == seen["exit reads"] == 0
            else:  # every exit end narrows by its slots, and none by _edges
                assert all(seen[kind] > 0 for kind in SEARCH_BRANCHES
                           if kind not in ("narrow", "fallback", "exit reads")), seen
                assert seen["narrow"] == seen["fallback"] == seen["exit reads"] == 0, seen

    def test_general_graphs_equal_edges_search(self, edges_calls, exit_lookups):
        # every pattern of up to 3 symbols, and some longer ones; on the first
        # graph, "abb" reaches a one-out-edge lo end at copy 2 whose edge
        # leaves the tunnel from copy 1, so the range must drop that edge
        el = EdgeList(12, [(4, 5, 97), (5, 5, 97), (6, 5, 97), (12, 6, 97), (1, 7, 98),
                           (1, 8, 98), (2, 8, 98), (3, 8, 98), (4, 9, 98), (4, 9, 98),
                           (6, 9, 98), (6, 10, 98), (7, 10, 98), (10, 11, 98), (10, 11, 98),
                           (11, 12, 98), (12, 12, 98)])
        blocks = [Block(4, 1, [(1, 2, 3, 4)]), Block(3, 1, [(7, 8, 9)])]
        # on the next two, whose copy is slot, a tunnel node has no out-edge
        # for some copies: "aa" reaches a hi end at copy 2, and a lo end at
        # copy 4, of a node of none, and each shifted L bound must stop at the
        # node's last out-edge
        slots = [(EdgeList(5, [(4, 2, 97), (5, 2, 97), (3, 3, 99), (4, 4, 99), (5, 4, 99),
                               (4, 5, 100)]), [Block(2, 1, [(1, 2)])]),
                 (EdgeList(12, [(6, 4, 97), (6, 5, 97), (7, 6, 97), (7, 7, 97), (8, 7, 97),
                                (8, 7, 97), (9, 8, 97), (9, 8, 97), (9, 8, 97), (10, 9, 97),
                                (10, 9, 97), (10, 10, 97), (11, 10, 97), (12, 11, 97),
                                (12, 12, 97)]), [Block(5, 1, [(1, 2, 3, 4, 5)])])]
        rng = random.Random(113)
        total = Counter()
        graphs = [(el, blocks, tunnel_graph(encode(el), blocks)) for el, blocks
                  in [(el, blocks), *slots]]
        assert all(tg._copy_is_slot for _, _, tg in graphs[1:])
        for el, _, tg in graphs + list(random_tunneled_graphs(83, 200)):
            alphabet = sorted({c for _, _, c in el.edges}) or [97]
            patterns = [bytes(p) for k in (1, 2, 3) for p in itertools.product(alphabet, repeat=k)]
            patterns += [bytes(rng.choice(alphabet) for _ in range(rng.randint(4, 6)))
                         for _ in range(20)]
            total += search_against_reference(tg, patterns, edges_calls, exit_lookups)
        # the blocks of these graphs hold 6 in-tunnel moves, 1 of them from a
        # node of one out-edge, so "keeps" is left to the text indexes
        assert all(total[kind] > 0 for kind in SEARCH_BRANCHES if kind != "keeps"), total

    @pytest.mark.parametrize("name", ["fib", "cpm4"])
    @pytest.mark.parametrize("tunneling", [True, False])
    def test_only_an_end_that_drops_out_ranks(self, name, tunneling, small_index, monkeypatch):
        # a rank of L is one bytes.count, and a text index's search calls no
        # _edges, which would rank more.  Each step runs from the state the
        # last one reached.
        tg = small_index(name, tunneling).tg
        spy = CountingBytes(tg.g.L._bytes)
        monkeypatch.setattr(tg.g.L, "_bytes", spy)
        text, total = SMALL_TEXTS[name], Counter()
        patterns = make_patterns(random.Random(127), text, 200, max_len=24)
        patterns += [text[i:i + 97] for i in range(0, len(text) - 97, 100)]  # exit ends
        for pat in patterns:
            state = None
            for byte in pat:
                seen = Counter()
                want = edges_search(tg, bytes((byte,)), seen, state)
                before = spy.calls
                got = tg._search_pairs(bytes((byte,)), state)
                assert got == want and spy.calls - before == seen["ranked"], (pat, seen)
                total["both border"] += seen["border"] == 2
                total += seen
                if got is None:
                    break
                state = (*got[0], *got[1])
        assert total["both border"] > 0 and total["ranked"] > 0, total
        assert (total["shifted"] > 0) == tunneling, total

    @pytest.mark.parametrize("name", list(SMALL_TEXTS))
    @pytest.mark.parametrize("tunneling", [True, False])
    def test_ranges_at_the_source_and_the_sink(self, name, tunneling, small_index):
        # every suffix's range holds the sink, which has no out-edge: the
        # shortest suffix that occurs once, and every longer one, reach a range
        # of the sink alone.  Suffixes of up to 128 bytes and those two are
        # searched (every suffix would take O(n^2) steps); on fib some of them
        # end at the sink, on cpm4 none, so two ranges from the source and its
        # neighbour to the sink are added.  The empty suffix's range, and the
        # source's node alone, have the source as their lo end.
        text = SMALL_TEXTS[name]
        n = len(text)
        once = next(k for k in range(1, n + 1) if naive_count(text, text[n - k:]) == 1)
        suffixes = sorted({text[n - k:] for k in (*range(129), once, n)}, key=len)
        extensions = [bytes((x,)) for x in sorted(set(text))]
        extensions.append(bytes((min(set(range(256)) - set(text)),)))
        ix = small_index(name, tunneling)
        for tg in (ix.tg, deserialize_index(serialize_index(ix)).tg):
            states = [(1, 1, 1, None)]
            for suffix in suffixes:
                got = tg._search_pairs(suffix)
                assert got == edges_search(tg, suffix), suffix
                states.append((*got[0], *got[1]))
            sink = states[-1][0]  # the whole text's range: the sink alone
            assert states[-1][2] == sink and tg.g._lstart[sink] == tg.g._lstart[sink + 1]
            states += [(1, 1, sink, None), (sink - 1, 1, sink, None)]
            for state in states:
                for x in extensions:
                    assert tg._search_pairs(x, state) == edges_search(tg, x, state=state), (state, x)


@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_random_texts_search_like_the_reference(data):
    # count against the naive count, and the search loop against
    # edges_search, on every substring of up to 12 bytes and on random
    # patterns, most of them absent, some with a byte outside the alphabet;
    # copy-paste-mutate texts have tunnels, random ones few
    sigma = data.draw(st.sampled_from([2, 3, 4]), label="sigma")
    make = data.draw(st.sampled_from([random_text, copy_paste_mutate]), label="generator")
    text = make(random.Random(data.draw(st.integers(0, 2**32), label="seed")),
                data.draw(st.integers(2, 300), label="size"), sigma)
    alphabet = b"abcd"[:sigma]
    ix = build_index(text, tunneling=data.draw(st.booleans(), label="tunneling"))
    patterns = {text[i:i + k] for k in range(1, 13) for i in range(len(text) - k + 1)}
    patterns.update(data.draw(st.lists(st.binary(min_size=1, max_size=14).map(
        lambda p: bytes(alphabet[x % sigma] if x % 8 else 0x7a for x in p)), max_size=20),
        label="patterns"))
    for pat in patterns:
        assert ix.count(pat) == naive_count(text, pat), pat
        assert ix.tg._search_pairs(pat) == edges_search(ix.tg, pat), pat


class TestInvariantErrors:
    def test_node_accounting(self, monkeypatch):
        # a block declaring more columns than it lists slips past a check
        # that passes everything, and the node count no longer adds up
        import twgi.tunnel
        monkeypatch.setattr(twgi.tunnel, "_check_blocks", lambda n, edges, blocks: None)
        g = encode(fig1_edge_list())
        with pytest.raises(InvariantError, match="node accounting"):
            tunnel_graph(g, [Block(2, 3, [(1, 2), (3, 4)])])

    def test_non_coherent_range(self):
        # both a-edges reach node 2; a step table that sends the first one
        # to node 3 lands lo above hi
        _, _, tg = abcabc()
        assert tg._search_pairs(b"a") == ((2, 1), (2, 2))
        tg._step_to[tg._pos[1]] = 3
        with pytest.raises(InvariantError, match="non-coherent"):
            tg.path_search(b"a")


class TestPublicApi:
    def test_every_exported_name_resolves(self):
        assert all(hasattr(twgi, name) for name in twgi.__all__)

    def test_the_column_walk_is_not_exported(self):
        # the walk and its label helpers live on as test oracles (conftest)
        for name in ("check_string_block", "derive_string_block"):
            assert name not in twgi.__all__ and not hasattr(twgi, name)
        for name in ("edge_label", "in_label", "out_label_single"):
            assert not hasattr(WheelerGraph, name)
