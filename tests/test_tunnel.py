import random

import pytest

from conftest import (
    assert_simulation_equal,
    block_offsets,
    chain_graph,
    colex_string_graph,
    copy_paste_mutate,
    enumerate_blocks_bruteforce,
    fibonacci_word,
    fig1_block,
    fig1_edge_list,
    naive_count,
    naive_path_range,
    random_text,
    random_tunneled_graphs,
    unequal_exit_graph,
    walk_string_blocks,
)
from twgi.errors import BoundsError, InvariantError, NotFoundError, ValidationError
from twgi.text_index import build_graph_from_text
from twgi.tunnel import (
    Block,
    StringBlock,
    TraversalPos,
    TunneledGraph,
    check_block,
    check_string_block,
    derive_string_block,
    find_string_blocks,
    tunnel_graph,
)
from twgi.wheeler import EdgeList, NodeRange, encode, validate_wheeler


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
        # n-1 edges, but node 1 has two out-edges, or node 3 two in-edges
        for edges, node in (([(1, 2, 97), (1, 3, 98)], 1), ([(1, 3, 97), (2, 3, 97)], 3)):
            with pytest.raises(ValidationError, match=f"node {node} has branching"):
                check_string_block(encode(EdgeList(3, edges)), StringBlock(1, 1, 1))

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
    """Every text of length 0..2 over {a, b}, three texts whose blocks
    end in a column of differing out-labels (``abcabd``, ``bacac``) or
    widen onto the last rank (``cacacb``), then short random and copy-paste
    texts; a single row (w = 1) walks to the sink in the oracle, so these
    carry the min_w = 1 cases."""
    texts = [b"", b"a", b"b", b"aa", b"ab", b"ba", b"bb", b"abcabd", b"bacac", b"cacacb"]
    rng = random.Random(47)
    for k in range(40):
        size, sigma = rng.randint(3, 64), (1, 2, 3, 4, 96)[k % 5]
        texts.append(random_text(rng, size, sigma) if k % 2
                     else copy_paste_mutate(rng, size, min(sigma, 26)))
    return texts


class TestFindStringBlocks:
    @pytest.mark.parametrize("min_w", [2, 3])
    @pytest.mark.parametrize("min_s", [1, 2, 3])
    @pytest.mark.parametrize("name", list(ORACLE_TEXTS))
    def test_matches_walking_oracle(self, name, min_w, min_s):
        g = build_graph_from_text(ORACLE_TEXTS[name])
        assert find_string_blocks(g, min_w, min_s) == walk_string_blocks(g, min_w, min_s)

    @pytest.mark.parametrize("min_w", [1, 2, 3])
    @pytest.mark.parametrize("min_s", [1, 2, 3])
    def test_matches_walking_oracle_short(self, min_w, min_s):
        for text in short_texts():
            g = build_graph_from_text(text)
            assert (find_string_blocks(g, min_w, min_s)
                    == walk_string_blocks(g, min_w, min_s)), text

    def test_rejects_cycle_off_the_path(self):
        # a Wheeler graph with n-1 edges and no branching, whose nodes 2 and
        # 3 form a cycle that the source's path never reaches
        g = encode(EdgeList(3, [(2, 3, 98), (3, 2, 97)]))
        with pytest.raises(ValidationError, match="not a path graph"):
            find_string_blocks(g, 1, 1)

    def test_abcabc(self):
        g = build_graph_from_text(b"abcabc")
        assert find_string_blocks(g, 2, 2) == [StringBlock(2, 2, 2)]

    def test_no_repeats_empty(self):
        g = build_graph_from_text(b"abc")
        assert find_string_blocks(g, 2, 2) == []

    def test_periodic_matches_bruteforce_containment(self):
        for k in (2, 3, 4):
            text = b"abc" * k
            g = build_graph_from_text(text)
            found = find_string_blocks(g)
            assert found, f"(abc)^{k} must tunnel"
            maximal = enumerate_blocks_bruteforce(g)
            for sb in found:
                nodes = sb.expand(g).node_set()
                assert any(nodes <= mb.node_set() for mb in maximal), (k, sb)

    def test_selected_blocks_disjoint(self):
        rng = random.Random(31)
        for _ in range(40):
            text = bytes(rng.choice(b"abcd"[:rng.randint(2, 4)])
                         for _ in range(rng.randint(4, 400)))
            g = build_graph_from_text(text)
            used = set()
            for sb in find_string_blocks(g):
                nodes = sb.expand(g).node_set()
                assert not (nodes & used)
                used |= nodes

    def test_heuristic_blocks_are_seed_maximal(self):
        rng = random.Random(37)
        for _ in range(30):
            text = bytes(rng.choice(b"ab") for _ in range(rng.randint(4, 120)))
            g = build_graph_from_text(text)
            blocks = find_string_blocks(g)
            selected = {v for sb in blocks for v in sb.expand(g).node_set()}
            for sb in blocks:
                own = sb.expand(g).node_set()
                for ext in (StringBlock(sb.start_rank, sb.width, sb.length + 1),
                            StringBlock(sb.start_rank - 1, sb.width + 1, sb.length),
                            StringBlock(sb.start_rank, sb.width + 1, sb.length)):
                    if ext.start_rank < 1:
                        continue
                    if not check_string_block(g, ext):
                        continue
                    # a passing extension must be blocked by the greedy
                    # disjointness (its extra nodes belong to other blocks)
                    extra = ext.expand(g).node_set() - own
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
            nodes = sb.expand(g).node_set()
            assert any(nodes <= mb.node_set() for mb in maximal)

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
        assert tg.g.structures_equal(g)
        assert tg.iprime.to01() == "11"
        assert tg.oprime.to01() == "11"
        assert not tg.tunnels

    def test_width1_blocks_are_identity(self):
        g = encode(fig1_edge_list())
        tg = tunnel_graph(g, [Block(1, 1, [(22,)])])
        assert tg.g.structures_equal(g)
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
        assert tg.entrance_marks.to01() == "01000"
        assert tg.inner_marks.to01() == "00100"
        assert tg.tunnels[0].entrance == 2 and tg.tunnels[0].exit == 3
        assert tg.tunnels[0].width == 2 and tg.tunnels[0].length == 2

    def test_reencode_roundtrip(self):
        g = encode(fig1_edge_list())
        tg = tunnel_graph(g, [fig1_block()])
        again = encode(tg.g.to_edge_list())
        assert again.structures_equal(tg.g)

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
        # edge 1 = (v1 -> x1), edge 2 = (former v4 -> x1)
        assert tg.entry_copies == {1: 1, 2: 2}
        assert tg.land(1, None) == (2, 1)
        assert tg.land(2, None) == (2, 2)
        a = tg.g.label_id(97)
        assert tg._edges(1, 1, 5, None, a) == (1, 1, 2, None)
        assert tg._search_pairs(b"a") == ((2, 1), (2, 2))

    def test_enter_offset_needs_an_edge_into_the_entrance(self):
        for tg in (abcabc()[2], tunnel_graph(encode(fig1_edge_list()), [fig1_block()])):
            into = {j for j in range(1, tg.g.m + 1) if tg.is_entrance(tg.g.edge_target(j))}
            assert set(tg.entry_copies) == into
        _, _, tg = abcabc()
        for j in (0, 3, tg.g.m, tg.g.m + 1):  # edge 3 enters node 3, no entrance
            assert j not in tg.entry_copies
        assert not tg.is_entrance(3)

    def test_exit_edge_examples(self):
        _, _, tg = abcabc()
        c = tg.g.label_id(ord("c"))
        # c-edges of x2 (rank 3) are edges 4 and 5
        assert tg.g.edge_range_for_label(NodeRange(3, 3), c) == (4, 5)
        assert tg._edges(3, 1, 3, 1, c) == (4, 1, 4, None)
        assert tg._edges(3, 2, 3, 2, c) == (5, 1, 5, None)
        assert tg._edges(3, 1, 3, 2, c) == (4, 1, 5, None)
        assert tg._edges(3, 2, 3, 1, c) is None  # lo copy above hi copy
        assert tg._edges(3, 3, 3, 3, c) is None  # offset beyond the group count
        b = tg.g.label_id(ord("b"))  # x1 -> x2 is an in-tunnel move: it keeps the copy
        assert tg._edges(2, 2, 2, 2, b) == (3, 2, 3, 2)
        assert tg._edges(2, 1, 2, None, b) == (3, 1, 3, None)
        with pytest.raises(NotFoundError):
            tg.step(TraversalPos(3, 3), c)
        with pytest.raises(NotFoundError):
            tg.step(TraversalPos(3, 1), c, 2)  # each copy has one c-edge

    def test_missing_exit_copy_raises(self):
        _, _, tg = abcabc()
        c = tg.g.label_id(ord("c"))
        assert tg.exit_copies == {4: 1, 5: 2}
        for j in (4, 5):
            copies = {k: o for k, o in tg.exit_copies.items() if k != j}
            bare = TunneledGraph(tg.g, tg.iprime, tg.oprime, tg.inner_marks, tg.tunnels, copies)
            for pos in (TraversalPos(3, 1), TraversalPos(3, 2)):
                with pytest.raises(InvariantError, match=f"exit edge {j} has no recorded copy"):
                    bare.step(pos, c)

    def test_enter_offset_with_sourceless_root(self):
        # tunnel roots (1, 2) where copy 1 has no in-edge at all: the only
        # entering edge must yield offset 2, the last copy
        el = EdgeList(4, [(3, 2, 97), (4, 3, 98), (3, 4, 99)])
        assert validate_wheeler(el)
        g = encode(el)
        blocks = [Block(2, 1, [(1, 2)])]
        assert check_block(g, blocks[0])
        tg = tunnel_graph(g, blocks)
        a = tg.g.label_id(97)
        entering_edge = tg.g.out_edge_rank(tg.node_map[3], a, 1)
        assert tg.entry_copies[entering_edge] == 2
        assert tg.land(entering_edge, None) == (tg.node_map[2], 2)
        assert_simulation_equal(el, tg, blocks)


class TestStep:
    def test_step_examples(self):
        _, _, tg = abcabc()
        a, b, c = (tg.g.label_id(x) for x in b"abc")
        assert tg.step(TraversalPos(1, 1), a) == TraversalPos(2, 1)
        assert tg.step(TraversalPos(2, 2), b) == TraversalPos(3, 2)
        assert tg.step(TraversalPos(3, 2), c) == TraversalPos(5, 1)

    def test_step_rejects_a_copy_outside_the_node(self):
        _, _, tg = abcabc()
        a, b = tg.g.label_id(97), tg.g.label_id(98)
        # node 1 lies outside any tunnel, node 2 is a tunnel entrance
        for pos, c in ((TraversalPos(1, 0), a), (TraversalPos(1, 2), a),
                       (TraversalPos(1, 7), a), (TraversalPos(2, 0), b),
                       (TraversalPos(2, -1), b)):
            with pytest.raises(BoundsError, match=f"no copy {pos.offset}"):
                tg.step(pos, c)
        assert tg.step(TraversalPos(1, 1), a) == TraversalPos(2, 1)

    def test_step_not_found(self):
        _, _, tg = abcabc()
        b = tg.g.label_id(ord("b"))
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
        d = tg.g.label_id(100)
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
        a = tg.g.label_id(97)
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


class TestInvariantErrors:
    def test_node_accounting(self, monkeypatch):
        # a block declaring more columns than it lists slips past a check
        # that passes everything, and the node count no longer adds up
        import twgi.tunnel
        monkeypatch.setattr(twgi.tunnel, "_check_blocks", lambda n, edges, blocks: None)
        g = encode(fig1_edge_list())
        with pytest.raises(InvariantError, match="node accounting"):
            tunnel_graph(g, [Block(2, 3, [(1, 2), (3, 4)])])

    def test_non_coherent_range(self, monkeypatch):
        _, _, tg = abcabc()
        ends = iter([(2, 1), (1, 1)])  # lo resolves above hi
        monkeypatch.setattr(TunneledGraph, "land", lambda self, j, copy: next(ends))
        with pytest.raises(InvariantError, match="non-coherent"):
            tg.path_search(b"a")
