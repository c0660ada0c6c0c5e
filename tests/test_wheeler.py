import random

import pytest

from conftest import (
    colex_string_graph,
    edgelist_step,
    label_id,
    naive_count,
    naive_path_range,
    random_wheeler_edge_list,
    structures_equal,
)
from twgi.errors import BoundsError, NotFoundError, ValidationError
from twgi.tunnel import tunnel_graph
from twgi.wheeler import EdgeList, NodeRange, encode, validate_wheeler


def ab_graph():
    # path graph of T="ab": v1 -a-> v2 -b-> v3, ranks are identity
    return EdgeList(3, [(1, 2, ord("a")), (2, 3, ord("b"))])


class TestValidate:
    def test_ab_ok(self):
        assert validate_wheeler(ab_graph())

    def test_zero_indegree_prefix_violation(self):
        el = EdgeList(2, [(2, 1, ord("a"))])
        res = validate_wheeler(el)
        assert not res
        assert res.condition == "zero-indegree-prefix"

    def test_axiom_i_violation(self):
        # 'b'-edge target precedes an 'a'-edge target
        el = EdgeList(4, [(1, 3, ord("b")), (2, 4, ord("a"))])
        res = validate_wheeler(el)
        assert not res
        assert res.condition == "axiom-i"

    def test_axiom_ii_violation(self):
        el = EdgeList(4, [(1, 4, ord("a")), (2, 3, ord("a"))])
        res = validate_wheeler(el)
        assert not res
        assert res.condition == "axiom-ii"

    def test_equal_sources_not_flagged(self):
        # parallel edges and equal sources have no (ii) constraint
        el = EdgeList(3, [(1, 2, ord("a")), (1, 2, ord("a")), (1, 3, ord("b"))])
        assert validate_wheeler(el)

    def test_malformed_raises(self):
        with pytest.raises(ValidationError):
            validate_wheeler(EdgeList(2, [(0, 1, ord("a"))]))


class TestEncode:
    def test_ab_structures(self):
        g = encode(ab_graph())
        assert g.n == 3 and g.m == 2 and g.sigma == 2
        assert [g.L.access(i) for i in (1, 2)] == [1, 2]
        assert g.C[1:4] == [0, 1, 2]
        assert g.I.to01() == "110101"
        assert g.O.to01() == "101011"

    def test_single_node(self):
        g = encode(EdgeList(1, []))
        assert g.n == 1 and g.m == 0
        assert g.I.to01() == "11"
        assert g.O.to01() == "11"

    def test_non_wheeler_raises(self):
        with pytest.raises(ValidationError) as ei:
            encode(EdgeList(2, [(2, 1, ord("a"))]))
        assert ei.value.condition == "zero-indegree-prefix"

    def test_roundtrip_revalidates(self):
        rng = random.Random(7)
        for _ in range(40):
            el = random_wheeler_edge_list(rng)
            g = encode(el)
            back = g.to_edge_list()
            assert validate_wheeler(back)
            assert sorted(back.edges) == sorted(el.edges)
            assert structures_equal(encode(back), g)


class TestNavigation:
    def test_out_edge_rank_examples(self):
        g = encode(ab_graph())
        a, b = label_id(g, ord("a")), label_id(g, ord("b"))
        assert g.out_edge_rank(1, a, 1) == 1
        assert g.out_edge_rank(2, b, 1) == 2
        with pytest.raises(NotFoundError):
            g.out_edge_rank(1, b, 1)

    def test_edge_target_examples(self):
        g = encode(ab_graph())
        assert g.edge_target(1) == 2
        assert g.edge_target(2) == 3
        with pytest.raises(BoundsError):
            g.edge_target(0)

    def test_edge_range_for_label_examples(self):
        g = encode(ab_graph())
        a, b = label_id(g, ord("a")), label_id(g, ord("b"))
        assert g.edge_range_for_label(NodeRange(1, 3), a) == (1, 1)
        assert g.edge_range_for_label(NodeRange(2, 2), b) == (2, 2)
        j1, j2 = g.edge_range_for_label(NodeRange(1, 1), b)
        assert j1 > j2

    # a graph without tunnels is searched as tunnel_graph(g, [])

    def test_follow_range_examples(self):
        g = encode(ab_graph())
        a = label_id(g, ord("a"))
        assert tunnel_graph(g, []).path_search(b"a") == NodeRange(2, 2)
        assert naive_path_range(ab_graph(), b"a") == (2, 2)
        j1, j2 = g.edge_range_for_label(NodeRange.empty(), a)
        assert j1 > j2

    def test_follow_range_abcabc(self):
        el, rank = colex_string_graph(b"abcabc")
        got = tunnel_graph(encode(el), []).path_search(b"b")
        want = sorted(rank[k] for k in range(1, 7)
                      if b"abcabc"[k - 1] == ord("b"))
        assert got == NodeRange(want[0], want[-1])
        assert len(got) == len(want)
        assert naive_path_range(el, b"b") == (got.lo, got.hi)

    def test_path_search_examples(self):
        tg = tunnel_graph(encode(ab_graph()), [])
        assert tg.path_search(b"ab") == NodeRange(3, 3)
        assert tg.path_search(b"") == NodeRange(1, 3)
        assert tg.path_search(b"ba").is_empty
        assert tg.path_search(b"zz").is_empty
        for pat, want in ((b"ab", (3, 3)), (b"", (1, 3)), (b"ba", None), (b"zz", None)):
            assert naive_path_range(ab_graph(), pat) == want

    def test_navigation_matches_edge_list_exhaustively(self):
        rng = random.Random(11)
        for _ in range(60):
            el = random_wheeler_edge_list(rng, n_max=18, sigma_max=4)
            g = encode(el)
            assert g.m <= 500
            for v in range(1, g.n + 1):
                for byte in g.alphabet:
                    c = label_id(g, byte)
                    k = 0
                    while True:
                        k += 1
                        want = edgelist_step(el, v, byte, k)
                        if want is None:
                            with pytest.raises(NotFoundError):
                                g.out_edge_rank(v, c, k)
                            break
                        assert g.edge_target(g.out_edge_rank(v, c, k)) == want

    def test_follow_range_contiguous_vs_walk(self):
        rng = random.Random(13)
        for _ in range(40):
            el = random_wheeler_edge_list(rng)
            if not el.edges:
                continue
            g = encode(el)
            for _ in range(10):
                lo = rng.randint(1, g.n)
                hi = rng.randint(lo, g.n)
                byte = rng.choice(g.alphabet)
                targets = sorted({v for u, v, lab in el.edges
                                  if lo <= u <= hi and lab == byte})
                j1, j2 = g.edge_range_for_label(NodeRange(lo, hi), label_id(g, byte))
                if not targets:
                    assert j1 > j2
                else:
                    assert targets == list(range(targets[0], targets[-1] + 1))
                    assert (g.edge_target(j1), g.edge_target(j2)) == (targets[0], targets[-1])

    def test_path_search_counts_occurrences(self):
        rng = random.Random(17)
        for _ in range(30):
            n = rng.randint(0, 200)
            text = bytes(rng.choice(b"ab" if rng.random() < 0.5 else b"abcd")
                         for _ in range(n))
            tg = tunnel_graph(encode(colex_string_graph(text)[0]), [])
            for _ in range(25):
                plen = rng.randint(1, 8)
                i = rng.randrange(max(1, n))
                pat = text[i:i + plen] if n else b"a"
                if not pat:
                    continue
                assert len(tg.path_search(pat)) == naive_count(text, pat)
                neg = bytes(rng.choice(b"abcdz") for _ in range(plen))
                assert len(tg.path_search(neg)) == naive_count(text, neg)
