"""The array forms of the block check, the Wheeler axiom check and the
tunneling transform against their loop forms in ``conftest.py``.

The loop forms check one block, edge or node per step; the library checks
every block at once and collapses with masks and cumulative sums.  Both
must name the same first failure and build the same tunneled graph.
"""

import random

import pytest

from conftest import (
    GraphView,
    colex_string_graph,
    copy_paste_mutate,
    enumerate_blocks_bruteforce,
    fig1_block,
    fig1_edge_list,
    loop_check_block,
    loop_tunnel_graph,
    loop_validate_wheeler,
    random_wheeler_edge_list,
    structures_equal,
)
from twgi.errors import ValidationError
from twgi.text_index import build_graph_from_text
from twgi.tunnel import Block, _check_blocks, check_block, find_string_blocks, tunnel_graph
from twgi.wheeler import EdgeList, encode, validate_wheeler


def random_graphs(seed: int, count: int):
    """Random Wheeler graphs of at most 14 nodes and string graphs of short
    texts, each with its brute-force maximal blocks."""
    rng = random.Random(seed)
    for k in range(count):
        if k % 3 == 2:
            text = copy_paste_mutate(rng, rng.randint(4, 13), rng.randint(2, 3))
            el = colex_string_graph(text)[0]
        else:
            el = random_wheeler_edge_list(rng, n_max=14)
        g = encode(el)
        yield rng, el, g, enumerate_blocks_bruteforce(g)


def mutations(b: Block, n: int):
    """The block and near misses of it: each column, or its last node,
    shifted by one rank, a row added or dropped, two columns swapped, a node
    out of bounds, a stored entry label that no edge carries."""
    w, s, cols = b.width, b.size, b.columns
    yield b
    for j in range(s):
        for d in (-1, 1):
            yield Block(w, s, cols[:j] + [tuple(v + d for v in cols[j])] + cols[j + 1:])
        if w > 1:
            yield Block(w, s, cols[:j] + [cols[j][:-1] + (cols[j][-1] + 1,)] + cols[j + 1:])
    yield Block(w + 1, s, [col + (col[-1] + 1,) for col in cols])
    yield Block(w + 1, s, [(col[0] - 1,) + col for col in cols])
    if w > 1:
        yield Block(w - 1, s, [col[1:] for col in cols])
        yield Block(w - 1, s, [col[:-1] for col in cols])
    for j in range(1, s):
        swapped = list(cols)
        swapped[0], swapped[j] = swapped[j], swapped[0]
        yield Block(w, s, swapped)
    yield Block(w, s, cols[:-1] + [tuple(v + n for v in cols[-1])])
    yield Block(w, s, [tuple(v - cols[0][0] for v in cols[0])] + cols[1:])
    yield Block(w, s, cols, entry_label=0)  # no graph here has label 0


def loop_first_failure(view, blocks):
    for bidx, b in enumerate(blocks):
        res = loop_check_block(view, b)
        if not res:
            return bidx, res.condition
    return None


class TestBlockCheck:
    def test_matches_loop_check_on_mutated_maximal_blocks(self):
        checked = set()
        for _, _, g, maximal in random_graphs(101, 150):
            view, edges = GraphView(g), g.edge_arrays()
            for b in maximal:
                for m in mutations(b, g.n):
                    want = loop_check_block(view, m)
                    got = _check_blocks(g.n, edges, [m])
                    assert (got[1].condition if got else None) == want.condition, m
                    checked.add(want.condition)
        # every condition is reached, and passes too
        assert checked == {None, "bounds", "distinct", "i", "ii", "iii", "iv", "v"}

    def test_first_failing_block_matches_loop_order(self):
        for rng, _, g, maximal in random_graphs(103, 120):
            if not maximal:
                continue
            view, edges = GraphView(g), g.edge_arrays()
            pool = [m for b in maximal for m in mutations(b, g.n)]
            for _ in range(10):
                blocks = rng.sample(pool, min(len(pool), rng.randint(1, 6)))
                got = _check_blocks(g.n, edges, blocks)
                want = loop_first_failure(view, blocks)
                assert (got and (got[0], got[1].condition)) == want, blocks

    def test_fig1_details(self):
        g = encode(fig1_edge_list())
        view = GraphView(g)
        b = fig1_block()
        for m in (Block(2, 7, b.columns[:6] + [(5, 7)]), Block(2, 8, b.columns + [(27, 28)]),
                  Block(2, 2, [(16, 17), (18, 19)]), Block(2, 1, [(15, 16)]),
                  Block(2, 7, [(40, 41)] + b.columns[1:])):
            assert check_block(g, m) == loop_check_block(view, m), m

    def test_malformed_block_raises_after_earlier_failures(self):
        g = encode(fig1_edge_list())
        malformed = Block(2, 2, [(8, 9)])
        with pytest.raises(ValidationError, match="malformed"):
            check_block(g, malformed)
        with pytest.raises(ValidationError, match="malformed"):
            _check_blocks(g.n, g.edge_arrays(), [fig1_block(), malformed])
        bad = _check_blocks(g.n, g.edge_arrays(), [Block(2, 1, [(15, 16)]), malformed])
        assert bad[0] == 0 and bad[1].condition == "iii"


def edge_mutations(rng, el: EdgeList):
    """Edge lists one change away from el: a target, source or label moved,
    two targets swapped, an edge added or dropped."""
    edges = el.edges
    for _ in range(6):
        e = list(edges)
        if e:
            k = rng.randrange(len(e))
            u, v, c = e[k]
            roll = rng.randrange(5)
            if roll == 0:
                e[k] = (u, min(el.n, max(1, v + rng.choice((-1, 1)))), c)
            elif roll == 1:
                e[k] = (rng.randint(1, el.n), v, c)
            elif roll == 2:
                e[k] = (u, v, rng.choice((c - 1, c + 1, 97)))
            elif roll == 3:
                k2 = rng.randrange(len(e))
                e[k], e[k2] = (u, e[k2][1], c), (e[k2][0], v, e[k2][2])
            else:
                del e[k]
        e.insert(rng.randint(0, len(e)),
                 (rng.randint(1, el.n), rng.randint(1, el.n), rng.randint(97, 100)))
        yield EdgeList(el.n, e)


class TestValidateWheeler:
    def test_matches_loop_validation(self):
        rng = random.Random(107)
        seen = set()
        for _ in range(400):
            el = random_wheeler_edge_list(rng, n_max=12, sigma_max=3)
            for m in [el, *edge_mutations(rng, el)]:
                want = loop_validate_wheeler(m)
                assert validate_wheeler(m) == want, m
                seen.add(want.condition)
        assert seen == {None, "zero-indegree-prefix", "axiom-i", "axiom-ii"}

    @pytest.mark.parametrize("el", [
        EdgeList(0, []), EdgeList(2, [(0, 1, 97)]), EdgeList(2, [(1, 3, 97)]),
        EdgeList(2, [(1, 2, 256)]), EdgeList(2, [(1, 2, -1)]),
        EdgeList(2, [(1, 2, 97), (1, 2, 300), (5, 1, 97)]),
    ])
    def test_malformed_edges_raise_alike(self, el):
        with pytest.raises(ValidationError) as want:
            loop_validate_wheeler(el)
        with pytest.raises(ValidationError) as got:
            validate_wheeler(el)
        assert str(got.value) == str(want.value)


def assert_same_tunneled(tg, want):
    assert structures_equal(tg.g, want.g)
    for name in ("iprime", "oprime", "entrance_marks", "inner_marks"):
        assert getattr(tg, name) == getattr(want, name), name
    assert tg.tunnels == want.tunnels
    assert tg.exit_copies == want.exit_copies
    assert list(tg.node_map) == list(want.node_map)
    assert tg.orig_n == want.orig_n


class TestTunnelGraph:
    def test_fig1_matches_loop(self):
        g = encode(fig1_edge_list())
        for blocks in ([], [fig1_block()], [Block(1, 1, [(22,)]), fig1_block()]):
            assert_same_tunneled(tunnel_graph(g, blocks), loop_tunnel_graph(g, blocks))

    def test_disjoint_bruteforce_blocks_match_loop(self):
        tunneled = 0
        for rng, _, g, maximal in random_graphs(109, 240):
            rng.shuffle(maximal)
            chosen, used = [], set()
            for b in maximal:
                if b.width == 1 or not used & b.node_set():
                    chosen.append(b)
                    used |= b.node_set() if b.width > 1 else set()
            tg = tunnel_graph(g, chosen)
            assert_same_tunneled(tg, loop_tunnel_graph(g, chosen))
            tunneled += bool(tg.tunnels)
        assert tunneled > 50

    def test_string_blocks_match_loop(self):
        rng = random.Random(113)
        for _ in range(30):
            text = copy_paste_mutate(rng, rng.randint(20, 400), rng.choice((2, 4)))
            g = build_graph_from_text(text)
            blocks = [sb.expand(g) for sb in find_string_blocks(g)]
            assert_same_tunneled(tunnel_graph(g, blocks), loop_tunnel_graph(g, blocks))

    def test_rejections_match_loop(self):
        g = encode(fig1_edge_list())
        b = fig1_block()
        for blocks in ([b, Block(2, 1, [(19, 20)])], [Block(2, 1, [(15, 16)]), b],
                       [b, Block(2, 7, b.columns[:6] + [(5, 7)])], [b, b]):
            with pytest.raises(ValidationError) as want:
                loop_tunnel_graph(g, blocks)
            with pytest.raises(ValidationError) as got:
                tunnel_graph(g, blocks)
            assert got.value.condition == want.value.condition, blocks
            assert str(got.value) == str(want.value)
