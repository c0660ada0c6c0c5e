"""Navigation reads the node-offset arrays instead of selecting.

The select formulas and the linear exit-group scan in conftest are the
references; the library must agree with them on every edge, node and copy
bound, must call neither ``BitVec.select`` nor ``LabelSeq.select`` (nor
``BitVec.rank``) to build, load, search, step or walk, and must not read
the tunnel marks bit by bit on a plain index's query path.  Every edge
lands where the conftest oracle (edge_target, the marks and a scan of I')
says, through ``land`` and through the step table.  The text walks call no
``LabelSeq`` method, and no walk or search calls ``edge_target``.  A text
index's search narrows no end by ``_edges``.  The build takes block
columns from arrays and walks none of them.
"""

import random
from collections import Counter

import pytest

import conftest
from conftest import (
    SMALL_TEXTS,
    assert_lands,
    assert_simulation_equal,
    chain_graph,
    edges_search,
    entrance_marks,
    fig1_block,
    fig1_edge_list,
    fstep_walk,
    loop_tunnel_graph,
    make_patterns,
    oracle_land,
    random_tunneled_graphs,
    random_wheeler_edge_list,
    sample_loc,
    scan_node_first,
    scan_node_last,
    select_edge_list,
    select_edge_target,
    select_node_offsets,
    unequal_exit_graph,
)
from twgi.bitvec import BitVec, LabelSeq
from twgi.errors import NotFoundError
from twgi import text_index
from twgi.persist import deserialize_index, serialize_index
from twgi.text_index import TextIndex, build_graph_from_text, build_index
from twgi.tunnel import (
    Block,
    StringBlock,
    TraversalPos,
    TunneledGraph,
    find_string_blocks,
    tunnel_graph,
)
from twgi.wheeler import EdgeList, WheelerGraph, encode


def sourceless_root_case():
    # tunnel roots (1, 2) where copy 1 has no in-edge at all
    el = EdgeList(4, [(3, 2, 97), (4, 3, 98), (3, 4, 99)])
    return el, [Block(2, 1, [(1, 2)])]


def tunneled_cases():
    cases = []
    for el, blocks in [unequal_exit_graph(), sourceless_root_case(),
                       (fig1_edge_list(), [fig1_block()]),
                       *(chain_graph(d) for d in (2, 3, 4))]:
        cases.append(tunnel_graph(encode(el), blocks))
    rng = random.Random(61)
    for _ in range(8):
        text = bytes(rng.choice(b"abc"[:rng.randint(2, 3)])
                     for _ in range(rng.randint(4, 100)))
        g = build_graph_from_text(text)
        cases.append(tunnel_graph(g, [sb.expand(g) for sb in find_string_blocks(g)]))
        # a loaded index rebuilds its exit copies from the tunnel records
        cases.append(deserialize_index(serialize_index(build_index(text))).tg)
    return cases


def wheeler_cases():
    rng = random.Random(59)
    graphs = [encode(random_wheeler_edge_list(rng, n_max=18, sigma_max=4))
              for _ in range(40)]
    return graphs + [tg.g for tg in tunneled_cases()]


class TestSelectOracles:
    def test_navigation_matches_select_formulas(self):
        for g in wheeler_cases():
            lstart, istart = select_node_offsets(g)
            assert list(g._lstart) == lstart
            assert list(g._istart) == istart
            for j in range(1, g.m + 1):
                assert g.edge_target(j) == select_edge_target(g, j)
            assert g.to_edge_list().edges == select_edge_list(g).edges

    def test_node_offsets_need_n_plus_one_ones(self):
        g = encode(fig1_edge_list())
        for vec in ("I", "O"):
            bits = [int(ch) for ch in getattr(g, vec).to01()]
            bits[bits.index(1, 1)] = 0  # drop the second node's one
            parts = {"I": g.I, "O": g.O, vec: BitVec(bits)}
            with pytest.raises(NotFoundError):
                WheelerGraph(g.n, g.m, g.sigma, g.L, g.C, parts["I"],
                             parts["O"], g.alphabet)

    def test_exit_group_lookup_matches_scan(self):
        # an open lower bound is copy 1: every copy is at least 1
        for tg in tunneled_cases():
            w_max = max((t.width for t in tg.tunnels), default=1)
            bounds = [None, *range(1, w_max + 2)]
            for v in range(1, tg.g.n + 1):
                for c in range(1, tg.g.sigma + 1):
                    for lo in bounds:
                        for hi in bounds:
                            got = tg._edges(v, lo or 1, v, hi, c)
                            first = scan_node_first(tg, v, c, lo, hi)
                            last = scan_node_last(tg, v, c, lo, hi)
                            assert (got and got[0]) == (first and first[0]), (v, c, lo, hi)
                            assert (got and got[2]) == (last and last[0]), (v, c, lo, hi)
                            if got:
                                assert_lands_like(tg, *got[:2], first)
                                assert_lands_like(tg, *got[2:], last)


def assert_lands_like(tg, j, copy, pick):
    """land(j, copy) against a scanned (edge, kind, carry) pick: an edge
    lands on an inner node exactly when the scan calls it an in-tunnel
    move, which carries the copy; any other edge lands where oracle_land
    says."""
    _, kind, carry = pick
    assert tg.inner_marks.access(tg.g.edge_target(j)) == (kind == "carry"), (j, pick)
    assert tg.land(j, copy) == oracle_land(tg, j, carry), (j, pick)


@pytest.fixture
def select_calls(monkeypatch):
    """Counts every BitVec.select and LabelSeq.select call."""
    calls = [0]
    for owner in (BitVec, LabelSeq):
        def counting(obj, *args, _fn=owner.select):
            calls[0] += 1
            return _fn(obj, *args)

        monkeypatch.setattr(owner, "select", counting)
    return calls


@pytest.fixture
def rank_calls(monkeypatch):
    """Counts every BitVec.rank call."""
    calls = [0]
    rank = BitVec.rank

    def counting(bv, *args):
        calls[0] += 1
        return rank(bv, *args)

    monkeypatch.setattr(BitVec, "rank", counting)
    return calls


CASES = [(name, tunneling) for name in SMALL_TEXTS for tunneling in (True, False)]


class TestSelectGuard:
    def test_guard_sees_the_selects(self, select_calls):
        BitVec("0110").select(2, 1)
        LabelSeq([1, 2, 2], 2).select(2, 2)
        assert select_calls[0] == 2

    @pytest.mark.parametrize("name", list(SMALL_TEXTS))
    def test_build_and_load(self, name, select_calls):
        for tunneling in (True, False):
            ix = build_index(SMALL_TEXTS[name], tunneling=tunneling)
            assert bool(ix.tg.tunnels) == (tunneling and name != "rand96")
            deserialize_index(serialize_index(ix))
        assert select_calls[0] == 0

    @pytest.mark.parametrize("name,tunneling", CASES)
    def test_walks(self, name, tunneling, small_index, select_calls):
        ix = small_index(name, tunneling)
        text = SMALL_TEXTS[name]
        assert ix.extract(1, len(text)) == text
        located = set()
        for v in range(1, ix.tg.g.n + 1):
            for o in range(1, ix.node_width(v) + 1):
                located.add(ix.locate_one(TraversalPos(v, o)))
        assert located == set(range(1, len(text) + 2))
        assert select_calls[0] == 0

    @pytest.mark.parametrize("name,tunneling", CASES)
    def test_queries(self, name, tunneling, small_index, select_calls):
        ix = small_index(name, tunneling)
        text = SMALL_TEXTS[name]
        rng = random.Random(67)
        for pat in make_patterns(rng, text, 60, max_len=24):
            ix.tg._search_pairs(pat)
            ix.count(pat)
            ix.locate(pat)
        for _ in range(40):  # extracts that start inside tunnels hop back
            start = rng.randint(1, len(text))
            ix.extract(start, rng.randint(0, len(text) - start + 1))
        assert select_calls[0] == 0

    def test_tunneled_search_selects_nowhere(self, small_index, select_calls):
        tg = small_index("fib").tg
        text = SMALL_TEXTS["fib"]
        rng = random.Random(71)
        patterns = [text[i:i + plen] for plen in (1, 2, 5, 13, 34, 97)
                    for i in (rng.randrange(len(text) - plen + 1) for _ in range(20))]
        for pattern in patterns:
            assert tg._search_pairs(pattern) is not None
        assert select_calls[0] == 0
        seen = Counter()
        for pattern in patterns:
            edges_search(tg, pattern, seen)
        assert seen["shifted"] > 0  # the tunnel exits are really searched

    def test_general_graph_steps(self, select_calls, rank_calls, exit_lookups):
        rng = random.Random(79)
        graphs = steps = 0
        for el, blocks, tg in random_tunneled_graphs(83, 60):
            exit_lookups(tg)
            steps += assert_simulation_equal(el, tg, blocks)  # every step
            alphabet = sorted({c for _, _, c in el.edges}) or [97]
            for _ in range(30):
                tg.path_search(bytes(rng.choice(alphabet) for _ in range(rng.randint(1, 5))))
            graphs += 1
        assert graphs > 10 and steps > 0 and exit_lookups.calls > 0
        assert select_calls[0] == 0 and rank_calls[0] == 0


def slots_hold_copies(tg) -> bool:
    """Whether every out-edge of each tunnel node of more than one out-edge
    leaves from the copy equal to its slot, read off ``exit_copies`` by the
    rank formula: the reference for ``TunneledGraph._copy_is_slot``."""
    g, copies = tg.g, tg.exit_copies
    for v in range(1, g.n + 1):
        if tg._kind[v] and g.outdeg(v) > 1:
            for slot, p in enumerate(range(g._lstart[v] + 1, g._lstart[v + 1] + 1), 1):
                c = g.L.access(p)
                if copies.get(g.C[c] + g.L.rank(p, c)) != slot:
                    return False
    return True


def leaving_slots_hold_copies(tg, copies: dict[int, int]) -> bool:
    """Whether every edge that ``copies`` (edge rank -> copy) lists leaves
    from the copy equal to its slot, by the rank formula: the reference for
    a graph keeping no exit-copy table."""
    g = tg.g
    for v in range(1, g.n + 1):
        for slot, p in enumerate(range(g._lstart[v] + 1, g._lstart[v + 1] + 1), 1):
            c = g.L.access(p)
            if copies.get(g.C[c] + g.L.rank(p, c), slot) != slot:
                return False
    return True


class TestEdgesGuard:
    """On a text index copy k of an exit leaves by its k-th out-edge, so the
    search narrows an exit end by shifting its L bound and never calls
    ``_edges``; ``step`` and graphs whose copy is not slot still do."""

    def test_guard_sees_the_calls(self, small_index, edges_calls):
        tg = edges_calls(small_index("fib").tg)
        tg.step(TraversalPos(1), tg.g.L.access(1))
        assert edges_calls.calls == 1

    @pytest.mark.parametrize("name,tunneling", CASES)
    def test_queries_call_no_edges(self, name, tunneling, small_index, edges_calls):
        text = SMALL_TEXTS[name]
        built = small_index(name, tunneling)
        rng = random.Random(131)
        patterns = make_patterns(rng, text, 60, max_len=24)
        patterns += [text[i:i + plen] for plen in (2, 5, 13, 34, 97)
                     for i in (rng.randrange(len(text) - plen + 1) for _ in range(20))]
        seen = Counter()
        for pattern in patterns:
            edges_search(built.tg, pattern, seen)
        assert seen["shifted"] > 0 or not built.tg.tunnels  # exit ends are searched
        for ix in (built, deserialize_index(serialize_index(built))):
            assert ix.tg._copy_is_slot and slots_hold_copies(ix.tg)
            edges_calls(ix.tg)
            for pattern in patterns:
                ix.tg._search_pairs(pattern)
                ix.count(pattern)
                ix.locate(pattern)
        assert edges_calls.calls == 0

    def test_copy_is_slot_is_derived(self):
        graphs = [tg for _, _, tg in random_tunneled_graphs(83, 200)]
        flags = [tg._copy_is_slot for tg in graphs]
        assert flags == [slots_hold_copies(tg) for tg in graphs]
        assert not all(flags) and any(flags)

    def test_exit_table_is_kept_where_a_copy_is_not_slot(self, small_index):
        # a graph whose every leaving edge leaves from its slot's copy keeps
        # no exit-copy table, and its exit_copies read the slots: the loop
        # transform checks them against the copies it derives by loops.  No
        # text index keeps a table
        kept = []
        for el, blocks, tg in random_tunneled_graphs(83, 200):
            copies = loop_tunnel_graph(encode(el), blocks).exit_copies
            assert tg.exit_copies == copies
            kept.append(len(tg._exit_copy) > 0)
            assert kept[-1] != leaving_slots_hold_copies(tg, copies)
        assert any(kept) and not all(kept)
        for name, tunneling in CASES:
            built = small_index(name, tunneling)
            for ix in (built, deserialize_index(serialize_index(built))):
                assert len(ix.tg._exit_copy) == 0


class TestRankGuard:
    """Entering and leaving a tunnel read the copy off the step table and
    the exit-copy table, both decoded when the graph is made, so no build,
    load or query ranks a bitvector; the select guard's general-graph test
    checks step and path search."""

    def test_guard_sees_the_ranks(self, rank_calls):
        BitVec("0110").rank(2)
        assert rank_calls[0] == 1

    @pytest.mark.parametrize("name,tunneling", CASES)
    def test_text_index(self, name, tunneling, rank_calls):
        text = SMALL_TEXTS[name]
        ix = deserialize_index(serialize_index(build_index(text, tunneling=tunneling)))
        rng = random.Random(101)
        for pat in make_patterns(rng, text, 60, max_len=24):
            ix.count(pat)
            ix.locate(pat)
        for _ in range(40):
            start = rng.randint(1, len(text))
            ix.extract(start, rng.randint(0, len(text) - start + 1))
        assert ix.extract(1, len(text)) == text
        assert rank_calls[0] == 0


class TestStepTable:
    """Every edge of every small text, tunneled and plain, built and loaded,
    and of the random tunneled graphs lands where oracle_land says."""

    @pytest.mark.parametrize("name,tunneling", CASES)
    def test_text_index_table_is_land(self, name, tunneling, small_index):
        ix = small_index(name, tunneling)
        for got in (ix, deserialize_index(serialize_index(ix))):
            assert assert_lands(got.tg) == got.tg.g.m
            # an edge keeps its copy into an inner node; rand96 has only
            # length-1 tunnels, which have none
            assert (0 in got.tg._step_land[1:]) == (tunneling and name != "rand96")

    def test_general_graph_table_is_land(self):
        positions = carried = 0
        for _, _, tg in random_tunneled_graphs(83, 60):
            positions += assert_lands(tg)
            carried += tg._step_land[1:].count(0)
        assert positions > 100 and carried > 0


@pytest.fixture
def walk_lookups(monkeypatch):
    """Names of the LabelSeq calls made outside a pattern search and of
    every WheelerGraph.edge_target call: a search ranks L by design, and
    both a search and a walk read the step table."""
    calls, searching = [], [False]
    for owner, attr in ((LabelSeq, "access"), (LabelSeq, "rank"), (LabelSeq, "partial_rank"),
                        (LabelSeq, "select"), (WheelerGraph, "edge_target")):
        def counting(*args, _fn=getattr(owner, attr), _name=attr):
            if not searching[0] or _name == "edge_target":
                calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(owner, attr, counting)
    search = TunneledGraph._search_pairs

    def unguarded(tg, pattern, state=None):
        searching[0] = True
        try:
            return search(tg, pattern, state)
        finally:
            searching[0] = False

    monkeypatch.setattr(TunneledGraph, "_search_pairs", unguarded)
    monkeypatch.setattr(text_index, "_table_search", unguarded)  # the k-gram table's
    return calls


class TestWalkGuard:
    """Locate, extract and node widths walk by the step table and call no
    LabelSeq method; no count, locate or path search calls edge_target."""

    def test_guard_sees_the_lookups(self, small_index, walk_lookups):
        ix = small_index("fib")
        assert ix.count(b"abaab") > 0 and walk_lookups == []
        ix.tg.g.L.partial_rank(1)
        ix.tg.g.edge_target(1)
        assert walk_lookups == ["partial_rank", "edge_target"]

    @pytest.mark.parametrize("name,tunneling", CASES)
    def test_walks_read_the_table(self, name, tunneling, small_index, walk_lookups):
        text = SMALL_TEXTS[name]
        ix = deserialize_index(serialize_index(small_index(name, tunneling)))
        walk_lookups.clear()  # the load counts each label of L once
        rng = random.Random(103)
        for pat in make_patterns(rng, text, 60, max_len=24):
            ix.count(pat)
            ix.locate(pat)
            ix.tg.path_search(pat)
        for _ in range(40):  # extracts that start inside tunnels hop back
            start = rng.randint(1, len(text))
            ix.extract(start, rng.randint(0, len(text) - start + 1))
        assert ix.extract(1, len(text)) == text
        for v in range(1, ix.tg.g.n + 1):
            for o in range(1, ix.node_width(v) + 1):
                ix.locate_one(TraversalPos(v, o))
        assert walk_lookups == []

    @pytest.mark.parametrize("name,tunneling", CASES)
    def test_extract_takes_no_fstep_call(self, name, tunneling, small_index, monkeypatch):
        # extract reads _fstep's step off its successor table (_successors)
        text, ix = SMALL_TEXTS[name], small_index(name, tunneling)
        calls = []
        fstep = TextIndex._fstep
        monkeypatch.setattr(TextIndex, "_fstep",
                            lambda self, *args: calls.append(args) or fstep(self, *args))
        rng = random.Random(109)
        for _ in range(40):
            start = rng.randint(1, len(text))
            ln = rng.randint(0, len(text) - start + 1)
            assert ix.extract(start, ln) == text[start - 1:start - 1 + ln]
        assert ix.extract(1, len(text)) == text and calls == []
        loc = sample_loc(ix)
        unsampled = next(v for v in range(1, ix.tg.g.n + 1) if v not in loc)
        fstep_walk(ix, unsampled, 1)
        assert calls  # the guard sees the oracle's walk step

    def test_general_graph_search_lands_by_table(self, walk_lookups):
        rng = random.Random(107)
        found = 0
        for el, _, tg in random_tunneled_graphs(83, 60):
            alphabet = sorted({c for _, _, c in el.edges}) or [97]
            for _ in range(30):
                pattern = bytes(rng.choice(alphabet) for _ in range(rng.randint(1, 5)))
                found += not tg.path_search(pattern).is_empty
        assert found > 100 and "edge_target" not in walk_lookups


@pytest.fixture
def walk_calls(monkeypatch):
    """Names of the column walks made: the tests' string-block walk,
    StringBlock.expand and WheelerGraph.out_edge_rank."""
    calls = []
    for owner, attr in ((conftest, "_walk_string_block"), (StringBlock, "expand"),
                        (WheelerGraph, "out_edge_rank")):
        def counting(*args, _fn=getattr(owner, attr), _name=attr, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)
    return calls


class TestBuildWalkGuard:
    @pytest.mark.parametrize("name", list(SMALL_TEXTS))
    def test_build_walks_no_column(self, name, walk_calls):
        build_index(SMALL_TEXTS[name])
        assert walk_calls == []

    @pytest.mark.parametrize("tunneling", [True, False])
    @pytest.mark.parametrize("name", list(SMALL_TEXTS))
    def test_build_decodes_no_edge_list(self, name, tunneling, monkeypatch):
        # the build reads WheelerGraph.edge_arrays; to_edge_list would make
        # one Python tuple per edge
        calls = []
        to_edge_list = WheelerGraph.to_edge_list
        monkeypatch.setattr(WheelerGraph, "to_edge_list",
                            lambda g: calls.append(g) or to_edge_list(g))
        build_index(SMALL_TEXTS[name], tunneling=tunneling)
        assert calls == []

    def test_guard_sees_the_walks(self, walk_calls):
        g = build_graph_from_text(b"abcabc")
        conftest.derive_string_block(g, 2, 2)
        assert set(walk_calls) == {"_walk_string_block", "out_edge_rank"}
        # expand reads the text order: it walks no column
        walk_calls.clear()
        StringBlock(2, 2, 2).expand(g)
        assert walk_calls == ["expand"]


class TestMarkGuard:
    @pytest.mark.parametrize("name", list(SMALL_TEXTS))
    def test_plain_queries_read_no_marks(self, name, small_index, monkeypatch):
        # the entrance and inner marks are decoded once, when the graph is
        # made; a query on an untunneled index reads neither bitvector
        ix = deserialize_index(serialize_index(small_index(name, tunneling=False)))
        marks = (entrance_marks(ix.tg), ix.tg.inner_marks)
        calls = [0]
        access = BitVec.access

        def counting(bv, i):
            calls[0] += any(bv is mk for mk in marks)
            return access(bv, i)

        monkeypatch.setattr(BitVec, "access", counting)
        text = SMALL_TEXTS[name]
        for pat in make_patterns(random.Random(73), text, 40, max_len=12):
            ix.count(pat)
            ix.locate(pat)
        assert ix.extract(1, len(text)) == text
        assert calls[0] == 0
