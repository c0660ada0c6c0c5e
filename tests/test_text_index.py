import random

import numpy as np
import pytest

from conftest import (
    SMALL_TEXTS,
    colex_string_graph,
    copy_paste_mutate,
    fibonacci_word,
    fstep_extract,
    loop_samples,
    make_patterns,
    naive_count,
    naive_locate,
    oracle_index,
    random_text,
    structures_equal,
    walk_to_exit,
)
from twgi import text_index
from twgi.errors import BoundsError, FormatError, InvariantError, ValidationError
from twgi.persist import deserialize_index, serialize_index
from twgi.text_index import (
    StepCounter,
    TextIndex,
    build_graph_from_text,
    build_index,
    suffix_array,
)
from twgi.tunnel import TraversalPos
from twgi.wheeler import encode


class TestSuffixArray:
    def test_against_comparison_sort(self):
        rng = random.Random(3)
        cases = [b"", b"a", b"aaaa", b"abcabc", b"banana", b"mississippi",
                 fibonacci_word(100), b"a" * 2000,
                 bytes(rng.choice((0, 255)) for _ in range(300))]
        for _ in range(150):
            n = rng.randint(0, 150)
            sigma = rng.choice([1, 2, 4, 26, 256])
            hi = 97 + sigma if sigma <= 26 else 256
            lo = 97 if sigma <= 26 else 0
            cases.append(bytes(rng.randrange(lo, hi) for _ in range(n)))
        for text in cases:
            s = list(text)
            got = suffix_array(s)
            want = sorted(range(len(s) + 1), key=lambda p: s[p:])
            assert got == want, text
            assert suffix_array(text) == got, text

    def test_larger_text(self):
        rng = random.Random(5)
        text = copy_paste_mutate(rng, 5000, 4)
        s = list(text)
        got = suffix_array(s)
        want = sorted(range(len(s) + 1), key=lambda p: s[p:])
        assert got == want


class TestBuildGraph:
    def test_ab(self):
        g = build_graph_from_text(b"ab")
        assert g.n == 3 and g.m == 2
        assert bytes(g.alphabet[g.L.access(i) - 1] for i in (1, 2)) == b"ab"
        assert g.I.to01() == "110101"
        assert g.O.to01() == "101011"

    def test_empty(self):
        g = build_graph_from_text(b"")
        assert g.n == 1 and g.m == 0

    def test_abcabc_label_array(self):
        g = build_graph_from_text(b"abcabc")
        labels = bytes(g.alphabet[g.L.access(i) - 1] for i in range(1, 7))
        assert labels == b"abbcca"

    def test_matches_colex_oracle(self):
        rng = random.Random(9)
        for _ in range(60):
            n = rng.randint(0, 120)
            sigma = rng.choice([1, 2, 4, 26, 200])
            lo, hi = (97, 97 + sigma) if sigma <= 26 else (0, sigma)
            text = bytes(rng.randrange(lo, hi) for _ in range(n))
            direct = build_graph_from_text(text)
            oracle = encode(colex_string_graph(text)[0])
            assert structures_equal(direct, oracle), text


class TestBuildIndex:
    def test_abcabc_default(self):
        ix = build_index(b"abcabc")
        assert ix.tg.g.n == 5
        assert len(ix.tg.tunnels) == 1

    def test_abc_no_tunnels(self):
        ix = build_index(b"abc")
        assert ix.tg.g.n == ix.n == 4
        assert not ix.tg.tunnels

    def test_tunneling_off_differential(self):
        rng = random.Random(11)
        for _ in range(25):
            text = bytes(rng.choice(b"ab") for _ in range(rng.randint(0, 150)))
            on = build_index(text)
            off = build_index(text, tunneling=False)
            assert off.tg.g.n == len(text) + 1
            for pat in make_patterns(rng, text, 12, max_len=8):
                assert on.count(pat) == off.count(pat) == naive_count(text, pat)
                assert on.locate(pat) == off.locate(pat) == naive_locate(text, pat)

    def test_bad_rates_rejected(self, monkeypatch):
        def no_build(text):
            raise AssertionError("built the string graph before checking the rates")

        monkeypatch.setattr(text_index, "_string_graph", no_build)
        for rates in (dict(sample_rate_n=0), dict(sample_rate_t=-1)):
            with pytest.raises(ValidationError, match="sample rates"):
                build_index(b"abcabc", **rates)
        with pytest.raises(TypeError):
            build_index("not bytes")

    @pytest.mark.parametrize("tunneling", [True, False])
    @pytest.mark.parametrize("name", sorted(SMALL_TEXTS))
    def test_samples_hold_python_ints(self, name, tunneling, small_index):
        # the build works on numpy arrays; a numpy scalar left in a sample
        # table would slow every query on a freshly built index
        ix = small_index(name, tunneling)

        def ints(values):
            return all(type(v) is int for v in values)

        assert ix.loc and ints(ix.loc) and ints(ix.loc.values())
        assert ints(ix.cnt)
        assert ints(ix.skip) and all(ints(ptr) for ptr in ix.skip.values())


def _sample_texts():
    rng = random.Random(11)
    texts = []
    for size in (20, 97, 250, 600):
        texts += [fibonacci_word(size), copy_paste_mutate(rng, size, 4),
                  random_text(rng, size, 2), random_text(rng, size, 4)]
    return texts


SAMPLE_TEXTS = _sample_texts()


class TestSamples:
    @pytest.mark.parametrize("rate_n,rate_t", [(1, 1), (2, 3), (None, None)])
    @pytest.mark.parametrize("min_width,min_length", [(2, 1), (2, 2), (3, 1), (3, 3)])
    def test_match_loop_samples(self, min_width, min_length, rate_n, rate_t):
        # build_index's own tunnels at (2, 2); at other thresholds the
        # oracle's tunnels.  TextIndex derives skip and cnt from its walk
        length_one = 0
        for text in SAMPLE_TEXTS:
            rates = dict(sample_rate_n=rate_n, sample_rate_t=rate_t)
            kw = dict(rates, min_width=min_width, min_length=min_length)
            ix = build_index(text, **rates) if (min_width, min_length) == (2, 2) \
                else oracle_index(text, **kw)
            assert (ix.loc, ix.skip, ix.cnt) == loop_samples(text, **kw)
            length_one += sum(t.length == 1 for t in ix.tg.tunnels)
        if min_length == 1:
            # entrances with no inner node: elements that start and end there
            assert length_one > 0

    @pytest.mark.parametrize("tunneling", [True, False])
    @pytest.mark.parametrize("name", sorted(SMALL_TEXTS))
    def test_sample_table_holds_loc(self, name, tunneling, small_index):
        # the lockstep walk reads loc from a node-indexed table, 0 off the samples
        built = small_index(name, tunneling)
        for ix in (built, deserialize_index(serialize_index(built))):
            assert len(ix._samp) == ix.tg.g.n + 1 and ix._samp.dtype == np.int32
            assert np.flatnonzero(ix._samp).tolist() == sorted(ix.loc)
            assert all(ix._samp[v] == pos for v, pos in ix.loc.items())


def _exit_texts():
    rng = random.Random(41)
    texts = []
    for size in (97, 600):
        texts += [fibonacci_word(size), copy_paste_mutate(rng, size, 4),
                  random_text(rng, size, 2)]
    return texts


EXIT_TEXTS = _exit_texts()
# oracle tunnels that build_index never makes: length-1 ones, and only width-3 ones
LANDING_SETTINGS = {"w2-s1-t1": dict(min_width=2, min_length=1, sample_rate_t=1),
                    "w3-s1-t2": dict(min_width=3, min_length=1, sample_rate_t=2)}


class TestExitRule:
    @pytest.mark.parametrize("rate_t", [1, 3, None])
    @pytest.mark.parametrize("min_width,min_length", [(2, 1), (2, 2), (3, 1)])
    def test_matches_single_edge_walk(self, min_width, min_length, rate_t):
        rng = random.Random(43)
        length_one = entrance_pointers = 0
        for text in EXIT_TEXTS:
            ix = oracle_index(text, sample_rate_t=rate_t, min_width=min_width,
                              min_length=min_length)
            g = ix.tg.g
            for v in range(1, g.n + 1):
                if ix.tg.is_tunnel_node(v):
                    # the walked exit, distance and width, by single-edge steps
                    exit_rank, dist = walk_to_exit(g, v)
                    i = ix._slot[v]
                    assert ix._chain[i] == v and ix._to_exit[i] == dist, (text, v)
                    assert ix._chain[i - dist] == exit_rank, (text, v)
                    assert ix.node_width(v) == g.outdeg(exit_rank), (text, v)
            length_one += sum(t.length == 1 for t in ix.tg.tunnels)
            entrance_pointers += sum(t.entrance in ix.skip for t in ix.tg.tunnels)
            for pat in make_patterns(rng, text, 20, max_len=10):
                assert ix.locate(pat) == naive_locate(text, pat), (text, pat)
            for _ in range(20):
                i = rng.randint(1, len(text))
                ln = rng.randint(0, min(30, len(text) - i + 1))
                assert ix.extract(i, ln) == text[i - 1:i - 1 + ln], (text, i, ln)
            assert ix.extract(1, len(text)) == text
        if min_length == 1:
            # entrances that are their own exits
            assert length_one > 0
        if rate_t == 1:
            # entrances that also carry a skip pointer
            assert entrance_pointers > 0


class TestForwardStep:
    @pytest.mark.parametrize("name", ["fib", "cpm4"])
    def test_copy_past_out_degree_raises(self, name, small_index):
        # the step table ends at m_t, and a slot past an exit's out-degree
        # would read the next node's edge
        ix = small_index(name)
        g, counter = ix.tg.g, StepCounter()
        for t in ix.tg.tunnels:
            assert ix._fstep(t.exit, t.width, counter)[0] >= 1
            for off in (0, t.width + 1, t.width + 9):
                with pytest.raises(BoundsError, match="outside its"):
                    ix._fstep(t.exit, off, counter)
        (sink,) = [v for v in range(1, g.n + 1) if g.outdeg(v) == 0]
        with pytest.raises(BoundsError, match="past the sink"):
            ix._fstep(sink, 1, counter)


class TestNodeWidth:
    def test_examples(self):
        ix = build_index(b"abcabc")
        assert ix.node_width(2) == 2   # entrance x1
        assert ix.node_width(3) == 2   # exit x2: its own out-degree
        assert ix.node_width(1) == 1   # non-tunnel
        assert ix.node_width(4) == 1

    def test_node_outside_the_graph_raises(self):
        ix = build_index(b"abaababaabaababaababaabaababaabaab" * 8)
        nt = ix.tg.g.n
        assert ix.tg.tunnels and ix.node_width(1) >= 1 and ix.node_width(nt) >= 1
        for v in (-1, 0, nt + 1):
            with pytest.raises(BoundsError, match=f"node {v} outside"):
                ix.node_width(v)

    @pytest.mark.parametrize("tunneling", [True, False])
    @pytest.mark.parametrize("name", list(SMALL_TEXTS))
    def test_matches_the_width_sums(self, name, tunneling, small_index):
        # a plain node answers 1 without the sums; the sums still answer
        ix = small_index(name, tunneling)
        nodes = range(1, ix.tg.g.n + 1)
        assert [ix.node_width(v) for v in nodes] == [ix._cum(v) - ix._cum(v - 1) for v in nodes]
        # both kinds of node are met; 2 KB of random text forms no tunnel
        assert any(map(ix.tg.is_tunnel_node, nodes)) == (tunneling and name != "rand96")

    def test_width_sum_is_n(self):
        rng = random.Random(13)
        for _ in range(20):
            text = bytes(rng.choice(b"abc") for _ in range(rng.randint(2, 200)))
            ix = build_index(text)
            assert sum(ix.node_width(v) for v in range(1, ix.tg.g.n + 1)) == ix.n


class TestCount:
    def test_examples(self):
        ix = build_index(b"abcabc")
        assert ix.count(b"ab") == 2
        assert ix.count(b"") == 7
        assert ix.count(b"bc") == 2
        assert ix.count(b"zzz") == 0

    @pytest.mark.parametrize("name", ["fib", "cpm4"])
    def test_hi_width_evaluated_once(self, name, small_index, monkeypatch):
        # count weighs the range by the cumulative widths, and hi's width
        # counts only when the range holds all its copies: it evaluates no
        # width, aligned hi or not, tunnel node or not
        ix, text = small_index(name), SMALL_TEXTS[name]
        evaluated, seen = [], set()
        width = ix.node_width
        monkeypatch.setattr(ix, "node_width", lambda v: evaluated.append(v) or width(v))
        for pat in make_patterns(random.Random(3), text, 300, max_len=12):
            got = ix.tg._search_pairs(pat)
            if got is None:
                continue
            hi = got[1][0]
            evaluated.clear()
            assert ix.count(pat) == naive_count(text, pat)
            assert not evaluated, (pat, hi)
            seen.add((ix.tg.is_tunnel_node(hi), hi % ix.sample_rate_t == 0))
        # aligned and unaligned hi, and an unaligned tunnel node
        assert {aligned for _, aligned in seen} == {True, False} and (True, False) in seen

    @pytest.mark.parametrize("name", ["fib", "cpm4"])
    def test_range_end_sums_from_the_nearer_sample(self, name, small_index, monkeypatch):
        # a range whose last node sits one below an aligned cnt sample: the
        # cumulative widths answer it with no width evaluated, as every range
        ix, text = small_index(name), SMALL_TEXTS[name]
        rt, evaluated, found = ix.sample_rate_t, [], 0
        assert rt > 4
        width = ix.node_width
        monkeypatch.setattr(ix, "node_width", lambda v: evaluated.append(v) or width(v))
        for pat in make_patterns(random.Random(5), text, 1500, max_len=12):
            got = ix.tg._search_pairs(pat)
            if got is None or got[1][0] % rt != rt - 1 or got[0][0] > got[1][0] + 1 - rt:
                continue
            hi = got[1][0]
            evaluated.clear()
            assert ix.count(pat) == naive_count(text, pat)
            assert not evaluated, (pat, hi)
            found += 1
        assert found > 0


    @pytest.mark.parametrize("name", sorted(SMALL_TEXTS))
    def test_plain_count_evaluates_no_width(self, name, small_index, monkeypatch):
        # without tunnels every width is 1: a range weighs its size
        ix, text = small_index(name, tunneling=False), SMALL_TEXTS[name]
        calls = []
        monkeypatch.setattr(ix, "node_width", lambda v: calls.append(v) or 1)
        for pat in make_patterns(random.Random(7), text, 300, max_len=12):
            assert ix.count(pat) == naive_count(text, pat), pat
        assert calls == []


class TestLocate:
    def test_locate_one_examples(self):
        ix = build_index(b"abcabc")
        assert ix.locate_one(TraversalPos(1, 1)) == 1   # the source node
        assert ix.locate_one(TraversalPos(2, 2)) == 5   # second 'a'-context
        assert ix.locate_one(TraversalPos(3, 1)) == 3

    def test_examples(self):
        ix = build_index(b"abcabc")
        assert ix.locate(b"abc") == [1, 4]
        assert ix.locate(b"zq") == []
        assert ix.locate(b"c") == [3, 6]

    def test_limit(self):
        ix = build_index(b"abcabc")
        assert len(ix.locate(b"c", limit=1)) == 1

    def test_limit_zero_and_negative(self):
        ix = build_index(b"abracadabra" * 20)
        assert ix.locate(b"abra", limit=0) == []
        assert len(ix.locate(b"abra", limit=3)) == 3
        for limit in (-1, -3):
            with pytest.raises(ValidationError, match="negative"):
                ix.locate(b"abra", limit=limit)

    def test_locate_one_rejects_a_copy_outside_the_node(self):
        ix = build_index(b"abracadabra" * 20)
        assert not ix.tg.is_tunnel_node(1) and ix.tg.is_tunnel_node(2)
        for pos in (TraversalPos(1, 0), TraversalPos(1, 7), TraversalPos(2, 0),
                    TraversalPos(2, -2)):
            with pytest.raises(BoundsError, match=f"no copy {pos.offset}"):
                ix.locate_one(pos)
            with pytest.raises(BoundsError, match=f"no copy {pos.offset}"):
                ix.tg.step(pos, 1)
        # a node outside [1..n_t], as TunneledGraph.step rejects it
        for node in (0, -1, ix.tg.g.n + 1):
            for call in (ix.locate_one, lambda pos: ix.tg.step(pos, 1)):
                with pytest.raises(BoundsError, match=f"node {node} outside"):
                    call(TraversalPos(node, 1))
        assert ix.locate_one(TraversalPos(1, 1)) == 1

    def test_locate_one_rejects_a_copy_above_the_widest_tunnel(self, small_index):
        # every copy past the node's own width, up to one past the widest
        # tunnel's, is rejected; cpm4 has tunnels of several widths
        narrower = 0
        for ix in (build_index(b"abracadabra" * 20), small_index("cpm4")):
            w_max = max(t.width for t in ix.tg.tunnels)
            nodes = [v for v in range(1, ix.tg.g.n + 1) if ix.tg.is_tunnel_node(v)]
            assert nodes
            for v in nodes:
                width = ix.node_width(v)
                assert ix.locate_one(TraversalPos(v, width)) >= 1
                narrower += width < w_max
                for copy in range(width + 1, w_max + 2):
                    with pytest.raises(BoundsError, match=f"node {v} has no copy {copy}$"):
                        ix.locate_one(TraversalPos(v, copy))
        assert narrower

    def test_locate_one_checks_the_own_width_before_a_step(self, small_index):
        # node 139 of the 2 KB cpm4 index enters a tunnel of width 2, the
        # widest is 7: copy 3 is rejected before the walk takes a step,
        # not at the exit in the step's words
        ix = small_index("cpm4")
        assert 139 in ix.tg.entrance_info and ix.node_width(139) == 2
        assert max(t.width for t in ix.tg.tunnels) == 7
        counter = StepCounter()
        with pytest.raises(BoundsError, match="^node 139 has no copy 3$"):
            ix.locate_one(TraversalPos(139, 3), counter)
        assert counter.steps == 0

    def test_duplicate_occurrence_raises(self, monkeypatch, lockstep):
        # every walk of either path answers 7, so the two a's collide
        ix = build_index(b"abcabc")
        monkeypatch.setattr(TextIndex, "_walk", lambda self, node, off, counter: 7)
        monkeypatch.setattr(TextIndex, "_lockstep",
                            lambda self, nodes, offs, dists, counter: np.full(len(nodes), 7))
        for on in (False, True):
            lockstep(on)
            for limit in (None, 2):
                with pytest.raises(InvariantError, match="two occurrences"):
                    ix.locate(b"a", limit=limit)

    def test_empty_pattern_rejected(self):
        ix = build_index(b"abcabc")
        with pytest.raises(ValidationError):
            ix.locate(b"")


def _first_occurrences(ix, pat, limit):
    """The pattern's first ``limit`` occurrences in rank and copy order,
    one ``locate_one`` each, ascending."""
    got = ix.tg._search_pairs(pat)
    if got is None:
        return []
    (lo, lo_off), (hi, hi_off) = got
    out = []
    for v in range(lo, hi + 1):
        last = hi_off if v == hi and hi_off is not None else ix.node_width(v)
        out += [ix.locate_one(TraversalPos(v, o)) - len(pat)
                for o in range(lo_off if v == lo else 1, last + 1)]
    return sorted(out[:limit])


class TestLockstep:
    """Locate walks a range of many starts in lockstep and a small one start
    by start; either path must give the naive answers, the same steps and,
    under a limit, the same first occurrences."""

    @pytest.mark.parametrize("tunneling", [True, False])
    @pytest.mark.parametrize("name", sorted(SMALL_TEXTS))
    def test_both_paths_match_naive(self, name, tunneling, small_index, lockstep):
        text, ix = SMALL_TEXTS[name], small_index(name, tunneling)
        rng = random.Random(41)
        found = 0
        for pat in make_patterns(rng, text, 60, max_len=10) + [text[:1], text[-3:]]:
            want = naive_locate(text, pat)
            got = {}
            for on in (False, True):
                lockstep(on)
                counter = StepCounter()
                got[on] = ix.locate(pat, counter=counter), counter.steps
                for limit in (1, 3, len(want) // 2 + 1):
                    assert ix.locate(pat, limit=limit) == _first_occurrences(ix, pat, limit), \
                        (pat, on, limit)
            assert got[False] == got[True] and got[True][0] == want, pat
            found += len(want)
        assert found > 100

    @pytest.mark.parametrize("name", ["fib", "cpm4", "cpm96"])
    def test_walks_from_inside_a_tunnel(self, name, small_index):
        # locate starts no walk inside a tunnel or on the sink; started on
        # every copy of every node (plain nodes, the sink, entrances, inner
        # nodes and exits) of the tunneled index and of the plain one, the
        # lockstep walk keeps each copy through the in-tunnel moves and
        # finds the positions and takes the steps the single walks do
        for tunneling in (True, False):
            ix = small_index(name, tunneling)
            tg = ix.tg
            starts = [(v, o) for v in range(1, tg.g.n + 1)
                      for o in range(1, ix.node_width(v) + 1)]
            exits = {t.exit for t in tg.tunnels}
            kinds = {"entrance" if v in tg.entrance_info else "exit" if v in exits else
                     "inner" if tg.is_tunnel_node(v) else "plain" for v, _ in starts}
            assert kinds == ({"plain", "entrance", "inner", "exit"} if tunneling else {"plain"})
            (sink,) = [v for v in range(1, tg.g.n + 1) if tg.g.outdeg(v) == 0]
            nodes, offs = map(list, zip(*starts))
            counter, single = StepCounter(), StepCounter()
            got = ix._lockstep(nodes, offs, [0] * len(nodes), counter).tolist()
            assert got == [ix._walk(v, o, single) for v, o in starts]
            assert counter.steps == single.steps
            assert got[starts.index((sink, 1))] == ix.n

    @pytest.mark.parametrize("tunneling", [True, False])
    def test_hop_table_is_made_on_first_lockstep_locate(self, tunneling, small_index):
        # an index that walks no range in lockstep does not pay for the hop
        # table; the first lockstep walk makes it and the next ones reuse it
        text = SMALL_TEXTS["cpm4"]
        ix = deserialize_index(serialize_index(small_index("cpm4", tunneling)))
        few = text_index._LOCKSTEP_MIN_STARTS - 1
        assert ix.count(text[:2]) > few and ix.extract(5, 30) == text[4:34]
        assert ix.locate(text[:2], limit=few) == _first_occurrences(ix, text[:2], few)
        assert "_hops" not in vars(ix)
        assert ix.locate(text[:2]) == naive_locate(text, text[:2])
        table = vars(ix)["_hops"]
        many = ix.locate(text[1:3])
        assert many == naive_locate(text, text[1:3]) and len(many) > few
        assert vars(ix)["_hops"] is table

    def test_the_first_walk_to_stick_raises(self, small_index, monkeypatch):
        # edges into a tunnel land copies past its width, by up to 3: of the
        # walks from every start, the lockstep walk raises the error of the
        # one that sticks in the earliest round (after the fewest _fstep
        # calls), the first start among them
        bad = deserialize_index(serialize_index(small_index("cpm4")))
        tg = bad.tg
        width = {t.entrance: t.width for t in tg.tunnels}
        for p in range(1, tg.g.m + 1):
            if tg._step_to[p] in width and tg._step_land[p]:
                tg._step_land[p] = width[tg._step_to[p]] + 1 + p % 3
        calls, fstep = [], bad._fstep
        monkeypatch.setattr(bad, "_fstep", lambda *a: calls.append(1) or fstep(*a))
        starts = [(v, o) for v in range(1, tg.g.n + 1) for o in range(1, bad.node_width(v) + 1)]
        stuck = []
        for i, (v, o) in enumerate(starts):
            calls.clear()
            try:
                bad._walk(v, o, StepCounter())
            except BoundsError as e:
                stuck.append((len(calls), i, str(e)))
        assert len({msg for _, _, msg in stuck}) > 3
        nodes, offs = map(list, zip(*starts))
        with pytest.raises(BoundsError) as got:
            bad._lockstep(nodes, offs, [0] * len(nodes), StepCounter())
        assert str(got.value) == min(stuck)[2]

    def test_a_hop_onto_an_unsampled_sink_raises(self, small_index, lockstep):
        # a walk that steps onto the sink, with its sample removed, finds no
        # edge to take next
        text = SMALL_TEXTS["fib"]
        for tunneling in (True, False):
            bad = deserialize_index(serialize_index(small_index("fib", tunneling)))
            sink = next(v for v, pos in bad.loc.items() if pos == bad.n)
            del bad.loc[sink]
            bad._samp[sink] = 0
            for on in (False, True):
                lockstep(on)
                with pytest.raises(BoundsError, match="walked past the sink"):
                    bad.locate(text[-5:-2])

    def test_walk_past_the_sink_raises(self, small_index, lockstep):
        # without the sample at position n, a walk that reaches the sink has
        # no edge to take; TextIndex rejects such samples, so the sample is
        # removed after construction
        text = SMALL_TEXTS["cpm4"]
        bad = deserialize_index(serialize_index(small_index("cpm4")))
        sink = next(v for v, pos in bad.loc.items() if pos == bad.n)
        del bad.loc[sink]
        bad._samp[sink] = 0
        for on in (False, True):
            lockstep(on)
            with pytest.raises(BoundsError, match="walked past the sink"):
                bad.locate(text[-6:])
            assert bad.locate(text[:6]) == naive_locate(text, text[:6])

    def test_a_step_cycle_stops_both_walks(self, small_index, lockstep):
        # the node after the second-to-last sample steps to itself: a walk
        # from it meets no sample, and both paths stop after n steps
        text = SMALL_TEXTS["fib"]
        bad = deserialize_index(serialize_index(small_index("fib", tunneling=False)))
        pos = bad.ext_pos[-2]
        u = bad._fstep(bad.ext_node[-2], 1, StepCounter())[0]
        assert u not in bad.loc
        bad.tg._step_to[bad.tg.g._lstart[u] + 1] = u
        for on in (False, True):
            lockstep(on)
            with pytest.raises(FormatError, match=f"found no sample in {bad.n} steps"):
                bad.locate(text[pos - 8:pos])


class TestExtract:
    def test_examples(self):
        ix = build_index(b"abcabc")
        assert ix.extract(2, 3) == b"bca"
        assert ix.extract(1, 6) == b"abcabc"
        assert ix.extract(5, 2) == b"bc"

    def test_bounds(self):
        ix = build_index(b"abcabc")
        with pytest.raises(BoundsError):
            ix.extract(0, 2)
        with pytest.raises(BoundsError):
            ix.extract(6, 2)
        assert ix.extract(6, 1) == b"c"
        assert ix.extract(3, 0) == b""

    def test_deep_inside_long_tunnel(self):
        # two copies of a long random chunk: one tunnel much longer than the
        # skip stride, which extract enters at many distances from its exit
        rng = random.Random(17)
        chunk = bytes(rng.choice(b"abcdefgh") for _ in range(400))
        text = chunk + b"|" + chunk + b"~"
        ix = build_index(text)
        assert ix.tg.tunnels
        longest = max(t.length for t in ix.tg.tunnels)
        assert longest > ix.sample_rate_t
        for start in (1, 150, 399, 402, 520, 700, len(text) - 3):
            ln = min(25, len(text) - start + 1)
            assert ix.extract(start, ln) == text[start - 1:start - 1 + ln]

    @pytest.mark.parametrize("settings", ["default", "w2-s1-t1", "w3-s1-t2"])
    @pytest.mark.parametrize("name", ["fib", "cpm4"])
    def test_windows_inside_the_longest_tunnel(self, name, settings, small_index):
        # extract lands on the node of a target inside a tunnel: windows that
        # start at every text position of the longest tunnel, and just
        # before and after it, on build_index's tunnels and on the oracle's
        # length-1 or width-3 ones
        text = SMALL_TEXTS[name]
        ix = small_index(name) if settings == "default" else \
            oracle_index(text, **LANDING_SETTINGS[settings])
        t = max(ix.tg.tunnels, key=lambda t: t.length)
        nodes = [ix._chain[ix._slot[t.exit] + d] for d in range(t.length)]
        inside = {ix.locate_one(TraversalPos(v, o)) for v in nodes for o in range(1, t.width + 1)}
        assert len(inside) == t.width * t.length
        starts = {p + k for p in inside for k in (-1, 0, 1)} & {*range(1, len(text) + 1)}
        for start in sorted(starts):
            for ln in (1, 7, t.length + 2):
                ln = min(ln, len(text) - start + 1)
                got, want = StepCounter(), StepCounter()
                assert ix.extract(start, ln, got) == fstep_extract(ix, start, ln, want) \
                    == text[start - 1:start - 1 + ln], (start, ln)
                assert got.steps == want.steps, (start, ln)

    @pytest.mark.parametrize("loaded", [False, True])
    @pytest.mark.parametrize("name,tunneling,rate_t", [
        (name, tunneling, rate_t) for name in sorted(SMALL_TEXTS)
        for tunneling, rate_t in ((True, 1), (True, None), (False, None))])
    def test_matches_fstep_reference(self, name, tunneling, rate_t, loaded, small_index):
        # extract writes out _fstep's step: the same bytes and steps as one
        # _fstep call per step, from every start.  Without tunnels the rate
        # sets only count's samples, so the plain index takes the default
        text = SMALL_TEXTS[name]
        ix = small_index(name, tunneling) if rate_t is None else \
            build_index(text, sample_rate_t=rate_t, tunneling=tunneling)
        if loaded:
            ix = deserialize_index(serialize_index(ix))
        for start in range(1, len(text) + 1):
            rest = len(text) - start + 1
            # the whole rest from every 32nd start: from every start it takes
            # ~2 s an index
            for ln in (0, 1, 7, rest) if start % 32 == 1 else (0, 1, 7):
                ln = min(ln, rest)
                got, want = StepCounter(), StepCounter()
                assert ix.extract(start, ln, got) == fstep_extract(ix, start, ln, want) \
                    == text[start - 1:start - 1 + ln], (start, ln)
                assert got.steps == want.steps, (start, ln)

    @pytest.mark.parametrize("name", ["fib", "cpm4"])
    def test_a_copy_past_the_exit_raises(self, name, small_index):
        # every edge into a tunnel lands one copy past its width: a walk keeps
        # that copy to the exit, whose step must reject it in the seek and in
        # the output loop, at the starts where _fstep does
        text = SMALL_TEXTS[name]
        bad = deserialize_index(serialize_index(small_index(name)))
        tg = bad.tg
        width = {t.entrance: t.width for t in tg.tunnels}
        for p in range(1, tg.g.m + 1):
            if tg._step_to[p] in width and tg._step_land[p]:
                tg._step_land[p] = width[tg._step_to[p]] + 1
        raised = {1: [], 7: []}
        for start in range(1, len(text) + 1):
            for ln in raised:
                try:
                    want = fstep_extract(bad, start, min(ln, len(text) - start + 1))
                except BoundsError as e:
                    with pytest.raises(BoundsError, match="outside its") as got:
                        bad.extract(start, min(ln, len(text) - start + 1))
                    assert str(got.value) == str(e)
                    raised[ln].append(start)
                else:
                    assert bad.extract(start, min(ln, len(text) - start + 1)) == want, start
        # one byte raises in the output loop only from the exit itself; from
        # the later starts whose seek crosses the tunnel, the seek raises
        assert len(raised[1]) >= 2 and raised[7], raised
        with pytest.raises(BoundsError, match="outside its"):
            bad.extract(1, len(text))

    def test_a_step_cycle_does_not_hang(self, small_index):
        # the node after the second-to-last sample steps to itself: an
        # extract through it returns what the walk reads there, as _fstep's
        # does, or raises FormatError, but stops
        text = SMALL_TEXTS["fib"]
        bad = deserialize_index(serialize_index(small_index("fib", tunneling=False)))
        pos = bad.ext_pos[-2]
        u = bad._fstep(bad.ext_node[-2], 1, StepCounter())[0]
        bad.tg._step_to[bad.tg.g._lstart[u] + 1] = u
        for start in (pos - 8, pos, pos + 3):
            ln = len(text) - start + 1
            try:
                got = bad.extract(start, ln)
            except FormatError:
                continue
            assert got == fstep_extract(bad, start, ln) != text[start - 1:], start

    def test_full_roundtrip_various(self):
        rng = random.Random(19)
        texts = [b"a", b"ab" * 30, fibonacci_word(200),
                 copy_paste_mutate(rng, 300, 4),
                 bytes(rng.randrange(256) for _ in range(257))]
        for text in texts:
            ix = build_index(text)
            assert ix.extract(1, len(text)) == text


class TestDifferential:
    def test_mixed_corpus(self):
        rng = random.Random(23)
        for trial in range(50):
            kind = trial % 4
            if kind == 0:
                text = bytes(rng.choice(b"ab") for _ in range(rng.randint(0, 200)))
            elif kind == 1:
                unit = bytes(rng.choice(b"abc") for _ in range(rng.randint(1, 6)))
                text = unit * rng.randint(2, 30)
            elif kind == 2:
                text = fibonacci_word(rng.randint(2, 250))
            else:
                text = copy_paste_mutate(rng, rng.randint(10, 250), 26)
            ix = build_index(text)
            for pat in make_patterns(rng, text, 25):
                assert ix.count(pat) == naive_count(text, pat), (text, pat)
                assert ix.locate(pat) == naive_locate(text, pat), (text, pat)
            for _ in range(10):
                if not text:
                    break
                i = rng.randint(1, len(text))
                ln = rng.randint(0, len(text) - i + 1)
                assert ix.extract(i, ln) == text[i - 1:i - 1 + ln]


class TestStepBudgets:
    def test_locate_one_budget(self):
        rng = random.Random(29)
        for _ in range(15):
            text = bytes(rng.choice(b"ab") for _ in range(rng.randint(10, 400)))
            ix = build_index(text)
            budget = 4 * ix.sample_rate_n * ix.sample_rate_t
            for v in range(1, ix.tg.g.n + 1):
                for off in range(1, ix.node_width(v) + 1):
                    counter = StepCounter()
                    ix.locate_one(TraversalPos(v, off), counter)
                    assert counter.steps <= budget, (text, v, off, counter.steps)

    def test_count_budget(self):
        rng = random.Random(31)
        for _ in range(15):
            text = bytes(rng.choice(b"abc") for _ in range(rng.randint(10, 400)))
            ix = build_index(text)
            budget = 4 * ix.sample_rate_t ** 2 + 8
            for pat in make_patterns(rng, text, 15, max_len=6):
                counter = StepCounter()
                ix.count(pat, counter)
                assert counter.steps <= budget, (text, pat, counter.steps)

    @pytest.mark.parametrize("name", ["fib", "cpm4", "cpm96"])
    def test_tunneled_locate_steps_per_occurrence(self, name, small_index, lockstep):
        # a walk crosses each tunnel in one jump and the copies of a tunnel
        # node share it, so tunneling must not multiply locate's steps; the
        # lockstep walk counts the steps and jumps of each of its walks
        text = SMALL_TEXTS[name]
        per_occ = {}
        for on in (False, True):
            lockstep(on)
            for tunneling in (True, False):
                ix = small_index(name, tunneling)
                counter, occ = StepCounter(), 0
                for pat in make_patterns(random.Random(5), text, 200, max_len=12):
                    if pat in text:
                        occ += len(ix.locate(pat, counter=counter))
                per_occ[on, tunneling] = counter.steps / occ
        assert per_occ[True, True] == per_occ[False, True], per_occ
        assert per_occ[True, True] <= 2 * per_occ[True, False], per_occ


class TestSampleSharing:
    def test_locate_and_extract_share_pairs(self):
        rng = random.Random(37)
        for _ in range(10):
            text = bytes(rng.choice(b"ab") for _ in range(rng.randint(2, 300)))
            ix = build_index(text)
            assert list(zip(ix.ext_pos, ix.ext_node)) == \
                   sorted((pos, node) for node, pos in ix.loc.items())
