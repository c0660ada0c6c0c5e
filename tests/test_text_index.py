import random

import pytest

from conftest import (
    SMALL_TEXTS,
    colex_string_graph,
    copy_paste_mutate,
    fibonacci_word,
    loop_samples,
    make_patterns,
    naive_count,
    naive_locate,
    random_text,
    walk_to_exit,
)
from twgi.errors import BoundsError, InvariantError, ValidationError
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
            assert direct.structures_equal(oracle), text


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

    def test_bad_rates_rejected(self):
        with pytest.raises(ValidationError):
            build_index(b"abcabc", sample_rate_n=0)
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
        assert ints(ix.back) and all(ints(p) for ptrs in ix.back.values() for p in ptrs)


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
        length_one = 0
        for text in SAMPLE_TEXTS:
            kw = dict(sample_rate_n=rate_n, sample_rate_t=rate_t,
                      min_width=min_width, min_length=min_length)
            ix = build_index(text, **kw)
            assert (ix.loc, ix.skip, ix.back, ix.cnt) == loop_samples(text, **kw)
            length_one += sum(t.length == 1 for t in ix.tg.tunnels)
        if min_length == 1:
            # entrances with no inner node: elements that start and end there
            assert length_one > 0


def _exit_texts():
    rng = random.Random(41)
    texts = []
    for size in (97, 600):
        texts += [fibonacci_word(size), copy_paste_mutate(rng, size, 4),
                  random_text(rng, size, 2)]
    return texts


EXIT_TEXTS = _exit_texts()


class TestExitRule:
    @pytest.mark.parametrize("rate_t", [1, 3, None])
    @pytest.mark.parametrize("min_width,min_length", [(2, 1), (2, 2), (3, 1)])
    def test_matches_single_edge_walk(self, min_width, min_length, rate_t):
        rng = random.Random(43)
        length_one = entrance_pointers = 0
        for text in EXIT_TEXTS:
            ix = build_index(text, sample_rate_t=rate_t, min_width=min_width,
                             min_length=min_length)
            g = ix.tg.g
            for v in range(1, g.n + 1):
                if ix.tg.is_tunnel_node(v):
                    assert ix._to_exit(v, StepCounter()) == walk_to_exit(g, v), (text, v)
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

    def test_duplicate_occurrence_raises(self, monkeypatch):
        ix = build_index(b"abcabc")
        monkeypatch.setattr(TextIndex, "locate_one", lambda self, p, counter=None: 7)
        for limit in (None, 2):
            with pytest.raises(InvariantError, match="two occurrences"):
                ix.locate(b"a", limit=limit)

    def test_width_conservation(self, monkeypatch):
        # two columns of one tunnel mapped to one tunneled node: the widths
        # of the tunneled nodes no longer sum to n
        import twgi.text_index
        build = twgi.text_index.tunnel_graph

        def merge_two_columns(g, blocks):
            tg = build(g, blocks)
            b = next(b for b in blocks if b.width > 1)
            tg.node_map[b.columns[1][0]] = tg.node_map[b.columns[0][0]]
            return tg

        monkeypatch.setattr(twgi.text_index, "tunnel_graph", merge_two_columns)
        with pytest.raises(InvariantError, match="width conservation"):
            build_index(fibonacci_word(300))

    def test_empty_pattern_rejected(self):
        ix = build_index(b"abcabc")
        with pytest.raises(ValidationError):
            ix.locate(b"")


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
        # two copies of a long random chunk: one wide tunnel much longer
        # than the skip stride, so extraction uses exit backpointers
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

    def test_back_hop_never_steps_back(self, small_index):
        # the pointer nearest the exit that is at or before the target lies
        # 5 positions before it; the hop takes it only when it lies past the
        # walk's position, else the walk keeps its node (0 here) and position
        ix = small_index("fib")
        exit_rank, ptrs = max(ix.back.items(), key=lambda item: len(item[1]))
        dist, node = ptrs[0]
        exit_pos = 10_000
        target = exit_pos - dist + 5
        assert ix._back_hop(exit_rank, exit_pos, target, 0, target - 6) == (node, target - 5)
        for cur_pos in (target - 5, target - 3):
            assert ix._back_hop(exit_rank, exit_pos, target, 0, cur_pos) == (0, cur_pos)

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
    def test_tunneled_locate_steps_per_occurrence(self, name, small_index):
        # a walk crosses each tunnel in one jump and the copies of a tunnel
        # node share it, so tunneling must not multiply locate's steps
        text = SMALL_TEXTS[name]
        per_occ = {}
        for tunneling in (True, False):
            ix = small_index(name, tunneling)
            counter, occ = StepCounter(), 0
            for pat in make_patterns(random.Random(5), text, 200, max_len=12):
                if pat in text:
                    occ += len(ix.locate(pat, counter=counter))
            per_occ[tunneling] = counter.steps / occ
        assert per_occ[True] <= 2 * per_occ[False], per_occ


class TestSampleSharing:
    def test_locate_and_extract_share_pairs(self):
        rng = random.Random(37)
        for _ in range(10):
            text = bytes(rng.choice(b"ab") for _ in range(rng.randint(2, 300)))
            ix = build_index(text)
            assert list(zip(ix.ext_pos, ix.ext_node)) == \
                   sorted((pos, node) for node, pos in ix.loc.items())
