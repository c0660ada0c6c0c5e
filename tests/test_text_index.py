import random
from bisect import bisect_right
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SMALL_TEXTS,
    colex_string_graph,
    copy_paste_mutate,
    fibonacci_word,
    fstep_extract,
    fstep_extract_tables,
    fstep_hop_table,
    fstep_walk,
    is_tunnel_node,
    loop_samples,
    make_patterns,
    naive_count,
    naive_locate,
    oracle_index,
    random_text,
    sample_loc,
    structures_equal,
    walk_to_exit,
    with_stride,
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
        for rate_n in (0, -1):
            with pytest.raises(ValidationError, match="sample rates"):
                build_index(b"abcabc", sample_rate_n=rate_n)
        with pytest.raises(TypeError):
            build_index("not bytes")

    def test_two_to_the_30_nodes_rejected_first(self, small_index, monkeypatch):
        # a walk's steps share its sum with the position above them and
        # must stay in the low half: n < 2^30 is checked before the rates,
        # and a load turns the refusal into a FormatError
        ix = small_index("fib")
        with pytest.raises(ValidationError, match=f"fewer than {2 ** 30} nodes, not {2 ** 30}$"):
            TextIndex(ix.tg, 2 ** 30, 0, 0, [], [])
        with pytest.raises(ValidationError, match="sample rates 0 and 0"):
            TextIndex(ix.tg, 2 ** 30 - 1, 0, 0, [], [])
        data = serialize_index(ix)
        monkeypatch.setattr(text_index, "_MAX_NODES", ix.n)  # the bound, lowered to n
        with pytest.raises(FormatError, match=f"fewer than {ix.n} nodes, not {ix.n}$"):
            deserialize_index(data)

    @pytest.mark.parametrize("tunneling", [True, False])
    @pytest.mark.parametrize("name", sorted(SMALL_TEXTS))
    def test_samples_hold_python_ints(self, name, tunneling, small_index):
        # the build works on numpy arrays; a numpy scalar left in the skip
        # pointers would slow every read of them on a freshly built index
        ix = small_index(name, tunneling)

        def ints(values):
            return all(type(v) is int for v in values)

        assert ints(ix.skip) and all(ints(ptr) for ptr in ix.skip.values())

    def test_str_patterns_rejected(self, small_index):
        # searched character by character, a str pattern met no label: count
        # read 0, locate [] and path_search an empty range, and a pattern of
        # k characters or more failed in int.from_bytes on the k-gram key; the
        # empty str pattern was taken for b"", which counts every node and
        # which locate rejects
        ix = small_index("fib")
        assert ix.count(b"ab") > 0 and ix.count(b"") == len(SMALL_TEXTS["fib"]) + 1
        with pytest.raises(ValidationError, match="non-empty"):
            ix.locate(b"")
        for pattern in ("", "ab", "abra", "a" * _depth(ix), "ab" * 20):
            for search in (ix.count, ix.locate, ix.tg.path_search):
                with pytest.raises(TypeError, match="^pattern must be bytes$"):
                    search(pattern)


def _sample_texts():
    rng = random.Random(11)
    texts = []
    for size in (20, 97, 250, 600):
        texts += [fibonacci_word(size), copy_paste_mutate(rng, size, 4),
                  random_text(rng, size, 2), random_text(rng, size, 4)]
    return texts


SAMPLE_TEXTS = _sample_texts()


def _samp_loc(ix) -> dict[int, int]:
    """Node -> text position of each sample, read off ``_samp``."""
    at = np.flatnonzero(ix._samp)
    return dict(zip(at.tolist(), ix._samp[at].tolist()))


class TestSamples:
    @pytest.mark.parametrize("rate_n,rate_t", [(1, 1), (2, 3), (None, None)])
    @pytest.mark.parametrize("min_width,min_length", [(2, 1), (2, 2), (3, 1), (3, 3)])
    def test_match_loop_samples(self, min_width, min_length, rate_n, rate_t):
        # build_index's own tunnels at (2, 2), at its stride or rate_t; at
        # other thresholds the oracle's tunnels.  TextIndex derives skip and
        # the cumulative widths, cnt at the multiples of rate_t, from its walk
        length_one = 0
        for text in SAMPLE_TEXTS:
            kw = dict(sample_rate_n=rate_n, sample_rate_t=rate_t,
                      min_width=min_width, min_length=min_length)
            if (min_width, min_length) != (2, 2):
                ix = oracle_index(text, **kw)
            elif rate_t is None:
                ix = build_index(text, sample_rate_n=rate_n)
            else:
                ix = with_stride(build_index(text, sample_rate_n=rate_n), rate_t)
            loc, skip, cnt = loop_samples(text, **kw)
            assert sample_loc(ix) == loc and _samp_loc(ix) == loc and ix.skip == skip
            assert [ix._cum(r) for r in range(0, ix.tg.g.n + 1, ix.sample_rate_t)] == cnt
            length_one += sum(t.length == 1 for t in ix.tg.tunnels)
        if min_length == 1:
            # entrances with no inner node: elements that start and end there
            assert length_one > 0

    @pytest.mark.parametrize("tunneling", [True, False])
    @pytest.mark.parametrize("name", sorted(SMALL_TEXTS))
    def test_sample_table_holds_loc(self, name, tunneling, small_index):
        # the lockstep walk reads the samples from a node-indexed table, 0
        # off them, and extract from two arrays by position: both hold the
        # loop's samples (no block is as wide as the text, so none without
        # tunnels), built and loaded
        text = SMALL_TEXTS[name]
        loc = loop_samples(text, **({} if tunneling else {"min_width": len(text) + 2}))[0]
        built = small_index(name, tunneling)
        for ix in (built, deserialize_index(serialize_index(built))):
            assert len(ix._samp) == ix.tg.g.n + 1 and ix._samp.dtype == np.int32
            assert sample_loc(ix) == loc and _samp_loc(ix) == loc


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
                if is_tunnel_node(ix.tg, v):
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
        assert any(is_tunnel_node(ix.tg, v) for v in nodes) == (tunneling and name != "rand96")

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
            seen.add((is_tunnel_node(ix.tg, hi), hi % ix.sample_rate_t == 0))
        # aligned and unaligned hi, and an unaligned tunnel node
        assert {aligned for _, aligned in seen} == {True, False} and (True, False) in seen

    @pytest.mark.parametrize("name", ["fib", "cpm4"])
    def test_range_end_sums_from_the_nearer_sample(self, name, small_index, monkeypatch):
        # a range whose last node sits one below a multiple of the stride:
        # the cumulative widths answer it with no width evaluated, as every
        # range
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


def _flat(got):
    """(a, lo_off, b, hi_off) of a ``_search_pairs`` answer: a start state."""
    (a, lo_off), (b, hi_off) = got
    return a, lo_off, b, hi_off


def _grams(text: bytes, k: int) -> list[bytes]:
    return sorted({text[i:i + k] for i in range(len(text) - k + 1)})


def _depth(ix) -> int:
    """k, the k-gram table's deepest level."""
    return len(ix._kgrams) - 1


def _table_depth(text: bytes, budget: int) -> tuple[int, int]:
    """(k, one-byte searches) of the k-gram table's rule, read off the text:
    level j takes (distinct j-grams) x sigma searches, and k is the deepest
    level, at most 8, whose levels take at most ``budget`` in all."""
    sigma, k, spent = len(set(text)), 0, 0
    while k < 8 and spent + len(_grams(text, k)) * sigma <= budget:
        spent += len(_grams(text, k)) * sigma
        k += 1
    return k, spent


class TestKgramTable:
    """Count and locate start their search from the table of every k-gram's
    search state (``TextIndex._kgrams``), made on the first count or locate
    of an index, built or loaded."""

    @pytest.mark.parametrize("tunneling", [True, False])
    @pytest.mark.parametrize("name", sorted(SMALL_TEXTS))
    def test_keys_are_the_kgrams_and_states_their_search(self, name, tunneling, small_index):
        # every level j = 0..k: its keys are the j-grams, level 0's the
        # empty prefix of the full range, and its states their searches
        text, ix = SMALL_TEXTS[name], small_index(name, tunneling)
        for got in (ix, deserialize_index(serialize_index(ix))):
            for j, (keys, *states) in enumerate(got._kgrams):
                grams = _grams(text, j)
                assert keys.typecode == "Q" and {col.typecode for col in states} == {"i"}
                assert list(keys) == [int.from_bytes(gram, "big") for gram in grams], j
                for i, gram in enumerate(grams):
                    a, lo_off, b, hi_off = _flat(got.tg._search_pairs(gram))
                    assert [col[i] for col in states] == [a, lo_off, b, hi_off or 0], gram

    @pytest.mark.parametrize("tunneling", [True, False])
    @pytest.mark.parametrize("name", sorted(SMALL_TEXTS))
    def test_depth_rule(self, name, tunneling, small_index):
        # k is the deepest level, at most 8, whose making takes at most
        # n_t // 4 one-byte searches; the cap of 2048 binds from n_t = 8192
        text, ix = SMALL_TEXTS[name], small_index(name, tunneling)
        k = _depth(ix)
        assert ix.tg.g.n // 4 < text_index._TABLE_SEARCHES
        assert k == _table_depth(text, ix.tg.g.n // 4)[0]
        assert ix.stats()["kgram_k"] == k and ix.stats()["kgram_keys"] == len(_grams(text, k))

    def test_making_the_table_is_capped(self, monkeypatch):
        # a larger index stops at 2048 one-byte searches, a level short of
        # what n_t // 4 allows, so one query per load pays a bounded cost
        text = random_text(random.Random(5), 40_000, 4)
        ix = build_index(text)
        calls = []
        search = ix._search_from
        monkeypatch.setattr(ix, "_search_from", lambda *args: calls.append(args) or search(*args))
        k, spent = _table_depth(text, text_index._TABLE_SEARCHES)
        assert (k, len(calls)) == (5, 0) and _table_depth(text, ix.tg.g.n // 4)[0] == 6
        assert _depth(ix) == k and len(calls) == spent <= text_index._TABLE_SEARCHES
        for pat in make_patterns(random.Random(127), text, 40, max_len=10):
            assert ix.count(pat) == naive_count(text, pat), pat

    @pytest.mark.parametrize("tunneling", [True, False])
    @pytest.mark.parametrize("name", sorted(SMALL_TEXTS))
    def test_search_continues_from_any_prefix_state(self, name, tunneling, small_index):
        text, ix = SMALL_TEXTS[name], small_index(name, tunneling)
        for got in (ix, deserialize_index(serialize_index(ix))):
            search = got.tg._search_pairs
            for pat in make_patterns(random.Random(107), text, 40, max_len=12):
                want = search(pat)
                for j in range(len(pat) + 1):
                    head = search(pat[:j])
                    assert (want is None if head is None
                            else search(pat[j:], _flat(head)) == want), (pat, j)

    @pytest.mark.parametrize("tunneling", [True, False])
    @pytest.mark.parametrize("name", sorted(SMALL_TEXTS))
    def test_queries_around_k_match_naive(self, name, tunneling, small_index):
        # shorter than k, exactly k and longer; an absent k-prefix of
        # alphabet bytes (none exists at k = 1); a byte outside the alphabet
        # before, inside and after the k-prefix; k-prefixes from byte 0
        text, ix = SMALL_TEXTS[name], small_index(name, tunneling)
        for got in (ix, deserialize_index(serialize_index(ix))):
            k = _depth(got)
            out = bytes([min(set(range(256)) - set(text))])
            rng = random.Random(109)
            starts = [rng.randrange(len(text) - k) for _ in range(20)]
            pats = [text[:j] for j in range(1, k + 1)] + [text[i:i + k + 3] for i in starts]
            present = set(_grams(text, k))
            alphabet = sorted(set(text))
            absent = [p for p in (bytes(rng.choice(alphabet) for _ in range(k))
                                  for _ in range(200)) if p not in present]
            assert absent or k == 1
            pats += absent[:5] + [p + text[:2] for p in absent[:5]]
            pats += [out + text[:k], text[:k - 1] + out + text[k:k + 2], text[:k] + out]
            zero = [text[i:i + k + j] for i in range(len(text) - k) if text[i] == 0 for j in (0, 2)]
            assert bool(zero) == (name in ("rand96", "cpm96"))
            pats += zero[:10]
            for pat in pats:
                assert got.count(pat) == naive_count(text, pat), pat
                assert got.locate(pat) == naive_locate(text, pat), pat

    def test_eight_byte_keys_from_high_bytes(self):
        # at k = 8 a prefix from byte 0x80 up passes 2^63
        text = fibonacci_word(2048).translate(bytes.maketrans(b"ab", b"\xfe\xff"))
        ix = build_index(text)
        keys = ix._kgrams[-1][0]
        assert _depth(ix) == 8 and max(keys) >= 2 ** 63
        assert list(keys) == [int.from_bytes(gram, "big") for gram in _grams(text, 8)]
        for pat in make_patterns(random.Random(113), text, 60, max_len=12):
            assert ix.count(pat) == naive_count(text, pat), pat
            assert ix.locate(pat) == naive_locate(text, pat), pat

    def test_made_on_the_first_query_and_never_stored(self):
        ix = build_index(SMALL_TEXTS["cpm4"])
        data = serialize_index(ix)
        for query in ("count", "locate"):
            loaded = deserialize_index(data)
            assert "_kgrams" not in vars(loaded)
            assert getattr(loaded, query)(b"ab")
            assert _depth(loaded) > 1 and serialize_index(loaded) == data
        assert "_kgrams" not in vars(ix)



def _where(ix, v: int) -> str:
    """Where node v lies: "sink" (no out-edge), "exit" (a tunnel node of
    more than one out-edge, "one-node tunnel" when it is also its tunnel's
    entrance), "inside" (any other tunnel node) or "plain"."""
    deg = ix.tg.g.outdeg(v)
    if not deg:
        return "sink"
    if not is_tunnel_node(ix.tg, v):
        return "plain"
    if deg == 1:
        return "inside"
    return "one-node tunnel" if v in ix.tg.entrance_info else "exit"


def _step_kinds(ix, state, byte) -> list[str]:
    """How the search step from ``state`` by ``byte`` takes lo and hi, read
    off the graph by LabelSeq calls: "border" when the end's border edge,
    the range's first out-edge after lo's copy or its last up to hi's,
    carries the byte, else the edge the end ranks to: "move into an exit",
    "move" (in-tunnel moves) or "edge".  An empty list for a byte outside
    the alphabet."""
    g, tg = ix.tg.g, ix.tg
    a, lo_off, b, hi_off = state
    c = g._label_to_id.get(byte)
    if c is None:
        return []
    i, j = g._lstart[a], g._lstart[b + 1]
    if g.outdeg(a) > 1:
        i = min(i + lo_off - 1, g._lstart[a + 1])
    if g.outdeg(b) > 1 and hi_off is not None:
        j = g._lstart[b] + hi_off
    first, last = g.C[c] + g.L.rank(i, c) + 1, g.C[c] + g.L.rank(j, c)
    kinds = []
    for border, edge in ((i + 1, first), (j, last)):
        p = tg._pos[edge] if 1 <= edge <= g.m else 0
        if i < j and g.L.access(border) == c:
            kinds.append("border")
        elif not p or tg._step_land[p]:
            kinds.append("edge")
        else:
            kinds.append("move into an exit" if g.outdeg(tg._step_to[p]) > 1 else "move")
    return kinds


def _kgram_states(ix) -> list[tuple]:
    """Every state of the k-gram table's level k, as a search takes it."""
    cols = ix._kgrams[-1][1:]
    return [(a, lo_off, b, hi_off or None) for a, lo_off, b, hi_off in zip(*cols)]


def _assert_search_from(ix, patterns, states=(None,)) -> Counter:
    """Asserts that ``_search_from`` returns ``_search_pairs``' state for
    every pattern from each state; counts where the non-empty results'
    ends lie (``_where``), once per end."""
    seen = Counter()
    for state in states:
        for pat in patterns:
            want = ix.tg._search_pairs(pat, state)
            assert ix._search_from(pat, state) == want, (state, pat)
            if want is not None:
                seen.update(_where(ix, end[0]) for end in want)
    return seen


def _search_patterns(text: bytes, seed: int) -> list[bytes]:
    """Patterns present and absent, with bytes outside the alphabet; long
    substrings, which cross tunnels; and suffixes, whose ranges hold the
    sink."""
    n, out = len(text), bytes([min(set(range(256)) - set(text))])
    rng = random.Random(seed)
    pats = make_patterns(rng, text, 150, max_len=40)
    pats += [text[i:i + 97] for i in range(0, n - 97, 61)]
    pats += [text[n - k:] for k in range(1, 130)] + [text]
    pats += [bytes((x,)) for x in range(256)] + [b""]
    pats += [p[:len(p) // 2] + out + p[len(p) // 2:] for p in pats[:20]]
    return pats


class TestSearchKernel:
    """``TextIndex._search_from`` searches along extract's signed successor
    table and crosses a tunnel node's copies by one compare; it returns
    ``TunneledGraph._search_pairs``' state, which the tests take as the
    reference, hi_off None against 1 included."""

    @pytest.mark.parametrize("tunneling", [True, False])
    @pytest.mark.parametrize("name", sorted(SMALL_TEXTS))
    def test_matches_the_pair_search(self, name, tunneling, small_index):
        # from the full range and from every k-gram state, built and loaded;
        # the ranges end inside tunnels, at exits and at the sink
        text = SMALL_TEXTS[name]
        out = bytes([min(set(range(256)) - set(text))])
        alphabet = [bytes((x,)) for x in sorted(set(text))]
        for ix in (small_index(name, tunneling), small_index(name, tunneling, loaded=True)):
            seen = _assert_search_from(ix, _search_patterns(text, 151))
            rng = random.Random(157)
            for state in _kgram_states(ix):
                pats = alphabet + [out] + [text[i:i + rng.randint(2, 24)]
                                           for i in rng.sample(range(len(text)), 3)]
                seen += _assert_search_from(ix, pats, [state])
            assert seen["sink"] > 0 and seen["plain"] > 0, seen
            if tunneling and name != "rand96":
                assert seen["inside"] > 0 and seen["exit"] > 0, seen

    @pytest.mark.parametrize("tunneling", [True, False])
    @pytest.mark.parametrize("name", sorted(SMALL_TEXTS))
    def test_each_step_matches(self, name, tunneling, small_index):
        # byte by byte, each step from the state the last one reached: ends
        # take their border edges or rank, and a ranked edge can be an
        # in-tunnel move, into an exit or not
        text = SMALL_TEXTS[name]
        ix = small_index(name, tunneling)
        kinds = Counter()
        for pat in _search_patterns(text, 163)[:300]:
            state = (1, 1, ix.tg.g.n, None)
            for byte in pat:
                got = ix._search_from(bytes((byte,)), state)
                assert got == ix.tg._search_pairs(bytes((byte,)), state), (state, byte)
                kinds.update(_step_kinds(ix, state, byte))
                if got is None:
                    break
                state = (*got[0], *got[1])
        assert kinds["border"] > 0 and kinds["edge"] > 0, kinds
        assert (kinds["move"] > 0) == (tunneling and name != "rand96"), kinds
        assert (kinds["move into an exit"] > 0) == (tunneling and name in ("cpm4", "cpm96")), kinds

    def test_an_end_at_the_sink_takes_a_neighbours_move(self, small_index):
        # the sink has no out-edge, so lo's border is the next node's first
        # out-edge and hi's the last of the node before: on cpm96 both are
        # in-tunnel moves.  Taken, lo lands at copy 1 and hi at copy None
        # of the move's target, whatever copies the range held
        ix = small_index("cpm96")
        tg, lstart = ix.tg, ix.tg.g._lstart
        (sink,) = [v for v in range(1, tg.g.n + 1) if not tg.g.outdeg(v)]
        lo_move, hi_move = lstart[sink] + 1, lstart[sink]
        assert _where(ix, sink - 1) == _where(ix, sink + 1) == "inside"
        assert tg._step_land[lo_move] == tg._step_land[hi_move] == 0
        byte = tg._step_byte[lo_move]
        t = tg._step_to[lo_move]
        assert ix._search_from(bytes((byte,)), (sink, 1, sink + 1, None)) == ((t, 1), (t, None))
        assert ix._search_from(bytes((byte,)), (sink, 1, sink + 1, 2)) == ((t, 1), (t, 2))
        byte = tg._step_byte[hi_move]
        t = tg._step_to[hi_move]
        for hi_off in (1, None):
            for lo_off in (1, 2):
                state = (sink - 1, lo_off, sink, hi_off)
                assert ix._search_from(bytes((byte,)), state) == ((t, lo_off), (t, None))
        states = [(sink, 1, b, None) for b in range(sink, sink + 4)]
        states += [(a, 1, sink, hi_off) for a in range(sink - 3, sink + 1) for hi_off in (1, None)]
        _assert_search_from(ix, _search_patterns(SMALL_TEXTS["cpm96"], 167)[:200], states)

    @pytest.mark.parametrize("tunneling", [True, False])
    @pytest.mark.parametrize("name", sorted(SMALL_TEXTS))
    def test_a_plain_hi_given_copy_1(self, name, tunneling, small_index):
        # a plain node has one copy: hi_off 1 there searches as None does,
        # and a move taken from it lands at copy None, not 1
        text, ix = SMALL_TEXTS[name], small_index(name, tunneling)
        reached = [ix.tg._search_pairs(p) for p in _search_patterns(text, 173)]
        states = _kgram_states(ix) + [(*got[0], *got[1]) for got in reached if got]
        plain = [s for s in states if not is_tunnel_node(ix.tg, s[2])]
        assert len(plain) > 60
        rng = random.Random(173)
        pats = [bytes((x,)) for x in sorted(set(text))]
        pats += [text[i:i + rng.randint(2, 30)] for i in rng.sample(range(len(text)), 20)]
        for a, lo_off, b, hi_off in plain[:60]:
            for pat in pats:
                want = ix.tg._search_pairs(pat, (a, lo_off, b, None))
                assert ix._search_from(pat, (a, lo_off, b, 1)) == want, ((a, lo_off, b), pat)
                assert ix.tg._search_pairs(pat, (a, lo_off, b, 1)) == want

    @pytest.mark.parametrize("min_width", [2, 3])
    def test_length_one_tunnels(self, min_width):
        # an entrance that is its own exit: an edge into it enters at the
        # exit, where the signed successor table already names its copy's
        # out-edge
        seen, one_node = Counter(), 0
        for text in EXIT_TEXTS:
            ix = oracle_index(text, min_width=min_width, min_length=1)
            one_node += sum(t.length == 1 for t in ix.tg.tunnels)
            seen += _assert_search_from(ix, _search_patterns(text, 179))
            seen += _assert_search_from(ix, [bytes((x,)) for x in sorted(set(text))],
                                        _kgram_states(ix))
        assert one_node > 0 and seen["one-node tunnel"] > 0, seen

    def test_non_coherent_range(self):
        # both a-edges reach node 2; a step table that sends the first one
        # to node 3 lands lo above hi, here and in the k-gram table's steps
        ix = build_index(b"abcabc")
        assert ix._search_from(b"a") == ((2, 1), (2, 2))
        ix.tg._step_to[ix.tg._pos[1]] = 3
        with pytest.raises(InvariantError, match="non-coherent"):
            ix._search_from(b"a")
        with pytest.raises(InvariantError, match="non-coherent"):
            ix.count(b"a")

    def test_a_pattern_of_k_bytes_makes_no_search(self, small_index, monkeypatch):
        # level j of the table holds the state of every j-byte prefix: a
        # pattern of 1..k bytes, present or absent, is one bisect, and no
        # search runs
        for name, text in sorted(SMALL_TEXTS.items()):
            ix = deserialize_index(serialize_index(small_index(name)))
            k = _depth(ix)
            calls = []
            search = ix._search_from
            monkeypatch.setattr(ix, "_search_from",
                                lambda *args: calls.append(args) or search(*args))
            out = bytes([min(set(range(256)) - set(text))])
            for j in range(1, k + 1):
                for pat in [text[i:i + j] for i in range(0, 400, 7)] + [out * j,
                                                                         text[:j - 1] + out]:
                    assert ix.count(pat) == naive_count(text, pat), (name, pat)
                    assert ix.locate(pat) == naive_locate(text, pat), (name, pat)
            assert k >= 1 and calls == [], name
            assert ix.count(text[:k + 1]) == naive_count(text, text[:k + 1]) and len(calls) == 1


@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_random_texts_search_from_like_the_pair_search(data):
    # on every substring of up to 12 bytes and on random patterns, most of
    # them absent, some with a byte outside the alphabet, from the full
    # range and from every k-gram state; copy-paste-mutate texts have
    # tunnels, random ones few
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
    _assert_search_from(ix, sorted(patterns))
    _assert_search_from(ix, [bytes((x,)) for x in (*alphabet, 0x7a)], _kgram_states(ix))


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
        assert not is_tunnel_node(ix.tg, 1) and is_tunnel_node(ix.tg, 2)
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
            nodes = [v for v in range(1, ix.tg.g.n + 1) if is_tunnel_node(ix.tg, v)]
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

    def test_duplicate_occurrence_raises(self, monkeypatch):
        # every walk answers 7, so the two a's collide
        ix = build_index(b"abcabc")
        monkeypatch.setattr(TextIndex, "_lockstep",
                            lambda self, q, acc, counter: np.full_like(q, 7))
        for limit in (None, 2):
            with pytest.raises(InvariantError, match="two occurrences"):
                ix.locate(b"a", limit=limit)

    def test_empty_pattern_rejected(self):
        ix = build_index(b"abcabc")
        with pytest.raises(ValidationError):
            ix.locate(b"")


def _first_occurrences(ix, pat, limit):
    """(positions, steps) of ``locate(pat, limit)`` by the oracle
    ``fstep_walk``: the first ``limit`` occurrences in rank and copy order,
    each walked from its own (node, copy), ascending; and the jumps of
    ``_oracle_starts`` plus one oracle walk from each start it gives."""
    got = ix.tg._search_pairs(pat)
    if got is None:
        return [], 0
    (lo, lo_off), (hi, hi_off) = got
    out, loc = [], sample_loc(ix)
    for v in range(lo, hi + 1):
        last = hi_off if v == hi and hi_off is not None else ix.node_width(v)
        out += [fstep_walk(ix, v, o, loc=loc) - len(pat)
                for o in range(lo_off if v == lo else 1, last + 1)]
        if limit is not None and len(out) >= limit:
            break
    (nodes, copies, _), jumps = _oracle_starts(ix, lo, lo_off, hi, hi_off, limit)
    counter = StepCounter(jumps)
    for v, o in zip(nodes, copies):
        fstep_walk(ix, v, o, counter, loc)
    return sorted(out[:limit]), counter.steps


def _oracle_starts(ix, lo, lo_off, hi, hi_off, limit):
    """(starts, jumps) that ``_starts`` should give: the first ``limit``
    occurrences in rank and copy order, a tunnel node's copies at the exit
    ``walk_to_exit`` finds, and one jump for each tunnel node off its exit
    with a kept copy."""
    occ = []
    for v in range(lo, hi + 1):
        last = hi_off if v == hi and hi_off is not None else ix.node_width(v)
        occ += [(v, o) for o in range(lo_off if v == lo else 1, last + 1)]
    starts, jumped = ([], [], []), set()
    for v, o in occ[:limit]:
        node, dist = walk_to_exit(ix.tg.g, v) if is_tunnel_node(ix.tg, v) else (v, 0)
        if dist:
            jumped.add(v)
        for into, x in zip(starts, (node, o, dist)):
            into.append(x)
    return starts, len(jumped)


# (sample_rate_n, loaded) of the start table tests past the default-rate
# built indexes: every plain node, or one in 17, sampled
RATES_AND_FILES = [(None, True), (1, False), (1, True), (17, False), (17, True)]


def _holds_tunnel_node(ix, pat) -> bool:
    (lo, _), (hi, _) = ix._search(pat)
    return any(is_tunnel_node(ix.tg, v) for v in range(lo, hi + 1))


def _assert_starts_keep_copies(ix, name, tunneling) -> None:
    """``_starts`` gives ``_oracle_starts``' starts and jumps on the ranges
    of 40 patterns and b"caaca" under limits 1 to 16 and None; it cuts some
    tunnel node's copies exactly on the tunneled cpm4 and cpm96."""
    text, overcut = SMALL_TEXTS[name], 0
    for pat in make_patterns(random.Random(59), text, 40, max_len=6) + [b"caaca"]:
        got = ix.tg._search_pairs(pat)
        if got is None:
            continue
        (lo, lo_off), (hi, hi_off) = got
        for limit in [*range(1, 17), None]:
            counter = StepCounter()
            starts, jumps = _oracle_starts(ix, lo, lo_off, hi, hi_off, limit)
            got = ix._starts(lo, lo_off, hi, hi_off, limit, counter)
            assert (tuple(a.tolist() for a in got), counter.steps) == \
                (_walk_starts(ix, *starts), jumps), (pat, limit)
            end = hi if limit is None else min(hi, lo + limit - 1)
            overcut += jumps < sum(walk_to_exit(ix.tg.g, v)[1] > 0 for v in
                                   range(lo, end + 1) if is_tunnel_node(ix.tg, v))
    assert bool(overcut) == (tunneling and name in ("cpm4", "cpm96"))


def _assert_starts_past_the_width(ix, name, tunneling) -> None:
    """``_starts`` gives ``_oracle_starts``' starts and jumps on ranges whose
    first copy is past lo's width, under limits None, 1, 2 and 5; some
    tunnel node is jumped exactly on the tunneled indexes but rand96's."""
    tg, nt = ix.tg, ix.tg.g.n
    tunnel_nodes = [v for v in range(1, nt - 3) if tg._kind[v]]
    los = tunnel_nodes[::max(1, len(tunnel_nodes) // 40)] + list(range(1, nt - 3, nt // 20))
    jumped = 0
    for lo in los:
        lo_off = ix.node_width(lo) + 1
        for hi, hi_off in ((lo, None), (lo, 1), (lo + 3, None), (lo + 3, 1)):
            for limit in (None, 1, 2, 5):
                counter = StepCounter()
                got = ix._starts(lo, lo_off, hi, hi_off, limit, counter)
                starts, jumps = _oracle_starts(ix, lo, lo_off, hi, hi_off, limit)
                assert (tuple(a.tolist() for a in got), counter.steps) == \
                    (_walk_starts(ix, *starts), jumps), (lo, hi, hi_off, limit)
                jumped += jumps
    assert bool(jumped) == (tunneling and name != "rand96")


def _walk_starts(ix, nodes, copies, dists) -> tuple[list[int], list[int]]:
    """(q, acc) that ``_starts`` should give for ``_oracle_starts``' starts:
    the L position of the start's copy's out-edge, or 0 at a sample, and
    the sample's position, or minus the distance travelled, times 2^32."""
    loc, lstart = sample_loc(ix), ix.tg.g._lstart
    return ([0 if v in loc else lstart[v] + o for v, o in zip(nodes, copies)],
            [(loc.get(v, 0) - d) << 32 for v, d in zip(nodes, dists)])


class TestLockstep:
    """Locate walks a range's starts in lockstep through the hop table, and
    locate_one its one start; both must give the naive answers and the
    oracle ``fstep_walk``'s positions and steps."""

    @pytest.mark.parametrize("tunneling", [True, False])
    @pytest.mark.parametrize("name", sorted(SMALL_TEXTS))
    def test_both_paths_match_naive(self, name, tunneling, small_index):
        # the hop table's walk and the oracle's: the naive answers, the same
        # steps and, under a limit, the same first occurrences
        text, ix = SMALL_TEXTS[name], small_index(name, tunneling)
        rng = random.Random(41)
        found = 0
        for pat in make_patterns(rng, text, 60, max_len=10) + [text[:1], text[-3:]]:
            want = naive_locate(text, pat)
            counter = StepCounter()
            assert ix.locate(pat, counter=counter) == want, pat
            assert _first_occurrences(ix, pat, None) == (want, counter.steps), pat
            for limit in (1, 3, len(want) // 2 + 1):
                counter = StepCounter()
                got = ix.locate(pat, limit=limit, counter=counter)
                assert (got, counter.steps) == _first_occurrences(ix, pat, limit), (pat, limit)
            found += len(want)
        assert found > 100

    @pytest.mark.parametrize("tunneling", [True, False])
    @pytest.mark.parametrize("name", sorted(SMALL_TEXTS))
    def test_small_limits_match_the_oracle(self, name, tunneling, small_index):
        # ranges of 1 to 24 starts, which no benchmark workload locates:
        # the positions and steps of the oracle walks
        text, ix = SMALL_TEXTS[name], small_index(name, tunneling)
        rng = random.Random(47)
        for pat in make_patterns(rng, text, 20, max_len=6) + [text[:1], text[-3:]]:
            for limit in range(1, 25):
                counter = StepCounter()
                got = ix.locate(pat, limit=limit, counter=counter)
                assert (got, counter.steps) == _first_occurrences(ix, pat, limit), (pat, limit)

    @pytest.mark.parametrize("tunneling", [True, False])
    @pytest.mark.parametrize("name", sorted(SMALL_TEXTS))
    def test_starts_jump_only_for_kept_copies(self, name, tunneling, small_index):
        # _starts stops at `limit` starts: a tunnel node whose copies the
        # limit cuts is not jumped, which counting every tunnel node up to
        # the range's end would do
        _assert_starts_keep_copies(small_index(name, tunneling), name, tunneling)

    @pytest.mark.parametrize("rate,loaded", RATES_AND_FILES)
    @pytest.mark.parametrize("tunneling", [True, False])
    @pytest.mark.parametrize("name", sorted(SMALL_TEXTS))
    def test_start_table_keeps_copies_at_each_rate(self, name, tunneling, rate, loaded,
                                                   small_index):
        # the start table of a loaded index, and of one whose every plain
        # node, or few, hold a sample (rate 1: q = 0 on most plain nodes)
        _assert_starts_keep_copies(small_index(name, tunneling, rate, loaded), name, tunneling)

    def test_caaca_under_limit_5_jumps_once(self, small_index):
        ix = small_index("cpm4")
        (lo, lo_off), (hi, hi_off) = ix.tg._search_pairs(b"caaca")
        counter = StepCounter()
        q, acc = ix._starts(lo, lo_off, hi, hi_off, 5, counter)
        assert (len(q), counter.steps) == (5, 1)
        # the jumped starts leave by copies 1 to 3 of exit 560, which have
        # travelled a distance (a negative sum)
        assert [x - ix.tg.g._lstart[560] for x, a in zip(q.tolist(), acc.tolist())
                if a < 0] == [1, 2, 3]

    @pytest.mark.parametrize("name", sorted(SMALL_TEXTS))
    def test_walks_from_inside_a_tunnel(self, name, small_index):
        # locate starts no walk inside a tunnel or on the sink; locate_one
        # may.  From every copy of every node (plain nodes, the sink,
        # entrances, inner nodes and exits) of the tunneled index and of
        # the plain one, built and loaded, it finds the position and takes
        # the steps of the oracle walk, whose every step _fstep takes: no
        # walk sticks, as TextIndex's load-time argument says
        for tunneling in (True, False):
            built = small_index(name, tunneling)
            for ix in (built, deserialize_index(serialize_index(built))):
                tg = ix.tg
                starts = [(v, o) for v in range(1, tg.g.n + 1)
                          for o in range(1, ix.node_width(v) + 1)]
                exits = {t.exit for t in tg.tunnels}
                kinds = {"entrance" if v in tg.entrance_info else "exit" if v in exits else
                         "inner" if is_tunnel_node(tg, v) else "plain" for v, _ in starts}
                assert kinds == ({"plain", "entrance", "inner", "exit"} if tg.tunnels
                                 else {"plain"})
                (sink,) = [v for v in range(1, tg.g.n + 1) if tg.g.outdeg(v) == 0]
                loc = sample_loc(ix)
                for v, o in starts:
                    got, want = StepCounter(), StepCounter()
                    assert ix.locate_one(TraversalPos(v, o), got) == fstep_walk(ix, v, o, want, loc)
                    assert got.steps == want.steps, (v, o)
                assert ix.locate_one(TraversalPos(sink, 1)) == ix.n

    @pytest.mark.parametrize("tunneling", [True, False])
    def test_hop_table_is_made_on_first_lockstep_locate(self, tunneling, small_index):
        # an index that only counts and extracts does not pay for the hop
        # table; the first locate or locate_one makes it, the next reuse it
        text = SMALL_TEXTS["cpm4"]
        data = serialize_index(small_index("cpm4", tunneling))
        for first in (lambda ix: ix.locate(text[:2], limit=1),
                      lambda ix: ix.locate_one(TraversalPos(2, 1))):
            ix = deserialize_index(data)
            assert ix.count(text[:2]) > 1 and ix.extract(5, 30) == text[4:34]
            assert "_hops" not in vars(ix)
            first(ix)
            table = vars(ix)["_hops"]
            assert ix.locate(text[1:3]) == naive_locate(text, text[1:3])
            assert ix.locate_one(TraversalPos(1, 1)) == 1
            assert vars(ix)["_hops"] is table

    @pytest.mark.parametrize("tunneling", [True, False])
    @pytest.mark.parametrize("name", sorted(SMALL_TEXTS))
    def test_hop_table_takes_four_hops(self, name, tunneling):
        # at sample rate 3 a round takes four hops, the least power of 2 at
        # or above the rate
        _assert_hops_compose(build_index(SMALL_TEXTS[name], sample_rate_n=3,
                                         tunneling=tunneling), 4)

    @pytest.mark.parametrize("rate,hops", [(1, 1), (None, 16), (17, 32)])
    @pytest.mark.parametrize("tunneling", [True, False])
    @pytest.mark.parametrize("name", sorted(SMALL_TEXTS))
    def test_hop_table_takes_the_rate_rounded_up(self, name, tunneling, rate, hops):
        # rate 1 takes no composition; the default rate on a 2 KB text is 12
        ix = build_index(SMALL_TEXTS[name], sample_rate_n=rate, tunneling=tunneling)
        assert rate or ix.sample_rate_n == 12
        _assert_hops_compose(ix, hops)

    @pytest.mark.parametrize("rate,loaded", RATES_AND_FILES)
    @pytest.mark.parametrize("tunneling", [True, False])
    @pytest.mark.parametrize("name", sorted(SMALL_TEXTS))
    def test_every_sample_walks_to_its_position(self, name, tunneling, rate, loaded,
                                                small_index):
        # the check that making the hop table runs: the walk from every
        # sample but the sink, by its one out-edge, reads the position the
        # loop's samples give it
        text = SMALL_TEXTS[name]
        ix = small_index(name, tunneling, rate, loaded)
        kw = {} if tunneling else {"min_width": len(text) + 2}
        loc = loop_samples(text, sample_rate_n=rate, **kw)[0]
        walked = {v: pos for v, pos in loc.items() if ix.tg.g.outdeg(v)}
        assert len(walked) == len(loc) - 1
        starts = np.array([ix.tg.g._lstart[v] + 1 for v in walked], np.int64)
        got = ix._lockstep(starts, np.zeros(len(walked), np.int64), StepCounter())
        assert got.tolist() == list(walked.values())

    @pytest.mark.parametrize("name", sorted(SMALL_TEXTS))
    def test_one_round_spans_every_plain_sample_gap(self, name, small_index):
        # a plain index's samples lie at most sample_rate_n text positions,
        # one hop each, apart: every walk ends in its first round
        nxt, _ = small_index(name, tunneling=False)._hops
        assert not nxt.any()

    @pytest.mark.parametrize("tunneling", [True, False])
    @pytest.mark.parametrize("name", sorted(SMALL_TEXTS))
    def test_starts_from_a_copy_past_the_width(self, name, tunneling, small_index):
        # no search gives a range whose first copy is past lo's width: lo then
        # keeps no copy and is not jumped, and the starts, under every limit,
        # come from the nodes after it as the oracle's do
        _assert_starts_past_the_width(small_index(name, tunneling), name, tunneling)

    @pytest.mark.parametrize("rate,loaded", RATES_AND_FILES)
    @pytest.mark.parametrize("tunneling", [True, False])
    @pytest.mark.parametrize("name", sorted(SMALL_TEXTS))
    def test_start_table_past_the_width_at_each_rate(self, name, tunneling, rate, loaded,
                                                     small_index):
        _assert_starts_past_the_width(small_index(name, tunneling, rate, loaded), name,
                                      tunneling)

    def test_start_table_is_made_on_first_tunnel_range(self, small_index):
        # a count, an extract, a locate of plain nodes or a locate_one of
        # one does not make the start table; the first locate of a range
        # holding a tunnel node does, and the next reuse it unchanged: the
        # walk adds into the starts in place, so they are no view of it
        text = SMALL_TEXTS["cpm4"]
        ix = deserialize_index(serialize_index(small_index("cpm4")))
        pats = [p for p in make_patterns(random.Random(61), text, 40, max_len=6) if ix.count(p)]
        tunneled = [p for p in pats if _holds_tunnel_node(ix, p)]
        plain = [p for p in pats if not _holds_tunnel_node(ix, p)]
        assert tunneled and plain
        node = next(v for v in range(1, ix.tg.g.n + 1) if not is_tunnel_node(ix.tg, v))
        assert ix.count(tunneled[0]) > 0 and ix.extract(5, 30) == text[4:34]
        for pat in plain:
            assert ix.locate(pat) == naive_locate(text, pat)
        ix.locate_one(TraversalPos(node, 1))
        assert "_start_table" not in vars(ix)
        pat = tunneled[0]
        want = naive_locate(text, pat)
        assert ix.locate(pat) == want
        table = vars(ix)["_start_table"]
        kept = [a.tobytes() for a in table]
        assert ix.locate(pat) == want and set(ix.locate(pat, limit=2)) <= set(want)
        assert vars(ix)["_start_table"] is table and [a.tobytes() for a in table] == kept
        (lo, lo_off), (hi, hi_off) = ix._search(pat)
        for got in ix._starts(lo, lo_off, hi, hi_off, None, StepCounter()):
            assert not any(np.shares_memory(got, a) for a in table)

    def test_no_locate_of_a_plain_index_makes_the_start_table(self, small_index):
        # every range of an index without tunnels reads slices, and its stats
        # report no start table
        text = SMALL_TEXTS["cpm4"]
        ix = deserialize_index(serialize_index(small_index("cpm4", tunneling=False)))
        for pat in make_patterns(random.Random(61), text, 40, max_len=6):
            want = naive_locate(text, pat)
            assert ix.locate(pat) == want and set(ix.locate(pat, limit=1)) <= set(want)
        for v in range(1, ix.tg.g.n + 1, 7):
            ix.locate_one(TraversalPos(v, 1))
        assert ix.stats()["start_bytes"] == 0 and "_start_table" not in vars(ix)

    @pytest.mark.parametrize("tunneling", [True, False])
    def test_a_walk_of_nearly_n_hops_ends(self, tunneling):
        # at a sample rate past n the samples lie at the text's ends and a
        # round takes at least n hops: a walk from the second position
        # takes nearly n of them, one round, and the round bound lets it end
        text = SMALL_TEXTS["fib"]
        ix = build_index(text, sample_rate_n=2 * len(text), tunneling=tunneling)
        assert len(sample_loc(ix)) <= 3 and ix.stats()["hops_per_round"] >= ix.n
        for pat in (text[1:9], text[:3], text[-5:]):
            assert ix.locate(pat) == naive_locate(text, pat)
        v, o, _ = ix._fstep(1, 1, StepCounter())  # the source's successor
        assert ix.locate_one(TraversalPos(v, o)) == 2

    def test_a_step_cycle_stops_both_walks(self, small_index):
        # the node after the second-to-last sample steps to itself: a walk
        # from it meets no sample, and locate and locate_one stop after the
        # rounds that take n hops
        text = SMALL_TEXTS["fib"]
        bad = deserialize_index(serialize_index(small_index("fib", tunneling=False)))
        pos = bad.ext_pos[-2]
        u = bad._fstep(bad.ext_node[-2], 1, StepCounter())[0]
        assert u not in sample_loc(bad)
        bad.tg._step_to[bad.tg.g._lstart[u] + 1] = u
        with pytest.raises(FormatError, match=f"found no sample in {bad.n} steps"):
            bad.locate(text[pos - 8:pos])
        with pytest.raises(FormatError, match=f"found no sample in {bad.n} steps"):
            bad.locate_one(TraversalPos(u, 1))


def _assert_hops_compose(ix, hops: int) -> None:
    """The one-hop table is the reference's, whose _fstep calls raise at no
    L position, and an entry of the hop table is ``hops`` of its hops: the L
    position after them and the sum of their values, on the built index and
    on its file, whose stats report the hops a round takes."""
    for index in (ix, deserialize_index(serialize_index(ix))):
        one_nxt, one_val = fstep_hop_table(index)
        assert tuple(a.tolist() for a in index._hop_table()) == (one_nxt, one_val)
        want_nxt, want_val = [], []
        for q in range(len(one_nxt)):
            acc = 0
            for _ in range(hops):
                acc, q = acc + one_val[q], one_nxt[q]
            want_nxt.append(q)
            want_val.append(acc)
        nxt, val = index._hops
        assert (nxt.dtype, val.dtype, len(nxt)) == (np.int32, np.int64, ix.tg.g.m + 1)
        assert nxt.tolist() == want_nxt and val.tolist() == want_val
        assert index.stats()["hops_per_round"] == hops


TUNNELED = ["cpm4", "cpm96", "fib"]  # the SMALL_TEXTS whose indexes hold tunnels


def _spans(ix) -> list[tuple[int, int]]:
    """(x, s) for every copy of every tunnel, x the text position of the
    entrance's copy and s the tunnel's length.  A walk reads T[x - 1] by the
    edge into the entrance, T[x .. x+s-2] as one slice, stands at the exit
    at x + s - 1 and reads T[x + s - 1] by its out-edge."""
    spans = []
    for t in ix.tg.tunnels:
        for o in range(1, t.width + 1):
            x = ix.locate_one(TraversalPos(t.entrance, o))
            assert ix.locate_one(TraversalPos(t.exit, o)) == x + t.length - 1
            spans.append((x, t.length))
    return sorted(spans)


def _edge_index(small_index, name: str, settings: str, loaded: bool):
    """The tunneled index of SMALL_TEXTS[name]: build_index's, or the
    oracle's at ``LANDING_SETTINGS[settings]``, whose tunnels include
    length-1 ones, which a walk crosses by no slice; from its file if
    ``loaded``."""
    ix = small_index(name) if settings == "default" else \
        oracle_index(SMALL_TEXTS[name], **LANDING_SETTINGS[settings])
    return deserialize_index(serialize_index(ix)) if loaded else ix


class TestNoCounter:
    """A query passed no counter makes no ``StepCounter`` and keeps no step
    count, and answers as one passed a counter does."""

    @pytest.mark.parametrize("rate,loaded", [(None, False), *RATES_AND_FILES])
    @pytest.mark.parametrize("tunneling", [True, False])
    @pytest.mark.parametrize("name", sorted(SMALL_TEXTS))
    def test_answers_as_with_a_counter(self, name, tunneling, rate, loaded, small_index,
                                       monkeypatch):
        text, ix = SMALL_TEXTS[name], small_index(name, tunneling, rate, loaded)
        rng = random.Random(67)
        want = {}
        for pat in make_patterns(rng, text, 20, max_len=9) + [text[:1], text[-3:]]:
            for limit in (None, 1, 5):
                want[pat, limit] = ix.locate(pat, limit, StepCounter())
        nodes = rng.sample(range(1, ix.tg.g.n + 1), 30)
        copies = [TraversalPos(v, o) for v in nodes for o in range(1, ix.node_width(v) + 1)]
        located = [ix.locate_one(pos, StepCounter()) for pos in copies]
        windows = [(rng.randint(1, len(text) - 40), rng.randint(1, 40)) for _ in range(30)]
        # the module's StepCounter no longer names a class: a query that
        # made one would raise
        monkeypatch.setattr(text_index, "StepCounter", None)
        for (pat, limit), got in want.items():
            assert ix.locate(pat, limit) == got, (pat, limit)
            assert limit is not None or got == naive_locate(text, pat), pat
        assert [ix.locate_one(pos) for pos in copies] == located
        for start, ln in windows:
            assert ix.extract(start, ln) == ix.extract(start, ln, StepCounter()) \
                == text[start - 1:start - 1 + ln], (start, ln)

    @pytest.mark.parametrize("tunneling", [True, False])
    def test_a_range_with_no_starts_locates_nothing(self, tunneling, small_index, monkeypatch):
        # no search gives such a range (lo's first copy past its width, lo
        # its one node), but _starts keeps none of it: the walk of no
        # starts takes no round's step and locates nothing
        ix = small_index("cpm4", tunneling)
        nt = ix.tg.g.n
        for v in [1, 2, nt // 2] + [v for v in range(1, nt) if ix.tg._kind[v]][:1]:
            off = ix.node_width(v) + 1
            monkeypatch.setattr(ix, "_search", lambda pattern: ((v, off), (v, None)))
            counter = StepCounter()
            assert ix.locate(b"ab") == [] == ix.locate(b"ab", counter=counter)
            assert ix.locate(b"ab", limit=3) == [] and counter.steps == 0


def _extract_matches(ix, text: bytes, windows) -> None:
    """Every window's bytes and steps are ``fstep_extract``'s, and its bytes
    the text's."""
    for start, ln in windows:
        got, want = StepCounter(), StepCounter()
        assert ix.extract(start, ln, got) == fstep_extract(ix, start, ln, want) \
            == text[start - 1:start - 1 + ln], (start, ln)
        assert got.steps == want.steps, (start, ln)


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
        # _fstep call per step, from every start, at build_index's skip
        # stride and at stride 1, which no walk reads
        text = SMALL_TEXTS[name]
        ix = small_index(name, tunneling) if rate_t is None else \
            with_stride(small_index(name, tunneling), rate_t)
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

    @pytest.mark.parametrize("loaded", [False, True])
    @pytest.mark.parametrize("settings", ["default", "w2-s1-t1"])
    @pytest.mark.parametrize("name", TUNNELED)
    def test_windows_end_inside_a_slice_or_at_its_exit(self, name, settings, loaded, small_index):
        # the last byte is the slice's first, middle or second-to-last one,
        # the last move (the walk stands at the exit), or the exit's own
        text, ix = SMALL_TEXTS[name], _edge_index(small_index, name, settings, loaded)
        windows = {(end - ln + 1, ln) for x, s in _spans(ix)
                   for end in (x, x + (s - 2) // 2, x + s - 3, x + s - 2, x + s - 1)
                   for ln in (1, 2, 9, s + 3) if x <= end < x + s and end - ln >= 0}
        _extract_matches(ix, text, sorted(windows))

    @pytest.mark.parametrize("loaded", [False, True])
    @pytest.mark.parametrize("settings", ["default", "w2-s1-t1"])
    @pytest.mark.parametrize("name", TUNNELED)
    def test_seek_crosses_a_tunnel_before_start(self, name, settings, loaded, small_index):
        # the walk from the sample enters a tunnel before start, and start
        # lies inside its slice, at its exit, or past it
        text, ix = SMALL_TEXTS[name], _edge_index(small_index, name, settings, loaded)
        starts = {start for x, s in _spans(ix)
                  for start in (x + 1, x + s - 2, x + s - 1, x + s, x + s + 3)
                  if ix.ext_pos[bisect_right(ix.ext_pos, start) - 1] < x < start <= len(text)}
        assert len(starts) > 10
        _extract_matches(ix, text, [(start, min(ln, len(text) - start + 1))
                                    for start in sorted(starts) for ln in (1, 6)])

    @pytest.mark.parametrize("loaded", [False, True])
    @pytest.mark.parametrize("name", TUNNELED)
    def test_starts_before_the_first_sample_in_the_source_tunnel(self, name, loaded):
        # two runs of the smallest byte, each followed by the text's head,
        # make the source, rank 1, a width-3 tunnel's entrance: it holds no
        # sample, and every start before the first one walks from the source
        head = SMALL_TEXTS[name][:40]
        text = SMALL_TEXTS[name] + (b"\0" * 30 + head) * 2
        ix = build_index(text)
        if loaded:
            ix = deserialize_index(serialize_index(ix))
        s = ix.tg.entrance_info[1].length
        assert ix.tg._kind[1] and ix.ext_pos[0] > 1
        _extract_matches(ix, text, [(start, ln) for start in range(1, ix.ext_pos[0])
                                    for ln in (1, 2, s - start, s - start + 1, 50)
                                    if ln > 0])

    @pytest.mark.parametrize("loaded", [False, True])
    @pytest.mark.parametrize("settings", ["default", "w2-s1-t1"])
    @pytest.mark.parametrize("name", TUNNELED)
    def test_one_byte_windows_around_each_tunnel(self, name, settings, loaded, small_index):
        # the byte into each entrance, every byte of its slice, the exit's
        # and the one after it
        text, ix = SMALL_TEXTS[name], _edge_index(small_index, name, settings, loaded)
        starts = {start for x, s in _spans(ix) for start in range(x - 1, x + s + 1)}
        _extract_matches(ix, text, [(start, 1) for start in sorted(starts)
                                    if 1 <= start <= len(text)])

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

    @pytest.mark.parametrize("tunneling", [True, False])
    @pytest.mark.parametrize("name", sorted(SMALL_TEXTS))
    def test_tables_match_the_fstep_reference(self, name, tunneling, small_index):
        # the signed successor table and the tunnel bytes are the
        # reference's, whose _fstep calls and walks to each exit read no
        # walked array, on the built index and on its file; the hop table
        # reads the same successors wherever an edge reaches no sample
        ix = small_index(name, tunneling)
        for index in (ix, deserialize_index(serialize_index(ix))):
            succ, moves = index._extract_tables
            assert (succ.format, len(succ)) == ("i", ix.tg.g.m + 1)
            assert (succ.tolist(), moves) == fstep_extract_tables(index)
            nxt = index._hop_table()[0]
            loc = sample_loc(index)
            unsampled = [q for q in range(len(succ)) if index.tg._step_to[q] not in loc]
            assert all(nxt[q] == abs(succ[q]) for q in unsampled) and len(unsampled) > 1
            assert len(moves) == sum(t.length for t in ix.tg.tunnels)
            assert any(q > 0 for q in succ)
            assert any(q < 0 for q in succ) == bool(moves) == (tunneling and name != "rand96")

    @pytest.mark.parametrize("tunneling", [True, False])
    def test_tables_are_made_on_first_extract(self, tunneling, small_index):
        # the signed successor table is also the search's: the first count,
        # locate or extract makes it, the next reuse it, and a query that
        # searches nothing (an empty count or extract, a locate_one) does
        # not make it.  test_a_step_cycle_does_not_hang depends on this: it
        # writes _step_to after load, before the first query, and its
        # extract reads what it wrote
        text = SMALL_TEXTS["cpm4"]
        data = serialize_index(small_index("cpm4", tunneling))
        for first in (lambda ix: ix.count(text[:2]) > 1,
                      lambda ix: ix.locate(text[1:3]) == naive_locate(text, text[1:3]),
                      lambda ix: ix.extract(5, 30) == text[4:34]):
            ix = deserialize_index(data)
            assert ix.count(b"") == ix.n and ix.extract(3, 0) == b""
            assert ix.locate_one(TraversalPos(1, 1)) == 1
            assert not {"_extract_tables", "_search_tables"} & vars(ix).keys()
            assert first(ix)
            tables = vars(ix)["_extract_tables"]
            assert ix.extract(1, len(text)) == text and ix.count(text[:5]) >= 1
            assert ix.locate(text[:7]) == naive_locate(text, text[:7])
            assert vars(ix)["_extract_tables"] is tables
            assert all(a is b for a, b in zip(vars(ix)["_search_tables"], tables))

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

    @pytest.mark.parametrize("name", ["fib", "cpm4", "cpm96"])
    def test_tunneled_locate_steps_per_occurrence(self, name, small_index):
        # a walk crosses each tunnel in one jump and the copies of a tunnel
        # node share it, so tunneling must not multiply locate's steps; the
        # hop table's walk counts the steps and jumps of each of its walks
        text = SMALL_TEXTS[name]
        per_occ = {}
        for tunneling in (True, False):
            ix = small_index(name, tunneling)
            counter, want, occ = StepCounter(), 0, 0
            for pat in make_patterns(random.Random(5), text, 200, max_len=12):
                if pat in text:
                    occ += len(ix.locate(pat, counter=counter))
                    want += _first_occurrences(ix, pat, None)[1]
            assert counter.steps == want
            per_occ[tunneling] = counter.steps / occ
        assert per_occ[True] <= 2 * per_occ[False], per_occ


class TestSampleSharing:
    def test_locate_and_extract_share_pairs(self):
        rng = random.Random(37)
        for _ in range(10):
            text = bytes(rng.choice(b"ab") for _ in range(rng.randint(2, 300)))
            ix = build_index(text)
            assert list(zip(ix.ext_pos, ix.ext_node)) == \
                   sorted((pos, node) for node, pos in _samp_loc(ix).items())
