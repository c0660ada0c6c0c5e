import dataclasses
import hashlib
import io
import itertools
import random
import struct
import sys
import zlib
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SMALL_TEXTS,
    entrance_marks,
    fig1_block,
    fig1_edge_list,
    fstep_hop_table,
    is_tunnel_node,
    loop_pack_ints,
    loop_unpack_ints,
    make_patterns,
    naive_count,
    naive_locate,
    oracle_index,
    random_tunneled_graphs,
    with_stride,
    write_blocks_file,
)
from twgi.bitvec import BitVec
from twgi.errors import (
    BadMagicError,
    BoundsError,
    ChecksumError,
    FormatError,
    InvariantError,
    TruncatedError,
    TwgiError,
    ValidationError,
    VersionError,
)
from twgi.persist import (
    VERSION,
    _pack_ints,
    _pack_symbols,
    _unpack_ints,
    _unpack_symbols,
    deserialize_index,
    parse_label,
    parse_pattern,
    read_blocks_file,
    read_graph_file,
    section_bits,
    serialize_index,
    tunneled_graph_from_meta,
    tunneled_graph_meta,
    write_graph_file,
)
from twgi.text_index import TextIndex, build_index
from twgi.tunnel import TraversalPos, TunneledGraph, tunnel_graph
from twgi.wheeler import WheelerGraph, encode, unary

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import layout  # noqa: E402


def landing_table(tg):
    """Where each edge lands: each edge rank's L position and the step table."""
    return tg._pos, tg._step_to, tg._step_land, tg._step_byte


def roundtrip_graph(el, sigma=None, meta=None):
    buf = io.StringIO()
    write_graph_file(buf, el, sigma=sigma, meta=meta)
    buf.seek(0)
    return read_graph_file(buf)


class TestGraphFile:
    def test_roundtrip(self):
        el = fig1_edge_list()
        back, sigma, meta = roundtrip_graph(el)
        assert back.n == el.n
        assert sorted(back.edges) == sorted(el.edges)
        assert sigma == 3 and meta is None

    def test_escapes(self):
        from twgi.wheeler import EdgeList
        el = EdgeList(3, [(1, 2, 0x00), (2, 3, ord("#"))])
        back, _, _ = roundtrip_graph(el)
        assert sorted(back.edges) == sorted(el.edges)
        assert parse_label("\\x41") == 65
        assert parse_label("a") == 97
        with pytest.raises(ValidationError):
            parse_label("ab")

    def test_header_mismatch(self):
        with pytest.raises(ValidationError):
            read_graph_file(io.StringIO("WG 3 2 1\n1 2 a\n"))

    def test_tunnel_meta_roundtrip(self):
        g = encode(fig1_edge_list())
        tg = tunnel_graph(g, [fig1_block()])
        meta = tunneled_graph_meta(tg)
        el2 = tg.g.to_edge_list()
        back, _, meta2 = roundtrip_graph(el2, sigma=tg.g.sigma, meta=meta)
        tg2 = tunneled_graph_from_meta(encode(back), meta2)
        for pat in (b"ab", b"ba", b"cc", b"bca", b"abcabc"):
            assert tg2.path_search(pat) == tg.path_search(pat)
        assert tg2.exit_copies == tg.exit_copies
        assert landing_table(tg2) == landing_table(tg)

    def test_random_meta_roundtrip(self):
        for _, _, tg in random_tunneled_graphs(89, 60):
            tg2 = meta_roundtrip(tg)
            assert landing_table(tg2) == landing_table(tg)
            assert tg2.exit_copies == tg.exit_copies

    def test_incomplete_exit_copies_rejected(self):
        # without a copy for each exit edge, a search would have to guess
        # which copy the edge leaves
        rng = random.Random(97)
        dropped = 0
        for _, _, tg in random_tunneled_graphs(89, 60):  # fig1 first
            copies = [*tg.exit_copies]
            for drop in ([copies, [rng.choice(copies)]] if copies else []):
                meta = tunneled_graph_meta(tg)
                for j in drop:
                    del meta["exit_copies"][j]
                with pytest.raises(ValidationError, match="no recorded copy"):
                    meta_roundtrip(tg, meta)
                dropped += 1
        assert dropped > 20

    def test_bad_exit_copies_rejected(self):
        # a copy out of range, a copy for an edge that is no exit, or copies
        # that fall inside one (source, label) range would answer searches
        # wrong
        bad = 0
        for _, _, tg in random_tunneled_graphs(89, 60):
            if not tg.exit_copies:
                continue
            src, _, lab = tg.g.edge_arrays()
            exits = sorted(tg.exit_copies)
            j, w = exits[0], max(t.width for t in tg.tunnels)
            edits = [({j: 0}, "must lie in"), ({j: w + 1}, "must lie in"),
                     ({tg.g.m + 1: 1}, "does not leave")]
            edits += [({a: tg.exit_copies[b], b: tg.exit_copies[a]}, "must not fall")
                      for a, b in zip(exits, exits[1:])
                      if (src[a - 1], lab[a - 1]) == (src[b - 1], lab[b - 1])
                      and tg.exit_copies[a] != tg.exit_copies[b]]
            for edit, match in edits:
                meta = tunneled_graph_meta(tg)
                meta["exit_copies"].update(edit)
                with pytest.raises(ValidationError, match=match):
                    meta_roundtrip(tg, meta)
                bad += 1
        assert bad > 100

    @pytest.mark.parametrize("line,match", [
        ("#! exitcopy 4:1 5:2 5:1", "twice"),
        ("#! iprime 1x1z1", "one token of 0s and 1s"),
        ("#! oprime 11111 0", "one token of 0s and 1s"),
    ])
    def test_bad_meta_line_rejected(self, line, match):
        with pytest.raises(ValidationError, match=match):
            read_graph_file(io.StringIO(f"WG 2 1 1\n{line}\n1 2 a\n"))

    @pytest.mark.parametrize("inner", [[0], [29], [3, 3]])
    def test_bad_inner_marks_rejected(self, inner):
        tg = tunnel_graph(encode(fig1_edge_list()), [fig1_block()])
        meta = tunneled_graph_meta(tg)
        meta["inner"] = meta["inner"] + inner
        with pytest.raises(ValidationError, match="inner marks must be distinct"):
            meta_roundtrip(tg, meta)

    def test_more_entry_groups_than_copies_rejected(self):
        # copy width - (I' ones after the edge) of an entrance with more
        # in-edges than copies would fall below 1 if I' marked every one
        wide = 0
        for _, _, tg in random_tunneled_graphs(89, 60):
            if all(tg.g.indeg(t.entrance) <= t.width for t in tg.tunnels):
                continue
            meta = tunneled_graph_meta(tg)
            meta["iprime"] = "1" * tg.g.m
            with pytest.raises(ValidationError, match="than it has copies"):
                meta_roundtrip(tg, meta)
            wide += 1
        assert wide > 5

    @pytest.mark.parametrize("line,want", [("#! orig-n 35\n", 35), ("", None),
                                           ("#! orig-n 999\n", None), ("#! orig-n 28\n", None)])
    def test_orig_n_is_the_records(self, line, want):
        # the records imply the original node count, and only the line ties
        # their widths to the graph: a file without it, or one that
        # disagrees, is rejected
        tg = tunnel_graph(encode(fig1_edge_list()), [fig1_block()])
        assert (tg.orig_n, tg.g.n) == (35, 28)
        buf = io.StringIO()
        write_graph_file(buf, tg.g.to_edge_list(), sigma=tg.g.sigma, meta=tunneled_graph_meta(tg))
        assert "#! orig-n 35\n" in buf.getvalue()
        el, _, meta = read_graph_file(io.StringIO(buf.getvalue().replace("#! orig-n 35\n", line)))
        if want is None:
            with pytest.raises(ValidationError, match="orig-n .* is not the records' 35"):
                tunneled_graph_from_meta(encode(el), meta)
        else:
            assert tunneled_graph_from_meta(encode(el), meta).orig_n == want

    @pytest.mark.parametrize("entrance", [[], [5], [7, 7], [7, 8], [0, 7], [29]])
    def test_entrance_marks_match_records(self, entrance):
        tg = tunnel_graph(encode(fig1_edge_list()), [fig1_block()])
        meta = tunneled_graph_meta(tg)
        assert meta["entrance"] == [7] and tg.g.n == 28
        meta["entrance"] = entrance
        with pytest.raises(ValidationError, match="entrance marks"):
            meta_roundtrip(tg, meta)
        if entrance == [29]:  # a record past n_t, however marked
            meta["tunnels"] = [(29, 5, 2, 7)]
            with pytest.raises(ValidationError, match=r"entrance and an exit in \[1\.\.28\]"):
                meta_roundtrip(tg, meta)

    @pytest.mark.parametrize("name", ["fig1", "fib"])
    def test_inner_marked_entrance_rejected(self, name, small_index):
        # land() and the step table would disagree on which mark wins, as
        # an index file may not hold such a mark either
        tg = (small_index(name).tg if name == "fib"
              else tunnel_graph(encode(fig1_edge_list()), [fig1_block()]))
        meta = tunneled_graph_meta(tg)
        assert meta_roundtrip(tg, meta).inner_marks == tg.inner_marks
        meta["inner"] = sorted(meta["inner"] + meta["entrance"][-1:])
        with pytest.raises(ValidationError, match=f"entrance {meta['entrance'][-1]} "
                                                  f"must not be inner-marked"):
            meta_roundtrip(tg, meta)

    @pytest.mark.parametrize("key", ["iprime", "oprime"])
    def test_prime_lengths_match_edges(self, key):
        tg = tunnel_graph(encode(fig1_edge_list()), [fig1_block()])
        meta = tunneled_graph_meta(tg)
        assert len(meta[key]) == tg.g.m
        for bits in (meta[key][:5], meta[key] + "1", ""):
            with pytest.raises(ValidationError, match=f"{key} holds {len(bits)} bits"):
                meta_roundtrip(tg, {**meta, key: bits})


def meta_roundtrip(tg, meta=None):
    """tg written to a graph file with its (or the given) meta and read back."""
    back, _, meta2 = roundtrip_graph(tg.g.to_edge_list(), sigma=tg.g.sigma,
                                     meta=meta or tunneled_graph_meta(tg))
    return tunneled_graph_from_meta(encode(back), meta2)


class TestBlocksFile:
    def test_roundtrip(self):
        blocks = [fig1_block()]
        buf = io.StringIO()
        write_blocks_file(buf, blocks)
        buf.seek(0)
        back = read_blocks_file(buf)
        assert len(back) == 1
        assert back[0].width == 2 and back[0].size == 7
        assert back[0].columns == fig1_block().columns

    def test_bad_column_width(self):
        with pytest.raises(ValidationError):
            read_blocks_file(io.StringIO("BLOCK 2 1\n1 2 3\n"))

    def test_size_mismatch(self):
        with pytest.raises(ValidationError):
            read_blocks_file(io.StringIO("BLOCK 2 2\n1 2\n"))


class TestPattern:
    def test_parse_pattern(self):
        assert parse_pattern("abc") == b"abc"
        assert parse_pattern("\\x00a\\xff") == b"\x00a\xff"

    @pytest.mark.parametrize("pat", ["\\xzz", "\\x-1", "\\x+f", "\\x f", "a\\x4", "\\x"])
    def test_escape_takes_two_hex_digits(self, pat):
        with pytest.raises(ValidationError, match="two hex digits"):
            parse_pattern(pat)
        if len(pat) == 4 and pat.startswith("\\x"):  # the shape of a label token
            with pytest.raises(ValidationError, match="two hex digits"):
                parse_label(pat)


def _set_item(seq, key, value):
    seq[key] = value


def _move_loc(loc, frm, to):
    loc[to] = loc.pop(frm)


def _widest(ix):
    """The largest value a field of the index file holds: 2**w - 1."""
    return (1 << ix.n.bit_length()) - 1


def _set_tunnel(ix, k, **fields):
    ix.tg.tunnels[k] = dataclasses.replace(ix.tg.tunnels[k], **fields)


# each breaks one rule on tunnel records that deserialize_index checks
TUNNEL_FAULTS = {
    "entrance 0": lambda ix: _set_tunnel(ix, 0, entrance=0),
    "entrance past nt": lambda ix: _set_tunnel(ix, 0, entrance=ix.tg.g.n + 1),
    "exit 0": lambda ix: _set_tunnel(ix, 0, exit=0),
    "exit 2**w - 1": lambda ix: _set_tunnel(ix, 0, exit=_widest(ix)),
    "width 1": lambda ix: _set_tunnel(ix, 0, width=1),
    "length 0": lambda ix: _set_tunnel(ix, 0, length=0),
    "shared entrance": lambda ix: _set_tunnel(ix, 1, entrance=ix.tg.tunnels[0].entrance),
}


def _plain(ix):
    marks = entrance_marks(ix.tg).bits() | ix.tg.inner_marks.bits()
    return int(np.flatnonzero(marks == 0)[0]) + 1


@dataclasses.dataclass
class Samples:
    """What ``TextIndex`` and the loader check, in the form both producers
    take it: the graph and tunnel records, the rates and loc, and what the
    file's skip and cnt sections hold, nothing in format version 4."""
    g: WheelerGraph
    tunnels: list
    rate_n: int
    rate_t: int
    loc: dict
    skip: list = dataclasses.field(default_factory=list)
    cnt: list = dataclasses.field(default_factory=list)


def _samples(ix) -> Samples:
    return Samples(ix.tg.g, list(ix.tg.tunnels), ix.sample_rate_n, ix.sample_rate_t, dict(ix.loc))


def _v3_cnt(ix) -> list[int]:
    """The cumulative widths at the ranks k rate_t, which format version 3
    stored as cnt with tunnels: ``TextIndex`` reads each off its walk."""
    return [ix._cum(r) for r in range(0, ix.tg.g.n + 1, ix.sample_rate_t)]


def _v3(ix, s: Samples) -> Samples:
    """s with the skip pointer nodes in version 3 file order and
    ``_v3_cnt``."""
    s.skip, s.cnt = list(ix.skip), _v3_cnt(ix)
    return s


def _construct(ix, s: Samples) -> TextIndex:
    tg = TunneledGraph(s.g, ix.tg.iprime, ix.tg.oprime, ix.tg.inner_marks, s.tunnels, None)
    return TextIndex(tg, ix.n, s.rate_n, s.rate_t, s.loc)


def _file(ix, s: Samples) -> bytes:
    """The index file of ix with the samples written over its sections,
    under a recomputed CRC.  A loc node outside [1..n_t] has no mark, so its
    position is one too many for the marks."""
    data, width, nt = serialize_index(ix), ix.n.bit_length(), ix.tg.g.n
    header = list(struct.unpack("<QQQIIII", data[12:52]))
    header[4:6] = s.rate_n, s.rate_t
    nodes = sorted(s.loc)
    sections = {
        0: struct.pack("<QQQIIII", *header), 4: s.g.I.to_packed(), 5: s.g.O.to_packed(),
        10: _pack_ints([f for t in s.tunnels for f in dataclasses.astuple(t)], width),
        11: _pack_ints(s.skip, width),
        13: _pack_ints(np.isin(np.arange(1, nt + 1), nodes), 1)
        + _pack_ints([s.loc[v] for v in nodes], width),
        14: _pack_ints(s.cnt, width)}
    for sec, payload in sections.items():
        data = _with_section(data, sec, payload)
    return data


def _swap_exits(ix, s: Samples):
    """Swaps the exits of two records of one length and different widths:
    the skip pointers keep their exits and distances."""
    a, b = next((a, b) for a, b in itertools.combinations(s.tunnels, 2)
                if a.length == b.length and a.width != b.width)
    s.tunnels[s.tunnels.index(a)] = dataclasses.replace(a, exit=b.exit)
    s.tunnels[s.tunnels.index(b)] = dataclasses.replace(b, exit=a.exit)


def _move_in_edge(ix, s: Samples):
    """Moves the last in-edge of an entrance to the plain node after it.
    ``TunneledGraph`` bounds an entrance's in-edges only by its copies."""
    g = s.g
    e = next(t.entrance for t in s.tunnels
             if t.entrance < g.n and not is_tunnel_node(ix.tg, t.entrance + 1))
    deg = [g.indeg(v) for v in range(1, g.n + 1)]
    deg[e - 1] -= 1
    deg[e] += 1
    s.g = WheelerGraph(g.n, g.m, g.sigma, g.L, g.C, unary(deg), g.O, g.alphabet)


def _sink_sample(ix) -> int:
    """The node of the sample at text position n, the last."""
    return next(v for v, pos in ix.loc.items() if pos == ix.n)


def _loc_moves(ix) -> list[tuple[int, int]]:
    """(v, u) for each loc sample v whose next tunnel node above, u, comes
    before the next sample: a mark moved from v to u keeps the positions in
    rank order."""
    nodes = sorted(ix.loc)
    moves = []
    for v, nxt in zip(nodes, nodes[1:] + [ix.tg.g.n + 1]):
        u = next((u for u in range(v + 1, nxt) if is_tunnel_node(ix.tg, u)), None)
        if u is not None:
            moves.append((v, u))
    return moves


# each breaks one rule of TextIndex on the samples and the string tunnels,
# or of the loader, and the part of its error that names the rule.  Walks
# trust these rules: without them locate and extract answer wrong or fail at
# query time.  The skip and cnt faults are the faulty pointer nodes and cnt
# samples that format version 3 refused: a version 4 file that stores any
# skip or cnt section is refused before its content is read
_EMPTY = "the skip, back and cnt sections must be empty"
SAMPLE_FAULTS = {
    "rate_n zero": (lambda ix, s: setattr(s, "rate_n", 0), "sample rates"),
    "rate_t zero": (lambda ix, s: setattr(s, "rate_t", 0), "sample rates"),
    "exit out-degree": (_swap_exits, "exit must have out-degree equal to its width"),
    "entrance in-degree": (_move_in_edge, "its entrance in-degree"),
    "node 0": (lambda ix, s: _set_item(_v3(ix, s).skip, 0, 0), _EMPTY),
    "node past nt": (lambda ix, s: _set_item(_v3(ix, s).skip, 0, ix.tg.g.n + 1), _EMPTY),
    "pointer dropped": (lambda ix, s: _v3(ix, s).skip.pop(), _EMPTY),
    "pointer on a plain node": (lambda ix, s: _set_item(_v3(ix, s).skip, 0, _plain(ix)), _EMPTY),
    "two pointers on one node": (lambda ix, s: _set_item(_v3(ix, s).skip, 1, s.skip[0]),
                                 _EMPTY),
    "loc node 0": (lambda ix, s: _move_loc(s.loc, min(s.loc), 0), "loc must map"),
    "loc node past nt": (lambda ix, s: _move_loc(s.loc, max(s.loc), ix.tg.g.n + 1),
                         "loc must map"),
    "loc on a tunnel node": (lambda ix, s: _move_loc(s.loc, *_loc_moves(ix)[0]), "loc must map"),
    "loc position 0": (lambda ix, s: _set_item(s.loc, min(s.loc), 0), "loc must map"),
    "loc position past n": (lambda ix, s: _set_item(s.loc, min(s.loc), _widest(ix)),
                            "loc must map"),
    "loc shared position": (lambda ix, s: _set_item(s.loc, max(s.loc), s.loc[min(s.loc)]),
                            "loc must map"),
    "loc without position n": (lambda ix, s: s.loc.pop(_sink_sample(ix)), "loc must map"),
    "cnt 3 short": (lambda ix, s: _v3(ix, s).cnt.__delitem__(slice(-3, None)), _EMPTY),
    "cnt 1 long": (lambda ix, s: _v3(ix, s).cnt.append(s.cnt[-1]), _EMPTY),
    "cnt start": (lambda ix, s: _set_item(_v3(ix, s).cnt, 0, 1), _EMPTY),
    "cnt falls": (lambda ix, s: _set_item(_v3(ix, s).cnt, 2, s.cnt[1] - 1), _EMPTY),
    "cnt past n": (lambda ix, s: _set_item(_v3(ix, s).cnt, -1, ix.n + 1), _EMPTY),
    "cnt not k rate_t without tunnels": (lambda ix, s: _set_item(_v3(ix, s).cnt, 1, s.cnt[1] + 1),
                                         _EMPTY),
}
SKIP_FAULTS = {"node 0", "node past nt", "pointer dropped", "pointer on a plain node",
               "two pointers on one node"}
# the faults that only an index file can hold
FILE_FAULTS = SKIP_FAULTS | {fault for fault in SAMPLE_FAULTS if fault.startswith("cnt")}
PLAIN_FAULTS = {"cnt not k rate_t without tunnels"}  # made on the fib index without tunnels


def _assert_rejected(fault, small_index):
    """TextIndex(...) rejects the fault, unless only a file can hold it, and
    deserialize_index the file of it; both accept the good samples, which
    the file writes as they were."""
    ix = small_index("fib", fault not in PLAIN_FAULTS)
    good = _samples(ix)
    assert _file(ix, good) == serialize_index(ix)
    assert _construct(ix, good).skip == ix.skip
    breaks, match = SAMPLE_FAULTS[fault]
    bad = _samples(ix)
    breaks(ix, bad)
    if fault in FILE_FAULTS:
        with pytest.raises(FormatError, match=match):
            deserialize_index(_file(ix, bad))
        return
    with pytest.raises(ValidationError, match=match):
        _construct(ix, bad)
    with pytest.raises(FormatError):
        deserialize_index(_file(ix, bad))


def _swap_pointers(ix, s: Samples):
    """Swaps the version 3 file's first two pointer nodes of one exit."""
    _v3(ix, s)
    k = next(k for k, (u, v) in enumerate(zip(s.skip, s.skip[1:]))
             if ix.skip[u][0] == ix.skip[v][0])
    s.skip[k:k + 2] = s.skip[k + 1], s.skip[k]


def _swap_exits_of_one_width(ix, s: Samples):
    """Swaps the exits of two records of one width: the degrees, the marks
    and the pointers' exits and distances all still agree."""
    a, b = next((a, b) for a, b in itertools.combinations(s.tunnels, 2) if a.width == b.width)
    s.tunnels[s.tunnels.index(a)] = dataclasses.replace(a, exit=b.exit)
    s.tunnels[s.tunnels.index(b)] = dataclasses.replace(b, exit=a.exit)


# each loaded before TextIndex walked every tunnel, and answered wrong: on
# the 2 KB cpm4 index the swapped pointers 91 of 300 locates and 14 of 290
# extracts, the swapped exits 126 locates, 13 counts and 89 extracts (46
# more raised), and the changed cnt 5 of 300 counts.  Format version 4
# stores no pointers or cnt, so those two faults can come only in a stored
# section, which the load refuses
WALK_FAULTS = {
    "pointers of one exit swapped": (_swap_pointers, _EMPTY),
    "exits swapped at one width": (_swap_exits_of_one_width, "must reach its record's exit"),
    "cnt changed but monotone": (lambda ix, s: _set_item(_v3(ix, s).cnt, 2, s.cnt[2] - 1),
                                 _EMPTY),
}


@pytest.mark.parametrize("fault", sorted(WALK_FAULTS))
def test_walk_faults_rejected_at_load(fault, small_index):
    ix = small_index("cpm4")
    bad = _samples(ix)
    breaks, match = WALK_FAULTS[fault]
    breaks(ix, bad)
    assert bad != _samples(ix)
    with pytest.raises(FormatError, match=match):
        deserialize_index(_file(ix, bad))


def _inner_not_exit(ix):
    inner = np.flatnonzero(ix.tg.inner_marks.bits()) + 1
    return int(min(set(inner.tolist()) - {t.exit for t in ix.tg.tunnels}))


def _add_inner_mark(ix):
    """Inner-marks a plain node halfway up the ranks, which walks pass through."""
    plain = np.flatnonzero((entrance_marks(ix.tg).bits() | ix.tg.inner_marks.bits()) == 0)
    bits = ix.tg.inner_marks.bits().copy()
    bits[plain[len(plain) // 2]] = 1
    ix.tg.inner_marks = BitVec(bits)


def _inner_mark_to_entrance(ix):
    """Moves the inner mark of a non-exit inner node onto the first
    record's entrance, which keeps the number of inner marks."""
    bits = ix.tg.inner_marks.bits().copy()
    bits[_inner_not_exit(ix) - 1] = 0
    bits[ix.tg.tunnels[0].entrance - 1] = 1
    ix.tg.inner_marks = BitVec(bits)


def _trade_lengths(ix):
    first, second = ix.tg.tunnels[:2]
    assert first.width != second.width and second.length > 1
    _set_tunnel(ix, 0, length=first.length + 1)
    _set_tunnel(ix, 1, length=second.length - 1)


def _move_exit(ix, length_one: bool):
    """Gives a record of length 1 (with ``length_one``, else a longer one)
    the exit of another, longer record of the same width."""
    for k, t in enumerate(ix.tg.tunnels):
        other = [u.exit for u in ix.tg.tunnels
                 if u.width == t.width and u.length > 1 and u is not t]
        if (t.length == 1) == length_one and other:
            _set_tunnel(ix, k, exit=other[0])
            return
    raise AssertionError("no tunnel shares its width with another, longer one")


# each breaks one agreement between the tunnel records, the marks and the
# degrees.  Queries cross a tunnel by its record, so each such file answers
# wrong or fails at query time unless deserialize_index rejects it
RECORD_FAULTS = {
    "length +1": lambda ix: _set_tunnel(ix, 0, length=ix.tg.tunnels[0].length + 1),
    "length -1": lambda ix: _set_tunnel(ix, 0, length=ix.tg.tunnels[0].length - 1),
    "lengths traded between widths": _trade_lengths,
    "exit on a plain node": lambda ix: _set_tunnel(ix, 0, exit=_plain(ix)),
    "exit on another inner node": lambda ix: _set_tunnel(ix, 0, exit=_inner_not_exit(ix)),
    "length-1 exit on another exit": lambda ix: _move_exit(ix, True),
    "shared exit": lambda ix: _move_exit(ix, False),
    "entrance on a plain node": lambda ix: _set_tunnel(ix, 0, entrance=_plain(ix)),
    "entrance on an inner node": lambda ix: _set_tunnel(ix, 0, entrance=_inner_not_exit(ix)),
    "inner mark without a record": _add_inner_mark,
    "inner mark on an entrance": _inner_mark_to_entrance,
}


def _move_inner_mark(ix, frm: int, to: int):
    bits = ix.tg.inner_marks.bits().copy()
    bits[frm - 1], bits[to - 1] = 0, 1
    ix.tg.inner_marks = BitVec(bits)


# each breaks one rule of TunneledGraph on the tunnel records or the marks,
# and the part of the error that names the rule
TUNNEL_RULE_FAULTS = {
    "length 0": (lambda ix: _set_tunnel(ix, 0, length=0), "length >= 1"),
    "exit past n_t": (lambda ix: _set_tunnel(ix, 0, exit=ix.tg.g.n + 1), r"exit in \[1\.\."),
    "shared exit": (lambda ix: _set_tunnel(ix, 1, exit=ix.tg.tunnels[0].exit),
                    "share an entrance or an exit"),
    "one inner mark too many": (_add_inner_mark, "account for every inner mark"),
    "exit not inner-marked": (lambda ix: _move_inner_mark(
        ix, next(t.exit for t in ix.tg.tunnels if t.length > 1), _plain(ix)),
        "exit must be inner-marked"),
    "inner-marked entrance": (_inner_mark_to_entrance, "must not be inner-marked"),
}
# every way to make a tunneled graph, from the (faulty) graph of an index
TUNNEL_PRODUCERS = {
    "TunneledGraph": (ValidationError, lambda ix: TunneledGraph(
        ix.tg.g, ix.tg.iprime, ix.tg.oprime, ix.tg.inner_marks, ix.tg.tunnels,
        ix.tg.exit_copies)),
    "graph file meta": (ValidationError,
                        lambda ix: tunneled_graph_from_meta(ix.tg.g, tunneled_graph_meta(ix.tg))),
    "index file": (FormatError, lambda ix: deserialize_index(serialize_index(ix))),
}


@pytest.mark.parametrize("producer", sorted(TUNNEL_PRODUCERS))
@pytest.mark.parametrize("fault", sorted(TUNNEL_RULE_FAULTS))
def test_tunnel_rules_hold_for_every_producer(fault, producer):
    ix = oracle_index(SMALL_TEXTS["cpm96"], min_length=1)
    assert any(t.length > 1 for t in ix.tg.tunnels)
    error, make = TUNNEL_PRODUCERS[producer]
    make(ix)  # the good graph is accepted
    breaks, match = TUNNEL_RULE_FAULTS[fault]
    breaks(ix)
    with pytest.raises(error, match=match):
        make(ix)


@pytest.mark.parametrize("name", list(SMALL_TEXTS))
def test_plain_load_builds_no_exit_table(name, small_index):
    # a search reads the exit-copy table only at a tunnel node
    ix = deserialize_index(serialize_index(small_index(name, tunneling=False)))
    assert len(ix.tg._exit_copy) == 0 and ix.tg.exit_copies == {}


@pytest.mark.parametrize("name", ["fib", "cpm4"])
@pytest.mark.parametrize("onto", ["plain node", "exit's successor"])
def test_inner_mark_moved_off_its_tunnel(name, onto, small_index):
    # a tunnel node other than an exit loses its inner mark to a plain node
    # of out-degree 1, or to a plain node that an exit enters: the records
    # and the mark count still agree, but the tunnel's walk no longer
    # reaches its exit
    ix = small_index(name)
    tg, data = ix.tg, serialize_index(ix)
    exits = {t.exit for t in tg.tunnels}
    inner = [v for v in np.flatnonzero(tg.inner_marks.bits()) + 1 if v not in exits]
    if onto == "plain node":
        to = [v for v in range(1, tg.g.n + 1)
              if not is_tunnel_node(tg, v) and tg.g.outdeg(v) == 1]
    else:
        lstart = tg.g._lstart
        to = sorted({tg._step_to[p] for e in exits for p in range(lstart[e] + 1, lstart[e + 1] + 1)
                     if not is_tunnel_node(tg, tg._step_to[p])
                     and tg.g.indeg(tg._step_to[p]) == 1})
    assert len(inner) > 10 and len(to) > 4
    for frm, dst in zip(inner[::len(inner) // 4], to[::len(to) // 4]):
        bits = tg.inner_marks.bits().copy()
        bits[frm - 1], bits[dst - 1] = 0, 1
        with pytest.raises(FormatError, match="tunnel"):
            deserialize_index(_with_section(data, 9, BitVec(bits).to_packed()))


@pytest.mark.parametrize("name,moves", [("fib", 32), ("cpm4", 56), ("cpm96", 17)])
def test_loc_moved_onto_a_tunnel_node(name, moves, small_index):
    # every loc mark that can move onto the next tunnel node above it, past
    # no other sample, under a recomputed CRC: the positions keep their rank
    # order, and a walk that starts inside the tunnel would take the sample
    # for the node's, so extract and locate would answer wrong
    ix = small_index(name)
    assert len(_loc_moves(ix)) == moves
    for frm, to in _loc_moves(ix):
        bad = _samples(ix)
        _move_loc(bad.loc, frm, to)
        with pytest.raises(ValidationError, match="loc must map plain nodes"):
            _construct(ix, bad)
        with pytest.raises(FormatError, match="loc must map plain nodes"):
            deserialize_index(_file(ix, bad))


def test_loc_without_the_last_position(small_index):
    # before the rule that loc holds position n, this file loaded, and 28 of
    # the 292 locates of the 8-grams at stride 7 walked past the sink
    ix = small_index("cpm4")
    bad = _samples(ix)
    del bad.loc[_sink_sample(ix)]
    with pytest.raises(FormatError, match=f"loc must map .* {ix.n} among them"):
        deserialize_index(_file(ix, bad))


@pytest.mark.parametrize("tunneling", [True, False])
@pytest.mark.parametrize("name", ["fib", "cpm4"])
def test_sink_without_its_sample(name, tunneling, small_index):
    # the sample at position n moves from the sink onto the first unsampled
    # plain node: loc still holds position n, and before the rule that every
    # node of out-degree 0 holds a sample this file loaded, and locates of
    # 3-byte patterns walked past the sink
    ix = small_index(name, tunneling)
    tg = ix.tg
    (sink,) = [v for v in range(1, tg.g.n + 1) if tg.g.outdeg(v) == 0]
    assert sink == _sink_sample(ix)
    to = next(v for v in range(1, tg.g.n + 1) if v not in ix.loc and not tg._kind[v])
    bad = _samples(ix)
    _move_loc(bad.loc, sink, to)
    with pytest.raises(ValidationError, match="every node of out-degree 0 must hold a sample"):
        _construct(ix, bad)
    with pytest.raises(FormatError, match="every node of out-degree 0 must hold a sample"):
        deserialize_index(_file(ix, bad))


@pytest.mark.parametrize("name", ["fib", "cpm96"])
def test_in_edge_moved_onto_an_inner_node(name, small_index):
    # one in-edge of a neighbour moves onto an inner node through the I
    # section, for every inner node and both neighbours, under a recomputed
    # CRC: the inner node has two in-edges, and a walk that took the moved
    # edge would land inside a tunnel with a copy that no entrance gave it
    ix = small_index(name)
    g, data = ix.tg.g, serialize_index(ix)
    deg = np.diff(np.frombuffer(g._istart, np.int64))[1:]
    files = 0
    for x in (np.flatnonzero(ix.tg.inner_marks.bits()) + 1).tolist():
        for y in (x - 1, x + 1):
            if 1 <= y <= g.n and deg[y - 1]:
                moved = deg.copy()
                moved[y - 1] -= 1
                moved[x - 1] += 1
                with pytest.raises(FormatError, match="inner tunnel node must have one in-edge"):
                    deserialize_index(_with_section(data, 4, unary(moved).to_packed()))
                files += 1
    assert files > 2 * len(ix.tg.tunnels)


@pytest.mark.parametrize("tunneling", [True, False])
@pytest.mark.parametrize("name", ["fib", "cpm4"])
def test_swapped_samples_extract_past_the_sink(name, tunneling, small_index):
    # two samples trade positions: the file loads, as no check of O(n_t)
    # sees it, and its hop walks still stop at samples, but extract seeks
    # from the wrong node.  When the samples at position 1 and at the last
    # position before n trade, extract from position 1 reaches the sink;
    # when the sink's sample trades with that last one, extract from its
    # position starts at the sink.  Either way it must refuse to step
    ix = small_index(name, tunneling)
    assert ix.ext_pos[0] == 1 and ix.ext_pos[-1] == ix.n
    for u, v, start, ln in ((ix.ext_node[0], ix.ext_node[-2], 1, ix.n - 1),
                            (ix.ext_node[-1], ix.ext_node[-2], ix.ext_pos[-2], 1)):
        bad = _samples(ix)
        bad.loc[u], bad.loc[v] = bad.loc[v], bad.loc[u]
        got = deserialize_index(_file(ix, bad))
        assert fstep_hop_table(got) == tuple(a.tolist() for a in got._hop_table())
        with pytest.raises(BoundsError, match="walked past the sink"):
            got.extract(start, ln)


class TestIndexFile:
    def test_byte_stable_roundtrip(self):
        ix = build_index(b"abcabc")
        data = serialize_index(ix)
        again = serialize_index(deserialize_index(data))
        assert data == again

    def test_query_equivalent(self):
        rng = random.Random(3)
        for text in (b"abcabc", b"ab" * 40,
                     bytes(rng.randrange(256) for _ in range(300))):
            ix = build_index(text)
            ix2 = deserialize_index(serialize_index(ix))
            for pat in make_patterns(rng, text, 20, max_len=10):
                assert ix2.count(pat) == ix.count(pat) == naive_count(text, pat)
                assert ix2.locate(pat) == ix.locate(pat) == naive_locate(text, pat)
            assert ix2.extract(1, len(text)) == text

    def test_truncation_detected(self):
        data = serialize_index(build_index(b"abcabc"))
        for cut in (3, 7, 11, len(data) // 2, len(data) - 1):
            with pytest.raises(FormatError):
                deserialize_index(data[:cut])

    def test_bad_magic(self):
        data = serialize_index(build_index(b"abcabc"))
        with pytest.raises(BadMagicError):
            deserialize_index(b"NOPE" + data[4:])

    def test_version_mismatch(self):
        data = bytearray(serialize_index(build_index(b"abcabc")))
        assert VERSION - 1 == 3  # the format that stored skip pointer nodes and cnt
        for version in (VERSION - 1, VERSION + 1):
            data[4:6] = struct.pack("<H", version)
            data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[:-4])))
            with pytest.raises(VersionError):
                deserialize_index(bytes(data))

    def test_flipped_payload_byte(self):
        data = bytearray(serialize_index(build_index(b"abcabc")))
        pos = len(data) // 2
        data[pos] ^= 0x40
        with pytest.raises(ChecksumError):
            deserialize_index(bytes(data))

    def test_single_byte_flip_fuzz(self):
        data = serialize_index(build_index(b"abcabc"))
        rng = random.Random(7)
        for _ in range(2000):
            pos = rng.randrange(len(data))
            bit = 1 << rng.randrange(8)
            corrupt = bytearray(data)
            corrupt[pos] ^= bit
            with pytest.raises(FormatError):
                deserialize_index(bytes(corrupt))

    def test_empty_text_index(self):
        ix = build_index(b"")
        ix2 = deserialize_index(serialize_index(ix))
        assert ix2.count(b"") == 1
        assert ix2.count(b"a") == 0

    def test_unary_vector_bit_flip(self):
        # a flipped bit of I or O under a recomputed CRC must not reach the
        # node-offset arrays that answer navigation
        ix = build_index(b"abcabc")
        data = serialize_index(ix)
        nbits = ix.tg.g.n + ix.tg.g.m + 1
        sections = _section_offsets(data)
        for sec in (4, 5):  # I, O
            start = sections[sec]
            for bit in range(nbits):
                corrupt = bytearray(data)
                corrupt[start + (bit >> 3)] ^= 1 << (bit & 7)
                corrupt[-4:] = struct.pack("<I", zlib.crc32(bytes(corrupt[:-4])))
                with pytest.raises(FormatError):
                    deserialize_index(bytes(corrupt))

    def test_label_counts_rewritten(self, small_index):
        # one C entry moved by one under a recomputed CRC: C[1] = 0, C
        # non-decreasing, C[sigma+1] = m_t or C[c+1] - C[c] = L.count(c) breaks
        ix = small_index("fib")
        data = serialize_index(ix)
        width = ix.n.bit_length()
        C = ix.tg.g.C[1:ix.tg.g.sigma + 2]
        for k in range(ix.tg.g.sigma + 1):  # C[k+1]
            for delta in (1, -1):
                if C[k] + delta < 0:
                    continue
                moved = [*C[:k], C[k] + delta, *C[k + 1:]]
                corrupt = _with_section(data, 2, _pack_ints(moved, width))
                with pytest.raises(FormatError, match="C must"):
                    deserialize_index(corrupt)

    @pytest.mark.parametrize("sec", [11, 13, 14])  # skip, loc, cnt
    def test_record_section_extra_bytes(self, sec, small_index):
        # 16 bytes past the declared records, under a recomputed CRC: past
        # the loc positions, or in the skip or cnt section, which hold none
        data = serialize_index(small_index("fib"))
        start = _section_offsets(data)[sec]
        (ln,) = struct.unpack_from("<I", data, start - 4)
        assert (ln == 0) == (sec != 13)
        corrupt = bytearray(data[:-4])
        corrupt[start + ln:start + ln] = bytes(16)
        struct.pack_into("<I", corrupt, start - 4, ln + 16)
        corrupt += struct.pack("<I", zlib.crc32(bytes(corrupt)))
        refused = pytest.raises(TruncatedError) if sec == 13 else \
            pytest.raises(FormatError, match=_EMPTY)
        with refused:
            deserialize_index(bytes(corrupt))

    def test_unknown_flag_rejected(self, small_index):
        # flag 2 once announced a trailing node-map section; the format has
        # no such section, so the flag and its section must not load
        ix = small_index("fib")
        data = serialize_index(ix)
        (flags,) = struct.unpack_from("<H", data, 6)
        node_map = struct.pack(f"<{ix.n + 1}Q", *range(ix.n + 1))
        corrupt = (data[:6] + struct.pack("<H", flags | 2) + data[8:-4]
                   + struct.pack("<I", len(node_map)) + node_map)
        corrupt += struct.pack("<I", zlib.crc32(corrupt))
        with pytest.raises(FormatError, match="flag"):
            deserialize_index(corrupt)

    @pytest.mark.parametrize("sec", [3, 4, 5, 9])  # L, I, O, inner
    def test_bit_section_exact_length(self, sec, small_index):
        # a bit section cut to nothing, to one byte, or one byte too long,
        # under a recomputed CRC; a short one would read as zero bits
        data = serialize_index(small_index("fib"))
        start = _section_offsets(data)[sec]
        (ln,) = struct.unpack_from("<I", data, start - 4)
        assert ln > 1
        for payload in (b"", data[start:start + 1], data[start:start + ln] + b"\x00"):
            with pytest.raises(TruncatedError):
                deserialize_index(_with_section(data, sec, payload))

    @pytest.mark.parametrize("sec", [9, 14])  # inner, cnt
    def test_plain_index_derives_inner_marks_and_cnt(self, sec, small_index):
        # without tunnels the inner marks are all zero and the cumulative
        # width at rank k rate_t is k rate_t: one zero byte, or what the
        # section would hold, under a recomputed CRC
        ix = small_index("fib", False)
        assert _v3_cnt(ix) == list(range(0, ix.tg.g.n + 1, ix.sample_rate_t))
        stored = {9: ix.tg.inner_marks.to_packed(), 14: _pack_ints(_v3_cnt(ix), ix.n.bit_length())}
        data = serialize_index(ix)
        assert struct.unpack_from("<I", data, _section_offsets(data)[sec] - 4) == (0,)
        for payload in (bytes(1), stored[sec]):
            with pytest.raises(FormatError, match="must be empty"):
                deserialize_index(_with_section(data, sec, payload))
        # and no index whose inner marks would not be empty can be made
        if sec == 9:
            marks = np.zeros(ix.tg.g.n, np.uint8)
            marks[5] = 1
            with pytest.raises(ValidationError, match="account for every inner mark"):
                TunneledGraph(ix.tg.g, ix.tg.iprime, ix.tg.oprime, BitVec(marks), [], None)

    @pytest.mark.parametrize("sec", [6, 7, 8, 12])  # I', O', entrance, back
    def test_derived_section_must_be_empty(self, sec, small_index):
        # one zero byte, or what format version 1 stored there, under a
        # recomputed CRC: loading derives these facts and reads no copy
        ix = small_index("fib")
        stored = {6: ix.tg.iprime.to_packed(), 7: ix.tg.oprime.to_packed(),
                  8: entrance_marks(ix.tg).to_packed(),
                  12: struct.pack("<I", len(ix.skip)) + b"".join(
                      struct.pack("<QQQ", e, d, node) for node, (e, d) in ix.skip.items())}
        data = serialize_index(ix)
        assert struct.unpack_from("<I", data, _section_offsets(data)[sec] - 4) == (0,)
        for payload in (bytes(1), stored[sec]):
            with pytest.raises(FormatError, match="must be empty"):
                deserialize_index(_with_section(data, sec, payload))

    @pytest.mark.parametrize("sec", [11, 12, 14])  # skip, back, cnt
    @pytest.mark.parametrize("tunneling", [True, False])
    @pytest.mark.parametrize("name", ["fib", "cpm4"])
    def test_skip_back_and_cnt_hold_nothing(self, name, tunneling, sec, small_index):
        # one byte, or the skip pointer nodes or cnt that format version 3
        # stored, under a recomputed CRC: loading reads both off the tunnel
        # walk, and no reader needs back
        ix = small_index(name, tunneling)
        data = serialize_index(ix)
        assert struct.unpack_from("<I", data, _section_offsets(data)[sec] - 4) == (0,)
        v3 = {11: list(ix.skip), 12: [], 14: _v3_cnt(ix) if tunneling else []}[sec]
        assert bool(v3) == (tunneling and sec != 12)
        payloads = [bytes(1), _pack_ints(v3, ix.n.bit_length())] if v3 else [bytes(1)]
        for payload in payloads:
            with pytest.raises(FormatError, match=_EMPTY):
                deserialize_index(_with_section(data, sec, payload))

    def test_alphabet_out_of_order(self, small_index):
        # two bytes swapped, under a recomputed CRC; only a repeated byte
        # would let the alphabet list more than the 256 symbols L holds
        data = serialize_index(small_index("rand96"))
        start = _section_offsets(data)[1]
        swapped = data[start + 1:start - 1:-1] + data[start + 2:start + 96]
        with pytest.raises(FormatError, match="increasing order"):
            deserialize_index(_with_section(data, 1, swapped))

    def test_label_id_past_sigma(self, small_index):
        # sigma 96 labels take 7 bits, so ids up to 128 can be written
        data = serialize_index(small_index("rand96"))
        start = _section_offsets(data)[3]
        corrupt = bytearray(data)
        corrupt[start] |= 0x7F
        corrupt[-4:] = struct.pack("<I", zlib.crc32(bytes(corrupt[:-4])))
        with pytest.raises(FormatError, match="label id 128"):
            deserialize_index(bytes(corrupt))

    @pytest.mark.parametrize("fault", sorted(set(SAMPLE_FAULTS) - SKIP_FAULTS))
    def test_bad_samples_rejected(self, fault, small_index):
        _assert_rejected(fault, small_index)

    def test_zero_rate_t_in_header(self, small_index):
        # the header can hold the rate_t 0 that TextIndex refuses: the skip
        # stride, which no section of the file depends on
        data = serialize_index(small_index("fib"))
        header = list(struct.unpack("<QQQIIII", data[12:52]))
        header[5] = 0
        with pytest.raises(FormatError, match="sample rates"):
            deserialize_index(_with_section(data, 0, struct.pack("<QQQIIII", *header)))

    @pytest.mark.parametrize("fault", sorted(TUNNEL_FAULTS))
    def test_bad_tunnel_records_rejected(self, fault, small_index):
        # the bad record is written over the good file's one
        ix = deserialize_index(serialize_index(small_index("fib")))
        assert len(ix.tg.tunnels) > 1 and ix.skip
        data = serialize_index(ix)
        TUNNEL_FAULTS[fault](ix)
        fields = [f for t in ix.tg.tunnels for f in dataclasses.astuple(t)]
        with pytest.raises(FormatError):
            deserialize_index(_with_section(data, 10, _pack_ints(fields, ix.n.bit_length())))

    @pytest.mark.parametrize("fault", sorted(RECORD_FAULTS))
    def test_records_disagreeing_with_marks_rejected(self, fault):
        # length-1 tunnels beside longer ones of the same width
        ix = oracle_index(SMALL_TEXTS["cpm96"], min_length=1)
        RECORD_FAULTS[fault](ix)
        with pytest.raises(FormatError, match="tunnel"):
            deserialize_index(serialize_index(ix))

    @pytest.mark.parametrize("fault", sorted(SKIP_FAULTS))
    def test_bad_skip_pointers_rejected(self, fault, small_index):
        _assert_rejected(fault, small_index)

    def test_skip_section_nodes(self, small_index):
        # the node lists that format version 3 stored or refused, under a
        # recomputed CRC: the good one, one whose second pointer moves onto
        # the first one's node, and one a pointer short
        ix = small_index("fib")
        data = serialize_index(ix)
        width = ix.n.bit_length()
        nodes = list(ix.skip)
        assert len(nodes) == 11
        shared = [nodes[0], *nodes]
        del shared[2]
        for stored in (nodes, shared, nodes[:-1]):
            with pytest.raises(FormatError, match=_EMPTY):
                deserialize_index(_with_section(data, 11, _pack_ints(stored, width)))

    @pytest.mark.parametrize("name", ["fib", "rand96"])  # sigma 2 and 96
    def test_loaded_index_ranks_on_python_ints(self, name, small_index):
        # a numpy scalar in a rank directory would slow every rank
        ix = deserialize_index(serialize_index(small_index(name)))
        g, tg = ix.tg.g, ix.tg
        L = g.L
        for bv in (g.I, g.O, tg.iprime, tg.oprime, entrance_marks(tg), tg.inner_marks):
            assert type(bv.n) is int and type(bv._ones) is int
            assert all(type(w) is int for w in bv._words)
            for directory in (bv._super, bv._rel):
                assert type(directory) is array
        # the exit-copy table that leaving a tunnel reads, and its dict view
        assert all(type(j) is int and type(o) is int for j, o in tg.exit_copies.items())
        assert tg.exit_copies or not tg.tunnels
        # the step table that every forward step and every landing reads
        assert all(type(a) is array for a in (tg._pos, tg._step_to, tg._step_land, tg._exit_copy))
        assert type(tg._step_byte) is bytes
        assert type(L._occ) is array and type(L._bytes) is bytes
        assert type(L.n) is int and type(L._stride) is int
        assert type(g.I.rank(3)) is int
        for i in (0, 5, L.n):
            assert all(type(L.rank(i, c)) is int for c in range(1, g.sigma + 1))
        assert type(L.partial_rank(L.n)) is int and type(L.access(1)) is int
        # the samples that count, locate and extract read are decoded once,
        # by TextIndex for the loaded index and the built one
        for got in (ix, small_index(name)):
            assert got.loc and all(type(k) is int and type(v) is int for k, v in got.loc.items())
            assert type(got.ext_pos) is array and type(got.ext_node) is array
            assert all(type(v) is int and type(e) is int and type(d) is int
                       for v, (e, d) in got.skip.items())

    def test_skip_pointers_serve_no_walk(self, small_index):
        # two skip pointers of one tunnel pointing at each other at distance
        # 0 stopped every walk that met them.  TextIndex derives the pointers
        # from its walk and the file holds none, so they are set after
        # construction: walks read the walked exits, distances and widths,
        # not the pointers, and every answer stays right
        text = SMALL_TEXTS["fib"]
        bad = deserialize_index(serialize_index(small_index("fib")))
        (a, _), (b, _) = sorted(bad.skip.items(), key=lambda item: item[1])[-2:]
        bad.skip[a], bad.skip[b] = (b, 0), (a, 0)
        assert deserialize_index(serialize_index(bad)).skip == small_index("fib").skip
        pos_a = bad.locate_one(TraversalPos(a, 1))
        assert bad.node_width(a) == small_index("fib").node_width(a)
        # a pattern ending before text position pos_a has node a in its range
        pattern = text[pos_a - 9:pos_a - 1]
        (lo, _), (hi, _) = bad.tg._search_pairs(pattern)
        assert lo <= a <= hi
        assert bad.locate(pattern) == naive_locate(text, pattern)
        assert bad.count(pattern) == naive_count(text, pattern)
        assert bad.extract(pos_a - 9, 20) == text[pos_a - 10:pos_a + 10]


def _with_section(data: bytes, sec: int, payload: bytes) -> bytes:
    """The index file with section ``sec`` replaced and its CRC recomputed."""
    start = _section_offsets(data)[sec]
    (ln,) = struct.unpack_from("<I", data, start - 4)
    out = data[:start - 4] + struct.pack("<I", len(payload)) + payload + data[start + ln:-4]
    return out + struct.pack("<I", zlib.crc32(out))


def _section_offsets(data: bytes) -> list[int]:
    """Payload offset of every length-prefixed section of an index file."""
    offsets = []
    off = 8
    while off < len(data) - 4:
        (ln,) = struct.unpack_from("<I", data, off)
        offsets.append(off + 4)
        off += 4 + ln
    return offsets


# sha256 of serialize_index output on the shared small texts: the file
# format and every build step that decides its bytes are pinned
INDEX_DIGESTS = {
    ("fib", True): "d22f4371e909a73257b467b93ad55054ddcf30f51ca8dccc8d810f33c011d545",
    ("fib", False): "954bea08fa0e314f2785617e87e46973cfedf7d2082fe36669e488d47e61996f",
    ("cpm4", True): "7f62b5af693c48aae2c7a1ca1e12d304428fa5c58bd2ed594c448f87fe0b19f8",
    ("cpm4", False): "309b913cf5531dea5d9af8a1931a9192cac7ecf6137287a8aeccf4243222c5ff",
    ("rand96", True): "4a76cadaa8da37692787941170a07cec0af07372e43c0386208fb663d6d7f96e",
    ("rand96", False): "4a76cadaa8da37692787941170a07cec0af07372e43c0386208fb663d6d7f96e",
    ("cpm96", True): "2ad75f238a85900218820cada6941e929060c002f983dd8dffefc31b5c720aa2",
    ("cpm96", False): "b4c926c66126145f0384735bc5a3546db49321a4a88845bb2b4256564cf7c9ca",
}


@pytest.mark.parametrize("width", [1, 2, 7, 8, 15, 32, 63])
@pytest.mark.parametrize("count", [0, 1, 7, 8, 1000])
def test_int_codec_matches_bit_loop(width, count):
    rng = random.Random(width * 10_000 + count)
    vals = [rng.randrange(1 << width) for _ in range(count)]
    if vals:
        vals[-1] = (1 << width) - 1  # the widest value, in the last (padded) byte
    data = _pack_ints(vals, width)
    assert data == loop_pack_ints(vals, width)
    assert _unpack_ints(data, count, width, "test").tolist() == vals
    assert loop_unpack_ints(data, count, width) == vals
    for bad in (1 << width, -1):  # never truncated
        with pytest.raises(InvariantError):
            _pack_ints([*vals, bad], width)
    if (count * width) % 8:
        padded = data[:-1] + bytes([data[-1] | 0x80])
        with pytest.raises(FormatError, match="nonzero bits"):
            _unpack_ints(padded, count, width, "test")
    with pytest.raises(FormatError, match="do not fit"):  # a header n of 2**63 or more
        _unpack_ints(bytes(8 * count), count, 64, "test")


@pytest.mark.parametrize("sigma", [1, 2, 3, 64, 65, 96, 256])
@pytest.mark.parametrize("count", [0, 1, 7, 8, 1000])
def test_label_codec_matches_bit_loop(sigma, count):
    # L holds id - 1 in max(1, ceil(log2 sigma)) bits
    rng = random.Random(sigma * 10_000 + count)
    ids = [rng.randint(1, sigma) for _ in range(count)]
    if ids:
        ids[-1] = sigma  # the widest id, in the last (padded) byte
    width = max(1, (sigma - 1).bit_length())
    data = _pack_symbols(ids, sigma)
    assert data == loop_pack_ints([i - 1 for i in ids], width)
    assert _unpack_symbols(data, count, sigma).tolist() == ids
    assert [v + 1 for v in loop_unpack_ints(data, count, width)] == ids


@pytest.mark.parametrize("name,tunneling", sorted(INDEX_DIGESTS))
def test_index_bytes_unchanged(name, tunneling, small_index):
    data = serialize_index(small_index(name, tunneling))
    assert hashlib.sha256(data).hexdigest() == INDEX_DIGESTS[name, tunneling]


# the oracle's tunnels at (min_width, min_length), with sample_rate_t,
# beside build_index's defaults: a file may hold tunnels the build never makes
DERIVED_SETTINGS = {"default": {}, "w2-s1-t1": dict(min_width=2, min_length=1, sample_rate_t=1),
                    "w3-s1-t2": dict(min_width=3, min_length=1, sample_rate_t=2)}


@pytest.mark.parametrize("settings", sorted(DERIVED_SETTINGS))
@pytest.mark.parametrize("tunneling", [True, False])
@pytest.mark.parametrize("name", sorted(SMALL_TEXTS))
def test_load_derives_what_the_build_holds(name, tunneling, settings, small_index):
    # the file stores no I', O', entrance marks, skip pointers or cnt, nor,
    # without tunnels, inner marks: loading derives them, the tunnel walk
    # that the skip pointers and cumulative widths are read off, and the
    # landing table and exit copies, equal to the ones the build made
    if settings == "default":
        ix = small_index(name, tunneling)
    elif tunneling:
        ix = oracle_index(SMALL_TEXTS[name], **DERIVED_SETTINGS[settings])
    else:
        ix = with_stride(small_index(name, False), DERIVED_SETTINGS[settings]["sample_rate_t"])
    got = deserialize_index(serialize_index(ix))
    for vec in ("iprime", "oprime", "inner_marks"):
        assert getattr(got.tg, vec).to01() == getattr(ix.tg, vec).to01()
    assert entrance_marks(got.tg).to01() == entrance_marks(ix.tg).to01()
    assert got.skip == ix.skip and list(got.skip) == list(ix.skip)
    for walked in ("_slot", "_chain", "_to_exit", "_extra"):
        assert getattr(got, walked).tolist() == getattr(ix, walked).tolist()
    assert got.loc == ix.loc
    assert got.tg.exit_copies == ix.tg.exit_copies
    assert landing_table(got.tg) == landing_table(ix.tg)
    # only an edge into a tunnel entrance lands past copy 1
    assert (max(got.tg._step_land) > 1) == bool(ix.tg.tunnels)


@pytest.mark.parametrize("tunneling", [True, False])
@pytest.mark.parametrize("name", sorted(SMALL_TEXTS))
def test_section_bits_match_the_bench_decoder(name, tunneling, small_index):
    data = serialize_index(small_index(name, tunneling))
    bits = section_bits(data)
    assert bits == layout.section_bits(data)
    assert sum(bits.values()) == 8 * len(data)
    assert bits["skip"] == bits["cnt"] == 0


@pytest.mark.parametrize("text", [b"baabaaba", b"bbabbabb"])
def test_entrance_at_the_source(text):
    # a width-3 tunnel enters at the source, rank 1, which has no in-edge of
    # its own: its entrance has in-degree 2 and still loads
    ix = build_index(text)
    assert any(t.entrance == 1 and ix.tg.g.indeg(1) == t.width - 1 for t in ix.tg.tunnels)
    got = deserialize_index(serialize_index(ix))
    assert entrance_marks(got.tg).to01() == entrance_marks(ix.tg).to01()
    for pat in {text[i:j] for i in range(len(text)) for j in range(i + 1, len(text) + 1)}:
        assert got.locate(pat) == naive_locate(text, pat)
    assert got.extract(1, len(text)) == text


_FUZZ_TEXT = SMALL_TEXTS["fib"]
_FUZZ_PATTERNS = [_FUZZ_TEXT[i:i + k] for i, k in ((0, 1), (100, 5), (700, 12), (1500, 40))]


@pytest.mark.parametrize("tunneling", [True, False])
@settings(max_examples=50, deadline=5000, database=None)
@given(data=st.data())
def test_mutated_section_loads_or_raises(tunneling, small_index, data):
    """One section of the fib index, found by the length-prefixed framing,
    gets bit flips, a written byte run or a new length, under a recomputed
    CRC.  Loading must raise a ``TwgiError`` or give an index whose hop
    table takes only steps that ``_fstep`` takes (the load-time argument in
    ``TextIndex``'s docstring), and whose count, locate and extract each
    answer or raise a ``TwgiError``; the walks' step bounds keep each query
    finite.

    The answers are not compared with the oracles: a file can load and
    answer wrong, such as one whose samples trade positions
    (``test_swapped_samples_extract_past_the_sink``).  Swapped tunnel exits
    loaded and answered wrong too until the loader walked every tunnel; they
    now fail at load (``test_walk_faults_rejected_at_load``), as does any
    file that stores skip pointers or cnt.
    """
    good = serialize_index(small_index("fib", tunneling))
    offsets = _section_offsets(good)
    sec = data.draw(st.integers(0, len(offsets) - 1), label="section")
    (ln,) = struct.unpack_from("<I", good, offsets[sec] - 4)
    payload = bytearray(good[offsets[sec]:offsets[sec] + ln])
    kind = data.draw(st.sampled_from(["flip", "run", "length"]), label="kind")
    if kind == "flip" and payload:
        for bit in data.draw(st.lists(st.integers(0, 8 * ln - 1), min_size=1, max_size=8)):
            payload[bit >> 3] ^= 1 << (bit & 7)
    elif kind == "run":
        at = data.draw(st.integers(0, ln), label="at")
        run = data.draw(st.binary(min_size=1, max_size=16), label="run")
        payload[at:at + len(run)] = run
    elif kind == "length":
        new_len = data.draw(st.integers(0, ln + 16), label="length")
        payload = payload[:new_len] + data.draw(st.binary(min_size=max(0, new_len - ln),
                                                          max_size=max(0, new_len - ln)))
    try:
        ix = deserialize_index(_with_section(good, sec, bytes(payload)))
    except TwgiError:
        return
    assert fstep_hop_table(ix) == tuple(a.tolist() for a in ix._hop_table())
    queries = [lambda p=p: ix.count(p) for p in _FUZZ_PATTERNS]
    queries += [lambda p=p: ix.locate(p) for p in _FUZZ_PATTERNS]
    queries.append(lambda: ix.extract(1, len(_FUZZ_TEXT)))
    for query in queries:
        try:
            query()
        except TwgiError:
            pass
