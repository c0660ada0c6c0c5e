import dataclasses
import hashlib
import io
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
    fig1_block,
    fig1_edge_list,
    loop_pack_ints,
    loop_unpack_ints,
    make_patterns,
    naive_count,
    naive_locate,
    random_tunneled_graphs,
)
from twgi.bitvec import BitVec
from twgi.errors import (
    BadMagicError,
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
    write_blocks_file,
    write_graph_file,
)
from twgi.text_index import TextIndex, build_index
from twgi.tunnel import TraversalPos
from twgi.tunnel import tunnel_graph
from twgi.wheeler import encode

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import layout  # noqa: E402


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
        assert tg2.entry_copies == tg.entry_copies

    def test_random_meta_roundtrip(self):
        for _, _, tg in random_tunneled_graphs(89, 60):
            tg2 = meta_roundtrip(tg)
            assert tg2.entry_copies == tg.entry_copies
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

    @pytest.mark.parametrize("line,want", [("#! orig-n 35\n", 35), ("", 35),
                                           ("#! orig-n 999\n", None), ("#! orig-n 28\n", None)])
    def test_orig_n_is_the_records(self, line, want):
        # the records imply the original node count: a file may leave the
        # line out, and one that disagrees is rejected
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
            with pytest.raises(ValidationError, match="entrance marks"):
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


def _move_loc(ix, key):
    node, pos = next(iter(ix.loc.items()))
    del ix.loc[node]
    ix.loc[key] = pos


def _widest(ix):
    """The largest value a field of the index file holds: 2**w - 1."""
    return (1 << ix.n.bit_length()) - 1


# each breaks one sampling rule that deserialize_index checks, or that
# serialize_index checks where the file cannot hold the fault (UNWRITABLE)
SAMPLING_FAULTS = {
    "rate_n zero": lambda ix: setattr(ix, "sample_rate_n", 0),
    "rate_t zero": lambda ix: setattr(ix, "sample_rate_t", 0),
    "cnt 3 short": lambda ix: ix.cnt.__delitem__(slice(-3, None)),
    "cnt 1 long": lambda ix: ix.cnt.append(ix.cnt[-1]),
    "cnt start": lambda ix: _set_item(ix.cnt, 0, 1),
    "cnt falls": lambda ix: _set_item(ix.cnt, 2, ix.cnt[1] - 1),
    "cnt past n": lambda ix: _set_item(ix.cnt, -1, ix.n + 1),
    "loc node 0": lambda ix: _move_loc(ix, 0),
    "loc node past nt": lambda ix: _move_loc(ix, ix.tg.g.n + 1),
    "loc shared position": lambda ix: _set_item(ix.loc, max(ix.loc), ix.loc[min(ix.loc)]),
    "loc position 0": lambda ix: _set_item(ix.loc, min(ix.loc), 0),
    "loc position past n": lambda ix: _set_item(ix.loc, min(ix.loc), _widest(ix)),
}


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


def _with_skip(ix, skip):
    """ix with other skip pointers, and the backpointers derived from them."""
    return TextIndex(ix.tg, ix.n, ix.sample_rate_n, ix.sample_rate_t, skip, ix.loc, ix.cnt)


def _plain(ix):
    marks = ix.tg.entrance_marks.bits() | ix.tg.inner_marks.bits()
    return int(np.flatnonzero(marks == 0)[0]) + 1


def _not_exit(ix):
    return min(set(range(1, ix.tg.g.n + 1)) - {t.exit for t in ix.tg.tunnels})


def _tunnel_length(ix, exit_rank):
    return next(t.length for t in ix.tg.tunnels if t.exit == exit_rank)


# each changes the skip pointer on node v and keeps back its inverse; only
# the skip rules of serialize_index (exits and distances) and of
# deserialize_index (nodes) tell such an index from a good one, and without
# them locate answers wrong or fails at query time
SKIP_FAULTS = {
    "distance +1": lambda ix, skip, v: skip.update({v: (skip[v][0], skip[v][1] + 1)}),
    "target not an exit": lambda ix, skip, v: skip.update({v: (_not_exit(ix), skip[v][1])}),
    "pointer on a plain node": lambda ix, skip, v: skip.update({_plain(ix): skip.pop(v)}),
    "pointer dropped": lambda ix, skip, v: skip.pop(v),
    "distance past the tunnel": lambda ix, skip, v: skip.update(
        {v: (skip[v][0], _tunnel_length(ix, skip[v][0]))}),
    "node 0": lambda ix, skip, v: skip.update({0: skip.pop(v)}),
    "node past nt": lambda ix, skip, v: skip.update({ix.tg.g.n + 1: skip.pop(v)}),
}

# faults a version-3 file cannot hold: it stores the skip pointer nodes
# alone, in the order of the exits and distances that the records and
# rate_t give, and the loc nodes as marks over [1..n_t]
UNWRITABLE = {"rate_t zero", "loc node 0", "loc node past nt", "distance +1",
              "target not an exit", "pointer dropped", "distance past the tunnel"}


def _assert_rejected(ix, fault, match=None):
    """serialize_index refuses an unwritable fault, and deserialize_index
    rejects the file of any other."""
    if fault in UNWRITABLE:
        with pytest.raises(InvariantError, match=match):
            serialize_index(ix)
    else:
        data = serialize_index(ix)
        with pytest.raises(FormatError, match=match):
            deserialize_index(data)


def _inner_not_exit(ix):
    inner = np.flatnonzero(ix.tg.inner_marks.bits()) + 1
    return int(min(set(inner.tolist()) - {t.exit for t in ix.tg.tunnels}))


def _add_inner_mark(ix):
    """Inner-marks a plain node halfway up the ranks, which walks pass through."""
    plain = np.flatnonzero((ix.tg.entrance_marks.bits() | ix.tg.inner_marks.bits()) == 0)
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
# degrees in an index without skip pointers.  Queries cross a tunnel by its
# record, so each such file answers wrong or fails at query time unless
# deserialize_index rejects it
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
        assert VERSION - 1 == 2  # the format before packed fields
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
        # 16 bytes past the declared records, under a recomputed CRC
        data = serialize_index(small_index("fib"))
        start = _section_offsets(data)[sec]
        (ln,) = struct.unpack_from("<I", data, start - 4)
        corrupt = bytearray(data[:-4])
        corrupt[start + ln:start + ln] = bytes(16)
        struct.pack_into("<I", corrupt, start - 4, ln + 16)
        corrupt += struct.pack("<I", zlib.crc32(bytes(corrupt)))
        with pytest.raises(TruncatedError):
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
        # without tunnels the inner marks are all zero and cnt[k] = k rate_t:
        # one zero byte, or what the section would hold, under a recomputed CRC
        ix = small_index("fib", False)
        stored = {9: ix.tg.inner_marks.to_packed(), 14: _pack_ints(ix.cnt, ix.n.bit_length())}
        data = serialize_index(ix)
        assert struct.unpack_from("<I", data, _section_offsets(data)[sec] - 4) == (0,)
        for payload in (bytes(1), stored[sec]):
            with pytest.raises(FormatError, match="must be empty without tunnels"):
                deserialize_index(_with_section(data, sec, payload))
        # and an index whose section would not be empty has no file
        bad = deserialize_index(data)
        if sec == 9:
            marks = np.zeros(ix.tg.g.n, np.uint8)
            marks[5] = 1
            bad.tg.inner_marks = BitVec(marks)
        else:
            bad.cnt[1] += 1
        with pytest.raises(InvariantError, match="without tunnels"):
            serialize_index(bad)

    @pytest.mark.parametrize("sec", [6, 7, 8, 12])  # I', O', entrance, back
    def test_derived_section_must_be_empty(self, sec, small_index):
        # one zero byte, or what format version 1 stored there, under a
        # recomputed CRC: loading derives these facts and reads no copy
        ix = small_index("fib")
        stored = {6: ix.tg.iprime.to_packed(), 7: ix.tg.oprime.to_packed(),
                  8: ix.tg.entrance_marks.to_packed(),
                  12: struct.pack("<I", len(ix.skip)) + b"".join(
                      struct.pack("<QQQ", e, d, node)
                      for e, ptrs in sorted(ix.back.items()) for d, node in ptrs)}
        data = serialize_index(ix)
        assert struct.unpack_from("<I", data, _section_offsets(data)[sec] - 4) == (0,)
        for payload in (bytes(1), stored[sec]):
            with pytest.raises(FormatError, match="must be empty"):
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

    @pytest.mark.parametrize("fault", sorted(SAMPLING_FAULTS))
    def test_bad_samples_rejected(self, fault, small_index):
        ix = deserialize_index(serialize_index(small_index("fib")))
        SAMPLING_FAULTS[fault](ix)
        _assert_rejected(ix, fault)

    def test_zero_rate_t_in_header(self, small_index):
        # the header can still hold the rate_t 0 that serialize_index refuses
        data = serialize_index(small_index("fib"))
        header = list(struct.unpack("<QQQIIII", data[12:52]))
        header[5] = 0
        with pytest.raises(FormatError, match="sample rates"):
            deserialize_index(_with_section(data, 0, struct.pack("<QQQIIII", *header)))

    @pytest.mark.parametrize("fault", sorted(TUNNEL_FAULTS))
    def test_bad_tunnel_records_rejected(self, fault, small_index):
        # the file derives the skip pointers' exits and distances from the
        # records, so the bad record is written over the good file's one
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
        ix = build_index(SMALL_TEXTS["cpm96"], sample_rate_t=64, min_length=1)
        assert not ix.skip and ix.tg.tunnels[0].length + 1 <= 64
        RECORD_FAULTS[fault](ix)
        with pytest.raises(FormatError, match="tunnel"):
            deserialize_index(serialize_index(ix))

    @pytest.mark.parametrize("fault", sorted(SKIP_FAULTS))
    def test_bad_skip_pointers_rejected(self, fault, small_index):
        ix = small_index("fib")
        skip = dict(ix.skip)
        SKIP_FAULTS[fault](ix, skip, min(skip))
        _assert_rejected(_with_skip(ix, skip), fault, match="skip pointers")

    def test_skip_section_nodes(self, small_index):
        # faults only the node list can hold, under a recomputed CRC
        ix = small_index("fib")
        data = serialize_index(ix)
        width = ix.n.bit_length()
        start = _section_offsets(data)[11]
        (ln,) = struct.unpack_from("<I", data, start - 4)
        nodes = _unpack_ints(data[start:start + ln], len(ix.skip), width, "skip").tolist()
        assert len(nodes) > 2
        shared = [nodes[0], *nodes]
        del shared[2]  # the second pointer moves onto the first one's node
        with pytest.raises(FormatError, match="two skip pointers sit on one node"):
            deserialize_index(_with_section(data, 11, _pack_ints(shared, width)))
        with pytest.raises(TruncatedError):
            deserialize_index(_with_section(data, 11, _pack_ints(nodes[:-1], width)))

    @pytest.mark.parametrize("name", ["fib", "rand96"])  # sigma 2 and 96
    def test_loaded_index_ranks_on_python_ints(self, name, small_index):
        # a numpy scalar in a rank directory would slow every rank
        ix = deserialize_index(serialize_index(small_index(name)))
        g, tg = ix.tg.g, ix.tg
        L = g.L
        for bv in (g.I, g.O, tg.iprime, tg.oprime, tg.entrance_marks, tg.inner_marks):
            assert type(bv.n) is int and type(bv._ones) is int
            assert all(type(w) is int for w in bv._words)
            for directory in (bv._super, bv._rel):
                assert type(directory) is array
        # the copy maps that entering and leaving a tunnel read
        for copies in (tg.entry_copies, tg.exit_copies):
            assert all(type(j) is int and type(o) is int for j, o in copies.items())
        assert tg.entry_copies or not tg.tunnels
        # the step table that every forward step of a walk reads
        assert type(ix._step_to) is array and type(ix._step_land) is array
        assert type(ix._step_byte) is bytes
        assert type(L._occ) is array and type(L._bytes) is bytes
        assert type(L.n) is int and type(L._stride) is int
        assert type(g.I.rank(3)) is int
        for i in (0, 5, L.n):
            assert all(type(L.rank(i, c)) is int for c in range(1, g.sigma + 1))
        assert type(L.partial_rank(L.n)) is int and type(L.access(1)) is int
        # the samples that count, locate and extract read are decoded once
        assert ix.loc and all(type(k) is int and type(v) is int for k, v in ix.loc.items())
        assert all(type(v) is int for v in ix.cnt)
        assert all(type(v) is int and type(e) is int and type(d) is int
                   for v, (e, d) in ix.skip.items())

    def test_skip_pointer_cycle_stops_every_walk(self, small_index):
        # two skip pointers of one tunnel point at each other at distance 0:
        # each walk that reaches them must stop, and no file can hold them.
        # Walks from the tunnel's entrance read its record and follow no
        # pointer forward, so extract still answers
        ix = deserialize_index(serialize_index(small_index("fib")))
        _, ptrs = max(ix.back.items(), key=lambda item: len(item[1]))
        (_, b), (_, a) = ptrs[-2:]  # a lies farthest from the exit
        pos_a = ix.locate_one(TraversalPos(a, 1))
        ix.skip[a], ix.skip[b] = (b, 0), (a, 0)
        bad = _with_skip(ix, ix.skip)
        with pytest.raises(InvariantError, match="skip pointers"):
            serialize_index(bad)
        with pytest.raises(FormatError, match="no tunnel exit"):
            bad.locate_one(TraversalPos(a, 1))
        with pytest.raises(FormatError, match="no tunnel exit"):
            bad.node_width(a)
        assert bad.extract(pos_a + 1, 1) == SMALL_TEXTS["fib"][pos_a:pos_a + 1]


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
    ("fib", True): "16fd9264fb92d4a0b6a1e5a63914b04852f186528b5d25bdb57f07bb269dbec8",
    ("fib", False): "1cc31502e2ad0bf66f18299761bf45fc7e06b3792f2e9a7eb36c014f870a057d",
    ("cpm4", True): "0cace45335076d08493eca7cddc76b2b9683b4bbc4f8fc6729df5f110b176353",
    ("cpm4", False): "0f29eae9c3d8c48d4e179445ef3e362754bebf58a80e3a98ed7ae0c6c196692c",
    ("rand96", True): "2d9c1de23e37e3ff54fbdf11892b243218daf93d8c997a1253b389c52ee29241",
    ("rand96", False): "2d9c1de23e37e3ff54fbdf11892b243218daf93d8c997a1253b389c52ee29241",
    ("cpm96", True): "152b4f3199560a86a85d98fddb458638a605957e243aae104abea899b0858800",
    ("cpm96", False): "41e7341a85ba4e95e360a3c6c8b581446094b34678766e315c738671311f9ade",
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


# build settings (min_width, min_length, sample_rate_t) beside the defaults
DERIVED_SETTINGS = {"default": {}, "w2-s1-t1": dict(min_width=2, min_length=1, sample_rate_t=1),
                    "w3-s1-t2": dict(min_width=3, min_length=1, sample_rate_t=2)}


@pytest.mark.parametrize("settings", sorted(DERIVED_SETTINGS))
@pytest.mark.parametrize("tunneling", [True, False])
@pytest.mark.parametrize("name", sorted(SMALL_TEXTS))
def test_load_derives_what_the_build_holds(name, tunneling, settings, small_index):
    # the file stores no I', O', entrance marks, back or skip pointer exits
    # and distances, nor, without tunnels, inner marks or cnt: loading
    # derives them, and the entry and exit copies, equal to the ones the
    # build made
    if settings == "default":
        ix = small_index(name, tunneling)
    else:
        ix = build_index(SMALL_TEXTS[name], tunneling=tunneling, **DERIVED_SETTINGS[settings])
    got = deserialize_index(serialize_index(ix))
    for vec in ("iprime", "oprime", "entrance_marks", "inner_marks"):
        assert getattr(got.tg, vec).to01() == getattr(ix.tg, vec).to01()
    assert got.skip == ix.skip and got.back == ix.back
    assert got.cnt == ix.cnt and got.loc == ix.loc
    assert got.tg.exit_copies == ix.tg.exit_copies
    assert got.tg.entry_copies == ix.tg.entry_copies
    assert bool(got.tg.entry_copies) == bool(ix.tg.tunnels)


@pytest.mark.parametrize("tunneling", [True, False])
@pytest.mark.parametrize("name", sorted(SMALL_TEXTS))
def test_section_bits_match_the_bench_decoder(name, tunneling, small_index):
    data = serialize_index(small_index(name, tunneling))
    bits = section_bits(data)
    assert bits == layout.section_bits(data)
    assert sum(bits.values()) == 8 * len(data)


@pytest.mark.parametrize("text", [b"babab", b"bacac"])
def test_entrance_at_the_source(text):
    # with min_length 1 a width-3 tunnel enters at the source, rank 1, which
    # has no in-edge of its own: its entrance has in-degree 2 and still loads
    ix = build_index(text, min_length=1)
    assert any(t.entrance == 1 and ix.tg.g.indeg(1) == t.width - 1 for t in ix.tg.tunnels)
    got = deserialize_index(serialize_index(ix))
    assert got.tg.entrance_marks.to01() == ix.tg.entrance_marks.to01()
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
    CRC.  Loading must raise a ``TwgiError`` or give an index whose count,
    locate and extract each answer or raise a ``TwgiError``; the walks'
    step bounds keep each query finite.

    The answers are not compared with the oracles: some files load and
    answer wrong, such as one whose skip pointer nodes or tunnel exits are
    swapped between valid places, or whose cnt samples change but stay
    non-decreasing.  Telling those apart needs a load check that walks each
    tunnel from its entrance to its exit, which the loader does not make.
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
    queries = [lambda p=p: ix.count(p) for p in _FUZZ_PATTERNS]
    queries += [lambda p=p: ix.locate(p) for p in _FUZZ_PATTERNS]
    queries.append(lambda: ix.extract(1, len(_FUZZ_TEXT)))
    for query in queries:
        try:
            query()
        except TwgiError:
            pass
