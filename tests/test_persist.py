import dataclasses
import hashlib
import io
import random
import struct
import zlib
from array import array

import numpy as np
import pytest

from conftest import (
    SMALL_TEXTS,
    fig1_block,
    fig1_edge_list,
    loop_pack_symbols,
    loop_unpack_symbols,
    make_patterns,
    naive_count,
    naive_locate,
)
from twgi.bitvec import BitVec
from twgi.errors import (
    BadMagicError,
    ChecksumError,
    FormatError,
    TruncatedError,
    ValidationError,
    VersionError,
)
from twgi.persist import (
    VERSION,
    _pack_symbols,
    _unpack_symbols,
    deserialize_index,
    parse_label,
    parse_pattern,
    read_blocks_file,
    read_graph_file,
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


# each breaks one sampling rule that deserialize_index checks
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
    "loc position past n": lambda ix: _set_item(ix.loc, min(ix.loc), ix.loc[min(ix.loc)] + 10**6),
}


def _set_tunnel(ix, k, **fields):
    ix.tg.tunnels[k] = dataclasses.replace(ix.tg.tunnels[k], **fields)


# each breaks one rule on tunnel records that deserialize_index checks
TUNNEL_FAULTS = {
    "entrance 0": lambda ix: _set_tunnel(ix, 0, entrance=0),
    "entrance past nt": lambda ix: _set_tunnel(ix, 0, entrance=ix.tg.g.n + 1),
    "exit 0": lambda ix: _set_tunnel(ix, 0, exit=0),
    "exit 10**6": lambda ix: _set_tunnel(ix, 0, exit=10**6),
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
# the skip rule of deserialize_index tells such a file from a good one, and
# without it locate answers wrong or fails at query time
SKIP_FAULTS = {
    "distance +1": lambda ix, skip, v: skip.update({v: (skip[v][0], skip[v][1] + 1)}),
    "target not an exit": lambda ix, skip, v: skip.update({v: (_not_exit(ix), skip[v][1])}),
    "pointer on a plain node": lambda ix, skip, v: skip.update({_plain(ix): skip.pop(v)}),
    "pointer dropped": lambda ix, skip, v: skip.pop(v),
    "distance past the tunnel": lambda ix, skip, v: skip.update(
        {v: (skip[v][0], _tunnel_length(ix, skip[v][0]))}),
}


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
        start = _section_offsets(data)[2]
        for k in range(ix.tg.g.sigma + 1):  # C[k+1]
            for delta in (1, -1):
                corrupt = bytearray(data)
                (v,) = struct.unpack_from("<Q", corrupt, start + 8 * k)
                if v + delta < 0:
                    continue
                struct.pack_into("<Q", corrupt, start + 8 * k, v + delta)
                corrupt[-4:] = struct.pack("<I", zlib.crc32(bytes(corrupt[:-4])))
                with pytest.raises(FormatError, match="C must"):
                    deserialize_index(bytes(corrupt))

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
        with pytest.raises(FormatError):
            deserialize_index(serialize_index(ix))

    @pytest.mark.parametrize("fault", sorted(TUNNEL_FAULTS))
    def test_bad_tunnel_records_rejected(self, fault, small_index):
        ix = deserialize_index(serialize_index(small_index("fib")))
        assert len(ix.tg.tunnels) > 1 and ix.skip
        TUNNEL_FAULTS[fault](ix)
        with pytest.raises(FormatError):
            deserialize_index(serialize_index(ix))

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
        with pytest.raises(FormatError, match="skip pointers"):
            deserialize_index(serialize_index(_with_skip(ix, skip)))

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
        # the decoded O' positions that the exit-group lookups read
        assert type(tg._oprime_ones) is array and tg._oprime_ones.typecode == "q"
        assert type(L._occ) is array and type(L._bytes) is bytes
        assert type(L.n) is int and type(L._stride) is int
        assert type(g.I.rank(3)) is int
        for i in (0, 5, L.n):
            assert all(type(L.rank(i, c)) is int for c in range(1, g.sigma + 1))
        assert type(L.partial_rank(L.n)) is int and type(L.access(1)) is int

    def test_skip_pointer_cycle_stops_every_walk(self, small_index):
        # two skip pointers of one tunnel point at each other at distance 0:
        # each walk that reaches them must stop, and the file must not load.
        # Walks from the tunnel's entrance read its record and follow no
        # pointer forward, so extract still answers
        ix = deserialize_index(serialize_index(small_index("fib")))
        _, ptrs = max(ix.back.items(), key=lambda item: len(item[1]))
        (_, b), (_, a) = ptrs[-2:]  # a lies farthest from the exit
        pos_a = ix.locate_one(TraversalPos(a, 1))
        ix.skip[a], ix.skip[b] = (b, 0), (a, 0)
        bad = _with_skip(ix, ix.skip)
        with pytest.raises(FormatError, match="skip pointers"):
            deserialize_index(serialize_index(bad))
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
    ("fib", True): "0f766dd2a29cced0a27af6f1103e9a966970bfba4f33cf8f18e9abf0bf52f56b",
    ("fib", False): "1b540fabdd9b7c4ac438c93fff387395ad552439e51e76708bbaad0f627f8b3f",
    ("cpm4", True): "ef9733281c9a9c13e9e957407df4563c044d6e2ccc40a2e5ed5e89fc4d3a424b",
    ("cpm4", False): "66b6acdcf9c4d0678bee1a1f0b1e711588945ef6c9b49d20d624e2253ba1dfc4",
    ("rand96", True): "5ee31a380617476a13af523014d59999661db5c9a9914c73ef1bd5de4b55eb36",
    ("rand96", False): "5ee31a380617476a13af523014d59999661db5c9a9914c73ef1bd5de4b55eb36",
    ("cpm96", True): "e39a4a7d29fb62f55ab162b44763aa1ff690ae6dc2ac15d426a66cdd03be7707",
    ("cpm96", False): "f158d6e036b018b0192850d24a2ddd6806b1598971cd9158ff38645b2d561f71",
}


@pytest.mark.parametrize("sigma", [1, 2, 3, 64, 65, 96, 256])
@pytest.mark.parametrize("count", [0, 1, 7, 8, 1000])
def test_label_codec_matches_bit_loop(sigma, count):
    rng = random.Random(sigma * 10_000 + count)
    ids = [rng.randint(1, sigma) for _ in range(count)]
    if ids:
        ids[-1] = sigma  # the widest id, in the last (padded) byte
    data = _pack_symbols(ids, sigma)
    assert data == loop_pack_symbols(ids, sigma)
    assert _unpack_symbols(data, count, sigma).tolist() == ids
    assert loop_unpack_symbols(data, count, sigma) == ids


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
    # the file stores no I', O', entrance marks or back: loading derives
    # them, and the exit copies, equal to the ones the build made
    if settings == "default":
        ix = small_index(name, tunneling)
    else:
        ix = build_index(SMALL_TEXTS[name], tunneling=tunneling, **DERIVED_SETTINGS[settings])
    got = deserialize_index(serialize_index(ix))
    for vec in ("iprime", "oprime", "entrance_marks"):
        assert getattr(got.tg, vec).to01() == getattr(ix.tg, vec).to01()
    assert got.back == ix.back
    assert got.tg.exit_copies == ix.tg.exit_copies


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
