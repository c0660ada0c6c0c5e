"""File formats: text graph files, block files, and the binary index.

The binary index starts with magic ``TWGI``, a 16-bit version, and 16-bit
flags, followed by little-endian length-prefixed sections and a trailing
CRC-32 over all preceding bytes.  Any single corrupted byte is caught: the
magic and version have dedicated errors and everything (including them) is
covered by the checksum.

A text index file (format version 3) holds the header, alphabet, C, L, I,
O, inner marks, tunnel records, skip, loc and cnt, the ``SECTIONS`` in that
order.  The header is fixed-width; every other integer (C, the four fields
of each tunnel record, skip nodes, loc positions, cnt samples) is an
unsigned field of w = ``n.bit_length()`` bits, n = |T| + 1, packed least
significant bit first with zero padding in the last byte.  L holds each
label id - 1 in ceil(log2 sigma) bits (at least 1) the same way.  Each
sampling fact is stored once:

* skip holds only the pointer nodes.  A tunnel of length s has one pointer
  to its exit at each distance s - j, j = rate_t, 2 rate_t, ... < s, so the
  exits and distances follow from the records; the nodes are listed by
  exit, then by ascending distance.
* loc is a bitvector over the n_t nodes marking the sampled ones, followed
  by their text positions in rank order.
* cnt holds the n_t // rate_t + 1 cumulative tunnel widths at the ranks
  k rate_t.  Without tunnels cnt and the inner marks are written empty:
  loading derives cnt[k] = k rate_t and all-zero marks.

The I', O', entrance and back sections are always empty, and loading
derives them: I' and O' are all ones (a string's nodes have one in-edge and
one out-edge at most), the entrances are the records', and back is the
inverse of skip.  Every skip pointer sits on a distinct entrance- or
inner-marked node.  Queries cross a tunnel by its record, so no two records
share an entrance or an exit, an entrance has in-degree equal to the width
(one less at the source, rank 1), the records account for every inner mark
and the n - n_t collapsed nodes, and an exit is inner-marked (the entrance
itself for length 1) with out-degree equal to the width.
"""

from __future__ import annotations

import string
import struct
import zlib
from operator import attrgetter

import numpy as np

from .bitvec import BitVec, LabelSeq
from .errors import (
    BadMagicError,
    ChecksumError,
    FormatError,
    InvariantError,
    TruncatedError,
    ValidationError,
    VersionError,
)
from .text_index import TextIndex
from .tunnel import Block, TunneledGraph, TunnelRecord
from .wheeler import EdgeList, WheelerGraph

MAGIC = b"TWGI"
VERSION = 3
_FLAG_TUNNELED = 1
SECTIONS = ("header", "alphabet", "C", "L", "I", "O", "iprime", "oprime",
            "entrance", "inner", "tunnels", "skip", "back", "loc", "cnt")


# ---------------------------------------------------------------------------
# text graph files


def format_label(byte: int) -> str:
    if 33 <= byte <= 126 and byte != ord("#"):
        return chr(byte)
    return f"\\x{byte:02x}"


def parse_label(tok: str) -> int:
    if len(tok) == 1:
        v = ord(tok)
        if v > 255:
            raise ValidationError(f"label {tok!r} is not a byte")
        return v
    if len(tok) == 4 and tok.startswith("\\x"):
        return _hex_byte(tok, 0)
    raise ValidationError(f"bad label token {tok!r}")


def _hex_byte(s: str, i: int) -> int:
    """The byte of the ``\\xNN`` escape at s[i]: exactly two hex digits."""
    digits = s[i + 2:i + 4]
    if len(digits) != 2 or not all(ch in string.hexdigits for ch in digits):
        raise ValidationError(f"bad escape {s[i:i + 4]!r}: \\x takes two hex digits")
    return int(digits, 16)


def _ints(tokens, line: str, count: int | None = None) -> list[int]:
    """The tokens of a file line as ints, exactly ``count`` of them if given."""
    try:
        if count is None or len(tokens) == count:
            return [int(tok) for tok in tokens]
    except ValueError:
        pass
    raise ValidationError(f"bad numbers in line {line!r}")


def parse_pattern(s: str) -> bytes:
    """CLI pattern with \\xNN escapes, latin-1 byte semantics."""
    out = bytearray()
    i = 0
    while i < len(s):
        if s.startswith("\\x", i):
            out.append(_hex_byte(s, i))
            i += 4
        else:
            v = ord(s[i])
            if v > 255:
                raise ValidationError(f"pattern character {s[i]!r} is not a byte")
            out.append(v)
            i += 1
    return bytes(out)


def write_graph_file(fh, el: EdgeList, sigma: int | None = None,
                     meta: dict | None = None) -> None:
    """GraphFile: header ``WG <n> <m> <sigma>`` then one edge per line.
    Structured ``#!`` comments carry tunnel metadata when present."""
    if sigma is None:
        sigma = len({c for _, _, c in el.edges})
    fh.write(f"WG {el.n} {len(el.edges)} {sigma}\n")
    if meta:
        fh.write("#! tunneled\n")
        fh.write(f"#! orig-n {meta['orig_n']}\n")
        fh.write(f"#! iprime {meta['iprime']}\n")
        fh.write(f"#! oprime {meta['oprime']}\n")
        fh.write("#! entrance " + " ".join(map(str, meta["entrance"])) + "\n")
        fh.write("#! inner " + " ".join(map(str, meta["inner"])) + "\n")
        for t in meta["tunnels"]:
            fh.write(f"#! tunnel {t[0]} {t[1]} {t[2]} {t[3]}\n")
        if meta["exit_copies"]:
            pairs = " ".join(f"{j}:{o}" for j, o in sorted(meta["exit_copies"].items()))
            fh.write(f"#! exitcopy {pairs}\n")
    for u, v, c in el.edges:
        fh.write(f"{u} {v} {format_label(c)}\n")


def read_graph_file(fh) -> tuple[EdgeList, int, dict | None]:
    """Returns (edge list in file order, declared sigma, tunnel meta or None)."""
    header = None
    edges = []
    meta: dict | None = None
    declared = None
    for raw in fh:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#!"):
            meta = _parse_meta_line(line[2:].strip(), meta)
            continue
        if line.startswith("#"):
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 4 or parts[0] != "WG":
                raise ValidationError(f"bad graph header: {line!r}")
            *header, declared = _ints(parts[1:], line)
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValidationError(f"bad edge line: {line!r}")
        edges.append((*_ints(parts[:2], line), parse_label(parts[2])))
    if header is None:
        raise ValidationError("graph file has no header line")
    n, m = header
    if len(edges) != m:
        raise ValidationError(f"header declares {m} edges, file has {len(edges)}")
    el = EdgeList(n, edges)
    el.check_well_formed()
    return el, declared, meta


def _parse_meta_line(body: str, meta: dict | None) -> dict:
    if meta is None:
        meta = {"tunnels": [], "entrance": [], "inner": [], "exit_copies": {},
                "iprime": "", "oprime": "", "orig_n": None}
    parts = body.split()
    if not parts:
        return meta
    key = parts[0]
    if key == "tunneled":
        pass
    elif key == "orig-n":
        (meta["orig_n"],) = _ints(parts[1:], body, 1)
    elif key in ("iprime", "oprime"):
        meta[key] = parts[1] if len(parts) > 1 else ""
    elif key in ("entrance", "inner"):
        meta[key] = _ints(parts[1:], body)
    elif key == "tunnel":
        meta["tunnels"].append(tuple(_ints(parts[1:], body, 4)))
    elif key == "exitcopy":
        for pair in parts[1:]:
            j, o = _ints(pair.split(":"), body, 2)
            meta["exit_copies"][j] = o
    else:
        raise ValidationError(f"unknown metadata key {key!r}")
    return meta


def tunneled_graph_meta(tg: TunneledGraph) -> dict:
    return {
        "orig_n": tg.orig_n,
        "iprime": tg.iprime.to01(),
        "oprime": tg.oprime.to01(),
        "entrance": (np.flatnonzero(tg.entrance_marks.bits()) + 1).tolist(),
        "inner": (np.flatnonzero(tg.inner_marks.bits()) + 1).tolist(),
        "tunnels": [(t.entrance, t.exit, t.width, t.length) for t in tg.tunnels],
        "exit_copies": dict(tg.exit_copies),
    }


def tunneled_graph_from_meta(g: WheelerGraph, meta: dict) -> TunneledGraph:
    """The tunneled graph that g and its ``#!`` meta describe.  Raises
    ValidationError unless I' and O' hold m_t bits, the entrance marks are
    the tunnel records' entrances and none is inner-marked, every edge that
    leaves a tunnel node for a node that is not inner has a recorded copy,
    and orig-n, when given, is the node count the records imply."""
    for key in ("iprime", "oprime"):
        if len(meta[key]) != g.m:
            raise ValidationError(f"{key} holds {len(meta[key])} bits, the graph {g.m} edges")
    records = [TunnelRecord(*t) for t in meta["tunnels"]]
    entrances = sorted(t.entrance for t in records)
    if (sorted(meta["entrance"]) != entrances or len(set(entrances)) < len(entrances)
            or any(not 1 <= e <= g.n for e in entrances)):
        raise ValidationError(f"the entrance marks must be the tunnel records' "
                              f"entrances, distinct and in [1..{g.n}]")
    ranks = np.arange(1, g.n + 1)
    entrance, inner = np.isin(ranks, entrances), np.isin(ranks, meta["inner"])
    if (entrance & inner).any():
        raise ValidationError(f"tunnel entrance {ranks[entrance & inner][0]} must not "
                              f"be inner-marked")
    src, tgt, _ = g.edge_arrays()
    exits = np.flatnonzero((entrance | inner)[src - 1] & ~inner[tgt - 1]) + 1
    missing = exits[~np.isin(exits, list(meta["exit_copies"]))]
    if missing.size:
        raise ValidationError(f"exit edge {missing[0]} has no recorded copy")
    tg = TunneledGraph(g, BitVec(meta["iprime"]), BitVec(meta["oprime"]), BitVec(inner),
                       records, meta["exit_copies"])
    if meta["orig_n"] not in (None, tg.orig_n):
        raise ValidationError(f"orig-n {meta['orig_n']} is not the records' {tg.orig_n}")
    return tg


# ---------------------------------------------------------------------------
# block files


def write_blocks_file(fh, blocks: list[Block]) -> None:
    for b in blocks:
        fh.write(f"BLOCK {b.width} {b.size}\n")
        for col in b.columns:
            fh.write(" ".join(map(str, col)) + "\n")


def read_blocks_file(fh) -> list[Block]:
    blocks = []
    cur = None
    for raw in fh:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "BLOCK":
            cur = Block(*_ints(parts[1:], line, 2), [])
            blocks.append(cur)
            continue
        if cur is None:
            raise ValidationError("column line before any BLOCK header")
        col = tuple(_ints(parts, line))
        if len(col) != cur.width:
            raise ValidationError(
                f"column {line!r} has {len(col)} entries, width is {cur.width}")
        cur.columns.append(col)
    for b in blocks:
        if len(b.columns) != b.size:
            raise ValidationError(
                f"block declares size {b.size} but has {len(b.columns)} columns")
    return blocks


# ---------------------------------------------------------------------------
# binary index files


def _pack_ints(vals, width: int) -> bytes:
    """Unsigned ints as ``width``-bit fields, least significant bit first,
    one after another, the last byte padded with zero bits.  A value
    outside [0, 2**width) raises: a field is never truncated."""
    vals = np.asarray(vals)
    if vals.size and (vals.min() < 0 or vals.max() >= 1 << width):
        raise InvariantError(f"a value outside [0, 2**{width}) cannot be written "
                             f"in {width} bits")
    bits = (vals.astype(np.uint64)[:, None] >> np.arange(width, dtype=np.uint64)) & 1
    return np.packbits(bits.astype(np.uint8), bitorder="little").tobytes()


def _unpack_ints(data: bytes, count: int, width: int, name: str) -> np.ndarray:
    """The ``count`` fields of ``_pack_ints`` as an int64 array; ``data``
    must hold exactly them, with zero padding."""
    if width > 63:
        raise FormatError(f"{name} fields of {width} bits do not fit in 63")
    nbits = count * width
    if len(data) != (nbits + 7) >> 3:
        raise TruncatedError(f"{name} section holds {len(data)} bytes, "
                             f"{count} fields of {width} bits need {(nbits + 7) >> 3}")
    bits = np.unpackbits(np.frombuffer(data, np.uint8), bitorder="little")
    if bits[nbits:].any():
        raise FormatError(f"{name} section pads its last byte with nonzero bits")
    # bit k of every field in one contiguous row: the sum runs over rows
    fields = np.ascontiguousarray(bits[:nbits].reshape(count, width).T).astype(np.int64)
    return (fields << np.arange(width)[:, None]).sum(axis=0)


def _repeats(vals: np.ndarray) -> bool:
    """Whether two of the ints are equal.  A sort: ``np.unique`` hashes,
    which took ten times as long on the 1,334 loc positions of a 20 KB
    index."""
    return bool((np.diff(np.sort(vals)) == 0).any())


def _label_width(sigma: int) -> int:
    return max(1, (sigma - 1).bit_length())


def _pack_symbols(ids, sigma: int) -> bytes:
    """Symbol ids 1..sigma as id - 1 in ``_label_width(sigma)`` bits each."""
    return _pack_ints(np.asarray(ids, np.int64) - 1, _label_width(sigma))


def _unpack_symbols(data: bytes, count: int, sigma: int) -> np.ndarray:
    ids = _unpack_ints(data, count, _label_width(sigma), "label") + 1
    if count and ids.max() > sigma:
        raise FormatError(f"label id {ids.max()} outside [1..{sigma}]")
    return ids


def _skip_pairs(tunnels, rate_t: int) -> list[tuple[int, int]]:
    """(exit, distance) of every skip pointer ``build_index`` sets, in file
    order: by exit, then by ascending distance s - j, j = rate_t, 2 rate_t,
    ... < s for a tunnel of length s."""
    return [(t.exit, d) for t in sorted(tunnels, key=attrgetter("exit"))
            for d in range((t.length - 1) % rate_t + 1, t.length, rate_t)]


def _section(payload: bytes) -> bytes:
    return struct.pack("<I", len(payload)) + payload


class _Reader:
    def __init__(self, data: bytes, off: int):
        self.data = data
        self.off = off

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise TruncatedError("file ends inside a declared section")
        out = self.data[self.off:self.off + n]
        self.off += n
        return out

    def section(self) -> bytes:
        (ln,) = struct.unpack("<I", self.take(4))
        return self.take(ln)

    def bits(self, nbits: int, name: str) -> BitVec:
        """A bit section, which must hold exactly ceil(nbits / 8) bytes."""
        raw = self.section()
        if len(raw) != (nbits + 7) >> 3:
            raise TruncatedError(f"{name} section holds {len(raw)} bytes for {nbits} bits")
        return BitVec.from_packed(raw, nbits)


def section_bits(data: bytes) -> dict[str, int]:
    """Bits of each section's payload of an index file, by its name in
    ``SECTIONS``, plus ``framing``: magic, version, flags, the length
    prefixes and the CRC.  The parts sum to the file."""
    rd = _Reader(data[:-4], 8)
    bits = {name: 8 * len(rd.section()) for name in SECTIONS}
    if rd.off != len(rd.data):
        raise TruncatedError("the sections do not end where the CRC starts")
    bits["framing"] = 8 * (12 + 4 * len(SECTIONS))
    return bits


def serialize_index(ix: TextIndex) -> bytes:
    """The index file of ``ix``.  An index that the file cannot hold, such
    as a skip pointer whose exit or distance is not the one its tunnel
    record gives, raises ``InvariantError``."""
    tg = ix.tg
    g = tg.g
    nt = g.n
    rate_t = ix.sample_rate_t
    width = ix.n.bit_length()
    if rate_t < 1:
        raise InvariantError(f"sample_rate_t {rate_t} must be at least 1")
    expected = _skip_pairs(tg.tunnels, rate_t)
    if sorted(ix.skip.values()) != sorted(expected):
        raise InvariantError(f"skip pointers must reach each tunnel's exit every "
                             f"{rate_t} columns: only their nodes are written")
    node_at = {pair: node for node, pair in ix.skip.items()}
    loc_nodes = sorted(ix.loc)
    if loc_nodes and not 1 <= loc_nodes[0] <= loc_nodes[-1] <= nt:
        raise InvariantError(f"loc nodes must lie in [1..{nt}]: they are written as marks")
    if not tg.tunnels and (ix.cnt != list(range(0, nt + 1, rate_t)) or tg.inner_marks.ones):
        raise InvariantError("an index without tunnels must have cnt[k] = k * rate_t "
                             "and no inner marks: loading derives them")

    buf = bytearray(MAGIC)
    buf += struct.pack("<HH", VERSION, _FLAG_TUNNELED if tg.tunnels else 0)
    buf += _section(struct.pack("<QQQIIII", ix.n, nt, g.m, g.sigma,
                                ix.sample_rate_n, rate_t, len(tg.tunnels)))
    buf += _section(bytes(g.alphabet))
    buf += _section(_pack_ints(g.C[1:g.sigma + 2], width))
    buf += _section(_pack_symbols(g.L.ids(), g.sigma))
    buf += _section(g.I.to_packed()) + _section(g.O.to_packed())
    buf += _section(b"") * 3  # I', O' and the entrance marks: loading derives them
    buf += _section(tg.inner_marks.to_packed() if tg.tunnels else b"")
    buf += _section(_pack_ints([f for t in tg.tunnels
                                for f in (t.entrance, t.exit, t.width, t.length)], width))
    buf += _section(_pack_ints([node_at[pair] for pair in expected], width))
    buf += _section(b"")  # back: TextIndex derives it from skip
    buf += _section(_pack_ints(np.isin(np.arange(1, nt + 1), loc_nodes), 1)
                    + _pack_ints([ix.loc[v] for v in loc_nodes], width))
    buf += _section(_pack_ints(ix.cnt, width) if tg.tunnels else b"")
    buf += struct.pack("<I", zlib.crc32(bytes(buf)))
    return bytes(buf)


def deserialize_index(data: bytes) -> TextIndex:
    if len(data) < 12:
        raise TruncatedError("file too short to be an index")
    if data[:4] != MAGIC:
        raise BadMagicError(f"bad magic {data[:4]!r}")
    stored = struct.unpack("<I", data[-4:])[0]
    if zlib.crc32(data[:-4]) != stored:
        raise ChecksumError("checksum mismatch: the file is corrupted")
    version, flags = struct.unpack("<HH", data[4:8])
    if version != VERSION:
        raise VersionError(f"format version {version}, reader supports {VERSION}")
    if flags & ~_FLAG_TUNNELED:
        raise FormatError(f"unknown flag bits {flags & ~_FLAG_TUNNELED:#x}")

    try:
        return _parse_sections(data)
    except struct.error as exc:
        raise TruncatedError(f"malformed section: {exc}") from exc


def _parse_sections(data: bytes) -> TextIndex:
    rd = _Reader(data[:-4], 8)
    n, nt, mt, sigma, rate_n, rate_t, ntun = struct.unpack("<QQQIIII", rd.section())
    if rate_n < 1 or rate_t < 1:
        raise FormatError(f"sample rates {rate_n} and {rate_t} must be at least 1")
    width = n.bit_length()
    alphabet = list(rd.section())
    if len(alphabet) != sigma:
        raise TruncatedError("alphabet section has the wrong size")
    if any(a >= b for a, b in zip(alphabet, alphabet[1:])):
        raise FormatError("the alphabet must list distinct bytes in increasing order")
    C = [0, *_unpack_ints(rd.section(), sigma + 1, width, "C").tolist()]
    L = LabelSeq(_unpack_symbols(rd.section(), mt, sigma), sigma)
    # every label of L lies in [1..sigma], so these steps also make C
    # non-decreasing and end it at m_t
    if C[1] != 0 or any(C[c + 1] - C[c] != L.count(c) for c in range(1, sigma + 1)):
        raise FormatError("C must start at 0 and rise by each label's count in L")
    I = rd.bits(nt + mt + 1, "I")
    O = rd.bits(nt + mt + 1, "O")
    for name, bv in (("I", I), ("O", O)):
        # the node-offset arrays decoded from I and O answer every
        # navigation step, so their unary shape is checked here
        if bv.ones != nt + 1 or not (bv.access(1) and bv.access(bv.n)):
            raise FormatError(
                f"{name} must hold {nt + 1} ones and {mt} zeros, "
                f"starting and ending with a one")
    if any(rd.section() for _ in range(3)):
        raise FormatError("the I', O' and entrance sections must be empty")
    if ntun:
        inn = rd.bits(nt, "inner")
    elif rd.section():
        raise FormatError("the inner section must be empty without tunnels")
    else:
        inn = BitVec(np.zeros(nt, np.uint8))
    fields = _unpack_ints(rd.section(), 4 * ntun, width, "tunnel record").reshape(ntun, 4)
    tunnels = [TunnelRecord(*rec) for rec in fields.tolist()]
    # exits, entrance offsets and the entrance marks are read off these records
    for t in tunnels:
        if not (1 <= t.entrance <= nt and 1 <= t.exit <= nt and t.width >= 2 and t.length >= 1):
            raise FormatError(f"{t} needs an entrance and an exit in [1..{nt}], "
                              f"width >= 2 and length >= 1")
    if len({t.entrance for t in tunnels}) < ntun or len({t.exit for t in tunnels}) < ntun:
        raise FormatError("two tunnel records share an entrance or an exit")
    marked = np.zeros(nt, np.uint8)
    marked[fields[:, 0] - 1] = 1
    # walks cross a tunnel by its record's exit and length, so the records
    # must account for every inner mark and every collapsed node
    inner = inn.bits()
    if (marked & inner).any():
        raise FormatError("a tunnel entrance must not be inner-marked")
    if (inn.ones != sum(t.length - 1 for t in tunnels)
            or sum((t.width - 1) * t.length for t in tunnels) != n - nt):
        raise FormatError("tunnel records must account for every inner mark "
                          "and for the n - n_t collapsed nodes")
    if any(t.exit != t.entrance if t.length == 1 else not inner[t.exit - 1]
           for t in tunnels):
        raise FormatError("a tunnel's exit must be inner-marked, or its entrance "
                          "when its length is 1")

    # bounds the skip pointers expected below by the size of the file
    if sum(t.length for t in tunnels) > nt:
        raise FormatError(f"tunnel lengths sum past n_t = {nt}")
    expected = _skip_pairs(tunnels, rate_t)
    nodes = _unpack_ints(rd.section(), len(expected), width, "skip")
    if len(nodes) and (nodes.min() < 1 or nodes.max() > nt
                       or not (marked | inner)[nodes - 1].all()):
        raise FormatError(f"skip pointers must sit on marked nodes in [1..{nt}]")
    if _repeats(nodes):
        raise FormatError("two skip pointers sit on one node")
    skip = dict(zip(nodes.tolist(), expected))
    if rd.section():
        raise FormatError("the back section must be empty")
    raw = rd.section()
    mark_bytes = (nt + 7) >> 3
    loc_nodes = np.flatnonzero(_unpack_ints(raw[:mark_bytes], nt, 1, "loc mark")) + 1
    positions = _unpack_ints(raw[mark_bytes:], len(loc_nodes), width, "loc position")
    # locate and extract return these positions, so a repeated one would
    # surface as a wrong answer far from the file
    if len(positions) and (positions.min() < 1 or positions.max() > n
                           or _repeats(positions)):
        raise FormatError(f"loc must map nodes to distinct positions in [1..{n}]")
    loc = dict(zip(loc_nodes.tolist(), positions.tolist()))
    raw = rd.section()
    if not ntun:
        if raw:
            raise FormatError("the cnt section must be empty without tunnels")
        cnt = list(range(0, nt + 1, rate_t))
    else:
        # count indexes these samples directly, so a bad one would surface
        # as a wrong answer or an IndexError far from the file
        samples = _unpack_ints(raw, nt // rate_t + 1, width, "cnt")
        if samples[0] != 0 or samples[-1] > n or (np.diff(samples) < 0).any():
            raise FormatError(f"cnt must hold {nt // rate_t + 1} non-decreasing "
                              f"samples from 0 to at most {n}")
        cnt = samples.tolist()
    if rd.off != len(rd.data):
        raise TruncatedError("trailing bytes after the last section")

    g = WheelerGraph(nt, mt, sigma, L, C, I, O, alphabet)
    if any(g.outdeg(t.exit) != t.width for t in tunnels):
        raise FormatError("a tunnel's exit must have out-degree equal to its width")
    if any(g.indeg(t.entrance) != t.width - (t.entrance == 1) for t in tunnels):
        raise FormatError("a tunnel entrance's in-degree must equal its width, less one at rank 1")
    ones = BitVec(np.ones(mt, np.uint8))  # I' and O' of a text index
    tg = TunneledGraph(g, ones, ones, inn, tunnels, None)
    return TextIndex(tg, n, rate_n, rate_t, skip, loc, cnt)


def save_index(ix: TextIndex, path) -> None:
    data = serialize_index(ix)
    with open(path, "wb") as fh:
        fh.write(data)


def load_index(path) -> TextIndex:
    with open(path, "rb") as fh:
        data = fh.read()
    return deserialize_index(data)
