"""Decoder for the binary index layout, written from the format alone.

The file is ``TWGI`` magic, a u16 version, u16 flags, u32-length-prefixed
sections in ``serialize_index`` order, then a CRC-32 of everything before
it.  Decoding here, outside the library, gives the size of each section
without trusting the library's own accounting.
"""

from __future__ import annotations

import struct
import zlib

MAGIC = b"TWGI"
SECTIONS = ("header", "alphabet", "C", "L", "I", "O", "iprime", "oprime",
            "entrance", "inner", "tunnels", "skip", "back", "loc", "cnt")
_FLAG_NODE_MAP = 2


class LayoutError(ValueError):
    """The file does not follow the layout above."""


def section_bits(data: bytes) -> dict[str, int]:
    """Bits of each section's payload, plus ``framing``: magic, version,
    flags, the length prefixes and the CRC.  The parts sum to the file."""
    if len(data) < 12 or data[:4] != MAGIC:
        raise LayoutError("not an index file: bad magic or too short")
    if zlib.crc32(data[:-4]) != struct.unpack("<I", data[-4:])[0]:
        raise LayoutError("CRC mismatch")
    _version, flags = struct.unpack_from("<HH", data, 4)
    names = SECTIONS + (("node_map",) if flags & _FLAG_NODE_MAP else ())
    off = 8
    bits = {}
    for name in names:
        if off + 4 > len(data) - 4:
            raise LayoutError(f"file ends before section {name}")
        (length,) = struct.unpack_from("<I", data, off)
        off += 4 + length
        bits[name] = 8 * length
    if off != len(data) - 4:
        raise LayoutError(f"sections end at byte {off}, CRC starts at {len(data) - 4}")
    bits["framing"] = 8 * (4 + 2 + 2 + 4 * len(names) + 4)
    if sum(bits.values()) != 8 * len(data):
        raise LayoutError("sections plus framing do not add up to the file size")
    return bits
