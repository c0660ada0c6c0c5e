"""twgi: a tunneled Wheeler graph self-index.

Succinct representation of edge-labeled Wheeler graphs, block tunneling to
compress them further, and a full text self-index (count / locate / extract)
running directly on the tunneled representation.
"""

from .bitvec import BitVec, LabelSeq
from .errors import (
    BadMagicError,
    BoundsError,
    ChecksumError,
    FormatError,
    InvariantError,
    NotFoundError,
    TruncatedError,
    TwgiError,
    ValidationError,
    VersionError,
)
from .text_index import (
    StepCounter,
    TextIndex,
    build_graph_from_text,
    build_index,
    suffix_array,
)
from .tunnel import (
    Block,
    StringBlock,
    TraversalPos,
    TunneledGraph,
    TunnelRecord,
    check_block,
    find_string_blocks,
    tunnel_graph,
)
from .wheeler import (
    CheckResult,
    EdgeList,
    NodeRange,
    WheelerGraph,
    encode,
    validate_wheeler,
)

__all__ = [
    "BitVec",
    "LabelSeq",
    "EdgeList",
    "NodeRange",
    "CheckResult",
    "WheelerGraph",
    "encode",
    "validate_wheeler",
    "Block",
    "StringBlock",
    "TraversalPos",
    "TunnelRecord",
    "TunneledGraph",
    "check_block",
    "find_string_blocks",
    "tunnel_graph",
    "TextIndex",
    "StepCounter",
    "build_graph_from_text",
    "build_index",
    "suffix_array",
    "TwgiError",
    "BoundsError",
    "NotFoundError",
    "ValidationError",
    "InvariantError",
    "FormatError",
    "BadMagicError",
    "VersionError",
    "ChecksumError",
    "TruncatedError",
]

__version__ = "0.1.0"
