"""Succinct Wheeler graph representation, validation, and path search.

A Wheeler graph over n nodes and m labeled edges is stored as the quadruple
(L, C, I, O): L concatenates the out-edge labels per node in edge order, C
holds per-label edge-count prefix sums, and I/O encode in-/out-degrees in
unary.  Node ranks, edge ranks, and L positions are all 1-based.

Edge order is (label, source rank); ties among parallel edges with equal
label and source keep input order.

Navigation never selects on I or O.  Construction decodes both unary
vectors once, in one pass over their set bits, into the node-offset arrays
``_istart`` and ``_lstart`` (edges entering, and L positions left by, the
nodes of smaller rank).  The target of edge j is then the node whose
in-edge interval holds j: a binary search over an array in memory, which
costs a fraction of a select.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .bitvec import BitVec, LabelSeq
from .errors import BoundsError, NotFoundError, ValidationError


@dataclass(frozen=True)
class NodeRange:
    """Contiguous interval of node Wheeler ranks; lo > hi encodes empty."""

    lo: int
    hi: int

    @classmethod
    def empty(cls) -> "NodeRange":
        return cls(1, 0)

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    def __len__(self) -> int:
        return 0 if self.is_empty else self.hi - self.lo + 1

    def __iter__(self):
        return iter(range(self.lo, self.hi + 1))


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a structural check: ok, or a named violation."""

    ok: bool
    condition: str | None = None
    detail: str | None = None

    def __bool__(self) -> bool:
        return self.ok

    @classmethod
    def good(cls) -> "CheckResult":
        return cls(True)

    @classmethod
    def bad(cls, condition: str, detail: str) -> "CheckResult":
        return cls(False, condition, detail)


@dataclass
class EdgeList:
    """Plain construction input: node count plus (source, target, label)
    triples with ranks in [1..n] and labels as byte values."""

    n: int
    edges: list[tuple[int, int, int]] = field(default_factory=list)

    def check_well_formed(self) -> None:
        if self.n < 1:
            raise ValidationError("graph needs at least one node")
        for u, v, c in self.edges:
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValidationError(f"edge ({u},{v}) rank outside [1..{self.n}]")
            if not 0 <= c <= 255:
                raise ValidationError(f"label {c} outside byte range")


def validate_wheeler(el: EdgeList) -> CheckResult:
    """Check Definition-1 axioms for the identity ordering on ranks.

    Does not search for a valid reordering; the supplied ranks are the
    ordering under test.
    """
    el.check_well_formed()
    indeg = [0] * (el.n + 1)
    for _, v, _ in el.edges:
        indeg[v] += 1
    max_zero = max((r for r in range(1, el.n + 1) if indeg[r] == 0), default=0)
    min_pos = min((r for r in range(1, el.n + 1) if indeg[r] > 0), default=el.n + 1)
    if max_zero > min_pos:
        return CheckResult.bad(
            "zero-indegree-prefix",
            f"node {max_zero} has in-degree 0 but follows node {min_pos} "
            f"which has positive in-degree")

    # axiom (i): a1 < a2 implies v1 < v2 -- label target zones must be
    # strictly increasing with the label order
    by_label: dict[int, list[tuple[int, int]]] = {}
    for u, v, c in el.edges:
        by_label.setdefault(c, []).append((u, v))
    labels = sorted(by_label)
    run_max, run_max_edge, run_max_label = -1, None, None
    for c in labels:
        targets = [v for _, v in by_label[c]]
        mn = min(targets)
        if run_max >= mn:
            u2, v2 = next(e for e in by_label[c] if e[1] == mn)
            return CheckResult.bad(
                "axiom-i",
                f"edge {run_max_edge} labeled {run_max_label!r} reaches node "
                f"{run_max} but smaller-ranked node {mn} is reached by edge "
                f"({u2},{v2}) with larger label {c!r}")
        mx = max(targets)
        if mx > run_max:
            run_max = mx
            run_max_edge = next(e for e in by_label[c] if e[1] == mx)
            run_max_label = c

    # axiom (ii): same label and u1 < u2 implies v1 <= v2
    for c in labels:
        per_source: dict[int, list[int]] = {}
        for u, v in by_label[c]:
            per_source.setdefault(u, []).append(v)
        prev_max, prev_src = -1, None
        for u in sorted(per_source):
            cur_min = min(per_source[u])
            if prev_max > cur_min:
                return CheckResult.bad(
                    "axiom-ii",
                    f"label {c!r}: source {prev_src} reaches node {prev_max} "
                    f"but larger source {u} reaches smaller node {cur_min}")
            m = max(per_source[u])
            if m > prev_max:
                prev_max, prev_src = m, u
    return CheckResult.good()


class WheelerGraph:
    """The succinct quadruple (L, C, I, O) plus the alphabet map."""

    __slots__ = ("n", "m", "sigma", "L", "C", "I", "O", "alphabet",
                 "_label_to_id", "_lstart", "_istart")

    def __init__(self, n, m, sigma, L, C, I, O, alphabet):
        self.n = n
        self.m = m
        self.sigma = sigma
        self.L = L
        self.C = C          # C[c] for c in 1..sigma+1; C[1] = 0, C[sigma+1] = m
        self.I = I
        self.O = O
        self.alphabet = alphabet
        self._label_to_id = {b: i + 1 for i, b in enumerate(alphabet)}
        self._rebuild_node_offsets()

    def _rebuild_node_offsets(self) -> None:
        # _lstart[i]: number of edges leaving nodes of rank < i (the L offset
        # select_1(O,i) - i); _istart[i]: edges entering nodes of rank < i
        # (select_1(I,i) - i).  Both are read off the set bits in one pass;
        # every navigation step reads them instead of selecting.
        self._lstart = _node_starts(self.O, self.n, "O")
        self._istart = _node_starts(self.I, self.n, "I")

    # -- degrees and label helpers -----------------------------------------

    def outdeg(self, i: int) -> int:
        return self._lstart[i + 1] - self._lstart[i]

    def indeg(self, i: int) -> int:
        return self._istart[i + 1] - self._istart[i]

    def label_id(self, byte: int) -> int | None:
        return self._label_to_id.get(byte)

    def label_byte(self, c: int) -> int:
        return self.alphabet[c - 1]

    def edge_label(self, j: int) -> int:
        """Symbol id of edge with Wheeler rank j."""
        if not 1 <= j <= self.m:
            raise BoundsError(f"edge rank {j} outside [1..{self.m}]")
        # largest c with C[c] < j; C is non-decreasing with C[sigma+1] = m
        return bisect_left(self.C, j, 1, self.sigma + 2) - 1

    def in_label(self, r: int) -> int | None:
        """Symbol id shared by all in-edges of node r, or None."""
        if self.indeg(r) == 0:
            return None
        return self.edge_label(self._istart[r] + 1)

    def out_label_single(self, i: int) -> int | None:
        """Symbol id of the single out-edge of i (path graphs), or None."""
        if self.outdeg(i) == 0:
            return None
        return self.L.access(self._lstart[i] + 1)

    # -- navigation ----------------------------------------------------------

    def out_edge_rank(self, i: int, c: int, k: int) -> int:
        """Wheeler rank of the k-th c-labeled out-edge of node i."""
        if not 1 <= i <= self.n:
            raise BoundsError(f"node rank {i} outside [1..{self.n}]")
        lo = self.L.rank(self._lstart[i], c)
        hi = self.L.rank(self._lstart[i + 1], c)
        if not 1 <= k <= hi - lo:
            raise NotFoundError(
                f"node {i} has {hi - lo} out-edges labeled {c}, not {k}")
        return self.C[c] + lo + k

    def edge_target(self, j: int) -> int:
        """Wheeler rank of the target node of edge j: the node v with
        _istart[v] < j <= _istart[v+1]."""
        if not 1 <= j <= self.m:
            raise BoundsError(f"edge rank {j} outside [1..{self.m}]")
        return bisect_left(self._istart, j, 1, self.n + 2) - 1

    def edge_range_for_label(self, r: NodeRange, c: int) -> tuple[int, int]:
        """First and last c-labeled edge leaving nodes in r; (j1, j2) with
        j1 > j2 when none exist."""
        j1 = self.C[c] + self.L.rank(self._lstart[r.lo], c) + 1
        j2 = self.C[c] + self.L.rank(self._lstart[r.hi + 1], c)
        return j1, j2

    def follow_range(self, r: NodeRange, c: int) -> NodeRange:
        """Nodes reachable by a c-edge from r (path coherence keeps the
        result contiguous); empty propagates."""
        if r.is_empty or not 1 <= c <= self.sigma:
            return NodeRange.empty()
        j1, j2 = self.edge_range_for_label(r, c)
        if j1 > j2:
            return NodeRange.empty()
        return NodeRange(self.edge_target(j1), self.edge_target(j2))

    def path_search(self, pattern) -> NodeRange:
        """Wheeler range of nodes at the end of a path labeled ``pattern``
        (byte string or iterable of byte values); full range when empty."""
        rng = NodeRange(1, self.n)
        for byte in pattern:
            c = self._label_to_id.get(byte)
            if c is None:
                return NodeRange.empty()
            rng = self.follow_range(rng, c)
            if rng.is_empty:
                return rng
        return rng

    # -- decoding ------------------------------------------------------------

    def to_edge_list(self) -> EdgeList:
        """Recover the edge multiset in Wheeler edge order, labels as bytes.

        The i-th c in L is edge C[c] + i, so a stable sort of L's positions
        by label lists their sources in edge order; node v's in-edges are
        the ranks _istart[v] + 1 .. _istart[v + 1].
        """
        nodes = np.arange(1, self.n + 1)
        labels = np.asarray(self.L._syms)
        order = np.argsort(labels, kind="stable")
        sources = np.repeat(nodes, np.diff(self._lstart[1:]))[order]
        targets = np.repeat(nodes, np.diff(self._istart[1:]))
        names = np.asarray(self.alphabet, np.int64)[labels[order] - 1]
        return EdgeList(self.n, list(zip(sources.tolist(), targets.tolist(), names.tolist())))

    def structures_equal(self, other: "WheelerGraph") -> bool:
        return (self.n == other.n and self.m == other.m
                and self.sigma == other.sigma and self.alphabet == other.alphabet
                and self.C == other.C and self.L == other.L
                and self.I == other.I and self.O == other.O)

    def __repr__(self) -> str:
        return f"WheelerGraph(n={self.n}, m={self.m}, sigma={self.sigma})"


def _node_starts(bv: BitVec, n: int, name: str) -> array:
    """starts[i] = select_1(bv, i) - i for i in 1..n+1 (starts[0] unused):
    the zeros before the i-th one, read off the positions of the set bits."""
    ones = np.flatnonzero(bv.bits())[:n + 1]
    starts = array("q", [0] + (ones - np.arange(len(ones))).tolist())
    if len(starts) < n + 2:
        raise NotFoundError(
            f"{name} holds {len(starts) - 1} ones, a graph of {n} nodes needs {n + 1}")
    return starts


def unary(deg) -> BitVec:
    """The I or O vector of the given per-node degrees: a one per node
    followed by its degree in zeros, then a closing one."""
    deg = np.asarray(deg, np.int64)
    bits = np.zeros(len(deg) + int(deg.sum()) + 1, np.uint8)
    bits[np.arange(len(deg) + 1) + np.append(0, np.cumsum(deg))] = 1
    return BitVec(bits)


def encode(el: EdgeList) -> WheelerGraph:
    """Build the succinct representation from an edge list.

    The edge list must already be a Wheeler graph under the identity rank
    order; otherwise the violated axiom is raised as a ValidationError.
    """
    res = validate_wheeler(el)
    if not res:
        raise ValidationError(f"not a Wheeler graph: {res.detail}",
                              condition=res.condition)
    n, m = el.n, len(el.edges)
    u, v, c = np.array(el.edges, np.int64).reshape(m, 3).T
    alphabet, cid = np.unique(c, return_inverse=True)
    cid += 1
    sigma = len(alphabet)
    # L lists each node's out-edges by label; parallel edges keep input order
    l_ids = cid[np.lexsort((np.arange(m), cid, u))]
    C = [0, 0] + np.cumsum(np.bincount(cid, minlength=sigma + 1)[1:]).tolist()
    return WheelerGraph(n, m, sigma, LabelSeq(l_ids, sigma), C,
                        unary(np.bincount(v, minlength=n + 1)[1:]),
                        unary(np.bincount(u, minlength=n + 1)[1:]), alphabet.tolist())
