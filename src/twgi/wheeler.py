"""Succinct Wheeler graph representation and validation.

A Wheeler graph over n nodes and m labeled edges is stored as the quadruple
(L, C, I, O): L concatenates the out-edge labels per node in edge order, C
holds per-label edge-count prefix sums, and I/O encode in-/out-degrees in
unary.  Node ranks, edge ranks, and L positions are all 1-based.

Edge order is (label, source rank); ties among parallel edges with equal
label and source keep input order.  This module offers the navigation
primitives; path search is ``TunneledGraph.path_search``, which searches a
graph without tunnels as ``tunnel_graph(g, [])``.

Navigation never selects.  Construction decodes the unary vectors I and O
once, in one pass over their set bits, into the node-offset arrays
``_istart`` and ``_lstart`` (edges entering, and L positions left by, the
nodes of smaller rank).  ``edge_target(j)`` is then the node whose in-edge
interval holds j: a binary search over an array in memory, which costs a
fraction of a select.  No search or walk calls it: a tunneled graph
decodes every edge's target, with its landing copy, into its step table.
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
        _columns(self)


def _columns(el: EdgeList) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sources, targets and labels of a well-formed edge list, as int64
    arrays in list order; ValidationError on the first malformed edge."""
    n = el.n
    if n < 1:
        raise ValidationError("graph needs at least one node")
    try:
        u, v, c = np.array(el.edges, np.int64).reshape(len(el.edges), 3).T
    except OverflowError as exc:
        raise ValidationError(f"edge value outside the 64-bit range: {exc}") from exc
    rank_bad = (np.minimum(u, v) < 1) | (np.maximum(u, v) > n)
    bad = np.flatnonzero(rank_bad | (c < 0) | (c > 255))
    if bad.size:
        k = bad[0]
        if rank_bad[k]:
            raise ValidationError(f"edge ({u[k]},{v[k]}) rank outside [1..{n}]")
        raise ValidationError(f"label {c[k]} outside byte range")
    return u, v, c


def validate_wheeler(el: EdgeList) -> CheckResult:
    """Check Definition-1 axioms for the identity ordering on ranks.

    Does not search for a valid reordering; the supplied ranks are the
    ordering under test.
    """
    return _wheeler_check(el.n, *_columns(el))


def _wheeler_check(n: int, u, v, c) -> CheckResult:
    """validate_wheeler on edge arrays, whose ranks lie in [1..n].

    Axiom (i) compares each label's least target with the largest target of
    all smaller labels; axiom (ii) compares each (label, source) group's
    least target with the largest target of the label's smaller sources, a
    running maximum over groups sorted by (label, source).  Details are built
    only for a failure.
    """
    indeg = np.bincount(v, minlength=n + 1)[1:]
    zero, pos = np.flatnonzero(indeg == 0) + 1, np.flatnonzero(indeg) + 1
    if zero.size and pos.size and zero[-1] > pos[0]:
        return CheckResult.bad(
            "zero-indegree-prefix",
            f"node {zero[-1]} has in-degree 0 but follows node {pos[0]} "
            f"which has positive in-degree")
    if not len(v):
        return CheckResult.good()

    def source_of(lab, tgt):  # of the first edge in list order with this label and target
        return int(u[np.flatnonzero((c == lab) & (v == tgt))[0]])

    order = np.lexsort((v, u, c))
    su, sv, sc = u[order], v[order], c[order]
    # axiom (i): a1 < a2 implies v1 < v2 -- label target zones must be
    # strictly increasing with the label order
    lab_start = np.flatnonzero(np.diff(sc, prepend=-1))
    mn, mx = np.minimum.reduceat(sv, lab_start), np.maximum.reduceat(sv, lab_start)
    before = np.append(-1, np.maximum.accumulate(mx)[:-1])
    bad = np.flatnonzero(before >= mn)
    if bad.size:
        k = bad[0]
        run_max, lab, low = int(before[k]), int(sc[lab_start[k]]), int(mn[k])
        prev_lab = int(sc[lab_start[np.flatnonzero(mx == run_max)[0]]])
        return CheckResult.bad(
            "axiom-i",
            f"edge {(source_of(prev_lab, run_max), run_max)} labeled {prev_lab!r} reaches "
            f"node {run_max} but smaller-ranked node {low} is reached by edge "
            f"({source_of(lab, low)},{low}) with larger label {lab!r}")

    # axiom (ii): same label and u1 < u2 implies v1 <= v2
    grp_start = np.flatnonzero((np.diff(sc, prepend=-1) != 0) | (np.diff(su, prepend=0) != 0))
    grp_lab = np.cumsum(np.diff(sc[grp_start], prepend=-1) != 0)  # label index, from 1
    grp_max = np.append(sv[grp_start[1:] - 1], sv[-1])
    base = grp_lab * (n + 2)  # negative below: the first group of its label
    before = np.append(-1, np.maximum.accumulate(base + grp_max)[:-1]) - base
    bad = np.flatnonzero(before > sv[grp_start])
    if bad.size:
        k = bad[0]
        same = np.flatnonzero((grp_lab == grp_lab[k]) & (grp_max == before[k]))[0]
        return CheckResult.bad(
            "axiom-ii",
            f"label {int(sc[grp_start[k]])!r}: source {int(su[grp_start[same]])} reaches node "
            f"{int(before[k])} but larger source {int(su[grp_start[k]])} reaches smaller "
            f"node {int(sv[grp_start[k]])}")
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

    # -- decoding ------------------------------------------------------------

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sources, targets and labels (as bytes) of the edges in Wheeler
        edge order, as int64 arrays; targets never decrease.

        The i-th c in L is edge C[c] + i, so a stable sort of L's positions
        by label lists their sources in edge order; node v's in-edges are
        the ranks _istart[v] + 1 .. _istart[v + 1].
        """
        nodes = np.arange(1, self.n + 1)
        codes = self.L.codes()
        order = np.argsort(codes, kind="stable")
        sources = np.repeat(nodes, np.diff(self._lstart[1:]))[order]
        targets = np.repeat(nodes, np.diff(self._istart[1:]))
        return sources, targets, np.asarray(self.alphabet, np.int64)[codes[order]]

    def to_edge_list(self) -> EdgeList:
        """Recover the edge multiset in Wheeler edge order, labels as bytes."""
        return EdgeList(self.n, list(zip(*(a.tolist() for a in self.edge_arrays()))))

    def __repr__(self) -> str:
        return f"WheelerGraph(n={self.n}, m={self.m}, sigma={self.sigma})"


def _node_starts(bv: BitVec, n: int, name: str) -> array:
    """starts[i] = select_1(bv, i) - i for i in 1..n+1 (starts[0] unused):
    the zeros before the i-th one, read off the positions of the set bits."""
    ones = np.flatnonzero(bv.bits())[:n + 1]
    starts = array("q", np.append(0, ones - np.arange(len(ones))).tobytes())
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
    return _encode(el.n, *_columns(el))


def _encode(n: int, u, v, c) -> WheelerGraph:
    """encode on edge arrays, whose ranks lie in [1..n] and labels in [0..255]."""
    res = _wheeler_check(n, u, v, c)
    if not res:
        raise ValidationError(f"not a Wheeler graph: {res.detail}",
                              condition=res.condition)
    m = len(u)
    alphabet, cid = np.unique(c, return_inverse=True)
    cid += 1
    sigma = len(alphabet)
    # L lists each node's out-edges by label; parallel edges keep input order
    l_ids = cid[np.lexsort((np.arange(m), cid, u))]
    C = [0, 0] + np.cumsum(np.bincount(cid, minlength=sigma + 1)[1:]).tolist()
    return WheelerGraph(n, m, sigma, LabelSeq(l_ids, sigma), C,
                        unary(np.bincount(v, minlength=n + 1)[1:]),
                        unary(np.bincount(u, minlength=n + 1)[1:]), alphabet.tolist())
