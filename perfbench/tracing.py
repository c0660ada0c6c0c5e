"""Spans and counters installed on the library at run time.

``src/`` is never edited: the tracer replaces module attributes and class
methods with wrappers and puts the originals back on ``restore``.  Spans
(name, start, end, parent, query id) go around calls that do enough work to
carry their own cost; hot primitives get a counter only, because a span
would cost more than the call it measures.  Every call, span or counter, is
counted under the name of the outermost open span (``build_index``,
``count``, ``locate``, ...), so counts can be read per query, per
occurrence or per byte.
"""

from __future__ import annotations

import json
from collections import defaultdict

from clock import Clock
from twgi import bitvec, persist, text_index, tunnel, wheeler

# (owner, attribute, span name, opens a query)
_SPANS = (
    (text_index, "build_index", "text_index.build_index", False),
    (text_index, "suffix_array", "text_index.suffix_array", False),
    (text_index, "_string_graph", "text_index.string_graph", False),
    # text_index imports these two by name, so wrap them where it looks them up
    (text_index, "find_string_blocks", "tunnel.find_string_blocks", False),
    (text_index, "tunnel_graph", "tunnel.tunnel_graph", False),
    (tunnel.StringBlock, "expand", "tunnel.expand", False),
    (persist, "serialize_index", "persist.serialize_index", False),
    (persist, "deserialize_index", "persist.deserialize_index", False),
    (text_index.TextIndex, "count", "text_index.count", True),
    (text_index.TextIndex, "locate", "text_index.locate", True),
    (text_index.TextIndex, "extract", "text_index.extract", True),
    (tunnel.TunneledGraph, "_search_pairs", "tunnel.search_pairs", False),
    (text_index.TextIndex, "node_width", "text_index.node_width", False),
    (text_index.TextIndex, "locate_one", "text_index.locate_one", False),
)

_COUNTERS = (
    (bitvec.BitVec, "rank", "bitvec.BitVec.rank"),
    (bitvec.LabelSeq, "access", "bitvec.LabelSeq.access"),
    (bitvec.LabelSeq, "rank", "bitvec.LabelSeq.rank"),
    (bitvec.LabelSeq, "partial_rank", "bitvec.LabelSeq.partial_rank"),
    (bitvec.LabelSeq, "select", "bitvec.LabelSeq.select"),
    (wheeler.WheelerGraph, "edge_target", "wheeler.edge_target"),
    (text_index.TextIndex, "_fstep", "text_index.fstep"),
)

SKIP_JUMP = "text_index.skip_jump"


class Tracer:
    def __init__(self, clock: Clock):
        self.clock = clock
        # [name, start, end, parent, query]; start and end are clock marks
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.scope = ""                # name of the outermost open span
        self._stack: list[int] = []
        self._queries = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name, opens_query in _SPANS:
            self._patch(owner, attr, self._span(name, getattr(owner, attr), opens_query))
        for owner, attr, name in _COUNTERS:
            self._patch(owner, attr, self._counter(name, getattr(owner, attr)))
        self._patch(bitvec.BitVec, "select", self._select(bitvec.BitVec.select))

    def restore(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def count_skips(self, ix) -> None:
        """Count skip-pointer jumps on one index: the pointer table is a
        dict read with ``get``, so swap in an equal dict that counts hits."""
        ix.skip = _CountingDict(self, ix.skip)

    def _patch(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, opens_query):
        spans, stack, counts = self.spans, self._stack, self.counts
        mark = self.clock.mark
        tracer = self

        def wrapper(*args, **kwargs):
            if stack:
                parent = stack[-1]
                query = spans[parent][4]
            else:
                parent, query = -1, 0
                tracer.scope = name
            if opens_query:
                tracer._queries += 1
                query = tracer._queries
            counts[tracer.scope, name] += 1
            idx = len(spans)
            spans.append([name, mark(), None, parent, query])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = mark()
                stack.pop()
                if not stack:
                    tracer.scope = ""

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            counts[tracer.scope, name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _select(self, fn):
        counts = self.counts
        tracer = self

        def select(bv, k, b=1):
            counts[tracer.scope, "bitvec.BitVec.select1" if b else "bitvec.BitVec.select0"] += 1
            return fn(bv, k, b)

        return select

    # -- reading ---------------------------------------------------------------

    def self_seconds(self, calibrated: bool = True) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans
        cover.  Calibrated, every span of one outermost span is scaled by the
        clock's factor over that outermost span, so self times still add up
        to its calibrated length; otherwise they are CPU time less the
        clock's own sampling time."""
        own = defaultdict(float)
        factor = []
        for name, (t0, s0), (t1, s1), parent, _query in self.spans:
            if parent < 0:
                f = self.clock.factor(t0, t1) if calibrated else 1.0
            else:
                f = factor[parent]
            factor.append(f)
            d = ((t1 - t0) - (s1 - s0)) * f
            own[name] += d
            if parent >= 0:
                own[self.spans[parent][0]] -= d
        return dict(own)

    def calls(self, scope: str, name: str) -> int:
        return self.counts.get((scope, name), 0)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "query"],
                       "mark": ["thread CPU seconds", "of which spent sampling the clock"],
                       "spans": self.spans,
                       "counts": [[s, n, c] for (s, n), c in sorted(self.counts.items())]},
                      fh, separators=(",", ":"))


class _CountingDict(dict):
    def __init__(self, tracer: Tracer, items):
        super().__init__(items)
        self._tracer = tracer

    def get(self, key, default=None):
        value = dict.get(self, key, default)
        if value is not None:
            self._tracer.counts[self._tracer.scope, SKIP_JUMP] += 1
        return value
