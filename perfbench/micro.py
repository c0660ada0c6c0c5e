"""ns per call of the primitives every query and build step pays for.

Each primitive runs on the workload's own loaded index with seeded
arguments: one warm-up pass over the argument list, then several timed
passes, of which the median is reported.  A pass includes the Python call
itself, as every caller inside the library pays it too.  Passes are timed
on a ``clock.Clock``.
"""

from __future__ import annotations

import random
import statistics

from clock import Clock
from twgi.bitvec import BitVec, LabelSeq
from twgi.text_index import StepCounter, TextIndex
from twgi.tunnel import TraversalPos, TunneledGraph
from twgi.wheeler import NodeRange, WheelerGraph

_PASSES = 5
_PATTERN_LEN = 16


def ns_per_call(clock: Clock, fn, args: list[tuple]) -> float:
    for a in args:
        fn(*a)
    per_pass = []
    for _ in range(_PASSES):
        m0 = clock.mark()
        for a in args:
            fn(*a)
        per_pass.append(clock.seconds(m0, clock.mark()) * 1e9 / len(args))
    return statistics.median(per_pass)


def text_states(ix: TextIndex) -> list[tuple[int, int]]:
    """(node, offset) of every text position, by walking the whole text
    from the source: the valid arguments of ``_fstep``."""
    counter = StepCounter()
    node, off = 1, 1
    states = [(node, off)]
    for _ in range(ix.text_len):
        node, off, _byte = ix._fstep(node, off, counter)
        states.append((node, off))
    return states[:-1]  # the sink has no out-edge


def measure(ix: TextIndex, text: bytes, seed: int, clock: Clock) -> dict[str, float]:
    rng = random.Random(seed)
    tg = ix.tg
    g = tg.g
    bvs = (g.I, g.O)
    out = {}

    def ranks(k):
        return [(bv, rng.randint(0, bv.n)) for bv in bvs for _ in range(k)]

    def selects(b, k):
        return [(bv, rng.randint(1, bv.ones if b else bv.zeros), b)
                for bv in bvs for _ in range(k)]

    out["bitvec.BitVec.rank_ns"] = ns_per_call(clock, BitVec.rank, ranks(2000))
    out["bitvec.BitVec.select1_ns"] = ns_per_call(clock, BitVec.select, selects(1, 1000))
    out["bitvec.BitVec.select0_ns"] = ns_per_call(clock, BitVec.select, selects(0, 1000))

    L = g.L
    out["bitvec.LabelSeq.rank_ns"] = ns_per_call(
        clock, LabelSeq.rank, [(L, rng.randint(0, L.n), rng.randint(1, g.sigma)) for _ in range(2000)])
    out["bitvec.LabelSeq.partial_rank_ns"] = ns_per_call(
        clock, LabelSeq.partial_rank, [(L, rng.randint(1, L.n)) for _ in range(2000)])
    out["bitvec.LabelSeq.access_ns"] = ns_per_call(
        clock, LabelSeq.access, [(L, rng.randint(1, L.n)) for _ in range(4000)])

    out["wheeler.edge_target_ns"] = ns_per_call(
        clock, WheelerGraph.edge_target, [(g, rng.randint(1, g.m)) for _ in range(2000)])
    spans = []
    for _ in range(2000):
        lo = rng.randint(1, g.n)
        spans.append((g, NodeRange(lo, rng.randint(lo, g.n)), rng.randint(1, g.sigma)))
    out["wheeler.edge_range_for_label_ns"] = ns_per_call(clock, WheelerGraph.edge_range_for_label, spans)
    sources = [v for v in (rng.randint(1, g.n) for _ in range(3000)) if g.outdeg(v)]
    out["wheeler.out_edge_rank_ns"] = ns_per_call(
        clock, WheelerGraph.out_edge_rank,
        [(g, v, g.L.access(g._lstart[v] + 1), 1) for v in sources[:2000]])

    states = text_states(ix)
    counter = StepCounter()
    out["text_index.fstep_ns"] = ns_per_call(
        clock, TextIndex._fstep, [(ix, *rng.choice(states), counter) for _ in range(1000)])
    out["text_index.node_width_ns"] = ns_per_call(
        clock, TextIndex.node_width, [(ix, rng.randint(1, g.n)) for _ in range(1000)])
    out["text_index.locate_one_ns"] = ns_per_call(
        clock, TextIndex.locate_one, [(ix, TraversalPos(*rng.choice(states))) for _ in range(300)])

    starts = [rng.randrange(len(text) - _PATTERN_LEN + 1) for _ in range(200)]
    out["tunnel.path_search_ns_per_symbol"] = ns_per_call(
        clock, TunneledGraph._search_pairs,
        [(tg, text[i:i + _PATTERN_LEN]) for i in starts]) / _PATTERN_LEN
    return out
