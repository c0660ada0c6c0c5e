"""The benchmark proper: set up one workload, time its query mix, check
every answer, and compute the metrics named in ``BENCHMARK.json``.

Every run goes through the library's public functions the way a user
does: generate the text and queries from the seed, ``build_index``,
``serialize_index`` and write the file, ``load_index``, then answer the
query mix on the reloaded index.  The untraced run reports end-to-end
figures; the traced run repeats the pipeline with spans and counters
installed (see ``tracing.py``) and adds the micro-timings of ``micro.py``
and the section sizes decoded by ``layout.py``.  Times of builds, loads,
queries, spans and primitives are read from a ``clock.Clock``.
"""

from __future__ import annotations

import gc
import math
import random
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

from twgi import persist, text_index

import layout
import micro
from corpora import (copy_paste_mutate, count_patterns, extract_windows,
                     fibonacci_word, locate_patterns, naive_positions,
                     random_text)
from clock import Clock
from tracing import SKIP_JUMP, Tracer

SIZE = 20_000
# The corpora are fixed; --seed draws the queries.  Build time and bits per
# symbol are properties of one text: across copy-paste seeds 1-6 the same
# generator gives 7.2 to 21.9 bits/symbol and builds 1.7 times apart, a
# spread no regression bound could hold.
CPM4_SEED = 4
RAND96_SEED = 1

COUNT_QUERIES = 1500
LOCATE_QUERIES = 300
EXTRACT_QUERIES = 1500
LOCATE_MAX_OCC = 256
LOCATE_MAX_LEN = 256
EXTRACT_LEN = 64
SETUPS = 3
LOADS = 9  # a load is short, so load_s takes more samples than the set-ups give
# p99 keeps 10 samples above it from 1000 samples on, p95 from 200 on
MIN_SAMPLES = {"count": 1000, "locate": 200, "extract": 1000}
KINDS = ("count", "locate", "extract")


@dataclass(frozen=True)
class Workload:
    corpus: Callable[[], bytes]
    tunneling: bool
    mix: dict[str, int]  # queries of each kind per round of the closed loop


WORKLOADS = {
    "cpm4-build": Workload(lambda: copy_paste_mutate(random.Random(CPM4_SEED), SIZE, 4),
                           True, {"count": 5, "locate": 1, "extract": 5}),
    "fib-locate": Workload(lambda: fibonacci_word(SIZE),
                           True, {"count": 5, "locate": 1, "extract": 5}),
    "fib-locate-plain": Workload(lambda: fibonacci_word(SIZE),
                                 False, {"count": 5, "locate": 1, "extract": 5}),
    "rand96-count": Workload(lambda: random_text(random.Random(RAND96_SEED), SIZE, 96),
                             True, {"count": 20, "locate": 1, "extract": 5}),
}


# ---------------------------------------------------------------------------
# inputs


def make_queries(text: bytes, seed: int) -> dict[str, list[tuple]]:
    """Each query paired with its naive answer."""
    rng = random.Random(seed)
    count = [(p, len(naive_positions(text, p)))
             for p in count_patterns(rng, text, COUNT_QUERIES)]
    locate = [(p, naive_positions(text, p))
              for p in locate_patterns(rng, text, LOCATE_QUERIES, LOCATE_MAX_OCC, LOCATE_MAX_LEN)]
    extract = [(s, text[s - 1:s - 1 + EXTRACT_LEN])
               for s in extract_windows(rng, text, EXTRACT_QUERIES, EXTRACT_LEN)]
    return {"count": count, "locate": locate, "extract": extract}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


@dataclass
class Setup:
    text: bytes
    queries: dict[str, list[tuple]]
    index: object
    file_bytes: int
    setup_s: float
    build_s: float
    build_raw_s: float  # CPU time less the clock's sampling time
    load_s: float
    build_peak_mb: float


def set_up(wl: Workload, seed: int, path: Path, clock: Clock) -> Setup:
    """Generate, build, serialize, write and load once.  The memory figure
    is only meaningful for the first build of a fresh process."""
    m0 = clock.mark()
    text = wl.corpus()
    queries = make_queries(text, seed)
    rss0 = _maxrss_mb()
    m1 = clock.mark()
    ix = text_index.build_index(text, tunneling=wl.tunneling)
    m2 = clock.mark()
    rss1 = _maxrss_mb()
    data = persist.serialize_index(ix)
    ix = None
    with open(path, "wb") as fh:
        fh.write(data)
    m3 = clock.mark()
    loaded = persist.load_index(path)
    m4 = clock.mark()
    return Setup(text, queries, loaded, len(data), clock.seconds(m0, m4),
                 clock.seconds(m1, m2), (m2[0] - m1[0]) - (m2[1] - m1[1]),
                 clock.seconds(m3, m4), rss1 - rss0)


# ---------------------------------------------------------------------------
# the query loop


@dataclass
class Tally:
    clock: Clock
    marks: dict[str, list[tuple]] = field(default_factory=lambda: {k: [] for k in KINDS})
    cursor: dict[str, int] = field(default_factory=lambda: dict.fromkeys(KINDS, 0))
    attempted: int = 0
    failed: int = 0
    occurrences: int = 0
    failures: list[str] = field(default_factory=list)

    def enough(self) -> bool:
        return all(len(self.marks[k]) >= MIN_SAMPLES[k] for k in KINDS)

    def seconds(self, kind: str) -> list[float]:
        """Calibrated time of each answered query of one kind."""
        return [self.clock.seconds(m0, m1) for m0, m1 in self.marks[kind]]

    def run(self, ix, queries, kind: str) -> None:
        """One query, timed and checked; an exception or a wrong answer is a
        failed operation and gives no timing sample."""
        qs = queries[kind]
        arg, want = qs[self.cursor[kind] % len(qs)]
        self.cursor[kind] += 1
        self.attempted += 1
        args = (arg, EXTRACT_LEN) if kind == "extract" else (arg,)
        fn = getattr(ix, kind)
        m0 = self.clock.mark()
        try:
            got = fn(*args)
        except Exception as exc:  # a failed query is counted, not fatal
            self._fail(kind, arg, repr(exc))
            return
        m1 = self.clock.mark()
        if got != want:
            self._fail(kind, arg, f"got {got!r:.80}, expected {want!r:.80}")
            return
        self.marks[kind].append((m0, m1))
        if kind == "locate":
            self.occurrences += len(got)

    def _fail(self, kind, arg, why) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{kind}({arg!r:.40}): {why}")


def run_queries(ix, queries, mix: dict[str, int], tally: Tally, *,
                seconds: float | None = None, rounds: int | None = None,
                need_samples: bool = True) -> int:
    """Closed loop, one query at a time, in rounds of the workload's mix.
    Runs ``rounds`` rounds, or for ``seconds`` and on until every kind has
    the samples its tail percentile needs (at most ``4 * seconds`` in all)."""
    gc.collect()
    done = 0
    if rounds is None:
        start = perf_counter()
        until, hard_stop = start + seconds, start + 4 * seconds

        def more():
            now = perf_counter()
            return now < until or (need_samples and not tally.enough() and now < hard_stop)
    else:
        def more():
            return done < rounds
    while more():
        for kind, k in mix.items():
            for _ in range(k):
                tally.run(ix, queries, kind)
        done += 1
    return done


# ---------------------------------------------------------------------------
# metrics


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(samples)
    return s[max(0, math.ceil(p / 100 * len(s)) - 1)]


def query_metrics(t: Tally) -> dict[str, float]:
    us = {k: [s * 1e6 for s in t.seconds(k)] for k in KINDS}
    if not all(us.values()) or not t.occurrences:
        raise RuntimeError(f"no timing left after {t.failed} failed queries")
    return {
        "count_us_p50": statistics.median(us["count"]),
        "count_us_p99": percentile(us["count"], 99),
        "locate_us_p50": statistics.median(us["locate"]),
        "locate_us_p95": percentile(us["locate"], 95),
        "locate_us_per_occ": sum(us["locate"]) / t.occurrences,
        "extract_us_p50": statistics.median(us["extract"]),
        "extract_us_p99": percentile(us["extract"], 99),
    }


def end_to_end(name: str, seed: int, seconds: float, work: Path, clock: Clock):
    """Set up ``SETUPS`` times, then run the query mix on the last index."""
    wl = WORKLOADS[name]
    path = work / f"{name}-{seed}.twgi"
    setups: list[Setup] = []
    for _ in range(SETUPS):
        if setups:
            setups[-1].index = None  # one index alive at a time
        setups.append(set_up(wl, seed, path, clock))
    loads = [s.load_s for s in setups]
    while len(loads) < LOADS:
        m0 = clock.mark()
        persist.load_index(path)
        loads.append(clock.seconds(m0, clock.mark()))
    path.unlink()
    last = setups[-1]
    tally = Tally(clock)
    run_queries(last.index, last.queries, wl.mix, tally, seconds=seconds)
    metrics = {
        "setup_s": statistics.median(s.setup_s for s in setups),
        "build_s": statistics.median(s.build_s for s in setups),
        "build_peak_mb": setups[0].build_peak_mb,
        "load_s": statistics.median(loads),
        "bits_per_symbol": 8 * last.file_bytes / len(last.text),
        **query_metrics(tally),
    }
    return metrics, tally


BUILD_PHASES = {  # span -> metric; self times, so they partition the build
    "text_index.suffix_array": "text_index.suffix_array_s",
    "text_index.string_graph": "text_index.string_graph_s",
    "tunnel.find_string_blocks": "tunnel.find_string_blocks_s",
    "tunnel.expand": "tunnel.expand_s",
    "tunnel.tunnel_graph": "tunnel.tunnel_graph_s",
    "text_index.build_index": "text_index.sampling_s",
}
COUNTED = ("bitvec.BitVec.rank", "bitvec.BitVec.select0", "bitvec.BitVec.select1",
           "bitvec.LabelSeq.access", "bitvec.LabelSeq.rank",
           "bitvec.LabelSeq.partial_rank", "bitvec.LabelSeq.select",
           "wheeler.edge_target")
WIDTH_BUCKETS = ((2, 3), (4, 7), (8, 15), (16, None))
LENGTH_BUCKETS = ((2, 7), (8, 31), (32, 127), (128, None))


def _histogram(prefix: str, values: list[int], buckets) -> dict[str, int]:
    out = {}
    for lo, hi in buckets:
        name = f"{prefix}.{lo}-{hi if hi is not None else 'up'}"
        out[name] = sum(1 for v in values if v >= lo and (hi is None or v <= hi))
    return out


def traced(name: str, seed: int, seconds: float, work: Path, clock: Clock):
    """Untraced pass, then the same pipeline and the same number of query
    rounds with tracing installed; their difference is the overhead."""
    wl = WORKLOADS[name]
    path = work / f"{name}-{seed}.twgi"
    base = set_up(wl, seed, path, clock)
    plain = Tally(clock)
    rounds = run_queries(base.index, base.queries, wl.mix, plain,
                         seconds=seconds / 2, need_samples=False)
    tracer = Tracer(clock)
    tracer.install()
    try:
        tr = set_up(wl, seed, path, clock)
        tracer.count_skips(tr.index)
        tally = Tally(clock)
        run_queries(tr.index, tr.queries, wl.mix, tally, rounds=rounds)
    finally:
        tracer.restore()
    bits = layout.section_bits(path.read_bytes())
    path.unlink()
    timings = micro.measure(base.index, base.text, seed, clock)
    tracer.dump(work / f"trace-{name}-{seed}.json")

    raw = tracer.self_seconds(calibrated=False)
    if sum(raw.get(span, 0.0) for span in BUILD_PHASES) > tr.build_raw_s:
        raise RuntimeError("build-phase spans exceed the traced build time")
    own = tracer.self_seconds()
    phases = {metric: own.get(span, 0.0) for span, metric in BUILD_PHASES.items()}
    n_count, n_extract = tally.cursor["count"], tally.cursor["extract"]
    occ, nbytes = tally.occurrences, EXTRACT_LEN * n_extract
    per = {"text_index.build_index": ("build", 1), "text_index.count": ("count_per_query", n_count),
           "text_index.locate": ("locate_per_occ", occ),
           "text_index.extract": ("extract_per_byte", nbytes)}
    metrics = {**timings, **phases,
               "persist.serialize_s": own["persist.serialize_index"],
               "persist.deserialize_s": own["persist.deserialize_index"],
               "text_index.count.self_us_per_query": own["text_index.count"] * 1e6 / n_count,
               "text_index.locate.self_us_per_occ": own["text_index.locate"] * 1e6 / occ,
               "text_index.extract.self_us_per_byte": own["text_index.extract"] * 1e6 / nbytes}
    for span in ("tunnel.search_pairs", "text_index.node_width", "text_index.locate_one"):
        calls = sum(c for (_, n), c in tracer.counts.items() if n == span)
        metrics[f"{span}.self_us_per_call"] = own.get(span, 0.0) * 1e6 / max(calls, 1)
    for counter in COUNTED:
        for scope, (suffix, denom) in per.items():
            metrics[f"{counter}.{suffix}"] = tracer.calls(scope, counter) / denom
    metrics.update({
        "text_index.locate.fsteps_per_occ": tracer.calls("text_index.locate", "text_index.fstep") / occ,
        "text_index.locate.skips_per_occ": tracer.calls("text_index.locate", SKIP_JUMP) / occ,
        "text_index.count.width_evals_per_query":
            tracer.calls("text_index.count", "text_index.node_width") / n_count,
        "text_index.extract.fsteps_per_byte": tracer.calls("text_index.extract", "text_index.fstep") / nbytes,
    })

    tg = base.index.tg
    metrics["tunnel.count"] = len(tg.tunnels)
    metrics["tunnel.merged_edges"] = (base.index.n - 1) - tg.g.m
    metrics.update(_histogram("tunnel.width", [t.width for t in tg.tunnels], WIDTH_BUCKETS))
    metrics.update(_histogram("tunnel.length", [t.length for t in tg.tunnels], LENGTH_BUCKETS))
    metrics.update({f"persist.bits.{sec}": b for sec, b in bits.items() if sec in layout.SECTIONS})
    metrics["persist.bits.framing"] = bits["framing"]

    q_plain, q_traced = query_metrics(plain), query_metrics(tally)
    metrics["perfbench.trace_overhead.build_s"] = tr.build_s - base.build_s
    metrics["perfbench.trace_overhead.load_s"] = tr.load_s - base.load_s
    for m in ("count_us_p50", "locate_us_per_occ", "extract_us_p50"):
        metrics[f"perfbench.trace_overhead.{m}"] = q_traced[m] - q_plain[m]

    both = Tally(clock, attempted=plain.attempted + tally.attempted, failed=plain.failed + tally.failed,
                 failures=plain.failures + tally.failures)
    return metrics, both
