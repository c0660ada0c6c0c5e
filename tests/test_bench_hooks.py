"""The benchmark's hooks into the library stay callable.

``perfbench/`` wraps library functions by name at run time and times a set
of primitives on a loaded index.  A renamed or removed one would otherwise
show only in a traced benchmark run.
"""

import math
import sys
from pathlib import Path

import pytest

from conftest import SMALL_TEXTS, naive_locate

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import micro  # noqa: E402
import tracing  # noqa: E402
from clock import _MIN_SAMPLES, Clock  # noqa: E402
from twgi import persist, text_index  # noqa: E402

HOOKS = [(owner, attr) for owner, attr, *_ in tracing._SPANS + tracing._COUNTERS]


@pytest.mark.parametrize("owner,attr", HOOKS,
                         ids=[f"{getattr(o, '__name__', o)}.{a}" for o, a in HOOKS])
def test_traced_hook_is_callable(owner, attr):
    assert callable(getattr(owner, attr, None))


def test_micro_timings_are_finite(small_index):
    with Clock() as clock:
        # a small index can finish its first pass inside one sampling
        # period, before the clock holds a reference sample to scale by
        while len(clock._took) < _MIN_SAMPLES:
            pass
        timings = micro.measure(small_index("fib"), SMALL_TEXTS["fib"], 1, clock)
    assert len(timings) == 13
    for name, value in timings.items():
        assert math.isfinite(value) and value > 0, name


def test_build_phase_spans():
    # the bench times the build by these spans; each phase runs once, and
    # block columns come from the rank table, not from StringBlock.expand
    with Clock() as clock:
        tracer = tracing.Tracer(clock)
        tracer.install()
        try:
            text_index.build_index(SMALL_TEXTS["fib"])
        finally:
            tracer.restore()
    names = [span[0] for span in tracer.spans]
    assert names.count("tunnel.find_string_blocks") == 1
    assert names.count("tunnel.tunnel_graph") == 1
    assert "tunnel.expand" not in names


def test_count_skips_installs_on_a_loaded_index(small_index):
    # the bench's traced run swaps a counting dict in for ix.skip, which
    # TextIndex makes on every load; no walk reads the pointers, and a
    # traced locate on the swapped index still answers
    text = SMALL_TEXTS["cpm4"]
    ix = persist.deserialize_index(persist.serialize_index(small_index("cpm4")))
    skip = dict(ix.skip)
    with Clock() as clock:
        tracer = tracing.Tracer(clock)
        tracer.install()
        try:
            tracer.count_skips(ix)
            for i in range(0, len(text) - 6, 3):
                assert ix.locate(text[i:i + 6]) == naive_locate(text, text[i:i + 6])
        finally:
            tracer.restore()
    assert ix.skip == skip and type(ix.skip) is not dict
    locates = tracer.counts["text_index.locate", "text_index.locate"]
    assert locates == len(range(0, len(text) - 6, 3))
