"""Checks of the benchmark's own parts.  Run with ``python3 -m pytest perfbench``."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import corpora  # noqa: E402
import layout  # noqa: E402
from clock import Clock  # noqa: E402
from tracing import Tracer  # noqa: E402
from twgi import persist, text_index  # noqa: E402
from twgi.bitvec import BitVec  # noqa: E402


def _suite_conftest():
    spec = importlib.util.spec_from_file_location("suite_conftest", ROOT / "tests" / "conftest.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


suite = _suite_conftest()


def test_corpora_match_the_test_suite_generators():
    assert corpora.fibonacci_word(bench.SIZE) == suite.fibonacci_word(bench.SIZE)
    assert (corpora.copy_paste_mutate(random.Random(bench.CPM4_SEED), bench.SIZE, 4)
            == suite.copy_paste_mutate(random.Random(bench.CPM4_SEED), bench.SIZE, 4))
    assert (corpora.random_text(random.Random(bench.RAND96_SEED), bench.SIZE, 96)
            == suite.random_text(random.Random(bench.RAND96_SEED), bench.SIZE, 96))
    for name in bench.WORKLOADS:
        assert len(bench.WORKLOADS[name].corpus()) == bench.SIZE


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_count_patterns_are_make_patterns(seed):
    text = corpora.fibonacci_word(3000)
    assert (corpora.count_patterns(random.Random(seed), text, 200)
            == suite.make_patterns(random.Random(seed), text, 200, max_len=16, min_len=4))


def test_naive_positions_match_the_suite_oracle():
    rng = random.Random(5)
    text = suite.copy_paste_mutate(rng, 600, 3)
    for pat in suite.make_patterns(rng, text, 150, max_len=6):
        assert corpora.naive_positions(text, pat) == suite.naive_locate(text, pat)


def test_locate_patterns_occur_and_respect_the_cap():
    text = corpora.fibonacci_word(4000)
    for pat in corpora.locate_patterns(random.Random(1), text, 30, max_occ=40, max_len=200):
        occ = len(corpora.naive_positions(text, pat))
        assert 1 <= occ
        assert occ <= 40 or len(pat) == 200
        shorter = len(corpora.naive_positions(text, pat[:-1])) if len(pat) > 1 else None
        assert shorter is None or shorter > 40


@pytest.mark.parametrize("tunneling", [True, False])
def test_section_bits_add_up_to_the_file(tunneling):
    data = persist.serialize_index(
        text_index.build_index(corpora.fibonacci_word(2000), tunneling=tunneling))
    bits = layout.section_bits(data)
    assert list(bits) == [*layout.SECTIONS, "framing"]
    assert sum(bits.values()) == 8 * len(data)
    assert bits["framing"] == 8 * (12 + 4 * len(layout.SECTIONS))


def test_section_bits_reject_a_damaged_file():
    data = bytearray(persist.serialize_index(text_index.build_index(b"abracadabra" * 20)))
    data[20] ^= 1
    with pytest.raises(layout.LayoutError):
        layout.section_bits(bytes(data))


def test_tracer_spans_nest_and_restore():
    originals = (text_index.build_index, text_index.TextIndex.count,
                 text_index.TextIndex._fstep, BitVec.select)
    with Clock() as clock:
        tracer = Tracer(clock)
        tracer.install()
        try:
            ix = text_index.build_index(corpora.fibonacci_word(3000))
            assert ix.count(b"abaab") == len(corpora.naive_positions(corpora.fibonacci_word(3000), b"abaab"))
        finally:
            tracer.restore()
        own = tracer.self_seconds()
        build = next(s for s in tracer.spans if s[0] == "text_index.build_index")
        total = clock.seconds(build[1], build[2])
    assert originals == (text_index.build_index, text_index.TextIndex.count,
                         text_index.TextIndex._fstep, BitVec.select)
    phases = sum(own.get(span, 0.0) for span in bench.BUILD_PHASES)
    assert phases == pytest.approx(total)
    count_span = next(s for s in tracer.spans if s[0] == "text_index.count")
    assert count_span[4] == 1 and count_span[3] == -1
    assert tracer.calls("text_index.count", "tunnel.search_pairs") == 1
    assert tracer.calls("text_index.build_index", "bitvec.BitVec.select0") > 0
