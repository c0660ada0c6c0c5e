import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twgi.bitvec import BitVec, LabelSeq
from twgi.errors import BoundsError, NotFoundError


def scan_rank(bits, i, b):
    return sum(1 for p in range(i) if bits[p] == b)


def scan_select(bits, k, b):
    seen = 0
    for p, bit in enumerate(bits):
        if bit == b:
            seen += 1
            if seen == k:
                return p + 1
    return None


class TestBitVecExamples:
    def test_rank_110101(self):
        bv = BitVec("110101")
        assert bv.rank(3, 1) == 2
        assert bv.rank(6, 0) == 2

    def test_rank_empty_prefix(self):
        bv = BitVec("110101")
        assert bv.rank(0, 1) == 0

    def test_select_110101(self):
        bv = BitVec("110101")
        assert bv.select(1, 0) == 3
        assert bv.select(2, 0) == 5

    def test_select_single_bit(self):
        bv = BitVec("1")
        assert bv.select(1, 1) == 1

    def test_rank_out_of_bounds(self):
        bv = BitVec("110101")
        with pytest.raises(BoundsError):
            bv.rank(7, 1)
        with pytest.raises(BoundsError):
            bv.rank(-1, 1)

    def test_select_not_found_distinct_from_bounds(self):
        bv = BitVec("110101")
        with pytest.raises(NotFoundError):
            bv.select(5, 1)
        with pytest.raises(NotFoundError):
            bv.select(3, 0)
        assert not issubclass(NotFoundError, BoundsError)

    def test_invariants_basic(self):
        bv = BitVec("110101")
        assert bv.rank(len(bv), 1) + bv.rank(len(bv), 0) == len(bv)
        for k in range(1, bv.ones + 1):
            assert bv.access(bv.select(k, 1)) == 1


class TestBitVecOracle:
    def test_random_vs_scan(self):
        rng = random.Random(1)
        sizes = [0, 1, 2, 63, 64, 65, 127, 128, 1000, 4096, 100_000]
        for n in sizes:
            dens = rng.choice([0.05, 0.5, 0.95])
            bits = [1 if rng.random() < dens else 0 for _ in range(n)]
            bv = BitVec(bits)
            ones = sum(bits)
            assert bv.ones == ones
            checkpoints = sorted(rng.sample(range(n + 1), min(n + 1, 200)))
            for i in checkpoints:
                assert bv.rank(i, 1) == scan_rank(bits, i, 1)
                assert bv.rank(i, 0) == scan_rank(bits, i, 0)
            for b, total in ((1, ones), (0, n - ones)):
                if total == 0:
                    continue
                for k in sorted(rng.sample(range(1, total + 1), min(total, 100))):
                    assert bv.select(k, b) == scan_select(bits, k, b)

    def test_dense_small_exhaustive(self):
        for n in range(0, 130):
            bits = [(i * 7 + 3) % 5 < 2 for i in range(n)]
            bits = [1 if b else 0 for b in bits]
            bv = BitVec(bits)
            for i in range(n + 1):
                assert bv.rank(i, 1) == scan_rank(bits, i, 1)
            for k in range(1, sum(bits) + 1):
                assert bv.select(k, 1) == scan_select(bits, k, 1)
            for k in range(1, n - sum(bits) + 1):
                assert bv.select(k, 0) == scan_select(bits, k, 0)

    def test_packed_roundtrip(self):
        rng = random.Random(2)
        for n in (0, 5, 64, 65, 777):
            bits = [rng.randint(0, 1) for _ in range(n)]
            bv = BitVec(bits)
            again = BitVec.from_packed(bv.to_packed(), n)
            assert bv == again


class TestConstruction:
    def test_from_packed_drops_bits_past_length(self):
        bv = BitVec.from_packed(b"\xff", 3)
        assert bv.ones == 3
        assert bv.to_packed() == b"\x07"
        assert bv.to01() == "111"
        with pytest.raises(BoundsError):
            BitVec.from_packed(b"\xff", 9)

    @pytest.mark.parametrize("n", [0, 1, 8, 63, 64, 65, 1000])
    def test_list_string_and_array_agree(self, n):
        rng = random.Random(n)
        bits = [rng.randint(0, 1) for _ in range(n)]
        want = BitVec(bits)
        text = "".join(map(str, bits))
        for same in (BitVec(text), BitVec(np.array(bits, np.uint8)),
                     BitVec(np.array(bits, bool)), BitVec(iter(bits))):
            assert same == want
            assert same.ones == want.ones
        assert want.bits().tolist() == bits
        assert want.to01() == text


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=512))
def test_galois_connection(data):
    # select(rank(i,b),b) <= i and rank(select(k,b),b) = k
    bits = []
    for byte in data:
        for s in range(8):
            bits.append((byte >> s) & 1)
    bits = bits[:4096]
    bv = BitVec(bits)
    n = len(bits)
    for b in (0, 1):
        total = bv.rank(n, b)
        for i in range(0, n + 1, max(1, n // 37)):
            r = bv.rank(i, b)
            if r > 0:
                assert bv.select(r, b) <= i
        for k in range(1, total + 1, max(1, total // 37)):
            assert bv.rank(bv.select(k, b), b) == k


class TestLabelSeq:
    @staticmethod
    def make(text, sigma=None):
        alphabet = sorted(set(text))
        amap = {ch: i + 1 for i, ch in enumerate(alphabet)}
        ids = [amap[ch] for ch in text]
        return LabelSeq(ids, sigma or len(alphabet)), amap

    def test_seq_rank_examples(self):
        ls, amap = self.make("abbcca")
        assert ls.rank(4, amap["b"]) == 2
        assert ls.rank(0, amap["a"]) == 0
        assert ls.rank(6, 99) == 0  # absent symbol occurs nowhere

    def test_partial_rank_examples(self):
        ls, _ = self.make("abbcca")
        assert ls.partial_rank(3) == 2
        assert ls.partial_rank(6) == 2
        one, _ = self.make("a")
        assert one.partial_rank(1) == 1

    def test_access_examples(self):
        ls, amap = self.make("abbcca")
        assert ls.access(4) == amap["c"]
        assert ls.access(1) == amap["a"]
        single, amap1 = self.make("x")
        assert single.access(1) == amap1["x"]

    def test_bounds(self):
        ls, _ = self.make("abbcca")
        with pytest.raises(BoundsError):
            ls.access(7)
        with pytest.raises(BoundsError):
            ls.partial_rank(0)

    def test_rank_total_sums(self):
        ls, _ = self.make("abbcca")
        assert sum(ls.count(c) for c in range(1, ls.sigma + 1)) == len(ls)

    @pytest.mark.parametrize("sigma", [1, 2, 4, 65, 255, 256])
    def test_every_position_against_scan(self, sigma):
        # counts are sampled every 128 positions: sequences end before, on
        # and past a sample, and hold the largest id, sigma
        rng = random.Random(sigma)
        for n in (0, 1, 127, 128, 129, 256, 300):
            syms = [rng.randint(1, sigma) for _ in range(n)]
            if n:
                syms[rng.randrange(n)] = sigma
            ls = LabelSeq(syms, sigma)
            seen = [0] * (sigma + 2)
            for i in range(n + 1):
                if i:
                    seen[syms[i - 1]] += 1
                    assert ls.access(i) == syms[i - 1]
                    assert ls.partial_rank(i) == seen[syms[i - 1]]
                assert [ls.rank(i, c) for c in range(sigma + 2)] == [0, *seen[1:-1], 0]
            with pytest.raises(BoundsError):
                ls.rank(n + 1, 1)
            with pytest.raises(BoundsError):
                ls.access(n + 1)

    def test_size_limits(self):
        with pytest.raises(BoundsError, match="larger than 256"):
            LabelSeq([1, 2], 257)
        # a view of one value: no memory for 2**31 symbols is taken
        with pytest.raises(BoundsError, match="32-bit"):
            LabelSeq(np.broadcast_to(np.int64(1), (1 << 31,)), 1)

    @pytest.mark.parametrize("sigma", [2, 5, 64, 65, 130, 256])
    def test_against_scan(self, sigma):
        rng = random.Random(sigma)
        n = 600
        syms = [rng.randint(1, sigma) for _ in range(n)]
        ls = LabelSeq(syms, sigma)
        for i in sorted(rng.sample(range(n + 1), 60)):
            for c in rng.sample(range(1, sigma + 1), min(sigma, 8)):
                assert ls.rank(i, c) == sum(1 for v in syms[:i] if v == c)
        for i in range(1, n + 1, 7):
            assert ls.access(i) == syms[i - 1]
            assert ls.partial_rank(i) == ls.rank(i, syms[i - 1])
        for c in rng.sample(range(1, sigma + 1), min(sigma, 8)):
            total = ls.count(c)
            for k in range(1, total + 1, max(1, total // 11)):
                pos = ls.select(k, c)
                assert syms[pos - 1] == c
                assert ls.rank(pos, c) == k
        with pytest.raises(NotFoundError):
            ls.select(n + 1, 1)
