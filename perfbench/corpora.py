"""Seeded corpora, query sets and naive answers for the benchmark.

The three text generators reproduce the ones the test suite uses
(``tests/conftest.py``) byte for byte, so a corpus named here is the same
text the tests run on.  The library only ever receives the generated bytes.
"""

from __future__ import annotations

import random


def fibonacci_word(nbytes: int) -> bytes:
    a, b = b"a", b"ab"
    while len(b) < nbytes:
        a, b = b, b + a
    return b[:nbytes]


def copy_paste_mutate(rng: random.Random, size: int, sigma: int) -> bytes:
    alpha = bytes(range(97, 97 + sigma)) if sigma <= 26 else bytes(range(256))[:sigma]
    out = bytearray(rng.choice(alpha) for _ in range(max(4, size // 16)))
    while len(out) < size:
        if rng.random() < 0.8 and len(out) > 4:
            start = rng.randrange(len(out))
            span = rng.randint(1, min(len(out) - start, size - len(out)))
            out += out[start:start + span]
        else:
            out.append(rng.choice(alpha))
        if rng.random() < 0.15:
            out[rng.randrange(len(out))] = rng.choice(alpha)
    return bytes(out[:size])


def random_text(rng: random.Random, size: int, sigma: int) -> bytes:
    if sigma <= 26:
        alpha = bytes(range(97, 97 + sigma))
    else:
        alpha = bytes(range(sigma))
    return bytes(rng.choice(alpha) for _ in range(size))


def make_patterns(rng: random.Random, text: bytes, count: int,
                  max_len: int = 32, min_len: int = 1) -> list[bytes]:
    """Mixed present/absent patterns drawn from and around the text."""
    pats = []
    n = len(text)
    alpha = sorted(set(text)) or [97]
    while len(pats) < count:
        roll = rng.random()
        ln = rng.randint(min_len, max_len)
        if roll < 0.6 and n:
            i = rng.randrange(n)
            p = bytearray(text[i:i + min(ln, n - i)])
            if not p:
                continue
            if roll < 0.15:  # mutate one byte: usually turns it negative
                p[rng.randrange(len(p))] = rng.choice(alpha) ^ 1
            pats.append(bytes(p))
        else:
            pats.append(bytes(rng.choice(alpha) for _ in range(ln)))
    return pats


def naive_positions(text: bytes, pat: bytes) -> list[int]:
    """Ascending 1-based start positions of every (overlapping) occurrence,
    by a left-to-right scan of the text."""
    out = []
    i = text.find(pat)
    while i >= 0:
        out.append(i + 1)
        i = text.find(pat, i + 1)
    return out


def count_patterns(rng: random.Random, text: bytes, count: int) -> list[bytes]:
    """Count queries: 4 to 16 bytes, present and absent mixed."""
    return make_patterns(rng, text, count, max_len=16, min_len=4)


def locate_patterns(rng: random.Random, text: bytes, count: int,
                    max_occ: int, max_len: int) -> list[bytes]:
    """Locate queries: substrings at seeded positions, so each occurs.

    Each takes the shortest length at which the substring occurs at most
    ``max_occ`` times, which keeps per-query locate work in the tens to
    hundreds of occurrences on repetitive text (occurrences only drop as a
    pattern grows from a fixed start, so a binary search finds it).
    """
    n = len(text)
    pats = []
    for _ in range(count):
        i = rng.randrange(n - max_len + 1)
        lo, hi = 1, max_len
        while lo < hi:
            mid = (lo + hi) // 2
            if len(naive_positions(text, text[i:i + mid])) <= max_occ:
                hi = mid
            else:
                lo = mid + 1
        pats.append(text[i:i + lo])
    return pats


def extract_windows(rng: random.Random, text: bytes, count: int,
                    length: int) -> list[int]:
    """Extract queries: 1-based starts of ``length``-byte windows."""
    return [rng.randint(1, len(text) - length + 1) for _ in range(count)]
