"""The random draws every model's bytes rest on, written out over PCG64's raw stream.

numpy keeps each BitGenerator's raw stream stable across releases (NEP 19),
but a ``Generator`` method may change its algorithm in any release. The
codebook is ``random``, the epoch shuffle ``permutation`` and k-means++
``integers`` and ``choice(p=...)``; each is checked here against its
algorithm over ``PCG64.random_raw()``, so a numpy upgrade that changes one
fails here by name rather than only as a changed golden digest.
"""

import bisect
import itertools

import numpy as np
import pytest

SEEDS = (0, 42, 2**63 + 5)


class Raw:
    """The outputs a ``Generator`` takes from one PCG64 stream.

    A 64-bit draw is one raw output. 32-bit draws split an output, low half
    first, and keep the high half for the next 32-bit draw, whatever 64-bit
    draws come between.
    """

    def __init__(self, seed):
        self._bits = np.random.PCG64(seed)
        self._high = None

    def next64(self) -> int:
        return int(self._bits.random_raw())

    def next32(self) -> int:
        if self._high is not None:
            value, self._high = self._high, None
            return value
        raw = self.next64()
        self._high = raw >> 32
        return raw & 0xFFFFFFFF


def random(raw: Raw) -> float:
    """A double in [0, 1): the top 53 bits of a 64-bit draw."""
    return (raw.next64() >> 11) * 2.0**-53


def permutation(raw: Raw, n: int) -> list[int]:
    """Fisher-Yates from the top; each index by masked rejection on 32-bit draws."""
    items = list(range(n))
    for i in range(n - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        j = raw.next32() & mask
        while j > i:
            j = raw.next32() & mask
        items[i], items[j] = items[j], items[i]
    return items


def integers(raw: Raw, n: int) -> int:
    """Lemire's bounded method on 32-bit draws, for 1 <= n < 2**32."""
    if n == 1:
        return 0
    m = raw.next32() * n
    if m & 0xFFFFFFFF < n:
        threshold = (2**32 - n) % n
        while m & 0xFFFFFFFF < threshold:
            m = raw.next32() * n
    return m >> 32


def choice(raw: Raw, p: list[float]) -> int:
    """The first index whose normalized cumulative sum exceeds one uniform draw."""
    cdf = list(itertools.accumulate(p))
    cdf = [c / cdf[-1] for c in cdf]
    return bisect.bisect_right(cdf, random(raw))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", [(1, 1), (40, 8), (7, 3)])
def test_random_is_the_top_53_bits(seed, shape):
    raw = Raw(seed)
    expected = [random(raw) for _ in range(np.prod(shape))]
    drawn = np.random.default_rng(seed).random(shape)
    assert drawn.ravel().tolist() == expected, "Generator.random changed its algorithm"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [1, 2, 7, 500, 5000])
def test_permutation_is_fisher_yates_with_masked_rejection(seed, n):
    # As training seeds its shuffle; the 32-bit buffer carries across epochs.
    sequence = np.random.SeedSequence(seed, spawn_key=(1,))
    rng = np.random.default_rng(sequence)
    raw = Raw(sequence)
    for epoch in range(3):
        assert rng.permutation(n).tolist() == permutation(raw, n), (
            f"Generator.permutation changed its algorithm (epoch {epoch})"
        )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 2**31 + 1, 2**32 - 1])
def test_integers_is_lemires_method(seed, n):
    rng = np.random.default_rng(seed)
    raw = Raw(seed)
    for _ in range(50):
        assert int(rng.integers(n)) == integers(raw, n), "Generator.integers changed its algorithm"
    # integers(1) draws nothing: both streams are still in step.
    assert rng.random() == random(raw), "Generator.integers changed how many draws it takes"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [1, 2, 5, 64])
def test_choice_with_weights_searches_the_cumulative_sum(seed, n):
    # As k-means++ draws: one integers(n), then choice(n, p=...) for each
    # further centroid, so 32-bit and 64-bit draws interleave.
    sequence = np.random.SeedSequence(seed, spawn_key=(3,))
    weights = np.random.default_rng(seed).random((8, n)) ** 3
    rng = np.random.default_rng(sequence)
    raw = Raw(sequence)
    assert int(rng.integers(n)) == integers(raw, n), "Generator.integers changed its algorithm"
    for w in weights:
        p = w / w.sum()
        assert int(rng.choice(n, p=p)) == choice(raw, p.tolist()), (
            "Generator.choice(p=...) changed its algorithm"
        )
