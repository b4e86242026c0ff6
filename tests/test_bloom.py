"""Tests for the Bloom filters guarding read-store runs."""

from __future__ import annotations

import struct
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bloom import (
    BloomFilter,
    COMBINED_FILTER_BITS,
    DEFAULT_FILTER_BITS,
    fit_bits,
)


def _reference_shrink_to(bloom: BloomFilter, target_bits: int) -> None:
    """The byte-wise halving ``shrink_to`` replaced; the fold's reference."""
    while bloom.num_bits > target_bits and bloom.num_bits > 8:
        half_bytes = len(bloom._bits) // 2
        lower = bloom._bits[:half_bytes]
        upper = bloom._bits[half_bytes:]
        bloom._bits = bytearray(a | b for a, b in zip(lower, upper))
        bloom.num_bits //= 2


def _filled(blocks, num_bits):
    bloom = BloomFilter(num_bits)
    bloom.add_many(blocks)
    return bloom


class TestBasics:
    def test_empty_filter_contains_nothing(self):
        bloom = BloomFilter(1024)
        assert not bloom.might_contain(42)
        assert bloom.num_items == 0
        assert bloom.expected_false_positive_rate() == 0.0

    def test_added_items_always_found(self):
        bloom = BloomFilter(4096)
        for block in range(100):
            bloom.add(block * 7)
        for block in range(100):
            assert bloom.might_contain(block * 7)

    def test_add_all(self):
        bloom = BloomFilter(4096)
        bloom.add_many(range(50))
        assert all(bloom.might_contain(b) for b in range(50))
        assert bloom.num_items == 50

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BloomFilter(0)
        with pytest.raises(ValueError):
            BloomFilter(1024, num_hashes=0)

    def test_size_rounded_to_power_of_two(self):
        bloom = BloomFilter(1000)
        assert bloom.num_bits == 1024

    def test_default_sizes_match_paper(self):
        """32 KB default filters, 1 MB cap for the Combined store (§5.1)."""
        assert DEFAULT_FILTER_BITS == 32 * 1024 * 8
        assert COMBINED_FILTER_BITS == 1024 * 1024 * 8


class TestFalsePositiveRate:
    def test_paper_configuration_false_positive_rate(self):
        """32 KB filter, 4 hashes, 32 000 items: expected FP rate around 2.4 %."""
        bloom = BloomFilter(DEFAULT_FILTER_BITS, num_hashes=4)
        for block in range(32_000):
            bloom.add(block)
        rate = bloom.expected_false_positive_rate()
        assert 0.01 < rate < 0.05
        # Measure empirically on blocks never inserted.
        false_positives = sum(
            1 for block in range(1_000_000, 1_010_000) if bloom.might_contain(block)
        )
        assert false_positives / 10_000 < 0.06

    def test_fill_ratio_increases(self):
        bloom = BloomFilter(4096)
        assert bloom.fill_ratio() == 0.0
        bloom.add_many(range(100))
        assert bloom.fill_ratio() > 0.0

    def test_fill_ratio_counts_every_set_bit(self):
        bloom = BloomFilter(DEFAULT_FILTER_BITS)
        bloom.add_many(range(0, 200_000, 97))
        set_bits = sum(bin(byte).count("1") for byte in bloom._bits)
        assert bloom.fill_ratio() == set_bits / DEFAULT_FILTER_BITS


class TestRange:
    def test_range_query(self):
        bloom = BloomFilter(8192)
        bloom.add(500)
        assert bloom.might_contain_range(490, 20)
        assert not bloom.might_contain_range(0, 0)

    def test_wide_range_short_circuits(self):
        bloom = BloomFilter(8192)
        assert bloom.might_contain_range(0, 1000)  # wider than 256: always True


class TestShrinking:
    def test_halving_preserves_membership(self):
        bloom = BloomFilter(64 * 1024)
        items = [i * 13 for i in range(200)]
        bloom.add_many(items)
        bloom.shrink_to(8 * 1024)
        assert bloom.num_bits == 8 * 1024
        assert all(bloom.might_contain(i) for i in items)

    def test_shrink_to_fit_small_run(self):
        bloom = BloomFilter(DEFAULT_FILTER_BITS)
        bloom.add_many(range(10))
        bloom.shrink_to_fit()
        assert bloom.num_bits < DEFAULT_FILTER_BITS
        assert all(bloom.might_contain(i) for i in range(10))

    def test_shrink_invalid_target(self):
        bloom = BloomFilter(1024)
        with pytest.raises(ValueError):
            bloom.shrink_to(0)

    def test_smallest_filter_is_left_alone(self):
        bloom = BloomFilter(8)
        bloom.add(3)
        before = bloom.to_bytes()
        bloom.shrink_to(1)
        assert bloom.num_bits == 8 and bloom.to_bytes() == before

    def test_fold_does_not_cost_an_interpreted_step_per_byte(self):
        """Scale-free guard: shrinking a 1 MB filter to 1 Kbit beats the
        byte-wise reference by far more than timer noise (~20x; it is 1x by
        construction if the interpreted loop comes back)."""
        blocks = range(0, 3_000_000, 1009)

        def fastest(shrink, repetitions):
            best = float("inf")
            for _ in range(repetitions):
                bloom = _filled(blocks, COMBINED_FILTER_BITS)
                start = time.perf_counter()
                shrink(bloom, 1024)
                best = min(best, time.perf_counter() - start)
            return best, bloom.to_bytes()

        reference_seconds, reference = fastest(_reference_shrink_to, 2)
        fold_seconds, folded = fastest(BloomFilter.shrink_to, 5)
        assert folded == reference
        assert fold_seconds * 5 <= reference_seconds


class TestSerialization:
    def test_roundtrip(self):
        bloom = BloomFilter(4096, num_hashes=4)
        bloom.add_many([1, 5, 9, 1000, 123456])
        restored = BloomFilter.from_bytes(bloom.to_bytes())
        assert restored.num_bits == bloom.num_bits
        assert restored.num_hashes == bloom.num_hashes
        assert restored.num_items == bloom.num_items
        for item in [1, 5, 9, 1000, 123456]:
            assert restored.might_contain(item)

    def test_size_bytes(self):
        bloom = BloomFilter(8 * 1024)
        assert bloom.size_bytes == 1024

    def test_blob_without_the_v2_magic_is_rejected(self):
        """The magic-less ``<QQQ`` layout early builds wrote (MD5-hashed bits)
        is a foreign blob: probing it with this hash would miss its keys."""
        blob = BloomFilter(1024).to_bytes()
        legacy = struct.pack("<QQQ", 1024, 4, 0) + blob[32:]
        with pytest.raises(ValueError, match="version-2"):
            BloomFilter.from_bytes(legacy)
        with pytest.raises(ValueError, match="version-2"):
            BloomFilter.from_bytes(b"\x01" + blob[1:])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_from_bytes_fails_closed(self, data):
        """Fuzz: random bytes, or a valid blob with one byte changed or its
        tail cut off, either raise ``ValueError`` or decode to a filter that
        serializes back to what was read -- nothing else escapes."""
        valid = _filled(range(0, 900, 7), 2048).to_bytes()
        blob = data.draw(st.one_of(
            st.binary(max_size=96),
            st.builds(lambda position, value: valid[:position] + bytes([value])
                      + valid[position + 1:],
                      st.integers(0, len(valid) - 1), st.integers(0, 255)),
            st.integers(0, len(valid)).map(lambda size: valid[:size])))
        try:
            restored = BloomFilter.from_bytes(blob)
        except ValueError:
            return
        again = restored.to_bytes()
        assert blob.startswith(again)
        assert BloomFilter.from_bytes(again).to_bytes() == again


@settings(max_examples=50, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=2**48), max_size=200),
       st.integers(min_value=8, max_value=16))
def test_no_false_negatives_property(blocks, log_bits):
    """Property: a Bloom filter never reports an inserted block as absent."""
    bloom = BloomFilter(1 << log_bits)
    bloom.add_many(blocks)
    assert all(bloom.might_contain(b) for b in blocks)


@settings(max_examples=30, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=2**32), min_size=1, max_size=100))
def test_no_false_negatives_after_halving(blocks):
    """Property: halving the filter preserves the no-false-negative guarantee."""
    bloom = BloomFilter(32 * 1024)
    bloom.add_many(blocks)
    bloom.shrink_to(2 * 1024)
    assert all(bloom.might_contain(b) for b in blocks)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**48), max_size=120),
       st.integers(min_value=3, max_value=15))
def test_fold_matches_reference_halving(blocks, log_bits):
    """Property: ``shrink_to`` is byte-for-byte the reference halving, for
    empty filters, the 8-bit floor and every power-of-two target -- and
    membership survives it."""
    blocks = sorted(blocks)
    num_bits = 1 << log_bits
    for target in [1 << shift for shift in range(log_bits, 2, -1)] + [5, 1]:
        folded = _filled(blocks, num_bits)
        expected = _filled(blocks, num_bits)
        folded.shrink_to(target)
        _reference_shrink_to(expected, target)
        assert folded.to_bytes() == expected.to_bytes()
        assert folded.num_bits == max(8, min(num_bits, 1 << (target.bit_length() - 1)))
        assert all(folded.might_contain(block) for block in blocks)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**40), max_size=300),
       st.sampled_from([1024, 4096, DEFAULT_FILTER_BITS]))
def test_shrink_to_fit_matches_reference_and_build_time_sizing(blocks, max_bits):
    """Property: ``shrink_to_fit`` lands on the reference halving's bytes,
    and a filter created at ``fit_bits`` of a bound on its keys (what the
    run writer does) ends bit-identical to one created at the maximum."""
    blocks = sorted(blocks)
    fitted = _filled(blocks, max_bits)
    fitted.shrink_to_fit()
    expected = _filled(blocks, max_bits)
    _reference_shrink_to(
        expected, fit_bits(max(expected.num_items, expected._keys_inserted)))
    assert fitted.to_bytes() == expected.to_bytes()
    presized = _filled(blocks, min(max_bits, fit_bits(2 * len(blocks))))
    presized.shrink_to_fit()
    assert presized.to_bytes() == expected.to_bytes()
    assert all(presized.might_contain(block) for block in blocks)
