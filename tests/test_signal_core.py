import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ampwatch.errors import InvalidInputError
from ampwatch.signal_core import (
    AdcParams,
    RmsRecord,
    SampleBlock,
    adc_to_amps,
    compute_rms,
)


def block(samples, rate=6000.0):
    return SampleBlock(samples=tuple(samples), sample_rate_hz=rate)


class TestComputeRms:
    def test_all_zero(self):
        assert compute_rms(block([0.0] * 1000)) == 0.0

    def test_constant_negative(self):
        assert compute_rms(block([-0.5] * 1000)) == pytest.approx(0.5, rel=1e-12)

    def test_pure_sine_integer_periods(self):
        # closed form: RMS of a sine of amplitude A is A / sqrt(2)
        amplitude = 0.875 * math.sqrt(2.0)
        n, periods = 1000, 60
        t = np.arange(n) / n
        samples = amplitude * np.sin(2 * math.pi * periods * t)
        assert compute_rms(block(samples.tolist())) == pytest.approx(0.875, rel=1e-6)

    def test_empty_block_rejected(self):
        with pytest.raises(InvalidInputError):
            SampleBlock(samples=(), sample_rate_hz=6000.0)

    def test_non_finite_sample_rejected(self):
        with pytest.raises(InvalidInputError):
            block([0.1, float("nan"), 0.2])

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=200),
        st.floats(-1000, 1000).filter(lambda c: abs(c) > 1e-9),
    )
    @settings(max_examples=200)
    @example([3e-162, 1e-163], 1000.0)  # squares underflow into subnormals
    @example([1e-170], 2.0)  # squares underflow to zero
    @example([2.0, -7.5], 1e300)  # squares overflow
    def test_scale_homogeneity(self, samples, c):
        base = compute_rms(block(samples))
        scaled = compute_rms(block([c * s for s in samples]))
        assert scaled == pytest.approx(abs(c) * base, rel=1e-12, abs=1e-300)

    def test_permutation_bit_identical(self):
        rng = random.Random(7)
        samples = [rng.uniform(-2, 2) for _ in range(1000)]
        reference = compute_rms(block(samples))
        for _ in range(10):
            rng.shuffle(samples)
            assert compute_rms(block(samples)) == reference

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=200))
    @settings(max_examples=200)
    def test_bounds(self, samples):
        rms = compute_rms(block(samples))
        mags = [abs(s) for s in samples]
        assert min(mags) - 1e-12 <= rms <= max(mags) + 1e-12


class TestAdcToAmps:
    params = AdcParams(4095, 3.3, 1.65, 0.1)

    def test_midrail_is_zero_current(self):
        count = round(self.params.midrail_volts / self.params.vref_volts * 4095)
        volts = count / 4095 * 3.3
        expected = (volts - 1.65) / 0.1
        assert adc_to_amps(count, self.params) == pytest.approx(expected)
        assert abs(expected) < 0.01  # nearest count to the rail, ~0 A

    def test_full_scale(self):
        assert adc_to_amps(4095, self.params) == pytest.approx(16.5, rel=1e-12)

    def test_zero_count(self):
        assert adc_to_amps(0, self.params) == pytest.approx(-16.5, rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(InvalidInputError):
            adc_to_amps(-1, self.params)
        with pytest.raises(InvalidInputError):
            adc_to_amps(4096, self.params)

    def test_affine_strictly_increasing(self):
        vals = [adc_to_amps(c, self.params) for c in range(0, 4096, 17)]
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        assert all(d > 0 for d in diffs)
        # affine: all first differences equal
        assert all(d == pytest.approx(diffs[0], rel=1e-9) for d in diffs)

    def test_param_validation(self):
        with pytest.raises(InvalidInputError):
            AdcParams(resolution_counts=0)
        with pytest.raises(InvalidInputError):
            AdcParams(sensitivity_volts_per_amp=0)
        with pytest.raises(InvalidInputError):
            AdcParams(midrail_volts=4.0)


def test_rms_record_validation():
    for bad in (-0.1, -5e-324, float("inf"), float("-inf"), float("nan")):
        with pytest.raises(InvalidInputError):
            RmsRecord(0, bad)
    for good in (0.0, -0.0, 5e-324, 1e308):
        assert RmsRecord(0, good).rms_amps == good
