import dataclasses
import hashlib
import math
import random
import struct

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

    @pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
    def test_bad_sample_rate_rejected(self, rate):
        with pytest.raises(InvalidInputError):
            block([0.1, 0.2], rate=rate)

    @pytest.mark.parametrize("samples", [
        [0.1, float("nan"), 0.2], [float("nan")], [1.0, float("inf")], [float("-inf")],
        [float("inf"), float("-inf")],
    ])
    def test_non_finite_sample_rejected(self, samples):
        with pytest.raises(InvalidInputError):
            block(samples)

    def test_finite_samples_whose_sum_overflows_accepted(self):
        assert compute_rms(block([1e308, 1e308])) == 1e308

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

    @pytest.mark.parametrize("count", [-1, 4096, 10**20, -0.5, 0.5, 2.5, 4094.9, float("nan"), "7", None])
    def test_out_of_range(self, count):
        with pytest.raises(InvalidInputError, match=r"ADC count .* \[0, 4095\]"):
            adc_to_amps(count, self.params)

    def test_affine_strictly_increasing(self):
        vals = [adc_to_amps(c, self.params) for c in range(0, 4096, 17)]
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        assert all(d > 0 for d in diffs)
        # affine: all first differences equal
        assert all(d == pytest.approx(diffs[0], rel=1e-9) for d in diffs)

    @pytest.mark.parametrize("kwargs", [
        {"resolution_counts": 0},
        {"resolution_counts": -1},
        {"resolution_counts": 65536},
        {"resolution_counts": 4095.5},
        {"resolution_counts": 4095.0},
        {"resolution_counts": "4095"},
        {"resolution_counts": True},
        {"sensitivity_volts_per_amp": 0},
        {"sensitivity_volts_per_amp": float("nan")},
        {"sensitivity_volts_per_amp": float("inf")},
        {"vref_volts": float("inf")},
        {"vref_volts": float("nan")},
        {"vref_volts": 0.0, "midrail_volts": 0.0},
        {"midrail_volts": 4.0},
    ])
    def test_param_validation(self, kwargs):
        with pytest.raises(InvalidInputError):
            AdcParams(**kwargs)

    def test_integer_kinds_accepted(self):
        assert adc_to_amps(True, self.params) == adc_to_amps(1, self.params)
        assert adc_to_amps(False, self.params) == adc_to_amps(0, self.params)
        for kind in (np.int16, np.int64, np.uint16):
            assert adc_to_amps(kind(2048), self.params) == adc_to_amps(2048, self.params)

    def test_default_values_pinned(self):
        # sha256 of the 4,096 default-parameter currents as little-endian doubles
        p = AdcParams()
        packed = b"".join(struct.pack("<d", adc_to_amps(c, p)) for c in range(4096))
        assert hashlib.sha256(packed).hexdigest() == (
            "e8f3e00b6501c42273e4f504041c4a9bb69576f50c1b343e48a2cd3af0c1ea42")

    def test_value_semantics_are_the_four_fields(self):
        a, b = AdcParams(), AdcParams(4095, 3.3, 1.65, 0.1)
        assert a == b and hash(a) == hash(b)
        assert a != AdcParams(resolution_counts=1023)
        assert repr(a) == ("AdcParams(resolution_counts=4095, vref_volts=3.3, "
                           "midrail_volts=1.65, sensitivity_volts_per_amp=0.1)")
        assert dataclasses.asdict(a) == {"resolution_counts": 4095, "vref_volts": 3.3,
                                         "midrail_volts": 1.65, "sensitivity_volts_per_amp": 0.1}

    @given(st.data(), st.integers(1, 65535), st.floats(1e-6, 1e6), st.floats(1e-9, 1e9))
    @settings(max_examples=40, deadline=None)
    def test_matches_linear_model(self, data, res, vref, sens):
        mid = data.draw(st.floats(0, vref), label="mid")
        p = AdcParams(res, vref, mid, sens)
        for c in data.draw(st.lists(st.integers(0, res), max_size=20), label="counts"):
            assert adc_to_amps(c, p).hex() == (((c / res) * vref - mid) / sens).hex()

    @pytest.mark.parametrize("res", [1, 1023, 65535])
    def test_every_count_matches_linear_model(self, res):
        p = AdcParams(resolution_counts=res)
        for c in range(res + 1):
            assert adc_to_amps(c, p).hex() == (((c / res) * 3.3 - 1.65) / 0.1).hex()


def test_rms_record_validation():
    for bad in (-0.1, -5e-324, float("inf"), float("-inf"), float("nan")):
        with pytest.raises(InvalidInputError):
            RmsRecord(0, bad)
    for good in (0.0, -0.0, 5e-324, 1e308):
        assert RmsRecord(0, good).rms_amps == good
