import io
import math

import numpy as np
import pytest

from ampwatch.cycle_tracker import CycleFeatures
from ampwatch.errors import InsufficientTrainingError, InvalidInputError
from ampwatch.zscore_model import (
    DetectorState,
    FeatureStats,
    ModelParams,
    N_FEATURES,
    detect,
    finalize,
    score,
    train_update,
)


def features(vec):
    return CycleFeatures(*vec)


def batch_oracle(rows):
    """Two-pass batch mean and population std over training rows."""
    arr = np.asarray(rows, dtype=float)
    return arr.mean(axis=0), arr.std(axis=0)


class TestTrainUpdate:
    def test_first_update(self):
        stats = train_update(FeatureStats(), features([7.0] * 5))
        assert stats.count == 1
        assert stats.mean == [7.0] * 5
        assert stats.m2 == [0.0] * 5

    def test_two_values(self):
        stats = FeatureStats()
        train_update(stats, features([1.0] * 5))
        train_update(stats, features([3.0] * 5))
        params = finalize(stats)
        assert params.mean == (2.0,) * 5
        assert params.std == (1.0,) * 5

    def test_large_random_matches_batch_oracle(self):
        rng = np.random.default_rng(11)
        rows = rng.normal([1.0, 5.0, -2.0, 0.1, 1800.0], [0.5, 2.0, 1.0, 0.01, 100.0],
                          size=(100_000, 5))
        stats = FeatureStats()
        for row in rows:
            train_update(stats, features(row.tolist()))
        params = finalize(stats)
        mu, sigma = batch_oracle(rows)
        assert np.allclose(params.mean, mu, rtol=1e-9, atol=0)
        assert np.allclose(params.std, sigma, rtol=1e-9, atol=0)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            train_update(FeatureStats(), features([1.0, 2.0, float("nan"), 0.0, 1.0]))

    def test_state_is_fixed_size(self):
        stats = FeatureStats()
        for i in range(1000):
            train_update(stats, features([float(i)] * 5))
        assert len(stats.mean) == N_FEATURES
        assert len(stats.m2) == N_FEATURES
        assert set(vars(stats)) == {"count", "mean", "m2"}


class TestFinalize:
    def test_zero_variance_floored(self):
        stats = FeatureStats()
        for _ in range(50):
            train_update(stats, features([0.87] * 5))
        params = finalize(stats)
        assert params.mean == (pytest.approx(0.87),) * 5
        assert params.std == (1e-6,) * 5

    def test_single_cycle_insufficient(self):
        stats = train_update(FeatureStats(), features([1.0] * 5))
        with pytest.raises(InsufficientTrainingError):
            finalize(stats)

    def test_empty_insufficient(self):
        with pytest.raises(InsufficientTrainingError):
            finalize(FeatureStats())


def trained_params(mu=(1.0, 2.0, 3.0, 4.0, 5.0), sigma=(0.1, 0.2, 0.3, 0.4, 0.5)):
    return ModelParams(mean=tuple(mu), std=tuple(sigma), trained_on=50)


class TestScore:
    def test_at_mean_is_zero(self):
        params = trained_params()
        res = score(params, features(params.mean))
        assert res.z == (0.0,) * 5
        assert res.composite == 0.0

    def test_composite_adds_left_to_right(self):
        # each 1.0 is lost against 1e16 when added in order; sum(), which is
        # compensated from Python 3.12 on, would keep both
        params = trained_params(mu=(0.0,) * 5, sigma=(1.0,) * 5)
        assert score(params, features([1e16, 1.0, 1.0, 0.0, 0.0])).composite == 1e16 / 5

    def test_one_feature_two_sigma(self):
        params = trained_params()
        vec = list(params.mean)
        vec[2] += 2 * params.std[2]
        res = score(params, features(vec))
        assert res.composite == pytest.approx(0.4, abs=1e-12)

    def test_all_features_at_threshold(self):
        params = trained_params()
        vec = [m + 2.5 * s for m, s in zip(params.mean, params.std)]
        res = score(params, features(vec))
        assert res.composite == pytest.approx(2.5, abs=1e-12)
        assert detect(DetectorState(), res.composite) is False

    def test_symmetry(self):
        params = trained_params()
        d = 0.7
        for k in range(5):
            up = list(params.mean)
            dn = list(params.mean)
            up[k] += d
            dn[k] -= d
            z_up = score(params, features(up)).z[k]
            z_dn = score(params, features(dn)).z[k]
            assert z_up == pytest.approx(-z_dn, abs=1e-12)

    def test_monotone_in_deviation(self):
        params = trained_params()
        for k in range(5):
            last = -1.0
            for d in (0.0, 0.1, 0.5, 2.0, 10.0):
                vec = list(params.mean)
                vec[k] += d
                comp = score(params, features(vec)).composite
                assert comp >= last
                last = comp

    def test_affine_invariance(self):
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(30, 5)) + 10.0
        query = rng.normal(size=5) + 10.0
        a, b, k = 3.7, -12.0, 2

        def train(data):
            stats = FeatureStats()
            for row in data:
                train_update(stats, features(row.tolist()))
            return finalize(stats)

        base = score(train(rows), features(query.tolist()))
        rows2 = rows.copy()
        rows2[:, k] = a * rows2[:, k] + b
        query2 = query.copy()
        query2[k] = a * query2[k] + b
        mapped = score(train(rows2), features(query2.tolist()))
        assert mapped.z[k] == pytest.approx(base.z[k], rel=1e-9)
        assert mapped.composite == pytest.approx(base.composite, rel=1e-9)


class TestDetect:
    def test_exceeds_threshold(self):
        state = DetectorState()
        assert detect(state, 3.1) is True
        assert state.streak == 1

    def test_streak_semantics(self):
        state = DetectorState()
        streaks = []
        for comp in (3.0, 3.0, 1.0):
            detect(state, comp)
            streaks.append(state.streak)
        assert streaks == [1, 2, 0]

    def test_threshold_validation(self):
        for threshold in (0, -1.0, math.nan, math.inf):
            with pytest.raises(InvalidInputError):
                DetectorState(threshold=threshold)


class TestSerialization:
    def test_round_trip_identical_scores(self):
        rng = np.random.default_rng(9)
        stats = FeatureStats()
        for row in rng.normal([1, 2, 3, 4, 5], 0.5, size=(50, 5)):
            train_update(stats, features(row.tolist()))
        params = finalize(stats)
        reloaded = ModelParams.load(io.StringIO(params.to_text()))
        assert reloaded == params
        query = features(rng.normal([1, 2, 3, 4, 5], 0.5).tolist())
        assert score(reloaded, query) == score(params, query)

    def test_exactly_ten_values_plus_counter(self):
        text = trained_params().to_text()
        lines = [l for l in text.strip().splitlines()]
        stat_lines = [l for l in lines if l.startswith(("mean.", "std."))]
        counter_lines = [l for l in lines if l.startswith("trained_on=")]
        assert len(stat_lines) == 10
        assert len(counter_lines) == 1
        assert len(lines) == 11

    def test_missing_key_rejected(self):
        text = trained_params().to_text().replace("std.rms_slope", "std.bogus")
        with pytest.raises(InvalidInputError):
            ModelParams.from_text(text)

    def test_nonpositive_std_rejected(self):
        with pytest.raises(InvalidInputError):
            ModelParams(mean=(0.0,) * 5, std=(1.0, 1.0, 0.0, 1.0, 1.0), trained_on=5)

    @pytest.mark.parametrize("trained_on", [50.0, 50.5, "50", None])
    def test_non_int_trained_on_rejected(self, trained_on):
        # 50.0 was saved as "trained_on=50.0", which load then refused
        with pytest.raises(InvalidInputError):
            ModelParams(mean=(0.0,) * 5, std=(1.0,) * 5, trained_on=trained_on)

    @pytest.mark.parametrize("key, line, message", [
        ("std.rms_std", "std.rms_std=nan", "^model line 7 .*finite$"),
        ("std.rms_std", "std.rms_std=inf", "^model line 7 .*finite$"),
        ("mean.rms_mean", "mean.rms_mean=nan", "^model line 4 .*finite$"),
        ("mean.rms_mean", "mean.rms_mean=-inf", "^model line 4 .*finite$"),
        ("std.rms_slope", "std.rms_slope=0.0", "^model line 9 .*positive$"),
        ("mean.rms_mean", "mean.rms_mean=x", "^model line 4 "),
        ("trained_on", "trained_on=-3", "^model line 1 .*at least 2$"),
        ("trained_on", "trained_on=1", "^model line 1 .*at least 2$"),
        ("trained_on", "trained_on=many", "^model line 1 "),
        # accepted and rewritten before the write-back rule
        ("trained_on", "trained_on = 50", "^model line 1 "),
        ("trained_on", "trained_on=5_0", "^model line 1 "),
        ("trained_on", "trained_on=+50", "^model line 1 "),
        ("mean.rms_mean", "mean.rms_mean=2e0", "^model line 4 "),
        ("std.rms_mean", "std.rms_mean= 0.2", "^model line 5 "),
        ("trained_on", "\ntrained_on=50", "^model line 1 "),
        ("mean.rms_std", "# note\nmean.rms_std=3.0", "^model line 6 "),
    ])
    def test_corrupt_model_text_rejected(self, key, line, message):
        lines = [
            line if old.split("=")[0] == key else old
            for old in trained_params().to_text().splitlines()
        ]
        with pytest.raises(InvalidInputError, match=message):
            ModelParams.from_text("\n".join(lines))

    @pytest.mark.parametrize("line, line_number", [("mean.rms_last=99.0", 2),
                                                   (" mean.rms_last = 99.0", 12),
                                                   ("trained_on=50", 12)])
    def test_repeated_key_rejected(self, line, line_number):
        # a second line used to replace the first one silently
        text = trained_params().to_text() + line + "\n"
        with pytest.raises(InvalidInputError, match=f"^model line {line_number} "):
            ModelParams.from_text(text)
