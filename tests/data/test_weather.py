"""Tests for the synthetic wind-speed generator (the §6.3 substitute)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.weather import WeatherConfig, generate_weather


class TestConfigValidation:
    def test_defaults_valid(self):
        WeatherConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_series": 0},
            {"length": 1},
            {"n_microclimates": 0},
            {"n_microclimates": 200},
            {"regional_phi": 1.0},
            {"gust_phi": -0.1},
            {"regional_weight": 1.5},
            {"target_variance": 0.0},
            {"noise_std": -1.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            WeatherConfig(**kwargs)

    def test_noise_cannot_exceed_variance(self):
        config = WeatherConfig(noise_std=10.0, target_variance=2.8)
        with pytest.raises(ValueError, match="noise"):
            generate_weather(config, np.random.default_rng(0))


class TestCalibration:
    def test_matches_paper_statistics(self):
        """The paper reports average value 5.8 and average variance 2.8."""
        config = WeatherConfig(n_series=100, length=500)
        data, __ = generate_weather(config, np.random.default_rng(11))
        assert data.values.mean(axis=1).mean() == pytest.approx(5.8, abs=0.6)
        assert data.values.var(axis=1).mean() == pytest.approx(2.8, rel=0.5)

    def test_non_negative(self):
        config = WeatherConfig(n_series=50, length=300)
        data, __ = generate_weather(config, np.random.default_rng(12))
        assert (data.values >= 0.0).all()

    def test_every_microclimate_populated(self):
        config = WeatherConfig(n_series=40, n_microclimates=8)
        __, labels = generate_weather(config, np.random.default_rng(13))
        assert set(labels) == set(range(8))

    def test_same_microclimate_strongly_correlated(self):
        config = WeatherConfig(n_series=60, length=300)
        data, labels = generate_weather(config, np.random.default_rng(14))
        groups: dict[int, list[int]] = {}
        for node, label in enumerate(labels):
            groups.setdefault(int(label), []).append(node)
        correlations = []
        for members in groups.values():
            for a, b in zip(members, members[1:]):
                r = np.corrcoef(data.series(a), data.series(b))[0, 1]
                correlations.append(r)
        assert np.mean(correlations) > 0.85

    def test_temporal_persistence(self):
        """Wind evolves smoothly: strong lag-1 autocorrelation."""
        config = WeatherConfig(n_series=20, length=400)
        data, __ = generate_weather(config, np.random.default_rng(15))
        autocorrs = []
        for node in range(20):
            series = data.series(node)
            autocorrs.append(np.corrcoef(series[:-1], series[1:])[0, 1])
        assert np.mean(autocorrs) > 0.7

    def test_determinism(self):
        config = WeatherConfig(n_series=10, length=50)
        a, __ = generate_weather(config, np.random.default_rng(9))
        b, __ = generate_weather(config, np.random.default_rng(9))
        assert np.array_equal(a.values, b.values)
