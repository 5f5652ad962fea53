"""Bessel backend, tremble densities, and sampler statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtremble import (
    StrategyParams,
    TrembleSpec,
    bessel_i,
    sample_torus_angles,
    sample_vm,
    strategy,
    vm_density,
)
from qtremble.distributions import torus_density_angles

TWO_PI = 2.0 * math.pi


def bessel_series_oracle(nu: float, x: float) -> float:
    """Sum the ascending series term by term until it stops moving.

    All terms are positive, so there is no cancellation and the partial sums
    are an independent reference for any x (just slow for large x).
    """
    half = 0.5 * x
    term = half**nu / math.gamma(nu + 1.0)
    total = term
    for k in range(1, 10000):
        term *= half * half / (k * (k + nu))
        new_total = total + term
        if new_total == total:
            return total
        total = new_total
    raise AssertionError("oracle did not converge")


def circ_trapz(values: np.ndarray, spacing: float) -> float:
    """Trapezoidal rule over one full period (uniform nodes, no endpoint dup)."""
    return float(values.sum() * spacing)


class TestBesselI:
    def test_series_constants(self):
        assert bessel_i(0, 0.0) == 1.0
        assert bessel_i(1, 0.0) == 0.0

    def test_frozen_reference_value(self):
        # oracle sum of sum_k (1/2)^(2k) / (k!)^2
        assert bessel_series_oracle(0, 1.0) == pytest.approx(1.2660658777520084, rel=1e-14)
        assert bessel_i(0, 1.0) == pytest.approx(1.2660658777520084, rel=1e-12)

    @pytest.mark.parametrize("nu", [0, 1, 2, 0.5, 1.5])
    @pytest.mark.parametrize("x", [0.05, 0.9, 5.0, 14.9, 15.1, 25.0, 60.0, 120.0])
    def test_agrees_with_series_oracle_across_the_switch(self, nu, x):
        assert bessel_i(nu, x) == pytest.approx(bessel_series_oracle(nu, x), rel=1e-10)

    def test_monotone_in_x(self):
        xs = np.linspace(0.1, 100, 200)
        vals = [bessel_i(0, x) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_i(0, -1.0)
        with pytest.raises(ValueError):
            bessel_i(-1, 1.0)
        with pytest.raises(OverflowError):
            bessel_i(0, 800.0)


class TestVmNormalization:
    def test_uniform_limit(self):
        assert vm_density(1.3, 0.4, 0.0) == pytest.approx(1.0 / TWO_PI, rel=1e-15)

    def test_kappa_one(self):
        # At the mode the density is its normalization 1 / (2*pi*I_0(1)) times e^1.
        want = math.e / (TWO_PI * 1.2660658777520084)
        assert vm_density(0.7, 0.7, 1.0) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0, 5.0, 25.0])
    def test_density_integrates_to_one(self, kappa):
        n = 4096
        theta = -math.pi + TWO_PI / n * np.arange(n)
        total = circ_trapz(vm_density(theta, 0.7, kappa), TWO_PI / n)
        assert total == pytest.approx(1.0, abs=1e-9)


class TestTrembleSpec:
    def test_rejects_negative_kappa(self):
        with pytest.raises(ValueError):
            TrembleSpec(strategy("C", 2), -1.0)

    def test_rejects_dims_mismatch(self):
        with pytest.raises(ValueError):
            TrembleSpec(strategy("C", 2), 1.0, dims=3)

    def test_dims_defaults_to_center(self):
        spec = TrembleSpec(strategy("Q", 2), 1.0)
        assert spec.dims == 2


def density_at(point: StrategyParams, spec: TrembleSpec) -> float:
    return float(torus_density_angles(np.array(point.active), spec))


class TestTorusDensity:
    def test_uniform_limit_d1(self):
        spec = TrembleSpec(strategy("C", 1), 0.0)
        assert density_at(StrategyParams(1.2, dims=1), spec) == pytest.approx(1.0 / TWO_PI)

    def test_mode_value_d3(self):
        kappa = 5.0
        spec = TrembleSpec(strategy("Q", 3), kappa)
        want = (math.exp(kappa) / (TWO_PI * bessel_i(0, kappa))) ** 3
        assert density_at(strategy("Q", 3), spec) == pytest.approx(want, rel=1e-12)

    def test_dims_mismatch_raises(self):
        spec = TrembleSpec(strategy("C", 2), 1.0)
        with pytest.raises(ValueError):
            density_at(StrategyParams(0.1, dims=1), spec)

    @pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0, 5.0, 25.0])
    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_normalization_over_the_torus(self, dims, kappa):
        center = StrategyParams(0.4, 1.1 if dims >= 2 else 0.0, 5.0 if dims >= 3 else 0.0, dims)
        spec = TrembleSpec(center, kappa)
        n = {1: 4096, 2: 512, 3: 96}[dims]
        axis = TWO_PI / n * np.arange(n)
        mesh = np.meshgrid(*([axis] * dims), indexing="ij")
        angles = np.stack([m.reshape(-1) for m in mesh], axis=-1)
        total = torus_density_angles(angles, spec).sum() * (TWO_PI / n) ** dims
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_mode_sits_at_center(self):
        spec = TrembleSpec(StrategyParams(0.5, 2.0, 0.0, 2), 3.0)
        n = 101
        axis = np.linspace(-math.pi, math.pi, n)
        best, arg = -1.0, None
        for t in axis:
            for a in axis:
                val = density_at(StrategyParams(t, a % TWO_PI, 0.0, 2), spec)
                if val > best:
                    best, arg = val, (t, a % TWO_PI)
        cell = TWO_PI / (n - 1)
        assert abs(arg[0] - 0.5) <= cell
        assert abs(arg[1] - 2.0) <= cell

    def test_symmetry_about_center_is_exact_at_origin(self):
        # center 0 keeps the angle arithmetic exact, so evenness holds bitwise
        spec = TrembleSpec(strategy("C", 1), 2.5)
        for delta in (0.3, 1.1, 2.9):
            plus = density_at(StrategyParams(delta, dims=1), spec)
            minus = density_at(StrategyParams(-delta, dims=1), spec)
            assert plus == minus

    @given(st.floats(0.01, 3.0), st.floats(-2.0, 2.0))
    @settings(deadline=None, max_examples=60)
    def test_symmetry_about_generic_center(self, delta, center):
        spec = TrembleSpec(StrategyParams(center, dims=1), 4.0)
        plus = density_at(StrategyParams(center + delta, dims=1), spec)
        minus = density_at(StrategyParams(center - delta, dims=1), spec)
        assert plus == pytest.approx(minus, rel=1e-12)

    def test_concentration_mass_near_center(self):
        # at kappa = 200 the tail beyond 0.5 rad is ~1e-11 of the mass
        kappa = 200.0
        n = 200001
        theta = np.linspace(-0.5, 0.5, n)
        dens = vm_density(theta, 0.0, kappa)
        inside = np.trapezoid(dens, theta)
        assert inside >= 1.0 - 1e-6


def circular_mean(samples: np.ndarray) -> float:
    return math.atan2(np.sin(samples).mean(), np.cos(samples).mean())


def resultant_length(samples: np.ndarray) -> float:
    return float(np.hypot(np.sin(samples).mean(), np.cos(samples).mean()))


class TestSampleVm:
    def test_scalar_and_shape(self):
        rng = np.random.default_rng(0)
        one = sample_vm(rng, 0.0, 2.0)
        assert isinstance(one, float) and -math.pi <= one < math.pi
        arr = sample_vm(rng, 0.0, 2.0, size=(3, 4))
        assert arr.shape == (3, 4)

    def test_reproducible_for_fixed_seed(self):
        a = sample_vm(np.random.default_rng(42), 1.0, 5.0, size=100)
        b = sample_vm(np.random.default_rng(42), 1.0, 5.0, size=100)
        assert np.array_equal(a, b)

    def test_uniform_limit_passes_ks(self):
        n = 100_000
        draws = np.sort(sample_vm(np.random.default_rng(1), 0.0, 0.0, size=n))
        cdf = (draws + math.pi) / TWO_PI
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        ks = max(np.abs(ecdf_hi - cdf).max(), np.abs(cdf - ecdf_lo).max())
        assert ks <= 1.6276 / math.sqrt(n)  # alpha = 0.01 critical value

    def test_circular_mean_matches_center(self):
        draws = sample_vm(np.random.default_rng(2), 1.0, 5.0, size=100_000)
        assert abs(circular_mean(draws) - 1.0) <= 0.02

    def test_resultant_length_matches_bessel_ratio(self):
        kappa = 5.0
        draws = sample_vm(np.random.default_rng(3), 1.0, kappa, size=100_000)
        want = bessel_i(1, kappa) / bessel_i(0, kappa)
        assert abs(resultant_length(draws) - want) <= 0.01

    def test_rejects_negative_kappa(self):
        with pytest.raises(ValueError):
            sample_vm(np.random.default_rng(0), 0.0, -1.0)


class TestSampleTorus:
    def test_inactive_coordinates_stay_zero(self):
        rng = np.random.default_rng(4)
        spec = TrembleSpec(strategy("D", 1), 3.0)
        angles = sample_torus_angles(rng, spec, 10)
        assert (angles[:, 1:] == 0.0).all()

    def test_high_concentration_clusters_every_coordinate(self):
        spec = TrembleSpec(StrategyParams(0.3, 1.0, 2.0, 3), 25.0)
        angles = sample_torus_angles(np.random.default_rng(5), spec, 50_000)
        for axis, center in enumerate((0.3, 1.0, 2.0)):
            shifted = angles[:, axis] - center
            spread = math.sqrt(2 * (1 - resultant_length(shifted)))
            assert spread < 0.25
            assert abs(circular_mean(shifted)) < 0.02

    def test_histogram_matches_density(self):
        # 16x16 binning vs the bin-integrated density, 3-sigma multinomial bounds
        kappa = 1.0
        spec = TrembleSpec(strategy("C", 2), kappa)
        n = 1_000_000
        angles = sample_torus_angles(np.random.default_rng(1), spec, n)

        bins = 16
        theta_edges = np.linspace(-math.pi, math.pi, bins + 1)
        alpha_edges = np.linspace(0.0, TWO_PI, bins + 1)
        counts, _, _ = np.histogram2d(
            angles[:, 0], np.mod(angles[:, 1], TWO_PI), bins=(theta_edges, alpha_edges)
        )

        fine = 256
        ft = -math.pi + TWO_PI / fine * (np.arange(fine) + 0.5)
        fa = TWO_PI / fine * (np.arange(fine) + 0.5)
        grid = np.stack(np.meshgrid(ft, fa, indexing="ij"), axis=-1).reshape(-1, 2)
        dens = torus_density_angles(grid, spec).reshape(fine, fine) * (TWO_PI / fine) ** 2
        sub = fine // bins
        prob = dens.reshape(bins, sub, bins, sub).sum(axis=(1, 3))

        sigma = np.sqrt(n * prob * (1 - prob))
        assert (np.abs(counts - n * prob) <= 3.0 * sigma).all()
