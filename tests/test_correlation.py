import numpy as np
import pytest

from topocrit import WalkParams
from topocrit.correlation import (envelope_indices, fit_decay,
                                  fourier_series_1d, wannier_correlation_1d,
                                  wannier_correlation_2d, CorrelationSeries)
from topocrit.criticality import _linearized_fit
from topocrit.errors import InsufficientDecade, UndersampledPeak
from topocrit.invariants import winding_number_1d
from topocrit.walk1d import peak_asymptotics_1d, rotated_curvature_1d
from topocrit.walk2d import axis_slice_curvature, curvature_grid_2d


def _series(values):
    values = np.asarray(values, dtype=float)
    return CorrelationSeries(np.arange(len(values)), values, "synthetic",
                             WalkParams(0.0, 0.0))


# --- Fourier helper ---

def test_fourier_of_constant():
    out = fourier_series_1d(np.full(512, 3.7), 8)
    assert abs(out[0] - 3.7) < 1e-12
    assert np.abs(out[1:]).max() < 1e-12


# --- FFT transform against the direct trapezoidal sum ---

@pytest.mark.parametrize("model, p, n, r_max", [
    ("walk1d", WalkParams(0.8, 0.3), 32, 12),
    ("walk1d", WalkParams(0.6, 0.0), 32, 75),  # R wraps past N
    ("walk2d", WalkParams(1.2, np.pi / 2), 32, 12),
    ("walk2d", WalkParams(0.8, 0.3), 48, 100),  # R wraps past N
])
def test_series_matches_direct_trapezoidal_sum(model, p, n, r_max):
    k = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    r = np.arange(r_max + 1)
    if model == "walk1d":
        f = rotated_curvature_1d(k, p)
        direct = np.exp(1j * np.outer(r, k)) @ f / n
        series = wannier_correlation_1d(p, r_max, n)
    else:
        kx, ky = np.meshgrid(k, k, indexing="ij")
        f = curvature_grid_2d(kx, ky, p)
        direct = np.array([np.sum(f * np.exp(1j * (kx - ky) * rr))
                           for rr in r]) / n ** 2
        series = wannier_correlation_2d(p, r_max, n)
    np.testing.assert_array_equal(series.displacements, r)
    assert np.abs(direct.imag).max() < 1e-12
    assert np.abs(series.values - direct.real).max() < 1e-12


def test_fourier_series_1d_matches_direct_sum_past_the_grid():
    values = np.random.default_rng(3).normal(size=16)
    k = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    r = np.arange(40)
    direct = np.exp(1j * np.outer(r, k)) @ values / 16
    assert np.abs(fourier_series_1d(values, 39) - direct).max() < 1e-12


# --- 1D series ---

def test_series_1d_oscillating_and_decay_matches_width():
    p = WalkParams(0.2, 0.0)
    series = wannier_correlation_1d(p, 40)
    decay, oscillating = fit_decay(series)
    assert oscillating
    _, xi2 = peak_asymptotics_1d(p, 0.0)
    xi = np.sqrt(xi2)
    assert abs(decay - xi) / xi < 0.10


def test_series_1d_monotonic_single_closure():
    # only the k = 0 channel is near critical on the beta = alpha - pi family
    a = 0.9
    series = wannier_correlation_1d(WalkParams(a, a - np.pi), 20)
    decay, oscillating = fit_decay(series)
    assert not oscillating
    assert decay > 0


def test_series_1d_zero_displacement_is_invariant():
    for (a, b) in ((0.8, 1.0), (0.2, 0.0), (np.pi / 2, np.pi)):
        series = wannier_correlation_1d(WalkParams(a, b), 4)
        c = winding_number_1d(WalkParams(a, b)).raw
        assert abs(series.values[0] - c) < 1e-6


def test_series_1d_near_critical_guard():
    with pytest.raises(UndersampledPeak):
        wannier_correlation_1d(WalkParams(5e-4, 0.0), 10)


def test_series_1d_decay_grows_toward_criticality():
    decays = []
    for a in (0.4, 0.2, 0.1):
        series = wannier_correlation_1d(WalkParams(a, 0.0), 60)
        decays.append(fit_decay(series)[0])
    assert decays[0] < decays[1] < decays[2]


# --- 2D series ---

def _axis_width(p, axis):
    rad = 0.1
    for _ in range(2):
        d = np.linspace(-rad, rad, 31)
        d = d[np.abs(d) > 1e-12]
        _, xi2, _ = _linearized_fit(d, axis_slice_curvature(d, p, axis=axis), 0.0)
        xi = np.sqrt(abs(xi2))
        rad = min(0.5 / max(xi, 1e-12), 0.1)
    return xi


def test_series_2d_oscillates_with_sign_flips():
    series = wannier_correlation_2d(WalkParams(0.3, np.pi / 2), 24)
    decay, oscillating = fit_decay(series)
    assert oscillating
    assert decay > 0


def test_series_2d_envelope_decay_tracks_axis_widths():
    # decay along the diagonal displacement follows the dual-metric length
    # 1/sqrt(u^T Xi^-1 u) of the fitted quadratic form; at alpha = 0.2 the
    # Lorentzian approximation holds to better than 15 percent
    p = WalkParams(0.2, np.pi / 2)
    series = wannier_correlation_2d(p, 36)
    decay, oscillating = fit_decay(series)
    assert oscillating
    xi_x = _axis_width(p, "x")
    xi_y = _axis_width(p, "y")
    rad = min(0.5 / xi_x, 0.1)
    d = np.linspace(-rad, rad, 31)
    d = d[np.abs(d) > 1e-12]
    from topocrit.walk2d import diagonal_slice_curvature
    _, xi2_s, _ = _linearized_fit(d, diagonal_slice_curvature(d, p), 0.0)
    xi_cross2 = (xi_x ** 2 + xi_y ** 2 - abs(xi2_s)) / 2.0
    det = xi_x ** 2 * xi_y ** 2 - xi_cross2 ** 2
    dual = (xi_x ** 2 + 2.0 * xi_cross2 + xi_y ** 2) / det
    predicted = 1.0 / np.sqrt(dual)
    assert abs(decay - predicted) / predicted < 0.15


def test_series_2d_envelope_flips_across_critical_point():
    plus = wannier_correlation_2d(WalkParams(0.1, np.pi / 2), 20)
    minus = wannier_correlation_2d(WalkParams(-0.1, np.pi / 2), 20)
    env = envelope_indices(plus.values)
    env = [i for i in env if i % 4 == 0]  # the flipping envelope family
    ratios = minus.values[env] / plus.values[env]
    np.testing.assert_allclose(ratios, -1.0, atol=0.02)


def test_series_2d_near_critical_guard():
    with pytest.raises(UndersampledPeak):
        wannier_correlation_2d(WalkParams(5e-4, np.pi / 2), 10)


# --- fit_decay ---

def test_fit_decay_pure_exponential():
    r = np.arange(40)
    decay, osc = fit_decay(_series(np.exp(-r / 7.0)))
    assert abs(decay - 7.0) < 1e-6
    assert not osc


def test_fit_decay_damped_oscillation():
    r = np.arange(40)
    decay, osc = fit_decay(_series(np.exp(-r / 5.0) * np.cos(np.pi * r / 2)))
    assert osc
    assert abs(decay - 5.0) / 5.0 < 0.05


def test_fit_decay_insufficient_range():
    with pytest.raises(InsufficientDecade):
        fit_decay(_series(np.ones(20)))


def test_fit_decay_too_few_points():
    with pytest.raises(InsufficientDecade):
        fit_decay(_series([1.0, 0.5, 0.25, 1e-15, 1e-15, 1e-15]))
