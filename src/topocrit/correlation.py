"""Correlation of localized (Wannier-type) states from curvature functions.

The correlation series is the Brillouin-zone Fourier transform of the
curvature function.  Its trapezoidal sum on a uniform N-point zone grid is
exactly the inverse DFT of the sampled curvature, so one FFT gives every
displacement: ``ifft(F)[R mod N]`` in 1D and, on the diagonal displacement
(R, -R), ``ifft2(F)[R mod N, -R mod N]`` in 2D.  Decay lengths are extracted
from the envelope of the series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDecade, UndersampledPeak, ZeroGap
from .models import WALK_1D, WALK_2D
from .walk1d import WalkParams, rotated_curvature_1d
from .walk2d import curvature_grid_2d

DEFAULT_N_CORR_1D = 4096
DEFAULT_N_CORR_2D = 512
CRITICAL_GUARD = 1e-3
USABLE_FLOOR = 1e-13
IMAG_TOL = 1e-10
OSCILLATION_WINDOW = 10
OSCILLATION_MIN_FLIPS = 2


@dataclass
class CorrelationSeries:
    """Real-space correlation values on integer displacements."""

    displacements: np.ndarray
    values: np.ndarray
    model: str
    params: WalkParams
    slice_mode: str = ""


def _check_near_critical(distance: float, xi_estimate: float, n_grid: int):
    if distance < CRITICAL_GUARD:
        raise UndersampledPeak(
            "parameters within %.0e of criticality; peak width ~ %.1f "
            "exceeds the grid resolution" % (CRITICAL_GUARD, xi_estimate))
    if xi_estimate > n_grid / (2.0 * np.pi):
        raise UndersampledPeak(
            "correlation grid N = %d undersamples a peak of width xi ~ %.1f"
            % (n_grid, xi_estimate))


def _zone_transform(values, r, direction) -> np.ndarray:
    """Trapezoidal zone sum N^-d sum_k f(k) exp(i k . R) at R = r u, for f
    sampled on the uniform [0, 2 pi)^d grid and the integer direction u: the
    inverse DFT read at R modulo the grid, so R >= N wraps periodically."""
    values = np.asarray(values)
    index = np.outer(direction, r) % np.reshape(values.shape, (-1, 1))
    return np.fft.ifftn(values)[tuple(index)]


def fourier_series_1d(values: np.ndarray, r_max: int) -> np.ndarray:
    """Trapezoidal Fourier coefficients integral dk/(2 pi) f(k) e^{i k R}.

    ``values`` samples f on a uniform [0, 2 pi) grid (endpoint excluded);
    R = 0 .. r_max, all from one inverse FFT.
    """
    return _zone_transform(values, np.arange(r_max + 1), (1,))


def _correlation_series(model, p: WalkParams, r_max: int, n_grid: int,
                        width_scale: float, sample, direction,
                        slice_mode: str = "") -> CorrelationSeries:
    """The series along ``direction`` of the curvature ``sample(k)`` on the
    zone grid of axis ``k``; width_scale / distance estimates the peak width
    for the near-critical guard."""
    dist = model.criticality_distance(p)
    if dist == 0.0:
        raise ZeroGap("gap closed at these parameters")
    _check_near_critical(dist, width_scale / max(dist, 1e-300), n_grid)
    k = np.linspace(0.0, 2.0 * np.pi, n_grid, endpoint=False)
    r = np.arange(r_max + 1)
    series = _zone_transform(sample(k), r, direction)
    if np.abs(series.imag).max() > IMAG_TOL:
        raise RuntimeError("correlation series has imaginary residue %.2e"
                           % np.abs(series.imag).max())
    return CorrelationSeries(r, series.real, model.name, p, slice_mode)


def wannier_correlation_1d(p: WalkParams, r_max: int,
                           n_grid: int = DEFAULT_N_CORR_1D) -> CorrelationSeries:
    """Fourier transform of the 1D curvature function.

    F~(R) = integral dk/(2 pi) F(k) exp(i k R) for R = 0 .. r_max, by a
    trapezoidal sum over n_grid points.  The curvature is even about the
    high-symmetry points, so the series is real (checked to 1e-10).

    Raises:
        ZeroGap: parameters on a gap-closing line.
        UndersampledPeak: peak too narrow for the requested grid.
    """
    return _correlation_series(
        WALK_1D, p, r_max, n_grid, 2.0,
        lambda k: rotated_curvature_1d(k, p), (1,))


def wannier_correlation_2d(p: WalkParams, r_max: int,
                           n_grid: int = DEFAULT_N_CORR_2D) -> CorrelationSeries:
    """Fourier transform of the 2D curvature function on the diagonal slice.

    F~(R) = integral d^2k/(2 pi)^2 F(k) exp(i k . R) with R = (R, -R),
    R = 0 .. r_max, by a 2D trapezoidal sum.

    Raises:
        ZeroGap / UndersampledPeak: as in the 1D case.
    """
    return _correlation_series(
        WALK_2D, p, r_max, n_grid, 2.0 * np.sqrt(6.0),
        lambda k: curvature_grid_2d(*np.meshgrid(k, k, indexing="ij"), p),
        (1, -1), slice_mode="Ry=-Rx")


def envelope_indices(values: np.ndarray) -> np.ndarray:
    """Indices of the local maxima of |values| (strict interior maxima)."""
    av = np.abs(values)
    idx = []
    for i in range(1, len(av) - 1):
        if av[i] >= av[i - 1] and av[i] >= av[i + 1] and av[i] > USABLE_FLOOR:
            idx.append(i)
    return np.array(idx, dtype=int)


def fit_decay(series: CorrelationSeries):
    """Exponential decay length of a correlation series.

    Detects oscillation as >= 2 sign changes within the first 10 points; if
    oscillating, the fit uses the envelope (local maxima of |F~|), otherwise
    all usable points.  The decay length is -1/slope of log|F~| against R.

    Returns:
        (decay_length, oscillating)

    Raises:
        InsufficientDecade: fewer than 6 usable points or dynamic range of
            the fit values below one decade.
    """
    values = np.asarray(series.values, dtype=float)
    r = np.asarray(series.displacements, dtype=float)
    usable = np.abs(values) > USABLE_FLOOR
    if usable.sum() < 6:
        raise InsufficientDecade("only %d usable points" % int(usable.sum()))
    # quadrature noise at the series' exact zeros carries random signs; floor
    # it so a zero is its own sign state rather than a coin flip
    head = values[:OSCILLATION_WINDOW].copy()
    head[np.abs(head) < max(1e-12 * np.abs(values).max(), USABLE_FLOOR)] = 0.0
    flips = int(np.sum(np.diff(np.sign(head)) != 0))
    oscillating = flips >= OSCILLATION_MIN_FLIPS
    if oscillating:
        idx = envelope_indices(values)
    else:
        idx = np.nonzero(usable)[0]
    if len(idx) < 3:
        raise InsufficientDecade("envelope has only %d points" % len(idx))
    av = np.abs(values[idx])
    if av.max() / av.min() < 10.0:
        raise InsufficientDecade("dynamic range below one decade")
    slope, _ = np.polyfit(r[idx], np.log(av), 1)
    if slope >= 0.0:
        raise InsufficientDecade("series does not decay")
    return float(-1.0 / slope), bool(oscillating)


__all__ = [
    "CorrelationSeries", "fourier_series_1d", "wannier_correlation_1d",
    "wannier_correlation_2d", "envelope_indices", "fit_decay",
]
