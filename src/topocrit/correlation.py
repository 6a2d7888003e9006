"""Correlation of localized (Wannier-type) states from curvature functions.

The correlation series is the Brillouin-zone Fourier transform of the
curvature function.  Its trapezoidal sum on a uniform N-point zone grid is
exactly the inverse DFT of the sampled curvature, so one FFT gives every
displacement: ``ifft(F)[R mod N]`` in 1D and, on the diagonal displacement
(R, -R), ``ifft2(F)[R mod N, -R mod N]`` in 2D.  The 2D transform streams
blocks of kx rows and keeps only the columns the diagonal reads, so it holds
O(N r_max) values, never the N x N grid.  Decay lengths are extracted from
the envelope of the series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDecade, UndersampledPeak, ZeroGap
from .models import BLOCK_POINTS, WALK_1D, WALK_2D
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


def _check_near_critical(distance: float, xi_estimate: float, n_grid: int):
    if distance < CRITICAL_GUARD:
        raise UndersampledPeak(
            "parameters within %.0e of criticality; peak width ~ %.1f "
            "exceeds the grid resolution" % (CRITICAL_GUARD, xi_estimate))
    if xi_estimate > n_grid / (2.0 * np.pi):
        raise UndersampledPeak(
            "correlation grid N = %d undersamples a peak of width xi ~ %.1f"
            % (n_grid, xi_estimate))


def _zone_transform(sample, shape, r, direction) -> np.ndarray:
    """Trapezoidal zone sum N^-d sum_k f(k) exp(i k . R) at R = r u, for f
    sampled on the uniform [0, 2 pi)^d grid and the integer direction u: the
    inverse DFT read at R modulo the grid, so R >= N wraps periodically.

    f is laid out as an array of ``shape`` (n_rows, n), a 1D f as its one
    row, and ``sample(rows)`` returns the rows of a slice of it; u is the
    pair (u_row, u_col).  Each block of rows is transformed along its last
    axis and keeps only the distinct columns that R reads, at most
    min(len(r), n); one transform along the first axis then finishes the
    sum.  That is the axis order of ``ifftn``, one 1D transform at a time,
    so the values carry its bits without an (n_rows, n) array.
    """
    n_rows, n = shape
    u_row, u_col = direction
    step = max(1, BLOCK_POINTS // n)
    cols, col_of_r = np.unique((u_col * r) % n, return_inverse=True)
    part = np.empty((n_rows, len(cols)), dtype=complex)
    for lo in range(0, n_rows, step):
        rows = slice(lo, lo + step)
        part[rows] = np.fft.ifft(sample(rows), axis=1)[:, cols]
    return np.fft.ifft(part, axis=0)[(u_row * r) % n_rows, col_of_r]


def _correlation_series(model, p: WalkParams, r_max: int, n_grid: int,
                        width_scale: float, sample,
                        direction) -> CorrelationSeries:
    """The series along ``direction`` of the curvature ``sample(k, rows)``
    (the rows of a slice of the zone grid on axis ``k``, as
    ``_zone_transform`` reads them); width_scale / distance estimates the
    peak width for the near-critical guard, after the gap test of the HSP
    masses: ZeroGap where ``invariant_from_masses`` is NaN."""
    if np.isnan(model.invariant_from_masses(p.alpha, p.beta)):
        raise ZeroGap("gap closed at these parameters")
    dist = model.criticality_distance(p)
    _check_near_critical(dist, width_scale / max(dist, 1e-300), n_grid)
    k = np.linspace(0.0, 2.0 * np.pi, n_grid, endpoint=False)
    r = np.arange(r_max + 1)
    shape = (n_grid ** (model.dimension - 1), n_grid)
    series = _zone_transform(lambda rows: sample(k, rows), shape, r,
                             direction)
    if np.abs(series.imag).max() > IMAG_TOL:
        raise RuntimeError("correlation series has imaginary residue %.2e"
                           % np.abs(series.imag).max())
    return CorrelationSeries(r, series.real)


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
        lambda k, rows: rotated_curvature_1d(k[None, :], p), (0, 1))


def wannier_correlation_2d(p: WalkParams, r_max: int,
                           n_grid: int = DEFAULT_N_CORR_2D) -> CorrelationSeries:
    """Fourier transform of the 2D curvature function on the diagonal slice.

    F~(R) = integral d^2k/(2 pi)^2 F(k) exp(i k . R) with R = (R, -R),
    R = 0 .. r_max, by a 2D trapezoidal sum, evaluated and transformed one
    block of kx rows at a time.

    Raises:
        ZeroGap / UndersampledPeak: as in the 1D case.
    """
    return _correlation_series(
        WALK_2D, p, r_max, n_grid, 2.0 * np.sqrt(6.0),
        lambda k, rows: curvature_grid_2d(k[rows, None], k[None, :], p),
        (1, -1))


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
    "CorrelationSeries", "wannier_correlation_1d",
    "wannier_correlation_2d", "envelope_indices", "fit_decay",
]
