"""Critical behavior of curvature-function peaks.

Lorentzian (Ornstein-Zernike) peak fits and power-law critical exponents.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AtCriticality, PoorFit, WindowTouchesCriticality
from .walk1d import LOCUS_TOL, WalkParams

FIT_MIN_R2 = 0.99
DEFAULT_WINDOW = (1e-3, 1e-1)
DEFAULT_POINTS = 20
MIN_POINTS = 10
PEAK_SAMPLES = 31


@dataclass
class CurvatureProfile:
    """Sampled curvature peak with fit metadata."""

    momenta: np.ndarray
    values: np.ndarray
    k_c: float
    f_peak: float = np.nan
    xi: float = np.nan
    residual: float = np.nan


@dataclass
class ExponentFit:
    """Power-law fit of peak height and width against parameter distance."""

    alpha_c: float
    gamma: float
    nu: float
    gamma_stderr: float
    nu_stderr: float
    window: tuple
    dimension: int
    scaling_law_residual: float = field(init=False)

    def __post_init__(self):
        self.scaling_law_residual = abs(self.gamma - self.dimension * self.nu)


def _linearized_fit(momenta, values, k_c: float):
    """Least-squares fit of 1/F against dk^2; returns (f_peak, xi2, R^2)."""
    momenta = np.asarray(momenta, dtype=float)
    values = np.asarray(values, dtype=float)
    if momenta.size < 7:
        raise ValueError("need at least 7 samples around the peak")
    zeros = int(np.count_nonzero(values == 0.0))
    if zeros:
        raise PoorFit("%d of %d curvature samples are 0: no peak to fit by 1/F"
                      % (zeros, values.size))
    dk2 = (momenta - k_c) ** 2
    if np.ptp(dk2) == 0.0:
        return float(values[0]), 0.0, 1.0
    y = 1.0 / values
    design = np.vstack([np.ones_like(dk2), dk2]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    pred = design @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(1.0 / coef[0]), float(coef[1] / coef[0]), float(r2)


def fit_lorentzian(momenta, values, k_c: float):
    """Fit F(k_c + dk) = F_peak / (1 +/- xi^2 dk^2) by linearizing 1/F.

    1/F is affine in dk^2, so the fit is a deterministic least-squares
    problem with no initializer.  The branch sign is read off the slope.

    Args:
        momenta: sampled momenta around the peak (exclude exact zeros of F).
        values: curvature samples at those momenta.
        k_c: peak location.

    Returns:
        CurvatureProfile with f_peak, xi (non-negative) and the R^2 residual.

    Raises:
        PoorFit: a sample of F is 0, or R^2 of the linearized fit is below
            0.99.
    """
    f_peak, xi2_signed, r2 = _linearized_fit(momenta, values, k_c)
    if r2 < FIT_MIN_R2:
        raise PoorFit("linearized Lorentzian fit R^2 = %.4f" % r2)
    return CurvatureProfile(np.asarray(momenta, dtype=float),
                            np.asarray(values, dtype=float), k_c,
                            f_peak, float(np.sqrt(abs(xi2_signed))),
                            float(1.0 - r2))


def sample_peak(model, p: WalkParams, k_c, xi_guess: float | None = None,
                n: int = PEAK_SAMPLES):
    """Sample the curvature peak within the Lorentzian core and fit it.

    The sampling radius is min(0.5/xi, 0.1); a pilot pass (at radius 0.1
    unless a width guess is supplied) estimates xi without a quality gate,
    then one refinement pass resamples at the adapted radius and applies the
    R^2 gate of :func:`fit_lorentzian`.
    """
    def deltas_for(xi):
        radius = 0.1 if xi is None else min(0.5 / max(xi, 1e-12), 0.1)
        d = np.linspace(-radius, radius, n)
        return d[np.abs(d) > 1e-12]

    d = deltas_for(xi_guess)
    _, xi2, _ = _linearized_fit(d, model.peak_profile(k_c, d, p), 0.0)
    d = deltas_for(np.sqrt(abs(xi2)))
    return fit_lorentzian(d, model.peak_profile(k_c, d, p), 0.0)


def extract_exponents(model, beta: float, k_c, window=DEFAULT_WINDOW,
                      n_points: int = DEFAULT_POINTS) -> ExponentFit:
    """Fit gamma and nu from log-log slopes over a log-spaced window.

    For each eps in the window the peak is sampled at alpha = alpha_c + eps
    and fit with :func:`fit_lorentzian`; |F_peak| ~ eps^-gamma and
    xi ~ eps^-nu give the exponents by least squares.  alpha_c is the
    transition whose gap closes at k_c, and no sweep point may be nearer to
    another locus (``criticality_distance`` measures to them all) than to it.

    Raises:
        ValueError: k_c is no high-symmetry momentum of the model.
        PoorFit: the gap closes on lines at beta (``closes_on_lines``).
        WindowTouchesCriticality: the window is malformed, or a sweep point
            is nearer to another locus.
    """
    lo, hi = window
    if not (0.0 < lo < hi):
        raise WindowTouchesCriticality(
            "malformed window: need 0 < lo < hi, got %r" % (window,))
    alpha_c = _critical_alpha(model, beta, k_c)
    if n_points < MIN_POINTS:
        raise ValueError("need at least %d window points" % MIN_POINTS)
    if model.closes_on_lines(beta):
        raise PoorFit("%s at beta = %r: the gap closes on lines of the "
                      "zone at alpha_c = %r, not at a Dirac point; no "
                      "exponent fit" % (model.name, beta, alpha_c))
    eps = np.logspace(np.log10(lo), np.log10(hi), n_points)
    f_peaks = np.empty(n_points)
    xis = np.empty(n_points)
    for i, e in enumerate(eps):
        p = WalkParams(alpha_c + e, beta)
        if model.criticality_distance(p) < e - LOCUS_TOL:
            raise WindowTouchesCriticality(
                "sweep point at alpha offset %.3e is nearer to another "
                "gap-closing locus than to alpha_c = %r" % (e, alpha_c))
        try:
            _, xi2 = model.peak_asymptotics(p, k_c)
            guess = np.sqrt(abs(xi2))
        except AtCriticality:
            guess = None
        prof = sample_peak(model, p, k_c, xi_guess=guess)
        f_peaks[i] = abs(prof.f_peak)
        xis[i] = prof.xi
    gamma, g_se = _neg_slope(np.log(eps), np.log(f_peaks))
    nu, n_se = _neg_slope(np.log(eps), np.log(xis))
    return ExponentFit(alpha_c, gamma, nu, g_se, n_se, (lo, hi),
                       model.dimension)


def _neg_slope(x: np.ndarray, y: np.ndarray):
    """Least-squares slope of y(x), negated, with its standard error."""
    n = len(x)
    design = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    dof = max(n - 2, 1)
    var = np.sum(resid ** 2) / dof / np.sum((x - x.mean()) ** 2)
    return float(-coef[1]), float(np.sqrt(var))


def _critical_alpha(model, beta: float, k_c) -> float:
    """alpha_c = -b beta, b = ``model.closing_slope(k_c)`` (ValueError off
    every HSP); 0.0 - b beta keeps alpha_c = +0.0 at beta = 0."""
    return 0.0 - model.closing_slope(k_c) * beta


__all__ = [
    "CurvatureProfile", "ExponentFit", "fit_lorentzian", "sample_peak",
    "extract_exponents",
]
