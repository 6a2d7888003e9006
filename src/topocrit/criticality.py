"""Critical behavior of curvature-function peaks.

Gap-closing location, Lorentzian (Ornstein-Zernike) peak fits, power-law
critical exponents, and the sign flip of the peak across a transition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import AtCriticality, PoorFit, WindowTouchesCriticality, ZeroGap
from .walk1d import LOCUS_TOL, WalkParams

GAP_TOL = 1e-8
REFINE_TOL = 1e-10
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


def _refine_1d(gap_fn, k0: float, h: float) -> float:
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(gap_fn, bracket=None, bounds=(k0 - h, k0 + h),
                          method="bounded", options={"xatol": REFINE_TOL})
    return float(res.x)


def _coordinate_descent(gap_fn, k0, h: float):
    """Coordinate-wise golden-section refinement of a gap minimum.

    Each sweep minimizes along one momentum axis after the other within
    +-width and then halves the width, 12 sweeps in all.  A single axis has
    nothing to alternate with, so it takes one sweep.
    """
    k = list(k0)
    width = h
    for _ in range(12 if len(k) > 1 else 1):
        for axis in range(len(k)):
            k[axis] = _refine_1d(
                lambda t: gap_fn(k[:axis] + [t] + k[axis + 1:]), k[axis],
                width)
        width = max(width * 0.5, 10 * REFINE_TOL)
    return k


def find_gap_closings(model, p: WalkParams, grid: int = 128):
    """Locate all gap closings of a walk at fixed parameters.

    Scans |zeta| = sin E on a uniform grid over every momentum axis, refines
    every local minimum (no larger than any of its 3^d - 1 neighbours), and
    keeps those below ``GAP_TOL``.  |zeta| is sin of the gap min(E, pi - E),
    so it has the same minima; unlike the arccos quasienergy, which rounds a
    closed gap to about 1.5e-8, it resolves a closing down to rounding.
    Returns a list of (k_c, zone) where k_c is a float in 1D and a pair in
    2D, and zone is 0 or pi according to which quasienergy the bands touch
    at; the list is empty for gapped parameters.
    """
    if grid < 64:
        raise ValueError("grid must be at least 64 points per axis")
    dim = model.dimension
    k = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    gap = np.asarray(model.zeta_norm(*np.meshgrid(*[k] * dim, indexing="ij"),
                                     p))
    h = 2.0 * np.pi / grid
    is_min = np.ones_like(gap, dtype=bool)
    for shift in itertools.product((-1, 0, 1), repeat=dim):
        if any(shift):
            is_min &= gap <= np.roll(gap, shift, axis=tuple(range(dim)))

    def at(fn, q):
        return float(fn(*(np.array([c]) for c in q), p)[0])

    def gap_fn(q):
        return at(model.zeta_norm, q)

    out = []
    for idx in zip(*np.nonzero(is_min)):
        q = _coordinate_descent(gap_fn, [float(k[i]) for i in idx], h)
        if gap_fn(q) < GAP_TOL:
            q = [float(np.mod(c, 2.0 * np.pi)) for c in q]
            zone = 0.0 if at(model.energy, q) < np.pi / 2.0 else np.pi
            if not any(zone == z and all(map(_close_mod, q, kc))
                       for kc, z in out):
                out.append((q, zone))
    return [(q[0] if dim == 1 else tuple(q), zone) for q, zone in out]


def _close_mod(a: float, b: float, tol: float = 1e-5) -> bool:
    return abs(np.angle(np.exp(1j * (a - b)))) < tol


def _linearized_fit(momenta, values, k_c: float):
    """Least-squares fit of 1/F against dk^2; returns (f_peak, xi2, R^2)."""
    momenta = np.asarray(momenta, dtype=float)
    values = np.asarray(values, dtype=float)
    if momenta.size < 7:
        raise ValueError("need at least 7 samples around the peak")
    if np.any(values == 0.0):
        raise ValueError("curvature samples must be nonzero for 1/F")
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
        PoorFit: R^2 of the linearized fit below 0.99.
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


def flip_test(model, beta: float, k_c, eps: float = 1e-3) -> float:
    """Peak-value ratio F(k_c; alpha_c - eps) / F(k_c; alpha_c + eps).

    Approaches -1 as eps -> 0 across the transition whose gap closes at k_c.
    """
    alpha_c = _critical_alpha(model, beta, k_c)
    f_minus = model.peak_curvature(k_c, WalkParams(alpha_c - eps, beta))
    f_plus = model.peak_curvature(k_c, WalkParams(alpha_c + eps, beta))
    if f_plus == 0.0:
        raise ZeroGap("peak curvature vanished on the + side")
    return float(f_minus / f_plus)


__all__ = [
    "CurvatureProfile", "ExponentFit", "find_gap_closings", "fit_lorentzian",
    "sample_peak", "extract_exponents", "flip_test",
]
