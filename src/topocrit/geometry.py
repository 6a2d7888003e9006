"""Band geometry of two-band Hamiltonians H = d . sigma.

Lower-band eigenstates in a gauge the caller chooses and the quantum
geometric tensor, on arrays, together with the Berry connection and curvature
of the 1D (d = (M, k, 0)) and 2D (d = (kx, ky, M)) Dirac models.
"""

from __future__ import annotations

import numpy as np

from .errors import GaugeSingularity, ZeroGap

GAP_FLOOR = 1e-14
# d3/|d| from which a caller takes the lower band state in the north gauge
GAUGE_SWITCH = 0.5


def below_gap_floor(norm2):
    """norm2 = |d|^2 (or |zeta|^2, or sin^2 E) < GAP_FLOOR^2: the one gap
    test, of every curvature route, invariant and peak asymptotics."""
    return norm2 < GAP_FLOOR ** 2


def lower_band_states(d, south):
    """Lower eigenstates of H = d . sigma on broadcastable arrays, in the
    gauge the caller chooses.

    ``d`` is (d1, d2, d3); ``south`` is a bool broadcasting against it.
    Where it is true the state is in the south gauge, with d1 + i d2 in the
    lower component and smooth except near d ~ +z,

        |psi_-> = (d3 - |d|, d1 + i d2) / sqrt(2 |d| (|d| - d3)),

    and elsewhere in the north gauge, smooth except near d ~ -z,

        |psi_-> = (-(d1 - i d2), |d| + d3) / sqrt(2 |d| (|d| + d3)).

    The function never picks the gauge itself: a finite-difference stencil
    must keep one gauge across all its points, so the caller fixes it, say
    from d3/|d| < GAUGE_SWITCH at the stencil centre.  Returns a complex
    array of shape (2, ...).

    Raises:
        ZeroGap: |d| below the gap floor.
        GaugeSingularity: |d| -+ d3 of the chosen gauge below the gap floor.
    """
    d1, d2, d3 = (np.asarray(c, dtype=float) for c in d)
    norm2 = d1 * d1 + d2 * d2 + d3 * d3
    if np.any(below_gap_floor(norm2)):
        raise ZeroGap("gap closed: |d| = %.3e" % np.sqrt(np.min(norm2)))
    dn = np.sqrt(norm2)
    pole = np.where(south, dn - d3, dn + d3)
    if np.any(pole < GAP_FLOOR):
        raise GaugeSingularity("state undefined in the chosen gauge at a pole")
    up = np.where(south, d3 - dn, -(d1 - 1j * d2))
    down = np.where(south, d1 + 1j * d2, dn + d3)
    return np.stack([up, down]) / np.sqrt(2.0 * dn * pole)


def quantum_geometric_tensor(d, d_a, d_b):
    """Quantum geometric tensor entry T_ab of the lower band of d . sigma.

    ``d`` and its derivatives ``d_a``, ``d_b`` along the two directions are
    triples of broadcastable arrays.  With n = d / |d|,

        T_ab = (1/4) d_a n . d_b n - (i/4) n . (d_a n x d_b n),

    so Re T is the quantum metric (the fidelity susceptibility) and
    -2 Im T_xy the lower-band Berry curvature.

    Raises:
        ZeroGap: |d| below the gap floor.
    """
    parts = np.broadcast_arrays(*d, *d_a, *d_b)
    d, d_a, d_b = np.asarray(parts, dtype=float).reshape(
        (3, 3) + parts[0].shape)
    norm2 = np.sum(d * d, axis=0)
    if np.any(below_gap_floor(norm2)):
        raise ZeroGap("gap closed: |d| = %.3e" % np.sqrt(np.min(norm2)))
    dn = np.sqrt(norm2)
    n = d / dn
    e_a = (d_a - n * np.sum(n * d_a, axis=0)) / dn
    e_b = (d_b - n * np.sum(n * d_b, axis=0)) / dn
    return (0.25 * np.sum(e_a * e_b, axis=0)
            - 0.25j * np.sum(n * np.cross(e_a, e_b, axis=0), axis=0))


def _off_dirac_point(d2, form):
    """``form(d2)`` where |d|^2 = ``d2`` clears the gap floor and NaN where
    it does not; a scalar ``d2`` below the floor raises ZeroGap instead."""
    if np.ndim(d2) == 0:
        if below_gap_floor(d2):
            raise ZeroGap("Dirac point at M = k = 0")
        return float(form(d2))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(below_gap_floor(d2), np.nan, form(d2))


def berry_connection_1d(k, M):
    """Berry connection <psi_-| i d_k |psi_-> = -M / (2 (M^2 + k^2)).

    Array-capable; NaN at the Dirac point of an array, ZeroGap at a scalar.
    """
    return _off_dirac_point(M * M + k * k, lambda d2: -M / (2.0 * d2))


def berry_curvature_2d_dirac(kx, ky, M):
    """Lower-band Berry curvature Omega_xy = M / (2 (M^2 + k^2)^{3/2}).

    Array-capable; NaN at the Dirac point of an array, ZeroGap at a scalar.
    ``float_power`` gives every point the bits of a scalar ``d2 ** 1.5``;
    an array ``** 1.5`` goes through numpy's SIMD pow, which can differ in
    the last bit.
    """
    return _off_dirac_point(M * M + kx * kx + ky * ky,
                            lambda d2: M / (2.0 * np.float_power(d2, 1.5)))
