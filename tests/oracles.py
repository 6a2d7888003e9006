"""Independent numeric routes that the tests check the library against.

``find_gap_closings`` locates the gap closings of a walk by a grid scan of
|zeta| and a golden-section refinement of every local minimum; it is the
oracle of the adapters' ``closing_slope``, which states the loci in closed
form.  ``reconstruct_unitary`` rebuilds a walk unitary from its effective
Hamiltonian, the round trip of ``effective_hamiltonian``, and ``phi_2d``
evaluates the walk2d curvature numerator with tables built per call, the
per-call route of the torus kernel.  ``chiral_axis``,
``gauge_rotation_matrix`` and ``rotated_zeta_1d`` derive the rotated frame
of the 1D walk, in which its curvature function is the doubled Berry
connection.  ``full_grid_winding_1d`` checks the gap of a 1D walk at every
momentum of the inner grid, the oracle of the winding kernel's check at the
grid's two extreme cos k.
"""

import itertools

import numpy as np
from scipy.optimize import minimize_scalar

from topocrit import invariants
from topocrit.errors import ZeroGap
from topocrit.walk1d import (_SX, _SY, _SZ, EffectiveHamiltonianSample,
                             Unitary2, WalkParams, _curvature_coeffs_1d,
                             _curvature_terms_1d, _half_angles,
                             _zeta_terms_1d, energy_1d)
from topocrit.walk2d import _zeta_phi_at, energy_grid_2d

GAP_TOL = 1e-8
REFINE_TOL = 1e-10
# the upper quasienergy band on momentum arrays, by dimension
ENERGY = {1: energy_1d, 2: energy_grid_2d}


def _refine_1d(gap_fn, k0: float, h: float) -> float:
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
            zone = 0.0 if at(ENERGY[dim], q) < np.pi / 2.0 else np.pi
            if not any(zone == z and all(map(_close_mod, q, kc))
                       for kc, z in out):
                out.append((q, zone))
    return [(q[0] if dim == 1 else tuple(q), zone) for q, zone in out]


def _close_mod(a: float, b: float, tol: float = 1e-5) -> bool:
    return abs(np.angle(np.exp(1j * (a - b)))) < tol


def reconstruct_unitary(sample: EffectiveHamiltonianSample) -> Unitary2:
    """Rebuild U = cos(E) I - i sin(E) n.sigma from a decomposition."""
    e = sample.quasienergy
    nx, ny, nz = sample.axis
    nsig = nx * _SX + ny * _SY + nz * _SZ
    return Unitary2(np.cos(e) * np.eye(2) - 1j * np.sin(e) * nsig)


def phi_2d(kx, ky, p: WalkParams):
    """Numerator of the walk2d curvature function; array-capable."""
    return _zeta_phi_at(kx, ky, _half_angles(p))[3]


def chiral_axis(p: WalkParams) -> np.ndarray:
    """Axis A = (kap_b, 0, lam_b) perpendicular to the walk's n-vector."""
    _, _, kb, lb = _half_angles(p)
    return np.array([kb, 0.0, lb])


def gauge_rotation_matrix(p: WalkParams) -> np.ndarray:
    """Rotation about y with cos(t) = lam_b, sin(t) = -kap_b, mapping A -> z."""
    _, _, kb, lb = _half_angles(p)
    return np.array([[lb, 0.0, -kb], [0.0, 1.0, 0.0], [kb, 0.0, lb]])


def rotated_zeta_1d(k, p: WalkParams):
    """Planar components of the rotated axis: (kap_a sin k, zeta_y, 0)."""
    _, zy, _, zx = _zeta_terms_1d(_half_angles(p), np.sin(k), np.cos(k))
    return zx, zy


def full_grid_winding_1d(p: WalkParams, n_grid: int):
    """(raw, failure) of one walk, as ``winding_numbers_1d`` gives them for
    a cell, with the gap checked at every momentum of the inner grid by the
    minimum of |zeta|^2 and the closed form's coefficients evaluated on the
    one-cell route's numpy scalars: the route that the kernel's check at
    two momenta replaces.  raw is NaN where failure, a ZeroGap or
    QuantizationFailure, is not None.
    """
    k = np.linspace(0.0, 2.0 * np.pi, n_grid, endpoint=False)
    sin_k, cos_k = np.sin(k), np.cos(k)
    h = _half_angles(p)
    zx, zy, zz, _ = _zeta_terms_1d(h, sin_k, cos_k)
    if np.min(zx * zx + zy * zy + zz * zz) < invariants.GAP_TOL ** 2:
        return np.nan, ZeroGap("gap closed on the integration grid")
    f = _curvature_terms_1d(_curvature_coeffs_1d(h), cos_k, sin_k ** 2,
                            cos_k ** 2)
    raw = float(np.sum(f) / n_grid)
    # NaN for a raw that is not finite, which fails to quantize too
    with np.errstate(invalid="ignore"):
        defect = abs(raw - np.rint(raw))
    if not defect < invariants.DEFECT_LIMIT:
        return np.nan, invariants._quantization_failure(raw, defect)
    return raw, None
