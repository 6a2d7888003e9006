"""Topological invariants by Brillouin-zone integration.

The 1D winding number integrates the curvature function over dk/(2 pi).
Many walks are evaluated at once, as one array expression per block of
cells (an alpha row of a phase diagram), against a memoized table of the
momentum trig terms; a single cell is a block of one.  The parameter
coefficients are still evaluated per cell, as numpy scalars, so every raw
integral keeps the bits of the one-cell closed-form route.

The 2D invariant integrates the mapping-degree density of the Bloch axis
over d^2k/(4 pi) and is cross-checked against a gauge-invariant plaquette
(link-variable) computation on the same grid, an independent route free of
derivative discretization error.

Both 2D routes read one zeta evaluation per call, made on the pi-periodic
fundamental torus [0, pi)^2 of the zone grid from a memoized momentum trig
table.  They share that input only: the integral sums phi / |zeta|^3, the
oracle builds lower-band states from zeta / |zeta| and sums link-variable
fluxes, and neither uses the other's result.  The memoized tables of both
invariants are read-only, so sharing them across calls and threads needs no
locking.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import OracleMismatch, QuantizationFailure, ZeroGap
from .geometry import GAP_FLOOR
from .walk1d import (WalkParams, _curvature_coeffs_1d, _curvature_terms_1d,
                     _half_angles, _zeta_terms_1d)
from .walk2d import _zeta_phi_2d, trig_table_2d

DEFAULT_N_WINDING = 4096
DEFAULT_N_CHERN = 256
GAP_TOL = 1e-10
DEFECT_LIMIT = 1e-3
# largest number of (cell, momentum) points in one winding_numbers_1d block;
# a block's temporaries then stay within a core's L2 cache
WINDING_BLOCK_POINTS = 1 << 12


@dataclass(frozen=True)
class InvariantResult:
    """Raw BZ integral, its rounded integer, and the quantization defect."""

    raw: float
    rounded: int
    defect: float
    grid: int


def _quantize(raw: float, grid: int) -> InvariantResult:
    rounded = int(np.rint(raw))
    defect = abs(raw - rounded)
    if defect >= DEFECT_LIMIT:
        raise QuantizationFailure("integral %.6f is %.2e from an integer"
                                  % (raw, defect))
    return InvariantResult(float(raw), rounded, float(defect), grid)


def winding_number_1d(p: WalkParams, n_grid: int = DEFAULT_N_WINDING) -> InvariantResult:
    """Winding number C = integral F(k) dk / (2 pi) on a uniform grid.

    The one-cell case of ``winding_numbers_1d``.

    Raises:
        ZeroGap: the spectrum closes somewhere on the grid.
        QuantizationFailure: the integral does not round cleanly.
    """
    result, = winding_numbers_1d([p], n_grid)
    if isinstance(result, InvariantResult):
        return result
    try:
        raise result
    finally:
        # the traceback holds this frame; dropping the local breaks the
        # exception -> frame -> exception cycle
        del result


@lru_cache(maxsize=4)
def _circle_trig(n_grid: int):
    """Read-only (sin k, cos k, sin^2 k, cos^2 k) on the n_grid zone grid."""
    k = np.linspace(0.0, 2.0 * np.pi, n_grid, endpoint=False)
    sin_k, cos_k = np.sin(k), np.cos(k)
    table = (sin_k, cos_k, sin_k ** 2, cos_k ** 2)
    for term in table:
        term.setflags(write=False)
    return table


def winding_numbers_1d(params, n_grid: int = DEFAULT_N_WINDING) -> list:
    """``winding_number_1d`` of each walk in ``params``, evaluated together.

    Returns one entry per walk: its InvariantResult, or the ZeroGap or
    QuantizationFailure that ``winding_number_1d`` raises for it.  The cells
    are evaluated in blocks of at most WINDING_BLOCK_POINTS (cell, momentum)
    points, so memory does not grow with the number of cells.
    """
    params = list(params)
    step = max(1, WINDING_BLOCK_POINTS // n_grid)
    results = []
    for start in range(0, len(params), step):
        results += _winding_block(params[start:start + step], n_grid)
    return results


def _winding_block(params, n_grid: int) -> list:
    sin_k, cos_k, sin2_k, cos2_k = _circle_trig(n_grid)
    halves = [_half_angles(p) for p in params]
    # per-cell scalar coefficients keep the bits of the one-cell route
    coeffs = np.array([_curvature_coeffs_1d(h) for h in halves]).T[:, :, None]
    h = np.array(halves).T[:, :, None]
    zx, zy, zz, rx = _zeta_terms_1d(h, sin_k, cos_k)
    zy2 = zy * zy
    closed = np.min(zx * zx + zy2 + zz * zz, axis=1) < GAP_TOL ** 2
    # the rotated-frame norm, as rotated_curvature_1d validates it
    closed_rot = np.min(rx * rx + zy2, axis=1) < GAP_FLOOR ** 2
    gapped = ~(closed | closed_rot)
    f = _curvature_terms_1d(coeffs[:, gapped], cos_k, sin2_k, cos2_k)
    raws = iter((np.sum(f, axis=1) / n_grid).tolist())
    results = []
    for zeta_closed, rot_closed in zip(closed.tolist(), closed_rot.tolist()):
        if zeta_closed:
            results.append(ZeroGap("gap closed on the integration grid"))
        elif rot_closed:
            results.append(ZeroGap("gap closed on the requested momenta"))
        else:
            try:
                results.append(_quantize(next(raws), n_grid))
            except QuantizationFailure as exc:
                # a kept traceback would hold this block's arrays alive
                results.append(exc.with_traceback(None))
    return results


@lru_cache(maxsize=4)
def _zone_trig(n_grid: int):
    """Read-only trig table of the n_grid zone grid, and the torus weight.

    walk2d is pi-periodic in both momenta, so for even n_grid the table
    covers only the fundamental torus [0, pi)^2 of the zone grid and the
    weight is 4, the number of its copies in [0, 2 pi)^2.  Odd n_grid does
    not fold onto a half-period grid and keeps the full zone, weight 1.
    """
    k = np.linspace(0.0, 2.0 * np.pi, n_grid, endpoint=False)
    weight = 1
    if n_grid % 2 == 0:
        k = k[:n_grid // 2]
        weight = 4
    kx, ky = np.meshgrid(k, k, indexing="ij")
    table = trig_table_2d(kx, ky)
    for term in table:
        term.setflags(write=False)
    return table, weight


def _zeta_on_torus(p: WalkParams, n_grid: int):
    """One zeta/phi evaluation on the memoized torus, gap-checked."""
    table, weight = _zone_trig(n_grid)
    zx, zy, zz, phi = _zeta_phi_2d(table, *_half_angles(p))
    n2 = zx * zx + zy * zy + zz * zz
    if np.min(n2) < GAP_TOL ** 2:
        raise ZeroGap("gap closed on the integration grid")
    return (zx, zy, zz), n2, phi, weight


def chern_number_2d(p: WalkParams, n_grid: int = DEFAULT_N_CHERN) -> InvariantResult:
    """Mapping-degree invariant C = integral F d^2k / (4 pi), with oracle.

    The trapezoidal integral of the curvature function must round to the
    same integer as the plaquette link-variable computation.  Both read the
    same zeta evaluation on the fundamental torus.

    Raises:
        ZeroGap, QuantizationFailure, OracleMismatch.
    """
    zeta, n2, phi, weight = _zeta_on_torus(p, n_grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = phi / n2 ** 1.5
    raw = float(weight * np.sum(f) * (2.0 * np.pi / n_grid) ** 2 / (4.0 * np.pi))
    result = _quantize(raw, n_grid)
    oracle = _quantize(_plaquette_raw(zeta, n2, weight), n_grid)
    if oracle.rounded != result.rounded:
        raise OracleMismatch("integral gives %d but plaquette oracle gives %d"
                             % (result.rounded, oracle.rounded))
    return result


def _lower_band_states(zeta, n2):
    """Lower-band spinors of the axis field on a grid, gauge chosen per point.

    Uses the south gauge (axis_x + i axis_y in the lower component) away from
    the north pole and the complementary gauge near it; the plaquette product
    is invariant under the per-point choice.
    """
    zx, zy, zz = zeta
    zn = np.sqrt(n2)
    nx, ny, nz = zx / zn, zy / zn, zz / zn
    south = nz < 0.5
    up = np.where(south, nz - 1.0, -(nx - 1j * ny))
    dn = np.where(south, nx + 1j * ny, 1.0 + nz)
    norm = np.sqrt(np.abs(up) ** 2 + np.abs(dn) ** 2)
    return up / norm, dn / norm


def _plaquette_raw(zeta, n2, weight: int) -> float:
    """Total plaquette flux over 2 pi on a periodic grid of the axis field.

    Link products around each plaquette give the lattice field strength; the
    loop holonomy is exp(-i flux), so the flux is minus the argument of the
    counterclockwise product.  The total over a closed torus is 2 pi times
    an integer at any resolution fine enough to keep each plaquette flux
    within (-pi, pi); ``weight`` copies of the torus make up the zone.
    """
    up, dn = _lower_band_states(zeta, n2)

    def link(axis):
        u2 = np.roll(up, -1, axis=axis)
        d2 = np.roll(dn, -1, axis=axis)
        return np.conj(up) * u2 + np.conj(dn) * d2

    ux = link(0)
    uy = link(1)
    plaq = ux * np.roll(uy, -1, axis=0) * np.conj(np.roll(ux, -1, axis=1)) * np.conj(uy)
    flux = -np.angle(plaq)
    return float(weight * flux.sum() / (2.0 * np.pi))


def chern_plaquette(p: WalkParams, n_grid: int = DEFAULT_N_CHERN) -> InvariantResult:
    """Plaquette (link-variable) invariant of the lower band.

    An independent route to the invariant: it uses the axis field only
    through link variables, never the curvature function.
    """
    zeta, n2, _, weight = _zeta_on_torus(p, n_grid)
    return _quantize(_plaquette_raw(zeta, n2, weight), n_grid)


__all__ = [
    "InvariantResult", "winding_number_1d", "winding_numbers_1d",
    "chern_number_2d", "chern_plaquette",
]
