"""Two-dimensional quantum walk with a single chiral-free symmetry class.

One period reads

    U(kx, ky) = S(kx) C(beta) S(ky) C(alpha) S(kx + ky) C(beta),

with coins C(theta) = exp(-i theta sigma_y / 2) and spin-dependent shifts
S(phi) = exp(i phi sigma_z).  (This operator ordering is what reproduces the
band/axis closed forms below; swapping the two single-axis shifts changes
neither the spectrum's structure nor any conclusion, but does change which
formula set applies.)  Quasienergy bands are E = +/- arccos(rho) with

    rho = kap_a cos(beta) cos kx cos(kx + 2 ky)
          - kap_a sin kx sin(kx + 2 ky) - lam_a sin(beta) cos^2 kx,

and the axis is n = zeta/|zeta|.  The curvature function

    F = (d_kx n x d_ky n) . n = phi / |zeta|^3

is the mapping-degree density of n; its integral over d^2k/(4 pi) is the
integer invariant.  Everything is pi-periodic in both momenta, so the
[0, 2 pi)^2 zone holds four copies of the fundamental domain.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import AtCriticality, ZeroGap
from .geometry import GAP_FLOOR, RealVec3
from .walk1d import Unitary2, WalkParams, _half_angles, coin

CRITICAL_FLOOR = 1e-12

PEAK_KX = np.pi / 2.0  # gap-closing momentum on the ky = -kx slice


@dataclass(frozen=True)
class Momentum2:
    """A 2D momentum, stored reduced to [0, 2 pi)."""

    kx: float
    ky: float

    def reduced(self) -> "Momentum2":
        return Momentum2(float(np.mod(self.kx, 2.0 * np.pi)),
                         float(np.mod(self.ky, 2.0 * np.pi)))


def _shift(phase: float) -> np.ndarray:
    return np.diag([np.exp(1j * phase), np.exp(-1j * phase)])


def unitary_2d(q: Momentum2, p: WalkParams) -> Unitary2:
    """One-period walk unitary at momentum (kx, ky)."""
    kx, ky = q.kx, q.ky
    m = (_shift(kx) @ coin(p.beta) @ _shift(ky) @ coin(p.alpha)
         @ _shift(kx + ky) @ coin(p.beta))
    return Unitary2(m)


def rho_2d(kx, ky, p: WalkParams):
    """cos E on broadcastable momentum arrays."""
    ka, la, _, _ = _half_angles(p)
    return (ka * np.cos(p.beta) * np.cos(kx) * np.cos(kx + 2.0 * ky)
            - ka * np.sin(kx) * np.sin(kx + 2.0 * ky)
            - la * np.sin(p.beta) * np.cos(kx) ** 2)


def energy_2d(q: Momentum2, p: WalkParams) -> float:
    """Upper quasienergy band E = arccos(rho) at one momentum."""
    return float(energy_grid_2d(q.kx, q.ky, p))


def energy_grid_2d(kx, ky, p: WalkParams):
    """Upper quasienergy on momentum arrays."""
    return np.arccos(np.clip(rho_2d(kx, ky, p), -1.0, 1.0))


# The momentum trig terms of the zeta/phi closed forms.  Each keeps the
# argument expression of the closed form it came from: 2 (kx + ky) and
# 2 kx + 2 ky round differently, and both are in use.
TRIG_TERMS_2D = {
    "cos_x": lambda kx, ky: np.cos(kx),
    "sin_x": lambda kx, ky: np.sin(kx),
    "cos_x2y": lambda kx, ky: np.cos(kx + 2.0 * ky),
    "cos_2x": lambda kx, ky: np.cos(2.0 * kx),
    "sin_2x": lambda kx, ky: np.sin(2.0 * kx),
    "sin_2xy": lambda kx, ky: np.sin(2.0 * (kx + ky)),
    "sin_2y": lambda kx, ky: np.sin(2.0 * ky),
    "cos_2y": lambda kx, ky: np.cos(2.0 * ky),
    "cos_2x2y": lambda kx, ky: np.cos(2.0 * kx + 2.0 * ky),
    "cos_4y": lambda kx, ky: np.cos(4.0 * ky),
}


TrigTable2D = namedtuple("TrigTable2D", TRIG_TERMS_2D)


def trig_table_2d(kx, ky) -> TrigTable2D:
    """Every trig term evaluated once on a momentum grid, for reuse across
    many parameter points."""
    return TrigTable2D(*(term(kx, ky) for term in TRIG_TERMS_2D.values()))


class _TrigOnRead:
    """Trig source over broadcastable momentum arrays.

    Each term is computed when it is read and not kept, so evaluating the
    closed forms on a large grid holds no more arrays at once than writing
    the trig calls inline would.
    """

    __slots__ = ("kx", "ky")

    def __init__(self, kx, ky):
        self.kx = kx
        self.ky = ky

    def __getattr__(self, name):
        return TRIG_TERMS_2D[name](self.kx, self.ky)


def _zeta_phi_2d(trig, ka, la, kb, lb):
    """Axis components and curvature numerator from one trig source.

    ``trig`` exposes the terms of ``TRIG_TERMS_2D`` as attributes: a
    ``_TrigOnRead`` or a ``TrigTable2D``.  The half-angle coefficients
    broadcast against the momentum terms, so either side may be the grid.
    Returns (zx, zy, zz, phi) with F = phi / |zeta|^3.
    """
    zx = -2.0 * lb * trig.sin_x * (la * lb * trig.cos_x
                                   - ka * kb * trig.cos_x2y)
    zy = (la * kb ** 2 - la * lb ** 2 * trig.cos_2x
          + 2.0 * ka * kb * lb * trig.cos_x * trig.cos_x2y)
    zz = (la * kb * lb * trig.sin_2x
          - ka * (kb ** 2 * trig.sin_2xy + lb ** 2 * trig.sin_2y))
    t1 = 4.0 * ka ** 2 * kb ** 2 * lb * trig.cos_x * trig.cos_x2y
    t2 = ka * la * kb * (2.0 * kb ** 2 * trig.cos_2y * trig.cos_2x2y
                         - lb ** 2 * (2.0 * trig.cos_2x + trig.cos_4y + 3.0))
    t3 = 2.0 * la ** 2 * lb * trig.cos_2y * (lb ** 2 - kb ** 2 * trig.cos_2x)
    phi = 2.0 * ka * lb * (kb ** 2 + lb ** 2) * (t1 + t2 + t3)
    return zx, zy, zz, phi


def zeta_components_2d(kx, ky, p: WalkParams):
    """Unnormalized-axis components on broadcastable momentum arrays."""
    return _zeta_phi_2d(_TrigOnRead(kx, ky), *_half_angles(p))[:3]


def zeta_2d(q: Momentum2, p: WalkParams) -> RealVec3:
    """zeta-vector at one momentum; |zeta| = sin E and n = zeta/|zeta|."""
    zx, zy, zz = zeta_components_2d(float(q.kx), float(q.ky), p)
    return RealVec3(float(zx), float(zy), float(zz))


def phi_2d(kx, ky, p: WalkParams):
    """Numerator of the curvature function; array-capable."""
    return _zeta_phi_2d(_TrigOnRead(kx, ky), *_half_angles(p))[3]


def curvature_2d(q: Momentum2, p: WalkParams) -> float:
    """Curvature function F = (d_kx n x d_ky n) . n = phi / |zeta|^3."""
    return float(curvature_grid_2d(q.kx, q.ky, p))


def curvature_grid_2d(kx, ky, p: WalkParams, validate: bool = True):
    """Curvature function on momentum arrays."""
    zx, zy, zz, phi = _zeta_phi_2d(_TrigOnRead(kx, ky), *_half_angles(p))
    n2 = zx * zx + zy * zy + zz * zz
    if validate and np.min(n2) < GAP_FLOOR ** 2:
        raise ZeroGap("gap closed on the requested grid")
    with np.errstate(divide="ignore", invalid="ignore"):
        return phi / n2 ** 1.5


def _curvature_raw_2d(kx, ky, alpha, beta):
    """Unvalidated curvature on broadcastable (k, alpha, beta) arrays."""
    ka, la = np.cos(alpha / 2.0), np.sin(alpha / 2.0)
    kb, lb = np.cos(beta / 2.0), np.sin(beta / 2.0)
    zx, zy, zz, phi = _zeta_phi_2d(_TrigOnRead(kx, ky), ka, la, kb, lb)
    with np.errstate(divide="ignore", invalid="ignore"):
        return phi / (zx * zx + zy * zy + zz * zz) ** 1.5


def diagonal_slice_curvature(delta, p: WalkParams):
    """Curvature along the ky = -kx slice, offset delta from the peak.

    Samples F(pi/2 + delta, -pi/2 - delta); array-capable.
    """
    kx = PEAK_KX + np.asarray(delta, dtype=float)
    ky = -PEAK_KX - np.asarray(delta, dtype=float)
    out = curvature_grid_2d(kx, ky, p)
    return out


def axis_slice_curvature(delta, p: WalkParams, axis: str = "x"):
    """Curvature along a single momentum axis through the slice peak."""
    delta = np.asarray(delta, dtype=float)
    if axis == "x":
        return curvature_grid_2d(PEAK_KX + delta, -PEAK_KX + 0.0 * delta, p)
    if axis == "y":
        return curvature_grid_2d(PEAK_KX + 0.0 * delta, -PEAK_KX + delta, p)
    raise ValueError("axis must be 'x' or 'y'")


def peak_asymptotics_2d(p: WalkParams):
    """Closed-form peak height and squared width at (kx, ky) = (pi/2, -pi/2).

    The peak value is exact for all angles:

        F_peak = 2 sgn(lam_a) (sin(a-b) - sin a - sin b) / (1 - cos a),

    where sgn acts on lam_a = sin(alpha/2) (the sign carries the flip of the
    peak across alpha = 0).  The squared width along kx is the asymptotic

        xi_x^2 ~ Xi / sqrt(1 - cos a),
        Xi = 2 sqrt(2) kap_a (2 lam_b^2 (5 + 2 cos a + cos b)
             - sin(b) cot(a/2) (3 cos b + cos a - 4)).

    Raises:
        AtCriticality: alpha = 0 (mod 2 pi), where the peak diverges.
    """
    a, b = p.alpha, p.beta
    ka, la = np.cos(a / 2.0), np.sin(a / 2.0)
    lb = np.sin(b / 2.0)
    one_minus = 1.0 - np.cos(a)
    if one_minus < CRITICAL_FLOOR or abs(la) < CRITICAL_FLOOR:
        raise AtCriticality("slice peak is critical at alpha = 0 (mod 2 pi)")
    f_peak = 2.0 * np.sign(la) * (np.sin(a - b) - np.sin(a) - np.sin(b)) / one_minus
    xi_big = 2.0 * np.sqrt(2.0) * ka * (
        2.0 * lb ** 2 * (5.0 + 2.0 * np.cos(a) + np.cos(b))
        - np.sin(b) * (ka / la) * (3.0 * np.cos(b) + np.cos(a) - 4.0))
    xi_x2 = xi_big / np.sqrt(one_minus)
    return float(f_peak), float(xi_x2)


def min_gap_2d(p: WalkParams, n: int = 96) -> float:
    """Coarse minimum of min(E, pi - E) over the fundamental domain."""
    k = np.linspace(0.0, np.pi, n, endpoint=False)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    e = energy_grid_2d(kx, ky, p)
    return float(np.minimum(e, np.pi - e).min())
