"""Split-step quantum walk on a line (chiral-symmetric, two internal states).

One period of the protocol is

    U(k) = S_up C(alpha) S_down C(beta),

with coins C(theta) = exp(-i theta sigma_y / 2) and spin-dependent shifts
S_up = exp(i k (sigma_z - 1)/2), S_down = exp(i k (sigma_z + 1)/2).  The
effective Hamiltonian H = i ln U = E n.sigma gives quasienergy bands

    E(k) = +/- arccos(kap_a kap_b cos k - lam_a lam_b),

with kap_j = cos(j/2), lam_j = sin(j/2), and axis n = zeta/|zeta| where

    zeta = (kap_a lam_b sin k,
            lam_a kap_b + kap_a lam_b cos k,
            -kap_a kap_b sin k).

The curvature function F(k) is the winding density of the chiral-projected
axis; its Brillouin-zone integral over dk/(2 pi) is the winding number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AtCriticality, ZeroGap
from .geometry import GAP_FLOOR

# |sin E| below which the bands touch: no closed-form peak asymptotics in
# either walk (AtCriticality)
CRITICAL_FLOOR = 1e-12
LOCUS_TOL = 1e-9  # angle slack of a point on a gap-closing locus or at an HSP


def _reduce_angle(x: float) -> float:
    """Map an angle to (-pi, pi]."""
    y = float(np.mod(x + np.pi, 2.0 * np.pi) - np.pi)
    return np.pi if y == -np.pi else y


@dataclass(frozen=True)
class WalkParams:
    """Coin rotation angles of one walk period."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise ValueError("angles must be finite")

    def reduced(self) -> "WalkParams":
        return WalkParams(_reduce_angle(self.alpha), _reduce_angle(self.beta))


def coin(theta: float) -> np.ndarray:
    """Coin rotation exp(-i theta sigma_y / 2)."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _half_angles(p: WalkParams):
    return _angle_halves(p.alpha, p.beta)


def _angle_halves(alpha, beta):
    """(kap_a, lam_a, kap_b, lam_b) of broadcastable angle arrays."""
    return _halves(alpha) + _halves(beta)


def _halves(theta):
    """(cos(theta/2), sin(theta/2)) of an angle array."""
    return np.cos(theta / 2.0), np.sin(theta / 2.0)


def energy_1d(k, p: WalkParams):
    """Upper quasienergy band E(k) = arccos(kap_a kap_b cos k - lam_a lam_b).

    Accepts scalar or array momenta.
    """
    ka, la, kb, lb = _half_angles(p)
    arg = ka * kb * np.cos(k) - la * lb
    arg = np.clip(arg, -1.0, 1.0)  # rounding tolerance at the branch edges
    return np.arccos(arg)


def _zeta_terms_1d(h, sin_k, cos_k):
    """(zeta_x, zeta_y, zeta_z, zeta'_x) from the half angles
    h = (kap_a, lam_a, kap_b, lam_b) and the momentum terms sin k, cos k; the
    one copy of the zeta algebra.  zeta'_x = kap_a sin k is the planar x
    component of the rotated axis (zeta'_x, zeta_y, 0).  The half angles may
    be columns of per-cell values, broadcast against a row of momenta.
    """
    ka, la, kb, lb = h
    return (ka * lb * sin_k, la * kb + ka * lb * cos_k, -ka * kb * sin_k,
            ka * sin_k)


def zeta_components_1d(k, p: WalkParams):
    """Unnormalized-axis components (zeta_x, zeta_y, zeta_z); array-capable."""
    return _zeta_terms_1d(_half_angles(p), np.sin(k), np.cos(k))[:3]


def _gap_closed_1d(k, h):
    """Where the rotated axis has no gap, zeta'_x^2 + zeta_y^2 below
    GAP_FLOOR^2, from the half angles h, which may be arrays."""
    _, zy, _, zx = _zeta_terms_1d(h, np.sin(k), np.cos(k))
    return zx * zx + zy * zy < GAP_FLOOR ** 2


def rotated_curvature_1d(k, p: WalkParams):
    """Curvature function F(k) = (n x d_k n) . A, the doubled rotated-frame
    Berry connection; array-capable.  The closed form

        F = -(kap_a^2 lam_b + lam_a kap_a kap_b cos k)
            / (kap_a^2 sin^2 k + (lam_a kap_b + kap_a lam_b cos k)^2)

    is the stage of (k, beta) evaluated at the alpha half angles.

    Raises:
        ZeroGap: the gap closes on the requested momenta.
    """
    if np.any(_gap_closed_1d(k, _half_angles(p))):
        raise ZeroGap("gap closed on the requested momenta")
    return _curvature_staged_1d(_curvature_stage_1d(k, p.beta),
                                *_halves(p.alpha))


def _curvature_stage_1d(k, beta):
    """What the closed form reads of the momentum and beta, for any alpha:
    the beta half angles and the momentum terms (cos k, sin^2 k, cos^2 k)."""
    cos_k = np.cos(k)
    return _halves(beta), (cos_k, np.sin(k) ** 2, cos_k ** 2)


def _curvature_staged_1d(stage, ka, la):
    """The closed form at the alpha half angles (ka, la) on a stage of
    ``_curvature_stage_1d``, which they broadcast against."""
    (kb, lb), k_terms = stage
    return _curvature_terms_1d(_curvature_coeffs_1d((ka, la, kb, lb)),
                               *k_terms)


def _curvature_coeffs_1d(h):
    """The parameter coefficients of the closed form, from the half angles.

    ``x ** 2`` on a float64 scalar goes through libm pow and on a float64
    array through a squaring loop, which may differ in the last bit; a
    caller that needs the bits of the one-cell route evaluates these on
    scalars or on object arrays of Python floats, which also square through
    libm pow.
    """
    ka, la, kb, lb = h
    return (-ka ** 2 * lb, la * ka * kb,
            ka ** 2, la ** 2 * kb ** 2, 2.0 * ka * kb * la * lb,
            ka ** 2 * lb ** 2)


def _curvature_terms_1d(c, cos_k, sin2_k, cos2_k):
    """The closed form from its coefficients ``c`` and the momentum terms,
    in the operation order of the expanded numerator and denominator."""
    n0, n1, d_s2, d0, d_c, d_c2 = c
    num = n0 - n1 * cos_k
    den = d_s2 * sin2_k + d0 + d_c * cos_k + d_c2 * cos2_k
    with np.errstate(divide="ignore", invalid="ignore"):
        return num / den


def peak_asymptotics_1d(p: WalkParams, k_c: float):
    """Closed-form peak height and squared width at a high-symmetry point.

    At k_c = 0 the relevant half-angle is lam_(a+b); at k_c = pi it is
    lam_(a-b).  Returns (F_peak, xi2) with

        F_peak(0)  = -kap_a / lam_(a+b),
        F_peak(pi) = +kap_a / lam_(a-b),
        xi2 = (kap_b^2 + kap_a^2 kap_b^2 - kap_a kap_b lam_a lam_b)
              / (2 lam_(a+-b)^2).

    Raises:
        AtCriticality: the corresponding gap channel is closed.
    """
    ka, la, kb, lb = _half_angles(p)
    at_zero = _at_zero_channel(k_c)
    lam = np.sin((p.alpha + p.beta) / 2.0) if at_zero else np.sin((p.alpha - p.beta) / 2.0)
    if abs(lam) < CRITICAL_FLOOR:
        raise AtCriticality("peak channel at k_c=%s is critical" % ("0" if at_zero else "pi"))
    f_peak = -ka / lam if at_zero else ka / lam
    xi2 = 0.5 * (kb ** 2 + ka ** 2 * kb ** 2 - ka * kb * la * lb) / lam ** 2
    return float(f_peak), float(xi2)


def _at_zero_channel(k_c: float) -> bool:
    """True at k_c = 0 and False at k_c = pi (mod 2 pi, to LOCUS_TOL).

    Raises:
        ValueError: any other momentum.
    """
    k = abs(_reduce_angle(k_c))
    if k < LOCUS_TOL:
        return True
    if abs(k - np.pi) < LOCUS_TOL:
        return False
    raise ValueError("k_c must be 0 or pi, got %r" % (k_c,))


def gap_distances(p: WalkParams):
    """Angle distances of (alpha, beta) to the two gap-closing families.

    Returns (|alpha+beta| mod 2 pi, |alpha-beta| mod 2 pi), wrapped to
    [0, pi]; the k=0 channel closes when the first vanishes, the k=pi
    channel when the second does.
    """
    return (abs(_reduce_angle(p.alpha + p.beta)),
            abs(_reduce_angle(p.alpha - p.beta)))
