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
axis,

    F = -kap_a (kap_a lam_b + lam_a kap_b cos k) / (zeta'_x^2 + zeta_y^2),

with zeta'_x = kap_a sin k the planar x component of the rotated axis
(zeta'_x, zeta_y, 0); the denominator equals |zeta|^2 and is the gap test.
Its Brillouin-zone integral over dk/(2 pi) is the winding number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AtCriticality, ZeroGap
from .geometry import below_gap_floor

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
    """(kap_a, lam_a, kap_b, lam_b) of the walk's angles."""
    return _halves(p.alpha) + _halves(p.beta)


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
    """(zeta_x, zeta_y, zeta_z) from the half angles
    h = (kap_a, lam_a, kap_b, lam_b) and the momentum terms sin k, cos k; with
    ``_planar_terms_1d``, the one copy of the zeta algebra.  The half angles
    may be columns of per-cell values, broadcast against a row of momenta.
    """
    ka, _, kb, lb = h
    zy = _planar_terms_1d(h, sin_k, cos_k)[1]
    return ka * lb * sin_k, zy, -ka * kb * sin_k


def _planar_terms_1d(h, sin_k, cos_k):
    """(zeta'_x, zeta_y), the planar components of the rotated axis
    (zeta'_x, zeta_y, 0), with zeta'_x = kap_a sin k; arguments as in
    ``_zeta_terms_1d``."""
    ka, la, kb, lb = h
    return ka * sin_k, la * kb + ka * lb * cos_k


def zeta_components_1d(k, p: WalkParams):
    """Unnormalized-axis components (zeta_x, zeta_y, zeta_z); array-capable."""
    return _zeta_terms_1d(_half_angles(p), np.sin(k), np.cos(k))


def rotated_curvature_1d(k, p: WalkParams):
    """Curvature function F(k) = (n x d_k n) . A, the doubled rotated-frame
    Berry connection; array-capable: the staged closed form of
    ``_curvature_staged_1d`` on the stage of (k, beta), validated by the gap
    test of its own |zeta|^2.

    Raises:
        ZeroGap: the gap closes on the requested momenta.
    """
    f, norm2 = _curvature_staged_1d(_curvature_stage_1d(k, p.beta),
                                    *_halves(p.alpha))
    if np.any(below_gap_floor(norm2)):
        raise ZeroGap("gap closed on the requested momenta")
    return f


def _curvature_parts_1d(h, sin_k, cos_k):
    """(numerator, denominator) of the closed form F = num / den,

        num = -kap_a (kap_a lam_b + lam_a kap_b cos k),
        den = zeta'_x^2 + zeta_y^2,

    from the half angles h and the momentum terms, which broadcast as in
    ``_zeta_terms_1d``.  den is the squared norm of the rotated axis,
    |zeta|^2 (kap_b^2 + lam_b^2 = 1), summed from its planar terms, so it
    keeps the gap's precision next to a gap line.
    """
    ka, la, kb, lb = h
    zx, zy = _planar_terms_1d(h, sin_k, cos_k)
    return -ka * (ka * lb + la * kb * cos_k), zx * zx + zy * zy


def _curvature_stage_1d(k, beta):
    """What the closed form reads of the momentum and beta, for any alpha:
    the beta half angles and the momentum terms (sin k, cos k)."""
    return _halves(beta), (np.sin(k), np.cos(k))


def _curvature_staged_1d(stage, ka, la):
    """(F, |zeta|^2) at the alpha half angles (ka, la) on a stage of
    ``_curvature_stage_1d``, which they broadcast against: the closed form,
    unvalidated, and its denominator, which ``below_gap_floor`` tests."""
    (kb, lb), k_terms = stage
    num, den = _curvature_parts_1d((ka, la, kb, lb), *k_terms)
    with np.errstate(divide="ignore", invalid="ignore"):
        return num / den, den


def peak_asymptotics_1d(p: WalkParams, k_c: float):
    """Closed-form peak height and squared width at a high-symmetry point.

    At k_c = 0 the relevant half-angle is lam_(a+b); at k_c = pi it is
    lam_(a-b).  Returns (F_peak, xi2) with

        F_peak(0)  = -kap_a / lam_(a+b),
        F_peak(pi) = +kap_a / lam_(a-b),
        xi2 = (kap_b^2 + kap_a^2 kap_b^2 - kap_a kap_b lam_a lam_b)
              / (2 lam_(a+-b)^2).

    lam_(a+-b) is |zeta(k_c)|, so the gap test is ``below_gap_floor`` of
    its square.

    Raises:
        AtCriticality: the corresponding gap channel is closed.
    """
    ka, la, kb, lb = _half_angles(p)
    at_zero = _at_zero_channel(k_c)
    lam = np.sin((p.alpha + p.beta) / 2.0) if at_zero else np.sin((p.alpha - p.beta) / 2.0)
    if below_gap_floor(lam * lam):
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
