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

zeta and phi are evaluated in two stages.  ``stage_2d`` builds the one kind
of beta stage: the terms that depend only on momentum and beta, over a trig
table of any momenta (the invariants' memoized torus, or through
``_curvature_stage_2d`` a crg high-symmetry point or the momenta of a call).
``_zeta_phi_2d`` evaluates the rest at the alpha half angles, in the
operation order of the single expressions.  ``_curvature_staged_2d``, the
one staged curvature kernel, returns F with its |zeta|^2, from which every
curvature route takes the gap test ``geometry.below_gap_floor``.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .errors import AtCriticality, ZeroGap
from .geometry import below_gap_floor
from .walk1d import WalkParams, _half_angles, _halves

PEAK_KX = np.pi / 2.0  # gap-closing momentum on the ky = -kx slice

# The (momentum, slope b) pair of each high-symmetry point, in HSP order,
# and the momentum period: the gap at the momentum closes on alpha = -b beta
TRANSITIONS_2D = (((0.0, 0.0), 2), ((np.pi / 2.0, np.pi / 2.0), 0),
                  ((np.pi / 2.0, 0.0), 0), ((0.0, np.pi / 2.0), -2))
PERIOD_2D = np.pi


def rho_2d(kx, ky, p: WalkParams):
    """cos E on broadcastable momentum arrays."""
    ka, la, _, _ = _half_angles(p)
    return (ka * np.cos(p.beta) * np.cos(kx) * np.cos(kx + 2.0 * ky)
            - ka * np.sin(kx) * np.sin(kx + 2.0 * ky)
            - la * np.sin(p.beta) * np.cos(kx) ** 2)


def energy_grid_2d(kx, ky, p: WalkParams):
    """Upper quasienergy on momentum arrays."""
    return np.arccos(np.clip(rho_2d(kx, ky, p), -1.0, 1.0))


# The momentum trig terms of the zeta/phi closed forms.  Each keeps the
# argument expression of the closed form it came from: 2 (kx + ky) and
# 2 kx + 2 ky round differently, and both are in use.
TrigTable2D = namedtuple("TrigTable2D", (
    "cos_x", "sin_x", "cos_x2y", "cos_2x", "sin_2x", "sin_2xy", "sin_2y",
    "cos_2y", "cos_2x2y", "sum_2x4y"))


def trig_table_2d(kx, ky) -> TrigTable2D:
    """Every trig term on broadcastable momentum arrays, evaluated once."""
    return TrigTable2D(
        cos_x=np.cos(kx),
        sin_x=np.sin(kx),
        cos_x2y=np.cos(kx + 2.0 * ky),
        cos_2x=np.cos(2.0 * kx),
        sin_2x=np.sin(2.0 * kx),
        sin_2xy=np.sin(2.0 * (kx + ky)),
        sin_2y=np.sin(2.0 * ky),
        cos_2y=np.cos(2.0 * ky),
        cos_2x2y=np.cos(2.0 * kx + 2.0 * ky),
        # the momentum-only factor of phi's lam_b^2 term
        sum_2x4y=2.0 * np.cos(2.0 * kx) + np.cos(4.0 * ky) + 3.0)


# The beta-only partial products of the zeta/phi closed forms.  Each is the
# leading part of its closed form, in that form's operation order, so a cell
# stage that reads it computes the bits of the single expression.
BetaTable2D = namedtuple("BetaTable2D", ("zx", "zz", "t2", "t3"))

# What _zeta_phi_2d reads of the momenta and the angle beta, for any alpha: a
# trig table, the beta half angles (kb, lb) and the beta table over both.
Stage2D = namedtuple("Stage2D", ("trig", "kb", "lb", "beta"))


def stage_2d(trig: TrigTable2D, beta) -> Stage2D:
    """The stage of the angle ``beta`` (an array or a scalar) on a trig
    table, evaluated once for every alpha that shares beta: the one builder
    of a beta stage."""
    kb, lb = _halves(beta)
    return Stage2D(trig, kb, lb, BetaTable2D(
        zx=-2.0 * lb * trig.sin_x,
        zz=kb ** 2 * trig.sin_2xy + lb ** 2 * trig.sin_2y,
        t2=(2.0 * kb ** 2 * trig.cos_2y * trig.cos_2x2y
            - lb ** 2 * trig.sum_2x4y),
        t3=lb ** 2 - kb ** 2 * trig.cos_2x))


def _zeta_phi_2d(stage: Stage2D, ka, la):
    """Axis components and curvature numerator at the alpha half angles
    (ka, la) on a stage of ``stage_2d``; the one copy of the algebra.

    The half angles broadcast against the stage, so either side may be the
    grid.  Returns (zx, zy, zz, phi) with F = phi / |zeta|^3.
    """
    trig, kb, lb, beta = stage
    zx = beta.zx * (la * lb * trig.cos_x - ka * kb * trig.cos_x2y)
    zy = (la * kb ** 2 - la * lb ** 2 * trig.cos_2x
          + 2.0 * ka * kb * lb * trig.cos_x * trig.cos_x2y)
    zz = la * kb * lb * trig.sin_2x - ka * beta.zz
    t1 = 4.0 * ka ** 2 * kb ** 2 * lb * trig.cos_x * trig.cos_x2y
    t2 = ka * la * kb * beta.t2
    t3 = 2.0 * la ** 2 * lb * trig.cos_2y * beta.t3
    phi = 2.0 * ka * lb * (kb ** 2 + lb ** 2) * (t1 + t2 + t3)
    return zx, zy, zz, phi


def _curvature_stage_2d(k, beta) -> Stage2D:
    """The ``stage_2d`` of beta on the momentum k = (kx, ky), broadcastable
    arrays: the stage of every route that is not given one."""
    kx, ky = k
    return stage_2d(trig_table_2d(kx, ky), beta)


def _zeta_phi_at(kx, ky, alpha, beta):
    """``_zeta_phi_2d`` on broadcastable momentum and angle arrays, with the
    stage built on these momenta: the one-shot route."""
    return _zeta_phi_2d(_curvature_stage_2d((kx, ky), beta), *_halves(alpha))


def zeta_components_2d(kx, ky, p: WalkParams):
    """Unnormalized-axis components on broadcastable momentum arrays."""
    return _zeta_phi_at(kx, ky, p.alpha, p.beta)[:3]


def curvature_grid_2d(kx, ky, p: WalkParams):
    """Curvature function F = (d_kx n x d_ky n) . n = phi / |zeta|^3 on
    momentum arrays, staged on them; ZeroGap where its |zeta|^2 closes the
    gap."""
    f, norm2 = _curvature_staged_2d(_curvature_stage_2d((kx, ky), p.beta),
                                    *_halves(p.alpha))
    if np.any(below_gap_floor(norm2)):
        raise ZeroGap("gap closed on the requested grid")
    return f


def _curvature_staged_2d(stage: Stage2D, ka, la):
    """(F, |zeta|^2) at the alpha half angles (ka, la) on a stage of
    ``stage_2d``, which they broadcast against: the curvature
    phi / |zeta|^3, unvalidated, and the squared norm that
    ``below_gap_floor`` tests."""
    zx, zy, zz, phi = _zeta_phi_2d(stage, ka, la)
    norm2 = zx * zx + zy * zy + zz * zz
    with np.errstate(divide="ignore", invalid="ignore"):
        return phi / norm2 ** 1.5, norm2


def peak_asymptotics_2d(p: WalkParams):
    """Closed-form peak height and squared width at (kx, ky) = (pi/2, -pi/2).

    The peak value is exact for all angles:

        F_peak = 2 sgn(lam_a) (sin(a-b) - sin a - sin b) / (1 - cos a),

    where sgn acts on lam_a = sin(alpha/2) (the sign carries the flip of the
    peak across alpha = 0).  1 - cos a is evaluated as 2 lam_a^2, which
    does not cancel at small alpha; |lam_a| is |zeta| at the peak, the gap
    that ``below_gap_floor`` tests.  The returned squared width is the
    asymptotic

        xi^2 ~ Xi / sqrt(1 - cos a),
        Xi = 2 sqrt(2) kap_a (2 lam_b^2 (5 + 2 cos a + cos b)
             - sin(b) cot(a/2) (3 cos b + cos a - 4)).

    It is not the width along kx: 1/F fits at beta = pi/2 put it at 2.0 to
    2.3 times the kx width and the slice (kx, -kx) width, which
    ``sample_peak`` fits.  It approaches the ky width as alpha -> 0, which
    is 0.81, 0.945 and 0.977 of it at alpha = 0.2, 0.05 and 0.02.

    Raises:
        AtCriticality: alpha = 0 (mod 2 pi), where the peak diverges.
    """
    a, b = p.alpha, p.beta
    ka, la = np.cos(a / 2.0), np.sin(a / 2.0)
    lb = np.sin(b / 2.0)
    if below_gap_floor(la * la):
        raise AtCriticality("slice peak is critical at alpha = 0 (mod 2 pi)")
    one_minus = 2.0 * la * la
    f_peak = 2.0 * np.sign(la) * (np.sin(a - b) - np.sin(a) - np.sin(b)) / one_minus
    xi_big = 2.0 * np.sqrt(2.0) * ka * (
        2.0 * lb ** 2 * (5.0 + 2.0 * np.cos(a) + np.cos(b))
        - np.sin(b) * (ka / la) * (3.0 * np.cos(b) + np.cos(a) - 4.0))
    xi2 = xi_big / np.sqrt(one_minus)
    return float(f_peak), float(xi2)


def min_gap_2d(p: WalkParams, n: int = 96) -> float:
    """Coarse minimum of min(E, pi - E) over the fundamental domain."""
    k = np.linspace(0.0, np.pi, n, endpoint=False)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    e = energy_grid_2d(kx, ky, p)
    return float(np.minimum(e, np.pi - e).min())
