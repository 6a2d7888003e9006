"""Band geometry of two-band Hamiltonians H = d . sigma.

Eigenstates, Berry connection/curvature, quantum geometric tensor, fidelity
overlaps, and manifold length/area, together with the 1D (d = (M, k, 0)) and
2D (d = (kx, ky, M)) Dirac models used throughout the package.  Closed forms
are paired with finite-difference routines so each quantity can be checked
against an independent numerical route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyGrid, GaugeSingularity, ZeroGap

GAP_FLOOR = 1e-14
FD_STEP = 1e-5  # central-difference step for order-1 dimensionless momenta
# d3/|d| from which the lower band state is taken in the north gauge
GAUGE_SWITCH = 0.5


@dataclass(frozen=True)
class RealVec3:
    """A real 3-vector (d-vector, zeta-vector or Bloch axis)."""

    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    def norm(self) -> float:
        return float(np.sqrt(self.x ** 2 + self.y ** 2 + self.z ** 2))

    def normalized(self) -> "RealVec3":
        n = self.norm()
        if n < GAP_FLOOR:
            raise ZeroGap("cannot normalize a null vector")
        return RealVec3(self.x / n, self.y / n, self.z / n)

    def dot(self, other: "RealVec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "RealVec3") -> "RealVec3":
        return RealVec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )


@dataclass(frozen=True)
class Spinor:
    """Normalized 2-component state (up, down)."""

    up: complex
    down: complex

    def as_array(self) -> np.ndarray:
        return np.array([self.up, self.down], dtype=complex)

    def norm(self) -> float:
        return float(np.sqrt(abs(self.up) ** 2 + abs(self.down) ** 2))

    def overlap(self, other: "Spinor") -> complex:
        return np.conj(self.up) * other.up + np.conj(self.down) * other.down


class QGT:
    """2x2 complex quantum geometric tensor T_ab.

    Re T is the quantum metric; the Berry curvature is -2 Im T_xy.
    """

    def __init__(self, tensor):
        t = np.asarray(tensor, dtype=complex)
        if t.shape != (2, 2):
            raise ValueError("QGT expects a 2x2 tensor")
        self.tensor = t

    def metric(self) -> np.ndarray:
        return self.tensor.real.copy()

    def berry_curvature(self) -> float:
        return float(-2.0 * self.tensor[0, 1].imag)


def dirac_d_1d(k: float, M: float) -> RealVec3:
    """d-vector of the 1D two-component Dirac model: d = (M, k, 0)."""
    return RealVec3(float(M), float(k), 0.0)


def dirac_d_2d(kx: float, ky: float, M: float) -> RealVec3:
    """d-vector of the 2D Dirac model: d = (kx, ky, M)."""
    return RealVec3(float(kx), float(ky), float(M))


def eigenstate_lower(d: RealVec3) -> Spinor:
    """Lower eigenstate of H = d . sigma in the fixed gauge.

    The gauge puts d1 + i d2 in the lower component,

        |psi_-> = (d3 - d, d1 + i d2) / sqrt(2 d (d - d3)),

    which reduces to (-1, (d1 + i d2)/d)/sqrt(2) when d3 = 0.  This gauge is
    smooth except where d is parallel to +z.

    Raises:
        ZeroGap: |d| below the gap floor.
        GaugeSingularity: d - d3 below the gap floor (north pole).
    """
    dn = d.norm()
    if dn < GAP_FLOOR:
        raise ZeroGap("gap closed: |d| = %.3e" % dn)
    if dn - d.z < GAP_FLOOR:
        raise GaugeSingularity("state undefined in this gauge near d ~ +z")
    norm = np.sqrt(2.0 * dn * (dn - d.z))
    return Spinor((d.z - dn) / norm, (d.x + 1j * d.y) / norm)


def eigenstate_lower_north(d: RealVec3) -> Spinor:
    """Complementary-gauge lower eigenstate, smooth except near d ~ -z.

    The gauge puts d1 - i d2 in the upper component,

        |psi_-> = (-(d1 - i d2), d + d3) / sqrt(2 d (d + d3)).
    """
    dn = d.norm()
    if dn < GAP_FLOOR:
        raise ZeroGap("gap closed: |d| = %.3e" % dn)
    if dn + d.z < GAP_FLOOR:
        raise GaugeSingularity("state undefined in this gauge near d ~ -z")
    norm = np.sqrt(2.0 * dn * (dn + d.z))
    return Spinor(-(d.x - 1j * d.y) / norm, (dn + d.z) / norm)


def lower_band_state(d: RealVec3):
    """Lower eigenstate in whichever gauge is regular at this point.

    Switches to the complementary gauge once d3/|d| reaches ``GAUGE_SWITCH``
    to avoid the 1/sqrt(d - d3) cancellation.  Returns (Spinor, gauge) where
    gauge is "south" (d1 + i d2 in the lower component) or "north".
    """
    dn = d.norm()
    if dn < GAP_FLOOR:
        raise ZeroGap("gap closed: |d| = %.3e" % dn)
    if d.z / dn < GAUGE_SWITCH:
        return eigenstate_lower(d), "south"
    return eigenstate_lower_north(d), "north"


def _off_dirac_point(d2, form):
    """``form(d2)`` where |d|^2 = ``d2`` clears the gap floor and NaN where
    it does not; a scalar ``d2`` below the floor raises ZeroGap instead."""
    if np.ndim(d2) == 0:
        if d2 < GAP_FLOOR ** 2:
            raise ZeroGap("Dirac point at M = k = 0")
        return float(form(d2))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(d2 < GAP_FLOOR ** 2, np.nan, form(d2))


def berry_connection_1d(k, M):
    """Berry connection <psi_-| i d_k |psi_-> = -M / (2 (M^2 + k^2)).

    Array-capable; NaN at the Dirac point of an array, ZeroGap at a scalar.
    """
    return _off_dirac_point(M * M + k * k, lambda d2: -M / (2.0 * d2))


def metric_1d(dk_dhat: RealVec3) -> float:
    """Quantum metric g_kk = (1/4) |d_k dhat|^2 from the unit-vector derivative."""
    return 0.25 * dk_dhat.dot(dk_dhat)


def dhat_derivative(d: RealVec3, dd: RealVec3) -> RealVec3:
    """Derivative of the unit vector dhat given d and its derivative dd."""
    dn = d.norm()
    if dn < GAP_FLOOR:
        raise ZeroGap("gap closed: |d| = %.3e" % dn)
    s = d.dot(dd) / dn ** 3
    return RealVec3(dd.x / dn - d.x * s, dd.y / dn - d.y * s, dd.z / dn - d.z * s)


def fidelity_overlap(a: Spinor, b: Spinor) -> float:
    """|<a|b>|, the state fidelity of two normalized spinors."""
    return float(abs(a.overlap(b)))


def qgt_2d(d: RealVec3, da_d: RealVec3, db_d: RealVec3) -> complex:
    """Quantum geometric tensor entry T_ab of the lower band.

    Built from the unit-vector closed forms

        Re T_ab = (1/4) d_a dhat . d_b dhat,
        Im T_ab = -(1/4) dhat . (d_a dhat x d_b dhat),

    so that -2 Im T_xy is the lower-band Berry curvature.

    Args:
        d: d-vector at the evaluation point.
        da_d, db_d: derivatives of d along the two directions.
    """
    dn = d.norm()
    if dn < GAP_FLOOR:
        raise ZeroGap("gap closed: |d| = %.3e" % dn)
    ea = dhat_derivative(d, da_d)
    eb = dhat_derivative(d, db_d)
    dhat = d.normalized()
    re = 0.25 * ea.dot(eb)
    im = -0.25 * dhat.dot(ea.cross(eb))
    return complex(re, im)


def dirac_qgt_2d(kx: float, ky: float, M: float) -> QGT:
    """Full analytic QGT of the 2D Dirac model over (kx, ky)."""
    d = dirac_d_2d(kx, ky, M)
    ex = RealVec3(1.0, 0.0, 0.0)
    ey = RealVec3(0.0, 1.0, 0.0)
    txx = qgt_2d(d, ex, ex)
    txy = qgt_2d(d, ex, ey)
    tyy = qgt_2d(d, ey, ey)
    return QGT([[txx, txy], [np.conj(txy), tyy]])


def berry_curvature_2d_dirac(kx, ky, M):
    """Lower-band Berry curvature Omega_xy = M / (2 (M^2 + k^2)^{3/2}).

    Array-capable; NaN at the Dirac point of an array, ZeroGap at a scalar.
    ``float_power`` gives every point the bits of a scalar ``d2 ** 1.5``;
    an array ``** 1.5`` goes through numpy's SIMD pow, which can differ in
    the last bit.
    """
    return _off_dirac_point(M * M + kx * kx + ky * ky,
                            lambda d2: M / (2.0 * np.float_power(d2, 1.5)))


def fidelity_susceptibility_1d_dirac(k: float, M: float) -> float:
    """chi_F = g_kk = M^2 / (4 (M^2 + k^2)^2) for the 1D Dirac model."""
    return berry_connection_1d(k, M) ** 2


def metric_det_2d(g) -> float:
    """Determinant of an assembled 2x2 quantum metric."""
    g = np.asarray(g, dtype=float)
    if g.shape != (2, 2):
        raise ValueError("expected a 2x2 metric")
    return float(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0])


def manifold_length_1d(connection_samples) -> float:
    """Total manifold length L = integral |A(k)| dk on a uniform periodic grid.

    Args:
        connection_samples: sequence of (k, A) pairs covering [0, 2 pi) on a
            uniform grid (the right endpoint is excluded and supplied by
            periodicity).
    """
    samples = list(connection_samples)
    if len(samples) == 0:
        raise EmptyGrid("no connection samples")
    k = np.array([s[0] for s in samples], dtype=float)
    a = np.array([s[1] for s in samples], dtype=float)
    if len(samples) == 1:
        raise EmptyGrid("need at least two samples for a grid spacing")
    dk = k[1] - k[0]
    if not np.allclose(np.diff(k), dk, rtol=0, atol=1e-9):
        raise ValueError("k grid must be uniform")
    # periodic trapezoid == Riemann sum
    return float(np.sum(np.abs(a)) * dk)


def manifold_area_2d(curvature_samples) -> float:
    """Total manifold area A = (1/2) integral |Omega| d^2k on a uniform grid.

    Args:
        curvature_samples: 2D array of Omega values on a uniform grid covering
            the Brillouin zone, plus cell area inferred from the shape assuming
            a [0, 2 pi)^2 zone; or a tuple (omega_grid, cell_area).
    """
    if isinstance(curvature_samples, tuple):
        omega, cell_area = curvature_samples
        omega = np.asarray(omega, dtype=float)
    else:
        omega = np.asarray(curvature_samples, dtype=float)
        if omega.size == 0:
            raise EmptyGrid("no curvature samples")
        nx, ny = omega.shape
        cell_area = (2.0 * np.pi / nx) * (2.0 * np.pi / ny)
    if omega.size == 0:
        raise EmptyGrid("no curvature samples")
    return float(0.5 * np.sum(np.abs(omega)) * cell_area)


def berry_connection_fd(state_fn, k: float, delta: float = FD_STEP) -> float:
    """Numeric Berry connection <psi| i d_k |psi> by central differences.

    ``state_fn(k)`` must return the state as a complex array in a gauge that
    is smooth across [k - delta, k + delta].
    """
    p0 = np.asarray(state_fn(k), dtype=complex)
    dp = (np.asarray(state_fn(k + delta), dtype=complex)
          - np.asarray(state_fn(k - delta), dtype=complex)) / (2.0 * delta)
    return float((1j * np.vdot(p0, dp)).real)


def berry_curvature_fd(state_fn, kx: float, ky: float,
                       delta: float = FD_STEP) -> float:
    """Numeric Berry curvature d_x A_y - d_y A_x by nested central differences.

    ``state_fn(kx, ky)`` must be smooth over the stencil; fix the gauge at the
    stencil center before calling.
    """
    def ax(x, y):
        return berry_connection_fd(lambda t: state_fn(t, y), x, delta)

    def ay(x, y):
        return berry_connection_fd(lambda t: state_fn(x, t), y, delta)

    return ((ay(kx + delta, ky) - ay(kx - delta, ky))
            - (ax(kx, ky + delta) - ax(kx, ky - delta))) / (2.0 * delta)


def qgt_finite_difference(state_fn, point, a: int, b: int,
                          delta: float = FD_STEP) -> complex:
    """Numeric QGT entry T_ab = <d_a psi|d_b psi> - <d_a psi|psi><psi|d_b psi>.

    Args:
        state_fn: callable mapping a parameter tuple to a complex state array,
            smooth over the stencil.
        point: parameter tuple at which to evaluate.
        a, b: parameter indices of the two derivatives.
    """
    point = tuple(float(x) for x in point)

    def shifted(i, s):
        q = list(point)
        q[i] += s
        return np.asarray(state_fn(tuple(q)), dtype=complex)

    p0 = np.asarray(state_fn(point), dtype=complex)
    da = (shifted(a, delta) - shifted(a, -delta)) / (2.0 * delta)
    db = (shifted(b, delta) - shifted(b, -delta)) / (2.0 * delta)
    return complex(np.vdot(da, db) - np.vdot(da, p0) * np.vdot(p0, db))
