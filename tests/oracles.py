"""Independent numeric routes that the tests check the library against.

* ``walk_steps`` writes each walk's protocol once, as its ordered shift and
  coin steps; ``walk_unitary`` multiplies them by one batched 2x2 matmul
  over arrays of momenta and angles, the numeric U(k) of the closed forms;
  ``effective_hamiltonian`` decomposes it as U = cos E - i sin E n.sigma
  and ``reconstruct_unitary`` is its round trip.
* ``find_gap_closings`` locates the gap closings of a walk by a grid scan
  of ``zeta_norm`` and a golden-section refinement of every local minimum,
  the oracle of the adapters' closed-form ``closing_slope``.
* ``phi_2d`` builds the walk2d curvature numerator's tables per call, the
  per-call route of the torus kernel.
* ``chiral_axis``, ``gauge_rotation_matrix`` and ``rotated_zeta_1d`` derive
  the rotated frame of the 1D walk, in which its curvature function is the
  doubled Berry connection.
* ``full_grid_winding_1d`` checks the gap of a 1D walk by the minimum of
  |zeta|^2 over the inner grid, from the three zeta components, the oracle
  of the winding kernel's check on its staged kernel's planar |zeta|^2.
* ``flip_test`` is the ratio of the peak curvature across a transition.
* ``berry_connection_fd``, ``berry_curvature_fd`` and
  ``qgt_finite_difference`` (step ``FD_STEP``) are the central-difference
  routes of the Berry quantities.
* ``rg_step`` on ``walk_curvature_callback`` is the scalar flow, the oracle
  of ``crg.flow_field``.
"""

import functools
import itertools
import math

import numpy as np
from scipy.optimize import minimize_scalar

from topocrit import invariants
from topocrit.criticality import _critical_alpha
from topocrit.crg import (DEFAULT_DK, DEFAULT_DM, DENOMINATOR_FLOOR,
                          _shifted_momentum)
from topocrit.errors import QuantizationFailure, ZeroGap
from topocrit.geometry import below_gap_floor
from topocrit.walk1d import (WalkParams, _curvature_parts_1d, _half_angles,
                             _planar_terms_1d, _zeta_terms_1d, coin,
                             energy_1d, rotated_curvature_1d,
                             zeta_components_1d)
from topocrit.walk2d import (_zeta_phi_at, curvature_grid_2d, energy_grid_2d,
                             zeta_components_2d)

CLOSING_TOL = 1e-8
REFINE_TOL = 1e-10
FD_STEP = 1e-5  # central-difference step for order-1 dimensionless momenta
# the upper quasienergy band, the axis components and the validated
# curvature on momentum arrays, by dimension
ENERGY = {1: energy_1d, 2: energy_grid_2d}
ZETA = {1: zeta_components_1d, 2: zeta_components_2d}
CURVATURE = {1: rotated_curvature_1d, 2: curvature_grid_2d}
# the Pauli matrices sigma_x, sigma_y, sigma_z
PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def walk_steps(k, alpha, beta):
    """One walk period as its steps, leftmost factor first, on broadcastable
    arrays: a ("shift", (up, down)) step is diag(exp(i up), exp(i down)) and
    a ("coin", theta) step is ``walk1d.coin(theta)``.  ``k`` is (k,) for
    walk1d, U = S_up C(alpha) S_down C(beta) with S_up = diag(1, exp(-i k))
    and S_down = diag(exp(i k), 1), and (kx, ky) for walk2d,
    U = S(kx) C(beta) S(ky) C(alpha) S(kx + ky) C(beta) with
    S(phi) = exp(i phi sigma_z).
    """
    if len(k) == 1:
        (k,) = k
        return [("shift", (0.0 * k, -k)), ("coin", alpha),
                ("shift", (k, 0.0 * k)), ("coin", beta)]
    kx, ky = k
    return [("shift", (kx, -kx)), ("coin", beta),
            ("shift", (ky, -ky)), ("coin", alpha),
            ("shift", (kx + ky, -(kx + ky))), ("coin", beta)]


def _step_matrix(kind, arg):
    """The stacked 2x2 matrices, shape (..., 2, 2), of one step."""
    if kind == "coin":
        return np.moveaxis(coin(np.asarray(arg)), (0, 1), (-2, -1))
    return np.exp(1j * np.stack(np.broadcast_arrays(*arg), -1))[
        ..., None] * np.eye(2)


def walk_unitary(k, alpha, beta):
    """U of ``walk_steps`` on broadcastable arrays of momenta and angles,
    shape (..., 2, 2)."""
    return functools.reduce(np.matmul, (
        _step_matrix(*step) for step in walk_steps(k, alpha, beta)))


def effective_hamiltonian(u):
    """(E, n) of U = cos(E) I - i sin(E) n.sigma on stacked 2x2 arrays of
    shape (..., 2, 2), on the principal branch.

    E is in [0, pi] (the upper band) and n, of shape (..., 3), carries the
    sign information; n is NaN where ``below_gap_floor`` of sin^2 E, at a
    band touching, where the axis is undefined.
    """
    cos_e = np.clip(np.trace(u, axis1=-2, axis2=-1).real / 2.0, -1.0, 1.0)
    e = np.arccos(cos_e)
    sin_e = np.sin(e)[..., None]
    # n_s sin E = Re(i tr(sigma_s U) / 2)
    n = -np.einsum("sij,...ji->...s", PAULI, u).imag / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        return e, np.where(below_gap_floor(sin_e * sin_e), np.nan, n / sin_e)


def reconstruct_unitary(e, n):
    """Rebuild U = cos(E) I - i sin(E) n.sigma from the arrays of
    ``effective_hamiltonian``."""
    e = np.asarray(e)[..., None, None]
    return (np.cos(e) * np.eye(2)
            - 1j * np.sin(e) * np.einsum("...s,sij->...ij", n, PAULI))


def zeta_norm(model, *args):
    """|zeta| = sin E of ``model`` at (k, p) or (kx, ky, p), from the axis
    components.

    It vanishes where the bands touch at quasienergy 0 or pi and resolves a
    closing down to rounding, while the arccos of the quasienergy resolves
    the gap min(E, pi - E) only to about 1.5e-8.
    """
    zx, zy, zz = ZETA[model.dimension](*args)
    return np.sqrt(zx * zx + zy * zy + zz * zz)


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
    keeps those below ``CLOSING_TOL``, the slack of a refined minimum.
    |zeta| is sin of the gap min(E, pi - E), so it has the same minima;
    unlike the arccos quasienergy, which rounds a closed gap to about
    1.5e-8, it resolves a closing down to rounding.
    Returns a list of (k_c, zone) where k_c is a float in 1D and a pair in
    2D, and zone is 0 or pi according to which quasienergy the bands touch
    at; the list is empty for gapped parameters.
    """
    if grid < 64:
        raise ValueError("grid must be at least 64 points per axis")
    dim = model.dimension
    k = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    gap = np.asarray(zeta_norm(model, *np.meshgrid(*[k] * dim, indexing="ij"),
                               p))
    h = 2.0 * np.pi / grid
    is_min = np.ones_like(gap, dtype=bool)
    for shift in itertools.product((-1, 0, 1), repeat=dim):
        if any(shift):
            is_min &= gap <= np.roll(gap, shift, axis=tuple(range(dim)))

    def at(fn, q):
        return float(fn(*(np.array([c]) for c in q), p)[0])

    def gap_fn(q):
        return at(functools.partial(zeta_norm, model), q)

    out = []
    for idx in zip(*np.nonzero(is_min)):
        q = _coordinate_descent(gap_fn, [float(k[i]) for i in idx], h)
        if gap_fn(q) < CLOSING_TOL:
            q = [float(np.mod(c, 2.0 * np.pi)) for c in q]
            zone = 0.0 if at(ENERGY[dim], q) < np.pi / 2.0 else np.pi
            if not any(zone == z and all(map(_close_mod, q, kc))
                       for kc, z in out):
                out.append((q, zone))
    return [(q[0] if dim == 1 else tuple(q), zone) for q, zone in out]


def _close_mod(a: float, b: float, tol: float = 1e-5) -> bool:
    return abs(np.angle(np.exp(1j * (a - b)))) < tol


def phi_2d(kx, ky, p: WalkParams):
    """Numerator of the walk2d curvature function; array-capable."""
    return _zeta_phi_at(kx, ky, p.alpha, p.beta)[3]


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
    return _planar_terms_1d(_half_angles(p), np.sin(k), np.cos(k))


def full_grid_winding_1d(p: WalkParams, n_grid: int):
    """(raw, failure) of one walk, as ``winding_numbers_1d`` gives them for
    a cell, with the gap checked by the minimum over the inner grid of
    |zeta|^2 summed from all three zeta components, and the closed form
    evaluated on the one-cell route's numpy scalars.  raw is NaN where
    failure, a ZeroGap or QuantizationFailure, is not None.
    """
    k = np.linspace(0.0, 2.0 * np.pi, n_grid, endpoint=False)
    sin_k, cos_k = np.sin(k), np.cos(k)
    h = _half_angles(p)
    zx, zy, zz = _zeta_terms_1d(h, sin_k, cos_k)
    if below_gap_floor(np.min(zx * zx + zy * zy + zz * zz)):
        return np.nan, ZeroGap("gap closed on the integration grid")
    num, den = _curvature_parts_1d(h, sin_k, cos_k)
    raw = float(np.sum(num / den) / n_grid)
    # NaN for a raw that is not finite, which fails to quantize too
    with np.errstate(invalid="ignore"):
        defect = abs(raw - np.rint(raw))
    if not defect < invariants.DEFECT_LIMIT:
        return np.nan, invariants._quantization_failure(raw, defect)
    if abs(np.rint(raw)) > 1:
        return np.nan, QuantizationFailure(
            "integral %.6f rounds to %d, outside the walk1d winding range "
            "[-1, 1]" % (raw, np.rint(raw)))
    return raw, None


def flip_test(model, beta: float, k_c, eps: float = 1e-3) -> float:
    """Peak-value ratio F(k_c; alpha_c - eps) / F(k_c; alpha_c + eps).

    Approaches -1 as eps -> 0 across the transition whose gap closes at k_c.
    """
    alpha_c = _critical_alpha(model, beta, k_c)
    f_minus, f_plus = (
        float(model.peak_profile(k_c, [0.0], WalkParams(alpha_c + s, beta))[0])
        for s in (-eps, eps))
    if f_plus == 0.0:
        raise ZeroGap("peak curvature vanished on the + side")
    return float(f_minus / f_plus)


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
    """Numeric quantum geometric tensor entry by central differences,

        T_ab = <d_a psi|d_b psi> - <d_a psi|psi><psi|d_b psi>.

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


def rg_step(curvature, k0, ks, M, dk: float = DEFAULT_DK,
            dM: float = DEFAULT_DM, axis: int = 0) -> float:
    """One scaling-flow component dM_axis/dl at parameter point M.

    Args:
        curvature: callback F(k, M) -> float; raises ZeroGap at closings.
        k0: high-symmetry momentum (scalar in 1D, pair in 2D).
        ks: scaling direction (+-1 in 1D, a 2-vector in 2D); it is
            normalized, so only its direction counts.
        M: parameter pair (alpha, beta).
        dk: momentum step away from k0 along ks.
        dM: parameter step along the chosen axis.
        axis: 0 for alpha, 1 for beta.

    Returns:
        The rescaled quotient estimating (1/2) d^2_k F / d_{M_axis} F;
        math.inf when the parameter response is below the denominator floor
        (curvature independent of that parameter), 0.0 when the scaling
        response vanishes (local fixed point).
    """
    k_shifted = _shifted_momentum(k0, ks, dk)
    m_shifted = list(M)
    m_shifted[axis] = m_shifted[axis] + dM
    f0 = curvature(k0, tuple(M))
    num = curvature(k_shifted, tuple(M)) - f0
    den = curvature(k0, tuple(m_shifted)) - f0
    if abs(den) < DENOMINATOR_FLOOR:
        if abs(num) < DENOMINATOR_FLOOR:
            return 0.0
        return math.inf
    return float(num / den) * (dM / dk ** 2)


def walk_curvature_callback(model):
    """Adapt a walk model to the F(k, M) callback used by :func:`rg_step`:
    its validated curvature, which raises ZeroGap where the gap closes."""

    def fn(k, M):
        p = WalkParams(M[0], M[1])
        return float(CURVATURE[model.dimension](*np.reshape(k, (-1, 1)),
                                                p)[0])

    return fn
