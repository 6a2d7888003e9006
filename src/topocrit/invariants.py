"""Topological invariants by Brillouin-zone integration.

The 1D winding number integrates the curvature function over dk/(2 pi).
Many walks (a phase diagram, given as arrays of alpha and beta) are
evaluated per call, one call of the staged curvature kernel
``walk1d._curvature_staged_1d`` per block of cells, on a memoized table of
the momentum trig terms; a single cell is a call of one.  The kernel is the
closed form of ``rotated_curvature_1d`` with its denominator |zeta|^2, so
every raw integral keeps the bits of the one-cell route and stays finite
next to a gap line, and a cell's gap is the minimum of that |zeta|^2.
Every gap test, in 1D and 2D, is the curvature routes' own,
``geometry.below_gap_floor`` of |zeta|^2.

The 2D invariant integrates the mapping-degree density of the Bloch axis
over d^2k/(4 pi) and is cross-checked against a gauge-invariant plaquette
(link-variable) computation on the same grid, an independent route free of
derivative discretization error.

Both 2D routes read one zeta evaluation per cell, made on the pi-periodic
fundamental torus [0, pi)^2 of the zone grid from a memoized momentum trig
table.  They share that input and |zeta|^2 only: the integral sums
phi / |zeta|^3, the oracle builds lower-band states from zeta scaled by
|zeta| and sums link-variable fluxes, and neither uses the other's result.
Many walks (a phase diagram) are evaluated per call, cell by cell, into one
set of work arrays that each cell overwrites in place: torus-sized for
|zeta|^2, the integral and the oracle's lower-band states, and sized to a
window of whole torus rows, at most ``models.BLOCK_POINTS`` plaquettes, for
the oracle's link variables.  The walks are grouped by beta, and each
group's beta stage, the ``walk2d.stage_2d`` of its beta on the torus table,
is built once.  As in 1D, a cell's failure is returned as a value, not
raised: only the one-cell functions, each a call of one, raise it.

The memoized tables of both invariants are read-only, and the 2D work
arrays belong to the call that allocated them, so calls from several
threads need no locking.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import OracleMismatch, QuantizationFailure, ZeroGap
from .geometry import GAUGE_SWITCH, below_gap_floor
from .models import BLOCK_POINTS
from .walk1d import WalkParams, _curvature_staged_1d, _halves
from .walk2d import _zeta_phi_2d, stage_2d, trig_table_2d

DEFAULT_N_WINDING = 4096
DEFAULT_N_CHERN = 256
DEFECT_LIMIT = 1e-3


@dataclass(frozen=True)
class InvariantResult:
    """Raw BZ integral, its rounded integer, and the quantization defect."""

    raw: float
    rounded: int
    defect: float
    grid: int


def _quantize(raw: float, grid: int) -> InvariantResult:
    defect = abs(raw - np.rint(raw)) if np.isfinite(raw) else np.nan
    if not defect < DEFECT_LIMIT:
        raise _quantization_failure(raw, defect)
    return InvariantResult(float(raw), int(np.rint(raw)), float(defect), grid)


def _quantization_failure(raw: float, defect: float) -> QuantizationFailure:
    if not np.isfinite(raw):
        return QuantizationFailure("integral %.6f is not finite" % raw)
    return QuantizationFailure("integral %.6f is %.2e from an integer"
                               % (raw, defect))


def winding_number_1d(p: WalkParams, n_grid: int = DEFAULT_N_WINDING) -> InvariantResult:
    """Winding number C = integral F(k) dk / (2 pi) on a uniform grid.

    The one-cell case of ``winding_numbers_1d``.

    Raises:
        ZeroGap: the spectrum closes somewhere on the grid.
        QuantizationFailure: the integral does not round cleanly, or rounds
            outside [-1, 1].
    """
    return _one_cell(*winding_numbers_1d([p.alpha], [p.beta], n_grid),
                     n_grid)


def _one_cell(raw, failed: dict, n_grid: int) -> InvariantResult:
    """The result of a kernel's one cell: its InvariantResult, or its
    failure raised."""
    if not failed:
        return _quantize(float(raw[0]), n_grid)
    result, = failed.values()
    # a raised result's traceback holds this frame; dropping both locals
    # that refer to it breaks the exception -> frame -> exception cycle
    del failed
    try:
        raise result
    finally:
        del result


@lru_cache(maxsize=4)
def _circle_trig(n_grid: int):
    """Read-only (sin k, cos k) on the n_grid zone grid."""
    k = np.linspace(0.0, 2.0 * np.pi, n_grid, endpoint=False)
    table = (np.sin(k), np.cos(k))
    for term in table:
        term.setflags(write=False)
    return table


def winding_numbers_1d(alpha, beta, n_grid: int = DEFAULT_N_WINDING):
    """``winding_number_1d`` of the walks (alpha[i], beta[i]), evaluated
    together.

    Returns (raw, failed): the raw integral of every cell, NaN where it
    failed, and a dict from the index of each failed cell, in cell order, to
    the ZeroGap or QuantizationFailure that ``winding_number_1d`` raises for
    it: a QuantizationFailure also where the integral rounds to an integer
    outside [-1, 1], which no walk1d winding is.  Each block of cells is one
    call of ``_curvature_staged_1d`` on the memoized inner grid, of at most
    BLOCK_POINTS (cell, momentum) points, so memory grows with the number of
    cells only by the per-cell half angles, raw integrals and gaps.  A
    cell's gap is the minimum over the inner grid of the |zeta|^2 that the
    same call returns.
    """
    ka, la = (h[:, None] for h in _halves(np.asarray(alpha, dtype=float)))
    kb, lb = (h[:, None] for h in _halves(np.asarray(beta, dtype=float)))
    trig = _circle_trig(n_grid)
    raw, gap = np.empty(ka.shape[0]), np.empty(ka.shape[0])
    step = max(1, BLOCK_POINTS // n_grid)
    # a closed cell's F may overflow and its sum meet inf - inf; its raw is
    # set NaN below
    with np.errstate(invalid="ignore", over="ignore"):
        for start in range(0, raw.size, step):
            cells = slice(start, start + step)
            f, norm2 = _curvature_staged_1d(((kb[cells], lb[cells]), trig),
                                            ka[cells], la[cells])
            raw[cells] = np.sum(f, axis=1) / n_grid
            gap[cells] = np.min(norm2, axis=1)
    closed = below_gap_floor(gap)
    # a closed cell's defect is then NaN, which fails it as a ZeroGap
    raw[closed] = np.nan
    rounded = np.rint(raw)
    defect = np.abs(raw - rounded)
    # F is the angle derivative of the planar axis (kap_a sin k,
    # lam_a kap_b + kap_a lam_b cos k), an ellipse, which winds about the
    # origin at most once: a rounded integral outside [-1, 1] is a grid that
    # undersamples a peak, however small its defect
    bounded = np.abs(rounded) <= 1
    failed = {}
    for i in np.flatnonzero(~(defect < DEFECT_LIMIT) | ~bounded).tolist():
        if closed[i]:
            failed[i] = ZeroGap("gap closed on the integration grid")
        elif not defect[i] < DEFECT_LIMIT:
            failed[i] = _quantization_failure(raw[i], defect[i])
        else:
            failed[i] = QuantizationFailure(
                "integral %.6f rounds to %d, outside the walk1d winding "
                "range [-1, 1]" % (raw[i], rounded[i]))
    raw[list(failed)] = np.nan
    return raw, failed


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


def _roll_into(out, a):
    """out = np.roll(a, -1, axis=1) on a block of rows, into an existing
    array."""
    out[:, :-1] = a[:, 1:]
    out[:, -1] = a[:, 0]


# The views that one window of the plaquette oracle reads and writes, made
# once per call: the lower-band states of the window's rows and of the next
# row (up, dn) and of the next rows alone, the work arrays on the same rows
# (the *_rows views without the next row), and the window's rows of the
# phase array.  Held as views, they cost a cell no slicing.
_Window = namedtuple("_Window", (
    "up", "dn", "up_next", "dn_next", "cup", "cdn", "cup_rows", "cdn_rows",
    "ux", "uy", "uy_next", "uy_rows", "s", "s_rows", "out"))


def _window_phases(window: _Window):
    """The plaquette phases of one window, into its rows of the phase
    array; see ``_TorusWork.plaquette_phases``."""
    (up, dn, up_next, dn_next, cup, cdn, cup_rows, cdn_rows, ux, uy, uy_next,
     uy_rows, s, s_rows, out) = window
    np.conjugate(up, out=cup)
    np.conjugate(dn, out=cdn)
    # x links on the window's rows: conj(up) up(next row) + conj(dn)
    # dn(next row)
    np.multiply(cup_rows, up_next, out=ux)
    np.multiply(cdn_rows, dn_next, out=s_rows)
    np.add(ux, s_rows, out=ux)
    # y links on the window's rows and the next one: conj(up)
    # roll(up, -1, 1) + conj(dn) roll(dn, -1, 1)
    _roll_into(s, up)
    np.multiply(cup, s, out=uy)
    _roll_into(s, dn)
    np.multiply(cdn, s, out=s)
    np.add(uy, s, out=uy)
    # ux uy(next row) conj(roll(ux, -1, 1)) conj(uy), into cup_rows
    plaq = cup_rows
    np.multiply(ux, uy_next, out=plaq)
    _roll_into(s_rows, ux)
    np.conjugate(s_rows, out=s_rows)
    np.multiply(plaq, s_rows, out=plaq)
    np.conjugate(uy_rows, out=s_rows)
    np.multiply(plaq, s_rows, out=plaq)
    np.arctan2(plaq.imag, plaq.real, out=out)


class _TorusWork:
    """The work arrays of the 2D invariants on the fundamental torus.

    One instance serves many cells: each array is written in place with
    ufunc ``out=``, so a cell allocates no array outside the zeta/phi
    kernel.  An instance is not shared between calls.

    |zeta|^2, the integral and the plaquette phases use torus-sized arrays,
    and so do the oracle's gauge mask and its two lower-band state arrays,
    which hold a copy of row 0 after the last row, so that the torus closes
    without an index.  The oracle's conjugated states, shift scratch and
    link variables are window-sized: whole torus rows, at most
    ``BLOCK_POINTS`` plaquettes, and the next row.  The oracle's arrays are
    allocated by the first plaquette of the instance, once a cell's
    integral rounds.
    """

    def __init__(self, n_grid: int):
        self.n_grid = n_grid
        self.table, self.weight = _zone_trig(n_grid)
        shape = self.table.cos_x.shape
        self.n2, self.tmp = np.empty(shape), np.empty(shape)
        self.windows = None  # the oracle's, from _oracle_arrays

    def _oracle_arrays(self):
        """Allocate the arrays of ``plaquette_phases``: the states on the
        torus rows and a copy of row 0 after them, the gauge mask, and the
        window arrays, of at most ``BLOCK_POINTS`` plaquettes in whole rows
        and the next row; and make the views of each window."""
        h, w = self.tmp.shape
        rows = min(h, max(1, BLOCK_POINTS // w))
        self.south = np.empty((h, w), bool)
        up, dn = (np.empty((h + 1, w), complex) for _ in range(2))
        self.states = up[:h], dn[:h]
        # the torus closes: the row after the last is row 0
        self.closing = (up[h], up[0]), (dn[h], dn[0])
        cup, cdn, uy, s = (np.empty((rows + 1, w), complex) for _ in range(4))
        ux = np.empty((rows, w), complex)
        self.windows = []
        for start in range(0, h, rows):
            m = min(rows, h - start)
            u, d = up[start:start + m + 1], dn[start:start + m + 1]
            c, cd, y, sw = cup[:m + 1], cdn[:m + 1], uy[:m + 1], s[:m + 1]
            self.windows.append(_Window(
                u, d, u[1:], d[1:], c, cd, c[:m], cd[:m], ux[:m], y, y[1:],
                y[:m], sw, sw[:m], self.tmp[start:start + m]))

    def beta_stage(self, beta: float):
        """The ``stage_2d`` of the angle ``beta`` on the torus table."""
        return stage_2d(self.table, beta)

    def norm2(self, zeta) -> float:
        """|zeta|^2 into ``n2``, in the order of zx * zx + zy * zy + zz * zz
        so that the integral keeps the bits of that expression; returns its
        minimum."""
        zx, zy, zz = zeta
        n2, tmp = self.n2, self.tmp
        np.multiply(zx, zx, out=n2)
        np.multiply(zy, zy, out=tmp)
        np.add(n2, tmp, out=n2)
        np.multiply(zz, zz, out=tmp)
        np.add(n2, tmp, out=n2)
        return n2.min()

    def integral(self, phi) -> float:
        """Trapezoidal integral of F = phi / |zeta|^3 over d^2k / (4 pi)."""
        f = self.tmp
        np.power(self.n2, 1.5, out=f)
        np.divide(phi, f, out=f)
        return float(self.weight * f.sum() * (2.0 * np.pi / self.n_grid) ** 2
                     / (4.0 * np.pi))

    def plaquette(self, zeta) -> float:
        """Total plaquette flux over 2 pi of the axis field ``zeta``, whose
        |zeta|^2 ``norm2`` has written: the sum of the fluxes that
        ``plaquette_phases`` gives, over ``weight`` copies of the torus."""
        return float(self.weight * -self.plaquette_phases(zeta).sum()
                     / (2.0 * np.pi))

    def plaquette_phases(self, zeta):
        """The argument of the counterclockwise link product around each
        plaquette of the torus, the negative of its flux, in a work array
        that the next call overwrites.  ``norm2`` must have written |zeta|^2.

        The lower-band spinor is taken in the south gauge, |zeta| (n_z - 1,
        n_x + i n_y) = (zeta_z - |zeta|, zeta_x + i zeta_y), away from the
        north pole and in the north gauge, (-zeta_x + i zeta_y, zeta_z +
        |zeta|), from zeta_z = GAUGE_SWITCH |zeta| on: the two gauges of
        ``geometry.lower_band_states``.  Each is the normalized state times a
        positive factor, and neither a per-point gauge choice nor a positive
        factor changes a plaquette phase.

        Link products around each plaquette give the lattice field strength;
        the loop holonomy is exp(-i flux), so the flux is minus the argument
        of the counterclockwise product.  The total over a closed torus is
        2 pi times an integer at any resolution fine enough to keep each
        plaquette flux within (-pi, pi); ``weight`` copies of the torus make
        up the zone.

        The states are built on the whole torus, and the phases one window
        of rows at a time; every phase is the same elementwise expression
        whatever the window, so the window size changes no bit.
        """
        if self.windows is None:
            self._oracle_arrays()
        zx, zy, zz = zeta
        (up, dn), south, zn = self.states, self.south, self.tmp
        np.sqrt(self.n2, out=zn)
        # GAUGE_SWITCH |zeta| into up.real, which the states overwrite
        np.multiply(zn, GAUGE_SWITCH, out=up.real)
        np.less(zz, up.real, out=south)
        # the north gauge everywhere, then the south gauge where it applies
        np.negative(zx, out=up.real)
        np.subtract(zz, zn, out=up.real, where=south)
        np.copyto(up.imag, zy)
        np.copyto(up.imag, 0.0, where=south)
        np.add(zz, zn, out=dn.real)
        np.copyto(dn.real, zx, where=south)
        np.copyto(dn.imag, 0.0)
        np.copyto(dn.imag, zy, where=south)
        for last, first in self.closing:
            last[...] = first
        for window in self.windows:
            _window_phases(window)
        return self.tmp

    def chern(self, alpha: float, stage):
        """The raw integral of ``chern_number_2d`` of the walk of angle
        ``alpha`` with the ``beta_stage`` of its beta, or the failure that
        ``chern_number_2d`` raises for it; the oracle runs once the integral
        rounds.  Past the gap check both are finite, or NaN at a NaN angle,
        so no defect below is inf - inf."""
        *zeta, phi = _zeta_phi_2d(stage, *_halves(alpha))
        if below_gap_floor(self.norm2(zeta)):
            return ZeroGap("gap closed on the integration grid")
        raw = self.integral(phi)
        del phi  # not held while the oracle runs
        rounded = np.rint(raw)
        if not abs(raw - rounded) < DEFECT_LIMIT:
            return _quantization_failure(raw, abs(raw - rounded))
        flux = self.plaquette(zeta)
        oracle = np.rint(flux)
        if not abs(flux - oracle) < DEFECT_LIMIT:
            return _quantization_failure(flux, abs(flux - oracle))
        if oracle != rounded:
            return OracleMismatch("integral gives %d but plaquette oracle "
                                  "gives %d" % (rounded, oracle))
        return raw


def chern_numbers_2d(alpha, beta, n_grid: int = DEFAULT_N_CHERN):
    """``chern_number_2d`` of the walks (alpha[i], beta[i]), on one set of
    work arrays.

    The walks are grouped by the bits of beta (0.0 and -0.0 apart), and the
    beta stage of each group is built once.
    Returns (raw, failed) as ``winding_numbers_1d`` does: the raw integral
    of every cell, NaN where it failed, and a dict from the index of each
    failed cell, in cell order, to the ZeroGap, QuantizationFailure or
    OracleMismatch that ``chern_number_2d`` raises for it.
    """
    alphas = np.asarray(alpha, dtype=float).tolist()
    betas = np.asarray(beta, dtype=float).tolist()
    groups = {}
    for i, b in enumerate(betas):
        groups.setdefault(b.hex(), []).append(i)
    work = _TorusWork(n_grid)
    raw = np.full(len(betas), np.nan)
    failed = {}
    for cells in groups.values():
        stage = work.beta_stage(betas[cells[0]])
        for i in cells:
            result = work.chern(alphas[i], stage)
            if isinstance(result, Exception):
                failed[i] = result
            else:
                raw[i] = result
    return raw, dict(sorted(failed.items()))


def chern_number_2d(p: WalkParams, n_grid: int = DEFAULT_N_CHERN) -> InvariantResult:
    """Mapping-degree invariant C = integral F d^2k / (4 pi), with oracle.

    The trapezoidal integral of the curvature function must round to the
    same integer as the plaquette link-variable computation.  Both read the
    same zeta evaluation on the fundamental torus.  The one-cell case of
    ``chern_numbers_2d``.

    Raises:
        ZeroGap, QuantizationFailure, OracleMismatch.
    """
    return _one_cell(*chern_numbers_2d([p.alpha], [p.beta], n_grid),
                     n_grid)


def chern_plaquette(p: WalkParams, n_grid: int = DEFAULT_N_CHERN) -> InvariantResult:
    """Plaquette (link-variable) invariant of the lower band.

    An independent route to the invariant: it uses the axis field only
    through link variables, never the curvature function.
    """
    work = _TorusWork(n_grid)
    zeta = _zeta_phi_2d(work.beta_stage(p.beta), *_halves(p.alpha))[:3]
    if below_gap_floor(work.norm2(zeta)):
        raise ZeroGap("gap closed on the integration grid")
    return _quantize(work.plaquette(zeta), n_grid)


__all__ = [
    "InvariantResult", "winding_number_1d", "winding_numbers_1d",
    "chern_number_2d", "chern_numbers_2d", "chern_plaquette",
]
