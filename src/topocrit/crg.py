"""Curvature renormalization-group flow over the (alpha, beta) plane.

The scaling map holds the curvature at a high-symmetry point fixed,
F(k0 + dk, M) = F(k0, M'), whose leading order gives

    dM_i / dl = (1/2) d^2_k F(k0, M) / d_{M_i} F(k0, M).

Numerically each component needs three curvature evaluations,

    [F(k0 + Dk ks, M) - F(k0, M)] / [F(k0, M + DM_i e_i) - F(k0, M)],

rescaled by DM_i / Dk^2 so the quotient estimates the derivative form for
any step sizes (the raw quotient equals it only when Dk^2 = DM_i).  Phase
boundaries are the loci where the flow rate diverges because the curvature
peak at k0 flips; a second, spurious divergence family lives where
d_{M_i} F = 0 (a fixed-point locus, not a transition), which line detection
must reject.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import BLOCK_POINTS

DEFAULT_GRID = 128
DEFAULT_DK = 1e-2
DEFAULT_DM = 1e-3
DEFAULT_RATE_THRESHOLD = 1e3
DETECT_RATE_THRESHOLD = 30.0
DENOMINATOR_FLOOR = 1e-12
NUMERATOR_FLOOR = 1e-8
MIN_COMPONENT_CELLS = 4
PEAK_SINGULAR = 1e8  # |F(k0)| beyond any regular cell: gap closed at k0


def _shifted_momentum(k0, ks, dk: float) -> np.ndarray:
    """k0 + dk ks/|ks|, shaped like k0 (a scalar in 1D, a pair in 2D)."""
    ks = np.asarray(ks, dtype=float)
    return np.asarray(k0, dtype=float) + np.reshape(
        dk * (ks / np.linalg.norm(ks)), np.shape(k0))


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


@dataclass
class FlowField:
    """The flow-rate arrays of one HSP over a uniform (alpha, beta) grid;
    both angles run over ``axes`` and every array is indexed [alpha, beta]."""

    axes: np.ndarray
    hsp: tuple
    dalpha: np.ndarray
    dbeta: np.ndarray
    log_rate: np.ndarray
    diverged: np.ndarray
    peak_height: np.ndarray
    scaling_response: np.ndarray


def _flow_ratio(num, den, out):
    """num/den rescaled by DM/Dk^2 into ``out``; inf where den is below the
    floor, 0 where num is too."""
    np.multiply(np.where(np.abs(den) < DENOMINATOR_FLOOR,
                         np.where(np.abs(num) < DENOMINATOR_FLOOR, 0.0, np.inf),
                         num / den),
                DEFAULT_DM / DEFAULT_DK ** 2, out=out)


def flow_field(model, hsp, grid: int = DEFAULT_GRID) -> FlowField:
    """Evaluate the RG flow at ``hsp`` on a uniform (alpha, beta) grid over
    [-pi, pi)^2.

    The scaling direction is the first momentum axis, +k in 1D and +kx in
    2D, with the steps ``DEFAULT_DK`` and ``DEFAULT_DM``; a cell whose rate
    passes ``DEFAULT_RATE_THRESHOLD`` is flagged diverged.  Cells where the
    gap closes at the HSP, exactly those where
    :func:`walk_curvature_callback` raises ZeroGap there, carry NaN flow and
    an infinite peak height and are flagged diverged; no exception is
    raised per cell.

    The grid is evaluated in blocks of alpha rows, ``BLOCK_POINTS`` cells
    each, and every block is written straight into the field's arrays: the
    evaluation holds the field, its closed-cell mask and one block.
    """
    if grid < 64:
        raise ValueError("grid must be at least 64x64")
    axes = np.linspace(-np.pi, np.pi, grid, endpoint=False)
    k_shift = _shifted_momentum(hsp, np.eye(model.dimension)[0], DEFAULT_DK)

    def empty(dtype=float):
        return np.empty((grid, grid), dtype=dtype)

    field = FlowField(axes, tuple(map(float, np.ravel(hsp))), empty(),
                      empty(), empty(), empty(bool), empty(), empty())
    closed = np.zeros((grid, grid), dtype=bool)
    closed[_closed_cells(model, hsp, axes)] = True
    # broadcast axes: each model term is evaluated at the length its
    # angle dependence needs, and every block comes out (rows, grid)
    B = axes[None, :]
    step = max(1, BLOCK_POINTS // grid)
    with np.errstate(all="ignore"):
        for lo in range(0, grid, step):
            rows = slice(lo, lo + step)
            A = axes[rows, None]
            f0 = model.curvature_raw(hsp, A, B)
            num = model.curvature_raw(k_shift, A, B) - f0
            da, db = field.dalpha[rows], field.dbeta[rows]
            _flow_ratio(num, model.curvature_raw(hsp, A + DEFAULT_DM, B) - f0,
                        da)
            _flow_ratio(num, model.curvature_raw(hsp, A, B + DEFAULT_DM) - f0,
                        db)
            shut = closed[rows]
            da[shut] = db[shut] = np.nan
            f0[shut] = np.inf
            rate = np.hypot(da, db)
            np.log10(rate, out=field.log_rate[rows])
            diverged = field.diverged[rows]
            np.greater(rate, DEFAULT_RATE_THRESHOLD, out=diverged)
            diverged |= ~np.isfinite(rate)
            np.abs(f0, out=field.peak_height[rows])
            np.abs(num, out=field.scaling_response[rows])
    return field


def _closed_cells(model, hsp, axes):
    """Index arrays (i, j) of the cells (axes[i], axes[j]) where the gap
    closes at ``hsp``.

    It closes on the line alpha = -b beta (mod 2 pi) of
    ``model.closing_slope(hsp)``, so only the three alpha cells nearest to
    that line in each beta column are tested, by the model's own gap test:
    O(grid) cells, not the grid.
    """
    n = len(axes)
    # the index of alpha = -b beta on the axis -pi + 2 pi i / n
    nearest = np.rint(np.mod(np.pi - model.closing_slope(hsp) * axes,
                             2.0 * np.pi) * (n / (2.0 * np.pi))).astype(int)
    i = (np.repeat(nearest, 3) + np.tile((-1, 0, 1), n)) % n
    j = np.repeat(np.arange(n), 3)
    closed = model.gap_closed(hsp, axes[i], axes[j])
    return i[closed], j[closed]


@dataclass
class CriticalLine:
    """A detected phase-boundary polyline, labeled by its HSP."""

    hsp: tuple
    vertices: np.ndarray  # (n, 2) array of (alpha, beta)


def _periodic_label(mask: np.ndarray) -> np.ndarray:
    """8-connected component labels on a torus: each component carries the
    label of one of its planar parts, and the labels of the other parts
    are unused."""
    from scipy import ndimage

    lab, n = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
    if n == 0:
        return lab
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    size = mask.shape[0]
    for t in range(size):
        for dt in (-1, 0, 1):
            u = (t + dt) % size
            if lab[0, t] and lab[-1, u]:
                union(lab[0, t], lab[-1, u])
            if lab[t, 0] and lab[u, -1]:
                union(lab[t, 0], lab[u, -1])
    merged = [x for x in range(1, n + 1) if find(x) != x]
    if merged:
        # relabel each merged part in place, within its bounding box
        boxes = ndimage.find_objects(lab)
        for x in merged:
            part = lab[boxes[x - 1]]
            part[part == x] = find(x)
    return lab


def _candidates(field: FlowField, rate_threshold: float) -> np.ndarray:
    """The transition-candidate mask of :func:`detect_critical_lines`, made
    one block of ``BLOCK_POINTS`` cells at a time."""
    cand = np.empty(field.peak_height.shape, dtype=bool)
    step = max(1, BLOCK_POINTS // cand.shape[1])
    for lo in range(0, len(cand), step):
        rows = slice(lo, lo + step)
        f0 = field.peak_height[rows]
        with np.errstate(invalid="ignore"):
            min_rate = np.minimum(np.abs(field.dalpha[rows]),
                                  np.abs(field.dbeta[rows]))
        # cells sitting numerically on a gap closing evaluate to huge or
        # non-finite curvature; both mean the transition runs through them
        cand[rows] = (~np.isfinite(f0) | (f0 > PEAK_SINGULAR)
                      | (np.isfinite(min_rate) & (min_rate >= rate_threshold)
                         & (field.scaling_response[rows] >= NUMERATOR_FLOOR)))
    return cand


def _highest(heights) -> int:
    """The index of the first largest height, a non-finite one counting as
    +inf."""
    return int(np.argmax(np.where(np.isfinite(heights), heights, np.inf)))


def detect_critical_lines(field: FlowField,
                          rate_threshold: float = DETECT_RATE_THRESHOLD):
    """Extract phase-boundary polylines from a flow field.

    A cell is a transition candidate when both flow components exceed the
    threshold (a genuine boundary drives every parameter direction; a cell
    where only one component diverges sits on a d_{M_i} F = 0 fixed-point
    locus) and the scaling response is above the numeric floor, or when the
    curvature at the HSP is itself singular (gap closed).  Candidates are
    linked into 8-connected components; each component is thinned to one
    cell per column (or row, for near-vertical lines) at the maximum of the
    curvature magnitude, which increases monotonically toward the boundary.

    Each component is visited through its bounding box, so one grid pass
    is made per field, not per component.  Beyond the field, detection
    holds the candidate mask, the labels and one component's box mask.

    Returns:
        list of CriticalLine, one per surviving component.
    """
    from scipy import ndimage

    cand = _candidates(field, rate_threshold)
    if not cand.any():
        return []
    lab = _periodic_label(cand)
    lines = []
    # labels in ascending order; a label that no cell kept has no box
    for lb, box in enumerate(ndimage.find_objects(lab), start=1):
        if box is None:
            continue
        mask = lab[box] == lb
        if np.count_nonzero(mask) < MIN_COMPONENT_CELLS:
            continue
        box_height = field.peak_height[box]
        alphas = field.axes[box[0]]
        betas = field.axes[box[1]]
        rows = np.flatnonzero(mask.any(axis=1))
        cols = np.flatnonzero(mask.any(axis=0))
        verts = []
        if len(cols) >= len(rows):
            for j in cols:
                ii = np.flatnonzero(mask[:, j])
                i = ii[_highest(box_height[ii, j])]
                verts.append((alphas[i], betas[j]))
        else:
            for i in rows:
                jj = np.flatnonzero(mask[i, :])
                j = jj[_highest(box_height[i, jj])]
                verts.append((alphas[i], betas[j]))
        lines.append(CriticalLine(field.hsp, np.array(verts)))
    return lines


def walk_curvature_callback(model):
    """Adapt a walk model to the F(k, M) callback used by :func:`rg_step`."""

    from .walk1d import WalkParams

    def fn(k, M):
        p = WalkParams(M[0], M[1])
        return float(model.curvature(*np.reshape(k, (-1, 1)), p)[0])

    return fn


__all__ = [
    "rg_step", "flow_field", "detect_critical_lines", "FlowField",
    "CriticalLine", "walk_curvature_callback",
]
