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

Where the gap closes at k0 the flow is undefined.  Those cells are read from
the |zeta|^2 that the model's curvature kernel returns with F(k0, M), by the
one gap test ``geometry.below_gap_floor``, and written as singular cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import below_gap_floor
from .models import BLOCK_POINTS

DEFAULT_GRID = 128
MIN_GRID = 64  # the smallest grid per axis of a flow field
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


@dataclass
class FlowField:
    """The flow-rate arrays of one HSP over a uniform (alpha, beta) grid, or
    over a range of its alpha rows: both angles run over ``axes``, and every
    array is indexed [alpha row - start, beta]."""

    axes: np.ndarray
    hsp: tuple
    dalpha: np.ndarray
    dbeta: np.ndarray
    log_rate: np.ndarray
    diverged: np.ndarray
    peak_height: np.ndarray
    scaling_response: np.ndarray
    start: int = 0


def _flow_ratio(num, flat, den, out):
    """num/den rescaled by DM/Dk^2 into ``out``; inf where den is below the
    floor, 0 where num is too, as the mask ``flat`` says."""
    np.multiply(np.where(np.abs(den) < DENOMINATOR_FLOOR,
                         np.where(flat, 0.0, np.inf), num / den),
                DEFAULT_DM / DEFAULT_DK ** 2, out=out)


def grid_axes(grid: int) -> np.ndarray:
    """The angles -pi + 2 pi i / grid of either axis of a flow field."""
    if grid < MIN_GRID:
        raise ValueError("grid must be at least %dx%d" % (MIN_GRID, MIN_GRID))
    return np.linspace(-np.pi, np.pi, grid, endpoint=False)


def row_blocks(grid: int, rows=None):
    """The alpha rows ``rows`` (default every row) of a grid, cut into
    blocks of ``BLOCK_POINTS`` cells: the blocks :func:`flow_field`
    evaluates."""
    rows = range(grid) if rows is None else rows
    step = max(1, BLOCK_POINTS // grid)
    return [range(lo, min(lo + step, rows.stop))
            for lo in range(rows.start, rows.stop, step)]


def _hsp_key(hsp) -> tuple:
    return tuple(map(float, np.ravel(hsp)))


@dataclass
class FlowStage:
    """What every block of alpha rows of one HSP's flow field reads, built
    once by :func:`flow_stage`: the grid axes, the beta axis as a row and
    shifted by ``DEFAULT_DM``, and the model's curvature stages at
    (k0, beta), (k0 + Dk, beta) and (k0, beta + DM)."""

    axes: np.ndarray
    k_shift: np.ndarray
    beta: np.ndarray
    beta_dm: np.ndarray
    at_hsp: tuple
    at_shift: tuple
    at_dm: tuple


def flow_stage(model, hsp, grid: int = DEFAULT_GRID) -> FlowStage:
    """The :class:`FlowStage` of the flow field of ``model`` at ``hsp`` on
    a grid x grid angle grid."""
    axes = grid_axes(grid)
    k_shift = _shifted_momentum(hsp, np.eye(model.dimension)[0], DEFAULT_DK)
    # broadcast axes: each model term is evaluated at the length its
    # angle dependence needs, and every block comes out (rows, grid)
    B = axes[None, :]
    B_dm = B + DEFAULT_DM
    with np.errstate(all="ignore"):
        return FlowStage(axes, k_shift, B, B_dm,
                         model.curvature_stage(hsp, B),
                         model.curvature_stage(k_shift, B),
                         model.curvature_stage(hsp, B_dm))


def flow_field(model, hsp, grid: int = DEFAULT_GRID, rows=None,
               stage=None) -> FlowField:
    """Evaluate the RG flow at ``hsp`` on a uniform (alpha, beta) grid over
    [-pi, pi)^2, on the alpha rows ``rows`` (a range; default every row).

    The scaling direction is the first momentum axis, +k in 1D and +kx in
    2D, with the steps ``DEFAULT_DK`` and ``DEFAULT_DM``; a cell whose rate
    passes ``DEFAULT_RATE_THRESHOLD`` is flagged diverged.  Cells where the
    gap closes at the HSP carry NaN flow and an infinite peak height and are
    flagged diverged; no exception is raised per cell.  They are read from
    the |zeta|^2 that the block's own curvature evaluation at the HSP
    returns, by ``geometry.below_gap_floor``: exactly the cells where the
    model's validated curvature raises ZeroGap.

    Everything that depends on the momentum and beta only is the
    :func:`flow_stage` of (model, hsp, grid): ``stage``, or built here when
    not given, so a caller that evaluates a field one block per call builds
    it once per HSP.  The rows are evaluated one block of
    :func:`row_blocks` at a time, four ``model.curvature_raw`` calls per
    block, each only its alpha terms on the stage, written straight into
    the arrays of the returned field: a call holds its field, the stage and
    one block.  Evaluated one block per call, the whole grid is never held.
    """
    if stage is None:
        stage = flow_stage(model, hsp, grid)
    axes = stage.axes
    rows = range(grid) if rows is None else rows
    shape = (len(rows), grid)
    field = FlowField(axes, _hsp_key(hsp),
                      *(np.empty(shape, dtype=dtype) for dtype in
                        (float, float, float, bool, float, float)),
                      start=rows.start)
    B = stage.beta
    with np.errstate(all="ignore"):
        for block in row_blocks(grid, rows):
            here = slice(block.start - rows.start, block.stop - rows.start)
            A = axes[block.start:block.stop, None]
            halves = model.alpha_halves(A)
            f0, norm2 = model.curvature_raw(hsp, A, B, stage.at_hsp, halves)
            shut = below_gap_floor(norm2)
            del norm2
            num = model.curvature_raw(stage.k_shift, A, B, stage.at_shift,
                                      halves)[0] - f0
            # where the scaling response is below the floor, for both
            # components
            flat = np.abs(num) < DENOMINATOR_FLOOR
            da, db = field.dalpha[here], field.dbeta[here]
            _flow_ratio(num, flat, model.curvature_raw(
                hsp, A + DEFAULT_DM, B, stage.at_hsp)[0] - f0, da)
            _flow_ratio(num, flat, model.curvature_raw(
                hsp, A, stage.beta_dm, stage.at_dm, halves)[0] - f0, db)
            da[shut] = db[shut] = np.nan
            f0[shut] = np.inf
            rate = np.hypot(da, db)
            np.log10(rate, out=field.log_rate[here])
            diverged = field.diverged[here]
            np.greater(rate, DEFAULT_RATE_THRESHOLD, out=diverged)
            diverged |= ~np.isfinite(rate)
            np.abs(f0, out=field.peak_height[here])
            np.abs(num, out=field.scaling_response[here])
    return field


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


class LineCandidates:
    """The transition candidates of one HSP's flow field, gathered one block
    of alpha rows at a time by :meth:`add`: the candidate mask of the grid
    and the peak height of each candidate cell, nothing else of the field.

    A cell is a candidate when both flow components reach
    ``rate_threshold`` (a genuine boundary drives every parameter
    direction; a cell where only one component diverges sits on a
    d_{M_i} F = 0 fixed-point locus) and the scaling response is above the
    numeric floor, or when the curvature at the HSP is itself singular (gap
    closed).  Each depends on its own cell only, so blocks may come in any
    order.
    """

    def __init__(self, axes, hsp,
                 rate_threshold: float = DETECT_RATE_THRESHOLD):
        if not rate_threshold > 0:
            raise ValueError("rate threshold must be positive, got %r"
                             % (rate_threshold,))
        self.axes = axes
        self.hsp = _hsp_key(hsp)
        self.rate_threshold = rate_threshold
        self.mask = np.zeros((len(axes), len(axes)), dtype=bool)
        self._cells = []  # flat grid indices of the candidates, per block
        self._heights = []  # their peak heights

    def add(self, field: FlowField) -> None:
        """Screen the rows of ``field``, a whole field or a block of one,
        ``BLOCK_POINTS`` cells at a time."""
        n = len(self.axes)
        for block in row_blocks(n, range(len(field.peak_height))):
            rows = slice(block.start, block.stop)
            f0 = field.peak_height[rows]
            with np.errstate(invalid="ignore"):
                min_rate = np.minimum(np.abs(field.dalpha[rows]),
                                      np.abs(field.dbeta[rows]))
            # cells sitting numerically on a gap closing evaluate to huge or
            # non-finite curvature; both mean the transition runs through
            # them
            cand = (~np.isfinite(f0) | (f0 > PEAK_SINGULAR)
                    | (np.isfinite(min_rate)
                       & (min_rate >= self.rate_threshold)
                       & (field.scaling_response[rows] >= NUMERATOR_FLOOR)))
            first = field.start + block.start
            self.mask[first:first + len(cand)] = cand
            self._cells.append(np.flatnonzero(cand) + first * n)
            self._heights.append(f0[cand])

    def heights(self):
        """The flat grid indices of the candidates, ascending, and their
        peak heights, a non-finite one as +inf."""
        cells = np.concatenate(self._cells)
        order = np.argsort(cells, kind="stable")
        heights = np.concatenate(self._heights)[order]
        return cells[order], np.where(np.isfinite(heights), heights, np.inf)


def detect_critical_lines(found: LineCandidates):
    """Extract phase-boundary polylines from the candidates of one HSP's
    flow field, gathered by :class:`LineCandidates` (a whole field is one
    block of it).

    Candidates are linked into 8-connected components on the torus; each
    component is thinned to one cell per column (or row, for near-vertical
    lines) at the maximum of the curvature magnitude, which increases
    monotonically toward the boundary.

    Each component is visited through its bounding box, so one grid pass is
    made per field, not per component.  Beyond the candidates, detection
    holds the labels and one component's box mask.

    Returns:
        list of CriticalLine, one per surviving component.
    """
    from scipy import ndimage

    if not found.mask.any():
        return []
    lab = _periodic_label(found.mask)
    cells, heights = found.heights()
    axes, n = found.axes, len(found.axes)
    lines = []
    # labels in ascending order; a label that no cell kept has no box
    for lb, box in enumerate(ndimage.find_objects(lab), start=1):
        if box is None:
            continue
        i, j = np.nonzero(lab[box] == lb)
        if len(i) < MIN_COMPONENT_CELLS:
            continue
        i += box[0].start
        j += box[1].start
        height = heights[np.searchsorted(cells, i * n + j)]
        # one vertex per column, or per row when the component spans more
        # rows than columns: its highest cell, the first along the column
        # (row) among equals
        along, across = ((j, i) if len(np.unique(j)) >= len(np.unique(i))
                         else (i, j))
        order = np.lexsort((across, -height, along))
        first = order[np.diff(along[order], prepend=-1) != 0]
        lines.append(CriticalLine(found.hsp, np.column_stack(
            (axes[i[first]], axes[j[first]]))))
    return lines


__all__ = [
    "flow_field", "flow_stage", "detect_critical_lines", "FlowField",
    "FlowStage", "LineCandidates", "CriticalLine",
]
