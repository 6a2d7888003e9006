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
from dataclasses import dataclass, field

import numpy as np

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
class RGFlowSample:
    """Flow data at one (alpha, beta) cell for one high-symmetry point."""

    alpha: float
    beta: float
    dalpha_dl: float
    dbeta_dl: float
    rate: float
    diverged: bool
    peak_height: float  # |F(k0, M)|, used to thin detected ridges


@dataclass
class FlowField:
    """Per-HSP flow-rate arrays over a uniform (alpha, beta) grid."""

    alphas: np.ndarray
    betas: np.ndarray
    hsps: list
    ks: object
    dk: float
    dM: float
    rate_threshold: float
    dalpha: dict = field(default_factory=dict)
    dbeta: dict = field(default_factory=dict)
    rate: dict = field(default_factory=dict)
    log_rate: dict = field(default_factory=dict)
    diverged: dict = field(default_factory=dict)
    peak_height: dict = field(default_factory=dict)
    scaling_response: dict = field(default_factory=dict)

    @property
    def cell(self) -> float:
        return float(self.alphas[1] - self.alphas[0])

    def sample(self, hsp, i: int, j: int) -> RGFlowSample:
        key = _hsp_key(hsp)
        return RGFlowSample(
            float(self.alphas[i]), float(self.betas[j]),
            float(self.dalpha[key][i, j]), float(self.dbeta[key][i, j]),
            float(self.rate[key][i, j]), bool(self.diverged[key][i, j]),
            float(self.peak_height[key][i, j]))


def _hsp_key(hsp):
    if np.ndim(hsp) == 0:
        return (float(hsp),)
    return tuple(float(x) for x in hsp)


def flow_field(model, grid: int = 128, hsps=None, ks=None,
               dk: float = DEFAULT_DK, dM: float = DEFAULT_DM,
               rate_threshold: float = DEFAULT_RATE_THRESHOLD) -> FlowField:
    """Evaluate the RG flow on a uniform (alpha, beta) grid over [-pi, pi)^2.

    The scaling direction defaults to the first momentum axis, +k in 1D and
    +kx in 2D.  Cells where the gap closes at the HSP carry non-finite
    entries and are flagged diverged; no exception is raised per cell.
    """
    if grid < 64:
        raise ValueError("grid must be at least 64x64")
    axes = np.linspace(-np.pi, np.pi, grid, endpoint=False)
    if hsps is None:
        hsps = model.hsps()
    if ks is None:
        ks = np.eye(model.dimension)[0]
    out = FlowField(axes, axes.copy(), list(hsps), ks, dk, dM, rate_threshold)
    A, B = np.meshgrid(axes, axes, indexing="ij")
    for hsp in hsps:
        k_shift = _shifted_momentum(hsp, ks, dk)
        with np.errstate(all="ignore"):
            f0 = model.curvature_raw(hsp, A, B)
            num = model.curvature_raw(k_shift, A, B) - f0
            den_a = model.curvature_raw(hsp, A + dM, B) - f0
            den_b = model.curvature_raw(hsp, A, B + dM) - f0
            da = np.where(np.abs(den_a) < DENOMINATOR_FLOOR,
                          np.where(np.abs(num) < DENOMINATOR_FLOOR, 0.0, np.inf),
                          num / den_a) * (dM / dk ** 2)
            db = np.where(np.abs(den_b) < DENOMINATOR_FLOOR,
                          np.where(np.abs(num) < DENOMINATOR_FLOOR, 0.0, np.inf),
                          num / den_b) * (dM / dk ** 2)
            rate = np.hypot(da, db)
            log_rate = np.log10(rate)
        key = _hsp_key(hsp)
        out.dalpha[key] = da
        out.dbeta[key] = db
        out.rate[key] = rate
        out.log_rate[key] = log_rate
        out.diverged[key] = (~np.isfinite(rate)) | (rate > rate_threshold)
        out.peak_height[key] = np.abs(f0)
        out.scaling_response[key] = np.abs(num)
    return out


@dataclass
class CriticalLine:
    """A detected phase-boundary polyline, labeled by its HSP."""

    hsp: tuple
    vertices: np.ndarray  # (n, 2) array of (alpha, beta)


def _periodic_label(mask: np.ndarray) -> np.ndarray:
    """8-connected component labels on a torus."""
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
    roots = np.array([find(x) for x in range(n + 1)])
    return roots[lab]


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

    Returns:
        list of CriticalLine, one per surviving component per HSP.
    """
    lines = []
    for hsp in field.hsps:
        key = _hsp_key(hsp)
        da = field.dalpha[key]
        db = field.dbeta[key]
        f0 = field.peak_height[key]
        num = field.scaling_response[key]
        with np.errstate(invalid="ignore"):
            min_rate = np.minimum(np.abs(da), np.abs(db))
        # cells sitting numerically on a gap closing evaluate to huge or
        # non-finite curvature; both mean the transition runs through them
        singular = ~np.isfinite(f0) | (f0 > PEAK_SINGULAR)
        finite_flow = np.isfinite(min_rate)
        cand = singular | (finite_flow & (min_rate >= rate_threshold)
                           & (num >= NUMERATOR_FLOOR))
        if not cand.any():
            continue
        lab = _periodic_label(cand)
        height = np.where(np.isfinite(f0), f0, np.inf)
        for lb in np.unique(lab):
            if lb == 0:
                continue
            mask = lab == lb
            if mask.sum() < MIN_COMPONENT_CELLS:
                continue
            rows = np.unique(np.nonzero(mask)[0])
            cols = np.unique(np.nonzero(mask)[1])
            verts = []
            if len(cols) >= len(rows):
                for j in cols:
                    ii = np.nonzero(mask[:, j])[0]
                    i = ii[np.argmax(height[ii, j])]
                    verts.append((field.alphas[i], field.betas[j]))
            else:
                for i in rows:
                    jj = np.nonzero(mask[i, :])[0]
                    j = jj[np.argmax(height[i, jj])]
                    verts.append((field.alphas[i], field.betas[j]))
            lines.append(CriticalLine(key, np.array(verts)))
    return lines


def walk_curvature_callback(model):
    """Adapt a walk model to the F(k, M) callback used by :func:`rg_step`."""

    from .walk1d import WalkParams

    def fn(k, M):
        p = WalkParams(M[0], M[1])
        return float(model.curvature(*np.reshape(k, (-1, 1)), p)[0])

    return fn


__all__ = [
    "rg_step", "flow_field", "detect_critical_lines", "RGFlowSample",
    "FlowField", "CriticalLine", "walk_curvature_callback",
]
