"""Uniform model adapters used by the criticality, correlation, RG-flow and
invariant layers.

A model object is stateless; walk parameters are passed per call.  The 2D
walk exposes its peak structure through the ky = -kx diagonal slice, which is
where its near-critical asymptotics live.
"""

from __future__ import annotations

import numpy as np

from . import walk1d, walk2d
from .walk1d import WalkParams


class Walk1D:
    """Adapter for the one-dimensional split-step walk."""

    name = "walk1d"
    dimension = 1

    @staticmethod
    def hsps():
        return [0.0, np.pi]

    @staticmethod
    def energy(k, p: WalkParams):
        return walk1d.energy_1d(k, p)

    @staticmethod
    def zeta_norm(k, p: WalkParams):
        """|zeta| = sin E, from the axis components; see ``Walk2D``."""
        zx, zy, zz = walk1d.zeta_components_1d(k, p)
        return np.sqrt(zx * zx + zy * zy + zz * zz)

    @staticmethod
    def curvature(k, p: WalkParams):
        return walk1d.rotated_curvature_1d(k, p)

    @staticmethod
    def curvature_raw(k, alpha, beta):
        return walk1d._curvature_raw_1d(k, alpha, beta)

    @staticmethod
    def peak_profile(k_c: float, deltas, p: WalkParams):
        return walk1d.rotated_curvature_1d(k_c + np.asarray(deltas, dtype=float), p)

    @staticmethod
    def peak_curvature(k_c: float, p: WalkParams) -> float:
        return float(walk1d.rotated_curvature_1d(float(k_c), p))

    @staticmethod
    def peak_asymptotics(p: WalkParams, k_c: float):
        return walk1d.peak_asymptotics_1d(p, k_c)

    @staticmethod
    def criticality_distance(p: WalkParams) -> float:
        """Parameter-space distance to the nearest gap-closing family."""
        return min(walk1d.gap_distances(p))


class Walk2D:
    """Adapter for the two-dimensional walk, diagonal-slice conventions."""

    name = "walk2d"
    dimension = 2

    @staticmethod
    def hsps():
        return [(0.0, 0.0), (np.pi / 2.0, np.pi / 2.0),
                (np.pi / 2.0, 0.0), (0.0, np.pi / 2.0)]

    @staticmethod
    def energy(kx, ky, p: WalkParams):
        return walk2d.energy_grid_2d(kx, ky, p)

    @staticmethod
    def zeta_norm(kx, ky, p: WalkParams):
        """|zeta| = sin E, from the axis components.

        It vanishes where the bands touch at quasienergy 0 or pi and
        resolves a closing down to rounding, while the arccos of the
        quasienergy resolves the gap min(E, pi - E) only to about 1.5e-8.
        """
        zx, zy, zz = walk2d.zeta_components_2d(kx, ky, p)
        return np.sqrt(zx * zx + zy * zy + zz * zz)

    @staticmethod
    def curvature(kx, ky, p: WalkParams):
        return walk2d.curvature_grid_2d(kx, ky, p)

    @staticmethod
    def curvature_raw(k, alpha, beta):
        kx, ky = k
        return walk2d._curvature_raw_2d(kx, ky, alpha, beta)

    @staticmethod
    def peak_profile(k_c, deltas, p: WalkParams):
        """Curvature along the diagonal slice through the peak momentum."""
        deltas = np.asarray(deltas, dtype=float)
        kx0, ky0 = k_c
        return walk2d.curvature_grid_2d(kx0 + deltas, ky0 - deltas, p)

    @staticmethod
    def peak_curvature(k_c, p: WalkParams) -> float:
        kx0, ky0 = k_c
        return float(walk2d.curvature_grid_2d(kx0, ky0, p))

    @staticmethod
    def peak_asymptotics(p: WalkParams, k_c=None):
        return walk2d.peak_asymptotics_2d(p)

    @staticmethod
    def slice_peak():
        """Default peak momentum of the diagonal-slice configuration."""
        return (walk2d.PEAK_KX, -walk2d.PEAK_KX)

    @staticmethod
    def criticality_distance(p: WalkParams) -> float:
        """Angle distance of alpha to the slice-peak critical value 0."""
        return abs(walk1d._reduce_angle(p.alpha))


WALK_1D = Walk1D()
WALK_2D = Walk2D()
