"""Uniform model adapters used by the criticality, correlation, RG-flow and
invariant layers.

A model object is stateless; walk parameters are passed per call.  The 2D
walk exposes its peak structure through the ky = -kx diagonal slice, which is
where its near-critical asymptotics live.

``curvature_raw`` returns the pair (F, |zeta|^2) of a walk's one staged
curvature kernel: every caller reads the gap from the |zeta|^2 of its own
evaluation, by ``geometry.below_gap_floor``, never from a second one.

Each walk states its transitions once, as a table of (momentum h, slope b)
pairs in HSP order, ``walk1d.TRANSITIONS_1D`` and ``walk2d.TRANSITIONS_2D``
(Chen et al., PRB 95, 075116 (2017)).  At each h, |zeta(h)| is |m_h| for the
mass m_h = sin((alpha + b beta)/2): the gap at h closes on the line
alpha = -b beta (mod 2 pi) and nowhere else.  ``hsps``, ``closing_slope``,
``hsp_masses`` and ``criticality_distance`` read the table and nothing else.
Every gap closing of both walks is at one of these momenta, so each walk's
integer invariant is a function of the signs of its ``hsp_masses`` alone:
``invariant_from_masses`` gives it in closed form, the independent integer
that the invariants' zone routes are checked against.
"""

from __future__ import annotations

import numpy as np

from . import walk1d, walk2d
from .geometry import below_gap_floor
from .walk1d import (LOCUS_TOL, WalkParams, _halves, _reduce_angle,
                     table_slope)

# (row, column) points per block where a layer evaluates a kernel over a
# grid one block of rows at a time (the 2D correlation transform, the crg
# flow field and its line candidates): 16 rows of a 512^2 grid.  In the 2D
# correlation transform at N = 512 it was the fastest of 8 to 128 rows in
# process (34.6 ms median CPU against 37.9-41.6 ms), with the smallest
# traced peak (1.0 MB)
BLOCK_POINTS = 1 << 13


class _Walk:
    """The transitions of a walk, from its table ``transitions`` of
    (momentum, slope b) pairs, in HSP order, and its momentum ``period``."""

    @classmethod
    def hsps(cls):
        """The high-symmetry momenta, in table order."""
        return [h for h, _ in cls.transitions]

    @classmethod
    def closing_slope(cls, k) -> int:
        """b of the table pair whose momentum is k, each coordinate modulo
        the period: the gap at k closes on alpha = -b beta.  ValueError at
        any other momentum."""
        return table_slope(cls.transitions, cls.period, k)

    @classmethod
    def criticality_distance(cls, p: WalkParams) -> float:
        """Angle distance to the nearest gap-closing locus alpha = -b beta
        (mod 2 pi), over the slopes b of the table."""
        return min(abs(_reduce_angle(p.alpha + b * p.beta))
                   for _, b in cls.transitions)

    @classmethod
    def hsp_masses(cls, alpha, beta):
        """The mass m_h = sin((alpha + b beta)/2) of each (h, b) of the
        table, in HSP order, on broadcastable angle arrays: |zeta(h)| =
        |m_h|.  The angles are unreduced, so alpha -> alpha + 2 pi flips
        every mass; the walks' sign rules read that flip."""
        return [np.sin((alpha + b * beta) / 2.0) for _, b in cls.transitions]

    @classmethod
    def invariant_from_masses(cls, alpha, beta):
        """The walk's integer invariant on broadcastable angle arrays, from
        the signs of its ``hsp_masses`` by the walk's ``sign_rule``, as a
        float array: NaN where some m_h^2 is below the gap floor, the cells
        whose gap closes (``ZeroGap``)."""
        alpha, beta = np.broadcast_arrays(np.asarray(alpha, dtype=float),
                                          np.asarray(beta, dtype=float))
        masses = cls.hsp_masses(alpha, beta)
        closed = np.any([below_gap_floor(m * m) for m in masses], axis=0)
        count = cls.sign_rule(masses, alpha, beta)
        # + 0.0 writes a zero count as 0, never -0
        return np.where(closed, np.nan, count) + 0.0

    @staticmethod
    def alpha_halves(alpha):
        """(cos(alpha/2), sin(alpha/2)): all that ``curvature_raw`` reads of
        alpha."""
        return _halves(alpha)

    @classmethod
    def curvature_raw(cls, k, alpha, beta, stage=None, halves=None):
        """(F, |zeta|^2) on broadcastable (alpha, beta) arrays at the
        momentum k: the staged kernel ``curvature_staged`` on
        ``curvature_stage(k, beta)`` at ``alpha_halves(alpha)``.  F is
        unvalidated; ``geometry.below_gap_floor`` of |zeta|^2 says where the
        gap closes, the cells where the validated curvature raises ZeroGap.

        A caller that evaluates one (k, beta) at many alphas passes the
        ``stage`` it built once, and one that evaluates one alpha on many
        stages its ``halves``; either is built here when not given.
        """
        if stage is None:
            stage = cls.curvature_stage(k, beta)
        if halves is None:
            halves = _halves(alpha)
        return cls.curvature_staged(stage, *halves)


class Walk1D(_Walk):
    """Adapter for the one-dimensional split-step walk."""

    name = "walk1d"
    dimension = 1

    transitions, period = walk1d.TRANSITIONS_1D, walk1d.PERIOD_1D
    curvature_stage = staticmethod(walk1d._curvature_stage_1d)
    curvature_staged = staticmethod(walk1d._curvature_staged_1d)

    @staticmethod
    def peak_profile(k_c: float, deltas, p: WalkParams):
        return walk1d.rotated_curvature_1d(k_c + np.asarray(deltas, dtype=float), p)

    @staticmethod
    def peak_asymptotics(p: WalkParams, k_c: float):
        return walk1d.peak_asymptotics_1d(p, k_c)

    @staticmethod
    def sign_rule(masses, alpha, beta):
        """The winding W from the masses (m_0, m_pi) of ``hsp_masses``:
        W = -sgn lam_b where m_0 m_pi < 0, and 0 elsewhere.  m_0 m_pi is
        (lam_a kap_b)^2 - (kap_a lam_b)^2, so W is nonzero where the planar
        ellipse (kap_a sin k, lam_a kap_b + kap_a lam_b cos k) encloses the
        origin; it winds once, in the sense of -sgn lam_b."""
        m_0, m_pi = masses
        return np.where(m_0 * m_pi < 0.0, -np.sign(np.sin(beta / 2.0)), 0.0)

    @staticmethod
    def closes_on_lines(beta) -> bool:
        """False: at every beta each walk1d transition closes the gap at a
        single momentum, 0 or pi."""
        return False


class Walk2D(_Walk):
    """Adapter for the two-dimensional walk, diagonal-slice conventions."""

    name = "walk2d"
    dimension = 2

    transitions, period = walk2d.TRANSITIONS_2D, walk2d.PERIOD_2D
    curvature_stage = staticmethod(walk2d._curvature_stage_2d)
    curvature_staged = staticmethod(walk2d._curvature_staged_2d)

    @staticmethod
    def peak_profile(k_c, deltas, p: WalkParams):
        """Curvature along the diagonal slice through the peak momentum."""
        deltas = np.asarray(deltas, dtype=float)
        kx0, ky0 = k_c
        return walk2d.curvature_grid_2d(kx0 + deltas, ky0 - deltas, p)

    @staticmethod
    def peak_asymptotics(p: WalkParams, k_c=None):
        return walk2d.peak_asymptotics_2d(p)

    @staticmethod
    def slice_peak():
        """Default peak momentum of the diagonal-slice configuration."""
        return (walk2d.PEAK_KX, -walk2d.PEAK_KX)

    @staticmethod
    def sign_rule(masses, alpha, beta):
        """The invariant C = 2 sgn kap_a sgn lam_a (sgn m_- - sgn m_+), in
        the full-zone normalisation of ``invariants.chern_numbers_2d``
        (values 0 and +-4), from the masses of ``hsp_masses``: m_+ =
        sin((alpha + 2 beta)/2) at (0, 0), lam_a = sin(alpha/2) at both
        kx = pi/2 points and m_- = sin((alpha - 2 beta)/2) at (0, pi/2).
        The half angles are unreduced: alpha -> alpha + 2 pi flips every
        mass and kap_a, and C with them."""
        m_plus, lam_a, _, m_minus = masses
        kap_a = np.cos(alpha / 2.0)
        return (2.0 * np.sign(kap_a) * np.sign(lam_a)
                * (np.sign(m_minus) - np.sign(m_plus)))

    @staticmethod
    def closes_on_lines(beta) -> bool:
        """Whether beta = 0 (mod pi), to LOCUS_TOL.  There the three loci
        alpha = -2 beta, 2 beta and 0 meet at alpha = 0, where rho is
        cos(2 kx + 2 ky) (beta = 0) or -cos(2 ky) (beta = pi): the gap
        closes on lines of the zone, not at a Dirac point."""
        return abs(_reduce_angle(2.0 * beta)) < LOCUS_TOL


WALK_1D = Walk1D()
WALK_2D = Walk2D()
