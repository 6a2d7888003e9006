"""Uniform model adapters used by the criticality, correlation, RG-flow and
invariant layers.

A model object is stateless; walk parameters are passed per call.  The 2D
walk exposes its peak structure through the ky = -kx diagonal slice, which is
where its near-critical asymptotics live.

``curvature_raw`` returns the pair (F, |zeta|^2) of a walk's one staged
curvature kernel: every caller reads the gap from the |zeta|^2 of its own
evaluation, by ``geometry.below_gap_floor``, never from a second one.

At each high-symmetry momentum k of either walk, |zeta(k)| is
|sin((alpha + b beta)/2)| for an integer slope b = ``closing_slope(k)``: the
gap at k closes on the line alpha = -b beta (mod 2 pi) and nowhere else.
Every gap closing of both walks is at one of these momenta, so each walk's
integer invariant is a function of the signs of its ``hsp_masses`` alone:
``invariant_from_masses`` gives it in closed form, the independent integer
that the invariants' zone routes are checked against.
"""

from __future__ import annotations

import numpy as np

from . import walk1d, walk2d
from .geometry import below_gap_floor
from .walk1d import LOCUS_TOL, WalkParams, _halves, _reduce_angle

# (row, column) points per block where a layer evaluates a kernel over a
# grid one block of rows at a time (the 2D correlation transform, the crg
# flow field and its line candidates): 16 rows of a 512^2 grid.  In the 2D
# correlation transform at N = 512 it was the fastest of 8 to 128 rows in
# process (34.6 ms median CPU against 37.9-41.6 ms), with the smallest
# traced peak (1.0 MB)
BLOCK_POINTS = 1 << 13


class _Walk:
    """The transitions of a walk, from its ``hsps`` and ``closing_slope``."""

    @classmethod
    def criticality_distance(cls, p: WalkParams) -> float:
        """Angle distance to the nearest gap-closing locus alpha = -b beta
        (mod 2 pi), over b = closing_slope(h) of every h in hsps()."""
        return min(abs(_reduce_angle(p.alpha + cls.closing_slope(h) * p.beta))
                   for h in cls.hsps())

    @classmethod
    def hsp_masses(cls, alpha, beta):
        """The mass m_h = sin((alpha + b beta)/2) at each h of hsps(), in
        that order, with b = closing_slope(h), on broadcastable angle
        arrays: |zeta(h)| = |m_h|.  Each is formed from the unreduced alpha
        half angles as lam_a cos(b beta/2) + kap_a sin(b beta/2), the
        expansion whose sign the walks' sign rules read."""
        ka, la = _halves(np.asarray(alpha, dtype=float))
        beta = np.asarray(beta, dtype=float)
        return [la * np.cos(b * beta / 2.0) + ka * np.sin(b * beta / 2.0)
                for b in map(cls.closing_slope, cls.hsps())]

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

    @staticmethod
    def hsps():
        return [0.0, np.pi]

    curvature_stage = staticmethod(walk1d._curvature_stage_1d)
    curvature_staged = staticmethod(walk1d._curvature_staged_1d)

    @staticmethod
    def peak_profile(k_c: float, deltas, p: WalkParams):
        return walk1d.rotated_curvature_1d(k_c + np.asarray(deltas, dtype=float), p)

    @staticmethod
    def peak_asymptotics(p: WalkParams, k_c: float):
        return walk1d.peak_asymptotics_1d(p, k_c)

    @staticmethod
    def closing_slope(k) -> int:
        """b = 1 at k = 0 and -1 at k = pi, from zeta(k) = (0, sin((alpha
        +- beta)/2), 0); ValueError at any other momentum."""
        return 1 if walk1d._at_zero_channel(k) else -1

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

    @staticmethod
    def hsps():
        return [(0.0, 0.0), (np.pi / 2.0, np.pi / 2.0),
                (np.pi / 2.0, 0.0), (0.0, np.pi / 2.0)]

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

    # alpha = -b beta closes the gap at (0, 0) for b = 2, at (0, pi/2) for
    # b = -2 and at kx = pi/2 for b = 0, keyed by (2 kx, 2 ky) / pi mod 2
    SLOPES = {(0, 0): 2, (0, 1): -2, (1, 0): 0, (1, 1): 0}

    @classmethod
    def closing_slope(cls, k) -> int:
        """b at a high-symmetry momentum (kx, ky), each a multiple of pi/2;
        ValueError at any other momentum."""
        key = []
        for c in k:
            half_turns = abs(_reduce_angle(2.0 * c)) / np.pi
            if min(half_turns, 1.0 - half_turns) > LOCUS_TOL:
                raise ValueError("momentum %r is not high-symmetry" % (k,))
            key.append(round(half_turns))
        return cls.SLOPES[tuple(key)]

    @staticmethod
    def sign_rule(masses, alpha, beta):
        """The invariant C = 2 sgn kap_a sgn lam_a (sgn m_- - sgn m_+), in
        the full-zone normalisation of ``invariants.chern_numbers_2d``
        (values 0 and +-4), from the masses of ``hsp_masses``: m_+ =
        lam_a cos beta + kap_a sin beta at (0, 0), lam_a at both kx = pi/2
        points and m_- = lam_a cos beta - kap_a sin beta at (0, pi/2).  The
        half angles are unreduced: alpha -> alpha + 2 pi flips every mass
        and kap_a, and C with them."""
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
