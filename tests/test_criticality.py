import itertools

import numpy as np
import pytest

from topocrit import WalkParams
from topocrit.criticality import (extract_exponents, fit_lorentzian,
                                  sample_peak)
from topocrit.errors import PoorFit, WindowTouchesCriticality
from topocrit.models import WALK_1D, WALK_2D
from topocrit.walk1d import (LOCUS_TOL, _reduce_angle, gap_distances,
                             peak_asymptotics_1d)
from topocrit.walk2d import zeta_components_2d

from oracles import find_gap_closings, flip_test

RNG = np.random.default_rng(3)


class PowerLawModel:
    """Synthetic model: exact Lorentzian peak with power-law height/width,
    signed as alpha."""

    dimension = 1

    def __init__(self, gamma, nu):
        self.gamma = gamma
        self.nu = nu

    def peak_profile(self, k_c, deltas, p):
        f0 = np.sign(p.alpha) * abs(p.alpha) ** -self.gamma
        xi2 = abs(p.alpha) ** (-2 * self.nu)
        return f0 / (1.0 + xi2 * np.asarray(deltas) ** 2)

    def peak_asymptotics(self, p, k_c):
        return (abs(p.alpha) ** -self.gamma, abs(p.alpha) ** (-2 * self.nu))

    def criticality_distance(self, p):
        return abs(p.alpha)

    def closing_slope(self, k):
        return 0

    def closes_on_lines(self, beta):
        return False


# --- criticality_distance ---

def _angle_pairs(n=5000):
    """Random angle pairs and every pair of the edge angles +-pi, +-0.0."""
    edges = (np.pi, -np.pi, 0.0, -0.0, 0.3, -1.1, 2 * np.pi)
    return ([tuple(ab) for ab in RNG.uniform(-4 * np.pi, 4 * np.pi, (n, 2))]
            + list(itertools.product(edges, repeat=2)))


def test_criticality_distance_walk1d_is_min_of_gap_distances():
    for a, b in _angle_pairs():
        p = WalkParams(a, b)
        want = min(gap_distances(p))
        assert WALK_1D.criticality_distance(p).hex() == want.hex(), (a, b)


def test_criticality_distance_walk2d_is_min_over_alpha_and_two_beta():
    for a, b in _angle_pairs():
        want = min(abs(_reduce_angle(x)) for x in (a, a + 2 * b, a - 2 * b))
        got = WALK_2D.criticality_distance(WalkParams(a, b))
        assert got.hex() == want.hex(), (a, b)


@pytest.mark.parametrize("beta", [0.0, -0.0, np.pi, -np.pi, 2 * np.pi, 1e-12,
                                  0.3, np.pi / 2, np.pi - 1e-6, 1e-6, 2.5])
def test_closes_on_lines_matches_the_zone_grid_closings(beta):
    # at alpha_c = 0 the 64^2 zone grid closes on 4 lines of 64 points where
    # beta = 0 (mod pi), and at its 8 Dirac points elsewhere.  A closing is
    # counted to the predicate's own angle slack, |zeta| < LOCUS_TOL: at
    # beta = 1e-12 the line points have |zeta|^2 of 1e-26 to 1e-24, closed
    # to the predicate but gapped to the gap floor
    k = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    zeta = zeta_components_2d(kx, ky, WalkParams(0.0, beta))
    closed = np.count_nonzero(sum(c * c for c in zeta) < LOCUS_TOL ** 2)
    assert closed == (256 if WALK_2D.closes_on_lines(beta) else 8)
    assert WALK_1D.closes_on_lines(beta) is False


# --- find_gap_closings ---

def test_gap_closings_1d_both_zones():
    out = find_gap_closings(WALK_1D, WalkParams(0.0, 0.0))
    zones = {(round(k, 6), z) for k, z in out}
    assert (0.0, 0.0) in zones
    assert (round(np.pi, 6), np.pi) in zones


@pytest.mark.parametrize("alpha, beta, k_c", [
    (0.3, -0.3, 0.0), (0.3, 0.3, np.pi), (-1.1, 1.1, 0.0),
])
def test_gap_closings_1d_where_arccos_rounds_the_gap_away(alpha, beta, k_c):
    # at (0.3, +-0.3) the arccos quasienergy gives a gap of 1.49e-8, above
    # the oracle's CLOSING_TOL, at the closing; |zeta| resolves it
    p = WalkParams(alpha, beta)
    assert min(gap_distances(p)) == 0.0
    out = find_gap_closings(WALK_1D, p)
    assert len(out) == 1
    k, zone = out[0]
    assert abs(np.angle(np.exp(1j * (k - k_c)))) < 1e-9
    assert zone == k_c


def test_gap_closings_1d_gapped():
    assert find_gap_closings(WALK_1D, WalkParams(np.pi / 2, 0.0)) == []


def test_gap_closings_2d_contains_slice_point():
    # the full set at beta = pi/2, alpha = 0: the bands touch at kx in
    # {pi/2, 3pi/2} for every ky in {0, pi/2, pi, 3pi/2}, at quasienergy 0
    # for ky = pi/2, 3pi/2 (the slice point (pi/2, -pi/2) among them) and
    # pi otherwise
    out = find_gap_closings(WALK_2D, WalkParams(0.0, np.pi / 2), grid=96)
    want = [((a * np.pi / 2, b * np.pi / 2), 0.0 if b % 2 else np.pi)
            for a in (1, 3) for b in range(4)]
    assert len(out) == len(want)
    for (kx, ky), zone in want:
        # modulo 2 pi: one closing comes out at ky = 2 pi - 1e-9
        assert sum(zone == z and all(abs(np.angle(np.exp(1j * (c - w)))) < 1e-6
                                     for c, w in zip(k, (kx, ky)))
                   for k, z in out) == 1


@pytest.mark.parametrize("model, grid", [(WALK_1D, 128), (WALK_2D, 64)],
                         ids=["walk1d", "walk2d"])
def test_closing_slope_matches_the_numeric_gap_closings(model, grid):
    # the numeric scan is the oracle of each HSP's closing line alpha = -b
    # beta: on it the gap closes at the HSP, and 0.3 off it, not there
    beta = 0.7

    def closes_at(hsp, alpha):
        out = find_gap_closings(model, WalkParams(alpha, beta), grid)
        return any(all(abs(np.angle(np.exp(1j * (c - h)))) < 1e-6
                       for c, h in zip(np.ravel(k), np.ravel(hsp)))
                   for k, _ in out)

    for hsp in model.hsps():
        alpha = -model.closing_slope(hsp) * beta
        assert closes_at(hsp, alpha)
        assert not closes_at(hsp, alpha + 0.3)


def test_gap_closings_requires_grid():
    with pytest.raises(ValueError):
        find_gap_closings(WALK_1D, WalkParams(0.0, 0.0), grid=32)


# --- fit_lorentzian ---

def test_lorentzian_round_trip():
    dk = np.linspace(-0.04, 0.04, 21)
    dk = dk[np.abs(dk) > 1e-12]
    vals = 5.0 / (1.0 + 100.0 * dk ** 2)
    prof = fit_lorentzian(dk, vals, 0.0)
    assert abs(prof.f_peak - 5.0) < 1e-10
    assert abs(prof.xi - 10.0) < 1e-10


def test_lorentzian_negative_branch():
    dk = np.linspace(-0.04, 0.04, 21)
    dk = dk[np.abs(dk) > 1e-12]
    vals = -3.0 / (1.0 - 25.0 * dk ** 2)
    prof = fit_lorentzian(dk, vals, 0.0)
    assert abs(prof.f_peak + 3.0) < 1e-10
    assert abs(prof.xi - 5.0) < 1e-10


def test_lorentzian_constant_samples():
    dk = np.linspace(-0.1, 0.1, 11)
    dk = dk[np.abs(dk) > 1e-12]
    prof = fit_lorentzian(dk, np.full(dk.shape, 2.5), 0.0)
    assert prof.f_peak == pytest.approx(2.5)
    assert prof.xi == pytest.approx(0.0, abs=1e-6)


def test_lorentzian_rejects_noise():
    dk = np.linspace(-0.1, 0.1, 21)
    dk = dk[np.abs(dk) > 1e-12]
    vals = 1.0 + 0.5 * RNG.standard_normal(dk.shape)
    with pytest.raises(PoorFit):
        fit_lorentzian(dk, vals, 0.0)


def test_lorentzian_refuses_zero_samples():
    # 1/F has no value where F = 0, so a flat zero profile has no peak
    dk = np.linspace(-0.1, 0.1, 30)
    with pytest.raises(PoorFit, match="30 of 30 curvature samples are 0: "
                                      "no peak to fit by 1/F"):
        fit_lorentzian(dk, np.zeros(dk.shape), 0.0)


def test_lorentzian_needs_samples():
    with pytest.raises(ValueError):
        fit_lorentzian([0.1, 0.2, 0.3], [1.0, 2.0, 3.0], 0.0)


def test_walk_fit_matches_closed_form_width():
    p = WalkParams(0.2, 0.0)
    prof = sample_peak(WALK_1D, p, 0.0)
    _, xi2 = peak_asymptotics_1d(p, 0.0)
    assert abs(prof.xi ** 2 - xi2) / xi2 < 0.02


def test_walk_fit_width_agreement_across_window():
    # fitted and closed-form squared widths agree to 2% over the whole
    # asymptotic window of distances to the critical angle
    for alpha in (0.01, 0.03, 0.1, 0.2, 0.3):
        p = WalkParams(alpha, 0.0)
        for k_c in (0.0, np.pi):
            prof = sample_peak(WALK_1D, p, k_c)
            _, xi2 = peak_asymptotics_1d(p, k_c)
            assert abs(prof.xi ** 2 - xi2) / xi2 < 0.02


# --- extract_exponents ---

def test_exponents_synthetic_power_law():
    model = PowerLawModel(3.0, 1.5)
    model.dimension = 2
    fit = extract_exponents(model, beta=0.0, k_c=0.0)
    assert fit.dimension == 2
    assert abs(fit.gamma - 3.0) < 1e-6
    assert abs(fit.nu - 1.5) < 1e-6
    assert fit.scaling_law_residual == pytest.approx(0.0, abs=1e-6)


def test_exponents_walk1d():
    fit = extract_exponents(WALK_1D, beta=0.0, k_c=0.0)
    assert abs(fit.gamma - 1.0) < 0.02
    assert abs(fit.nu - 1.0) < 0.02
    assert np.isfinite(fit.gamma_stderr) and np.isfinite(fit.nu_stderr)


def test_exponents_stable_under_point_doubling():
    f20 = extract_exponents(WALK_1D, beta=0.0, k_c=0.0, n_points=20)
    f40 = extract_exponents(WALK_1D, beta=0.0, k_c=0.0, n_points=40)
    assert abs(f20.gamma - f40.gamma) < 0.01
    assert abs(f20.nu - f40.nu) < 0.01


def test_exponents_malformed_window():
    with pytest.raises(WindowTouchesCriticality):
        extract_exponents(WALK_1D, beta=0.0, k_c=0.0, window=(1e-1, 1e-3))


def test_exponents_walk1d_at_both_channels():
    # alpha_c comes from the model: the gap closes at k = 0 on alpha = -beta
    # and at k = pi on alpha = +beta
    for beta in (-1.0, 0.3):
        for k_c, alpha_c in ((0.0, -beta), (np.pi, beta)):
            fit = extract_exponents(WALK_1D, beta=beta, k_c=k_c)
            assert fit.alpha_c == alpha_c
            assert abs(fit.gamma - 1.0) < 0.01
            assert abs(fit.nu - 1.0) < 0.01


def test_exponents_and_flip_refuse_a_kc_off_every_hsp():
    # a momentum off every high-symmetry point has no transition to sweep to
    for model, k_c in ((WALK_1D, 0.5), (WALK_1D, np.pi / 2),
                       (WALK_2D, (np.pi / 2, 0.3)), (WALK_2D, (0.4, -np.pi))):
        with pytest.raises(ValueError, match="not high-symmetry|0 or pi"):
            extract_exponents(model, beta=0.3, k_c=k_c)
        with pytest.raises(ValueError, match="not high-symmetry|0 or pi"):
            flip_test(model, beta=0.3, k_c=k_c)


def test_exponents_window_reaching_another_locus():
    # at beta = 0.03 the walk2d closes at alpha = 0 and at alpha = 2 beta
    with pytest.raises(WindowTouchesCriticality, match="nearer to another"):
        extract_exponents(WALK_2D, beta=0.03, k_c=WALK_2D.slice_peak())
    fit = extract_exponents(WALK_2D, beta=0.03, k_c=WALK_2D.slice_peak(),
                            window=(1e-4, 1e-2))
    assert fit.alpha_c == 0.0


def test_exponents_requires_points():
    with pytest.raises(ValueError):
        extract_exponents(WALK_1D, beta=0.0, k_c=0.0, n_points=5)


# --- flip_test ---

def test_flip_synthetic_inverse():
    model = PowerLawModel(1.0, 1.0)
    assert flip_test(model, beta=0.0, k_c=0.0, eps=1e-3) == pytest.approx(-1.0)


def test_flip_walk1d():
    r = flip_test(WALK_1D, beta=0.0, k_c=0.0, eps=1e-3)
    assert abs(r + 1.0) < 0.01


def test_flip_walk2d():
    r = flip_test(WALK_2D, beta=np.pi / 2, k_c=WALK_2D.slice_peak(), eps=1e-3)
    assert abs(r + 1.0) < 0.01
