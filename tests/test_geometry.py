import numpy as np
import pytest

from topocrit import (
    RealVec3, Spinor, ZeroGap, GaugeSingularity,
    berry_connection_1d, berry_connection_fd, berry_curvature_2d_dirac,
    dhat_derivative, dirac_d_1d, dirac_d_2d, dirac_qgt_2d, eigenstate_lower,
    eigenstate_lower_north, fidelity_overlap, fidelity_susceptibility_1d_dirac,
    lower_band_state, manifold_area_2d, manifold_length_1d, metric_1d,
    metric_det_2d, qgt_2d, qgt_finite_difference,
)
from topocrit.errors import EmptyGrid
from topocrit.geometry import GAP_FLOOR
from topocrit.walk1d import WalkParams, rotated_curvature_1d

RNG = np.random.default_rng(42)


def dirac_state_1d(k, M):
    return eigenstate_lower(dirac_d_1d(k, M)).as_array()


def dirac_state_2d(kx, ky, M):
    return eigenstate_lower(dirac_d_2d(kx, ky, M)).as_array()


# --- d-vectors ---

def test_dirac_d_1d_components():
    assert dirac_d_1d(0.0, 1.0) == RealVec3(1.0, 0.0, 0.0)
    assert dirac_d_1d(2.0, 0.0) == RealVec3(0.0, 2.0, 0.0)
    assert dirac_d_1d(-1.0, 3.0) == RealVec3(3.0, -1.0, 0.0)


def test_realvec3_normalized_unit():
    v = RealVec3(3.0, 4.0, 12.0).normalized()
    assert abs(v.norm() - 1.0) < 1e-12


def test_spinor_norm_contract():
    psi = eigenstate_lower(RealVec3(0.6, -0.8, 0.3))
    assert abs(psi.norm() - 1.0) < 1e-12


# --- eigenstates ---

def test_eigenstate_planar_gauge():
    psi = eigenstate_lower(RealVec3(1.0, 0.0, 0.0))
    np.testing.assert_allclose(psi.as_array(),
                               [-1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)


def test_eigenstate_south_pole():
    psi = eigenstate_lower(RealVec3(0.0, 0.0, -1.0))
    np.testing.assert_allclose(psi.as_array(), [-1.0, 0.0], atol=1e-12)


def test_eigenstate_solves_hamiltonian():
    # direct 2x2 diagonalization oracle: H psi = -|d| psi
    d = RealVec3(3.0, 4.0, 0.0)
    H = np.array([[d.z, d.x - 1j * d.y], [d.x + 1j * d.y, -d.z]])
    psi = eigenstate_lower(d).as_array()
    np.testing.assert_allclose(H @ psi, -5.0 * psi, atol=1e-10)


def test_eigenstate_errors():
    with pytest.raises(ZeroGap):
        eigenstate_lower(RealVec3(0.0, 0.0, 0.0))
    with pytest.raises(GaugeSingularity):
        eigenstate_lower(RealVec3(0.0, 0.0, 1.0))


def test_complementary_gauge_same_ray():
    # the two gauges agree up to a phase away from both poles
    d = RealVec3(0.3, -0.8, 0.4)
    a = eigenstate_lower(d).as_array()
    b = eigenstate_lower_north(d).as_array()
    assert abs(abs(np.vdot(a, b)) - 1.0) < 1e-12


def test_lower_band_state_switches_gauge():
    _, gauge = lower_band_state(RealVec3(1e-8, 0.0, 1.0))
    assert gauge == "north"
    _, gauge = lower_band_state(RealVec3(1.0, 0.0, -0.5))
    assert gauge == "south"


# --- Berry connection and metric, 1D Dirac ---

def test_berry_connection_values():
    assert abs(berry_connection_1d(0.0, 1.0) + 0.5) < 1e-15
    assert abs(berry_connection_1d(0.0, -1.0) - 0.5) < 1e-15
    assert abs(berry_connection_1d(1.0, 1.0) + 0.25) < 1e-15


def test_metric_1d_dirac_values():
    for k, M, want in ((0.0, 1.0, 0.25), (0.0, 2.0, 0.0625)):
        dd = dhat_derivative(dirac_d_1d(k, M), RealVec3(0.0, 1.0, 0.0))
        assert abs(metric_1d(dd) - want) < 1e-14


def test_metric_equals_connection_squared_fd():
    # numeric Berry connection oracle at dk = 1e-5
    for _ in range(25):
        k, M = RNG.uniform(-2, 2), RNG.uniform(0.2, 2)
        dd = dhat_derivative(dirac_d_1d(k, M), RealVec3(0.0, 1.0, 0.0))
        a_fd = berry_connection_fd(lambda t: dirac_state_1d(t, M), k)
        assert abs(metric_1d(dd) - a_fd ** 2) < 1e-6


# --- fidelity ---

def test_fidelity_overlap_trivial():
    psi = eigenstate_lower(RealVec3(1.0, 2.0, 0.5))
    assert abs(fidelity_overlap(psi, psi) - 1.0) < 1e-12
    orth = Spinor(-np.conj(psi.down), np.conj(psi.up))
    assert fidelity_overlap(psi, orth) < 1e-12


def test_fidelity_expansion_1d_dirac():
    dk = 1e-3
    a = eigenstate_lower(dirac_d_1d(0.0, 1.0))
    b = eigenstate_lower(dirac_d_1d(dk, 1.0))
    loss = 1.0 - fidelity_overlap(a, b)
    expected = dk ** 2 / 2.0 * 0.25
    assert abs(loss - expected) / expected < 0.01


def test_fidelity_susceptibility_closed_form():
    assert abs(fidelity_susceptibility_1d_dirac(0.0, 1.0) - 0.25) < 1e-15
    k, M = 0.7, 0.4
    want = M ** 2 / (4 * (M ** 2 + k ** 2) ** 2)
    assert abs(fidelity_susceptibility_1d_dirac(k, M) - want) < 1e-15


# --- quantum geometric tensor ---

EX, EY = RealVec3(1.0, 0.0, 0.0), RealVec3(0.0, 1.0, 0.0)


def test_qgt_2d_dirac_origin():
    d = dirac_d_2d(0.0, 0.0, 1.0)
    assert abs(qgt_2d(d, EX, EX) - 0.25) < 1e-12
    txy = qgt_2d(d, EX, EY)
    # Im T_xy = -Omega/2 with Omega = 0.5 at the origin
    assert abs(txy - (0.0 - 0.25j)) < 1e-12
    assert abs(qgt_2d(d, EY, EY) - 0.25) < 1e-12


def test_qgt_diagonal_is_real():
    for _ in range(10):
        d = RealVec3(*RNG.uniform(-1, 1, 3))
        v = RealVec3(*RNG.uniform(-1, 1, 3))
        assert abs(qgt_2d(d, v, v).imag) < 1e-12


def test_qgt_accessors():
    t = dirac_qgt_2d(0.0, 0.0, 1.0)
    np.testing.assert_allclose(t.metric(), 0.25 * np.eye(2), atol=1e-12)
    assert abs(t.berry_curvature() - 0.5) < 1e-12


def test_qgt_metric_properties_random():
    for _ in range(50):
        kx, ky, M = RNG.uniform(-2, 2, 2).tolist() + [RNG.uniform(0.2, 1.5)]
        t = dirac_qgt_2d(kx, ky, M)
        g = t.metric()
        np.testing.assert_allclose(g, g.T, atol=1e-12)
        assert np.linalg.eigvalsh(g).min() > -1e-10
        im = t.tensor.imag
        np.testing.assert_allclose(im, -im.T, atol=1e-12)


def test_berry_curvature_2d_dirac_values():
    assert abs(berry_curvature_2d_dirac(0.0, 0.0, 1.0) - 0.5) < 1e-15
    assert abs(berry_curvature_2d_dirac(0.0, 0.0, -1.0) + 0.5) < 1e-15
    assert berry_curvature_2d_dirac(3.0, 4.0, 0.0) == 0.0


def dirac_reference(k, M, dimension):
    """The 1D Dirac connection or the 2D Dirac curvature at ky = 0, one
    Python-float expression per momentum, NaN where |d|^2 is below the gap
    floor."""
    out = []
    for kk in k.tolist():
        d2 = M * M + kk * kk
        if d2 < GAP_FLOOR ** 2:
            out.append(float("nan"))
        elif dimension == 1:
            out.append(-M / (2.0 * d2))
        else:
            out.append(M / (2.0 * d2 ** 1.5))
    return np.array(out)


@pytest.mark.parametrize("M", [1.0, 0.3, -0.7, 0.0, 1e-15, 2.5e-3])
def test_dirac_arrays_match_per_point_reference(M):
    # bit for bit: an array ** 1.5 through numpy's SIMD pow differs from
    # the scalar pow in the last bit at some of these points
    for k in (np.linspace(-10.0, 10.0, 4097), np.linspace(-0.5, 0.5, 64)):
        np.testing.assert_array_equal(berry_connection_1d(k, M),
                                      dirac_reference(k, M, 1))
        np.testing.assert_array_equal(berry_curvature_2d_dirac(k, 0.0, M),
                                      dirac_reference(k, M, 2))


def test_dirac_point_nan_in_arrays_zero_gap_at_scalars():
    k = np.array([-1.0, 0.0, 1.0])
    assert np.isnan(berry_connection_1d(k, 0.0)).tolist() == [False, True, False]
    om = berry_curvature_2d_dirac(k, np.zeros(3), 0.0)
    assert np.isnan(om).tolist() == [False, True, False]
    with pytest.raises(ZeroGap):
        berry_connection_1d(0.0, 0.0)
    with pytest.raises(ZeroGap):
        berry_curvature_2d_dirac(0.0, 0.0, 1e-15)
    assert isinstance(berry_curvature_2d_dirac(0.3, 0.2, 1.0), float)


def test_metric_det_equals_quarter_curvature_squared():
    assert abs(metric_det_2d(dirac_qgt_2d(0.0, 0.0, 1.0).metric()) - 0.0625) < 1e-14
    for _ in range(50):
        kx, ky = RNG.uniform(-2, 2, 2)
        M = RNG.uniform(0.1, 2)
        det = metric_det_2d(dirac_qgt_2d(kx, ky, M).metric())
        om = berry_curvature_2d_dirac(kx, ky, M)
        assert abs(det - 0.25 * om ** 2) < 1e-12


def test_divergence_exponents_at_origin():
    # log-log slopes of |A|, chi_F (1D), Omega, det g (2D) against |M|
    masses = np.logspace(-3, -1, 15)
    logm = np.log(masses)

    def slope(vals):
        return np.polyfit(logm, np.log(np.abs(vals)), 1)[0]

    a = [berry_connection_1d(0.0, m) for m in masses]
    chi = [fidelity_susceptibility_1d_dirac(0.0, m) for m in masses]
    om = [berry_curvature_2d_dirac(0.0, 0.0, m) for m in masses]
    det = [metric_det_2d(dirac_qgt_2d(0.0, 0.0, m).metric()) for m in masses]
    assert abs(slope(a) + 1.0) < 0.01
    assert abs(slope(chi) + 2.0) < 0.01
    assert abs(slope(om) + 2.0) < 0.01
    assert abs(slope(det) + 4.0) < 0.01


# --- finite-difference oracles ---

def test_qgt_finite_difference_matches_closed_form():
    for _ in range(20):
        kx, ky = RNG.uniform(-2, 2, 2)
        M = RNG.uniform(0.3, 1.5)
        t_closed = dirac_qgt_2d(kx, ky, M).tensor
        state = lambda q: dirac_state_2d(q[0], q[1], M)
        for a in (0, 1):
            for b in (0, 1):
                t_fd = qgt_finite_difference(state, (kx, ky), a, b)
                assert abs(t_fd - t_closed[a, b]) < 1e-6


def test_qgt_gauge_invariance():
    # invariance is exact; the finite differences carry ~1e-11 rounding noise
    kx, ky, M = 0.4, -0.6, 0.8
    state = lambda q: dirac_state_2d(q[0], q[1], M)
    shifted = lambda q: np.exp(0.37j) * dirac_state_2d(q[0], q[1], M)
    t1 = qgt_finite_difference(state, (kx, ky), 0, 1)
    t2 = qgt_finite_difference(shifted, (kx, ky), 0, 1)
    assert abs(t1 - t2) < 1e-10


def test_fidelity_overlap_gauge_invariance():
    a = eigenstate_lower(RealVec3(0.2, 0.9, -0.3))
    b = eigenstate_lower(RealVec3(0.5, 0.1, 0.7))
    ph = np.exp(1.23j)
    b_shift = Spinor(ph * b.up, ph * b.down)
    assert abs(fidelity_overlap(a, b) - fidelity_overlap(a, b_shift)) < 1e-12


# --- manifold length and area ---

def test_manifold_length_trivial():
    k = np.linspace(0, 2 * np.pi, 256, endpoint=False)
    assert manifold_length_1d(zip(k, np.zeros_like(k))) == 0.0
    L = manifold_length_1d(zip(k, np.full_like(k, 1 / (2 * np.pi))))
    assert abs(L - 1.0) < 1e-12


def test_manifold_length_walk_classifies_sign():
    # mixed-sign connection at (pi/2, 0): length strictly exceeds |integral|
    p = WalkParams(np.pi / 2, 0.0)
    k = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    a = rotated_curvature_1d(k, p) / 2.0
    L = manifold_length_1d(zip(k, a))
    winding_part = abs(np.sum(a) * (2 * np.pi / 4096))
    assert winding_part < 1e-10
    assert L > 0.5


def test_manifold_length_single_signed_equals_pi_times_invariant():
    # at beta = pi the connection is constant (-1/2): L = pi = pi |C|
    p = WalkParams(np.pi / 2, np.pi)
    k = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    a = rotated_curvature_1d(k, p) / 2.0
    L = manifold_length_1d(zip(k, a))
    assert abs(L - np.pi) < 1e-10


def test_manifold_area_trivial():
    assert manifold_area_2d(np.zeros((64, 64))) == 0.0
    A = manifold_area_2d(np.full((64, 64), 1 / (2 * np.pi)))
    assert abs(A - np.pi) < 1e-12


def test_manifold_empty_grid():
    with pytest.raises(EmptyGrid):
        manifold_length_1d([])
    with pytest.raises(EmptyGrid):
        manifold_area_2d(np.zeros((0, 0)))
