import ast
from pathlib import Path

import numpy as np
import pytest

import topocrit
from topocrit import (
    ZeroGap, GaugeSingularity,
    berry_connection_1d, berry_curvature_2d_dirac, lower_band_states,
    quantum_geometric_tensor,
)
from topocrit.geometry import GAP_FLOOR, GAUGE_SWITCH
from topocrit.walk1d import WalkParams, rotated_curvature_1d

from oracles import berry_connection_fd, qgt_finite_difference

RNG = np.random.default_rng(42)

EX, EY, EZ = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)


def dirac_state_1d(k, M):
    return lower_band_states((M, k, 0.0), True)


def dirac_state_2d(kx, ky, M):
    return lower_band_states((kx, ky, M), True)


def dirac_metric_1d(k, M):
    """g_kk of the 1D Dirac model, d = (M, k, 0)."""
    return quantum_geometric_tensor((M, k, 0.0), EY, EY).real


def dirac_tensor_2d(kx, ky, M):
    """The 2x2 tensor T_ab of the 2D Dirac model, d = (kx, ky, M), over
    (kx, ky), in one broadcast call: e[c, a] is d_a d_c."""
    e = np.eye(3)[:, :2]
    return quantum_geometric_tensor((kx, ky, M), e[:, :, None], e[:, None, :])


# --- eigenstates ---

def test_spinor_norm_contract():
    d = RNG.uniform(-1, 1, (3, 50))
    for south in (True, False):
        psi = lower_band_states(d, south)
        assert psi.shape == (2, 50)
        np.testing.assert_allclose(np.sum(np.abs(psi) ** 2, axis=0), 1.0,
                                   atol=1e-12)


def test_eigenstate_planar_gauge():
    psi = lower_band_states(EX, True)
    np.testing.assert_allclose(psi, [-1 / np.sqrt(2), 1 / np.sqrt(2)],
                               atol=1e-12)


def test_eigenstate_south_pole():
    psi = lower_band_states((0.0, 0.0, -1.0), True)
    np.testing.assert_allclose(psi, [-1.0, 0.0], atol=1e-12)
    psi = lower_band_states(EZ, False)
    np.testing.assert_allclose(psi, [0.0, 1.0], atol=1e-12)


def test_eigenstate_solves_hamiltonian():
    # direct 2x2 diagonalization oracle: H psi = -|d| psi in either gauge
    d1, d2, d3 = 3.0, 4.0, 0.0
    H = np.array([[d3, d1 - 1j * d2], [d1 + 1j * d2, -d3]])
    for south in (True, False):
        psi = lower_band_states((d1, d2, d3), south)
        np.testing.assert_allclose(H @ psi, -5.0 * psi, atol=1e-10)


def test_eigenstate_errors():
    for south in (True, False):
        with pytest.raises(ZeroGap):
            lower_band_states((0.0, 0.0, 0.0), south)
    with pytest.raises(GaugeSingularity):
        lower_band_states(EZ, True)
    with pytest.raises(GaugeSingularity):
        lower_band_states((0.0, 0.0, -1.0), False)
    # one singular point fails the whole array
    with pytest.raises(GaugeSingularity):
        lower_band_states((0.0, 0.0, np.array([-1.0, 0.5, 1.0])), True)


def test_complementary_gauge_same_ray():
    # the two gauges agree up to a phase away from both poles
    d = (0.3, -0.8, 0.4)
    a = lower_band_states(d, True)
    b = lower_band_states(d, False)
    assert abs(abs(np.vdot(a, b)) - 1.0) < 1e-12


def test_lower_band_state_switches_gauge():
    # the caller switches gauge per point with a bool array; next to +z only
    # the north gauge is regular
    d = (np.array([1e-8, 1.0]), np.zeros(2), np.array([1.0, -0.5]))
    south = d[2] / np.hypot(d[0], d[2]) < GAUGE_SWITCH
    assert south.tolist() == [False, True]
    psi = lower_band_states(d, south)
    np.testing.assert_array_equal(psi[:, 0],
                                  lower_band_states((1e-8, 0.0, 1.0), False))
    np.testing.assert_array_equal(psi[:, 1],
                                  lower_band_states((1.0, 0.0, -0.5), True))
    with pytest.raises(GaugeSingularity):
        lower_band_states(d, True)


# --- Berry connection and metric, 1D Dirac ---

def test_berry_connection_values():
    assert abs(berry_connection_1d(0.0, 1.0) + 0.5) < 1e-15
    assert abs(berry_connection_1d(0.0, -1.0) - 0.5) < 1e-15
    assert abs(berry_connection_1d(1.0, 1.0) + 0.25) < 1e-15


def test_metric_1d_dirac_values():
    for k, M, want in ((0.0, 1.0, 0.25), (0.0, 2.0, 0.0625)):
        assert abs(dirac_metric_1d(k, M) - want) < 1e-14


def test_metric_equals_connection_squared_fd():
    # numeric Berry connection oracle at dk = 1e-5
    for _ in range(25):
        k, M = RNG.uniform(-2, 2), RNG.uniform(0.2, 2)
        a_fd = berry_connection_fd(lambda t: dirac_state_1d(t, M), k)
        assert abs(dirac_metric_1d(k, M) - a_fd ** 2) < 1e-6


# --- fidelity ---

def test_fidelity_overlap_trivial():
    # the lower state of -d is the upper state of d
    d = (1.0, 2.0, 0.5)
    psi = lower_band_states(d, True)
    assert abs(abs(np.vdot(psi, psi)) - 1.0) < 1e-12
    upper = lower_band_states(tuple(-c for c in d), True)
    assert abs(np.vdot(psi, upper)) < 1e-12


def test_fidelity_expansion_1d_dirac():
    dk = 1e-3
    a = dirac_state_1d(0.0, 1.0)
    b = dirac_state_1d(dk, 1.0)
    loss = 1.0 - abs(np.vdot(a, b))
    expected = dk ** 2 / 2.0 * 0.25
    assert abs(loss - expected) / expected < 0.01


def test_fidelity_susceptibility_closed_form():
    # chi_F = g_kk = M^2 / (4 (M^2 + k^2)^2), the squared Berry connection
    assert abs(dirac_metric_1d(0.0, 1.0) - 0.25) < 1e-15
    k, M = 0.7, 0.4
    want = M ** 2 / (4 * (M ** 2 + k ** 2) ** 2)
    g = dirac_metric_1d(k, M)
    assert abs(g - want) < 1e-14 * want
    assert abs(g - berry_connection_1d(k, M) ** 2) < 1e-14 * want


# --- quantum geometric tensor ---

def test_qgt_2d_dirac_origin():
    d = (0.0, 0.0, 1.0)
    assert abs(quantum_geometric_tensor(d, EX, EX) - 0.25) < 1e-12
    txy = quantum_geometric_tensor(d, EX, EY)
    # Im T_xy = -Omega/2 with Omega = 0.5 at the origin
    assert abs(txy - (0.0 - 0.25j)) < 1e-12
    assert abs(quantum_geometric_tensor(d, EY, EY) - 0.25) < 1e-12


def test_qgt_diagonal_is_real():
    d, v = RNG.uniform(-1, 1, (2, 3, 10))
    assert np.abs(quantum_geometric_tensor(d, v, v).imag).max() < 1e-12


def test_qgt_accessors():
    # the metric is the real part of the assembled tensor and the Berry
    # curvature -2 Im T_xy; an array of points gives the per-point tensors
    t = dirac_tensor_2d(0.0, 0.0, 1.0)
    assert t.shape == (2, 2)
    np.testing.assert_allclose(t.real, 0.25 * np.eye(2), atol=1e-12)
    assert abs(-2.0 * t[0, 1].imag - 0.5) < 1e-12
    d, da, db = RNG.uniform(-1, 1, (3, 3, 8))
    t = quantum_geometric_tensor(d, da, db)
    for i in range(8):
        assert t[i] == quantum_geometric_tensor(d[:, i], da[:, i], db[:, i])


def test_qgt_metric_properties_random():
    for _ in range(50):
        kx, ky, M = RNG.uniform(-2, 2, 2).tolist() + [RNG.uniform(0.2, 1.5)]
        t = dirac_tensor_2d(kx, ky, M)
        g = t.real
        np.testing.assert_allclose(g, g.T, atol=1e-12)
        assert np.linalg.eigvalsh(g).min() > -1e-10
        im = t.imag
        np.testing.assert_allclose(im, -im.T, atol=1e-12)


def test_qgt_zero_gap():
    with pytest.raises(ZeroGap):
        quantum_geometric_tensor((0.0, 0.0, 0.0), EX, EY)
    with pytest.raises(ZeroGap):
        dirac_tensor_2d(np.array([0.5, 0.0]), 0.0, 0.0)


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
    assert abs(np.linalg.det(dirac_tensor_2d(0.0, 0.0, 1.0).real)
               - 0.0625) < 1e-14
    for _ in range(50):
        kx, ky = RNG.uniform(-2, 2, 2)
        M = RNG.uniform(0.1, 2)
        det = np.linalg.det(dirac_tensor_2d(kx, ky, M).real)
        om = berry_curvature_2d_dirac(kx, ky, M)
        assert abs(det - 0.25 * om ** 2) < 1e-12


def test_divergence_exponents_at_origin():
    # log-log slopes of |A|, chi_F (1D), Omega, det g (2D) against |M|
    masses = np.logspace(-3, -1, 15)
    logm = np.log(masses)

    def slope(vals):
        return np.polyfit(logm, np.log(np.abs(vals)), 1)[0]

    a = [berry_connection_1d(0.0, m) for m in masses]
    chi = dirac_metric_1d(0.0, masses)
    om = [berry_curvature_2d_dirac(0.0, 0.0, m) for m in masses]
    det = [np.linalg.det(dirac_tensor_2d(0.0, 0.0, m).real) for m in masses]
    assert abs(slope(a) + 1.0) < 0.01
    assert abs(slope(chi) + 2.0) < 0.01
    assert abs(slope(om) + 2.0) < 0.01
    assert abs(slope(det) + 4.0) < 0.01


# --- finite-difference oracles ---

def test_qgt_finite_difference_matches_closed_form():
    for _ in range(20):
        kx, ky = RNG.uniform(-2, 2, 2)
        M = RNG.uniform(0.3, 1.5)
        t_closed = dirac_tensor_2d(kx, ky, M)
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
    a = lower_band_states((0.2, 0.9, -0.3), True)
    b = (0.5, 0.1, 0.7)
    south, north = lower_band_states(b, True), lower_band_states(b, False)
    fidelity = abs(np.vdot(a, south))
    assert abs(fidelity - abs(np.vdot(a, north))) < 1e-12
    assert abs(fidelity - abs(np.vdot(a, np.exp(1.23j) * south))) < 1e-12


# --- manifold length of the walk connection ---

def test_manifold_length_walk_classifies_sign():
    # mixed-sign connection at (pi/2, 0): length strictly exceeds |integral|
    p = WalkParams(np.pi / 2, 0.0)
    k = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    a = rotated_curvature_1d(k, p) / 2.0
    L = np.sum(np.abs(a)) * (2 * np.pi / 4096)
    winding_part = abs(np.sum(a) * (2 * np.pi / 4096))
    assert winding_part < 1e-10
    assert L > 0.5


def test_manifold_length_single_signed_equals_pi_times_invariant():
    # at beta = pi the connection is constant (-1/2): L = pi = pi |C|
    p = WalkParams(np.pi / 2, np.pi)
    k = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    a = rotated_curvature_1d(k, p) / 2.0
    L = np.sum(np.abs(a)) * (2 * np.pi / 4096)
    assert abs(L - np.pi) < 1e-10


def test_one_gap_floor_in_the_package():
    # every gap test in the package is geometry.below_gap_floor: the
    # per-module floors GAP_TOL and CRITICAL_FLOOR are gone, and only
    # geometry.py reads GAP_FLOOR, for below_gap_floor and its gauge-pole
    # test; a second floor fails here
    sources = sorted(Path(topocrit.__file__).parent.glob("*.py"))
    names = {}
    for path in sources:
        text = path.read_text()
        assert [gone for gone in ("GAP_TOL", "CRITICAL_FLOOR")
                if gone in text] == [], path.name
        names[path.name] = {
            getattr(node, "id", None) or getattr(node, "attr", None)
            or node.name for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias))}
    assert [f for f in names if "GAP_FLOOR" in names[f]] == ["geometry.py"]
    # the modules that decide a gap: the curvature routes, the peak
    # asymptotics, the invariants, the crg closed cells and the CLI profile
    for f in ("geometry.py", "walk1d.py", "walk2d.py", "invariants.py",
              "crg.py", "cli.py"):
        assert "below_gap_floor" in names[f], f
