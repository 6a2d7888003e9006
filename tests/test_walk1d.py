import numpy as np
import pytest

from topocrit import (
    AtCriticality, WalkParams, ZeroGap, energy_1d, peak_asymptotics_1d,
    rotated_curvature_1d,
)
from topocrit.geometry import lower_band_states, quantum_geometric_tensor
from topocrit.walk1d import zeta_components_1d

from oracles import (berry_connection_fd, chiral_axis, effective_hamiltonian,
                     gauge_rotation_matrix, reconstruct_unitary,
                     rotated_zeta_1d, walk_unitary)

RNG = np.random.default_rng(7)


def rotated_state(k, p):
    """Rotated-frame lower state in the gauge whose doubled Berry connection
    is the curvature function: (-|zeta'|, zeta'_x - i zeta'_y) / (sqrt(2)
    |zeta'|), the south gauge of d = (zeta'_x, -zeta'_y, 0)."""
    zx, zy = rotated_zeta_1d(k, p)
    return lower_band_states((zx, -zy, 0.0), True)


# --- protocol unitary ---

def test_unitary_identity_at_origin():
    u = walk_unitary((0.0,), 0.0, 0.0)
    np.testing.assert_allclose(u, np.eye(2), atol=1e-15)


def test_unitary_pure_shifts():
    # alpha = beta = 0: product of the two shifts, eigenphases +-k
    k = 0.73
    u = walk_unitary((k,), 0.0, 0.0)
    expect = np.diag([np.exp(1j * k), np.exp(-1j * k)])
    np.testing.assert_allclose(u, expect, atol=1e-14)
    e = energy_1d(k, WalkParams(0.0, 0.0))
    assert abs(e - abs(k)) < 1e-12


def test_unitary_trace_identity():
    k, a, b = RNG.uniform(-np.pi, np.pi, (50, 3)).T * 1.7
    u = walk_unitary((k,), a, b)
    lhs = np.trace(u, axis1=-2, axis2=-1).real / 2
    rhs = (np.cos(a / 2) * np.cos(b / 2) * np.cos(k)
           - np.sin(a / 2) * np.sin(b / 2))
    assert np.abs(lhs - rhs).max() < 1e-12


def test_unitarity_and_periodicity():
    k, a, b = RNG.uniform(-6, 6, (50, 3)).T
    u = walk_unitary((k,), a, b)
    assert np.abs(u @ u.conj().swapaxes(-1, -2) - np.eye(2)).max() < 1e-12
    u2 = walk_unitary((k + 2 * np.pi,), a, b)
    u3 = walk_unitary((k,), a + 2 * np.pi, b + 2 * np.pi)
    assert np.abs(u - u2).max() < 1e-12
    assert np.abs(u - u3).max() < 1e-12


# --- effective Hamiltonian ---

def test_effective_hamiltonian_single_rotation():
    sy = np.array([[0, -1j], [1j, 0]])
    u = np.cos(np.pi / 4) * np.eye(2) - 1j * np.sin(np.pi / 4) * sy
    e, n = effective_hamiltonian(u)
    assert abs(e - np.pi / 4) < 1e-12
    np.testing.assert_allclose(n, [0, 1, 0], atol=1e-12)


def test_effective_hamiltonian_round_trip():
    k, a, b = RNG.uniform(-np.pi, np.pi, (30, 3)).T
    u = walk_unitary((k,), a, b)
    e, n = effective_hamiltonian(u)
    # the axis is NaN at a band touching, where it is undefined
    keep = ~np.isnan(n[:, 0])
    assert np.all((0.0 <= e[keep]) & (e[keep] <= np.pi))
    assert np.abs(np.linalg.norm(n[keep], axis=1) - 1.0).max() < 1e-10
    np.testing.assert_allclose(reconstruct_unitary(e, n)[keep], u[keep],
                               atol=1e-10)


# --- bands and axis ---

def test_energy_values():
    assert abs(energy_1d(0.0, WalkParams(np.pi / 2, 0.0)) - np.pi / 4) < 1e-12
    assert abs(energy_1d(0.0, WalkParams(0.0, 0.0))) < 1e-12
    assert abs(energy_1d(np.pi, WalkParams(0.0, 0.0)) - np.pi) < 1e-12


def test_zeta_values():
    z = zeta_components_1d(0.0, WalkParams(1.1, 0.0))
    np.testing.assert_allclose(z, [0.0, np.sin(0.55), 0.0], atol=1e-14)
    # kappa_alpha = 0 at alpha = pi kills x and z components
    z = zeta_components_1d(0.8, WalkParams(np.pi, 0.6))
    np.testing.assert_allclose(z, [0.0, np.cos(0.3), 0.0], atol=1e-14)


def test_zeta_norm_is_sin_energy():
    k = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    for _ in range(10):
        a, b = RNG.uniform(-np.pi, np.pi, 2)
        p = WalkParams(a, b)
        zx, zy, zz = zeta_components_1d(k, p)
        norm = np.sqrt(zx ** 2 + zy ** 2 + zz ** 2)
        np.testing.assert_allclose(norm, np.sin(energy_1d(k, p)), atol=1e-10)


def test_zeta_parallel_to_axis():
    k, a, b = RNG.uniform(-np.pi, np.pi, (20, 3)).T
    z = np.array([zeta_components_1d(q, WalkParams(x, y))
                  for q, x, y in zip(k, a, b)])
    norm = np.linalg.norm(z, axis=1, keepdims=True)
    keep = norm[:, 0] >= 1e-3
    _, n = effective_hamiltonian(walk_unitary((k,), a, b))
    np.testing.assert_allclose((z / norm)[keep], n[keep], atol=1e-8)


# --- curvature function ---

def test_curvature_value_at_example_point():
    f = rotated_curvature_1d(0.0, WalkParams(np.pi / 2, 0.0))
    assert abs(f + 1.0) < 1e-12


def test_curvature_zero_when_alpha_pi():
    # kappa_alpha = 0 zeroes the numerator
    assert abs(rotated_curvature_1d(np.pi / 2, WalkParams(np.pi, 0.4))) < 1e-14


def test_curvature_even_about_hsps():
    p = WalkParams(0.9, 0.3)
    for kc in (0.0, np.pi):
        for d in (0.1, 0.3, 0.7):
            assert abs(rotated_curvature_1d(kc + d, p)
                       - rotated_curvature_1d(kc - d, p)) < 1e-12


def test_curvature_equals_rotated_form():
    # the defining form F = (n x d_k n) . A = (zeta x d_k zeta) . A / |zeta|^2
    # with d_k zeta = kap_a (lam_b cos k, -lam_b sin k, -kap_b cos k)
    for _ in range(100):
        k, a, b = RNG.uniform(-np.pi, np.pi, 3) * 1.3
        p = WalkParams(a, b)
        zx, zy = rotated_zeta_1d(k, p)
        if np.hypot(zx, zy) < 1e-6:
            continue
        ka, kb, lb = np.cos(a / 2), np.cos(b / 2), np.sin(b / 2)
        z = np.array(zeta_components_1d(k, p))
        dz = ka * np.array([lb * np.cos(k), -lb * np.sin(k), -kb * np.cos(k)])
        f = np.cross(z, dz) @ chiral_axis(p) / (z @ z)
        f_rot = rotated_curvature_1d(k, p)
        assert abs(f - f_rot) < 1e-12 * max(1.0, abs(f_rot))


def test_rotated_curvature_at_pi():
    # F'(pi) = +cot(alpha/2) at beta = 0
    assert abs(rotated_curvature_1d(np.pi, WalkParams(np.pi / 2, 0.0)) - 1.0) < 1e-12


def test_gauge_rotation_kills_z():
    for _ in range(20):
        k, a, b = RNG.uniform(-np.pi, np.pi, 3)
        p = WalkParams(a, b)
        rot = gauge_rotation_matrix(p)
        z_rot = rot @ zeta_components_1d(k, p)
        assert abs(z_rot[2]) < 1e-14
        zx, zy = rotated_zeta_1d(k, p)
        np.testing.assert_allclose(z_rot[:2], [zx, zy], atol=1e-12)
        a_rot = rot @ chiral_axis(p)
        np.testing.assert_allclose(a_rot, [0, 0, 1], atol=1e-12)


def test_curvature_is_doubled_berry_connection():
    p = WalkParams(1.1, 0.4)
    for k in np.linspace(0, 2 * np.pi, 17):
        state = lambda t: rotated_state(t, p)
        a_fd = berry_connection_fd(state, float(k))
        assert abs(2 * a_fd - rotated_curvature_1d(float(k), p)) < 1e-6


def test_metric_is_quarter_curvature_squared():
    # the axis stays on the great circle normal to A, so the quantum metric
    # of the axis field is g_kk = F^2 / 4; d_k zeta by central differences
    rng = np.random.default_rng(2000)
    h = 1e-5
    for _ in range(10):
        p = WalkParams(*rng.uniform(-np.pi, np.pi, 2))
        k = rng.uniform(-np.pi, np.pi, 200)
        k = k[np.hypot(*rotated_zeta_1d(k, p)) > 0.05]
        dz = [(u - v) / (2 * h) for u, v in zip(zeta_components_1d(k + h, p),
                                                zeta_components_1d(k - h, p))]
        g = quantum_geometric_tensor(zeta_components_1d(k, p), dz, dz).real
        f = rotated_curvature_1d(k, p)
        np.testing.assert_allclose(g, f ** 2 / 4, rtol=1e-6)


def test_flat_band_never_silent_nan():
    # alpha = pi gives a flat band; curvature must be finite there
    for k in np.linspace(0, 2 * np.pi, 7):
        f = rotated_curvature_1d(float(k), WalkParams(np.pi, 0.7))
        assert np.isfinite(f)
    for k in (0.3, 2.2):
        f = rotated_curvature_1d(k, WalkParams(0.9, np.pi))
        assert np.isfinite(f)


# --- peak asymptotics ---

def test_peak_values_at_example():
    fp, xi2 = peak_asymptotics_1d(WalkParams(np.pi / 2, 0.0), 0.0)
    assert abs(fp + 1.0) < 1e-12
    assert abs(xi2 - 1.5) < 1e-12


def test_peak_matches_curvature_at_kc():
    for _ in range(30):
        a, b = RNG.uniform(-np.pi, np.pi, 2)
        p = WalkParams(a, b)
        for kc in (0.0, np.pi):
            try:
                fp, _ = peak_asymptotics_1d(p, kc)
            except AtCriticality:
                continue
            f = rotated_curvature_1d(kc, p)
            assert abs(fp - f) < 1e-12 * max(1, abs(fp))
    # next to the gap line that closes at k_c the closed form keeps the
    # gap's precision: alpha = -beta + eps at k_c = 0, +beta + eps at pi
    for b in (0.37, -1.2, 2.5):
        for eps in (1e-9, 1e-7, 1e-5):
            for kc, sign in ((0.0, -1.0), (np.pi, 1.0)):
                p = WalkParams(sign * b + eps, b)
                fp, _ = peak_asymptotics_1d(p, kc)
                f = rotated_curvature_1d(kc, p)
                assert abs(fp - f) < 1e-6 * abs(fp), (b, eps, kc)


@pytest.mark.parametrize("b", [0.0, 0.37, -1.2, 2.5])
def test_peak_gap_test_is_the_curvature_gap_test(b):
    # lam_(a+-b) is |zeta(k_c)|, so the peak asymptotics are critical
    # exactly where the curvature at k_c closes the gap: on the locus and
    # within 1e-15 of it, and at neither 1e-13 nor 1e-11 from it
    for kc, sign in ((0.0, -1.0), (np.pi, 1.0)):
        for d in (0.0, 1e-15, -1e-15, 1e-13, -1e-13, 1e-11, -1e-11):
            p = WalkParams(sign * b + d, b)
            try:
                peak_asymptotics_1d(p, kc)
                critical = False
            except AtCriticality:
                critical = True
            try:
                rotated_curvature_1d(kc, p)
                closed = False
            except ZeroGap:
                closed = True
            assert critical == closed == (abs(d) < 1e-14), (kc, d)


def test_peak_scaling_exponents():
    eps = np.logspace(-3, -1, 12)
    fp = [abs(peak_asymptotics_1d(WalkParams(e, 0.0), 0.0)[0]) for e in eps]
    xi = [np.sqrt(peak_asymptotics_1d(WalkParams(e, 0.0), 0.0)[1]) for e in eps]
    g = -np.polyfit(np.log(eps), np.log(fp), 1)[0]
    n = -np.polyfit(np.log(eps), np.log(xi), 1)[0]
    assert abs(g - 1.0) < 0.02
    assert abs(n - 1.0) < 0.02


def test_peak_at_criticality_raises():
    with pytest.raises(AtCriticality):
        peak_asymptotics_1d(WalkParams(0.8, 0.8), np.pi)


def test_critical_flip_ratio():
    eps = 1e-3
    r = (rotated_curvature_1d(0.0, WalkParams(-eps, 0.0))
         / rotated_curvature_1d(0.0, WalkParams(+eps, 0.0)))
    assert abs(r + 1.0) < 0.01


def test_params_reduced_range():
    p = WalkParams(3 * np.pi, -2.5 * np.pi).reduced()
    assert -np.pi < p.alpha <= np.pi
    assert -np.pi < p.beta <= np.pi
    assert abs(energy_1d(0.4, p) - energy_1d(0.4, WalkParams(3 * np.pi, -2.5 * np.pi))) < 1e-12
    with pytest.raises(ValueError):
        WalkParams(np.nan, 0.0)
