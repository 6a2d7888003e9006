import numpy as np
import pytest

from topocrit import AtCriticality, WalkParams, ZeroGap, peak_asymptotics_2d
from topocrit.geometry import lower_band_states, quantum_geometric_tensor
from topocrit.models import WALK_2D
from topocrit.walk2d import (PEAK_KX, curvature_grid_2d, energy_grid_2d,
                             min_gap_2d, rho_2d, zeta_components_2d)

from oracles import (berry_curvature_fd, effective_hamiltonian,
                     reconstruct_unitary, walk_unitary)

RNG = np.random.default_rng(11)


# --- protocol unitary ---

def test_unitary_pure_shift_limit():
    kx, ky = RNG.uniform(-np.pi, np.pi, (10, 2)).T
    u = walk_unitary((kx, ky), 0.0, 0.0)
    phase = np.exp(2j * (kx + ky))
    expect = np.zeros_like(u)
    expect[:, 0, 0], expect[:, 1, 1] = phase, phase.conj()
    np.testing.assert_allclose(u, expect, atol=1e-13)


def test_unitary_trace_identity():
    kx, ky, a, b = RNG.uniform(-2 * np.pi, 2 * np.pi, (60, 4)).T
    u = walk_unitary((kx, ky), a, b)
    rho = [rho_2d(x, y, WalkParams(*ab)) for x, y, *ab in zip(kx, ky, a, b)]
    assert np.abs(np.trace(u, axis1=-2, axis2=-1).real / 2 - rho).max() < 1e-12


def test_unitarity_and_periodicity():
    kx, ky, a, b = RNG.uniform(-5, 5, (30, 4)).T
    u = walk_unitary((kx, ky), a, b)
    assert np.abs(u @ u.conj().swapaxes(-1, -2) - np.eye(2)).max() < 1e-12
    u2 = walk_unitary((kx + 2 * np.pi, ky), a, b)
    u3 = walk_unitary((kx, ky + 2 * np.pi), a, b)
    assert np.abs(u - u2).max() < 1e-12
    assert np.abs(u - u3).max() < 1e-12


def test_effective_hamiltonian_round_trip():
    kx, ky, a, b = RNG.uniform(-np.pi, np.pi, (30, 4)).T
    u = walk_unitary((kx, ky), a, b)
    z = np.array([zeta_components_2d(x, y, WalkParams(*ab))
                  for x, y, *ab in zip(kx, ky, a, b)])
    norm = np.linalg.norm(z, axis=1, keepdims=True)
    keep = norm[:, 0] >= 1e-3
    e, n = effective_hamiltonian(u)
    np.testing.assert_allclose(reconstruct_unitary(e, n)[keep], u[keep],
                               atol=1e-10)
    np.testing.assert_allclose((z / norm)[keep], n[keep], atol=1e-8)


# --- bands and axis ---

def test_energy_gap_closes_on_slice():
    e = energy_grid_2d(np.pi / 2, -np.pi / 2, WalkParams(0.0, np.pi / 2))
    assert e < 1e-12


def test_energy_trivial_point():
    assert energy_grid_2d(0.0, 0.0, WalkParams(0.0, 0.0)) < 1e-12


def test_zeta_norm_matches_rho():
    for _ in range(50):
        kx, ky, a, b = RNG.uniform(-2 * np.pi, 2 * np.pi, 4)
        p = WalkParams(a, b)
        zx, zy, zz = zeta_components_2d(kx, ky, p)
        r = rho_2d(kx, ky, p)
        assert abs(zx ** 2 + zy ** 2 + zz ** 2 - (1 - r ** 2)) < 1e-10


def test_zeta_special_limits():
    for _ in range(10):
        kx, ky = RNG.uniform(-np.pi, np.pi, 2)
        z = zeta_components_2d(kx, ky, WalkParams(0.0, 0.0))
        np.testing.assert_allclose(
            z, [0.0, 0.0, -np.sin(2 * (kx + ky))], atol=1e-14)
        zx, _, _ = zeta_components_2d(0.0, ky, WalkParams(0.7, 1.2))
        assert abs(zx) < 1e-14


# --- curvature function ---

def test_curvature_matches_doubled_berry_curvature():
    # stroboscopic lower-band curvature oracle, gauge fixed per stencil
    p = WalkParams(np.pi / 3, np.pi / 2)
    k = np.linspace(0, 2 * np.pi, 8, endpoint=False)
    for kx in k:
        for ky in k:
            zx, zy, zz = zeta_components_2d(kx, ky, p)
            zn = np.sqrt(zx * zx + zy * zy + zz * zz)
            if zn < 1e-3:
                continue
            south = (zz / zn) < 0.5
            state = lambda x, y: lower_band_states(
                zeta_components_2d(x, y, p), south)
            om = berry_curvature_fd(state, float(kx), float(ky))
            f = float(curvature_grid_2d(kx, ky, p))
            assert abs(f - 2 * om) < 1e-5


def test_metric_determinant_and_curvature_from_qgt():
    # sqrt(det g) = |F| / 4 and -2 Im T_xy = F / 2 for the axis field, with
    # d zeta by central differences
    rng = np.random.default_rng(2001)
    h = 1e-5

    def d_zeta(kx, ky, p, ux, uy):
        plus = zeta_components_2d(kx + h * ux, ky + h * uy, p)
        minus = zeta_components_2d(kx - h * ux, ky - h * uy, p)
        return [(u - v) / (2 * h) for u, v in zip(plus, minus)]

    for _ in range(10):
        p = WalkParams(*rng.uniform(-np.pi, np.pi, 2))
        kx, ky = rng.uniform(0, 2 * np.pi, (2, 200))
        z = zeta_components_2d(kx, ky, p)
        keep = np.sqrt(sum(c * c for c in z)) > 0.05
        kx, ky, z = kx[keep], ky[keep], [c[keep] for c in z]
        dx, dy = d_zeta(kx, ky, p, 1, 0), d_zeta(kx, ky, p, 0, 1)
        txx = quantum_geometric_tensor(z, dx, dx).real
        tyy = quantum_geometric_tensor(z, dy, dy).real
        txy = quantum_geometric_tensor(z, dx, dy)
        f = curvature_grid_2d(kx, ky, p)
        np.testing.assert_allclose(np.sqrt(txx * tyy - txy.real ** 2),
                                   np.abs(f) / 4, rtol=1e-6)
        np.testing.assert_allclose(-2 * txy.imag, f / 2, rtol=1e-6)


def test_curvature_sign_flip_across_critical_alpha():
    eps = 1e-3
    q = (np.pi / 2, -np.pi / 2)
    r = (curvature_grid_2d(*q, WalkParams(-eps, np.pi / 2))
         / curvature_grid_2d(*q, WalkParams(+eps, np.pi / 2)))
    assert abs(r + 1.0) < 0.01


def test_curvature_even_along_slice():
    p = WalkParams(0.4, np.pi / 2)
    for d in (0.05, 0.2, 0.6):
        fp = WALK_2D.peak_profile(WALK_2D.slice_peak(), np.array([+d]), p)[0]
        fm = WALK_2D.peak_profile(WALK_2D.slice_peak(), np.array([-d]), p)[0]
        assert abs(fp - fm) < 1e-10


def test_curvature_raises_on_closed_gap():
    with pytest.raises(ZeroGap):
        curvature_grid_2d(np.pi / 2, -np.pi / 2, WalkParams(0.0, np.pi / 2))


# --- peak asymptotics ---

def test_peak_value_example():
    fp, _ = peak_asymptotics_2d(WalkParams(0.1, np.pi / 2))
    assert abs(fp + 838.6336612) < 1e-4


def test_peak_matches_curvature_exactly():
    for a in (-2.5, -0.3, -0.1, 0.1, 0.3, 1.0, 2.9):
        for b in (0.4, np.pi / 2, 2.0):
            fp, _ = peak_asymptotics_2d(WalkParams(a, b))
            fc = WALK_2D.peak_profile(WALK_2D.slice_peak(), [0.0],
                                      WalkParams(a, b))[0]
            assert abs(fp - fc) < 1e-10 * max(1.0, abs(fc))


@pytest.mark.parametrize("alpha", [1e-4, 1e-5, 2e-6, 1e-6])
def test_peak_keeps_its_precision_at_small_alpha(alpha):
    # 1 - cos alpha cancels as alpha -> 0; written 2 lam_a^2 it does not,
    # and the gap |lam_a| at the peak stays open down to the gap floor
    p = WalkParams(alpha, np.pi / 2)
    fp, _ = peak_asymptotics_2d(p)
    fc = curvature_grid_2d(np.array([np.pi / 2]), np.array([-np.pi / 2]),
                           p)[0]
    assert abs(fp - fc) < 1e-12 * abs(fc)


def test_peak_scaling_exponents():
    eps = np.logspace(-3, -1, 12)
    fp = [abs(peak_asymptotics_2d(WalkParams(e, np.pi / 2))[0]) for e in eps]
    xi = [np.sqrt(abs(peak_asymptotics_2d(WalkParams(e, np.pi / 2))[1]))
          for e in eps]
    g = -np.polyfit(np.log(eps), np.log(fp), 1)[0]
    n = -np.polyfit(np.log(eps), np.log(xi), 1)[0]
    assert abs(g - 2.0) < 0.05
    assert abs(n - 1.0) < 0.05


def test_peak_magnitude_continuous_across_alpha_pi():
    d = 1e-4
    fm, _ = peak_asymptotics_2d(WalkParams(np.pi - d, np.pi / 2))
    fp, _ = peak_asymptotics_2d(WalkParams(np.pi + d, np.pi / 2))
    assert abs(abs(fm) - abs(fp)) < 1e-3 * max(abs(fm), 1e-12) + 1e-6


def test_peak_at_criticality_raises():
    with pytest.raises(AtCriticality):
        peak_asymptotics_2d(WalkParams(0.0, np.pi / 2))


def test_gap_closes_only_at_alpha_zero_on_slice():
    assert min_gap_2d(WalkParams(0.0, np.pi / 2)) < 1e-6
    assert min_gap_2d(WalkParams(0.5, np.pi / 2)) > 0.1


def test_axis_slice_profiles_share_peak_value():
    # same center value along either axis; the widths differ (the peak is an
    # anisotropic, tilted Lorentzian), with the y width the larger one
    p = WalkParams(0.3, np.pi / 2)

    def along(ux, uy, d):
        d = np.array([d])
        return curvature_grid_2d(PEAK_KX + ux * d, -PEAK_KX + uy * d, p)[0]

    fx0 = along(1.0, 0.0, 0.0)
    fy0 = along(0.0, 1.0, 0.0)
    assert abs(fx0 - fy0) < 1e-12
    d = 0.02
    wing_x = along(1.0, 0.0, d)
    wing_y = along(0.0, 1.0, d)
    assert abs(wing_y) < abs(wing_x) < abs(fx0)
