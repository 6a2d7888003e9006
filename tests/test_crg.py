import math

import numpy as np
import pytest

from topocrit import WalkParams
from topocrit.crg import (FlowField, _hsp_key, detect_critical_lines,
                          flow_field, rg_step, walk_curvature_callback)
from topocrit.models import WALK_1D, WALK_2D
from topocrit.walk1d import rotated_curvature_1d

RNG = np.random.default_rng(19)


def wrap(x):
    return np.angle(np.exp(1j * np.asarray(x)))


def derivative_form_1d(k0, a, b, axis):
    """Oracle: (1/2) d^2_k F / d_M F from tight central differences."""
    h = 1e-4
    d2k = (rotated_curvature_1d(k0 + h, WalkParams(a, b))
           - 2 * rotated_curvature_1d(k0, WalkParams(a, b))
           + rotated_curvature_1d(k0 - h, WalkParams(a, b))) / h ** 2
    hm = 1e-6
    if axis == 0:
        dm = (rotated_curvature_1d(k0, WalkParams(a + hm, b))
              - rotated_curvature_1d(k0, WalkParams(a - hm, b))) / (2 * hm)
    else:
        dm = (rotated_curvature_1d(k0, WalkParams(a, b + hm))
              - rotated_curvature_1d(k0, WalkParams(a, b - hm))) / (2 * hm)
    return 0.5 * d2k / dm


# --- rg_step ---

def test_rg_step_fixed_point():
    step = rg_step(lambda k, M: 1.0 + M[0] ** 2, 0.0, 1.0, (0.5, 0.2))
    assert step == 0.0


def test_rg_step_flat_parameter_response():
    step = rg_step(lambda k, M: np.cos(k), 0.3, 1.0, (0.5, 0.2))
    assert math.isinf(step)


def test_rg_step_matches_derivative_form():
    f = walk_curvature_callback(WALK_1D)
    step = rg_step(f, 0.0, 1.0, (1.0, 0.5), dk=1e-2, dM=1e-3, axis=0)
    oracle = derivative_form_1d(0.0, 1.0, 0.5, axis=0)
    assert abs(step - oracle) / abs(oracle) < 0.01


def test_rg_step_convergence_order():
    # error O(dk^2) once dM is tied to dk^2
    f = walk_curvature_callback(WALK_1D)
    orders = []
    count = 0
    while count < 5:
        a, b = RNG.uniform(-3, 3, 2)
        if min(abs(np.sin((a + b) / 2)), abs(np.sin((a - b) / 2))) < 0.2:
            continue
        count += 1
        oracle = derivative_form_1d(0.0, a, b, axis=0)
        errs = []
        for n in range(2):
            dk = 1e-2 / 2 ** n
            dm = 1e-3 / 4 ** n
            errs.append(abs(rg_step(f, 0.0, 1.0, (a, b), dk=dk, dM=dm) - oracle))
        orders.append(np.log2(errs[0] / errs[1]))
    assert min(orders) >= 1.8


# --- flow_field ---

def test_flow_field_shapes_and_channels():
    field = flow_field(WALK_1D, grid=64)
    assert len(field.hsps) == 2
    for hsp in field.hsps:
        key = (float(hsp),)
        assert field.rate[key].shape == (64, 64)
        assert field.log_rate[key].shape == (64, 64)
        assert field.diverged[key].dtype == bool
    s = field.sample(field.hsps[0], 3, 5)
    assert s.alpha == pytest.approx(field.alphas[3])
    assert s.beta == pytest.approx(field.betas[5])


def test_flow_field_divergence_clusters_on_critical_lines():
    field = flow_field(WALK_1D, grid=128)
    cell = field.cell
    lines = detect_critical_lines(field, rate_threshold=30.0)
    assert lines
    for line in lines:
        a = line.vertices[:, 0]
        b = line.vertices[:, 1]
        dist = np.minimum(np.abs(wrap(a + b)), np.abs(wrap(a - b)))
        assert dist.max() <= cell + 1e-12


def test_flow_field_families_split_by_hsp():
    field = flow_field(WALK_1D, grid=128)
    lines = detect_critical_lines(field, rate_threshold=30.0)
    # k0 = 0 detects the alpha + beta = 0 family, k0 = pi the other
    for line in lines:
        a, b = line.vertices[:, 0], line.vertices[:, 1]
        if line.hsp == (0.0,):
            assert np.abs(wrap(a + b)).max() <= field.cell + 1e-12
        else:
            assert np.abs(wrap(a - b)).max() <= field.cell + 1e-12


@pytest.mark.parametrize("model", [WALK_1D, WALK_2D], ids=["walk1d", "walk2d"])
def test_rg_step_is_the_oracle_of_flow_field(model):
    # the scalar rg_step on the curvature callback recomputes finite,
    # non-diverged cells of the array flow field; the strided set starts
    # past the gapless (-pi, -pi) corner, where the callback raises ZeroGap
    field = flow_field(model, grid=64)
    f = walk_curvature_callback(model)
    for hsp in field.hsps:
        key = _hsp_key(hsp)
        cells = np.argwhere(~field.diverged[key])
        assert len(cells) > 100
        stride = len(cells) // 12
        for i, j in cells[stride // 2::stride]:
            M = (field.alphas[i], field.betas[j])
            for axis, flow in enumerate((field.dalpha, field.dbeta)):
                step = rg_step(f, hsp, field.ks, M, field.dk, field.dM,
                               axis=axis)
                assert abs(step - flow[key][i, j]) <= 1e-9 * abs(step)


def test_flow_direction_reverses_across_line():
    f = walk_curvature_callback(WALK_1D)
    b = 1.0
    down = rg_step(f, 0.0, 1.0, (-b - 0.1, b))
    up = rg_step(f, 0.0, 1.0, (-b + 0.1, b))
    assert np.sign(down) != np.sign(up)


def test_flow_rate_roughly_even_about_line():
    f = walk_curvature_callback(WALK_1D)
    b = 1.0
    cell = 2 * np.pi / 128
    for d in (cell, 2 * cell, 3 * cell):
        lo = abs(rg_step(f, 0.0, 1.0, (-b - d, b)))
        hi = abs(rg_step(f, 0.0, 1.0, (-b + d, b)))
        assert abs(lo - hi) / max(lo, hi) < 0.2


def test_flow_field_2d_lines_near_loci():
    field = flow_field(WALK_2D, grid=128)
    cell = field.cell
    lines = detect_critical_lines(field, rate_threshold=30.0)
    assert lines

    def wrap_pi(x):
        return np.abs(x - np.pi * np.round(x / np.pi))

    for line in lines:
        a, b = line.vertices[:, 0], line.vertices[:, 1]
        dist = np.minimum(np.abs(wrap(a)),
                          np.minimum(wrap_pi(a / 2 + b) / np.sqrt(1.25),
                                     wrap_pi(a / 2 - b) / np.sqrt(1.25)))
        assert dist.max() <= cell + 1e-12


# --- detect_critical_lines ---

def _synthetic_field(grid=64):
    axes = np.linspace(-np.pi, np.pi, grid, endpoint=False)
    A, B = np.meshgrid(axes, axes, indexing="ij")
    field = FlowField(axes, axes.copy(), [(0.0,)], 1.0, 1e-2, 1e-3, 1e3)
    dist = np.abs(wrap(A - B))
    spike = 1.0 / (dist + 1e-3)
    key = (0.0,)
    field.dalpha[key] = spike
    field.dbeta[key] = spike
    field.rate[key] = np.hypot(spike, spike)
    field.log_rate[key] = np.log10(field.rate[key])
    field.diverged[key] = field.rate[key] > 1e3
    field.peak_height[key] = spike
    field.scaling_response[key] = spike
    return field


def test_detect_synthetic_spike_line():
    field = _synthetic_field()
    lines = detect_critical_lines(field, rate_threshold=50.0)
    assert len(lines) == 1
    a, b = lines[0].vertices[:, 0], lines[0].vertices[:, 1]
    assert np.abs(wrap(a - b)).max() <= field.cell + 1e-12


def test_detect_threshold_robustness():
    field = flow_field(WALK_1D, grid=128)
    lo = detect_critical_lines(field, rate_threshold=30.0)
    hi = detect_critical_lines(field, rate_threshold=300.0)
    assert hi  # something survives a tenfold threshold increase

    def vert_map(lines):
        out = {}
        for line in lines:
            for a, b in line.vertices:
                out[(line.hsp, round(b, 9))] = a
        return out

    lo_map, hi_map = vert_map(lo), vert_map(hi)
    shared = set(lo_map) & set(hi_map)
    assert shared
    cell = field.cell
    for key in shared:
        assert abs(lo_map[key] - hi_map[key]) <= cell + 1e-12
