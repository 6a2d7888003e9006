import gc

import numpy as np
import pytest

from topocrit import WalkParams, ZeroGap
from topocrit.errors import OracleMismatch, QuantizationFailure
from topocrit.invariants import (GAP_TOL, WINDING_BLOCK_POINTS,
                                 _circle_trig, _quantize, _zone_trig,
                                 chern_number_2d, chern_plaquette,
                                 winding_number_1d, winding_numbers_1d)
from topocrit.geometry import manifold_area_2d, manifold_length_1d
from topocrit.walk1d import rotated_curvature_1d
from topocrit.walk2d import (_curvature_raw_2d, curvature_grid_2d,
                             zeta_components_2d)


# --- 1D winding ---

def test_winding_quantized_and_frozen_values():
    # phase-diagram fixtures: trivial outside |tan(a/2)| < |tan(b/2)|,
    # winding -sgn(sin(b/2)) inside
    cases = {
        (np.pi / 2, 0.0): 0,
        (np.pi / 2, np.pi): -1,
        (0.8, 1.0): -1,
        (1.2, 1.0): 0,
        (-0.8, -1.0): 1,
        (0.5, 2.0): -1,
    }
    for (a, b), want in cases.items():
        res = winding_number_1d(WalkParams(a, b))
        assert res.rounded == want
        assert res.defect < 1e-6


def test_winding_jump_across_generic_boundary():
    # crossing alpha = beta at beta = 1 flips the invariant by one
    lo = winding_number_1d(WalkParams(0.85, 1.0)).rounded
    hi = winding_number_1d(WalkParams(1.15, 1.0)).rounded
    assert hi - lo == 1


def test_winding_no_jump_across_multicritical_origin():
    # at beta = 0 the k = 0 and k = pi channels close together and their
    # half-integer flips cancel: the winding stays 0 on both sides
    lo = winding_number_1d(WalkParams(-0.3, 0.0)).rounded
    hi = winding_number_1d(WalkParams(+0.3, 0.0)).rounded
    assert lo == hi == 0


def test_winding_grid_doubling_stable():
    for n in (2048, 4096):
        assert winding_number_1d(WalkParams(0.8, 1.0), n).rounded == -1


def test_winding_zero_gap():
    with pytest.raises(ZeroGap):
        winding_number_1d(WalkParams(0.0, 0.0))


def test_winding_quantization_failure_on_coarse_grid():
    with pytest.raises(QuantizationFailure):
        winding_number_1d(WalkParams(1.0 + 1e-4, 1.0), n_grid=64)


def _one_cell(p, n):
    try:
        return winding_number_1d(p, n)
    except (ZeroGap, QuantizationFailure) as exc:
        return exc


@pytest.mark.parametrize("n, want", [
    (8, {"InvariantResult", "ZeroGap", "QuantizationFailure"}),
    (600, {"InvariantResult", "ZeroGap"}),
    (4096, {"InvariantResult", "ZeroGap"}),
])
def test_winding_row_matches_one_cell_calls(n, want):
    # an alpha row of the 40 x 40 phase diagram: alpha = +-beta cells close
    # the gap on the grid and inner grid 8 is too coarse to quantize; at
    # the larger inner grids the row spans several blocks, at 600 with a
    # partial last block
    axes = np.linspace(-np.pi, np.pi, 40).tolist()
    row = [WalkParams(axes[25], b) for b in axes]
    if n > 8:
        assert len(row) * n > 2 * WINDING_BLOCK_POINTS
    got = winding_numbers_1d(row, n)
    assert len(got) == len(row)
    assert {type(r).__name__ for r in got} == want
    for p, res in zip(row, got):
        ref = _one_cell(p, n)
        assert type(res) is type(ref)
        if not isinstance(ref, Exception):
            assert res.raw == ref.raw
            assert (res.rounded, res.defect, res.grid) == (
                ref.rounded, ref.defect, ref.grid)


def test_winding_failures_leave_no_reference_cycles():
    # a raised exception whose traceback frame still holds it is garbage
    # only the cyclic collector can free
    gc.collect()
    gc.disable()
    try:
        for p, n in ((WalkParams(0.0, 0.0), 64),
                     (WalkParams(1.0 + 1e-4, 1.0), 64)):
            with pytest.raises((ZeroGap, QuantizationFailure)):
                winding_number_1d(p, n)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_circle_trig_memo_is_read_only():
    for n in (8, 97):
        for term in _circle_trig(n):
            assert not term.flags.writeable
            with pytest.raises(ValueError):
                term[0] = 0.0


# --- 2D invariant ---

def test_chern_quantized_with_oracle():
    res = chern_number_2d(WalkParams(np.pi / 2, np.pi / 2))
    assert res.rounded == -4
    assert res.defect < 1e-3
    assert chern_plaquette(WalkParams(np.pi / 2, np.pi / 2)).rounded == -4


def test_chern_jump_across_alpha_zero():
    plus = chern_number_2d(WalkParams(+0.3, np.pi / 2)).rounded
    minus = chern_number_2d(WalkParams(-0.3, np.pi / 2)).rounded
    assert plus == -4 and minus == 4
    assert plus - minus != 0


def test_chern_trivial_region():
    res = chern_number_2d(WalkParams(1.0, 0.3))
    assert res.rounded == 0


def test_chern_grid_doubling_stable():
    for n in (128, 256):
        assert chern_number_2d(WalkParams(0.5, 1.0), n).rounded == -4


def test_chern_zero_gap():
    with pytest.raises(ZeroGap):
        chern_number_2d(WalkParams(0.0, np.pi / 2))


# --- fused torus path against a full-zone reference ---

def full_zone_reference(p, n):
    """Curvature integral and plaquette total on the whole [0, 2 pi)^2 grid,
    each over its own zeta evaluation, as (integral, plaquette)."""
    k = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    zx, zy, zz = zeta_components_2d(kx, ky, p)
    if np.min(zx * zx + zy * zy + zz * zz) < GAP_TOL ** 2:
        raise ZeroGap("gap closed on the reference grid")
    integral = np.sum(curvature_grid_2d(kx, ky, p)) * (2 * np.pi / n) ** 2 / (4 * np.pi)
    zn = np.sqrt(zx * zx + zy * zy + zz * zz)
    nx, ny, nz = zx / zn, zy / zn, zz / zn
    south = nz < 0.5
    up = np.where(south, nz - 1.0, -(nx - 1j * ny))
    dn = np.where(south, nx + 1j * ny, 1.0 + nz)
    norm = np.sqrt(np.abs(up) ** 2 + np.abs(dn) ** 2)
    up, dn = up / norm, dn / norm
    ux = np.conj(up) * np.roll(up, -1, 0) + np.conj(dn) * np.roll(dn, -1, 0)
    uy = np.conj(up) * np.roll(up, -1, 1) + np.conj(dn) * np.roll(dn, -1, 1)
    plaq = ux * np.roll(uy, -1, 0) * np.conj(np.roll(ux, -1, 1)) * np.conj(uy)
    return float(integral), float(-np.angle(plaq).sum() / (2 * np.pi))


def reference_chern(p, n):
    """chern_number_2d's checks, in its order, on the full-zone reference."""
    integral, plaquette = full_zone_reference(p, n)
    result = _quantize(integral, n)
    if _quantize(plaquette, n).rounded != result.rounded:
        raise OracleMismatch("reference integral and plaquette disagree")
    return result


def outcome(fn, *args):
    try:
        return fn(*args).rounded
    except (ZeroGap, QuantizationFailure, OracleMismatch) as exc:
        return type(exc)


GAPPED_POINTS = [(np.pi / 2, np.pi / 2), (0.3, np.pi / 2), (-0.3, np.pi / 2),
                 (1.0, 0.3), (0.5, 1.0), (-1.1, 0.4)]


@pytest.mark.parametrize("n", [96, 128, 97])
def test_torus_invariants_match_full_zone(n):
    for a, b in GAPPED_POINTS:
        p = WalkParams(a, b)
        integral, plaquette = full_zone_reference(p, n)
        assert abs(chern_number_2d(p, n).raw - integral) < 1e-12
        assert abs(chern_plaquette(p, n).raw - plaquette) < 1e-12


@pytest.mark.parametrize("a, b", [
    (0.0, np.pi / 2),                                # gap closes on the grid
    (-2.945243112740431, -1.5707963267948966),       # gapped, min gap 0.073
])
def test_torus_outcome_matches_full_zone(a, b):
    p = WalkParams(a, b)
    assert outcome(chern_number_2d, p, 96) == outcome(reference_chern, p, 96)


def test_zone_trig_memo_is_read_only():
    for n in (96, 97):
        table, _ = _zone_trig(n)
        for term in table:
            assert not term.flags.writeable
            with pytest.raises(ValueError):
                term[0, 0] = 0.0


def test_curvature_raw_matches_grid_pointwise():
    # The CRG layout: one momentum, a grid of angles.  numpy evaluates
    # x ** 2 and x ** 1.5 on a float64 scalar through libm and on an array
    # through its SIMD loop, which differ in the last bits, so the scalar
    # reference agrees to a few ulps rather than bitwise.
    axis = np.linspace(-3.0, 3.0, 41)
    alpha, beta = np.meshgrid(axis, axis, indexing="ij")
    for kx, ky in [(0.0, 0.0), (np.pi / 2, np.pi / 2), (np.pi / 2, 0.0), (0.3, -1.1)]:
        with np.errstate(all="ignore"):
            raw = _curvature_raw_2d(kx, ky, alpha, beta)
        ref = np.array([[curvature_grid_2d(kx, ky, WalkParams(a, b), validate=False)
                         for b in axis] for a in axis])
        finite = np.isfinite(ref)
        assert np.array_equal(np.isfinite(raw), finite)
        np.testing.assert_allclose(raw[finite], ref[finite], rtol=4 * np.finfo(float).eps, atol=0)


def test_plaquette_trivial_axis_field():
    # constant spinor field: all link products are 1, zero total flux
    up = np.zeros((16, 16), dtype=complex)
    dn = np.ones((16, 16), dtype=complex)

    def link(axis):
        return (np.conj(up) * np.roll(up, -1, axis=axis)
                + np.conj(dn) * np.roll(dn, -1, axis=axis))

    ux, uy = link(0), link(1)
    plaq = ux * np.roll(uy, -1, axis=0) * np.conj(np.roll(ux, -1, axis=1)) * np.conj(uy)
    assert abs(np.angle(plaq).sum()) < 1e-14


# --- consistency with manifold geometry ---

def test_manifold_length_matches_winding_when_single_signed():
    # beta = pi: connection F/2 = -1/2 everywhere, so L = pi |C|
    p = WalkParams(np.pi / 2, np.pi)
    k = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    a = rotated_curvature_1d(k, p) / 2.0
    L = manifold_length_1d(zip(k, a))
    c = abs(winding_number_1d(p).rounded)
    assert abs(L - np.pi * c) < 1e-8


def test_manifold_area_bounds_chern():
    # area = pi |C| at sign-definite curvature; in general it only bounds it
    p = WalkParams(np.pi / 2, np.pi / 2)
    n = 256
    k = np.linspace(0, 2 * np.pi, n, endpoint=False)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    f = curvature_grid_2d(kx, ky, p)
    omega = f / 2.0
    area = manifold_area_2d(omega)
    c = abs(chern_number_2d(p, n).rounded)
    single_signed = f.max() <= 0.0 or f.min() >= 0.0
    if single_signed:
        assert abs(area - np.pi * c) < 1e-3
    else:
        assert area > np.pi * c - 1e-3
