import gc
import re
import tracemalloc

import numpy as np
import pytest

from topocrit import WalkParams, ZeroGap, invariants
from topocrit.crg import DEFAULT_DM
from topocrit.errors import OracleMismatch, QuantizationFailure
from topocrit.invariants import (InvariantResult, _TorusWork,
                                 _circle_trig, _quantize, _zone_trig,
                                 chern_number_2d, chern_numbers_2d,
                                 chern_plaquette, winding_number_1d,
                                 winding_numbers_1d)
from topocrit.geometry import below_gap_floor
from topocrit.models import BLOCK_POINTS, WALK_2D
from topocrit.walk1d import (_half_angles, _halves, _planar_terms_1d,
                             _zeta_terms_1d, rotated_curvature_1d)
from topocrit.walk2d import (_zeta_phi_2d, curvature_grid_2d,
                             trig_table_2d, zeta_components_2d)

from oracles import full_grid_winding_1d, phi_2d


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


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def assert_cells_match_one_cell_calls(raw, failed, refs):
    """A kernel's (raw, failed) against the one-cell results or errors
    ``refs``: the same kinds and messages, and for every defined cell the
    raw bits and the rounded value and defect that the CLI derives."""
    assert raw.shape == (len(refs),)
    assert list(failed) == sorted(failed)
    for i, ref in enumerate(refs):
        if isinstance(ref, Exception):
            assert type(failed[i]) is type(ref)
            assert str(failed[i]) == str(ref)
            assert np.isnan(raw[i])
        else:
            assert i not in failed
            assert _bits(raw[i]) == _bits(ref.raw)
            assert _bits(np.rint(raw[i]) + 0.0) == _bits(float(ref.rounded))
            assert abs(raw[i] - np.rint(raw[i])) == ref.defect


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
    axes = np.linspace(-np.pi, np.pi, 40)
    if n > 8:
        assert axes.size * n > 2 * BLOCK_POINTS
    raw, failed = winding_numbers_1d(np.full(axes.size, axes[25]), axes, n)
    refs = [_one_cell(WalkParams(axes[25], b), n) for b in axes.tolist()]
    assert {type(r).__name__ for r in refs} == want
    assert_cells_match_one_cell_calls(raw, failed, refs)


def assert_winding_matches_full_grid(alpha, beta, n):
    """winding_numbers_1d of the cells against the full-grid gap route: the
    same raw bits, failed cells, failure kinds and messages.  Returns the
    kinds of the outcomes."""
    raw, failed = winding_numbers_1d(alpha, beta, n)
    refs = [full_grid_winding_1d(WalkParams(a, b), n)
            for a, b in zip(alpha.tolist(), beta.tolist())]
    assert np.array_equal(_bits(raw), _bits([r for r, _ in refs]))
    assert list(failed) == [i for i, (_, e) in enumerate(refs) if e]
    for i, exc in failed.items():
        assert type(exc) is type(refs[i][1])
        assert str(exc) == str(refs[i][1])
    return {type(e).__name__ if e else "defined" for _, e in refs}


@pytest.mark.parametrize("grid, n", [
    (65, 512), (40, 8), (33, 97), (17, 97), (21, 3), (30, 513), (65, 4096),
    (101, 64), (9, 512), (17, 1), (17, 2), (17, 3),
])
def test_winding_gap_check_matches_full_grid_oracle(grid, n):
    # the kernel takes each cell's gap from its staged kernel's planar
    # |zeta|^2 = zeta'_x^2 + zeta_y^2, the oracle from all three zeta
    # components; both must close the same cells and leave every raw bit
    # the same
    axes = np.linspace(-np.pi, np.pi, grid)
    kinds = assert_winding_matches_full_grid(np.repeat(axes, grid),
                                             np.tile(axes, grid), n)
    assert {"defined", "ZeroGap"} <= kinds


@pytest.mark.parametrize("n", [1, 2, 3, 8, 97, 512])
def test_winding_gap_check_matches_full_grid_oracle_on_the_gap_lines(n):
    # cells on and within 1e-12 or 1e-9 of the gap-closing lines
    # alpha = +-beta.  At 1e-12, |zeta|^2 at k = 0 or pi is about 2.5e-25,
    # above the gap floor of 1e-28: the cell is gapped, and on either route
    # its peak of order 1e12 does not integrate to an integer.  Only at the
    # zone edge beta = +-pi, where kap_a is about 5e-13 and scales the peak
    # down, and on the one-point grid, where the integral is the peak
    # value itself, can such a cell round cleanly
    betas = np.append(np.linspace(-np.pi, np.pi, 17), [0.37, -2.2])
    offsets = (0.0, 1e-12, -1e-12, 1e-9, -1e-9)
    alpha = np.array([sign * b + d for b in betas.tolist()
                      for sign in (1.0, -1.0) for d in offsets])
    beta = np.repeat(betas, 2 * len(offsets))
    kinds = assert_winding_matches_full_grid(alpha, beta, n)
    assert {"defined", "ZeroGap"} <= kinds
    if n > 1:
        _, failed = winding_numbers_1d(alpha, beta, n)
        near = np.flatnonzero((np.abs(np.tile(offsets, 2 * betas.size))
                               == 1e-12) & (np.abs(beta) < np.pi))
        assert near.size == 4 * (betas.size - 2)
        assert all(type(failed.get(i)) is QuantizationFailure
                   for i in near.tolist())


@pytest.mark.parametrize("beta, offset", [
    (0.37, 1e-9), (-1.2, -1e-9), (2.5, -1e-9),
])
def test_winding_integral_that_is_not_finite_fails_to_quantize(beta, offset):
    # at these alpha = beta +- 1e-9 the cell is gapped, but the inner grid
    # undersamples its k = pi peak: the integral, finite since the
    # denominator is |zeta|^2, is far from an integer, a NaN cell failed
    # as a QuantizationFailure, and the one-cell call raises it; a raw that
    # is not finite fails the same way
    alpha = beta + offset
    raw, failed = winding_numbers_1d([alpha, 0.3], [beta, 0.1], 4096)
    assert np.isnan(raw[0]) and np.isfinite(raw[1])
    assert list(failed) == [0]
    assert type(failed[0]) is QuantizationFailure
    assert re.fullmatch(r"integral -?\d+\.\d{6} is \d\.\d\de-0\d from an "
                        r"integer", str(failed[0]))
    with pytest.raises(QuantizationFailure, match="from an integer"):
        winding_number_1d(WalkParams(alpha, beta))
    with pytest.raises(QuantizationFailure, match="not finite"):
        invariants._quantize(float("inf"), 4096)


def test_winding_evaluates_only_through_the_staged_kernel(monkeypatch):
    # every (cell, momentum) point is one point of one staged-kernel call,
    # which gives both the integrand and the gap; no other zeta evaluation
    points = []
    staged = invariants._curvature_staged_1d

    def spy(stage, ka, la):
        f, norm2 = staged(stage, ka, la)
        points.append(f.size)
        return f, norm2

    monkeypatch.setattr(invariants, "_curvature_staged_1d", spy)
    assert not any(hasattr(invariants, name) for name in (
        "_zeta_terms_1d", "_planar_terms_1d", "_curvature_parts_1d"))
    axes = np.linspace(-np.pi, np.pi, 65)
    cells = axes.size ** 2
    for n in (1, 97, 512):
        points.clear()
        raw, _ = winding_numbers_1d(np.repeat(axes, axes.size),
                                    np.tile(axes, axes.size), n)
        assert np.any(np.isfinite(raw))
        assert sum(points) == cells * n
        assert max(points) <= BLOCK_POINTS
        assert len(points) <= -(-cells * n // BLOCK_POINTS)


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


def test_rotated_norm_is_the_zeta_norm():
    # the winding kernel and rotated_curvature_1d take the gap from
    # zeta'_x^2 + zeta_y^2; on the walk1d phase diagram's cells its minimum
    # is the minimum of |zeta|^2, so both norms close the same cells
    axes = np.linspace(-np.pi, np.pi, 65)
    sin_k, cos_k = _circle_trig(512)
    h = np.array([_half_angles(WalkParams(a, b))
                  for a in axes for b in axes]).T[:, :, None]
    zx, zy, zz = _zeta_terms_1d(h, sin_k, cos_k)
    rx, ry = _planar_terms_1d(h, sin_k, cos_k)
    n2 = np.min(zx * zx + zy * zy + zz * zz, axis=1)
    r2 = np.min(rx * rx + ry * ry, axis=1)
    closed = n2 == 0.0
    assert np.array_equal(r2[closed], n2[closed])
    assert np.all(np.abs(r2 - n2)[~closed] <= 1e-15 * n2[~closed])


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

def single_expression_zeta_phi(kx, ky, ka, la, kb, lb):
    """The zeta/phi closed forms with each component written as one
    expression over inline trig calls.  Kept apart from the package kernel,
    which splits them into a beta stage and a cell stage, so that a change
    of operation order there shows as a changed bit here."""
    zx = -2.0 * lb * np.sin(kx) * (la * lb * np.cos(kx)
                                   - ka * kb * np.cos(kx + 2.0 * ky))
    zy = (la * kb ** 2 - la * lb ** 2 * np.cos(2.0 * kx)
          + 2.0 * ka * kb * lb * np.cos(kx) * np.cos(kx + 2.0 * ky))
    zz = (la * kb * lb * np.sin(2.0 * kx)
          - ka * (kb ** 2 * np.sin(2.0 * (kx + ky)) + lb ** 2 * np.sin(2.0 * ky)))
    t1 = 4.0 * ka ** 2 * kb ** 2 * lb * np.cos(kx) * np.cos(kx + 2.0 * ky)
    t2 = ka * la * kb * (2.0 * kb ** 2 * np.cos(2.0 * ky)
                         * np.cos(2.0 * kx + 2.0 * ky)
                         - lb ** 2 * (2.0 * np.cos(2.0 * kx)
                                      + np.cos(4.0 * ky) + 3.0))
    t3 = (2.0 * la ** 2 * lb * np.cos(2.0 * ky)
          * (lb ** 2 - kb ** 2 * np.cos(2.0 * kx)))
    phi = 2.0 * ka * lb * (kb ** 2 + lb ** 2) * (t1 + t2 + t3)
    return zx, zy, zz, phi


def torus_momenta(n):
    """The (kx, ky) grid of the memoized torus table: [0, pi)^2 of the zone
    grid for even n, the whole zone for odd n."""
    k = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    if n % 2 == 0:
        k = k[:n // 2]
    return np.meshgrid(k, k, indexing="ij")


def normalized_state_phases(zeta):
    """Argument of the counterclockwise link product around each plaquette
    of an axis field on a periodic grid, from normalized lower-band states,
    np.roll and np.angle: the oracle's formula before it used scaled states
    and work arrays."""
    zx, zy, zz = zeta
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
    return np.angle(plaq)


def normalized_state_plaquette(zeta):
    """Plaquette total over 2 pi of ``normalized_state_phases``."""
    return float(-normalized_state_phases(zeta).sum() / (2 * np.pi))


def full_zone_reference(p, n):
    """Curvature integral and plaquette total on the whole [0, 2 pi)^2 grid,
    each over its own zeta evaluation, as (integral, plaquette)."""
    k = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    zx, zy, zz = zeta_components_2d(kx, ky, p)
    if below_gap_floor(np.min(zx * zx + zy * zy + zz * zz)):
        raise ZeroGap("gap closed on the reference grid")
    integral = np.sum(curvature_grid_2d(kx, ky, p)) * (2 * np.pi / n) ** 2 / (4 * np.pi)
    return float(integral), normalized_state_plaquette((zx, zy, zz))


def torus_reference(p, n):
    """(integral, plaquette) of one walk on the torus grid, each as one
    array expression over ``single_expression_zeta_phi``, with neither work
    arrays nor a beta stage."""
    _, weight = _zone_trig(n)
    zx, zy, zz, phi = single_expression_zeta_phi(*torus_momenta(n),
                                                 *_half_angles(p))
    n2 = zx * zx + zy * zy + zz * zz
    if below_gap_floor(np.min(n2)):
        raise ZeroGap("gap closed on the reference torus")
    integral = float(weight * np.sum(phi / n2 ** 1.5) * (2.0 * np.pi / n) ** 2
                     / (4.0 * np.pi))
    return integral, weight * normalized_state_plaquette((zx, zy, zz))


def reference_chern(p, n, reference=full_zone_reference):
    """chern_number_2d's checks, in its order, on a reference route."""
    integral, plaquette = reference(p, n)
    result = _quantize(integral, n)
    if _quantize(plaquette, n).rounded != result.rounded:
        raise OracleMismatch("reference integral and plaquette disagree")
    return result


def outcome(fn, *args):
    try:
        return fn(*args).rounded
    except (ZeroGap, QuantizationFailure, OracleMismatch) as exc:
        return type(exc)


def result_or_error(fn, *args):
    try:
        return fn(*args)
    except (ZeroGap, QuantizationFailure, OracleMismatch) as exc:
        return exc


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


@pytest.mark.parametrize("n", [96, 97])
def test_chern_row_matches_one_cell_calls(n):
    # two alpha rows of the 33 x 33 phase diagram: at inner grid 96 the
    # first has ZeroGap cells and the second QuantizationFailure cells; at
    # the odd full zone 97 the first row has both
    axes = np.linspace(-np.pi, np.pi, 33)
    kinds = set()
    for a in (axes[12], axes[13]):
        raw, failed = chern_numbers_2d(np.full(axes.size, a), axes, n)
        row = [WalkParams(a, b) for b in axes.tolist()]
        ones = [result_or_error(chern_number_2d, p, n) for p in row]
        assert_cells_match_one_cell_calls(raw, failed, ones)
        for p, one in zip(row, ones):
            kinds.add(type(one).__name__)
            ref = result_or_error(reference_chern, p, n, torus_reference)
            assert type(one) is type(ref)
            if isinstance(ref, InvariantResult):
                assert one == ref  # raw bit-equal
            if isinstance(ref, ZeroGap):
                continue
            # the oracle's scaled states against normalized ones
            want = torus_reference(p, n)[1]
            plaquette = result_or_error(chern_plaquette, p, n)
            if isinstance(plaquette, QuantizationFailure):
                with pytest.raises(QuantizationFailure):
                    _quantize(want, n)
            else:
                assert abs(plaquette.raw - want) < 1e-12
                assert plaquette.rounded == _quantize(want, n).rounded
    assert kinds == {"InvariantResult", "ZeroGap", "QuantizationFailure"}


def test_chern_failures_leave_no_reference_cycles():
    gc.collect()
    gc.disable()
    try:
        row = [WalkParams(0.0, 0.5), WalkParams(0.05, 0.5)]
        raw, failed = chern_numbers_2d([0.0, 0.05], [0.5, 0.5], 96)
        assert [type(r) for r in failed.values()] == [ZeroGap,
                                                      QuantizationFailure]
        del failed
        for p in row:
            with pytest.raises((ZeroGap, QuantizationFailure)):
                chern_number_2d(p, 96)
        with pytest.raises(ZeroGap):
            chern_plaquette(row[0], 96)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_oracle_failures_reach_the_diagram_in_cell_order(monkeypatch):
    # no diagram cell ends in the plaquette's own QuantizationFailure or in
    # an OracleMismatch, so the plaquette is moved off the integral: by 0.3
    # in one cell, which still rounds to the integral's integer, and by 1.0
    # in another
    cells = [(np.pi / 2, np.pi / 2), (0.3, np.pi / 2), (1.0, 0.3),
             (0.5, 1.0), (-1.1, 0.4)]
    want, failed = chern_numbers_2d(*zip(*cells), 96)
    assert not failed
    offsets = {want[1]: 0.3, want[3]: 1.0}
    integral, plaquette = _TorusWork.integral, _TorusWork.plaquette

    def spy_integral(self, phi):
        self.last = integral(self, phi)
        return self.last

    def moved_plaquette(self, zeta):
        if self.last in offsets:
            return self.last + offsets[self.last]
        return plaquette(self, zeta)

    monkeypatch.setattr(_TorusWork, "integral", spy_integral)
    monkeypatch.setattr(_TorusWork, "plaquette", moved_plaquette)
    raw, failed = chern_numbers_2d(*zip(*cells), 96)
    errors = {
        1: QuantizationFailure("integral -3.700662 is 2.99e-01 from an "
                               "integer"),
        3: OracleMismatch("integral gives -4 but plaquette oracle gives -3"),
    }
    assert list(failed) == list(errors)
    for i, error in errors.items():
        assert type(failed[i]) is type(error)
        assert str(failed[i]) == str(error)
        with pytest.raises(type(error)) as info:
            chern_number_2d(WalkParams(*cells[i]), 96)
        assert str(info.value) == str(error)
    assert np.isnan(raw[[1, 3]]).all()
    assert np.array_equal(raw[[0, 2, 4]], want[[0, 2, 4]])


def test_chern_diagram_holds_no_torus_array_per_cell():
    # the 33^2 cells of the pd2d benchmark at inner grid 96 run on one set
    # of work arrays: about 0.7 MB traced, where one torus-sized float array
    # per cell kept alive would be 20 MB
    axes = np.linspace(-np.pi, np.pi, 33)
    alpha, beta = np.repeat(axes, 33), np.tile(axes, 33)
    chern_numbers_2d(alpha[:1], beta[:1], 96)  # the memoized torus table
    tracemalloc.start()
    try:
        raw, failed = chern_numbers_2d(alpha, beta, 96)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert raw.size == 33 * 33 and failed
    assert peak < 2 ** 20


PD33_AXES = np.linspace(-np.pi, np.pi, 33).tolist()
# generic cells with the betas interleaved, so that a reordered operation
# changes some raw integral, then a repeated cell, beta = 0.0 next to
# beta = -0.0, a cell whose gap closes at inner grid 96 (and fails to
# quantize at 97) and one that fails to quantize at 96
GROUPED_CELLS = [(a, b) for a in (0.3, -1.1, 2.2, 0.9)
                 for b in (0.37, 2.1, -1.9, 1.0, -0.8)] + [
    (0.3, np.pi / 2), (0.7, 0.0), (0.7, -0.0), (-1.1, 1.0), (1.2, -0.0),
    (PD33_AXES[13], PD33_AXES[2]), (-0.5, 0.0), (0.3, np.pi / 2), (0.0, 1.0),
    (PD33_AXES[13], PD33_AXES[20]), (-0.3, np.pi / 2), (1.2, 0.0),
    (PD33_AXES[12], PD33_AXES[8]), (-0.7, -0.0),
]


@pytest.mark.parametrize("n, kinds", [
    (96, {"InvariantResult", "ZeroGap", "QuantizationFailure"}),
    (97, {"InvariantResult", "QuantizationFailure"}),
])
def test_chern_beta_groups_keep_the_bits(n, kinds, monkeypatch):
    cells = [WalkParams(a, b) for a, b in GROUPED_CELLS]
    staged = []
    beta_stage = _TorusWork.beta_stage

    def spy(self, beta):
        staged.append(float(beta).hex())
        return beta_stage(self, beta)

    monkeypatch.setattr(_TorusWork, "beta_stage", spy)
    raw, failed = chern_numbers_2d(*zip(*GROUPED_CELLS), n)
    # one beta stage per bit pattern of beta, with 0.0 and -0.0 apart
    betas = {float(p.beta).hex() for p in cells}
    assert {"0x0.0p+0", "-0x0.0p+0"} <= betas
    assert sorted(staged) == sorted(betas)
    ones = [result_or_error(chern_number_2d, p, n) for p in cells]
    assert_cells_match_one_cell_calls(raw, failed, ones)
    assert {type(one).__name__ for one in ones} == kinds
    for p, one in zip(cells, ones):
        ref = result_or_error(reference_chern, p, n, torus_reference)
        assert type(one) is type(ref)
        if isinstance(ref, InvariantResult):
            assert _bits(one.raw) == _bits(ref.raw)  # the sign of zero too
            assert one == ref


def assert_same_bits(got, want):
    """Every bit of every component, signed zeros too."""
    for g, w in zip(got, want, strict=True):
        assert np.shape(g) == np.shape(w)
        assert np.array_equal(_bits(g), _bits(w))


@pytest.mark.parametrize("n", [96, 97])
def test_zeta_phi_bits_match_single_expressions(n):
    # every route into _zeta_phi_2d against one expression per component:
    # the torus path (a stage shared across cells), the public entry points
    # (a stage built per call) and the adapter's crg layout (a stage of
    # scalar momenta and a (1, n) beta row, at (m, 1) blocks of alpha)
    work = _TorusWork(n)
    kx, ky = torus_momenta(n)
    for a, b in GROUPED_CELLS:
        p = WalkParams(a, b)
        want = single_expression_zeta_phi(kx, ky, *_half_angles(p))
        assert_same_bits(_zeta_phi_2d(work.beta_stage(p.beta),
                                      *_halves(p.alpha)), want)
        assert_same_bits((*zeta_components_2d(kx, ky, p), phi_2d(kx, ky, p)),
                         want)
    axes = np.concatenate([np.linspace(-np.pi, np.pi, n, endpoint=False),
                           [-0.0, 0.0]])
    B = axes[None, :]
    for kx, ky in WALK_2D.hsps() + [(0.3, -1.1)]:
        for beta in (B, B + DEFAULT_DM):
            stage = WALK_2D.curvature_stage((kx, ky), beta)
            for lo in range(0, axes.size, 40):
                A = axes[lo:lo + 40, None]
                want = single_expression_zeta_phi(kx, ky, *_halves(A),
                                                  *_halves(beta))
                assert_same_bits(_zeta_phi_2d(stage,
                                              *WALK_2D.alpha_halves(A)), want)


@pytest.mark.parametrize("n", [96, 97])
def test_oracle_plaquette_phases_match_normalized_states(n):
    # plaquette by plaquette, not only the total: the wrapped fluxes of any
    # smooth U(1) link field on a torus sum to 2 pi times an integer, so a
    # smoothly corrupted link can leave the total unchanged
    work = _TorusWork(n)
    for a, b in GAPPED_POINTS:
        p = WalkParams(a, b)
        zeta = _zeta_phi_2d(work.beta_stage(b), *_halves(a))[:3]
        work.norm2(zeta)
        want = normalized_state_phases(zeta)
        np.testing.assert_allclose(work.plaquette_phases(zeta), want,
                                   rtol=0, atol=1e-12)


def qwz_fields(shape):
    """The Qi-Wu-Zhang fields of ``test_plaquette_trivial_axis_field`` on
    a torus of ``shape``, with their components cycled too."""
    k = np.linspace(0.0, 2.0 * np.pi, shape[0], endpoint=False)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    for m in (1.0, -1.0, 0.5, 3.0):
        zeta = (np.sin(kx), np.sin(ky), m + np.cos(kx) + np.cos(ky))
        yield zeta
        yield zeta[2:] + zeta[:2]


@pytest.mark.parametrize("n", [96, 97])
def test_windowed_plaquette_phases_are_bit_identical(n, monkeypatch):
    # the oracle holds its links for one window of whole torus rows at a
    # time, at most BLOCK_POINTS plaquettes; windows of one row, of 5 rows
    # (which divide neither torus, so the last window is short) and of 16
    # must give every phase, and the total flux, of one window
    def phases(block_points):
        monkeypatch.setattr(invariants, "BLOCK_POINTS", block_points)
        work = _TorusWork(n)
        fields = [_zeta_phi_2d(work.beta_stage(b), *_halves(a))[:3]
                  for a, b in GAPPED_POINTS]
        fields += list(qwz_fields(work.n2.shape))
        got = []
        for zeta in fields:
            work.norm2(zeta)
            got.append(work.plaquette_phases(zeta).copy())
            got.append(work.plaquette(zeta))
        return len(work.windows), got

    h, w = _TorusWork(n).n2.shape
    windows, want = phases(h * w)
    assert windows == 1
    for block_points in (1, 5 * w + w - 1, 16 * w):
        windows, got = phases(block_points)
        assert windows == -(-h // max(1, block_points // w)) > 1
        assert_same_bits(got, want)


@pytest.mark.parametrize("n, bound_mb", [(256, 2.8), (1024, 36.0)])
def test_chern_cell_holds_trig_rows_and_window_links(n, bound_mb):
    # one cell with its torus table, whose six one-momentum terms are rows
    # and columns, and whose oracle holds its links per window: about
    # 163 B per torus point at N = 256 and 128 at N = 1024 (2.55 and
    # 32.0 MB), where the torus-sized table made it 192 B (3.54 and 48.0 MB)
    # and seven torus-sized complex oracle arrays 313 B (4.90 and 78.3 MB)
    _zone_trig.cache_clear()
    tracemalloc.start()
    try:
        result = chern_number_2d(WalkParams(np.pi / 2, np.pi / 2), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.rounded == -4
    assert peak < bound_mb * 2 ** 20


def test_zone_trig_memo_is_read_only():
    for n in (96, 97):
        table, _ = _zone_trig(n)
        for term in table:
            assert not term.flags.writeable
            with pytest.raises(ValueError):
                term[0, 0] = 0.0


ROW_TERMS = ("cos_x", "sin_x", "cos_2x", "sin_2x")
COLUMN_TERMS = ("sin_2y", "cos_2y")


def meshgrid_zone_trig(n):
    """``_zone_trig`` with every term of the table evaluated on the torus
    meshgrid."""
    return trig_table_2d(*torus_momenta(n)), _zone_trig(n)[1]


@pytest.mark.parametrize("n", [1, 2, 33, 96, 97, 256])
def test_zone_trig_is_rows_and_columns_with_meshgrid_bits(n, monkeypatch):
    # the memo holds each one-momentum term as an (h, 1) row or a (1, w)
    # column, and broadcast to the torus every term has the bits of the
    # meshgrid evaluation; so the diagram's raw integrals and failures do
    # not depend on which of the two tables the torus reads
    table, _ = _zone_trig(n)
    mesh, _ = meshgrid_zone_trig(n)
    h, w = mesh.cos_x.shape
    for name, term in table._asdict().items():
        shape = ((h, 1) if name in ROW_TERMS else
                 (1, w) if name in COLUMN_TERMS else (h, w))
        assert term.shape == shape, name
        assert_same_bits([np.broadcast_to(term, (h, w))],
                         [getattr(mesh, name)])
    cells = GROUPED_CELLS
    if n == 96:
        # the 33^2 cells of the pd2d benchmark
        cells = [(a, b) for a in PD33_AXES for b in PD33_AXES]
    raw, failed = chern_numbers_2d(*zip(*cells), n)
    monkeypatch.setattr(invariants, "_zone_trig", meshgrid_zone_trig)
    want_raw, want_failed = chern_numbers_2d(*zip(*cells), n)
    assert np.array_equal(_bits(raw), _bits(want_raw))
    assert list(failed) == list(want_failed)
    for i, error in want_failed.items():
        assert type(failed[i]) is type(error)
        assert str(failed[i]) == str(error)


def test_curvature_raw_matches_grid_pointwise():
    # The CRG layout: one momentum, a grid of angles.  numpy evaluates
    # x ** 2 and x ** 1.5 on a float64 scalar through libm and on an array
    # through its SIMD loop, which differ in the last bits, so the scalar
    # reference agrees to a few ulps rather than bitwise.
    # Both parts of the (F, |zeta|^2) pair are compared.
    axis = np.linspace(-3.0, 3.0, 41)
    alpha, beta = np.meshgrid(axis, axis, indexing="ij")
    for kx, ky in [(0.0, 0.0), (np.pi / 2, np.pi / 2), (np.pi / 2, 0.0), (0.3, -1.1)]:
        with np.errstate(all="ignore"):
            raw = WALK_2D.curvature_raw((kx, ky), alpha, beta)
        ref = np.moveaxis([[WALK_2D.curvature_raw((kx, ky), a, b)
                            for b in axis] for a in axis], -1, 0)
        for got, want in zip(raw, ref):
            finite = np.isfinite(want)
            assert np.array_equal(np.isfinite(got), finite)
            np.testing.assert_allclose(got[finite], want[finite],
                                       rtol=4 * np.finfo(float).eps, atol=0)


def test_plaquette_trivial_axis_field():
    # the library oracle on fields of known mapping degree, on the odd grid
    # 33 (one torus copy, weight 1): a constant field has zero total flux in
    # either gauge, and the Qi-Wu-Zhang field (sin kx, sin ky, m + cos kx +
    # cos ky) has degree -sgn(m) for 0 < |m| < 2 and 0 for |m| > 2, also
    # with its components cycled, which moves the north-gauge region
    work = _TorusWork(33)
    shape = work.n2.shape
    assert work.weight == 1 and shape == (33, 33)
    for const in ((0.3, -0.2, 0.9), (0.3, -0.2, -0.9), (1.0, 1.0, 0.0)):
        zeta = tuple(np.full(shape, c) for c in const)
        work.norm2(zeta)
        assert abs(work.plaquette(zeta)) < 1e-14
    k = np.linspace(0.0, 2.0 * np.pi, 33, endpoint=False)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    for m, degree in ((1.0, -1), (-1.0, 1), (0.5, -1), (3.0, 0)):
        zeta = (np.sin(kx), np.sin(ky), m + np.cos(kx) + np.cos(ky))
        for cycled in (zeta, zeta[2:] + zeta[:2]):
            work.norm2(cycled)
            assert abs(work.plaquette(cycled) - degree) < 1e-12


# --- consistency with manifold geometry: the length L = int |A| dk and the
# area (1/2) int |Omega| d^2k on the uniform grid ---

def test_manifold_length_matches_winding_when_single_signed():
    # beta = pi: connection F/2 = -1/2 everywhere, so L = pi |C|
    p = WalkParams(np.pi / 2, np.pi)
    k = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    a = rotated_curvature_1d(k, p) / 2.0
    L = np.sum(np.abs(a)) * (2 * np.pi / 4096)
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
    area = 0.5 * np.sum(np.abs(omega)) * (2 * np.pi / n) ** 2
    c = abs(chern_number_2d(p, n).rounded)
    single_signed = f.max() <= 0.0 or f.min() >= 0.0
    if single_signed:
        assert abs(area - np.pi * c) < 1e-3
    else:
        assert area > np.pi * c - 1e-3
