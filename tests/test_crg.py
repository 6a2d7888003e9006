import math
import tracemalloc

import numpy as np
import pytest

from topocrit import WalkParams, crg
from topocrit.crg import (DEFAULT_DK, DEFAULT_DM, DEFAULT_RATE_THRESHOLD,
                          DENOMINATOR_FLOOR, DETECT_RATE_THRESHOLD,
                          MIN_COMPONENT_CELLS, NUMERATOR_FLOOR, PEAK_SINGULAR,
                          FlowField, LineCandidates, _periodic_label, detect_critical_lines, flow_field,
                          grid_axes, row_blocks)
from topocrit.errors import ZeroGap
from topocrit.geometry import below_gap_floor
from topocrit.models import WALK_1D, WALK_2D
from topocrit.walk1d import rotated_curvature_1d

from oracles import rg_step, walk_curvature_callback, zeta_norm

RNG = np.random.default_rng(19)
FIELDS = ("dalpha", "dbeta", "log_rate", "diverged", "peak_height",
          "scaling_response")
MB = 2 ** 20


def wrap(x):
    return np.angle(np.exp(1j * np.asarray(x)))


def field_lines(field, rate_threshold=DETECT_RATE_THRESHOLD):
    """The detected lines of a whole field, screened as one block."""
    found = LineCandidates(field.axes, field.hsp, rate_threshold)
    found.add(field)
    return detect_critical_lines(found)


def lines_of(model, grid, rate_threshold=30.0):
    """The detected lines of every HSP of the model, and the grid cell."""
    lines = []
    for hsp in model.hsps():
        lines += field_lines(flow_field(model, hsp, grid), rate_threshold)
    return lines, 2 * np.pi / grid


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
    for hsp in WALK_1D.hsps():
        field = flow_field(WALK_1D, hsp, 64)
        assert field.hsp == (hsp,)
        assert field.axes.shape == (64,)
        for name in FIELDS:
            assert getattr(field, name).shape == (64, 64)
        assert field.diverged.dtype == bool
    assert flow_field(WALK_2D, (np.pi / 2, 0.0)).hsp == (np.pi / 2, 0.0)
    assert flow_field(WALK_2D, (0.0, 0.0)).axes.shape == (128,)


def test_flow_field_divergence_clusters_on_critical_lines():
    lines, cell = lines_of(WALK_1D, 128)
    assert lines
    for line in lines:
        a = line.vertices[:, 0]
        b = line.vertices[:, 1]
        dist = np.minimum(np.abs(wrap(a + b)), np.abs(wrap(a - b)))
        assert dist.max() <= cell + 1e-12


def test_flow_field_families_split_by_hsp():
    lines, cell = lines_of(WALK_1D, 128)
    assert {line.hsp for line in lines} == {(0.0,), (np.pi,)}
    # k0 = 0 detects the alpha + beta = 0 family, k0 = pi the other
    for line in lines:
        a, b = line.vertices[:, 0], line.vertices[:, 1]
        if line.hsp == (0.0,):
            assert np.abs(wrap(a + b)).max() <= cell + 1e-12
        else:
            assert np.abs(wrap(a - b)).max() <= cell + 1e-12


class _OnMeshgrid:
    """A model whose curvature_raw is called on full (grid, grid) angle
    arrays, as a meshgrid evaluation of the flow field calls it: its stage
    is built on the full beta array and evaluated at the full alpha array,
    in place of the stage and half angles that the flow field passes.  It
    returns the model's (F, |zeta|^2), so the closed cells, read from that
    |zeta|^2, are compared too."""

    def __init__(self, model):
        self.model = model

    def __getattr__(self, name):
        return getattr(self.model, name)

    def curvature_raw(self, k, alpha, beta, stage=None, halves=None):
        alpha, beta = (a.copy() for a in np.broadcast_arrays(alpha, beta))
        return self.model.curvature_raw(
            k, alpha, beta, self.model.curvature_stage(k, beta),
            self.model.alpha_halves(alpha))


@pytest.mark.parametrize("model", [WALK_1D, WALK_2D], ids=["walk1d", "walk2d"])
def test_flow_field_bit_equal_to_meshgrid_evaluation(model):
    # the flow field evaluates on broadcast angle axes; every elementwise
    # value goes through the same operations as on full meshgrid arrays
    for hsp in model.hsps():
        field = flow_field(model, hsp, 64)
        ref = flow_field(_OnMeshgrid(model), hsp, 64)
        assert field.hsp == ref.hsp
        assert field.axes.tobytes() == ref.axes.tobytes()
        for name in FIELDS:
            got, want = getattr(field, name), getattr(ref, name)
            assert got.shape == want.shape == (64, 64)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def _full_grid_field(model, hsp, grid):
    """Reference flow field: every quantity evaluated at once on the whole
    (grid, grid) broadcast, never one block of rows at a time."""
    axes = np.linspace(-np.pi, np.pi, grid, endpoint=False)
    k_shift = np.asarray(hsp, dtype=float) + np.reshape(
        [DEFAULT_DK] + [0.0] * (model.dimension - 1), np.shape(hsp))
    A, B = axes[:, None], axes[None, :]

    def ratio(num, den):
        return np.where(np.abs(den) < DENOMINATOR_FLOOR,
                        np.where(np.abs(num) < DENOMINATOR_FLOOR, 0.0, np.inf),
                        num / den) * (DEFAULT_DM / DEFAULT_DK ** 2)

    with np.errstate(all="ignore"):
        f0, norm2 = model.curvature_raw(hsp, A, B)
        closed = below_gap_floor(norm2)
        num = model.curvature_raw(k_shift, A, B)[0] - f0
        da = ratio(num, model.curvature_raw(hsp, A + DEFAULT_DM, B)[0] - f0)
        db = ratio(num, model.curvature_raw(hsp, A, B + DEFAULT_DM)[0] - f0)
        da[closed] = db[closed] = np.nan
        f0[closed] = np.inf
        rate = np.hypot(da, db)
        return FlowField(axes, tuple(map(float, np.ravel(hsp))), da, db,
                         np.log10(rate),
                         ~np.isfinite(rate) | (rate > DEFAULT_RATE_THRESHOLD),
                         np.abs(f0), np.abs(num))


@pytest.mark.parametrize("model", [WALK_1D, WALK_2D], ids=["walk1d", "walk2d"])
@pytest.mark.parametrize("grid, block_rows", [
    (64, None), (64, 7), (100, None), (100, 1), (100, 7),
])
def test_flow_field_blocks_bit_equal_to_full_grid(monkeypatch, model, grid,
                                                  block_rows):
    # every elementwise value goes through the same operations in a block
    # of rows as on the whole grid: grid 64 is one default block, grid 100
    # is no multiple of its default 81 rows nor of 7, so its last block is
    # short, and the detected lines are the same
    if block_rows is not None:
        monkeypatch.setattr(crg, "BLOCK_POINTS", block_rows * grid)
    for hsp in model.hsps():
        field = flow_field(model, hsp, grid)
        ref = _full_grid_field(model, hsp, grid)
        assert field.hsp == ref.hsp
        assert field.axes.tobytes() == ref.axes.tobytes()
        for name in FIELDS:
            got, want = getattr(field, name), getattr(ref, name)
            assert got.shape == want.shape == (grid, grid)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), name
        got = field_lines(field)
        want = field_lines(ref)
        assert [line.hsp for line in got] == [line.hsp for line in want]
        assert all(a.vertices.tobytes() == b.vertices.tobytes()
                   for a, b in zip(got, want))


@pytest.mark.parametrize("model", [WALK_1D, WALK_2D], ids=["walk1d", "walk2d"])
@pytest.mark.parametrize("grid", [64, 100])
@pytest.mark.parametrize("block_rows", [1, 7])
def test_streamed_detection_equals_whole_field_detection(monkeypatch, model,
                                                         grid, block_rows):
    # the rows evaluated one block per call are the rows of the whole
    # field, and the candidates gathered block by block, in either order,
    # give the lines of the whole field
    fields = [flow_field(model, hsp, grid) for hsp in model.hsps()]
    monkeypatch.setattr(crg, "BLOCK_POINTS", block_rows * grid)
    blocks = row_blocks(grid)
    assert len(blocks) == -(-grid // block_rows)
    found = 0
    for hsp, field in zip(model.hsps(), fields):
        want = field_lines(field)
        for order in (blocks, blocks[::-1]):
            candidates = LineCandidates(grid_axes(grid), hsp)
            for rows in order:
                block = flow_field(model, hsp, grid, rows)
                assert block.start == rows.start
                for name in FIELDS:
                    assert getattr(block, name).tobytes() == getattr(
                        field, name)[rows.start:rows.stop].tobytes(), name
                candidates.add(block)
            got = detect_critical_lines(candidates)
            assert [line.hsp for line in got] == [line.hsp for line in want]
            assert all(a.vertices.tobytes() == b.vertices.tobytes()
                       for a, b in zip(got, want))
        found += len(want)
    assert found


@pytest.mark.parametrize("threshold", [0.0, -5.0, float("nan")])
def test_detect_rejects_a_threshold_that_is_not_positive(threshold):
    # every cell passes a threshold of 0 or below: one line through every
    # column; detection takes its threshold from the candidates
    field = flow_field(WALK_1D, 0.0, 64)
    with pytest.raises(ValueError):
        LineCandidates(field.axes, field.hsp, threshold)


def _traced_peak(fn):
    """fn's result and the peak of the memory it traced above the start."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_flow_field_holds_the_field_and_one_block():
    # the four curvature grids of a full-grid evaluation and their
    # differences held about 12 MB beyond the 10.25 MB field at 512^2
    hsp = WALK_2D.hsps()[0]
    flow_field(WALK_2D, hsp, 64)
    field, peak = _traced_peak(lambda: flow_field(WALK_2D, hsp, 512))
    size = sum(getattr(field, name).nbytes for name in FIELDS)
    assert peak < size + 2 * MB


def test_detect_holds_no_grid_sized_temporaries():
    # min_rate, the heights and the int64 torus labels were 2 MB each at
    # 512^2, and detection held about 7 MB beyond the field
    field = flow_field(WALK_2D, WALK_2D.hsps()[0], 512)
    want = field_lines(field)
    lines, peak = _traced_peak(lambda: field_lines(field))
    assert len(lines) == len(want) == 3
    assert peak < 3 * MB


def test_periodic_label_joins_components_across_the_edges():
    # the torus components, from the graph of the 8 neighbours of every
    # cell with wrap-around, against the labels: one label per component
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    for density in (0.1, 0.3, 0.45):
        mask = RNG.random((40, 40)) < density
        mask[:, 0] |= mask[:, -1]  # components that cross the edges
        lab = _periodic_label(mask)
        assert np.array_equal(lab > 0, mask)
        cells = np.flatnonzero(mask)
        node = np.full(mask.shape, -1)
        node.flat[cells] = np.arange(len(cells))
        src, dst = [], []
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                near = np.roll(node, (di, dj), axis=(0, 1))
                both = (node >= 0) & (near >= 0)
                src.append(node[both])
                dst.append(near[both])
        src, dst = np.concatenate(src), np.concatenate(dst)
        graph = coo_matrix((np.ones(len(src)), (src, dst)),
                           shape=(len(cells),) * 2)
        n, comp = connected_components(graph, directed=False)
        pairs = np.unique(np.stack([lab.flat[cells], comp]), axis=1)
        assert pairs.shape[1] == n == len(np.unique(lab.flat[cells]))


def _raises_zero_gap(f, hsp, M) -> bool:
    try:
        f(hsp, M)
    except ZeroGap:
        return True
    return False


def _closed(field):
    """Cells the flow field marks as closed at its HSP."""
    return np.isnan(field.dalpha) & np.isinf(field.peak_height)


@pytest.mark.parametrize("model", [WALK_1D, WALK_2D], ids=["walk1d", "walk2d"])
def test_rg_step_is_the_oracle_of_flow_field(model):
    # the scalar rg_step on the curvature callback recomputes the array flow
    # field on a strided set of cells that starts at (0, 0), the gapless
    # corner (-pi, -pi): a cell is closed exactly where the callback raises
    # ZeroGap at the HSP, and every other non-diverged cell has its flow
    f = walk_curvature_callback(model)
    ks = np.eye(model.dimension)[0]
    for hsp in model.hsps():
        field = flow_field(model, hsp, 64)
        closed = _closed(field)
        assert np.all(field.diverged[closed])
        compared = 0
        for i, j in np.argwhere(np.ones_like(closed))[::61]:
            M = (field.axes[i], field.axes[j])
            assert _raises_zero_gap(f, hsp, M) == closed[i, j]
            if field.diverged[i, j]:
                continue
            compared += 1
            for axis, flow in enumerate((field.dalpha, field.dbeta)):
                step = rg_step(f, hsp, ks, M, DEFAULT_DK, DEFAULT_DM,
                               axis=axis)
                assert abs(step - flow[i, j]) <= 1e-9 * abs(step)
        assert compared >= 40


@pytest.mark.parametrize("model", [WALK_1D, WALK_2D], ids=["walk1d", "walk2d"])
@pytest.mark.parametrize("grid", [64, 66])
def test_flow_field_closes_exactly_where_the_callback_raises(model, grid):
    # |zeta(hsp)| = |sin((alpha + b beta) / 2)|, so away from its line the
    # gap at the HSP is at least sin(0.1); every cell nearer the line than
    # that is checked against the callback, and no cell beyond it is closed
    f = walk_curvature_callback(model)
    for hsp in model.hsps():
        field = flow_field(model, hsp, grid)
        A, B = np.meshgrid(field.axes, field.axes, indexing="ij")
        closed = _closed(field)
        near = np.abs(np.sin((A + model.closing_slope(hsp) * B) / 2)) < 0.1
        assert 0 < closed.sum() < near.sum() < 6 * grid
        assert not closed[~near].any()
        for i, j in np.argwhere(near):
            M = (field.axes[i], field.axes[j])
            assert _raises_zero_gap(f, hsp, M) == closed[i, j]


@pytest.mark.parametrize("model", [WALK_1D, WALK_2D], ids=["walk1d", "walk2d"])
def test_gap_at_each_hsp_is_the_sine_of_its_closing_line(model):
    for hsp in model.hsps():
        b = model.closing_slope(hsp)
        for _ in range(20):
            a, beta = RNG.uniform(-np.pi, np.pi, 2)
            norm = zeta_norm(model, *np.reshape(hsp, (-1, 1)),
                             WalkParams(a, beta))
            assert abs(norm[0] - abs(np.sin((a + b * beta) / 2))) < 1e-14


@pytest.mark.parametrize("model", [WALK_1D, WALK_2D], ids=["walk1d", "walk2d"])
def test_curvature_raw_gap_test_is_the_validated_route(model):
    # on random angles, two on the closing line of each HSP, at every HSP
    # and at random momenta off them: curvature_raw's F is finite wherever
    # below_gap_floor of its |zeta|^2 says the gap is open, and that mask
    # holds exactly where the validated curvature raises ZeroGap
    f = walk_curvature_callback(model)
    hsps = model.hsps()
    alpha, beta = RNG.uniform(-np.pi, np.pi, (2, 24))
    on_line = 2 * len(hsps)
    alpha[:on_line] = [-model.closing_slope(h) * b
                       for h, b in zip(hsps * 2, beta)]
    off = [np.reshape(RNG.uniform(-np.pi, np.pi, model.dimension),
                      np.shape(hsps[0])) for _ in range(4)]
    for k in hsps + off:
        F, norm2 = model.curvature_raw(k, alpha, beta)
        shut = below_gap_floor(norm2)
        assert np.isfinite(F[~shut]).all()
        assert shut.tolist() == [_raises_zero_gap(f, k, M)
                                 for M in zip(alpha, beta)]
        assert shut[:on_line].any() == any(k is h for h in hsps)


def test_closing_slope_rejects_other_momenta():
    with pytest.raises(ValueError):
        WALK_1D.closing_slope(0.5)
    with pytest.raises(ValueError):
        WALK_2D.closing_slope((np.pi / 2, 0.3))
    assert WALK_2D.closing_slope(WALK_2D.slice_peak()) == 0


@pytest.mark.parametrize("model", [WALK_1D, WALK_2D], ids=["walk1d", "walk2d"])
def test_curvature_stage_bit_equal_to_one_shot_curvature_raw(model):
    # a (1, grid) stage built once and evaluated at (rows, 1) blocks of
    # alpha gives the bits of the one-shot curvature_raw on the full
    # (grid, grid) arrays, at every HSP and its shifted momentum, on beta
    # and beta + DM, for F and |zeta|^2 alike; the axes hold the gapless
    # corner (-pi, -pi) and both zeros.  Both sides build the same stage, so
    # this checks the blocks' broadcasting; the walk2d bits against independent single expressions
    # are test_invariants.py::test_zeta_phi_bits_match_single_expressions
    axes = np.concatenate([grid_axes(64), [-0.0, 0.0, 1.0]])
    n = len(axes)
    assert axes[0] == -np.pi and axes[32] == 0.0
    A, B = axes[:, None], axes[None, :]
    blocks = [slice(lo, lo + 7) for lo in range(0, n, 7)]
    for hsp in model.hsps():
        k_shift = crg._shifted_momentum(hsp, np.eye(model.dimension)[0],
                                        DEFAULT_DK)
        for k in (hsp, k_shift):
            for beta in (B, B + DEFAULT_DM):
                stage = model.curvature_stage(k, beta)
                got = [model.curvature_raw(
                    k, A[rows], beta, stage, model.alpha_halves(A[rows]))
                    for rows in blocks]
                full_a, full_b = (x.copy() for x in
                                  np.broadcast_arrays(A, beta))
                want = model.curvature_raw(k, full_a, full_b)
                for part, whole in zip(zip(*got), want):
                    part = np.concatenate(part)
                    assert part.shape == whole.shape == (n, n)
                    assert part.tobytes() == whole.tobytes()


class _RawCalls:
    """A model that records the arguments of each ``curvature_raw`` call and
    passes it through."""

    def __init__(self, model):
        self.model = model
        self.calls = []

    def __getattr__(self, name):
        return getattr(self.model, name)

    def curvature_raw(self, *args, **kwargs):
        self.calls.append((args, kwargs))
        return self.model.curvature_raw(*args, **kwargs)


@pytest.mark.parametrize("model", [WALK_1D, WALK_2D], ids=["walk1d", "walk2d"])
def test_flow_field_calls_curvature_raw_four_times_per_block(monkeypatch,
                                                              model):
    # the benchmark's models.curvature_raw counter wraps the adapter method
    # and counts the points of its positional alpha and beta: each block of
    # rows is four calls, every one with (k, alpha, beta) positional and
    # broadcasting to the block's (rows, grid) cells
    grid = 64
    monkeypatch.setattr(crg, "BLOCK_POINTS", 16 * grid)
    blocks = row_blocks(grid)
    assert len(blocks) == 4
    for hsp in model.hsps():
        spy = _RawCalls(model)
        flow_field(spy, hsp, grid)
        assert len(spy.calls) == 4 * len(blocks)
        for call, (args, kwargs) in enumerate(spy.calls):
            assert len(args) >= 3
            assert not {"k", "alpha", "beta"} & set(kwargs)
            rows = len(blocks[call // 4])
            assert np.broadcast(args[1], args[2]).shape == (rows, grid)


def test_crg_builds_each_stage_and_closed_cell_test_once_per_hsp(
        tmp_path, monkeypatch):
    # the stage is built per HSP, not per block of rows: a streamed crg run
    # of 4 blocks per HSP builds it once per HSP and calls the model's stage
    # builder once per curvature stage
    from topocrit.cli import main

    grid = 64
    monkeypatch.setattr(crg, "BLOCK_POINTS", 16 * grid)
    assert len(row_blocks(grid)) == 4
    for model in (WALK_1D, WALK_2D):
        calls = {"flow_stage": 0, "curvature_stage": 0}

        def counted(name, fn):
            def spy(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return spy

        with monkeypatch.context() as patch:
            patch.setattr(crg, "flow_stage",
                          counted("flow_stage", crg.flow_stage))
            patch.setattr(model, "curvature_stage",
                          counted("curvature_stage", model.curvature_stage))
            assert main(["crg", "--model", model.name, "--grid", str(grid),
                         "--out", str(tmp_path / model.name)]) == 0
        hsps = len(model.hsps())
        assert calls == {"flow_stage": hsps, "curvature_stage": 3 * hsps}


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
    lines, cell = lines_of(WALK_2D, 128)
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
    dist = np.abs(wrap(A - B))
    spike = 1.0 / (dist + 1e-3)
    rate = np.hypot(spike, spike)
    return FlowField(axes, (0.0,), spike, spike, np.log10(rate), rate > 1e3,
                     spike, spike)


def test_detect_synthetic_spike_line():
    field = _synthetic_field()
    lines = field_lines(field, rate_threshold=50.0)
    assert len(lines) == 1
    a, b = lines[0].vertices[:, 0], lines[0].vertices[:, 1]
    assert np.abs(wrap(a - b)).max() <= 2 * np.pi / 64 + 1e-12


def test_detect_threshold_robustness():
    lo, cell = lines_of(WALK_1D, 128, rate_threshold=30.0)
    hi, _ = lines_of(WALK_1D, 128, rate_threshold=300.0)
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
    for key in shared:
        assert abs(lo_map[key] - hi_map[key]) <= cell + 1e-12


def _full_grid_lines(field, rate_threshold):
    """Reference detection: one full-grid mask per component label."""
    f0 = field.peak_height
    with np.errstate(invalid="ignore"):
        min_rate = np.minimum(np.abs(field.dalpha), np.abs(field.dbeta))
    cand = (~np.isfinite(f0) | (f0 > PEAK_SINGULAR)
            | (np.isfinite(min_rate) & (min_rate >= rate_threshold)
               & (field.scaling_response >= NUMERATOR_FLOOR)))
    if not cand.any():
        return []
    lab = _periodic_label(cand)
    height = np.where(np.isfinite(f0), f0, np.inf)
    axes = field.axes
    out = []
    for lb in np.unique(lab):
        mask = lab == lb
        if lb == 0 or mask.sum() < MIN_COMPONENT_CELLS:
            continue
        rows, cols = (np.unique(ix) for ix in np.nonzero(mask))
        verts = []
        if len(cols) >= len(rows):
            for j in cols:
                ii = np.nonzero(mask[:, j])[0]
                verts.append((axes[ii[np.argmax(height[ii, j])]], axes[j]))
        else:
            for i in rows:
                jj = np.nonzero(mask[i, :])[0]
                verts.append((axes[i], axes[jj[np.argmax(height[i, jj])]]))
        out.append((field.hsp, np.array(verts)))
    return out


def _fields(model, grid):
    return lambda: [flow_field(model, hsp, grid) for hsp in model.hsps()]


@pytest.mark.parametrize("make_fields, threshold", [
    (_fields(WALK_1D, 128), 30.0),
    (_fields(WALK_1D, 64), 3.0),
    (_fields(WALK_2D, 96), 30.0),
    (_fields(WALK_2D, 64), 300.0),
    (lambda: [_synthetic_field()], 50.0),
], ids=["walk1d-128", "walk1d-64-t3", "walk2d-96", "walk2d-64-t300",
        "synthetic"])
def test_detect_bounding_boxes_match_full_grid_masks(make_fields, threshold):
    # same components in the same order, and bit-identical vertices
    found = 0
    for field in make_fields():
        lines = field_lines(field, rate_threshold=threshold)
        want = _full_grid_lines(field, threshold)
        assert [line.hsp for line in lines] == [key for key, _ in want]
        for line, (_, verts) in zip(lines, want):
            assert line.vertices.tobytes() == verts.tobytes()
        found += len(lines)
    assert found
