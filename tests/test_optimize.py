import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import entcap
from entcap import optimize
from entcap.canonical import decompose, invariants_match, local_invariants
from entcap.capacity import (
    capacity_c2,
    capacity_entropy_no_ancilla,
    capacity_linear_entropy,
)
from entcap.errors import (
    ConvergenceError,
    DimensionMismatchError,
    NotNormalizedError,
    UnsupportedMeasureError,
)
from entcap.measures import MeasureKind, binary_entropy
from entcap.optimize import (
    CapacityResult,
    FamilyKind,
    GateFamily,
    OptimizerConfig,
    custom_sweep,
    family_sweep,
    family_unitary,
    minimize_initial_entanglement,
    numeric_capacity,
    parameterize_state,
    product_start_capacity,
)
from entcap.qcore import (
    CNOT,
    DCNOT,
    IDENTITY4,
    SWAP,
    build_canonical_unitary,
    haar_random_local_unitary,
    haar_random_unitary,
    make_rng,
)

QUARTER_PI = np.pi / 4
FAST = OptimizerConfig(restarts=6, master_seed=11)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iterations=0)


def test_parameterize_state_basics():
    raw = np.zeros(8)
    raw[0] = 1.0
    psi = parameterize_state(raw)
    assert np.allclose(psi.amplitudes, [1, 0, 0, 0])
    assert psi.partition == ("A", "B")
    doubled = parameterize_state(2.0 * raw)
    assert np.allclose(psi.amplitudes, doubled.amplitudes)
    with pytest.raises(ValueError):
        parameterize_state(np.zeros(8))
    # Non-finite parameters fail before any arithmetic can warn on them.
    for bad in (np.nan, np.inf, -np.inf):
        raw[1] = bad
        with pytest.raises(NotNormalizedError), warnings.catch_warnings():
            warnings.simplefilter("error")
            parameterize_state(raw)
    for shape in [(7,), (2, 4), (6,)]:
        # odd size, not a vector, three amplitudes
        with pytest.raises(DimensionMismatchError):
            parameterize_state(np.ones(shape))


def test_parameterize_state_interleaves_re_im():
    raw = np.array([1.0, 1.0, 0, 0, 0, 0, 0, 0])
    psi = parameterize_state(raw)
    assert np.allclose(psi.amplitudes, [(1 + 1j) / np.sqrt(2), 0, 0, 0])
    # A strided vector is read by value, not viewed in place.
    strided = np.repeat(raw, 2)[::2]
    assert np.array_equal(parameterize_state(strided).amplitudes, psi.amplitudes)


def test_analytic_gradient_matches_finite_differences():
    u = build_canonical_unitary((0.3, 0.2, 0.1))
    rng = make_rng(77)
    h = 1e-6
    for measure in MeasureKind:
        two_qubit_only = measure in (
            MeasureKind.CONCURRENCE,
            MeasureKind.CONCURRENCE_SQUARED,
        )
        for anc in ((0, 0),) if two_qubit_only else ((0, 0), (1, 1), (2, 2), (1, 0)):
            objectives = {
                "free": optimize._CutObjective(u, measure, *anc),
                "product": optimize._CutObjective(u, measure, *anc, product=True),
                "penalized": optimize._PenalizedObjective(u, measure, *anc, 0.4, 10.0),
            }
            for name, obj in objectives.items():
                # Unnormalized rows: the gradients must hold off the unit
                # sphere too, where the polish takes its Hessian differences.
                raws = 1.7 * rng.standard_normal((4, obj.n_raw))
                grads = obj.gradients(raws)
                assert grads.shape == raws.shape
                eye = np.eye(obj.n_raw)
                for raw, grad in zip(raws, grads):
                    vals = obj.values(np.vstack([raw + h * eye, raw - h * eye]))
                    fd = (vals[: obj.n_raw] - vals[obj.n_raw :]) / (2 * h)
                    err = np.abs(grad - fd).max()
                    assert err < 1e-7, (measure.value, anc, name, err)


def test_swap_without_ancillas_is_inert():
    res = numeric_capacity(SWAP, MeasureKind.ENTROPY_OF_ENTANGLEMENT, cfg=FAST)
    assert abs(res.value) < 1e-6


def test_cnot_entropy_capacity():
    res = numeric_capacity(CNOT, MeasureKind.ENTROPY_OF_ENTANGLEMENT, cfg=FAST)
    assert res.value == pytest.approx(1.0, abs=1e-5)
    assert res.converged_restarts >= 1
    assert res.value == pytest.approx(
        res.final_entanglement - res.initial_entanglement, abs=1e-9
    )


def test_swap_with_ancillas_moves_two_ebits():
    res = numeric_capacity(
        SWAP, MeasureKind.ENTROPY_OF_ENTANGLEMENT, anc_a=1, anc_b=1, cfg=FAST
    )
    assert res.value >= 2 - 1e-3


def test_swap_with_two_ancillas_certifies():
    # The saturated optimum sits where reduced-state eigenvalues vanish.  An
    # entropy kernel that cut eigenvalues at 1e-12 jumped by ~4e-11 there,
    # enough to fail the central-difference certificate on every restart.
    res = numeric_capacity(
        SWAP,
        MeasureKind.ENTROPY_OF_ENTANGLEMENT,
        anc_a=2,
        anc_b=2,
        cfg=OptimizerConfig(restarts=4),
    )
    assert res.converged_restarts >= 1
    assert res.value == pytest.approx(2.0, abs=1e-6)


def test_nan_restart_is_never_best_nor_converged(monkeypatch):
    real = optimize._ascend
    seen = []

    def first_restart_nan(objective, raw0, cfg):
        # The first restart's exit reports NaN at a point that certifies.
        raw, value = real(objective, raw0, cfg)
        value[0] = math.nan
        seen.append(value.size)
        return raw, value

    monkeypatch.setattr(optimize, "_ascend", first_restart_nan)
    res = numeric_capacity(CNOT, MeasureKind.CONCURRENCE_SQUARED, cfg=FAST)
    assert seen == [FAST.restarts]
    assert res.best_restart_seed != FAST.master_seed
    assert res.converged_restarts <= FAST.restarts - 1
    assert res.value == pytest.approx(1.0, abs=1e-6)

    def every_restart_nan(objective, raw0, cfg):
        raw, value = real(objective, raw0, cfg)
        return raw, np.full_like(value, math.nan)

    monkeypatch.setattr(optimize, "_ascend", every_restart_nan)
    with pytest.raises(ConvergenceError):
        numeric_capacity(CNOT, MeasureKind.CONCURRENCE_SQUARED, cfg=FAST)


def test_tied_restarts_report_the_lowest_seed(monkeypatch):
    real = optimize._ascend

    def tied(objective, raw0, cfg):
        # Every restart but the first claims one value; the first is lower.
        raw, value = real(objective, raw0, cfg)
        value[:] = 0.5
        value[0] = 0.4
        return raw, value

    monkeypatch.setattr(optimize, "_ascend", tied)
    res = numeric_capacity(CNOT, MeasureKind.CONCURRENCE_SQUARED, cfg=FAST)
    assert res.best_restart_seed == FAST.master_seed + 1


def test_benchmark_wrap_points_exist():
    # The benchmark's per-layer tracer wraps these names of entcap.optimize;
    # if one disappears its metrics read 0 instead of failing.
    for name in (
        "entanglement_batch",
        "make_rng",
        "numeric_capacity",
        "product_start_capacity",
        "ProcessPoolExecutor",
    ):
        assert callable(getattr(optimize, name, None)), name
    with pytest.raises(AttributeError):
        optimize.NoSuchName


class SerialPool:
    """A stand-in process pool that maps in this process; ``sizes`` records
    the size of every pool opened."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


def test_sweep_uses_the_pool_set_on_the_module(monkeypatch):
    # The pool is imported on first use, yet a pool set on the module (as
    # the benchmark's tracer sets one) is the one a sweep opens.
    monkeypatch.setattr(SerialPool, "sizes", [])
    monkeypatch.setattr(optimize, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(optimize, "_pool_size", lambda workers, rows: 2)
    grid = [0.1, QUARTER_PI]
    rows = family_sweep(
        FamilyKind.CNOT, grid, MeasureKind.CONCURRENCE_SQUARED, cfg=FAST, workers=2
    )
    assert SerialPool.sizes == [2]
    assert rows == family_sweep(
        FamilyKind.CNOT, grid, MeasureKind.CONCURRENCE_SQUARED, cfg=FAST
    )


class _DistanceTo:
    """-|x0 - target| of a unit row: the trial closest to target is best."""

    def __init__(self, target):
        self.target = target

    def take(self, rows):
        return self

    def values(self, raw):
        return -np.abs(raw[..., 0] - self.target)


@pytest.mark.parametrize(
    "target, found, x0",
    [
        # The only acceptable rungs, 1e-10 and 5e-11, are at or below the
        # step tolerance, so the ladder is cut past them.
        (5e-11, False, None),
        # 1e-10 would come closest, but 2e-10 is the best rung above it.
        (1.2e-10, True, 2e-10),
    ],
)
def test_best_rungs_never_steps_at_or_below_tolerance(target, found, x0):
    # One tier: the step 2e-10 times the rungs 1, 1/2 and 1/4.
    assert optimize._STEP_TOLERANCE == 1e-10
    raw = np.array([[0.0, 1.0]])
    ok, new_raw, new_value = optimize._tiered_rungs(
        _DistanceTo(target), raw, np.array([-target]), np.ones(1, dtype=bool),
        np.array([[1.0, 0.0]]), np.zeros(1), np.array([2e-10]),
        (np.array([1.0, 0.5, 0.25]),),
    )
    assert ok[0] == found
    if found:
        assert new_raw[0, 0] == pytest.approx(x0, rel=1e-9)
        assert new_value[0] == pytest.approx(-abs(x0 - target), rel=1e-6)


def test_line_search_on_some_rows_moves_each_as_alone():
    # Rows of two gates (entropy 1+1), some of them not tried: untried rows
    # come back bit-identical, the inputs are not written, and each tried
    # row ends where a one-row search of it ends.
    gates = [
        family_unitary(GateFamily(FamilyKind.DCNOT, np.pi / 8)),
        family_unitary(GateFamily(FamilyKind.SWAP, 3 * np.pi / 16)),
    ]
    kind = MeasureKind.ENTROPY_OF_ENTANGLEMENT
    objective = optimize._CutObjective(gates, kind, 1, 1).take([0, 1] * 4)
    raw = np.array([make_rng(s).standard_normal(objective.n_raw) for s in range(8)])
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    value = objective.values(raw)
    grad = optimize._tangent(objective.gradients(raw), raw)
    tried = np.array([1, 0, 1, 1, 0, 1, 1, 0], dtype=bool)
    # Steps of 2 and more fail the first rung, so later tiers search too.
    args = grad, np.sum(grad**2, axis=1), np.array([0.1, 0.2, 3, 8, 0.05, 2, 4, 1.0])
    tiers = (
        optimize._LADDER[:1],
        optimize._LADDER[1 : optimize._ASCENT_RUNGS],
        optimize._LADDER[optimize._ASCENT_RUNGS :],
    )
    inputs = [a.copy() for a in (raw, value, tried, *args)]
    moved, new_raw, new_value = optimize._tiered_rungs(
        objective, raw, value, tried, *args, tiers
    )
    for before, after in zip(inputs, (raw, value, tried, *args)):
        assert np.array_equal(before, after)
    first, _, _ = optimize._tiered_rungs(
        objective, raw, value, tried, *args, tiers[:1]
    )
    assert (moved & ~first).any() and not (moved & ~tried).any()
    assert np.array_equal(new_raw[~tried], raw[~tried])
    assert np.array_equal(new_value[~tried], value[~tried])
    for i in np.flatnonzero(tried):
        alone = optimize._tiered_rungs(
            objective.take([i]), raw[i : i + 1], value[i : i + 1], tried[i : i + 1],
            *(a[i : i + 1] for a in args), tiers,
        )
        assert alone[0][0] == moved[i], i
        assert np.array_equal(alone[1][0], new_raw[i]), i
        assert np.array_equal(alone[2][0], new_value[i]), i


class _SteepQuadratic:
    """-1e6 (x0 - 1/2)^2 of the unit row x: so steep that from (0.8, 0.6)
    every rung of the 8-rung ladder overshoots the maximum.  It has no
    measure, so the climb keeps no quasi-Newton memory for it."""

    n_raw, measure = 4, None

    def take(self, rows):
        return self

    def values(self, raw):
        x = raw / np.linalg.norm(raw, axis=-1, keepdims=True)
        return -1e6 * (x[..., 0] - 0.5) ** 2

    def gradients(self, raw):
        grad = np.zeros_like(raw)
        grad[..., 0] = -2e6 * (raw[..., 0] / np.linalg.norm(raw, axis=-1) - 0.5)
        return grad


def test_climb_moves_through_halving_rungs_when_the_ladder_fails():
    objective = _SteepQuadratic()
    raw0 = np.array([[0.8, 0.6, 0.0, 0.0]])
    value0 = objective.values(raw0)
    grad = optimize._tangent(objective.gradients(raw0), raw0)
    # The first iteration's 8 rungs, from the initial step 0.1, all fail.
    found, _, _ = optimize._tiered_rungs(
        objective, raw0, value0, np.ones(1, dtype=bool), grad,
        np.sum(grad**2, axis=1), np.full(1, 0.1),
        (optimize._LADDER[: optimize._ASCENT_RUNGS],),
    )
    assert not found[0]
    _, value = optimize._climb(objective, raw0, OptimizerConfig(max_iterations=1))
    assert value[0] > value0[0]
    _, value = optimize._climb(objective, raw0, OptimizerConfig())
    assert value[0] == pytest.approx(0.0, abs=1e-6)


REGION_1_GATE = build_canonical_unitary((0.3, 0.2, 0.1))
REGION_2_GATE = build_canonical_unitary((0.7, 0.5, 0.3))


def _dressed(seed, alpha):
    va, vb = haar_random_local_unitary(seed)
    wa, wb = haar_random_local_unitary(seed + 1)
    return np.kron(va, vb) @ build_canonical_unitary(alpha) @ np.kron(wa, wb)


@pytest.mark.parametrize(
    "u, measure, anc",
    [
        (CNOT, MeasureKind.CONCURRENCE_SQUARED, (0, 0)),
        (DCNOT, MeasureKind.CONCURRENCE_SQUARED, (0, 0)),
        (REGION_1_GATE, MeasureKind.CONCURRENCE_SQUARED, (0, 0)),
        (REGION_2_GATE, MeasureKind.CONCURRENCE_SQUARED, (0, 0)),
        (REGION_1_GATE, MeasureKind.LINEAR_ENTROPY, (0, 0)),
        (
            _dressed(3, (np.pi / 8, np.pi / 8, 0.0)),
            MeasureKind.ENTROPY_OF_ENTANGLEMENT,
            (1, 1),
        ),
        # On a region boundary every restart leaves the climb for the polish.
        (
            build_canonical_unitary((np.pi / 8, np.pi / 8, 0.0)),
            MeasureKind.CONCURRENCE_SQUARED,
            (0, 0),
        ),
    ],
    ids=[
        "c2-cnot", "c2-dcnot", "c2-region1", "c2-region2", "linear", "entropy-a11",
        "c2-boundary",
    ],
)
def test_restart_result_independent_of_batch(u, measure, anc):
    # Restarts climb and polish in lockstep, but each one's path, polish and
    # certificate must depend only on its own seed.
    objective = optimize._CutObjective(u, measure, *anc)
    cfg = OptimizerConfig(restarts=8)
    raw0 = np.array([make_rng(s).standard_normal(objective.n_raw) for s in range(8)])
    raw, value = optimize._ascend(objective, raw0, cfg)
    certificate = optimize._certificate_norms(objective, raw)
    for i in range(8):
        alone_raw, alone_value = optimize._ascend(objective, raw0[i : i + 1], cfg)
        alone_certificate = optimize._certificate_norms(objective, alone_raw)
        assert abs(alone_value[0] - value[i]) <= 1e-12, i
        assert abs(alone_certificate[0] - certificate[i]) <= 1e-12, i


# Three regions and the Region1/OneEbit boundary, as a sweep mixes them.
MIXED_GATES = [
    REGION_1_GATE,
    REGION_2_GATE,
    build_canonical_unitary((np.pi / 8, np.pi / 8, 0.0)),
    _dressed(5, (0.6, 0.3, 0.1)),
]


@pytest.mark.parametrize(
    "measure, anc",
    [
        (MeasureKind.CONCURRENCE_SQUARED, (0, 0)),
        (MeasureKind.ENTROPY_OF_ENTANGLEMENT, (1, 1)),
    ],
    ids=["c2", "entropy-a11"],
)
def test_restart_result_independent_of_batch_with_mixed_gates(measure, anc):
    # A sweep climbs the restarts of several gates as one block: each
    # restart must end exactly where its gate's restarts end climbing alone.
    k, cfg = 6, OptimizerConfig(restarts=6)
    block = optimize._CutObjective(MIXED_GATES, measure, *anc)
    block = block.take(np.repeat(np.arange(len(MIXED_GATES)), k))
    starts = np.array([make_rng(s).standard_normal(block.n_raw) for s in range(k)])
    raw, value = optimize._ascend(block, np.tile(starts, (len(MIXED_GATES), 1)), cfg)
    certificate = optimize._certificate_norms(block, raw)
    for g, u in enumerate(MIXED_GATES):
        alone = optimize._CutObjective(u, measure, *anc)
        alone_raw, alone_value = optimize._ascend(alone, starts, cfg)
        rows = slice(g * k, (g + 1) * k)
        assert np.array_equal(alone_raw, raw[rows]), g
        assert np.array_equal(alone_value, value[rows]), g
        assert np.array_equal(
            optimize._certificate_norms(alone, alone_raw), certificate[rows]
        ), g


class _RowCounter:
    """An objective that logs the parameter rows of every call, in order, as
    ("values" or "gradients", row count); its restrictions log to the same
    list."""

    def __init__(self, objective, calls=None):
        self.objective, self.n_raw = objective, objective.n_raw
        self.measure = objective.measure
        self.calls = [] if calls is None else calls

    def take(self, rows):
        return _RowCounter(self.objective.take(rows), self.calls)

    def values(self, raw):
        self.calls.append(("values", raw[..., 0].size))
        return self.objective.values(raw)

    def gradients(self, raw):
        self.calls.append(("gradients", raw[..., 0].size))
        return self.objective.gradients(raw)

    @property
    def rows(self):
        return sum(m for name, m in self.calls if name == "gradients")


def test_crawling_restarts_are_handed_to_the_polish():
    # Near this optimum the gradient shrinks sublinearly while every step
    # still gains, so without the hand-off to the polish the climb crawls.
    u = _dressed(3, (np.pi / 8, np.pi / 8, 0.0))
    objective = _RowCounter(
        optimize._CutObjective(u, MeasureKind.ENTROPY_OF_ENTANGLEMENT, 0, 0)
    )
    raw0 = np.array([make_rng(s).standard_normal(objective.n_raw) for s in range(8)])
    _, value = optimize._ascend(objective, raw0, OptimizerConfig(restarts=8))
    assert objective.rows <= 10_000
    assert np.all(value >= 1 - 1e-7)


def test_linearly_crawling_restarts_are_handed_to_the_polish():
    # On this gate most c2 restarts cut their gradient norm by about x0.95
    # per step, which halves it over the stall window; only a fourfold cut
    # per window sent them to the polish early (38 gradients calls, where a
    # halving test took 245).  c2 now climbs one stall window at most; the
    # entropy keeps the stall test and takes 41 calls, 232 with a halving one.
    triple = (np.pi / 16, 3 * np.pi / 64, 3 * np.pi / 64)
    for measure, closed_form in (
        (MeasureKind.CONCURRENCE_SQUARED, capacity_c2),
        (MeasureKind.ENTROPY_OF_ENTANGLEMENT, capacity_entropy_no_ancilla),
    ):
        objective = _RowCounter(
            optimize._CutObjective(build_canonical_unitary(triple), measure, 0, 0)
        )
        raw0 = np.array([make_rng(s).standard_normal(objective.n_raw) for s in range(8)])
        raw, value = optimize._ascend(objective, raw0, OptimizerConfig(restarts=8))
        assert sum(name == "gradients" for name, _ in objective.calls) <= 60, measure
        certificate = optimize._certificate_norms(objective.objective, raw)
        assert np.all(certificate < optimize._CONVERGED_GRAD_NORM), measure
        assert abs(value.max() - closed_form(triple).value) <= 1e-12, measure


@pytest.mark.parametrize("anc", [1, 2])
def test_entropy_with_ancillas_makes_few_values_calls(monkeypatch, anc):
    # The whole search: climb, polish (1+1 only) and certificate.  Under a
    # monotone Armijo test with the secant step capped at 0.2 it made 114
    # values calls at 1+1 and 121 at 2+2; the nonmonotone test with a cap of
    # 1 makes 51 and 52.
    calls, values = [], optimize._CutObjective.values

    def counted(objective, raw):
        calls.append(raw.shape)
        return values(objective, raw)

    monkeypatch.setattr(optimize._CutObjective, "values", counted)
    u = _dressed(0, (np.pi / 8, np.pi / 8, 0.0))
    res = numeric_capacity(
        u, MeasureKind.ENTROPY_OF_ENTANGLEMENT, anc, anc, OptimizerConfig(restarts=4)
    )
    assert res.converged_restarts == 4
    assert len(calls) <= 80


@pytest.mark.parametrize(
    "alpha",
    [
        (np.pi / 16, np.pi / 32, 0.0),
        (np.pi / 16, np.pi / 64, np.pi / 64),
        (np.pi / 16, np.pi / 32, np.pi / 32),
    ],
    ids=["a3-zero", "a2-a3-small", "a2-eq-a3"],
)
def test_step_capped_rows_climb_along_quasi_newton_directions(alpha):
    # On these rows the secant step asks for ~2 and _STEP_CAP clips it to
    # 0.2, so a climb along the gradient shrinks it only x0.9 per step and
    # takes 135-147 gradients calls; the L-BFGS unit step takes 18-29.
    a1, a2, _ = alpha
    objective = _RowCounter(optimize._CutObjective(
        build_canonical_unitary(alpha), MeasureKind.CONCURRENCE_SQUARED, 0, 0
    ))
    raw0 = np.array([make_rng(s).standard_normal(objective.n_raw) for s in range(8)])
    raw, value = optimize._ascend(objective, raw0, OptimizerConfig(restarts=8))
    assert sum(name == "gradients" for name, _ in objective.calls) <= 40
    certificate = optimize._certificate_norms(objective.objective, raw)
    assert np.all(certificate < optimize._CONVERGED_GRAD_NORM)
    assert np.all(np.abs(value - np.sin(2 * (a1 + a2))) <= 1e-12)


@pytest.mark.parametrize(
    "measure, anc, climb_calls, closed_form",
    [
        (MeasureKind.CONCURRENCE_SQUARED, 0, None, capacity_c2),
        (MeasureKind.LINEAR_ENTROPY, 0, None, capacity_linear_entropy),
        (MeasureKind.ENTROPY_OF_ENTANGLEMENT, 0, 32, capacity_entropy_no_ancilla),
        (MeasureKind.LINEAR_ENTROPY, 1, 30, None),
    ],
    ids=["c2", "linear", "entropy", "linear-a11"],
)
def test_smooth_measures_climb_one_stall_window_then_polish(
    measure, anc, climb_calls, closed_form
):
    # On this region-boundary gate the L-BFGS climb crawled between 1e-3
    # and 1e-5 for 58 (c2) and 54 (linear entropy) gradients calls; without
    # ancillas the smooth measures now climb one stall window and the Newton
    # polish finishes.  The entropy, and the linear entropy with ancillas,
    # whose Hessians of 2n gradient rows cost more, climb as before.
    triple = (np.pi / 8, np.pi / 8, 0.0)
    objective = _RowCounter(
        optimize._CutObjective(build_canonical_unitary(triple), measure, anc, anc)
    )
    raw0 = np.array([make_rng(s).standard_normal(objective.n_raw) for s in range(8)])
    raw, value = optimize._climb(objective, raw0, OptimizerConfig(restarts=8))
    climb = sum(name == "gradients" for name, _ in objective.calls)
    if climb_calls is None:
        assert climb <= optimize._STALL_WINDOW
    else:
        assert climb == climb_calls
    raw, value = optimize._newton_polish(objective.objective, raw, value)
    certificate = optimize._certificate_norms(objective.objective, raw)
    assert np.all(certificate < optimize._CONVERGED_GRAD_NORM)
    if closed_form is not None:
        assert np.all(np.abs(value - closed_form(triple).value) <= 1e-12), value


class _RaySpy:
    """An objective that checks every climb trial against the ray of its
    restart: the normalized ray from its unit row r along its tangent
    gradient g at the last gradients call.  ``rows`` are the restarts of its
    parameter rows; ``log`` counts trials "on" and "off" their rays."""

    def __init__(self, objective, rows, log, rays=None):
        self.objective, self.rows, self.log = objective, rows, log
        self.n_raw, self.measure = objective.n_raw, objective.measure
        self.rays = {} if rays is None else rays

    def take(self, rows):
        return _RaySpy(self.objective.take(rows), self.rows[rows], self.log, self.rays)

    def gradients(self, raw):
        grad = self.objective.gradients(raw)
        self.rays.update(zip(self.rows, zip(raw, optimize._tangent(grad, raw))))
        return grad

    def values(self, raw):
        if raw.ndim == 3:  # the climb's trials; its start values are 2-D
            for i, trials in zip(self.rows, raw):
                r, g = self.rays[i]
                along = trials @ g
                rest = trials - np.outer(trials @ r, r) - np.outer(along / (g @ g), g)
                on = (np.linalg.norm(rest, axis=1) <= 1e-12) & (along > 0)
                self.log["on"] += np.count_nonzero(on)
                self.log["off"] += np.count_nonzero(~on)
        return self.objective.values(raw)


@pytest.mark.parametrize(
    "measure, anc, smooth",
    [
        (MeasureKind.ENTROPY_OF_ENTANGLEMENT, (0, 0), False),
        (MeasureKind.ENTROPY_OF_ENTANGLEMENT, (1, 1), False),
        (MeasureKind.CONCURRENCE, (0, 0), False),
        (MeasureKind.CONCURRENCE_SQUARED, (0, 0), True),
    ],
    ids=["entropy", "entropy-a11", "concurrence", "c2"],
)
def test_only_smooth_measures_climb_off_the_gradient_ray(measure, anc, smooth):
    # The kinked measures keep no quasi-Newton memory: every trial lies on
    # its row's gradient ray.  On c2 some trials follow L-BFGS directions.
    log = {"on": 0, "off": 0}
    objective = optimize._CutObjective(REGION_1_GATE, measure, *anc)
    spy = _RaySpy(objective, np.arange(8), log)
    raw0 = np.array([make_rng(s).standard_normal(spy.n_raw) for s in range(8)])
    optimize._climb(spy, raw0, OptimizerConfig(max_iterations=40))
    assert log["on"] > 0
    assert (log["off"] > 0) == smooth, log


class _StepSpy:
    """An objective that watches the climb's steps.  ``rows`` are the
    restarts of its parameter rows; ``log`` holds every value it returned, by
    (restart, row bytes), so that at each gradients call it finds the value
    the climb holds for the row and counts in "lowered" the restarts whose
    accepted step lowered it.  For the first values call after each
    gradients call it logs in "steps" the step of every trial that lies on
    its row's gradient ray."""

    def __init__(self, objective, rows, log):
        self.objective, self.rows, self.log = objective, rows, log
        self.n_raw, self.measure = objective.n_raw, objective.measure

    def take(self, rows):
        return _StepSpy(self.objective.take(rows), self.rows[rows], self.log)

    def gradients(self, raw):
        grad = self.objective.gradients(raw)
        for i, r, g in zip(self.rows, raw, optimize._tangent(grad, raw)):
            value = self.log["seen"][i, r.tobytes()]
            self.log["lowered"] += value < self.log["held"].get(i, -np.inf)
            self.log["held"][i], self.log["ray"][i] = value, (r, g)
        self.log["first"] = True
        return grad

    def values(self, raw):
        out = self.objective.values(raw)
        m, n = len(raw), raw.shape[-1]
        for i, trials, vals in zip(self.rows, raw.reshape(m, -1, n), out.reshape(m, -1)):
            self.log["seen"].update(((i, t.tobytes()), v) for t, v in zip(trials, vals))
            if self.log["first"]:
                r, g = self.log["ray"][i]
                along = trials @ g / (g @ g)
                rest = trials - np.outer(trials @ r, r) - np.outer(along, g)
                on = (np.linalg.norm(rest, axis=1) <= 1e-12) & (along > 0)
                self.log["steps"].extend(along[on] / (trials[on] @ r))
        self.log["first"] = False
        return out


@pytest.mark.parametrize(
    "measure, anc, nonmonotone",
    [
        (MeasureKind.ENTROPY_OF_ENTANGLEMENT, (1, 1), True),
        (MeasureKind.ENTROPY_OF_ENTANGLEMENT, (0, 0), False),
        (MeasureKind.CONCURRENCE, (0, 0), False),
        (MeasureKind.CONCURRENCE_SQUARED, (0, 0), False),
    ],
    ids=["entropy-a11", "entropy", "concurrence", "c2"],
)
def test_only_kinked_measures_with_ancillas_accept_lower_values(measure, anc, nonmonotone):
    # With ancillas the entropy climbs by Raydan's global Barzilai-Borwein
    # method: a step may lower a row's value, and the secant step is capped
    # at 1.  Everywhere else each accepted step raises the value, and the
    # secant step is capped at _STEP_CAP (0.2).
    log = {"seen": {}, "held": {}, "ray": {}, "steps": [], "lowered": 0, "first": False}
    objective = optimize._CutObjective(REGION_1_GATE, measure, *anc)
    spy = _StepSpy(objective, np.arange(8), log)
    raw0 = np.array([make_rng(s).standard_normal(spy.n_raw) for s in range(8)])
    optimize._climb(spy, raw0, OptimizerConfig(max_iterations=40))
    assert log["steps"]
    assert (log["lowered"] > 0) == nonmonotone, log["lowered"]
    longest = max(log["steps"])
    assert (longest > optimize._STEP_CAP + 1e-9) == nonmonotone, longest


class _LiveRowCounter(_RowCounter):
    """A _RowCounter that logs each gradients call with its live rows: those
    whose tangent norm is not below the climb's exit, which try a rung."""

    def take(self, rows):
        return _LiveRowCounter(self.objective.take(rows), self.calls)

    def gradients(self, raw):
        grad = self.objective.gradients(raw)
        tangent = optimize._tangent(grad, raw)
        norm = np.sqrt(optimize._dots(tangent, tangent))
        live = np.count_nonzero(~(norm < optimize._EXIT_GRAD_NORM))
        self.calls.append(("gradients", live))
        return grad


def test_line_search_tries_the_secant_rung_alone_first():
    # At n = 8 as for every n: the first values call after each gradients
    # call of the climb has one trial per live row (done rows try no rung).
    objective = _LiveRowCounter(
        optimize._CutObjective(REGION_1_GATE, MeasureKind.CONCURRENCE_SQUARED, 0, 0)
    )
    assert objective.n_raw == 8
    raw0 = np.array([make_rng(s).standard_normal(8) for s in range(4)])
    optimize._climb(objective, raw0, OptimizerConfig(max_iterations=30))
    calls = objective.calls
    iterations = [i for i, (name, _) in enumerate(calls) if name == "gradients"]
    assert len(iterations) > 1
    for i in iterations:
        if i + 1 < len(calls):
            assert calls[i + 1] == ("values", calls[i][1]), (i, calls[i : i + 2])


@pytest.mark.parametrize(
    "measure, anc, smooth",
    [
        (MeasureKind.CONCURRENCE_SQUARED, (0, 0), True),
        (MeasureKind.ENTROPY_OF_ENTANGLEMENT, (1, 1), False),
    ],
    ids=["c2", "entropy-a11"],
)
def test_polish_tries_the_full_newton_step_alone_first_on_smooth_measures(
    measure, anc, smooth
):
    # A polish round is one gradients call on its rows, the Hessians' calls
    # (2n rows per polishing row) and then the line search's values calls.
    # A smooth measure's first values call has at most one trial per
    # polishing row; any other measure's tries the whole Newton ladder.
    objective = _RowCounter(optimize._CutObjective(REGION_1_GATE, measure, *anc))
    n = objective.n_raw
    raw0 = np.array([make_rng(s).standard_normal(n) for s in range(4)])
    raw, value = optimize._climb(objective.objective, raw0, OptimizerConfig(max_iterations=3))
    optimize._newton_polish(objective, raw, value)
    # Per round: [gradient rows, Hessian rows, rows of the first values call].
    rounds, calls = [], objective.calls
    for i, (name, m) in enumerate(calls):
        if name == "gradients" and (i == 0 or calls[i - 1][0] == "values"):
            rounds.append([m, 0, None])
        elif name == "gradients":
            rounds[-1][1] += m
        elif rounds[-1][2] is None:
            rounds[-1][2] = m
    polished = [(hessian // (2 * n), first) for _, hessian, first in rounds if first]
    assert polished
    ladder = len(optimize._POLISH_LADDER)
    for polishing, first in polished:
        if smooth:
            assert first <= polishing, (polishing, first)
        else:
            assert first % ladder == 0 and first <= ladder * polishing, (polishing, first)


def test_polish_leaves_converged_rows_bit_identical():
    # A mixed block: rows that certify at their climb's exit, and rows cut
    # short after a few iterations.
    objective = optimize._CutObjective(REGION_1_GATE, MeasureKind.LINEAR_ENTROPY, 0, 0)
    raw0 = np.array([make_rng(s).standard_normal(objective.n_raw) for s in range(6)])
    done = optimize._ascend(objective, raw0[:3], OptimizerConfig())
    rough = optimize._climb(objective, raw0[3:], OptimizerConfig(max_iterations=3))
    raw, value = (np.concatenate(pair) for pair in zip(done, rough))
    grad = optimize._tangent(objective.gradients(raw), raw)
    small = np.sqrt(np.sum(grad**2, axis=1)) < optimize._EXIT_GRAD_NORM
    assert small.any() and not small.all()
    # A converged row leaves before any rung is tried: even a claimed value
    # below the one it holds, which any step would beat, does not move it.
    value[small] -= 1e-3
    polished_raw, polished_value = optimize._newton_polish(objective, raw, value)
    assert np.array_equal(polished_raw[small], raw[small])
    assert np.array_equal(polished_value[small], value[small])
    for i in np.flatnonzero(~small):
        alone_raw, alone_value = optimize._newton_polish(
            objective, raw[i : i + 1], value[i : i + 1]
        )
        assert polished_value[i] > value[i]
        assert abs(alone_value[0] - polished_value[i]) <= 1e-12, i
        assert np.abs(alone_raw[0] - polished_raw[i]).max() <= 1e-12, i


@pytest.mark.parametrize(
    "measure", [MeasureKind.ENTROPY_OF_ENTANGLEMENT, MeasureKind.CONCURRENCE_SQUARED]
)
def test_values_and_gradients_go_through_entanglement_batch(monkeypatch, measure):
    # The benchmark counts kernel rows by wrapping this name where
    # entcap.optimize looks it up; a value or gradient computed past it would
    # read as 0 rows.
    rows = []
    real = optimize.entanglement_batch

    def counted(states, *args):
        rows.append(len(states))
        return real(states, *args)

    monkeypatch.setattr(optimize, "entanglement_batch", counted)
    for product, per_call in ((False, 6), (True, 3)):
        objective = optimize._CutObjective(REGION_1_GATE, measure, 0, 0, product)
        raw = make_rng(5).standard_normal((3, objective.n_raw))
        for method in (objective.gradients, objective.values):
            rows.clear()
            method(raw)
            # A free row's input and output terms share one call; a product
            # row's input term is zero and needs no row.
            assert rows == [per_call], (product, method.__name__)


def test_polish_returns_when_no_row_can_move():
    # Every row claims a value that no state reaches (a c2 gain is at most
    # 1), so all of them leave in the first round, unchanged.
    objective = optimize._CutObjective(CNOT, MeasureKind.CONCURRENCE_SQUARED, 0, 0)
    raw = np.array([make_rng(s).standard_normal(objective.n_raw) for s in range(3)])
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    value = np.full(3, 2.0)
    polished_raw, polished_value = optimize._newton_polish(objective, raw, value)
    assert np.array_equal(polished_raw, raw)
    assert np.array_equal(polished_value, value)


class _Linear:
    """c.x of the unit row x, with the constant gradient c: every
    central-difference Hessian is exactly 0, so no row has a Newton
    direction, while the gradient still points uphill."""

    c = np.array([0.0, 0.0, 3.0, 1.0])

    def __init__(self, measure):
        self.measure = measure

    def take(self, rows):
        return self

    def values(self, raw):
        return raw @ self.c / np.linalg.norm(raw, axis=-1)

    def gradients(self, raw):
        return np.broadcast_to(self.c, raw.shape).copy()


@pytest.mark.parametrize(
    "measure", [MeasureKind.CONCURRENCE_SQUARED, MeasureKind.ENTROPY_OF_ENTANGLEMENT]
)
def test_polish_steps_only_along_newton_directions(measure):
    # Both rows could climb along their gradients, but the polish tries
    # Newton rungs only, so a row without a Newton direction leaves as it
    # came.
    objective = _Linear(measure)
    raw = np.array([[1.0, 0.0, 0.0, 0.0], [0.6, 0.8, 0.0, 0.0]])
    value = objective.values(raw)
    grad = optimize._tangent(objective.gradients(raw), raw)
    assert (np.sqrt(np.sum(grad**2, axis=1)) >= optimize._EXIT_GRAD_NORM).all()
    polished_raw, polished_value = optimize._newton_polish(objective, raw, value)
    assert np.array_equal(polished_raw, raw)
    assert np.array_equal(polished_value, value)


def test_concurrence_rejects_ancillas():
    with pytest.raises(UnsupportedMeasureError):
        numeric_capacity(CNOT, MeasureKind.CONCURRENCE, anc_a=1, cfg=FAST)
    with pytest.raises(UnsupportedMeasureError):
        numeric_capacity(CNOT, MeasureKind.CONCURRENCE_SQUARED, anc_b=2, cfg=FAST)


def test_determinism_same_seed_same_result():
    a = numeric_capacity(CNOT, MeasureKind.CONCURRENCE_SQUARED, cfg=FAST)
    b = numeric_capacity(CNOT, MeasureKind.CONCURRENCE_SQUARED, cfg=FAST)
    assert a.value == b.value
    assert a.best_restart_seed == b.best_restart_seed
    assert np.array_equal(a.optimal_state.amplitudes, b.optimal_state.amplitudes)


def test_product_start_reproduces_binary_entropy_curve():
    alpha = np.pi / 8
    res = product_start_capacity(
        build_canonical_unitary((alpha, 0, 0)),
        MeasureKind.ENTROPY_OF_ENTANGLEMENT,
        anc_a=1,
        anc_b=1,
        cfg=OptimizerConfig(restarts=12, master_seed=5),
    )
    assert res.initial_entanglement == 0.0
    assert res.value == pytest.approx(binary_entropy(np.cos(alpha) ** 2), abs=1e-4)


def test_product_start_identity_is_zero():
    res = product_start_capacity(
        IDENTITY4, MeasureKind.ENTROPY_OF_ENTANGLEMENT, cfg=FAST
    )
    assert abs(res.value) < 1e-9


def test_product_start_never_exceeds_free_start():
    u = build_canonical_unitary((0.22, 0.17, 0.05))
    for measure in (MeasureKind.CONCURRENCE_SQUARED, MeasureKind.ENTROPY_OF_ENTANGLEMENT):
        free = numeric_capacity(u, measure, cfg=FAST)
        prod = product_start_capacity(u, measure, cfg=FAST)
        assert prod.value <= free.value + 1e-9
        assert prod.value >= -1e-12


def test_convergence_failure_raises():
    # dimension-64 problems skip the second-order cleanup, so a one-iteration
    # budget cannot reach the gradient threshold on any restart
    cfg = OptimizerConfig(restarts=2, max_iterations=1, master_seed=1)
    with pytest.raises(ConvergenceError):
        numeric_capacity(
            SWAP, MeasureKind.ENTROPY_OF_ENTANGLEMENT, anc_a=2, anc_b=2, cfg=cfg
        )


def test_initial_entanglement_raises_the_ancilla_capacity():
    # The paper finds that with ancillas, initial entanglement typically
    # raises a gate's capacity.  Beyond the CNOT family: on 12 seeded Haar
    # gates and on the DCNOT and SWAP families, free 1+1 beats the 1+1
    # search from product states by at least 1e-3, and at pi/4 both reach
    # 2 ebits.  Every restart of every search certifies.
    kind, cfg = MeasureKind.ENTROPY_OF_ENTANGLEMENT, OptimizerConfig(restarts=8)
    points = [
        (f"haar {s}", haar_random_unitary(4, s), False) for s in range(1000, 1012)
    ]
    points += [
        (f"{family.value} {alpha:.4f}", family_unitary(GateFamily(family, alpha)),
         alpha == QUARTER_PI)
        for family in (FamilyKind.DCNOT, FamilyKind.SWAP)
        for alpha in (np.pi / 8, 3 * np.pi / 16, QUARTER_PI)
    ]
    labels, gates, two_ebits = zip(*points)
    # Both searches of every gate climb as one lockstep block each.
    free, product = (
        optimize._capacities(gates, kind, 1, 1, cfg, start) for start in (False, True)
    )
    failures = []
    for label, f, p, two in zip(labels, free, product, two_ebits):
        if (f.converged_restarts, p.converged_restarts) != (8, 8):
            failures.append(f"{label}: {f.converged_restarts}, {p.converged_restarts}")
        if two:
            if max(abs(f.value - 2), abs(p.value - 2)) > 1e-9:
                failures.append(f"{label}: {f.value!r}, {p.value!r}, not 2")
        elif f.value - p.value < 1e-3:
            failures.append(f"{label}: gain {f.value - p.value:.3g}")
    assert not failures, failures


def test_family_unitary_members():
    assert np.allclose(family_unitary(GateFamily(FamilyKind.CNOT, 0.0)), np.eye(4))
    swap_member = family_unitary(GateFamily(FamilyKind.SWAP, QUARTER_PI))
    assert invariants_match(local_invariants(swap_member), local_invariants(SWAP))
    dcnot_member = family_unitary(GateFamily(FamilyKind.DCNOT, QUARTER_PI))
    assert decompose(dcnot_member).alpha == pytest.approx(
        (QUARTER_PI, QUARTER_PI, 0), abs=1e-10
    )
    with pytest.raises(ValueError):
        family_unitary(GateFamily(FamilyKind.CNOT, 1.0))
    with pytest.raises(ValueError):
        family_unitary(GateFamily(FamilyKind.CNOT, -0.2))


def test_family_sweep_rows_and_error_capture():
    rows = family_sweep(
        FamilyKind.CNOT, [0.0, 0.3, 9.0], MeasureKind.CONCURRENCE_SQUARED, cfg=FAST
    )
    assert len(rows) == 3
    assert rows[0].alpha == 0.0
    assert abs(rows[0].capacity) < 1e-9
    assert rows[1].capacity == pytest.approx(np.sin(0.6), abs=1e-5)
    assert rows[1].error is None
    assert math.isnan(rows[2].capacity)
    assert "outside" in rows[2].error


def test_sweep_needs_a_worker_and_a_grid_point():
    c2 = MeasureKind.CONCURRENCE_SQUARED
    for workers in (0, -3):
        with pytest.raises(ValueError, match="need at least one worker"):
            family_sweep(FamilyKind.CNOT, [0.3], c2, cfg=FAST, workers=workers)
        with pytest.raises(ValueError, match="need at least one worker"):
            custom_sweep([(0.3, 0.2, 0.1)], c2, cfg=FAST, workers=workers)
    with pytest.raises(ValueError, match="need at least one grid point"):
        family_sweep(FamilyKind.CNOT, [], c2, cfg=FAST)


def test_sweep_propagates_programming_errors(monkeypatch):
    def broken(*args):
        raise TypeError("a bug, not a domain error")

    monkeypatch.setattr(optimize, "_ascend", broken)
    with pytest.raises(TypeError):
        family_sweep(FamilyKind.CNOT, [0.3], MeasureKind.CONCURRENCE_SQUARED, cfg=FAST)


def _outcome(row):
    """A sweep row's numbers, or a CapacityResult's, as one tuple."""
    if isinstance(row, CapacityResult):
        return (row.value, row.initial_entanglement, row.final_entanglement,
                row.converged_restarts)
    return (row.capacity, row.initial_entanglement, row.final_entanglement,
            row.converged_restarts)


def test_sweep_rows_equal_numeric_capacity_bit_for_bit():
    c2, entropy = MeasureKind.CONCURRENCE_SQUARED, MeasureKind.ENTROPY_OF_ENTANGLEMENT
    triples = [(0.3, 0.2, 0.1), (np.pi / 8, np.pi / 8, 0.0), (0.7, 0.5, 0.3),
               (0.6, 0.3, 0.1)]
    for triple, row in zip(triples, custom_sweep(triples, c2, cfg=FAST)):
        alone = numeric_capacity(build_canonical_unitary(triple), c2, cfg=FAST)
        assert _outcome(row) == _outcome(alone), triple
    alphas = [0.2, np.pi / 8, QUARTER_PI]
    rows = family_sweep(FamilyKind.DCNOT, alphas, entropy, 1, 1, cfg=FAST)
    for alpha, row in zip(alphas, rows):
        u = family_unitary(GateFamily(FamilyKind.DCNOT, alpha))
        alone = numeric_capacity(u, entropy, 1, 1, cfg=FAST)
        assert _outcome(row) == _outcome(alone), alpha


def test_sweep_row_without_a_certified_restart_is_an_error_row(monkeypatch):
    c2 = MeasureKind.CONCURRENCE_SQUARED
    triples = [(0.3, 0.2, 0.1), (0.5, 0.4, 0.1), (0.7, 0.5, 0.3)]
    before = custom_sweep(triples, c2, cfg=FAST)
    failing = build_canonical_unitary(triples[1])
    real = optimize._certificate_norms

    def failing_gate_never_certifies(objective, raw):
        norms = real(objective, raw)
        norms[np.all(objective.u == failing, axis=(1, 2))] = np.inf
        return norms

    monkeypatch.setattr(optimize, "_certificate_norms", failing_gate_never_certifies)
    rows = custom_sweep(triples, c2, cfg=FAST)
    assert rows[1].error == "no restart reached gradient norm below 1e-06"
    assert math.isnan(rows[1].capacity)
    assert rows[1].converged_restarts == 0
    assert rows[0] == before[0]
    assert rows[2] == before[2]


def test_sweep_searches_each_distinct_gate_once(monkeypatch):
    # A row depends only on its gate, seeds and config, so a repeated gate
    # searches once and its repeat copies the row under its own label; error
    # rows stay their own.  On the CNOT family the builder clamps a slightly
    # too large alpha to pi/4.
    c2, real, searched = MeasureKind.CONCURRENCE_SQUARED, optimize._capacities, []

    def spy(gates, *args):
        searched.extend(np.asarray(u).tobytes() for u in gates)
        return real(gates, *args)

    triples = [(0.3, 0.2, 0.1), (0.5, 0.0, 0.0), (0.3, 0.2, 0.1), (0.5, 0.0, 0.0),
               (0.6, 0.3, 0.1), (0.3, 0.2, 0.1), (0.4, math.nan, 0.0), (0.4, math.nan, 0.0)]
    alphas = [0.2, QUARTER_PI, QUARTER_PI + 5e-10]
    fresh = custom_sweep(triples[:2] + triples[4:5], c2, cfg=FAST)
    monkeypatch.setattr(optimize, "_capacities", spy)
    serial = custom_sweep(triples, c2, cfg=FAST)
    assert len(searched) == len(set(searched)) == 3
    assert serial[:2] + serial[4:5] == fresh
    assert serial[2] == serial[5] == serial[0] and serial[3] == serial[1]
    assert serial[6].error and serial[7].error and math.isnan(serial[7].capacity)
    searched.clear()
    rows = family_sweep(FamilyKind.CNOT, alphas, c2, cfg=FAST)
    assert len(searched) == len(set(searched)) == 2
    assert [row.alpha for row in rows] == alphas
    assert rows[2] == replace(rows[1], alpha=alphas[2])
    # The same twins and error rows through a pool of two in-process chunks.
    searched.clear()
    monkeypatch.setattr(SerialPool, "sizes", [])
    monkeypatch.setattr(optimize, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(optimize, "_pool_size", lambda workers, rows: 2)
    assert custom_sweep(triples, c2, cfg=FAST, workers=2) == serial
    assert SerialPool.sizes == [2]
    assert len(searched) == len(set(searched)) == 3


def test_sweep_of_error_rows_runs_no_search(monkeypatch):
    # NaN triples are not unitary, and the concurrence has no ancillas: with
    # no gate left to search, neither a search nor a pool starts.
    def refuse(*args, **kwargs):
        raise AssertionError("a search ran")

    monkeypatch.setattr(optimize, "_capacities", refuse)
    monkeypatch.setattr(optimize, "ProcessPoolExecutor", refuse)
    nan = [(math.nan, math.nan, math.nan), (0.4, math.nan, 0.0)]
    rows = custom_sweep(nan, MeasureKind.CONCURRENCE_SQUARED, cfg=FAST, workers=2)
    rows += family_sweep(
        FamilyKind.CNOT, [0.1, 0.3], MeasureKind.CONCURRENCE, 1, 1, cfg=FAST, workers=2
    )
    assert math.isnan(rows[0].alpha)
    assert [row.alpha for row in rows[1:]] == [0.4, 0.1, 0.3]
    assert all(row.error and math.isnan(row.capacity) for row in rows)
    assert all(row.converged_restarts == 0 for row in rows)


def test_sweep_pool_is_bounded_by_rows_and_cpus(monkeypatch):
    # Only the computed size is checked; no process is started.  The CPUs
    # that count are those the process may run on, not all the machine's.
    monkeypatch.setattr(optimize.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(
        optimize.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False
    )
    assert optimize._pool_size(1, 75) == 1
    assert optimize._pool_size(3, 75) == 3
    assert optimize._pool_size(10_000, 75) == 4
    assert optimize._pool_size(10_000, 2) == 2
    assert optimize._pool_size(0, 75) == 1
    # Pinned to one CPU (as under taskset -c 0), two workers get one process.
    monkeypatch.setattr(optimize.os, "sched_getaffinity", lambda pid: {0})
    assert optimize._pool_size(2, 75) == 1
    # Where the platform has no affinity, the machine's count bounds the pool.
    monkeypatch.delattr(optimize.os, "sched_getaffinity")
    monkeypatch.setattr(optimize.os, "cpu_count", lambda: 4)
    assert optimize._pool_size(10_000, 75) == 4
    monkeypatch.setattr(optimize.os, "cpu_count", lambda: None)
    assert optimize._pool_size(8, 75) == 1


def test_family_sweep_worker_count_is_invisible():
    grid = [0.1, 0.5, QUARTER_PI]
    serial = family_sweep(
        FamilyKind.DCNOT, grid, MeasureKind.CONCURRENCE_SQUARED, cfg=FAST
    )
    pooled = family_sweep(
        FamilyKind.DCNOT, grid, MeasureKind.CONCURRENCE_SQUARED, cfg=FAST, workers=2
    )
    assert serial == pooled


@pytest.mark.parametrize(
    "kind, bound",
    [
        # A controlled gate runs by LOCC on 1 ebit (Eisert, Jacobs,
        # Papadopoulos & Plenio, PRA 62, 052317), and exp(-i a XX) is one.
        (FamilyKind.CNOT, 1.0),
        # Any two-qubit gate runs on 2 ebits: teleport a qubit there and back.
        (FamilyKind.DCNOT, 2.0),
        (FamilyKind.SWAP, 2.0),
    ],
    ids=["cnot", "dcnot", "swap"],
)
def test_entropy_capacity_with_ancillas_is_within_the_ebit_cost(kind, bound):
    # A gain above what running the gate costs in ebits is a program fault,
    # such as a sign error in the input term.
    rows = family_sweep(
        kind, np.linspace(0.0, QUARTER_PI, 9), MeasureKind.ENTROPY_OF_ENTANGLEMENT,
        1, 1, cfg=OptimizerConfig(restarts=8),
    )
    for row in rows:
        assert row.capacity <= bound + 1e-9, row
        assert row.converged_restarts >= 1, row


# Criterion 3's grid: a1 on five angles, a2 = f2 a1 and a3 = f3 a2.
GRID = [
    (a1, f2 * a1, f3 * f2 * a1)
    for a1 in (np.pi / 16, np.pi / 8, 3 * np.pi / 16, 7 * np.pi / 32, QUARTER_PI)
    for f2 in (0.0, 0.25, 0.5, 0.75, 1.0)
    for f3 in (0.0, 0.5, 1.0)
]


@pytest.mark.parametrize(
    "measure, closed_form",
    [
        (MeasureKind.LINEAR_ENTROPY, capacity_linear_entropy),
        (MeasureKind.ENTROPY_OF_ENTANGLEMENT, capacity_entropy_no_ancilla),
    ],
    ids=["linear", "entropy"],
)
def test_closed_forms_match_the_search_on_the_grid(measure, closed_form):
    rows = custom_sweep(GRID, measure, cfg=OptimizerConfig(restarts=8))
    for triple, row in zip(GRID, rows):
        assert abs(row.capacity - closed_form(triple).value) <= 1e-9, (triple, row)
        assert row.converged_restarts >= 1, (triple, row)


def test_restarts_split_across_blocks_give_the_unsplit_result(monkeypatch):
    # One gate's restarts exceed a shrunk block, so they search in parts of
    # two; the gate blocks of the sweep hold one gate each.
    u = _dressed(3, (np.pi / 8, np.pi / 8, 0.0))
    entropy, c2 = MeasureKind.ENTROPY_OF_ENTANGLEMENT, MeasureKind.CONCURRENCE_SQUARED
    triples = [(0.3, 0.2, 0.1), (0.7, 0.5, 0.3)]
    whole = numeric_capacity(u, entropy, 1, 1, cfg=FAST)
    rows = custom_sweep(triples, c2, cfg=FAST)
    monkeypatch.setattr(optimize, "_BLOCK_PARAMETERS", 64)
    split = numeric_capacity(u, entropy, 1, 1, cfg=FAST)
    assert _outcome(split) == _outcome(whole)
    assert split.best_restart_seed == whole.best_restart_seed
    assert np.array_equal(split.optimal_state.amplitudes, whole.optimal_state.amplitudes)
    monkeypatch.setattr(optimize, "_BLOCK_PARAMETERS", 16)
    assert custom_sweep(triples, c2, cfg=FAST) == rows


def test_certificate_chunking_changes_no_bit(monkeypatch):
    # _central_differences sends whole rows per call, up to _CERTIFICATE_ROWS
    # shifted rows: 1, 4 and 16 c2 rows, and 1, 1 and 4 rows at 1+1 ancillas,
    # at 16, 64 and the default.  The split moves no bit of a certificate, a
    # polish Hessian or a search.
    entropy, c2 = MeasureKind.ENTROPY_OF_ENTANGLEMENT, MeasureKind.CONCURRENCE_SQUARED
    u = _dressed(3, (np.pi / 8, np.pi / 8, 0.0))
    objectives = [
        optimize._CutObjective(build_canonical_unitary(GRID[8]), c2, 0, 0),
        optimize._CutObjective(u, entropy, 1, 1),
    ]
    rng = make_rng(5)
    raws = [rng.standard_normal((6, obj.n_raw)) for obj in objectives]
    raws = [raw / np.linalg.norm(raw, axis=1, keepdims=True) for raw in raws]
    grid = GRID[::6]

    def run():
        found = [optimize._certificate_norms(obj, raw) for obj, raw in zip(objectives, raws)]
        found += [
            optimize._central_differences(obj, raw, optimize._HESSIAN_STEP, gradients=True)
            for obj, raw in zip(objectives, raws)
        ]
        search = numeric_capacity(u, entropy, 1, 1, cfg=FAST)
        found.append(search.optimal_state.amplitudes)
        return found, custom_sweep(grid, c2, cfg=OptimizerConfig(restarts=8)), _outcome(search)

    want = run()
    for rows in (16, 64):
        monkeypatch.setattr(optimize, "_CERTIFICATE_ROWS", rows)
        found, sweep, outcome = run()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(found, want[0]))
        assert sweep == want[1] and outcome == want[2]


@pytest.mark.parametrize("block, most", [(128, 10), (64, 5), (32, 4), (4, 1)])
def test_ascend_never_holds_more_rows_than_a_block(monkeypatch, block, most):
    # A block holds at most _BLOCK_PARAMETERS parameters, and at least one
    # restart when a single one exceeds it (n = 8 for c2).
    sizes, real = [], optimize._ascend

    def recorded(objective, raw0, cfg):
        sizes.append(len(raw0))
        return real(objective, raw0, cfg)

    monkeypatch.setattr(optimize, "_ascend", recorded)
    monkeypatch.setattr(optimize, "_BLOCK_PARAMETERS", block)
    custom_sweep([(0.3, 0.2, 0.1), (0.7, 0.5, 0.3)], MeasureKind.CONCURRENCE_SQUARED,
                 cfg=OptimizerConfig(restarts=5))
    assert sizes and max(sizes) == most
    assert sum(sizes) == 2 * 5


_PEAK_RSS_SCRIPT = """
import resource, sys
from entcap.errors import ConvergenceError
from entcap.measures import MeasureKind
from entcap.optimize import OptimizerConfig, numeric_capacity
from entcap.qcore import DCNOT
cfg = OptimizerConfig(restarts=int(sys.argv[1]), max_iterations=3)
try:
    numeric_capacity(DCNOT, MeasureKind.LINEAR_ENTROPY, 2, 2, cfg)
except ConvergenceError:  # three iterations certify nothing: only memory counts
    pass
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _peak_rss(restarts):
    """Peak RSS of a fresh process that runs one 2+2 linear-entropy search."""
    src = str(Path(entcap.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_SCRIPT, str(restarts)],
        capture_output=True, text=True, check=True, env=env, timeout=60,
    )
    return int(out.stdout)


def test_peak_rss_is_flat_in_the_restart_count():
    # A search climbs its restarts in parts of one block, each with its own
    # quasi-Newton memory (linear entropy is smooth; n = 128 at 2+2), so four
    # blocks of restarts need about the memory of one.
    pytest.importorskip("resource")
    n = optimize._CutObjective(DCNOT, MeasureKind.LINEAR_ENTROPY, 2, 2).n_raw
    block = optimize._BLOCK_PARAMETERS // n
    assert block >= 64
    one, four = _peak_rss(block), _peak_rss(4 * block)
    assert four <= 1.1 * one, (one, four)


def test_custom_sweep_uses_leading_angle():
    rows = custom_sweep(
        [(0.5, 0.4, 0.1), (0.2, 0.1, 0.0)], MeasureKind.CONCURRENCE_SQUARED, cfg=FAST
    )
    assert [r.alpha for r in rows] == [0.5, 0.2]
    assert rows[1].capacity == pytest.approx(np.sin(0.6), abs=1e-5)


def test_custom_sweep_nan_angle_is_an_error_row():
    rows = custom_sweep(
        [(0.3, math.nan, 0.0), (0.2, 0.1, 0.0)], MeasureKind.CONCURRENCE_SQUARED,
        cfg=FAST,
    )
    assert rows[0].alpha == 0.3
    assert math.isnan(rows[0].capacity)
    assert rows[0].converged_restarts == 0
    assert rows[0].error
    assert rows[1].error is None
    assert rows[1].capacity == pytest.approx(np.sin(0.6), abs=1e-5)


def test_minimize_initial_entanglement_keeps_value():
    u = build_canonical_unitary((0.15, 0.1, 0.05))
    base = numeric_capacity(u, MeasureKind.CONCURRENCE_SQUARED, cfg=FAST)
    with warnings.catch_warnings():
        # The penalized search must reach its target, not fall back.
        warnings.simplefilter("error")
        low = minimize_initial_entanglement(
            u, MeasureKind.CONCURRENCE_SQUARED, cfg=FAST
        )
    assert isinstance(low, CapacityResult)
    assert low.value >= base.value - 1e-6
    # On the small-angle branch the optimum mixes one Bell pair with gap
    # 2(a1 + a2) = 0.5; moving its mixing phase by t gains sin(0.5) cos(t)
    # from E0 = (1 - sin(0.5 + |t|)) / 2.  The capacity state (t = 0) sits
    # at the floor of that curve; the slack lets E0 fall ~9e-4 along it.
    floor = (1 - np.sin(0.5 + np.arccos(low.value / np.sin(0.5)))) / 2
    assert low.initial_entanglement == pytest.approx(floor, abs=1e-6)
    assert low.initial_entanglement <= base.initial_entanglement - 5e-4


def test_minimize_initial_entanglement_cnot_reaches_product():
    low = minimize_initial_entanglement(CNOT, MeasureKind.CONCURRENCE_SQUARED, cfg=FAST)
    assert low.value >= 1 - 1e-6
    assert low.initial_entanglement < 1e-6


def test_minimize_initial_entanglement_warns_when_search_misses_target():
    # With a negligible penalty the search only lowers E0 and drifts off
    # capacity: twelve tenfold raises still leave it at 1.
    u = build_canonical_unitary((0.15, 0.1, 0.05))
    base = numeric_capacity(u, MeasureKind.CONCURRENCE_SQUARED, cfg=FAST)
    with pytest.warns(RuntimeWarning, match="short of its target"):
        low = minimize_initial_entanglement(
            u, MeasureKind.CONCURRENCE_SQUARED, cfg=FAST, penalty=1e-12
        )
    assert low.value == base.value
    assert low.initial_entanglement == base.initial_entanglement
    assert np.array_equal(low.optimal_state.amplitudes, base.optimal_state.amplitudes)


@pytest.mark.parametrize(
    "arguments",
    [
        {"value_slack": -1e-3},
        {"value_slack": 0.0},
        {"value_slack": math.nan},
        {"penalty": 0.0},
        {"penalty": -5.0},
    ],
    ids=["negative-slack", "zero-slack", "nan-slack", "zero-penalty", "negative-penalty"],
)
def test_minimize_initial_entanglement_rejects_bad_slack_and_penalty(
    monkeypatch, arguments
):
    # The inputs are checked before any search runs.
    def no_search(*args, **kwargs):
        raise AssertionError("a search ran")

    monkeypatch.setattr(optimize, "_capacities", no_search)
    u = build_canonical_unitary((0.3, 0.2, 0.1))
    with pytest.raises(ValueError, match="slack and penalty"):
        minimize_initial_entanglement(
            u, MeasureKind.CONCURRENCE_SQUARED, cfg=FAST, **arguments
        )
