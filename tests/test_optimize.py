import math
import warnings

import numpy as np
import pytest

from entcap import optimize
from entcap.canonical import decompose, invariants_match, local_invariants
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


def test_sweep_uses_the_pool_set_on_the_module(monkeypatch):
    # The pool is imported on first use, yet a pool set on the module (as
    # the benchmark's tracer sets one) is the one a sweep opens.
    sizes = []

    class SerialPool:
        """A stand-in process pool that maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(optimize, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(optimize, "_pool_size", lambda workers, rows: 2)
    grid = [0.1, QUARTER_PI]
    rows = family_sweep(
        FamilyKind.CNOT, grid, MeasureKind.CONCURRENCE_SQUARED, cfg=FAST, workers=2
    )
    assert sizes == [2]
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
        # step tolerance.
        (5e-11, False, None),
        # 1e-10 would come closest, but 2e-10 is the best rung above it.
        (1.2e-10, True, 2e-10),
    ],
)
def test_best_rungs_never_steps_at_or_below_tolerance(target, found, x0):
    assert optimize._STEP_TOLERANCE == 1e-10
    raw = np.array([[0.0, 1.0]])
    ok, new_raw, new_value = optimize._best_rungs(
        _DistanceTo(target), raw, np.array([-target]), np.array([1.0, 0.0]),
        np.zeros(1), np.array([[2e-10, 1e-10, 5e-11]]),
    )
    assert ok[0] == found
    if found:
        assert new_raw[0, 0] == pytest.approx(x0, rel=1e-9)
        assert new_value[0] == pytest.approx(-abs(x0 - target), rel=1e-6)


class _SteepQuadratic:
    """-1e6 (x0 - 1/2)^2 of the unit row x: so steep that from (0.8, 0.6)
    every rung of the 8-rung ladder overshoots the maximum."""

    n_raw = 4

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
    ladder = 0.1 * optimize._LADDER[None, : optimize._ASCENT_RUNGS]
    found, _, _ = optimize._best_rungs(
        objective, raw0, value0, grad, np.sum(grad**2, axis=1), ladder
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
    # per window sends them to the polish early.  That takes 38 gradients
    # calls, where a halving test takes 245.
    a1, a2 = np.pi / 16, 3 * np.pi / 64
    u = build_canonical_unitary((a1, a2, a2))
    objective = _RowCounter(
        optimize._CutObjective(u, MeasureKind.CONCURRENCE_SQUARED, 0, 0)
    )
    raw0 = np.array([make_rng(s).standard_normal(objective.n_raw) for s in range(8)])
    raw, value = optimize._ascend(objective, raw0, OptimizerConfig(restarts=8))
    assert sum(name == "gradients" for name, _ in objective.calls) <= 60
    certificate = optimize._certificate_norms(objective.objective, raw)
    assert np.all(certificate < optimize._CONVERGED_GRAD_NORM)
    assert abs(value.max() - np.sin(2 * (a1 + a2))) <= 1e-12


def test_line_search_tries_the_secant_rung_alone_first():
    # At n = 8 as for every n: the first values call after each gradients
    # call of the climb has one trial per climbing row.
    objective = _RowCounter(
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
    "measure, kernel",
    [
        (MeasureKind.ENTROPY_OF_ENTANGLEMENT, "_cut_terms"),
        (MeasureKind.CONCURRENCE_SQUARED, "_flip_terms"),
    ],
)
def test_gradients_go_through_the_module_kernels(monkeypatch, measure, kernel):
    # The benchmark counts gradient rows by wrapping these names where
    # entcap.optimize looks them up; a gradient computed past them would
    # read as 0 rows.
    rows = []
    real = getattr(optimize, kernel)

    def counted(states, *args):
        rows.append(len(states))
        return real(states, *args)

    monkeypatch.setattr(optimize, kernel, counted)
    objective = optimize._CutObjective(REGION_1_GATE, measure, 0, 0)
    objective.gradients(make_rng(5).standard_normal((3, objective.n_raw)))
    # The input and the output term of each of the 3 rows.
    assert rows == [3, 3]


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
    # Without the penalty the search only lowers E0 and drifts off capacity.
    u = build_canonical_unitary((0.15, 0.1, 0.05))
    base = numeric_capacity(u, MeasureKind.CONCURRENCE_SQUARED, cfg=FAST)
    with pytest.warns(RuntimeWarning, match="short of its target"):
        low = minimize_initial_entanglement(
            u, MeasureKind.CONCURRENCE_SQUARED, cfg=FAST, penalty=0.0
        )
    assert low.value == base.value
    assert low.initial_entanglement == base.initial_entanglement
    assert np.array_equal(low.optimal_state.amplitudes, base.optimal_state.amplitudes)
