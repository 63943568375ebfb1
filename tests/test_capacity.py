import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entcap
from entcap import capacity as capacity_module
from entcap.canonical import CanonicalParams, bell_coefficients, decompose
from entcap.capacity import (
    RegionTag,
    _mixture_entropy,
    capacity_c2,
    capacity_concurrence,
    capacity_entropy_no_ancilla,
    capacity_linear_entropy,
    delta_c2_bell,
    region_of,
)
from entcap.errors import (
    DimensionMismatchError,
    NotCanonicalError,
    NotNormalizedError,
    ZeroCapacityError,
)
from entcap.measures import MeasureKind, concurrence, entropy_of_entanglement, evaluate
from entcap.qcore import (
    BELL_BASIS,
    CNOT,
    DCNOT,
    IDENTITY4,
    SWAP,
    PureState,
    build_canonical_unitary,
    haar_random_local_unitary,
    make_rng,
)
from entcap.optimize import interconversion_bounds, n_copy_capacity, numeric_capacity

QUARTER_PI = np.pi / 4

REGION_1_POINT = (0.2, 0.1, 0.05)
REGION_2_POINT = (QUARTER_PI, QUARTER_PI, np.pi / 16)
SATURATING_POINT = (7 * np.pi / 32, 7 * np.pi / 32, 0.0)


def test_region_classification():
    assert region_of(CanonicalParams((QUARTER_PI, 0, 0))) is RegionTag.ONE_EBIT
    assert region_of(CanonicalParams(SATURATING_POINT)) is RegionTag.ONE_EBIT
    assert region_of(CanonicalParams(REGION_1_POINT)) is RegionTag.REGION_1
    assert region_of(CanonicalParams(REGION_2_POINT)) is RegionTag.REGION_2
    assert region_of(CanonicalParams((0, 0, 0))) is RegionTag.REGION_1


def test_region_accepts_plain_triples():
    assert region_of(REGION_1_POINT) is RegionTag.REGION_1
    with pytest.raises(NotCanonicalError):
        region_of((0.9, 0.1, 0.0))
    with pytest.raises(NotCanonicalError):
        region_of((0.2, 0.3, 0.1))


@pytest.mark.parametrize(
    "alpha",
    [
        (QUARTER_PI, 0, 0),
        (QUARTER_PI, QUARTER_PI, 0),
        (np.pi / 8, np.pi / 8, np.pi / 8),
        (QUARTER_PI, QUARTER_PI - 1e-13, 3e-14),
    ],
    ids=["cnot", "dcnot", "sqrt-swap", "near-dcnot"],
)
def test_dressed_boundary_gates_saturate(alpha):
    # These classes lie on a region boundary, or within 1e-13 of one; the
    # rounding of a dressed gate's decomposition must not move them off
    # OneEbit.
    u = build_canonical_unitary(alpha)
    for seed in range(300):
        rng = make_rng(seed)
        va, vb = haar_random_local_unitary(rng)
        wa, wb = haar_random_local_unitary(rng)
        p = decompose(np.kron(va, vb) @ u @ np.kron(wa, wb))
        result = capacity_c2(p)
        assert result.region is RegionTag.ONE_EBIT, seed
        assert result.value == 1.0, seed
        # Every z_j = exp(-2i lambda_j) lies on, or within 1e-13 of, one line
        # through 0: the input is still product, and the gate maps it to one
        # e-bit.
        state = result.optimal_state
        assert concurrence(state) <= 1e-14, seed
        output = PureState(build_canonical_unitary(p) @ state.amplitudes)
        assert abs(concurrence(output) - 1.0) <= 1e-14, seed


def test_c2_branch_values():
    assert capacity_c2(REGION_1_POINT).value == pytest.approx(
        np.sin(0.6), abs=1e-14
    )
    assert capacity_c2(REGION_2_POINT).value == pytest.approx(
        np.sin(2 * (QUARTER_PI + np.pi / 16)), abs=1e-14
    )
    one = capacity_c2(SATURATING_POINT)
    assert one.value == 1.0
    assert one.region is RegionTag.ONE_EBIT


def test_c2_optimal_states_achieve_the_value():
    rng = make_rng(19)
    for _ in range(10):
        a1 = rng.uniform(0.05, QUARTER_PI)
        a2 = rng.uniform(0, min(a1, QUARTER_PI - a1) * 0.95)
        a3 = rng.uniform(0, a2)
        p = CanonicalParams((a1, a2, a3))
        res = capacity_c2(p)
        u = build_canonical_unitary(p)
        c0 = concurrence(res.optimal_state) ** 2
        cf = concurrence(PureState(u @ res.optimal_state.amplitudes)) ** 2
        assert cf - c0 == pytest.approx(res.value, abs=1e-12)
        assert c0 == pytest.approx(res.initial_entanglement, abs=1e-12)


def test_c2_region2_state_achieves_the_value():
    p = CanonicalParams(REGION_2_POINT)
    res = capacity_c2(p)
    u = build_canonical_unitary(p)
    c0 = concurrence(res.optimal_state) ** 2
    cf = concurrence(PureState(u @ res.optimal_state.amplitudes)) ** 2
    assert cf - c0 == pytest.approx(res.value, abs=1e-12)


def test_concurrence_branch_values_and_extrapolation():
    r1 = capacity_concurrence(REGION_1_POINT)
    assert r1.value == pytest.approx(np.sin(0.6), abs=1e-14)
    assert not r1.extrapolated
    r2 = capacity_concurrence(REGION_2_POINT)
    assert r2.value == pytest.approx(np.sin(2 * (QUARTER_PI + np.pi / 16)), abs=1e-14)
    assert r2.extrapolated
    assert r2.initial_entanglement == 0.0
    sat = capacity_concurrence(SATURATING_POINT)
    assert sat.value == 1.0
    assert concurrence(sat.optimal_state) < 1e-3  # product start


def test_linear_entropy_branches():
    r1 = capacity_linear_entropy(REGION_1_POINT)
    assert r1.value == pytest.approx(np.sin(0.6) / 2, abs=1e-14)
    assert r1.rescaled_value == pytest.approx(np.sin(0.6), abs=1e-14)
    r2 = capacity_linear_entropy(REGION_2_POINT)
    assert r2.value == pytest.approx(
        np.sin(2 * (QUARTER_PI + np.pi / 16)) / 2, abs=1e-9
    )
    sat = capacity_linear_entropy(SATURATING_POINT)
    assert sat.value == 0.5
    assert sat.rescaled_value == 1.0


def test_entropy_no_ancilla_branches():
    assert capacity_entropy_no_ancilla((0.0, 0.0, 0.0)).value == pytest.approx(
        0.0, abs=1e-12
    )
    sat = capacity_entropy_no_ancilla((QUARTER_PI, 0.0, 0.0))
    assert sat.value == 1.0
    assert sat.region is RegionTag.ONE_EBIT
    # boundary point saturates from both sides
    edge = capacity_entropy_no_ancilla((np.pi / 8, np.pi / 8, 0.0))
    assert edge.value == 1.0


def _bisection_entropy_phase(delta):
    """Reference phase: the best of a 257-point grid, then bisection on the
    sign of the gain's derivative, evaluated on numpy scalars."""
    grid = np.linspace(0.0, np.pi, 257)
    gains = _mixture_entropy(grid + delta) - _mixture_entropy(grid)
    best = float(grid[int(np.argmax(gains))])

    def entropy_slope(f):
        q = np.cos(f) ** 2 / (2.0 * (1.0 + np.abs(np.sin(f))))
        if q == 0.0:
            return 0.0
        return float(np.sign(np.sin(f)) * np.cos(f) * np.log2(q / (1.0 - q)) / 2.0)

    def slope(f):
        return entropy_slope(f + delta) - entropy_slope(f)

    lo, hi = best - grid[1], best + grid[1]
    if not slope(lo) > 0.0 > slope(hi):
        return best
    mid = (lo + hi) / 2
    while lo < mid < hi:
        if slope(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        mid = (lo + hi) / 2
    return mid


def test_entropy_phase_matches_the_bisection_reference():
    def gain(f, delta):
        return float(_mixture_entropy(f + delta)) - float(_mixture_entropy(f))

    # Gaps in (-pi/2, pi/2], the range of the reduced eigenphase gap.
    deltas = np.pi / 2 - make_rng(23).uniform(0.0, np.pi, 2000)
    for delta in [0.0, 1e-12, -1e-12, np.pi / 2, -np.pi / 2, *deltas]:
        want = gain(_bisection_entropy_phase(delta), delta)
        have = gain(capacity_module._entropy_phase(float(delta)), delta)
        assert abs(have - want) <= 1e-15, delta


def test_mixture_entropy_is_finite_next_to_the_zeros_of_cos():
    # cos of a double is never 0, so the small Schmidt weight stays positive
    # (about 1e-33 next to pi/2) and neither function guards against q = 0.
    # A RuntimeWarning from a log of 0 would fail this test too.
    for centre in (np.pi / 2, -np.pi / 2, 3 * np.pi / 2, -3 * np.pi / 2):
        # The 11 doubles around the centre, which all share its sign.
        fs = (np.float64(centre).view(np.int64) + np.arange(-5, 6)).view(np.float64)
        assert np.all(np.abs(fs - centre) < 1e-14)
        entropy = _mixture_entropy(fs)
        assert np.all(np.isfinite(entropy)) and np.all(entropy >= 0.0), centre
        for f in fs:
            assert math.isfinite(capacity_module._mixture_entropy_slope(float(f))), f


def test_entropy_no_ancilla_matches_unrestricted_search():
    for point in (REGION_1_POINT, REGION_2_POINT):
        p = CanonicalParams(point)
        restricted = capacity_entropy_no_ancilla(p)
        free = numeric_capacity(
            build_canonical_unitary(p), MeasureKind.ENTROPY_OF_ENTANGLEMENT
        )
        assert restricted.value == pytest.approx(free.value, abs=1e-6), point
        # the reported state really produces the reported gain
        u = build_canonical_unitary(p)
        psi = restricted.optimal_state
        gain = entropy_of_entanglement(
            PureState(u @ psi.amplitudes)
        ) - entropy_of_entanglement(psi)
        assert gain == pytest.approx(restricted.value, abs=1e-6), point


# (closed form, its measure, tolerance on reproducing it from the state)
CLOSED_FORMS = (
    (capacity_c2, MeasureKind.CONCURRENCE_SQUARED, 1e-12),
    (capacity_concurrence, MeasureKind.CONCURRENCE, 1e-12),
    (capacity_linear_entropy, MeasureKind.LINEAR_ENTROPY, 1e-12),
    (capacity_entropy_no_ancilla, MeasureKind.ENTROPY_OF_ENTANGLEMENT, 1e-10),
)


def _state_gain(alpha, kind, state):
    psi = state.amplitudes
    e0 = evaluate(kind, psi)
    return evaluate(kind, build_canonical_unitary(alpha) @ psi) - e0, e0


def test_closed_form_states_reproduce_value_and_initial():
    points = (
        REGION_1_POINT,
        REGION_2_POINT,
        SATURATING_POINT,
        (0.3, 0.25, 0.2),
        (0.7, 0.6, 0.4),
        (0.6, 0.3, 0.1),
        (0.5, QUARTER_PI - 0.5, 0.1),  # a1 + a2 = pi/4
        (0.75, 0.45, QUARTER_PI - 0.45),  # a2 + a3 = pi/4
        (QUARTER_PI, 0.0, 0.0),
        (np.pi / 8, np.pi / 8, np.pi / 8),
    )
    for a1, a2, a3 in points:
        for alpha in ((a1, a2, a3), (a1, a2, -a3)):
            for capacity, kind, tol in CLOSED_FORMS:
                res = capacity(alpha)
                gain, e0 = _state_gain(alpha, kind, res.optimal_state)
                assert gain == pytest.approx(res.value, abs=tol), (alpha, kind)
                assert e0 == pytest.approx(res.initial_entanglement, abs=tol), (
                    alpha,
                    kind,
                )


def test_mirrored_a3_gives_the_same_capacity():
    # Complex conjugation maps a3 to -a3 and leaves every capacity unchanged;
    # a tag read from the signed a3 once called the mirror saturating.
    alpha = (0.70328, 0.61340, 0.59068)
    mirror = (0.70328, 0.61340, -0.59068)
    assert region_of(mirror) is region_of(alpha) is RegionTag.REGION_2
    assert capacity_c2(mirror).value == pytest.approx(
        np.sin(2 * (0.61340 + 0.59068)), abs=1e-14
    )
    for capacity, kind, _ in CLOSED_FORMS:
        res, res_m = capacity(alpha), capacity(mirror)
        assert res_m.region is res.region
        assert res_m.value == pytest.approx(res.value, abs=1e-12)
        gain, _ = _state_gain(alpha, kind, res.optimal_state)
        gain_m, _ = _state_gain(mirror, kind, res_m.optimal_state)
        assert gain_m == pytest.approx(gain, abs=1e-12)


def test_zero_gain_gates_report_exactly_zero():
    # SWAP's widest eigenphase gap is pi, whose sine rounds to 1.2e-16; gains
    # depend on the gap only modulo pi, so it must reduce to exactly 0.
    for gate in (SWAP, IDENTITY4):
        p = decompose(gate)
        for capacity, kind, _ in CLOSED_FORMS:
            assert capacity(p).value == 0.0, kind


def test_capacity_module_imports_no_optimizer():
    tree = ast.parse(Path(capacity_module.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            imported.add(base)
            if not node.module:
                imported.update(base + alias.name for alias in node.names)
    assert not imported & {".optimize", "entcap.optimize"}
    assert not [name for name in imported if name.split(".")[0] == "scipy"]


def _loaded_by_importing_entcap(module: str) -> bool:
    src = str(Path(entcap.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", f"import sys, entcap; print({module!r} in sys.modules)"],
        capture_output=True, text=True, check=True, env=env, timeout=60,
    )
    return out.stdout.strip() == "True"


def test_importing_entcap_does_not_load_scipy():
    assert not _loaded_by_importing_entcap("scipy")


def test_importing_entcap_does_not_load_multiprocessing():
    # Only a sweep with more than one worker needs the process pool.
    assert not _loaded_by_importing_entcap("multiprocessing")


def test_delta_c2_matches_direct_evolution():
    rng = make_rng(250)
    for _ in range(100):
        a1 = rng.uniform(0, QUARTER_PI)
        a2 = rng.uniform(0, a1)
        a3 = rng.uniform(-a2, a2)
        p = CanonicalParams((a1, a2, a3))
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b /= np.linalg.norm(b)
        psi = PureState(BELL_BASIS @ b)
        u = build_canonical_unitary(p)
        direct = (
            concurrence(PureState(u @ psi.amplitudes)) ** 2 - concurrence(psi) ** 2
        )
        assert delta_c2_bell(b, p) == pytest.approx(direct, abs=1e-12)


def test_delta_c2_input_guards():
    p = CanonicalParams(REGION_1_POINT)
    with pytest.raises(DimensionMismatchError):
        delta_c2_bell(np.ones(3) / np.sqrt(3), p)
    with pytest.raises(NotNormalizedError):
        delta_c2_bell(np.ones(4), p)
    with pytest.raises(NotNormalizedError):
        delta_c2_bell(np.array([np.nan, 0, 0, 0]), p)


def test_delta_c2_upper_bounded_by_branch_value():
    rng = make_rng(77)
    p = CanonicalParams(REGION_1_POINT)
    best = capacity_c2(p).value
    for _ in range(200):
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b /= np.linalg.norm(b)
        assert delta_c2_bell(b, p) <= best + 1e-12


def test_interconversion_bounds_known_gates():
    b = interconversion_bounds(DCNOT, CNOT)
    assert b.ebit_lower_bound_u1 == pytest.approx(2.0, abs=1e-6)
    assert b.rate_upper_bound_u1_to_u2 == pytest.approx(2.0, abs=1e-6)
    back = interconversion_bounds(CNOT, DCNOT)
    assert back.rate_upper_bound_u1_to_u2 == pytest.approx(0.5, abs=1e-6)
    with pytest.raises(ZeroCapacityError):
        interconversion_bounds(CNOT, IDENTITY4)


def test_n_copy_capacity_scales_linearly():
    assert n_copy_capacity(CNOT, 3) == pytest.approx(3.0, abs=1e-6)
    assert n_copy_capacity(IDENTITY4, 2) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        n_copy_capacity(CNOT, 0)
    with pytest.raises(ValueError):
        n_copy_capacity(CNOT, -2)
