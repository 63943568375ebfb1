"""Property tests: the measure wrappers against the batched kernel, their
non-negativity on product states, the canonical decomposition on the edges
of the canonical cell, the closed-form capacities under local unitaries,
conjugation and on the region boundaries, the entropy capacity against
the concurrences' optimal inputs, and the closed forms against the optimizer
over the whole cell."""
import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from entcap.canonical import decompose, invariants_match, local_invariants
from entcap.capacity import (
    RegionTag,
    capacity_c2,
    capacity_concurrence,
    capacity_entropy_no_ancilla,
    capacity_linear_entropy,
    region_of,
)
from entcap.errors import ConvergenceError, UnsupportedMeasureError
from entcap.measures import (
    CONCURRENCE_KINDS,
    MeasureKind,
    concurrence,
    entanglement_batch,
    entropy_of_entanglement,
    evaluate,
    linear_entropy,
)
from entcap.optimize import OptimizerConfig, numeric_capacity
from entcap.qcore import (
    QUARTER_PI,
    PureState,
    build_canonical_unitary,
    haar_random_local_unitary,
    haar_random_state,
    haar_random_unitary,
    split_across_cut,
)

FEW = settings(max_examples=25, derandomize=True, deadline=None)
# Round-trip accuracy demanded of ``decompose`` everywhere in the cell,
# degenerate interactions included.
ROUND_TRIP_TOL = 1e-9

SEEDS = st.integers(0, 2**32 - 1)
# Two to four qubits in any order of ownership, at least one per party.
PARTITIONS = (
    st.lists(st.sampled_from("AB"), min_size=2, max_size=4)
    .filter(lambda labels: "A" in labels and "B" in labels)
    .map(tuple)
)
UNIT = st.floats(0.0, 1.0)


def _a_first_order(partition):
    """index[i] is the position of register basis state i once A's qubits
    are moved in front of B's, each party keeping register order."""
    order = [k for k, p in enumerate(partition) if p == "A"]
    order += [k for k, p in enumerate(partition) if p == "B"]
    n = len(partition)
    index = np.zeros(2**n, dtype=int)
    for i in range(2**n):
        bits = [(i >> (n - 1 - k)) & 1 for k in range(n)]
        for pos, k in enumerate(order):
            index[i] |= bits[k] << (n - 1 - pos)
    return index


def _cut_dims(partition):
    n_a = partition.count("A")
    return 2**n_a, 2 ** (len(partition) - n_a)


def _from_b(kind, psi):
    """The measure of ``psi`` split with B's qubits as rows."""
    t = split_across_cut(psi, "B")
    return entanglement_batch(t.reshape(1, -1), kind, *t.shape)[0]


@FEW
@given(partition=PARTITIONS, seed=SEEDS)
def test_scalar_measures_equal_batch_on_permuted_state(partition, seed):
    psi = haar_random_state(len(partition), seed, partition)
    row = np.empty(psi.dim, dtype=complex)
    row[_a_first_order(partition)] = psi.amplitudes
    dims = _cut_dims(partition)
    for kind in MeasureKind:
        if kind in CONCURRENCE_KINDS and dims != (2, 2):
            with pytest.raises(UnsupportedMeasureError):
                evaluate(kind, psi)
            continue
        batch = float(entanglement_batch(row[None, :], kind, *dims)[0])
        assert evaluate(kind, psi) == batch
        assert _from_b(kind, psi) == pytest.approx(batch, abs=1e-12)
    assert entropy_of_entanglement(psi) == evaluate(
        MeasureKind.ENTROPY_OF_ENTANGLEMENT, psi
    )
    assert linear_entropy(psi) == evaluate(MeasureKind.LINEAR_ENTROPY, psi)
    if dims == (2, 2):
        assert concurrence(psi) == evaluate(MeasureKind.CONCURRENCE, psi)


@FEW
@given(partition=PARTITIONS, seed=SEEDS)
def test_measures_invariant_under_local_unitaries(partition, seed):
    psi = haar_random_state(len(partition), seed, partition)
    index = _a_first_order(partition)
    dim_a, dim_b = _cut_dims(partition)
    # Each party applies one unitary to all of its qubits at once.
    u_a = haar_random_unitary(dim_a, seed + 1)
    u_b = haar_random_unitary(dim_b, seed + 2)
    t = np.empty(psi.dim, dtype=complex)
    t[index] = psi.amplitudes
    moved = (u_a @ t.reshape(dim_a, dim_b) @ u_b.T).reshape(-1)[index]
    rotated = PureState(moved, partition)
    for kind in MeasureKind:
        if kind in CONCURRENCE_KINDS and (dim_a, dim_b) != (2, 2):
            continue
        assert evaluate(kind, rotated) == pytest.approx(evaluate(kind, psi), abs=1e-10)


@FEW
@given(partition=PARTITIONS, seed=SEEDS)
def test_measures_of_product_states_are_not_negative(partition, seed):
    # Roundoff leaves a product state's entropies within ~1e-16 of 0, on
    # either side; the kernel clamps them at 0, negative zeros included.
    dim_a, dim_b = _cut_dims(partition)
    va = haar_random_unitary(dim_a, seed)[:, 0]
    vb = haar_random_unitary(dim_b, seed + 1)[:, 0]
    psi = PureState(np.kron(va, vb)[_a_first_order(partition)], partition)
    for kind in MeasureKind:
        if kind in CONCURRENCE_KINDS and (dim_a, dim_b) != (2, 2):
            continue
        for side, value in (("A", evaluate(kind, psi)), ("B", _from_b(kind, psi))):
            assert value >= 0.0 and not np.signbit(value), (kind, side, value)


def _edge_point(edge, u, v, sign):
    """A canonical triple on one edge of the canonical cell."""
    if edge == "a1=pi/4":
        a1 = QUARTER_PI
        a2 = u * QUARTER_PI
        a3 = sign * v * a2
    elif edge == "a1=a2":
        a1 = a2 = u * QUARTER_PI
        a3 = sign * v * a2
    elif edge == "a2=|a3|":
        a1 = u * QUARTER_PI
        a2 = v * a1
        a3 = sign * a2
    else:
        a1 = u * QUARTER_PI
        a2 = v * a1
        a3 = 0.0
    return a1, a2, a3


@FEW
@given(
    edge=st.sampled_from(["a1=pi/4", "a1=a2", "a2=|a3|", "a3=0"]),
    u=UNIT,
    v=UNIT,
    sign=st.sampled_from([1.0, -1.0]),
    seed=SEEDS,
)
# Near-degenerate interactions: (pi/4, 7.85e-9, 0), (4.68e-8, 2.34e-8, 0)
# and a2 = -a3 = 3.9e-9 at a1 = 0.3, which must keep its conjugation.
@example(edge="a3=0", u=1.0, v=1e-8, sign=1.0, seed=0)
@example(edge="a3=0", u=2.0**-24, v=0.5, sign=1.0, seed=0)
@example(edge="a2=|a3|", u=0.3 / QUARTER_PI, v=1.3e-8, sign=-1.0, seed=0)
def test_decompose_round_trips_on_cell_edges(edge, u, v, sign, seed):
    alpha = _edge_point(edge, u, v, sign)
    va, vb = haar_random_local_unitary(seed)
    wa, wb = haar_random_local_unitary(seed + 1)
    dressed = np.kron(va, vb) @ build_canonical_unitary(alpha) @ np.kron(wa, wb)
    got = decompose(dressed)
    tol = ROUND_TRIP_TOL
    assert got.is_canonical(atol=0.0)
    assert got.alpha == pytest.approx((alpha[0], alpha[1], abs(alpha[2])), abs=tol)
    g1, g2, g3 = got.alpha
    rebuilt = build_canonical_unitary((g1, g2, -g3 if got.conjugated else g3))
    assert invariants_match(local_invariants(rebuilt), local_invariants(dressed), atol=tol)
    # On (or within the accuracy of) the a1 = pi/4 face both signs of a3 are
    # one class, and an a3 within the accuracy of zero has no sign.
    if alpha[0] < QUARTER_PI - tol and abs(alpha[2]) > tol:
        assert got.conjugated == (alpha[2] < 0)


CAPACITIES = (
    capacity_c2,
    capacity_concurrence,
    capacity_linear_entropy,
    capacity_entropy_no_ancilla,
)


def _boundary_distance(alpha):
    a1, a2, a3 = alpha
    return min(abs(a1 + a2 - QUARTER_PI), abs(a2 + abs(a3) - QUARTER_PI))


@FEW
@given(u=UNIT, v=UNIT, w=UNIT, sign=st.sampled_from([1.0, -1.0]), seed=SEEDS)
def test_capacities_invariant_under_local_unitaries_and_conjugation(
    u, v, w, sign, seed
):
    a1 = u * QUARTER_PI
    alpha = (a1, v * a1, sign * w * v * a1)
    va, vb = haar_random_local_unitary(seed)
    wa, wb = haar_random_local_unitary(seed + 1)
    dressed = np.kron(va, vb) @ build_canonical_unitary(alpha) @ np.kron(wa, wb)
    tol = ROUND_TRIP_TOL
    for gate in (dressed, dressed.conj()):
        got = decompose(gate)
        for capacity in CAPACITIES:
            want, have = capacity(alpha), capacity(got)
            assert have.value == pytest.approx(want.value, abs=tol)
            # A tag is a step function: within decompose's accuracy of a
            # region boundary either side is right.
            if _boundary_distance(alpha) > tol:
                assert have.region is want.region


def _assert_saturating_input(alpha):
    """The input of a saturating gate is product, and the gate maps it to
    one e-bit."""
    state = capacity_c2(alpha).optimal_state
    assert concurrence(state) <= 1e-14
    output = PureState(build_canonical_unitary(alpha) @ state.amplitudes)
    assert abs(concurrence(output) - 1.0) <= 1e-14


@FEW
@given(u=UNIT, w=UNIT, z=UNIT, sign=st.sampled_from([1.0, -1.0]))
def test_region_tags_on_region_boundaries(u, w, z, sign):
    step = 1e-12
    # a1 + a2 = pi/4: Sterbenz makes pi/4 - a1 exact for a1 in [pi/8, pi/4],
    # so the sum is pi/4 in floating point too.
    a1 = min(QUARTER_PI / 2 + u * QUARTER_PI / 2, QUARTER_PI)
    a2 = QUARTER_PI - a1
    a3 = sign * w * a2
    assert a1 + a2 == QUARTER_PI
    for capacity in CAPACITIES:
        assert capacity((a1, a2, a3)).region is RegionTag.ONE_EBIT
    assert capacity_c2((a1, a2, a3)).value == 1.0
    _assert_saturating_input((a1, a2, a3))
    # Just below the boundary: lower a1, or a2 when a1 has no room above it.
    below = (a1 - step, a2, a3) if a1 - step >= a2 else (a1, a2 - step, a3)
    below = (below[0], below[1], np.clip(below[2], -below[1], below[1]))
    assert region_of(below) is RegionTag.REGION_1

    # a2 + |a3| = pi/4, likewise exact for a2 in [pi/8, pi/4].
    a2 = min(QUARTER_PI / 2 + w * QUARTER_PI / 2, QUARTER_PI)
    a3 = QUARTER_PI - a2
    a1 = a2 + z * (QUARTER_PI - a2)
    assert a2 + a3 == QUARTER_PI
    for capacity in CAPACITIES:
        assert capacity((a1, a2, sign * a3)).region is RegionTag.ONE_EBIT
    assert capacity_c2((a1, a2, sign * a3)).value == 1.0
    _assert_saturating_input((a1, a2, sign * a3))
    # Just above it: raise |a3|, or a2 (and a1 with it) when a3 has no room.
    if a3 + step <= a2:
        above = (a1, a2, sign * (a3 + step))
    else:
        above = (max(a1, a2 + step), a2 + step, sign * a3)
    assert region_of(above) is RegionTag.REGION_2


@FEW
@given(u=UNIT, v=UNIT, w=UNIT, sign=st.sampled_from([1.0, -1.0]))
def test_entropy_capacity_beats_the_concurrence_optima_inputs(u, v, w, sign):
    # The entropy's optimal phase lies between the concurrence's product
    # input and the c2 optimum's entangled one; neither of those gains more.
    a1 = u * QUARTER_PI
    alpha = (a1, v * a1, sign * w * v * a1)
    assume(region_of(alpha) is not RegionTag.ONE_EBIT)
    gate = build_canonical_unitary(alpha)
    best = capacity_entropy_no_ancilla(alpha).value
    for capacity in (capacity_c2, capacity_concurrence):
        psi = capacity(alpha).optimal_state
        output = PureState(gate @ psi.amplitudes)
        gain = entropy_of_entanglement(output) - entropy_of_entanglement(psi)
        assert best >= gain - 1e-12, capacity.__name__


def _cell_point(where, u, v, w, offset, sign):
    """A canonical triple inside the cell, on one of its edges, or within
    ``offset`` of one of the two region boundaries."""
    if where == "a1+a2=pi/4":
        a1 = (1.0 + u) * QUARTER_PI / 2
        a2 = float(np.clip(QUARTER_PI - a1 + offset, 0.0, a1))
        return a1, a2, sign * w * a2
    if where == "a2+|a3|=pi/4":
        a2 = (1.0 + u) * QUARTER_PI / 2
        a3 = float(np.clip(QUARTER_PI - a2 + offset, 0.0, a2))
        return a2 + v * (QUARTER_PI - a2), a2, sign * a3
    if where == "interior":
        a1 = u * QUARTER_PI
        return a1, v * a1, sign * w * v * a1
    return _edge_point(where, u, v, sign)


# Both pinned draws fail today, so every measure is an expected failure
# until the search mends them; the pins run first and keep the outcome the
# same on any hypothesis version, and the drawn triples run once they pass.
# At 8 restarts the best certified restart falls 2.5e-9 (linear) to 5.6e-9
# (entropy) short of the closed form at (0.78287, 0.78287, 0.00253), on the
# far side of a2 + |a3| = pi/4 by 6.8e-10, where 1 of 8 restarts certifies.
# At (pi/8, pi/8, 3 pi/32), on the a1 + a2 = pi/4 face, the entropy's optimum
# takes a product input and no restart certifies, not even of 32.
KNOWN_FAILURE = pytest.mark.xfail(
    raises=(AssertionError, ConvergenceError), strict=True
)


@pytest.mark.parametrize(
    "kind, closed_form",
    [
        pytest.param(
            MeasureKind.CONCURRENCE_SQUARED, capacity_c2, id="c2", marks=KNOWN_FAILURE
        ),
        pytest.param(
            MeasureKind.LINEAR_ENTROPY,
            capacity_linear_entropy,
            id="linear",
            marks=KNOWN_FAILURE,
        ),
        pytest.param(
            MeasureKind.ENTROPY_OF_ENTANGLEMENT,
            capacity_entropy_no_ancilla,
            id="entropy",
            marks=KNOWN_FAILURE,
        ),
    ],
)
# Shrinking a failed search takes minutes, so a failure is reported as drawn.
@settings(
    FEW,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
    report_multiple_bugs=False,
)
@given(
    where=st.sampled_from(
        ["interior", "a1=pi/4", "a1=a2", "a2=|a3|", "a3=0"]
        + ["a1+a2=pi/4", "a2+|a3|=pi/4"]
    ),
    u=UNIT,
    v=UNIT,
    w=UNIT,
    offset=st.floats(-1e-9, 1e-9),
    sign=st.sampled_from([1.0, -1.0]),
)
@example(
    where="a2+|a3|=pi/4", u=0.9935551248902399, v=0.0, w=0.0, offset=6.8e-10, sign=1.0
)
@example(where="a1+a2=pi/4", u=0.0, v=0.0, w=0.75, offset=0.0, sign=1.0)
def test_closed_forms_match_the_search_over_the_cell(
    kind, closed_form, where, u, v, w, offset, sign
):
    # A draw that certifies no restart raises ConvergenceError: a failure.
    alpha = _cell_point(where, u, v, w, offset, sign)
    gate = build_canonical_unitary(alpha)
    found = numeric_capacity(gate, kind, cfg=OptimizerConfig(restarts=8))
    assert found.value == pytest.approx(closed_form(alpha).value, abs=1e-9)
    assert found.converged_restarts >= 1
