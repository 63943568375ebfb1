import numpy as np
import pytest

from entcap.errors import (
    DimensionMismatchError,
    NotNormalizedError,
    UnsupportedMeasureError,
    WrongPartitionError,
)
from entcap.measures import (
    CONCURRENCE_KINDS,
    MeasureKind,
    _cut_terms,
    _flip_terms,
    binary_entropy,
    concurrence,
    entanglement_batch,
    entropy_from_concurrence,
    entropy_of_entanglement,
    evaluate,
    linear_entropy,
    linear_entropy_rescaled,
)
from entcap.qcore import (
    BELL_BASIS,
    PureState,
    haar_random_local_unitary,
    haar_random_state,
    make_rng,
    split_across_cut,
)


def _schmidt_state(theta):
    return PureState(np.array([np.cos(theta), 0, 0, np.sin(theta)], dtype=complex))


def test_bell_states_are_maximal():
    for j in range(4):
        psi = PureState(BELL_BASIS[:, j])
        assert concurrence(psi) == pytest.approx(1.0, abs=1e-12)
        assert entropy_of_entanglement(psi) == pytest.approx(1.0, abs=1e-12)
        assert linear_entropy(psi) == pytest.approx(0.5, abs=1e-12)
        assert linear_entropy_rescaled(psi) == pytest.approx(1.0, abs=1e-12)


def test_product_states_are_zero():
    psi = PureState(np.array([1, 0, 0, 0], dtype=complex))
    for kind in MeasureKind:
        assert evaluate(kind, psi) == pytest.approx(0.0, abs=1e-12)


def test_schmidt_family_closed_forms():
    rng = make_rng(2)
    for _ in range(25):
        theta = rng.uniform(0, np.pi / 2)
        psi = _schmidt_state(theta)
        c = abs(np.sin(2 * theta))
        assert concurrence(psi) == pytest.approx(c, abs=1e-12)
        assert entropy_of_entanglement(psi) == pytest.approx(
            binary_entropy(np.cos(theta) ** 2), abs=1e-12
        )
        assert linear_entropy(psi) == pytest.approx(c**2 / 2, abs=1e-12)


def test_entropy_concurrence_identity_on_haar_states():
    rng = make_rng(88)
    for _ in range(200):
        psi = haar_random_state(2, rng)
        c = concurrence(psi)
        e = entropy_of_entanglement(psi)
        assert e == pytest.approx(entropy_from_concurrence(c), abs=1e-10)
        assert linear_entropy(psi) == pytest.approx(c**2 / 2, abs=1e-12)
        assert linear_entropy_rescaled(psi) == pytest.approx(c**2, abs=1e-12)


def _kernel_across(kind, psi, side):
    """One kernel row of ``psi`` split with ``side``'s qubits as rows."""
    t = split_across_cut(psi, side)
    return entanglement_batch(t.reshape(1, -1), kind, *t.shape)[0]


def test_entropy_symmetric_between_parties():
    # A pure state's Schmidt coefficients are the same from either party, so
    # each measure reads the same across both splits of the cut.
    rng = make_rng(14)
    for labels in (("A", "B"), ("B", "A"), ("A", "B", "B"), ("A", "B", "A", "B")):
        for _ in range(10):
            psi = haar_random_state(len(labels), rng, labels)
            for kind in MeasureKind:
                if kind in CONCURRENCE_KINDS and len(labels) > 2:
                    continue
                from_a = _kernel_across(kind, psi, "A")
                assert _kernel_across(kind, psi, "B") == pytest.approx(from_a, abs=1e-12)
                assert evaluate(kind, psi) == from_a


def test_local_unitary_invariance():
    rng = make_rng(31)
    for _ in range(60):
        psi = haar_random_state(2, rng)
        va, vb = haar_random_local_unitary(rng)
        rotated = PureState(np.kron(va, vb) @ psi.amplitudes)
        for kind in MeasureKind:
            assert evaluate(kind, rotated) == pytest.approx(
                evaluate(kind, psi), abs=1e-10
            )


def test_concurrence_rejects_multiqubit_states():
    psi = haar_random_state(4, 7, ("A", "A", "B", "B"))
    with pytest.raises(UnsupportedMeasureError):
        evaluate(MeasureKind.CONCURRENCE, psi)
    with pytest.raises(UnsupportedMeasureError):
        evaluate(MeasureKind.CONCURRENCE_SQUARED, psi)
    # entropy variants still work across the 2+2 cut
    assert evaluate(MeasureKind.ENTROPY_OF_ENTANGLEMENT, psi) >= 0.0


def test_binary_entropy_values_and_guards():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-14)
    assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-14)
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


def test_entropy_from_concurrence_values_and_guards():
    assert entropy_from_concurrence(0.0) == 0.0
    assert entropy_from_concurrence(1.0) == pytest.approx(1.0, abs=1e-14)
    assert entropy_from_concurrence(0.6) == pytest.approx(
        0.4689955935892811, abs=1e-14
    )
    with pytest.raises(ValueError):
        entropy_from_concurrence(1.5)


def test_entropies_keep_relative_precision_near_zero():
    # Near 0, H(q) = q log2(e / q) - q^2 / (2 ln 2) + ..., so the leading term
    # is exact to a relative 1e-11 for q <= 1e-12.  A concurrence c has the
    # smaller Schmidt weight q = c^2 / 4 + O(c^4).
    for p in np.geomspace(1e-12, 1e-300, 60):
        want = p * np.log2(np.e / p)
        assert binary_entropy(p) == pytest.approx(want, rel=1e-11, abs=0.0)
    for c in np.geomspace(1e-6, 1e-140, 60):
        q = c * c / 4.0
        want = q * np.log2(np.e / q)
        assert entropy_from_concurrence(c) == pytest.approx(want, rel=1e-11, abs=0.0)


def test_evaluate_accepts_raw_amplitudes():
    amps = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    assert evaluate(MeasureKind.CONCURRENCE, amps) == pytest.approx(1.0, abs=1e-12)


def test_evaluate_rejects_empty_and_nan_vectors():
    with pytest.raises(DimensionMismatchError):
        evaluate(MeasureKind.CONCURRENCE, np.array([], dtype=complex))
    with pytest.raises(NotNormalizedError):
        evaluate(MeasureKind.ENTROPY_OF_ENTANGLEMENT, np.array([np.nan, 0, 0, 0]))


@pytest.mark.parametrize("kind", list(MeasureKind), ids=lambda k: k.value)
def test_evaluate_rejects_bad_raw_vectors(kind):
    not_registers = [
        np.array([], dtype=complex),
        np.array([1.0]),
        np.array([1.0, 0, 0]),
        np.ones(6) / np.sqrt(6),
        np.eye(2) / np.sqrt(2),
        np.complex128(1.0),
    ]
    for amps in not_registers:
        with pytest.raises(DimensionMismatchError):
            evaluate(kind, amps)
    for bad in (2.0, np.nan, np.inf, -np.inf):
        with pytest.raises(NotNormalizedError):
            evaluate(kind, np.array([bad, 0, 0, 0]))
    with pytest.raises(NotNormalizedError):
        evaluate(kind, np.array([1.0, 0, 1.0, 0, 0, 0, 0, 0]))
    # One qubit has no cut.
    with pytest.raises(WrongPartitionError):
        evaluate(kind, np.array([1.0, 0]))


@pytest.mark.parametrize("kind", list(MeasureKind), ids=lambda k: k.value)
def test_evaluate_is_one_kernel_row_bit_for_bit(kind):
    # evaluate's definition: one row of the kernel, split with A's qubits as rows.
    rng = make_rng(31)
    for n in range(2, 7):
        labels = [("A", "B")[i % 2] for i in range(n)]  # A does not lead
        for _ in range(8):
            amps = haar_random_state(n, rng).amplitudes
            states = [
                (np.array(amps), PureState(amps)),
                (np.stack([amps, amps], axis=1)[:, 0], PureState(amps)),
                (PureState(amps, tuple(labels)),) * 2,
                (PureState(amps, tuple(reversed(labels))),) * 2,
            ]
            for given, split in states:
                try:
                    want = _kernel_across(kind, split, "A")
                except UnsupportedMeasureError:
                    with pytest.raises(UnsupportedMeasureError):
                        evaluate(kind, given)
                    continue
                got = evaluate(kind, given)
                assert type(got) is float
                assert np.float64(got).tobytes() == want.tobytes()


def test_measure_kind_round_trips_flag_strings():
    assert MeasureKind("c2") is MeasureKind.CONCURRENCE_SQUARED
    assert MeasureKind("concurrence") is MeasureKind.CONCURRENCE
    assert MeasureKind("entropy") is MeasureKind.ENTROPY_OF_ENTANGLEMENT
    assert MeasureKind("linear") is MeasureKind.LINEAR_ENTROPY


CUTS = ((2, 2), (2, 4), (4, 2), (4, 4), (8, 8))
CUT_KINDS = (MeasureKind.LINEAR_ENTROPY, MeasureKind.ENTROPY_OF_ENTANGLEMENT)


def _unit(rng, *shape):
    """Haar-random unit vectors along the last axis."""
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _kernel_rows(dim_a, dim_b, seed=0):
    """Haar-random rows cut between dim_a and dim_b, then product rows, on
    which the cut measures sit at their clamp."""
    rng = make_rng(seed)
    product = [np.kron(_unit(rng, dim_a), _unit(rng, dim_b)) for _ in range(4)]
    return np.concatenate([_unit(rng, 12, dim_a * dim_b), product])


def _kernel(kind, dims):
    """The kernel that computes ``kind``, on rows cut as ``dims``."""
    if kind in CONCURRENCE_KINDS:
        return lambda rows, *mode: _flip_terms(rows, kind, *mode)
    return lambda rows, *mode: _cut_terms(rows, kind, *dims, *mode)


def _forbid(monkeypatch, name):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"the call ran {name}")

    monkeypatch.setattr(np.linalg, name, forbidden)


@pytest.mark.parametrize(
    "kind, dims",
    [
        pytest.param(kind, dims, id=f"{kind.value}-{dims[0]}x{dims[1]}")
        for kind in MeasureKind
        for dims in CUTS
        if kind not in CONCURRENCE_KINDS or dims == (2, 2)
    ],
)
def test_value_only_mode_is_the_value_half_of_gradient_mode(monkeypatch, kind, dims):
    # A kernel returns a value or a gradient, never both: each mode computes
    # only its own half, and the value mode is the one value path.
    rows = _kernel_rows(*dims)
    kernel = _kernel(kind, dims)
    with monkeypatch.context() as patch:
        _forbid(patch, "eigvalsh")
        assert kernel(rows, True).shape == rows.shape
    _forbid(monkeypatch, "eigh")
    value = kernel(rows)
    assert value.shape == rows.shape[:1]
    # Bit for bit, signed zeros included.
    assert entanglement_batch(rows, kind, *dims).tobytes() == value.tobytes()


def test_kernels_reject_measures_they_do_not_compute():
    rows = _kernel_rows(2, 2)
    for gradient in (False, True):
        for kind in (*CUT_KINDS, "bogus"):
            with pytest.raises(UnsupportedMeasureError):
                _flip_terms(rows, kind, gradient)
        for kind in (*CONCURRENCE_KINDS, "bogus"):
            with pytest.raises(UnsupportedMeasureError):
                _cut_terms(rows, kind, 2, 2, gradient)
    with pytest.raises(UnsupportedMeasureError):
        entanglement_batch(rows, "bogus")
