import json
import re

import numpy as np
import pytest

from entcap.canonical import bell_coefficients
from entcap.cli import _matrix_from_json
from entcap.errors import (
    DimensionMismatchError,
    MatrixParseError,
    NotNormalizedError,
    NotUnitaryError,
    WrongPartitionError,
)
from entcap.measures import MeasureKind
from entcap.optimize import numeric_capacity
from entcap.qcore import (
    BELL_BASIS,
    CNOT,
    DCNOT,
    IDENTITY4,
    SWAP,
    PureState,
    _require_unitary,
    build_canonical_unitary,
    default_partition,
    haar_random_local_unitary,
    haar_random_state,
    haar_random_unitary,
    lambdas_from_alpha,
    make_rng,
    partial_trace,
    split_across_cut,
    von_neumann_entropy_bits,
)

BELL_PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def test_pure_state_default_partition():
    psi = PureState(np.array([1, 0, 0, 0], dtype=complex))
    assert psi.partition == ("A", "B")
    assert psi.n_qubits == 2
    assert psi.dim == 4
    chi = PureState(np.ones(8, dtype=complex) / np.sqrt(8))
    assert chi.partition == default_partition(3)
    assert chi.qubits("A") + chi.qubits("B") == (0, 1, 2)


def test_pure_state_validation():
    with pytest.raises(NotNormalizedError):
        PureState(np.array([1.0, 1.0, 0, 0]))
    with pytest.raises(DimensionMismatchError):
        PureState(np.array([1.0, 0, 0]))
    with pytest.raises(WrongPartitionError):
        PureState(np.array([1.0, 0, 0, 0]), ("A", "C"))
    with pytest.raises(WrongPartitionError):
        PureState(np.array([1.0, 0, 0, 0]), (["A"], "B"))
    with pytest.raises(DimensionMismatchError):
        PureState(np.array([1.0, 0, 0, 0]), ("A", "A", "B"))
    # A NaN or infinite norm is not within the tolerance of 1, so it fails.
    for bad in (np.nan, np.inf, -np.inf, 1j * np.inf):
        with pytest.raises(NotNormalizedError):
            PureState(np.array([bad, 0, 0, 0]))


def test_pure_state_amplitudes_read_only():
    psi = PureState(np.array([1, 0, 0, 0], dtype=complex))
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0


def test_known_gates_are_unitary():
    for u in (CNOT, SWAP, DCNOT, IDENTITY4, BELL_BASIS):
        _require_unitary(u)
    with pytest.raises(NotUnitaryError, match="residual"):
        _require_unitary(np.ones((4, 4)))
    assert np.allclose(SWAP @ SWAP, np.eye(4))
    assert np.allclose(DCNOT, CNOT @ SWAP)


def test_unitarity_check_shape_and_nan():
    with pytest.raises(DimensionMismatchError):
        _require_unitary(np.eye(2))
    with pytest.raises(DimensionMismatchError):
        _require_unitary(np.eye(8))
    nan_gate = np.eye(4, dtype=complex)
    nan_gate[0, 0] = np.nan
    with pytest.raises(NotUnitaryError):
        _require_unitary(nan_gate)
    # the tolerance bounds the largest entry of U^dagger U - I
    near = np.eye(4) * (1 + 1e-6)
    with pytest.raises(NotUnitaryError):
        _require_unitary(near)
    assert np.array_equal(_require_unitary(near, 3e-6), near)


def test_split_across_cut_orders_party_qubits():
    amps = np.arange(8, dtype=complex)
    psi = PureState(amps / np.linalg.norm(amps), ("B", "A", "B"))
    t = split_across_cut(psi, "A")
    # rows index qubit 1; columns index qubits (0, 2) in register order
    expected = psi.amplitudes.reshape(2, 2, 2).transpose(1, 0, 2).reshape(2, 4)
    assert np.array_equal(t, expected)
    assert np.array_equal(split_across_cut(psi, "B"), expected.T)
    with pytest.raises(WrongPartitionError):
        split_across_cut(PureState(np.eye(4)[0], ("A", "A")))
    with pytest.raises(ValueError):
        split_across_cut(psi, "C")


def test_partial_trace_bell_state():
    psi = PureState(BELL_PHI_PLUS)
    for side in ("A", "B"):
        rho = partial_trace(psi, side)
        assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product_state_is_pure():
    rng = make_rng(11)
    for _ in range(20):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        psi = PureState(np.kron(a, b))
        rho = partial_trace(psi, "A")
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12
        assert np.allclose(rho, np.outer(a, a.conj()), atol=1e-12)


def test_partial_trace_multiqubit_cut():
    # ancilla-extended Bell pair: entropy across the cut is still one bit
    psi4 = PureState(
        np.kron(np.array([1, 0], dtype=complex), np.kron(BELL_PHI_PLUS, [1, 0])),
        ("A", "A", "B", "B"),
    )
    rho = partial_trace(psi4, "A")
    assert rho.shape == (4, 4)
    assert abs(von_neumann_entropy_bits(rho) - 1.0) < 1e-12


def test_entropy_known_values():
    assert von_neumann_entropy_bits(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)
    assert von_neumann_entropy_bits(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    # binary entropy of 1/4
    assert von_neumann_entropy_bits(np.diag([0.25, 0.75])) == pytest.approx(
        0.8112781244591328, abs=1e-12
    )


def test_lambdas_from_alpha_cnot_class():
    lams = lambdas_from_alpha(np.array([np.pi / 4, 0.0, 0.0]))
    assert np.allclose(lams, [-np.pi / 4, np.pi / 4, np.pi / 4, -np.pi / 4])
    # traceless interaction: the four eigenphases always cancel
    assert abs(np.sum(lambdas_from_alpha(np.array([0.3, 0.2, 0.1])))) < 1e-12


def test_canonical_unitary_bell_eigenbasis():
    rng = make_rng(21)
    for _ in range(25):
        a1 = rng.uniform(0, np.pi / 4)
        a2 = rng.uniform(0, a1)
        a3 = rng.uniform(-a2, a2)
        alpha = np.array([a1, a2, a3])
        u = build_canonical_unitary(alpha)
        _require_unitary(u)
        phases = np.exp(1j * lambdas_from_alpha(alpha))
        assert np.allclose(u @ BELL_BASIS, BELL_BASIS * phases[None, :], atol=1e-12)


def test_canonical_unitary_is_its_matrix_form_bit_for_bit():
    rng = make_rng(22)
    triples = [rng.uniform(-np.pi, np.pi, 3) for _ in range(200)]
    triples += [np.zeros(3), np.full(3, np.pi / 4), np.array([np.pi / 4, 0.0, 0.0])]
    for alpha in triples:
        phases = np.exp(1j * lambdas_from_alpha(alpha))
        want = (BELL_BASIS * phases) @ BELL_BASIS.conj().T
        assert build_canonical_unitary(alpha).tobytes() == want.tobytes()
        assert build_canonical_unitary(tuple(alpha)).tobytes() == want.tobytes()


def test_haar_state_seeded_and_normalized():
    psi = haar_random_state(3, 5)
    chi = haar_random_state(3, 5)
    assert np.array_equal(psi.amplitudes, chi.amplitudes)
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12
    other = haar_random_state(3, 6)
    assert not np.allclose(psi.amplitudes, other.amplitudes)


def test_haar_unitary_seeded():
    u = haar_random_unitary(8, 9)
    v = haar_random_unitary(8, 9)
    assert np.array_equal(u, v)
    # an 8x8 matrix is not a gate, so the 4x4 gate check does not apply
    assert np.abs(u.conj().T @ u - np.eye(8)).max() < 1e-12


def test_haar_local_unitary_is_product():
    va, vb = haar_random_local_unitary(2)
    u = np.kron(va, vb)
    _require_unitary(u)
    assert va.shape == vb.shape == (2, 2)


def test_make_rng_accepts_generator():
    rng = make_rng(4)
    assert make_rng(rng) is rng
    a = make_rng(4).random(3)
    b = make_rng(4).random(3)
    assert np.array_equal(a, b)


def test_build_canonical_unitary_accepts_params_object():
    from entcap.canonical import CanonicalParams

    alpha = (0.4, 0.3, 0.1)
    assert np.allclose(
        build_canonical_unitary(alpha),
        build_canonical_unitary(CanonicalParams(alpha)),
    )



def _json_with_a_short_row():
    rows = [[[1, 0], [0, 0], [0, 0], [0, 0]]] * 4
    return json.dumps({"matrix": rows[:2] + [rows[2][:3]] + rows[3:]})


# The input checks of the other modules that no other test reaches.
@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: bell_coefficients(np.eye(8)[0]), DimensionMismatchError,
         "expected 4 amplitudes, got shape (8,)"),
        (lambda: _matrix_from_json(_json_with_a_short_row()), MatrixParseError,
         "row 2 must be a list of 4 entries"),
        (lambda: numeric_capacity(CNOT, MeasureKind.ENTROPY_OF_ENTANGLEMENT, 3, 0),
         ValueError, "supported ancilla counts are 0, 1 and 2 per side"),
        (lambda: build_canonical_unitary((0.1, 0.2)), DimensionMismatchError,
         "expected three interaction coefficients, got shape (2,)"),
        (lambda: haar_random_state(0, 5), ValueError, "need at least one qubit"),
    ],
    ids=["bell-coefficients", "json-row", "ancillas", "canonical-triple", "no-qubits"],
)
def test_input_checks_raise_their_errors(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
