import itertools

import numpy as np
import pytest

from entcap.canonical import (
    CanonicalParams,
    _fold_into_cell,
    bell_coefficients,
    decompose,
    invariants_match,
    local_invariants,
    u_tilde,
)
from entcap.errors import DimensionMismatchError, NotUnitaryError
from entcap.measures import concurrence
from entcap.qcore import (
    BELL_BASIS,
    CNOT,
    DCNOT,
    IDENTITY4,
    PAULI_YY,
    SWAP,
    PureState,
    build_canonical_unitary,
    haar_random_local_unitary,
    haar_random_state,
    haar_random_unitary,
    make_rng,
)

QUARTER_PI = np.pi / 4


def _random_canonical_alpha(rng):
    a1 = rng.uniform(0, QUARTER_PI)
    a2 = rng.uniform(0, a1)
    a3 = rng.uniform(-a2, a2)
    return (a1, a2, a3)


def test_params_lambdas_and_validation():
    p = CanonicalParams((0.3, 0.2, 0.1))
    lams = p.lambdas
    assert lams == pytest.approx((0.0, 0.2, 0.4, -0.6), abs=1e-14)
    assert abs(sum(lams)) < 1e-14
    with pytest.raises(DimensionMismatchError):
        CanonicalParams((0.3, 0.2))


def test_is_canonical_ordering():
    assert CanonicalParams((QUARTER_PI, 0.1, 0.05)).is_canonical()
    assert CanonicalParams((0.3, 0.2, -0.2)).is_canonical()
    assert not CanonicalParams((QUARTER_PI + 1e-3, 0.0, 0.0)).is_canonical()
    assert not CanonicalParams((0.2, 0.3, 0.0)).is_canonical()
    assert not CanonicalParams((0.3, 0.1, 0.2)).is_canonical()


def test_u_tilde_inverts_locals_up_to_determinant():
    # for V = VA x VB the spin-flipped transpose is det(VA)det(VB) V^-1
    rng = make_rng(8)
    for _ in range(20):
        va, vb = haar_random_local_unitary(rng)
        v = np.kron(va, vb)
        scale = np.linalg.det(va) * np.linalg.det(vb)
        assert np.allclose(u_tilde(v) @ v, scale * np.eye(4), atol=1e-12)
    with pytest.raises(DimensionMismatchError):
        u_tilde(np.eye(2))


def test_u_tilde_is_its_matrix_product_form_bit_for_bit():
    # The index permutation is exact, so it gives the two products' bits,
    # signed zeros included.
    rng = make_rng(41)
    gates = [haar_random_unitary(4, rng) for _ in range(100)]
    gates += [CNOT, DCNOT, SWAP, IDENTITY4, -1j * CNOT]
    for u in gates:
        assert u_tilde(u).tobytes() == (PAULI_YY @ u.T @ PAULI_YY).tobytes()


def _fold_by_arrays(alpha_raw):
    """The fold in its numpy array form."""
    w = QUARTER_PI - (QUARTER_PI - np.asarray(alpha_raw)) % (np.pi / 2)
    w = w[np.argsort(-np.abs(w), kind="stable")]
    signs = np.where(w[:2] < 0, -1.0, 1.0)
    return np.array([abs(w[0]), abs(w[1]), w[2] * signs[0] * signs[1]])


def test_fold_into_cell_is_its_array_form_bit_for_bit():
    # The cell's faces (+-pi/4 and 0), their pi/2 shifts, their neighbouring
    # floats, and ties in |a|, signed zeros included.
    edges = [QUARTER_PI, np.nextafter(QUARTER_PI, 0.0), np.nextafter(QUARTER_PI, 1.0)]
    edges = [e + k * np.pi / 2 for e in edges for k in (-2, -1, 0, 1)] + [0.0, 0.3]
    edges += [-e for e in edges]
    triples = list(itertools.product(edges, repeat=3))
    rng = make_rng(42)
    for _ in range(2000):
        a = rng.uniform(-np.pi, np.pi, 3)
        a[rng.integers(3)] = a[rng.integers(3)] * rng.choice([-1.0, 1.0])
        triples.append(a + np.pi / 2 * rng.integers(-2, 3, 3))
    # the raw triples of Haar gates, as decompose forms them
    for _ in range(200):
        lam = np.angle(local_invariants(haar_random_unitary(4, rng))[:3]) / 2
        triples.append(0.5 * (lam[[1, 0, 0]] + lam[[2, 2, 1]]))
    for raw in triples:
        got = np.array(_fold_into_cell([float(a) for a in raw]))
        assert got.tobytes() == _fold_by_arrays(raw).tobytes(), raw


def test_local_invariants_invariant_under_dressing():
    rng = make_rng(12)
    for _ in range(50):
        u = build_canonical_unitary(_random_canonical_alpha(rng))
        va, vb = haar_random_local_unitary(rng)
        wa, wb = haar_random_local_unitary(rng)
        dressed = np.kron(va, vb) @ u @ np.kron(wa, wb)
        assert invariants_match(local_invariants(u), local_invariants(dressed))


def test_local_invariants_distinguish_classes():
    assert not invariants_match(local_invariants(CNOT), local_invariants(SWAP))
    assert not invariants_match(local_invariants(CNOT), local_invariants(IDENTITY4))


def test_known_gate_decompositions():
    assert decompose(CNOT).alpha == pytest.approx((QUARTER_PI, 0, 0), abs=1e-10)
    assert decompose(SWAP).alpha == pytest.approx(
        (QUARTER_PI, QUARTER_PI, QUARTER_PI), abs=1e-10
    )
    assert decompose(IDENTITY4).alpha == pytest.approx((0, 0, 0), abs=1e-10)


def test_decompose_round_trip_dressed():
    rng = make_rng(100)
    for _ in range(100):
        alpha = _random_canonical_alpha(rng)
        u = build_canonical_unitary(alpha)
        va, vb = haar_random_local_unitary(rng)
        wa, wb = haar_random_local_unitary(rng)
        dressed = np.kron(va, vb) @ u @ np.kron(wa, wb)
        got = decompose(dressed)
        expected = (alpha[0], alpha[1], abs(alpha[2]))
        assert got.alpha == pytest.approx(expected, abs=1e-9)
        assert got.is_canonical()
        assert got.conjugated == (alpha[2] < 0 and abs(alpha[2]) > 1e-12)


def test_decompose_reports_conjugation():
    got = decompose(build_canonical_unitary((0.5, 0.3, -0.2)))
    assert got.alpha == pytest.approx((0.5, 0.3, 0.2), abs=1e-10)
    assert got.conjugated


def test_decompose_face_convention():
    # On the a1 = pi/4 face (pi/4, a2, a3) and (pi/4, a2, -a3) are one class:
    # a3 comes back non-negative and unconjugated whatever its sign.
    for alpha in ((QUARTER_PI, 0.2, 0.1), (QUARTER_PI, 0.3, -0.2)):
        for seed in range(8):
            rng = make_rng(seed)
            va, vb = haar_random_local_unitary(rng)
            wa, wb = haar_random_local_unitary(rng)
            dressed = np.kron(va, vb) @ build_canonical_unitary(alpha) @ np.kron(wa, wb)
            got = decompose(dressed)
            expected = (QUARTER_PI, alpha[1], abs(alpha[2]))
            assert got.alpha == pytest.approx(expected, abs=1e-12)
            assert not got.conjugated


def test_decompose_rejects_bad_input():
    with pytest.raises(NotUnitaryError):
        decompose(np.ones((4, 4)))
    with pytest.raises(DimensionMismatchError):
        decompose(np.eye(2))


def test_decompose_handles_global_phase():
    u = np.exp(0.37j) * build_canonical_unitary((0.4, 0.25, 0.1))
    assert decompose(u).alpha == pytest.approx((0.4, 0.25, 0.1), abs=1e-9)


def test_bell_coefficients_round_trip():
    rng = make_rng(55)
    for _ in range(30):
        psi = haar_random_state(2, rng)
        b = bell_coefficients(psi)
        assert abs(np.linalg.norm(b) - 1.0) < 1e-12
        assert np.allclose(BELL_BASIS @ b, psi.amplitudes, atol=1e-12)


def test_bell_coefficient_concurrence_identity():
    # |sum of squared coefficients| reproduces the concurrence
    rng = make_rng(56)
    for _ in range(50):
        psi = haar_random_state(2, rng)
        b = bell_coefficients(psi)
        assert abs(np.sum(b**2)) == pytest.approx(concurrence(psi), abs=1e-12)


def test_bell_coefficients_product_state():
    b = bell_coefficients(PureState(np.array([1, 0, 0, 0], dtype=complex)))
    assert abs(np.sum(b**2)) < 1e-14
