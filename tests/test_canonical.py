import numpy as np
import pytest

from entcap.canonical import (
    CanonicalParams,
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
    IDENTITY4,
    SWAP,
    PureState,
    build_canonical_unitary,
    haar_random_local_unitary,
    haar_random_state,
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
