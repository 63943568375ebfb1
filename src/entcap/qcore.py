"""Dense complex linear algebra and qubit-register primitives.

Conventions shared by the whole package:

* qubit 0 is the most significant bit of a basis index, so an n-qubit
  amplitude vector reshapes to ``(2,) * n`` with axis k addressing qubit k;
* density matrices only ever go through Hermitian eigendecompositions;
* randomness comes from explicitly seeded counter-based bit generators,
  never from the global numpy RNG.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotNormalizedError,
    NotUnitaryError,
    WrongPartitionError,
)

# Only eigenvalues at or below this floor are dropped from entropies.  The
# term -w log2 w runs continuously to 0, so a larger cut would make the
# entropy jump where an eigenvalue crosses it.
ENTROPY_EIGENVALUE_FLOOR = 1e-300
UNITARY_ATOL = 1e-10
NORM_ATOL = 1e-10

QUARTER_PI = np.pi / 4

PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_YY = np.kron(PAULI_Y, PAULI_Y)

IDENTITY4 = np.eye(4, dtype=complex)

# Control on qubit 0 (the most significant bit).
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
# CNOT with control 0 followed by CNOT with control 1.
DCNOT = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0]], dtype=complex
)

# Simultaneous eigenbasis of the three symmetric two-qubit Pauli products,
# one maximally entangled vector per column.  The phases are fixed so that
# the concurrence of any two-qubit state equals |sum of squared coefficients|
# in this basis.
BELL_BASIS = np.array(
    [
        [-1j, 1, 0, 0],
        [0, 0, -1j, 1],
        [0, 0, -1j, -1],
        [1j, 1, 0, 0],
    ],
    dtype=complex,
) / np.sqrt(2)
BELL_BASIS_DAGGER = BELL_BASIS.conj().T

# Row j maps interaction coefficients (a1, a2, a3) to the eigenphase of
# column j of BELL_BASIS.  Rows sum to zero columnwise, so the phases always
# sum to zero.
_LAMBDA_COEFFS = np.array(
    [[-1, 1, 1], [1, -1, 1], [1, 1, -1], [-1, -1, -1]], dtype=float
)


def make_rng(seed: int | np.random.Generator) -> np.random.Generator:
    """Return a counter-based generator for the given seed.

    Passing an existing Generator returns it unchanged so helpers can share
    a stream.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(seed))


def _require_unitary(u: np.ndarray, atol: float = UNITARY_ATOL) -> np.ndarray:
    """The package's one gate check: a 4x4 matrix with max|U^dagger U - I| <= atol.

    Returns the matrix as a complex array.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise DimensionMismatchError(f"expected a 4x4 matrix, got shape {u.shape}")
    # Huge entries overflow to inf or NaN; the test below fails NaN too.
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.abs(u.conj().T @ u - IDENTITY4).max()
    if not residual <= atol:
        raise NotUnitaryError(
            f"matrix is not unitary: residual {residual:.3e} exceeds tolerance {atol:g}"
        )
    return u


def default_partition(n_qubits: int) -> tuple[str, ...]:
    """First half of the register to Alice, the rest to Bob."""
    n_a = (n_qubits + 1) // 2
    return ("A",) * n_a + ("B",) * (n_qubits - n_a)


def require_unit_norm(amps: np.ndarray) -> None:
    """The package's one norm check, written so that NaN and +-inf fail."""
    if not abs(np.vdot(amps, amps).real ** 0.5 - 1.0) <= NORM_ATOL:
        raise NotNormalizedError("amplitudes must have unit norm")


@dataclass(frozen=True)
class PureState:
    """Unit-norm amplitude vector plus a per-qubit ownership label.

    ``partition[k]`` is ``"A"`` or ``"B"`` and says which party holds
    qubit k; omitting it assigns the first half of the register to A and the
    rest to B.  Amplitudes are stored read-only; build a new state instead of
    mutating one.
    """

    amplitudes: np.ndarray
    partition: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex)
        if self.partition is None:
            labels = default_partition(amps.size.bit_length() - 1)
        else:
            labels = tuple(self.partition)
        if labels.count("A") + labels.count("B") != len(labels):
            raise WrongPartitionError(f"labels must be 'A' or 'B', got {labels!r}")
        if amps.ndim != 1 or amps.size != 2 ** len(labels):
            raise DimensionMismatchError(
                f"{len(labels)} qubit labels need 2**{len(labels)} amplitudes, "
                f"got shape {amps.shape}"
            )
        require_unit_norm(amps)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "partition", labels)

    @property
    def n_qubits(self) -> int:
        return len(self.partition)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def qubits(self, label: str) -> tuple[int, ...]:
        """Indices of the qubits owned by one party."""
        return tuple(i for i, owner in enumerate(self.partition) if owner == label)


def split_across_cut(psi: PureState, keep: str = "A") -> np.ndarray:
    """Amplitudes as a matrix whose rows index ``keep``'s qubits and whose
    columns index the other party's, each in register order."""
    return split_amplitudes(psi.amplitudes, psi.partition, keep)


def split_amplitudes(amps: np.ndarray, labels: tuple[str, ...], keep: str):
    """``split_across_cut`` of a checked amplitude vector and its labels; a
    plain reshape when ``keep``'s qubits lead the register."""
    if keep not in ("A", "B"):
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    kept = [i for i, owner in enumerate(labels) if owner == keep]
    if not 0 < len(kept) < len(labels):
        raise WrongPartitionError("a cut needs at least one qubit on each side")
    if kept[-1] >= len(kept):  # keep's qubits are not 0, 1, ..., len(kept) - 1
        dropped = [i for i, owner in enumerate(labels) if owner != keep]
        amps = amps.reshape((2,) * len(labels)).transpose(kept + dropped)
    return amps.reshape(2 ** len(kept), -1)


def partial_trace(psi: PureState, keep: str = "A") -> np.ndarray:
    """Reduced density matrix of one party's qubits."""
    t = split_across_cut(psi, keep)
    return t @ t.conj().T


def log2_spectrum(w: np.ndarray) -> np.ndarray:
    """log2 of eigenvalues, with 0 for those at or below the entropy floor."""
    keep = w > ENTROPY_EIGENVALUE_FLOOR
    return np.where(keep, np.log2(np.where(keep, w, 1.0)), 0.0)


def spectrum_entropy_bits(w: np.ndarray) -> np.ndarray:
    """-sum(w log2 w) over the last axis of a batch of spectra, in bits,
    clamped at 0 against roundoff (and negative zeros) below it."""
    return np.maximum(-(w * log2_spectrum(w)).sum(axis=-1), 0.0)


def von_neumann_entropy_bits(rho: np.ndarray) -> float:
    """Entropy -sum(p log2 p) of a density matrix, in bits."""
    w = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
    return float(spectrum_entropy_bits(w))


def lambdas_from_alpha(alpha: np.ndarray) -> np.ndarray:
    """Eigenphases of the interaction unitary for coefficients (a1, a2, a3)."""
    return _LAMBDA_COEFFS @ np.asarray(alpha, dtype=float)


def build_canonical_unitary(params) -> np.ndarray:
    """Interaction unitary exp(i sum_j a_j sigma_j x sigma_j).

    Accepts either a CanonicalParams-like object with an ``alpha`` attribute
    or a plain length-3 sequence.  Real coefficients with finite eigenphases
    are allowed; the result is diagonal in BELL_BASIS with eigenphases
    lambdas_from_alpha.
    """
    alpha = np.asarray(getattr(params, "alpha", params), dtype=float)
    if alpha.shape != (3,):
        raise DimensionMismatchError(
            f"expected three interaction coefficients, got shape {alpha.shape}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        lambdas = lambdas_from_alpha(alpha)
    if not np.isfinite(lambdas).all():  # as for any NaN or infinite coefficient
        raise ValueError("coefficients must be finite, with finite eigenphases, "
                         f"got {tuple(alpha.tolist())}")
    phases = np.exp(1j * lambdas)
    return (BELL_BASIS * phases) @ BELL_BASIS_DAGGER


def haar_random_state(
    n_qubits: int,
    seed: int | np.random.Generator,
    partition: tuple[str, ...] | None = None,
) -> PureState:
    """Haar-uniform pure state, deterministic for a given seed."""
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    rng = make_rng(seed)
    v = rng.standard_normal(2**n_qubits) + 1j * rng.standard_normal(2**n_qubits)
    v /= np.linalg.norm(v)
    if partition is None:
        partition = default_partition(n_qubits)
    return PureState(v, partition)


def _haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    # QR of a complex Ginibre matrix; fixing the R-diagonal phases makes the
    # distribution exactly Haar.
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z / np.sqrt(2))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def haar_random_unitary(dim: int, seed: int | np.random.Generator) -> np.ndarray:
    """Haar-uniform unitary matrix, deterministic for a given seed."""
    return _haar_unitary(make_rng(seed), dim)


def haar_random_local_unitary(
    seed: int | np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Independent Haar 2x2 unitaries (one per party) from a single seed."""
    rng = make_rng(seed)
    return _haar_unitary(rng, 2), _haar_unitary(rng, 2)
