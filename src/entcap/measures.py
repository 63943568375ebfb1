"""Bipartite entanglement measures on pure states.

All measures are evaluated across the A|B cut recorded in the state's
partition labels.  The linear entropy is reported as defined,
R = 1 - Tr(rho_A^2); for two-qubit cuts that tops out at 1/2, so a rescaled
variant 2R with range [0, 1] is exposed alongside it.

Each measure has one kernel over rows of states cut between dim_a and
dim_b: ``_flip_terms`` for the concurrences, ``_cut_terms`` (clamped at 0)
for the linear entropy and the entropy.  A kernel returns the values, as
``entanglement_batch``, or their closed-form gradients, never both; the
scalar functions are one-row wrappers around ``entanglement_batch``.
"""
from __future__ import annotations

import enum
import math

import numpy as np

from .errors import DimensionMismatchError, UnsupportedMeasureError
from .qcore import (
    PAULI_YY,
    PureState,
    default_partition,
    log2_spectrum,
    require_unit_norm,
    spectrum_entropy_bits,
    split_amplitudes,
)


class MeasureKind(enum.Enum):
    """Entanglement measures the optimizer and capacity formulas accept."""

    CONCURRENCE = "concurrence"
    CONCURRENCE_SQUARED = "c2"
    ENTROPY_OF_ENTANGLEMENT = "entropy"
    LINEAR_ENTROPY = "linear"


CONCURRENCE_KINDS = (MeasureKind.CONCURRENCE, MeasureKind.CONCURRENCE_SQUARED)
# Polynomials in the amplitudes, so kink-free: the optimizer climbs them along
# L-BFGS directions, and its polish tries their full Newton step alone first.
SMOOTH_KINDS = (MeasureKind.CONCURRENCE_SQUARED, MeasureKind.LINEAR_ENTROPY)


def require_qubit_pair(kind: MeasureKind, dim_a: int, dim_b: int) -> None:
    """Concurrence variants need exactly one qubit per party."""
    if kind in CONCURRENCE_KINDS and (dim_a != 2 or dim_b != 2):
        raise UnsupportedMeasureError(
            f"{kind.value} needs one qubit per party, got a {dim_a}x{dim_b} cut; "
            "use entropy or linear entropy for ancilla-extended registers"
        )


def entanglement_batch(
    states: np.ndarray, kind: MeasureKind, dim_a: int = 2, dim_b: int = 2
) -> np.ndarray:
    """Measure a batch of states given as rows, cut between dim_a and dim_b."""
    states = np.atleast_2d(states)
    if kind in CONCURRENCE_KINDS:
        require_qubit_pair(kind, dim_a, dim_b)
        return _flip_terms(states, kind)
    return _cut_terms(states, kind, dim_a, dim_b)


# With ``gradient`` the kernels return each row's dE/d(conj psi), the
# Wirtinger derivative of its entanglement E, possibly plus a real multiple of
# psi: the optimizer projects that direction out, because every objective
# depends on its parameters only through normalized states.


def _flip_terms(rows: np.ndarray, kind: MeasureKind, gradient=False):
    """Concurrence |psi^T (sigma_y x sigma_y) psi| of two-qubit rows, or its
    square (Wootters, PRL 80, 2245)."""
    if kind not in CONCURRENCE_KINDS:
        raise UnsupportedMeasureError(f"{kind!r} is not a concurrence")
    w = rows @ PAULI_YY
    c = np.einsum("mi,mi->m", w, rows)
    conc = np.abs(c)
    squared = kind is MeasureKind.CONCURRENCE_SQUARED
    if not gradient:
        return conc**2 if squared else conc
    grad = 2.0 * c[:, None] * w.conj()
    if not squared:
        # d|c| = d|c|^2 / (2|c|); the kink at |c| = 0 gets the zero subgradient.
        grad *= np.divide(0.5, conc, out=np.zeros_like(conc), where=conc > 0.0)[:, None]
    return grad


def _cut_terms(rows: np.ndarray, kind: MeasureKind, dim_a, dim_b, gradient=False):
    """Linear entropy or entropy of rows across the cut, from the smaller
    Gram matrix K, clamped at 0 against roundoff below it.

    With K = T T^dagger (T the reshaped state), dE/d(conj T) is -2 K T for
    the linear entropy and -(log2 K) T for the entropy; with K = T^dagger T
    the factor multiplies T from the right instead.
    """
    m = rows.shape[0]
    t = rows.reshape(m, dim_a, dim_b)
    t_dag = t.conj().transpose(0, 2, 1)
    left = dim_a <= dim_b
    gram = t @ t_dag if left else t_dag @ t
    if kind is MeasureKind.LINEAR_ENTROPY:
        if not gradient:
            return np.maximum(1.0 - np.einsum("mab,mab->m", gram, gram.conj()).real, 0.0)
        factor = -2.0 * gram
    elif kind is not MeasureKind.ENTROPY_OF_ENTANGLEMENT:
        raise UnsupportedMeasureError(f"{kind!r} is not a measure across a cut")
    elif not gradient:
        return spectrum_entropy_bits(np.linalg.eigvalsh(gram))
    else:
        # eigh for the log's eigenvectors; values take eigvalsh's spectrum.
        w, vecs = np.linalg.eigh(gram)
        factor = -(vecs * log2_spectrum(w)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
    grad = factor @ t if left else t @ factor
    return grad.reshape(m, -1)


def evaluate(kind: MeasureKind, psi, keep: str = "A") -> float:
    """Measure one state across its A|B cut, as one row of ``entanglement_batch``.

    ``psi`` is a PureState or a raw amplitude vector, split by
    ``default_partition``; a raw vector is checked once, with no PureState
    built.  Concurrence variants need one qubit per party; on a larger
    (ancilla-extended) register they raise UnsupportedMeasureError.
    """
    if isinstance(psi, PureState):
        amps, labels = psi.amplitudes, psi.partition
    else:
        amps = np.ascontiguousarray(psi, dtype=complex)
        n = amps.size.bit_length() - 1
        if amps.ndim != 1 or n < 1 or amps.size != 1 << n:
            raise DimensionMismatchError(
                f"amplitude vector of shape {amps.shape} is not a qubit register"
            )
        require_unit_norm(amps)
        labels = default_partition(n)
    t = split_amplitudes(amps, labels, keep)
    return float(entanglement_batch(t.reshape(1, -1), kind, *t.shape)[0])


def concurrence(psi) -> float:
    """|<psi| sigma_y x sigma_y |psi*>| for a two-qubit pure state."""
    return evaluate(MeasureKind.CONCURRENCE, psi)


def entropy_of_entanglement(psi, keep: str = "A") -> float:
    """Von Neumann entropy of one party's reduced state, in ebits."""
    return evaluate(MeasureKind.ENTROPY_OF_ENTANGLEMENT, psi, keep)


def linear_entropy(psi, keep: str = "A") -> float:
    """R = 1 - Tr(rho_A^2), the purity deficit of the reduced state."""
    return evaluate(MeasureKind.LINEAR_ENTROPY, psi, keep)


def linear_entropy_rescaled(psi, keep: str = "A") -> float:
    """2R, normalized to reach 1 on a maximally entangled two-qubit state."""
    return 2.0 * linear_entropy(psi, keep)


def binary_entropy(p: float) -> float:
    """H(p) = -p log2 p - (1-p) log2 (1-p), with H(0) = H(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    total = 0.0
    if p > 0.0:
        total -= p * math.log2(p)
    if p < 1.0:
        total -= (1.0 - p) * math.log2(1.0 - p)
    return total


def entropy_from_concurrence(c: float) -> float:
    """Entropy of entanglement of a two-qubit pure state with concurrence c."""
    if not 0.0 <= c <= 1.0 + 1e-12:
        raise ValueError(f"concurrence {c} outside [0, 1]")
    c = min(c, 1.0)
    return binary_entropy((1.0 + math.sqrt(1.0 - c * c)) / 2.0)
