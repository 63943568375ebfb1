"""Canonical interaction parameters of two-qubit unitaries via local invariants.

Every U in U(4) factors as (local) * exp(i sum_j a_j sigma_j x sigma_j) * (local)
with pi/4 >= a1 >= a2 >= |a3| >= 0.  The interaction coefficients are pinned
down by the spectrum of u_tilde(U) @ U after dividing out a fourth root of
det(U): those eigenvalues are exp(2i lambda_j) for the eigenphases lambda_j
of the interaction factor (Kraus & Cirac, PRA 63, 062309).  ``decompose``
halves three of those eigenphases, forms one raw coefficient triple and
folds it into the canonical cell in closed form; every branch of the
half-angles and of the root maps to the same point of the cell.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .qcore import (
    BELL_BASIS_DAGGER,
    QUARTER_PI,
    PureState,
    _require_unitary,
    lambdas_from_alpha,
)

HALF_PI = np.pi / 2

# a3 and -a3 name the same interaction class at a3 = 0 and on the a1 = pi/4
# face; within this of either, no conjugation is reported.
CONJUGATION_TOL = 1e-12
# Default angular tolerance when comparing invariant multisets.
INVARIANT_ATOL = 1e-8

_PERMS4 = np.array(list(itertools.permutations(range(4))))
# sigma_y x sigma_y is antidiagonal with signs (-1, 1, 1, -1): conjugating by
# it reverses rows and columns and flips the sign of these entries.
_SPIN_FLIP_SIGNS = np.outer([-1, 1, 1, -1], [-1, 1, 1, -1]).astype(complex)


@dataclass(frozen=True)
class CanonicalParams:
    """Interaction coefficients (a1, a2, a3) plus a conjugation marker.

    ``conjugated`` is True when the coefficients describe the complex
    conjugate of the input's interaction class; ``decompose`` uses it to
    report a3 >= 0.  The constructor accepts any real triple; use
    ``is_canonical`` to test the ordering constraint.
    """

    alpha: tuple[float, float, float]
    conjugated: bool = False

    def __post_init__(self) -> None:
        alpha = tuple(map(float, self.alpha))
        if len(alpha) != 3:
            raise DimensionMismatchError("expected three interaction coefficients")
        object.__setattr__(self, "alpha", alpha)

    @property
    def lambdas(self) -> tuple[float, float, float, float]:
        """Eigenphases of the interaction unitary; they sum to zero."""
        return tuple(lambdas_from_alpha(self.alpha))

    def is_canonical(self, atol: float = 1e-9) -> bool:
        a1, a2, a3 = self.alpha
        return (
            a1 <= QUARTER_PI + atol
            and a1 >= a2 - atol
            and a2 >= abs(a3) - atol
        )


def u_tilde(u: np.ndarray) -> np.ndarray:
    """Spin-flipped transpose (sigma_y x sigma_y) u^T (sigma_y x sigma_y)."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise DimensionMismatchError(f"expected a 4x4 matrix, got shape {u.shape}")
    # PAULI_YY @ u.T @ PAULI_YY exactly; + 0.0 gives its zeros a + sign too.
    return _SPIN_FLIP_SIGNS * u[::-1, ::-1].T + 0.0


def local_invariants(u: np.ndarray) -> np.ndarray:
    """Eigenvalues of u_tilde(U) @ U with U scaled to unit determinant.

    The four unit-modulus values are constant under local unitaries up to a
    common sign left over from the choice of determinant root; compare
    multisets with ``invariants_match``.
    """
    u = _require_unitary(u)
    us = u / np.linalg.det(u) ** 0.25
    vals = np.linalg.eigvals(u_tilde(us) @ us)
    return vals / np.abs(vals)


def _multiset_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Smallest max-elementwise distance over assignments of a onto b."""
    diffs = np.abs(a[_PERMS4] - b[None, :]).max(axis=1)
    return float(diffs.min())


def invariants_match(
    a: np.ndarray, b: np.ndarray, atol: float = INVARIANT_ATOL
) -> bool:
    """Multiset equality of invariant spectra, up to a common sign."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return min(_multiset_distance(a, b), _multiset_distance(-a, b)) <= atol


def bell_coefficients(psi) -> np.ndarray:
    """Coefficients of a two-qubit state in BELL_BASIS.

    The concurrence of the state is |sum of squared coefficients|, and the
    interaction unitary acts on them by the diagonal phases exp(i lambda_j).
    """
    amps = psi.amplitudes if isinstance(psi, PureState) else np.asarray(psi, complex)
    if amps.shape != (4,):
        raise DimensionMismatchError(f"expected 4 amplitudes, got shape {amps.shape}")
    return BELL_BASIS_DAGGER @ amps


def _fold_into_cell(alpha_raw) -> tuple[float, float, float]:
    """The triple equivalent to ``alpha_raw`` with pi/4 >= a1 >= a2 >= |a3|.

    The moves that preserve the interaction class are shifts of a single
    coordinate by pi/2, coordinate permutations and sign flips of two
    coordinates at a time.  The shifts bring each coordinate into
    (-pi/4, pi/4], sorting by magnitude orders them, and flipping a3 with
    each of a1 and a2 that is negative leaves a1 >= a2 >= |a3|.
    """
    w = [QUARTER_PI - (QUARTER_PI - a) % HALF_PI for a in alpha_raw]
    w.sort(key=abs, reverse=True)  # stable: ties keep their order
    return abs(w[0]), abs(w[1]), -w[2] if (w[0] < 0) != (w[1] < 0) else w[2]


def decompose(u: np.ndarray) -> CanonicalParams:
    """Recover canonical interaction coefficients from a 4x4 unitary.

    Half the eigenphases of the normalized u_tilde(U) @ U are the
    interaction eigenphases lambda_j, each up to a shift by pi/2 from the
    determinant root or by pi from the halving, and in no particular order.
    Any three of them fix a raw coefficient triple, and every one of those
    ambiguities maps it to an equivalent point, so folding it into the cell
    gives the answer.  The a3 >= 0 representative is returned, with
    ``conjugated`` set if the sign had to be flipped.  On the a1 = pi/4
    face both signs of a3 are one class and ``conjugated`` is False.
    """
    lam = (np.angle(local_invariants(u)[:3]) / 2).tolist()
    a1, a2, a3 = _fold_into_cell(
        (0.5 * (lam[1] + lam[2]), 0.5 * (lam[0] + lam[2]), 0.5 * (lam[0] + lam[1]))
    )
    conjugated = bool(a3 < -CONJUGATION_TOL and a1 < QUARTER_PI - CONJUGATION_TOL)
    return CanonicalParams((a1, a2, abs(a3)), conjugated=conjugated)
