"""Canonical interaction parameters of two-qubit unitaries via local invariants.

Every U in U(4) factors as (local) * exp(i sum_j a_j sigma_j x sigma_j) * (local)
with pi/4 >= a1 >= a2 >= |a3| >= 0.  The interaction coefficients are pinned
down by the spectrum of u_tilde(U) @ U after dividing out a fourth root of
det(U): those eigenvalues are exp(2i lambda_j) for the eigenphases lambda_j
of the interaction factor.  ``decompose`` recovers the coefficients by brute
force over the finite branch ambiguity of the half-angles and verifies each
candidate against the input's invariants.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import BranchResolutionError, DimensionMismatchError
from .qcore import (
    BELL_BASIS,
    PAULI_YY,
    QUARTER_PI,
    PureState,
    _require_unitary,
    lambdas_from_alpha,
)

HALF_PI = np.pi / 2

# Width below which eigenphases are treated as degenerate and averaged.
DEGENERACY_TOL = 1e-7
# Default angular tolerance when comparing invariant multisets.
INVARIANT_ATOL = 1e-8

_PERMS4 = np.array(list(itertools.permutations(range(4))))
_HALF_SHIFTS = np.array(list(itertools.product((0.0, np.pi), repeat=4)))
_PERMS3 = np.array(list(itertools.permutations(range(3))))
# Sign patterns with an even number of minus signs; single flips conjugate
# the interaction class instead of preserving it.
_EVEN_FLIPS = np.array(
    [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
)


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
        alpha = tuple(float(a) for a in self.alpha)
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
    return PAULI_YY @ u.T @ PAULI_YY


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
    return BELL_BASIS.conj().T @ amps


def _cluster_phases(phases: np.ndarray, tol: float) -> np.ndarray:
    """Replace near-degenerate phases by their circular cluster mean."""
    order = np.argsort(phases)
    p = phases[order]
    breaks = np.where(np.diff(p) > tol)[0]
    groups = [g for g in np.split(np.arange(p.size), breaks + 1)]
    if len(groups) > 1 and (p[0] + 2 * np.pi) - p[-1] <= tol:
        groups = [np.concatenate([groups[-1], groups[0]])] + groups[1:-1]
    out = np.empty_like(p)
    for g in groups:
        out[g] = np.angle(np.exp(1j * p[g]).mean())
    result = np.empty_like(out)
    result[order] = out
    return result


def _cell_candidates(alpha_raw: np.ndarray, atol: float = 1e-9) -> np.ndarray:
    """Map raw coefficient triples into the canonical cell.

    The moves that preserve the interaction class are coordinate
    permutations, sign flips of two coordinates at a time, and shifts of any
    single coordinate by pi/2.  Rows of the result are all images of the
    input rows that satisfy pi/4 >= a1 >= a2 >= |a3|.
    """
    alpha_raw = np.atleast_2d(alpha_raw)
    z = alpha_raw[:, _PERMS3]                                # (k, 6, 3)
    z = z[:, :, None, :] * _EVEN_FLIPS[None, None, :, :]     # (k, 6, 4, 3)
    z = z.reshape(-1, 3)
    # Reduce each coordinate into (-pi/4, pi/4] by pi/2 shifts.
    w = QUARTER_PI - (QUARTER_PI - z) % HALF_PI
    # Values that wrapped onto the open edge stand for -pi/4; keep both
    # boundary representatives.
    low = w < -QUARTER_PI + atol
    cands = [w] if not low.any() else [w, np.where(low, w + HALF_PI, w)]
    w = np.concatenate(cands, axis=0)
    ok = (
        (w[:, 0] <= QUARTER_PI + atol)
        & (w[:, 0] >= w[:, 1] - atol)
        & (w[:, 1] >= np.abs(w[:, 2]) - atol)
    )
    w = w[ok]
    if w.size == 0:
        return w.reshape(0, 3)
    # Deduplicate on a coarse grid but keep full-precision representatives.
    _, idx = np.unique(np.round(w / 1e-11), axis=0, return_index=True)
    return w[idx]


def decompose(u: np.ndarray, atol: float = INVARIANT_ATOL) -> CanonicalParams:
    """Recover canonical interaction coefficients from a 4x4 unitary.

    The eigenphases of the normalized u_tilde(U) @ U determine the
    interaction eigenphases only modulo pi and up to ordering, and the
    determinant root only up to a factor i.  All of those branches are
    enumerated; a candidate is accepted when its analytically rebuilt
    invariants reproduce the observed spectrum.  The a3 >= 0 representative
    is returned, with ``conjugated`` set if the sign had to be flipped.

    Raises BranchResolutionError when no branch matches, which signals
    numerical degeneracy beyond the clustering tolerance.
    """
    u = _require_unitary(u)
    root = np.linalg.det(u) ** 0.25
    for scale in (root, 1j * root, -root, -1j * root):
        us = u / scale
        vals = np.linalg.eigvals(u_tilde(us) @ us)
        phases = _cluster_phases(np.angle(vals / np.abs(vals)), DEGENERACY_TOL)
        target = np.exp(1j * phases)

        lam = phases[_PERMS4][:, None, :] / 2 + _HALF_SHIFTS[None, :, :]
        lam = lam.reshape(-1, 4)
        total = lam.sum(axis=1)
        lam = lam[np.abs((total + np.pi) % (2 * np.pi) - np.pi) < 1e-6]
        if lam.size == 0:
            continue
        alpha_raw = 0.5 * np.stack(
            [
                lam[:, 1] + lam[:, 2],
                lam[:, 0] + lam[:, 2],
                lam[:, 0] + lam[:, 1],
            ],
            axis=1,
        )
        cands = _cell_candidates(alpha_raw)
        if cands.shape[0] == 0:
            continue
        cand_inv = np.exp(2j * lambdas_from_alpha(cands.T).T)
        costs = np.abs(cand_inv[:, _PERMS4] - target[None, None, :]).max(axis=2).min(axis=1)
        good = costs <= atol
        if not good.any():
            continue
        cands, costs = cands[good], costs[good]
        needs_conj = cands[:, 2] < -1e-12
        pick = np.lexsort((costs, needs_conj))[0]
        a1, a2, a3 = cands[pick]
        if needs_conj[pick]:
            return CanonicalParams((a1, a2, -a3), conjugated=True)
        return CanonicalParams((a1, a2, abs(a3)), conjugated=False)
    raise BranchResolutionError(
        "could not resolve interaction coefficients; eigenphases may be "
        "degenerate beyond the clustering tolerance"
    )
