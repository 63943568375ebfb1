"""Multi-start numerical maximization of entanglement gain.

States live on a register laid out as (Alice ancillas, Alice shared qubit,
Bob shared qubit, Bob ancillas), so the nonlocal gate always acts on the
middle pair and the A|B cut splits the basis index in half.  Real parameter
vectors map to states through ``parameterize_state`` (interleaved real and
imaginary parts, then normalization); the search is projected ascent on
the unit sphere of parameters, along the gradient or, on the smooth
measures (c2, linear entropy), along limited-memory BFGS directions; a
product start's row holds the state's two factors instead.  One line
search, ``_tiered_rungs``, serves the climb and the polish: a row searches
along one direction, trying step ladders in tiers until one moves it, the
best Armijo-acceptable rung of a tier wins, and no step is at or below
``_STEP_TOLERANCE``.  The climb tries its first rung alone first; the
polish tries only Newton rungs, on the smooth measures the full Newton
step alone first.  With ancillas the entropy climbs by Raydan's global
Barzilai-Borwein method: a trial need only beat its row's lowest value over
the stall window, and the secant step is capped at 1, not 0.2.  Two-qubit
registers keep the monotone test, under which more restarts certify at
optima on the product face.  Every measure takes one path: the output term
is the measure of U psi, its closed-form gradient pulled back through
U^dagger; central differences serve only the certificate and the polish's
Hessians.

All restarts of one search climb in lockstep as one block: each iteration
makes one ``gradients`` call and one line search for the rows still
climbing, while every row keeps its own step, stall window and exit.  One
rule says when a row is done, in the climb and the polish alike: its
analytic tangent norm is below half the certificate's bound, so a row that
reaches an optimum certifies there.  With at most 64 parameters a row whose
norm has not fallen fourfold over its stall window leaves the climb too, on
a two-qubit register a smooth measure's row after one window (L-BFGS
reaches the basin, Newton finishes), and the polish then takes every row
not yet done in one batch (one batch of Hessians and one batched ``eigh``
per round); the certificates of whole restarts share batched ``values`` calls.

A sweep makes its rows one block too: the objective holds one gate per
parameter row, so every restart of every sweep row climbs, polishes and
certifies together.  As rows leave, the climb and the polish drop them in
one place, ``_keep``, which restricts the objective and every per-row array
to the rows still held; both store their rows after each line search.  A
single search is the one-gate case of the same path.  A sweep searches each
distinct gate once, and its workers each take a contiguous chunk of those
gates as their block.

Determinism: restart i draws its start from a counter-based generator
seeded with master_seed + i, and its result depends only on that seed, the
config and its gate, bit for bit: not on how many restarts or which other
gates climb beside it, or on the worker count of a sweep.  Results reduce
by (value, then lowest seed), so a run is reproducible however restarts or
sweep rows are scheduled.
"""
from __future__ import annotations

import enum
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    EntcapError,
    NotNormalizedError,
    ZeroCapacityError,
)
from .measures import SMOOTH_KINDS, MeasureKind, entanglement_batch, require_qubit_pair
from .qcore import (
    QUARTER_PI,
    PureState,
    _require_unitary,
    build_canonical_unitary,
    make_rng,
)

_GRAD_STEP = 1e-6
_STEP_CAP = 0.2
_ARMIJO_SLOPE = 1e-4
_CONVERGED_GRAD_NORM = 1e-6
# A row is done, in the climb and the polish, once its analytic tangent norm
# is below this: the margin lets the central-difference certificate hold.
_EXIT_GRAD_NORM = 0.5 * _CONVERGED_GRAD_NORM
_STALL_WINDOW = 20
# Fourfold cut per stall window (n <= 64): a x0.95-a-step crawl halves its norm.
_STALL_CUT = 0.25
_STEP_TOLERANCE = 1e-10
# Pairs in a row's quasi-Newton memory on the smooth measures (L-BFGS).
_QN_MEMORY = 6
# The climb's ladder: 8 rungs, then halving rungs past _STEP_TOLERANCE.
_ASCENT_RUNGS = 8
_LADDER = 0.5 ** np.arange(int(math.log2(_STEP_CAP / _STEP_TOLERANCE)) + 1)
_HESSIAN_STEP = 1e-4
# Shifted rows per central-difference call (certificates, polish Hessians):
# 16 c2 restarts, 4 at 1+1 ancillas, 1 at 2+2.  Larger calls save no time at
# that size and only raise peak memory.
_CERTIFICATE_ROWS = 256
# Sharp-apex optima contract the gradient by roughly half per polish round
# from ~1e-3 entry norms, so the cap must cover ~20 halvings with margin;
# smooth optima exit in a handful of rounds regardless.
_POLISH_ROUNDS = 48
# The polish ladder reaches far smaller steps than the ascent ladder:
# entropy-like measures form sharp apexes at product states whose scale the
# sampled Hessian cannot represent, so locating them needs sub-1e-6 moves.
_POLISH_LADDER = _LADDER[:24]
# Larger problems skip the Newton polish and run plain ascent: a Hessian
# costs 2n gradient rows and an n x n eigendecomposition per round.
_POLISH_MAX_PARAMS = 64
# Parameters (rows x n) in one lockstep block of sweep rows: 512 c2 rows at
# 8 restarts, 4 entropy rows at 2+2 ancillas and 64 restarts.  A block's
# memory grows with its size, about 10 MB per 65,536 parameters at 2+2.
_BLOCK_PARAMETERS = 2**15
# Multiplier updates of the penalized search, one ascent each.
_MULTIPLIER_ROUNDS = 12


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the multi-start ascent: restarts per search, the iteration
    cap of each restart's climb, and the seed of restart 0."""

    restarts: int = 32
    max_iterations: int = 5000
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError("need at least one restart")
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration")


class FamilyKind(enum.Enum):
    """One-parameter interaction families used in the sweeps."""

    CNOT = "cnot"
    DCNOT = "dcnot"
    SWAP = "swap"


@dataclass(frozen=True)
class GateFamily:
    """A family member: kind plus the interaction strength alpha."""

    kind: FamilyKind
    alpha: float

    def canonical_alpha(self) -> tuple[float, float, float]:
        a = float(self.alpha)
        if self.kind is FamilyKind.CNOT:
            return (a, 0.0, 0.0)
        if self.kind is FamilyKind.DCNOT:
            return (a, a, 0.0)
        return (a, a, a)


@dataclass(frozen=True)
class CapacityResult:
    """Outcome of one multi-start optimization."""

    value: float
    optimal_state: PureState
    initial_entanglement: float
    final_entanglement: float
    converged_restarts: int
    best_restart_seed: int


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a family sweep; error rows carry NaN values."""

    alpha: float
    capacity: float
    initial_entanglement: float
    final_entanglement: float
    converged_restarts: int
    error: str | None = None


def parameterize_state(
    raw: np.ndarray, partition: tuple[str, ...] | None = None
) -> PureState:
    """Map 2d real parameters to a normalized d-dimensional state.

    raw[2k] and raw[2k+1] are the real and imaginary parts of amplitude k.
    The map is scale invariant, so gradients of any measure through it are
    tangent to the unit sphere of parameters.
    """
    raw = np.ascontiguousarray(raw, dtype=float)
    if raw.ndim != 1 or raw.size < 2 or raw.size % 2:
        raise DimensionMismatchError(f"parameter vector of shape {raw.shape} invalid")
    if not np.isfinite(raw).all():
        raise NotNormalizedError("parameter vector has a non-finite entry")
    if _row_norms(raw[None, :])[0, 0] == 0.0:
        raise ValueError("zero parameter vector has no direction")
    # PureState checks that the amplitudes fill a qubit register.
    return PureState(_unit_rows(raw[None, :])[0][0], partition)


def ancilla_partition(anc_a: int, anc_b: int) -> tuple[str, ...]:
    """Ownership labels for the (Alice ancillas, shared pair, Bob ancillas) layout."""
    return ("A",) * (anc_a + 1) + ("B",) * (anc_b + 1)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis of real rows, kept as a length-1 axis."""
    return np.sqrt(_dots(rows, rows))[..., None]


def _unit_rows(raw: np.ndarray):
    """Normalized complex rows of interleaved (re, im) parameters, with norms;
    ``raw`` is float64 with a contiguous last axis, as the view needs."""
    norm = _row_norms(raw)
    return raw.view(np.complex128) / norm, norm


def _sphere_gradient(grad: np.ndarray, unit: np.ndarray, norm: np.ndarray):
    """Interleaved real gradient of a function of unit = v / |v|, given its
    derivative ``grad`` in conj(unit): the component along unit is projected
    out and the rest divided by |v|."""
    along = _dots(unit.conj(), grad).real
    tangent = grad - along[..., None] * unit
    # A complex row viewed as floats is its interleaved (re, im) parameters.
    return tangent.view(np.float64) * (2.0 / norm)


def _register_dims(measure: MeasureKind, anc_a: int, anc_b: int) -> tuple[int, int]:
    """(dim_a, dim_b) of the register with these ancillas, if the measure
    is defined on it."""
    if not (0 <= anc_a <= 2 and 0 <= anc_b <= 2):
        raise ValueError("supported ancilla counts are 0, 1 and 2 per side")
    dims = 2 ** (anc_a + 1), 2 ** (anc_b + 1)
    require_qubit_pair(measure, *dims)
    return dims


class _CutObjective:
    """Batched entanglement gain E(U psi) - E(psi) of parameter rows.

    Each row has its own gate: ``u`` is one 4x4 gate, which every row
    shares, or a stack of one gate per row, and ``take`` restricts that
    stack, the only per-row array, to a subset of rows; U^dagger is derived
    where a gradient is pulled back.  Methods take parameters of shape (rows,
    ..., n_raw) and broadcast each row's gate over that row's trial axes
    (ladder rungs, difference shifts), so no gate is copied per trial.

    A free row holds one state's interleaved (re, im) amplitudes.  With
    ``product`` a row holds the two factors of psi = va x vb back to back,
    each normalized on its own, so E(psi) is exactly zero by construction.
    Every method reads rows through ``_states`` and measures them through
    ``terms``, one ``entanglement_batch`` call for the values or the
    gradients of both terms.
    """

    def __init__(self, u, measure: MeasureKind, anc_a: int, anc_b: int, product=False):
        self.dim_a, self.dim_b = _register_dims(measure, anc_a, anc_b)
        gates = np.asarray(u, dtype=complex)
        gates = gates if gates.ndim > 2 else [gates]
        self.u = np.stack([_require_unitary(g) for g in gates])
        self.measure = measure
        self.product = product
        self.dim_pre = 2**anc_a
        self.dim_post = 2**anc_b
        self.dim = self.dim_a * self.dim_b
        self.partition = ancilla_partition(anc_a, anc_b)
        self.n_raw = 2 * (self.dim_a + self.dim_b if product else self.dim)

    def take(self, rows):
        """The objective on the rows ``rows`` (an index array or list, or a
        slice) of its stack; a single shared gate serves any rows."""
        if len(self.u) == 1:
            return self
        part = object.__new__(type(self))
        part.__dict__.update(self.__dict__)
        part.u = self.u[rows]
        return part

    def _states(self, raw: np.ndarray):
        """State rows of ``raw``, and the map that pulls a derivative in
        conj(psi) back to the parameters."""
        if not self.product:
            s, norm = _unit_rows(raw)
            return s, lambda grad: _sphere_gradient(grad, s, norm)
        split = 2 * self.dim_a
        va, norm_a = _unit_rows(raw[..., :split])
        vb, norm_b = _unit_rows(raw[..., split:])

        def pull(grad):
            """Chain rule through both factors of psi = va x vb."""
            grad = grad.reshape(*grad.shape[:-1], self.dim_a, self.dim_b)
            grad_a = np.einsum("...ab,...b->...a", grad, vb.conj())
            grad_b = np.einsum("...ab,...a->...b", grad, va.conj())
            return np.concatenate([
                _sphere_gradient(grad_a, va, norm_a),
                _sphere_gradient(grad_b, vb, norm_b),
            ], axis=-1)

        states = np.einsum("...a,...b->...ab", va, vb)
        return states.reshape(*states.shape[:-2], self.dim), pull

    def evolve(self, states: np.ndarray, adjoint=False):
        """Apply each row's gate, or with ``adjoint`` its U^dagger, to the
        shared pair of that row's states."""
        t = states.reshape(len(states), -1, self.dim_pre, 4, self.dim_post)
        gate = self.u.conj().swapaxes(1, 2) if adjoint else self.u
        return np.einsum("mpq,mtxqy->mtxpy", gate, t).reshape(states.shape)

    def terms(self, states: np.ndarray, gradient=False):
        """The input and output terms of each state, E(psi) and E(U psi), or
        with ``gradient`` their derivatives in conj(psi), the output's pulled
        back through U^dagger; one kernel call.  A product row's input term
        is zeros."""
        rows = self.evolve(states) if self.product else np.stack([states, self.evolve(states)])
        flat = entanglement_batch(
            rows.reshape(-1, self.dim), self.measure, self.dim_a, self.dim_b, gradient
        )
        out = flat.reshape(rows.shape if gradient else rows.shape[:-1])
        term_in, term_out = (np.zeros_like(out), out) if self.product else out
        return term_in, self.evolve(term_out, True) if gradient else term_out

    def values(self, raw: np.ndarray) -> np.ndarray:
        e0, ef = self.terms(self._states(raw)[0])
        return ef - e0

    def gradients(self, raw: np.ndarray) -> np.ndarray:
        """Gradient of ``values`` at each parameter row, shaped like ``raw``."""
        states, pull = self._states(raw)
        grad_in, grad_out = self.terms(states, True)
        return pull(grad_out - grad_in)


class _PenalizedObjective(_CutObjective):
    """-E0 - penalty * hinge(target - gain)^2 over unrestricted states; the
    method of multipliers moves ``target`` and raises ``penalty``."""

    def __init__(self, u, measure, anc_a, anc_b, target: float, penalty: float):
        super().__init__(u, measure, anc_a, anc_b)
        self.target = target
        self.penalty = penalty

    def values(self, raw: np.ndarray) -> np.ndarray:
        e0, ef = self.terms(self._states(raw)[0])
        return -e0 - self.penalty * np.maximum(0.0, self.target - (ef - e0)) ** 2

    def gradients(self, raw: np.ndarray) -> np.ndarray:
        states, pull = self._states(raw)
        (e0, ef), (grad_in, grad_out) = self.terms(states), self.terms(states, True)
        weight = 2.0 * self.penalty * np.maximum(0.0, self.target - (ef - e0))
        return pull(weight[..., None] * (grad_out - grad_in) - grad_in)


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, row by row."""
    return np.einsum("...i,...i->...", a, b)


def _tangent(vec: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Part of each row of ``vec`` orthogonal to the unit row of ``raw``."""
    return vec - _dots(vec, raw)[..., None] * raw


def _central_differences(objective, raw: np.ndarray, step: float, gradients=False):
    """Entry [i, j] is (f(raw_i + step e_j) - f(raw_i - step e_j)) / (2 step),
    with f the objective's ``values``, or its ``gradients`` if asked.

    Whole rows share each call, up to ``_CERTIFICATE_ROWS`` shifted rows,
    and each call writes its differences straight into the one output."""
    k, n = raw.shape
    shifts = step * np.eye(n)
    signed = np.concatenate([shifts, -shifts])
    per_call = max(1, _CERTIFICATE_ROWS // (2 * n))
    out = np.empty((k, n, n) if gradients else (k, n))
    for i in range(0, k, per_call):
        part = objective.take(slice(i, i + per_call))
        fn = part.gradients if gradients else part.values
        ends = fn(raw[i : i + per_call, None, :] + signed)
        ends = ends.reshape(-1, 2, *out.shape[1:])
        out[i : i + per_call] = (ends[:, 0] - ends[:, 1]) / (2 * step)
    return out


def _certificate_norms(objective, raw: np.ndarray) -> np.ndarray:
    """Convergence certificate of each unit row of ``raw``: the norm of the
    tangent part of its central-difference gradient, step 1e-6."""
    grad = _tangent(_central_differences(objective, raw, _GRAD_STEP), raw)
    return np.sqrt(_dots(grad, grad))


def _tiered_rungs(objective, raw, value, tried, direction, slope, steps, tiers,
                  reference=None):
    """The line search of the climb and the polish: row i, where ``tried[i]``
    holds, steps along its one ``direction[i]`` by ``steps[i]`` times the
    falling rungs of each tier of ``tiers`` in turn, until a tier moves it.

    A trial is acceptable if it beats the row's Armijo ``reference`` (its
    value by default) by the Armijo share of the rise that the directional
    derivative ``slope[i]`` predicts; no step at or below ``_STEP_TOLERANCE``
    is acceptable.  The best acceptable rung of a tier wins, not the longest:
    the longest barely-improving step stops contracting near an optimum.  A
    tier's ladder is cut past the last rung where a trying row has a step
    above the tolerance, so a tier with no such row makes no ``values`` call;
    otherwise its trials share one call on the objective restricted to the
    trying rows.  Returns (moved, raw, value) as new arrays, the inputs left
    unwritten; a row no tier moved keeps its own.
    """
    reference = value if reference is None else reference
    raw, value, moved = raw.copy(), value.copy(), np.zeros(len(raw), dtype=bool)
    for rungs in tiers:
        rows = np.flatnonzero(tried & ~moved)
        if not rows.size:
            break
        r, ref, d, s, step = (
            a.take(rows, axis=0) for a in (raw, reference, direction, slope, steps)
        )
        cut = np.count_nonzero(step.max() * rungs > _STEP_TOLERANCE)
        if not cut:
            continue
        ladders = step[:, None] * rungs[:cut]
        trials = r[:, None] + ladders[..., None] * d[:, None]
        trials /= _row_norms(trials)
        trial_vals = objective.take(rows).values(trials)
        accepted = (ladders > _STEP_TOLERANCE) & (
            trial_vals >= ref[:, None] + _ARMIJO_SLOPE * ladders * s[:, None]
        )
        best = np.arange(rows.size), np.argmax(
            np.where(accepted, trial_vals, -np.inf), axis=1
        )
        found, new_r, new_v = accepted.any(axis=1), trials[best], trial_vals[best]
        rows = rows[found]
        raw[rows], value[rows], moved[rows] = new_r[found], new_v[found], True
    return moved, raw, value


def _keep(mask, objective, *arrays):
    """The objective and each per-row array restricted to the rows where
    ``mask`` holds: the one way the climb and the polish drop rows."""
    rows = np.flatnonzero(mask)
    return (objective.take(rows), *(a.take(rows, axis=0) for a in arrays))


def _newton_polish(objective, raw: np.ndarray, value: np.ndarray):
    """Second-order cleanup of a (k, n) block of rows in lockstep.

    Saturating optima sit on nearly flat ridges where gradient steps crawl;
    damped Newton steps restricted to the negative-curvature subspace contract
    the gradient below the convergence threshold.  A row searches along its
    Newton direction only: on a smooth measure (``SMOOTH_KINDS``) the full
    Newton step alone first, as the climb tries its first rung; then, and on
    every other measure first, the best rung of the Newton ladder.  A round
    makes one ``gradients`` call, one for the rows' Hessians (2n rows each),
    one batched ``eigh`` and one ``_tiered_rungs``; a row leaves when its
    gradient is below ``_EXIT_GRAD_NORM``, the climb's own exit, when it has
    no ascending Newton direction, or when no Newton rung moves it.
    """
    raw, value = raw.copy(), value.copy()
    polishing, rows, r, v, rounds = objective, np.arange(len(raw)), raw, value, 0
    while rows.size and rounds < _POLISH_ROUNDS:
        grad, rounds = _tangent(polishing.gradients(r), r), rounds + 1
        norm = np.sqrt(_dots(grad, grad))
        polishing, rows, r, v, grad = _keep(
            norm >= _EXIT_GRAD_NORM, polishing, rows, r, v, grad
        )
        if not rows.size:
            break
        hess = _central_differences(polishing, r, _HESSIAN_STEP, gradients=True)
        eigenvalues, eigenvectors = np.linalg.eigh(0.5 * (hess + hess.swapaxes(1, 2)))
        scale = np.maximum(np.abs(eigenvalues).max(axis=1), 1e-300)
        keep = eigenvalues < -1e-12 * scale[:, None]
        coeff = np.divide(
            np.einsum("mji,mj->mi", eigenvectors, grad), -eigenvalues,
            out=np.zeros_like(eigenvalues), where=keep,
        )
        newton = _tangent(np.einsum("mij,mj->mi", eigenvectors, coeff), r)
        newton /= np.maximum(np.sqrt(_dots(newton, newton)), 1.0)[:, None]
        newton_slope = _dots(grad, newton)
        newton_ok = keep.any(axis=1) & (newton_slope > 0.0)
        smooth = polishing.measure in SMOOTH_KINDS
        moved, r, v = _tiered_rungs(
            polishing, r, v, newton_ok, newton, newton_slope, np.ones(rows.size),
            (_POLISH_LADDER[:1], _POLISH_LADDER) if smooth else (_POLISH_LADDER,),
        )
        raw[rows], value[rows] = r, v
        polishing, rows, r, v = _keep(moved, polishing, rows, r, v)
    return raw, value


def _quasi_newton(grad, raw, pairs, s, y):
    """Two-loop L-BFGS ascent direction (Nocedal 1980) of each row, projected
    on the tangent space, after storing its pair (s, y) in ``pairs`` (oldest
    first, zeros unfilled) if s.y > 0; H0 is (s.y / y.y) I of the newest."""
    new = np.flatnonzero(_dots(s, y) > 0)  # also fails for NaN
    pairs[new, :-1] = pairs[new, 1:]
    pairs[new, -1, 0], pairs[new, -1, 1] = s[new], y[new]
    s, y = pairs[:, :, 0], pairs[:, :, 1]
    sy, yy = _dots(s, y), _dots(y[:, -1], y[:, -1])
    rho = np.divide(1.0, sy, out=np.zeros_like(sy), where=sy > 0)
    q, alpha = grad.copy(), np.empty(sy.shape)
    for i in reversed(range(sy.shape[1])):
        alpha[:, i] = rho[:, i] * _dots(s[:, i], q)
        q -= alpha[:, i, None] * y[:, i]
    q *= np.divide(sy[:, -1], yy, out=np.zeros_like(yy), where=sy[:, -1] > 0)[:, None]
    for i in range(sy.shape[1]):
        q += (alpha[:, i] - rho[:, i] * _dots(y[:, i], q))[:, None] * s[:, i]
    return _tangent(q, raw)


def _climb(objective, raw0: np.ndarray, cfg: OptimizerConfig):
    """Projected ascent of a (k, n) block of restarts in lockstep.

    Every row keeps its own secant step, Armijo ladder, stall window,
    iteration count and, on ``SMOOTH_KINDS``, the ``_QN_MEMORY`` newest (s, y)
    pairs with s.y > 0, and leaves the batch where its ascent alone would
    stop: its tangent norm below ``_EXIT_GRAD_NORM``, no acceptable step, or
    ``max_iterations``; with n <= _POLISH_MAX_PARAMS also unless its norm fell
    by ``_STALL_CUT`` (fourfold) over the stall window, for the polish, and
    on ``SMOOTH_KINDS`` with n = 8 after one window: the L-BFGS climb reaches
    the basin and Newton's quadratic convergence finishes there.  The
    line search is ``_tiered_rungs`` on ``_LADDER``: from 1 along a row's
    L-BFGS direction where it ascends, else from its secant step along the
    gradient, capped at ``_STEP_CAP``.  With ancillas a kinked measure's cap
    is 1 and its Armijo reference the row's lowest value over the stall
    window (nonmonotone, Raydan 1997), elsewhere its value.  An iteration
    makes one ``gradients`` call, the line search's ``values`` calls and one
    exit, on the climbing rows; returns (raw, value).
    """
    raw = raw0 / _row_norms(raw0)
    value = objective.values(raw)
    k, n = raw.shape
    # The climbing rows, compacted: entry i of each array below belongs to
    # restart rows[i].  Every one of them has moved on every iteration so
    # far, so the stall window is a ring of columns, one column a step: the
    # norm of iteration i sits in column i % _STALL_WINDOW.
    climbing, rows, r, v = objective, np.arange(k), raw.copy(), value.copy()
    step, prev_r, prev_g = np.full(k, 0.1), r, np.zeros_like(r)
    norms = np.empty((k, _STALL_WINDOW))
    # Kinked measures with ancillas (n > 8): Raydan's global BB method; a
    # window of one value is the monotone test.  Smooth ones without: one
    # stall window, then Newton, whose 2n-row Hessians cost more with ancillas.
    smooth = objective.measure in SMOOTH_KINDS
    global_bb = not smooth and n > 8
    cap, window = (1.0, _STALL_WINDOW) if global_bb else (_STEP_CAP, 1)
    recent = np.tile(value[:, None], (1, window))
    # Per-row quasi-Newton memory; kinked measures keep none: the polish takes kinks.
    pairs = np.zeros((k, _QN_MEMORY if smooth else 0, 2, n))
    last = _STALL_WINDOW if smooth and n <= 8 else math.inf
    for iteration in range(min(cfg.max_iterations, last)):
        grad = _tangent(climbing.gradients(r), r)
        norm = np.sqrt(_dots(grad, grad))
        direction, slope, trial_step = grad, norm**2, step
        if iteration:
            # Secant (Barzilai-Borwein) step: match the curvature seen along
            # the last move so ill-conditioned ridges do not force a crawl.
            dx, dg = r - prev_r, prev_g - grad
            curvature = _dots(dx, dg)
            bb = np.divide(
                _dots(dx, dx), curvature,
                out=np.zeros_like(curvature), where=curvature > 0,
            )
            secant = (bb > 0) & (bb < np.inf)  # bb < inf also fails for NaN
            step = trial_step = np.where(secant, np.minimum(bb, cap), step)
        if iteration and pairs.shape[1]:
            # A row whose L-BFGS direction ascends steps from 1 along it.
            ascent = _quasi_newton(grad, r, pairs, dx, dg)
            ascent_slope = _dots(grad, ascent)
            quasi = ascent_slope > 0
            direction = np.where(quasi[:, None], ascent, grad)
            slope = np.where(quasi, ascent_slope, slope)
            trial_step = np.where(quasi, 1.0, step)
        prev_r, prev_g = r, grad
        # Done rows try no rung.  The first rung alone first: the best of
        # all 8 rungs costs 8 trials a row, and the first is usually
        # acceptable.  Along grad the directional derivative is its norm^2.
        live = ~(norm < _EXIT_GRAD_NORM)
        moved, r, v = _tiered_rungs(
            climbing, r, v, live, direction, slope, trial_step,
            (_LADDER[:1], _LADDER[1:_ASCENT_RUNGS], _LADDER[_ASCENT_RUNGS:]),
            recent.min(axis=1),
        )
        raw[rows], value[rows] = r, v
        recent[:, iteration % window] = v
        stop = ~moved
        if n <= _POLISH_MAX_PARAMS:
            norms[:, iteration % _STALL_WINDOW] = norm
            if iteration + 1 >= _STALL_WINDOW:
                stop |= norm > _STALL_CUT * norms[:, (iteration + 1) % _STALL_WINDOW]
        if stop.any():
            climbing, rows, r, v, step, prev_r, prev_g, pairs, norms, recent = _keep(
                ~stop, climbing, rows, r, v, step, prev_r, prev_g, pairs, norms, recent
            )
            if not rows.size:
                break
    return raw, value


def _ascend(objective, raw0: np.ndarray, cfg: OptimizerConfig):
    """Climb a (k, n) block of restarts, then hand it whole to the polish if n
    allows, which drops converged rows at their exit; returns (raw, value)."""
    raw, value = _climb(objective, raw0, cfg)
    if raw.shape[1] <= _POLISH_MAX_PARAMS:
        raw, value = _newton_polish(objective, raw, value)
    return raw, value


def _default_config(anc_a: int, anc_b: int) -> OptimizerConfig:
    return OptimizerConfig(restarts=64 if anc_a + anc_b >= 4 else 32)


def _results(objective, raw: np.ndarray, rows, converged, seeds) -> list:
    """The result for each row ``rows[j]`` of ``raw``, with ``converged[j]``
    certified restarts and best seed ``seeds[j]``, its values read off its
    state; all rows share one kernel call."""
    part = objective.take(rows)
    states = part._states(raw.take(rows, axis=0))[0]
    e0, ef = (e.tolist() for e in part.terms(states))
    return [
        CapacityResult(f - i, PureState(state, part.partition), i, f, c, seed)
        for state, i, f, c, seed in zip(states, e0, ef, converged, seeds)
    ]


def _capacities(gates, measure, anc_a, anc_b, cfg: OptimizerConfig, product=False):
    """Multi-start search of every gate in ``gates``, in lockstep blocks.

    Each gate gets the restarts seeded master_seed, ..., master_seed + k - 1
    (k = cfg.restarts), so the k starts are drawn once.  Consecutive gates
    form blocks of at most ``_BLOCK_PARAMETERS`` parameters, and of at least
    one gate.  A block's (gates * k, n) rows climb and polish together, in
    consecutive parts of at most ``_BLOCK_PARAMETERS`` parameters (only one
    gate's rows split), then certify, and each gate's k rows reduce on their
    own.  Returns, per gate, its CapacityResult or the ConvergenceError of a
    gate none of whose restarts certified.
    """
    objective = _CutObjective(gates, measure, anc_a, anc_b, product)
    seeds = range(cfg.master_seed, cfg.master_seed + cfg.restarts)
    starts = np.array([make_rng(s).standard_normal(objective.n_raw) for s in seeds])
    k, gate_count = len(starts), len(objective.u)
    per_block = max(1, _BLOCK_PARAMETERS // starts.size)
    size = max(1, _BLOCK_PARAMETERS // objective.n_raw)
    error = f"no restart reached gradient norm below {_CONVERGED_GRAD_NORM}"
    out = []
    for first in range(0, gate_count, per_block):
        count = min(per_block, gate_count - first)
        block = objective.take(np.repeat(np.arange(first, first + count), k))
        raw0 = np.tile(starts, (count, 1))
        raw, value = (np.concatenate(part) for part in zip(*(
            _ascend(block.take(slice(i, i + size)), raw0[i : i + size], cfg)
            for i in range(0, len(raw0), size)
        )))
        # A restart converged if its certificate at the exit point holds; a
        # NaN restart neither counts nor wins.
        converged = _certificate_norms(block, raw) < _CONVERGED_GRAD_NORM
        converged &= ~np.isnan(value)
        certified = converged.reshape(count, k).sum(axis=1)
        found = np.flatnonzero(certified)
        # nanargmax returns the first maximum, which belongs to the lowest seed.
        best = np.nanargmax(value.reshape(count, k)[found], axis=1)
        picks = found * k + best, certified[found].tolist(), [seeds[b] for b in best]
        results = iter(_results(block, raw, *picks) if found.size else ())
        out += [next(results) if c else ConvergenceError(error) for c in certified]
    return out


def _capacity(u, measure, anc_a, anc_b, cfg, product):
    """The one-gate case of ``_capacities``; raises its ConvergenceError."""
    cfg = cfg or _default_config(anc_a, anc_b)
    (result,) = _capacities([u], measure, anc_a, anc_b, cfg, product)
    if isinstance(result, ConvergenceError):
        raise result
    return result


def numeric_capacity(
    u: np.ndarray,
    measure: MeasureKind,
    anc_a: int = 0,
    anc_b: int = 0,
    cfg: OptimizerConfig | None = None,
) -> CapacityResult:
    """Maximize E(U psi) - E(psi) over all initial states of the register."""
    return _capacity(u, measure, anc_a, anc_b, cfg, product=False)


def product_start_capacity(
    u: np.ndarray,
    measure: MeasureKind,
    anc_a: int = 0,
    anc_b: int = 0,
    cfg: OptimizerConfig | None = None,
) -> CapacityResult:
    """Maximize E(U psi) over initial states that are product across A|B."""
    return _capacity(u, measure, anc_a, anc_b, cfg, product=True)


def minimize_initial_entanglement(
    u: np.ndarray,
    measure: MeasureKind,
    anc_a: int = 0,
    anc_b: int = 0,
    cfg: OptimizerConfig | None = None,
    value_slack: float = 1e-6,
    penalty: float = 1e4,
) -> CapacityResult:
    """Among near-capacity states, find one with the least starting entanglement.

    Runs the usual capacity search, then minimizes E0 from its state subject
    to gain >= target = capacity - value_slack by the method of multipliers
    on -E0 - penalty * hinge(aim + shift - gain)^2: after each ascent the
    shift grows by the gain's shortfall from the aim, halfway into the slack
    since the rounds approach it from below, and the penalty tenfold when
    that shortfall fell less than 4-fold.  If the state reached is short of
    the target, the capacity search's result is returned instead, with a
    RuntimeWarning.  The slack and the penalty must be finite and positive.
    """
    if not (0 < value_slack < math.inf and 0 < penalty < math.inf):
        raise ValueError("slack and penalty must be finite and positive")
    cfg = cfg or _default_config(anc_a, anc_b)
    base = numeric_capacity(u, measure, anc_a, anc_b, cfg)
    target, aim = base.value - value_slack, base.value - value_slack / 2
    # A complex row viewed as floats is its interleaved (re, im) parameters.
    raw = base.optimal_state.amplitudes.view(np.float64)[None, :]
    penalized = _PenalizedObjective(u, measure, anc_a, anc_b, aim, penalty)
    shift, shortfall = 0.0, math.inf
    for _ in range(_MULTIPLIER_ROUNDS):
        raw, _ = _ascend(penalized, raw, cfg)
        (result,) = _results(
            penalized, raw, [0], [base.converged_restarts], [base.best_restart_seed]
        )
        if result.value >= target:
            return result
        # shift = multiplier / (2 penalty), so a tenfold penalty divides it.
        gap, shift = aim - result.value, shift + aim - result.value
        if gap > 0.25 * shortfall:
            penalized.penalty, shift = 10.0 * penalized.penalty, shift / 10.0
        shortfall, penalized.target = gap, aim + shift
    warnings.warn(
        f"penalized search reached gain {result.value:.12g}, short of its target "
        f"{target:.12g}; returning the capacity search's state",
        RuntimeWarning,
        stacklevel=2,
    )
    return base


@dataclass(frozen=True)
class InterconversionBounds:
    """Entanglement-based bounds on simulating one gate with another."""

    ebit_lower_bound_u1: float
    rate_upper_bound_u1_to_u2: float


def interconversion_bounds(
    u1, u2, cfg: OptimizerConfig | None = None
) -> InterconversionBounds:
    """Bounds from single-use capacities with one ancilla per side.

    Creating u1 from e-bits needs at least its capacity; simulating u1 with
    copies of u2 cannot beat the capacity ratio.  A denominator capacity at
    or below 1e-6 ebits means u2 is locally trivial and no finite rate
    exists: ZeroCapacityError.
    """
    _require_unitary(u1)
    _require_unitary(u2)
    kind = MeasureKind.ENTROPY_OF_ENTANGLEMENT
    cap1 = numeric_capacity(u1, kind, anc_a=1, anc_b=1, cfg=cfg).value
    cap2 = numeric_capacity(u2, kind, anc_a=1, anc_b=1, cfg=cfg).value
    if cap2 <= 1e-6:
        raise ZeroCapacityError(
            f"target capacity {cap2:.3e} is at the zero tolerance; "
            "the denominator gate is locally trivial"
        )
    return InterconversionBounds(cap1, cap1 / cap2)


def n_copy_capacity(u, n: int, cfg: OptimizerConfig | None = None) -> float:
    """Capacity of ``n`` uses: n times the single-use ancilla-assisted value.

    Each use may act on a freshly prepared optimal input held alongside the
    previously generated entanglement, so uses decouple and totals add.
    """
    if int(n) != n or n < 1:
        raise ValueError(f"copy count must be a positive integer, got {n!r}")
    kind = MeasureKind.ENTROPY_OF_ENTANGLEMENT
    return int(n) * numeric_capacity(u, kind, anc_a=1, anc_b=1, cfg=cfg).value


def family_unitary(family: GateFamily) -> np.ndarray:
    """Interaction unitary of a family member; alpha must lie in [0, pi/4].

    Endpoints rounded at the tenth decimal are routinely passed on command
    lines, so the check allows 1e-9 of slack and the value is clamped back
    into range.
    """
    if not -1e-9 <= family.alpha <= QUARTER_PI + 1e-9:
        raise ValueError(f"family alpha {family.alpha} outside [0, pi/4]")
    clamped = GateFamily(family.kind, min(max(family.alpha, 0.0), QUARTER_PI))
    return build_canonical_unitary(clamped.canonical_alpha())


def _search_task(task) -> list:
    """``_capacities`` of one pool task's arguments."""
    return _capacities(*task)


def _pool_size(workers: int, rows: int) -> int:
    """Processes for a sweep: never more than its rows or the CPUs this
    process may run on (all the machine's where affinity is unknown)."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return max(1, min(workers, rows, cpus))


def __getattr__(name):
    """The process pool, imported on first use: it loads multiprocessing."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor


def _run_sweep(rows, measure, anc_a, anc_b, cfg, product_start, workers):
    """Capacity of each (label, gate builder, builder argument) row.

    Every row's gate is built and checked first; a domain error there makes
    that row an error row.  Each distinct gate (by its bytes) then searches
    once, all in lockstep: all restarts of all gates climb, polish and
    certify as one block, and each gate reduces its own restarts.  With
    workers > 1 each process takes one contiguous chunk of the distinct
    gates as its block.  A restart's result depends only on its seed, config
    and gate, so rows come out the same for any chunking, and a row whose
    gate repeats an earlier one's reports the same search.
    """
    if workers < 1:
        raise ValueError("need at least one worker")
    if not rows:
        raise ValueError("need at least one grid point")
    cfg = cfg or _default_config(anc_a, anc_b)
    built, gates = [], {}
    for label, gate, argument in rows:
        try:
            u = gate(argument)
            _register_dims(measure, anc_a, anc_b)
            u = _require_unitary(u)
        except (EntcapError, ValueError) as exc:
            # Domain errors are recorded per row instead of aborting the sweep;
            # anything else is a bug and propagates.
            built.append((label, exc))
        else:
            key = u.tobytes()
            built.append((label, key))
            gates.setdefault(key, u)
    distinct = list(gates.values())
    size = _pool_size(workers, len(distinct))
    tasks = [
        (distinct[i * len(distinct) // size : (i + 1) * len(distinct) // size],
         measure, anc_a, anc_b, cfg, product_start)
        for i in range(size) if distinct
    ]
    if size == 1:
        blocks = list(map(_search_task, tasks))
    else:
        name = "ProcessPoolExecutor"  # one set on the module wins
        executor = globals().get(name) or __getattr__(name)
        with executor(max_workers=size) as pool:
            blocks = list(pool.map(_search_task, tasks))
    found = dict(zip(gates, (result for block in blocks for result in block)))
    out = []
    for label, key in built:
        result = key if isinstance(key, Exception) else found[key]
        if isinstance(result, Exception):
            out.append(SweepRow(label, math.nan, math.nan, math.nan, 0, str(result)))
        else:
            out.append(SweepRow(
                label, result.value, result.initial_entanglement,
                result.final_entanglement, result.converged_restarts,
            ))
    return out


def family_sweep(
    kind: FamilyKind,
    alphas,
    measure: MeasureKind,
    anc_a: int = 0,
    anc_b: int = 0,
    cfg: OptimizerConfig | None = None,
    product_start: bool = False,
    workers: int = 1,
) -> list[SweepRow]:
    """Capacity at each alpha of a family grid.

    All restarts of all distinct gates search as one lockstep block, and
    each gate reduces its own; with workers > 1 each process takes one
    contiguous chunk of those gates as its block.  Every row equals
    ``numeric_capacity`` on its gate bit for bit, so results are identical
    for any worker count.
    """
    rows = [(float(a), family_unitary, GateFamily(kind, float(a))) for a in alphas]
    return _run_sweep(rows, measure, anc_a, anc_b, cfg, product_start, workers)


def custom_sweep(
    triples,
    measure: MeasureKind,
    anc_a: int = 0,
    anc_b: int = 0,
    cfg: OptimizerConfig | None = None,
    product_start: bool = False,
    workers: int = 1,
) -> list[SweepRow]:
    """Capacity at each of a list of canonical triples; rows as family_sweep.

    The scalar alpha column of each row reports the triple's leading angle.
    """
    rows = [
        (float(t[0]), build_canonical_unitary, tuple(float(a) for a in t))
        for t in triples
    ]
    return _run_sweep(rows, measure, anc_a, anc_b, cfg, product_start, workers)
