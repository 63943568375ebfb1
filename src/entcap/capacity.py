"""Closed-form entangling capacities organized by interaction-coefficient region.

How much entanglement one application of a two-qubit gate can create depends
only on its canonical coefficients (a1, a2, a3), through the eigenphases
lambda_j of the interaction factor on the magic-basis vectors B_j (columns
of ``BELL_BASIS``).  Complex conjugation maps a3 to -a3 and leaves every
capacity unchanged, so the tags read |a3|:

- ``ONE_EBIT``: a1+a2 >= pi/4 and a2+|a3| <= pi/4.  Zero lies in the convex
  hull of the points exp(-2i lambda_j) (Kraus & Cirac, PRA 63, 062309), so a
  product input is mapped to a maximally entangled output and every measure
  saturates at one e-bit.
- ``REGION_1``: a1+a2 < pi/4.  The best concurrence gain is sin(2(a1+a2)).
- ``REGION_2``: a2+|a3| > pi/4.  The best concurrence gain is sin(2(a2+|a3|)).

Saturation is tested first; under the canonical ordering the other two
conditions are mutually exclusive, so the tags partition parameter space.
Outside saturation every optimum is a mixture (B_j + e^{if} B_k)/sqrt(2) of
the pair whose eigenphase gap Delta = lambda_k - lambda_j has the largest
|sin Delta| (the gain above).  It has concurrence |cos f| before the gate and
|cos(f + Delta)| after, so each measure is a function of f alone: explicit
for the concurrence measures, one transcendental equation for the entropy,
whose root lies strictly between the concurrence's optimum (a product input)
and the squared concurrence's: an entangled input helps.  No result runs the
numerical optimizer.
"""
from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .canonical import CanonicalParams
from .errors import DimensionMismatchError, NotCanonicalError
from .measures import entropy_from_concurrence
from .qcore import (
    BELL_BASIS, QUARTER_PI, PureState, lambdas_from_alpha, require_unit_norm,
)

_PAIRS = tuple(itertools.combinations(range(4), 2))
_TRIANGLES = tuple(itertools.combinations(range(4), 3))

# Boundaries are a few ulps of pi/4 wide, so that the tag of a gate on one
# does not hang on the last bit of ``decompose`` (accurate to ~6e-16).
BOUNDARY_TOL = 1e-14


class RegionTag(Enum):
    """Which regime of canonical parameter space a gate falls in."""

    ONE_EBIT = "OneEbit"
    REGION_1 = "Region1"
    REGION_2 = "Region2"


@dataclass(frozen=True)
class AnalyticCapacity:
    """Capacity value with its region, optimizing input, and starting cost.

    ``initial_entanglement`` is reported in the same units as ``value``.
    ``extrapolated`` marks values produced by extending a formula beyond the
    regime where it is proven; ``rescaled_value`` carries the alternative
    normalization for the linear-entropy measure (twice the printed value).
    """

    value: float
    region: RegionTag
    optimal_state: PureState
    initial_entanglement: float
    extrapolated: bool = False
    rescaled_value: float | None = None


def _require_canonical(p) -> CanonicalParams:
    if not isinstance(p, CanonicalParams):
        p = CanonicalParams(tuple(p))
    if not p.is_canonical():
        raise NotCanonicalError(
            f"coefficients {p.alpha} violate pi/4 >= a1 >= a2 >= |a3| >= 0"
        )
    return p


def region_of(p) -> RegionTag:
    """Classify canonical coefficients; saturation wins over the other tags."""
    return _classified(p)[0]


def _classified(p) -> tuple[RegionTag, list[float]]:
    """Region tag and eigenphases (as Python floats) of ``p``, checked once."""
    alpha = _require_canonical(p).alpha
    a1, a2, a3 = alpha[0], alpha[1], abs(alpha[2])
    if a1 + a2 >= QUARTER_PI - BOUNDARY_TOL and a2 + a3 <= QUARTER_PI + BOUNDARY_TOL:
        region = RegionTag.ONE_EBIT
    else:
        region = RegionTag.REGION_1 if a1 + a2 < QUARTER_PI else RegionTag.REGION_2
    return region, lambdas_from_alpha(alpha).tolist()


def _saturating_input(lam: list[float]) -> PureState:
    """Product input that a ``ONE_EBIT`` gate maps to a maximally entangled one.

    With barycentric weights w of zero over points z_j = exp(-2i lambda_j),
    b_j = sqrt(w_j) exp(-i lambda_j) has concurrence |sum_j w_j z_j| = 0 and
    its image sum_j w_j = 1.  Over a triangle (i, j, k) the weights are
    (X[j,k], X[k,i], X[i,j]) / D, from the cross products X[i,j] =
    Im(conj(z_i) z_j) = sin 2(lambda_i - lambda_j) and their sum D; the
    triangle with the largest smallest weight is taken.  No triangle holds
    zero when all z_j lie on one line through 0 (every D is 0, as on CNOT
    and DCNOT) or zero sits on, or a rounding error outside, the hull's
    edge; then the chord nearest 0 gets weights 1/2, 1/2, since a chord is
    nearest 0 at its midpoint, at distance |cos(lambda_i - lambda_j)|.

    Each gap keeps its rounding error to first order, so that the small
    products of a thin triangle keep their relative precision.
    """
    cross, chords = {}, {}
    for i, j in _PAIRS:
        gap = lam[i] - lam[j]
        back = gap - lam[i]
        err = (lam[i] - (gap - back)) - (lam[j] + back)  # gap + err is exact
        s, c = math.sin(gap), math.cos(gap)
        s, c = s + err * c, c - err * s
        cross[i, j], chords[i, j] = 2.0 * s * c, abs(c)  # abs(c) = |z_i + z_j|/2
    low, tri, w = -1.0, (), ()
    for i, j, k in _TRIANGLES:  # the last of equal smallest weights wins
        x = cross[j, k], -cross[i, k], cross[i, j]
        d = x[0] + x[1] + x[2]
        if d != 0.0:
            fit = x[0] / d, x[1] / d, x[2] / d
            if min(fit) >= low:
                low, tri, w = min(fit), (i, j, k), fit
    if low < 0.0:
        tri, w = min(chords, key=chords.get), (0.5, 0.5)
    b = np.zeros(4, dtype=complex)
    for j, wj in zip(tri, w):
        b[j] = cmath.rect(math.sqrt(wj), -lam[j])
    return PureState(BELL_BASIS @ b)


def _widest_pair(lam: list[float]) -> tuple[int, int, float]:
    """Magic-basis pair (j, k) whose gap lambda_k - lambda_j has the largest
    |sine|, with that gap reduced modulo pi into [-pi/2, pi/2].

    Every gain depends on the gap only modulo pi.  The reduction makes a gap
    of +-pi exactly 0, so a zero-gain gate reports exactly 0 rather than the
    rounding residue sin(pi) ~ 1.2e-16.
    """
    sines = [abs(math.sin(lam[k] - lam[j])) for j, k in _PAIRS]
    j, k = _PAIRS[sines.index(max(sines))]
    gap = lam[k] - lam[j]
    return j, k, gap - math.pi * round(gap / math.pi)


def _mixture(j: int, k: int, f: float) -> PureState:
    pair = BELL_BASIS[:, j] + np.exp(1j * f) * BELL_BASIS[:, k]
    return PureState(pair / math.sqrt(2.0))


def _c2_phase(delta: float) -> float:
    """Mixing phase of the c2 optimum: the gain cos^2(f + delta) - cos^2 f =
    -sin(2f + delta) sin delta is largest at 2f + delta = -sign(delta) pi/2."""
    return -(math.copysign(math.pi / 2, delta) + delta) / 2


def capacity_c2(p) -> AnalyticCapacity:
    """Largest single-use increase of squared concurrence, no ancillas,
    from the pair mixture at ``_c2_phase``."""
    region, lam = _classified(p)
    if region is RegionTag.ONE_EBIT:
        return AnalyticCapacity(1.0, region, _saturating_input(lam), 0.0)
    j, k, delta = _widest_pair(lam)
    value, f = abs(math.sin(delta)), _c2_phase(delta)
    return AnalyticCapacity(value, region, _mixture(j, k, f), (1.0 - value) / 2.0)


def capacity_concurrence(p) -> AnalyticCapacity:
    """Largest single-use increase of concurrence; optimal inputs are product.

    Outside the saturating region the value equals the largest eigenphase-gap
    sine, reached from the product mixture at f = pi/2.  That formula is
    proven where a1+a2 < pi/4 and extended verbatim to the a2+|a3| > pi/4
    regime, where results carry ``extrapolated=True`` and are backed by
    numerical checks only.
    """
    region, lam = _classified(p)
    if region is RegionTag.ONE_EBIT:
        value, state = 1.0, _saturating_input(lam)
    else:
        j, k, delta = _widest_pair(lam)
        value, state = abs(math.sin(delta)), _mixture(j, k, math.pi / 2)
    extrapolated = region is RegionTag.REGION_2
    return AnalyticCapacity(value, region, state, 0.0, extrapolated=extrapolated)


def capacity_linear_entropy(p) -> AnalyticCapacity:
    """Largest single-use increase of linear entropy, no ancillas.

    ``value`` uses the printed definition 1 - Tr(rho_A^2), which tops out at
    1/2 on two qubits; ``rescaled_value`` is twice that, normalized to reach
    1 on maximally entangled states.  For pure two-qubit states the measure
    equals half the squared concurrence, so every branch is the squared-
    concurrence result halved, with the same optimal input.
    """
    c2 = capacity_c2(p)
    return replace(
        c2,
        value=c2.value / 2.0,
        initial_entanglement=c2.initial_entanglement / 2.0,
        rescaled_value=c2.value,
    )


def _mixture_entropy_slope(f: float) -> float:
    """d/df of E(|cos f|), the entropy at concurrence |cos f|: sign(sin f)
    cos f log2(q / (1 - q)) / 2, with the smaller Schmidt weight q =
    (1 - |sin f|)/2 in a form precise near product states, positive at any double."""
    s, c = math.sin(f), math.cos(f)
    q = c * c / (2.0 * (1.0 + abs(s)))
    return (c if s > 0.0 else -c) * math.log2(q / (1.0 - q)) / 2.0


def _entropy_phase(delta: float) -> float:
    """Mixing phase f maximizing g(f) = E(|cos(f + delta)|) - E(|cos f|).

    With E = phi(C^2), phi increasing and strictly concave, and delta > 0
    (f, delta -> -f, -delta gives the other sign): at the concurrence's
    optimum, the product input f = -pi/2, the input term is flat and g' =
    phi'(sin^2 delta) sin 2delta > 0; at the c2 optimum ``_c2_phase`` both C^2
    have slope cos delta and C_out^2 = (1 + sin delta)/2 > C_in^2, so g' =
    cos delta (phi'(C_out^2) - phi'(C_in^2)) < 0.  Illinois regula falsi
    narrows that bracket to floating-point resolution: the slope kept at an
    end that stays is halved, and a step that would leave the bracket bisects
    it instead.  A gain flat to rounding fails the sign test, and the c2
    phase is returned.
    """
    def slope(f: float) -> float:
        return _mixture_entropy_slope(f + delta) - _mixture_entropy_slope(f)

    c2 = _c2_phase(delta)
    a, b = sorted((-math.copysign(math.pi / 2, delta), c2))
    s_a, s_b = slope(a), slope(b)
    if not s_a > 0.0 > s_b:
        return c2
    while True:
        f = b - s_b * (b - a) / (s_b - s_a)
        if not min(a, b) < f < max(a, b):
            f = (a + b) / 2
            if not min(a, b) < f < max(a, b):
                return f
        s = slope(f)
        if s == 0.0:
            return f
        if s * s_b < 0.0:
            a, s_a = b, s_b
        else:
            s_a /= 2.0
        b, s_b = f, s


def capacity_entropy_no_ancilla(p) -> AnalyticCapacity:
    """Largest single-use increase of entropy of entanglement, no ancillas.

    Saturating gates yield exactly one e-bit from a product input; otherwise
    the optimum is the pair mixture at ``_entropy_phase``."""
    region, lam = _classified(p)
    if region is RegionTag.ONE_EBIT:
        return AnalyticCapacity(1.0, region, _saturating_input(lam), 0.0)
    j, k, delta = _widest_pair(lam)
    f = _entropy_phase(delta)
    initial = entropy_from_concurrence(abs(math.cos(f)))
    value = entropy_from_concurrence(abs(math.cos(f + delta))) - initial
    return AnalyticCapacity(value, region, _mixture(j, k, f), initial)


def delta_c2_bell(b, p) -> float:
    """Squared-concurrence gain of the interaction factor on magic-basis
    coefficients ``b``: |sum_j e^{2i l_j} b_j^2|^2 - |sum_j b_j^2|^2."""
    p = _require_canonical(p)
    b = np.asarray(b, dtype=complex)
    if b.shape != (4,):
        raise DimensionMismatchError(f"expected 4 coefficients, got shape {b.shape}")
    require_unit_norm(b)
    squares = b * b
    phases = np.exp(2j * np.asarray(p.lambdas))
    return float(abs(np.sum(phases * squares)) ** 2 - abs(np.sum(squares)) ** 2)
