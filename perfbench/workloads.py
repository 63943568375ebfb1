"""Inputs, timed units and output checks for the benchmark workloads.

A *unit* is the smallest call the benchmark times.  On ``analytic_mix`` and
``ancilla_entropy`` a unit is one item; on ``sweep_c2`` it is one CLI sweep,
and each CSV row it writes is an item.  ``run`` returns one entry per item:
``None`` when the item passed its checks, otherwise the failure type.

Units come in cycles of ``cycle`` units, each a balanced mix of the
workload's items.  The content of cycle k is drawn from a fixed panel seed,
the same for every ``--seed``; the seed sets the order of the units within
each cycle.  The optimizer's cost per item is heavy-tailed and chaotic (a
last-bit change in the input moves it by a factor of several), so with fresh
content per seed the quartile spread of throughput over 10 seeds reached 23%
on ``analytic_mix``; with fixed content every run does the same work.
Inputs repeat within a run only on ``analytic_mix``, whose named gates
recur every fifth cycle, and on ``sweep_c2``, whose grid every sweep repeats.

Inputs come from the benchmark's own generator and gate builder, never from
the program's RNG or builders, so a change to the program cannot change what
it is given.
"""
from __future__ import annotations

import itertools
import math
import os
import time

import numpy as np

from entcap import canonical, capacity, cli, measures, optimize, qcore
from entcap.measures import MeasureKind
from tracing import cpu_seconds

QUARTER_PI = math.pi / 4
REGIONS = ("OneEbit", "Region1", "Region2")

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_PAIR_PAULIS = tuple(np.kron(p, p) for p in _PAULI)

_SQRT_SWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, (1 + 1j) / 2, (1 - 1j) / 2, 0],
        [0, (1 - 1j) / 2, (1 + 1j) / 2, 0],
        [0, 0, 0, 1],
    ]
)
# The literal textbook matrices with their canonical triples.
NAMED_GATES = (
    ("CNOT", np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
     (QUARTER_PI, 0.0, 0.0)),
    ("DCNOT", np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0]]),
     (QUARTER_PI, QUARTER_PI, 0.0)),
    ("SWAP", np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
     (QUARTER_PI, QUARTER_PI, QUARTER_PI)),
    ("identity", np.eye(4), (0.0, 0.0, 0.0)),
    ("sqrtSWAP", _SQRT_SWAP, (QUARTER_PI / 2,) * 3),
)

# Tolerances of the output checks.
ALPHA_TOL = 1e-9
FORMULA_TOL = 1e-12
LINEAR_TOL = 1e-8
STATE_TOL = 1e-8
SWEEP_TOL = 1e-5
ANCILLA_GAP_TOL = 1e-3
SWAP_FULL_TOL = 1e-3
SWAP_DCNOT_TOL = 1e-4
ENTROPY_MAX_TOL = 1e-9

_KINDS = {
    "c2": MeasureKind.CONCURRENCE_SQUARED,
    "concurrence": MeasureKind.CONCURRENCE,
    "linear": MeasureKind.LINEAR_ENTROPY,
    "entropy": MeasureKind.ENTROPY_OF_ENTANGLEMENT,
}


class CheckFailed(Exception):
    """An output disagreed with its reference; ``check`` names the rule."""

    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check


def failure_type(exc: BaseException) -> str:
    """Name under which a failed item is counted."""
    if isinstance(exc, CheckFailed):
        return f"check:{exc.check}"
    return type(exc).__name__


def interaction_unitary(alpha) -> np.ndarray:
    """exp(i (a1 XX + a2 YY + a3 ZZ)), built independently of the program."""
    h = sum(a * p for a, p in zip(alpha, _PAIR_PAULIS))
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def dressed(rng: np.random.Generator, u: np.ndarray) -> np.ndarray:
    """u between Haar-random local unitaries on both sides."""
    def local():
        return np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))

    return local() @ u @ local()


def region_of_triple(alpha) -> str:
    """The paper's region rule on (a1, a2, |a3|); saturation wins."""
    a1, a2, a3 = alpha[0], alpha[1], abs(alpha[2])
    if a1 + a2 >= QUARTER_PI and a2 + a3 <= QUARTER_PI:
        return "OneEbit"
    return "Region1" if a1 + a2 < QUARTER_PI else "Region2"


def closed_form_c2(alpha) -> float:
    """Piecewise c2 (and concurrence) capacity of a canonical triple."""
    region = region_of_triple(alpha)
    if region == "OneEbit":
        return 1.0
    if region == "Region1":
        return math.sin(2 * (alpha[0] + alpha[1]))
    return math.sin(2 * (alpha[1] + abs(alpha[2])))


def draw_triple(rng: np.random.Generator, region: str) -> tuple[float, float, float]:
    """Canonical (a1, a2, a3 >= 0) drawn by rejection until it lies in region."""
    while True:
        a1 = QUARTER_PI * rng.random()
        a2 = a1 * rng.random()
        a3 = a2 * rng.random()
        if region_of_triple((a1, a2, a3)) == region:
            return (a1, a2, a3)


# Seeds the content of every cycle; --seed only orders it.
PANEL_SEED = 20020500


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng([seed, block])


def _shuffled(seed: int, cycle: int, items: list) -> list:
    order = _block_rng(seed, cycle).permutation(len(items))
    return [items[i] for i in order]


def _within(got: float, want: float, tol: float) -> bool:
    # Written so that NaN never passes.
    return abs(got - want) <= tol


# --------------------------------------------------------------- analytic_mix


class AnalyticMix:
    """decompose plus the four closed-form capacities, gate by gate.

    A cycle holds one Haar-dressed random gate per region (a3 of random sign,
    so half take the mirror cell, which ``decompose`` must undo) and one of
    the 5 named gates in turn.
    """

    name = "analytic_mix"
    cycle = 4
    traced_units = 40
    latency = "p50_and_tail"

    def warm_up(self) -> None:
        name, u, alpha = NAMED_GATES[3]
        self.run((name, u, alpha))

    def units(self, seed: int):
        for k in itertools.count():
            panel = _block_rng(PANEL_SEED, k)
            items = []
            for region in REGIONS:
                a1, a2, a3 = draw_triple(panel, region)
                sign = 1.0 if panel.random() < 0.5 else -1.0
                u = dressed(panel, interaction_unitary((a1, a2, sign * a3)))
                items.append((region, u, (a1, a2, a3)))
            items.append(NAMED_GATES[k % len(NAMED_GATES)])
            yield from _shuffled(seed, k, items)

    def run(self, unit) -> list[str | None]:
        try:
            check_analytic(*unit)
        except Exception as exc:  # each item's failure is counted, never retried
            return [failure_type(exc)]
        return [None]


def check_analytic(label: str, u: np.ndarray, alpha) -> dict:
    """Run one analytic_mix item and check every output; returns the results."""
    p = canonical.decompose(u)
    err = max(abs(g - w) for g, w in zip(p.alpha, alpha))
    if not err <= ALPHA_TOL:
        raise CheckFailed("decompose.alpha", f"{label}: error {err:.3e}")
    results = {
        "c2": capacity.capacity_c2(p),
        "concurrence": capacity.capacity_concurrence(p),
        "linear": capacity.capacity_linear_entropy(p),
        "entropy": capacity.capacity_entropy_no_ancilla(p),
    }
    check_analytic_results(label, p.alpha, region_of_triple(alpha), results)
    return results


def check_analytic_results(label: str, alpha, region: str, results: dict) -> None:
    """Region tags, closed forms and optimal-state consistency of one item."""
    for name, res in results.items():
        if res.region.value != region:
            raise CheckFailed(
                "capacity.region", f"{label} {name}: {res.region.value} != {region}"
            )
    want = closed_form_c2(alpha)
    for name in ("c2", "concurrence"):
        if not _within(results[name].value, want, FORMULA_TOL):
            raise CheckFailed(
                f"capacity.{name}.formula", f"{label}: {results[name].value!r} != {want!r}"
            )
    if not _within(results["linear"].value, results["c2"].value / 2, LINEAR_TOL):
        raise CheckFailed("capacity.linear.half_c2", label)
    gate = qcore.build_canonical_unitary(alpha)
    for name, res in results.items():
        kind = _KINDS[name]
        psi = res.optimal_state.amplitudes
        e0 = measures.evaluate(kind, psi)
        gain = measures.evaluate(kind, gate @ psi) - e0
        if not _within(gain, res.value, STATE_TOL):
            raise CheckFailed(f"capacity.{name}.state_value", f"{label}: {gain!r}")
        if not _within(e0, res.initial_entanglement, STATE_TOL):
            raise CheckFailed(f"capacity.{name}.state_initial", f"{label}: {e0!r}")


# ------------------------------------------------------------------- sweep_c2


# Criterion 3's grid: a1 on five angles, a2 = f2 * a1, a3 = f3 * a2.  It
# covers all three regions and puts rows exactly on both region boundaries,
# where the optimizer is slowest.
SWEEP_GRID = tuple(
    (a1, f2 * a1, f3 * f2 * a1)
    for a1 in (math.pi / 16, math.pi / 8, 3 * math.pi / 16, 7 * math.pi / 32, QUARTER_PI)
    for f2 in (0.0, 0.25, 0.5, 0.75, 1.0)
    for f3 in (0.0, 0.5, 1.0)
)


class SweepC2:
    """``entcap sweep --alpha-triple ... --measure c2`` run in-process.

    Each sweep is the whole 75-row grid in a seeded order.  A grid row
    costs from 0.1 s to 10 s at the CLI's 32 restarts, so a sample of the
    grid would make throughput depend on the draw; the whole grid at 8
    restarts fits three sweeps in a run.  CSVs are written under ``out_dir``.
    """

    name = "sweep_c2"
    cycle = 1
    traced_units = 2
    latency = None
    restarts = 8

    def __init__(self, out_dir: str, workers: int, tracer=None):
        self.out_dir = out_dir
        self.workers = workers
        self.tracer = tracer
        self._count = 0

    def warm_up(self) -> None:
        path = os.path.join(self.out_dir, "warm_up.csv")
        triple = ",".join(repr(a) for a in (0.3, 0.2, 0.1))
        cli.main(["sweep", "--alpha-triple", triple, "--measure", "c2",
                  "--restarts", "1", "--out", path])

    def units(self, seed: int):
        for k in itertools.count():
            yield tuple(_shuffled(seed, k, list(SWEEP_GRID)))

    def argv(self, triples, path: str) -> list[str]:
        args = ["sweep"]
        for t in triples:
            args += ["--alpha-triple", ",".join(repr(a) for a in t)]
        return args + ["--measure", "c2", "--restarts", str(self.restarts),
                       "--workers", str(self.workers), "--out", path]

    def run(self, unit) -> list[str | None]:
        self._count += 1
        path = os.path.join(self.out_dir, f"sweep_{self._count}.csv")
        cpu0, wall0 = cpu_seconds(), time.perf_counter()
        try:
            code = cli.main(self.argv(unit, path))
            wall = time.perf_counter() - wall0
            if code != 0:
                return [f"exit:{code}"] * len(unit)
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except Exception as exc:  # each item's failure is counted, never retried
            return [failure_type(exc)] * len(unit)
        finally:
            if os.path.exists(path):
                os.remove(path)
        if self.tracer is not None:
            self.tracer.add("sweep.rows", len(unit))
            self.tracer.add("sweep.csv_bytes", len(text.encode()))
            self.tracer.add("sweep.cpu_s", cpu_seconds() - cpu0)
            self.tracer.add("sweep.worker_wall_s", wall * self.workers)
        return check_sweep_csv(text, unit)


def check_sweep_csv(text: str, triples) -> list[str | None]:
    """Per-row outcome: the capacity column against the closed-form c2."""
    lines = text.splitlines()
    if not lines or lines[0] != cli.CSV_HEADER or len(lines) != len(triples) + 1:
        return ["check:sweep.shape"] * len(triples)
    out = []
    for line, triple in zip(lines[1:], triples):
        try:
            value = float(line.split(",")[1])
        except (IndexError, ValueError):
            out.append("check:sweep.parse")
            continue
        ok = _within(value, closed_form_c2(triple), SWEEP_TOL)
        out.append(None if ok else "check:sweep.capacity")
    return out


# ------------------------------------------------------------ ancilla_entropy


ANCILLA_ALPHAS = (math.pi / 8, 3 * math.pi / 16, QUARTER_PI)
ANCILLA_FAMILIES = {
    "DCNOT": lambda a: (a, a, 0.0),
    "SWAP": lambda a: (a, a, a),
}


class AncillaEntropy:
    """``numeric_capacity`` with the entropy measure and ancillas on both sides.

    Cycle k holds Haar-dressed DCNOT and SWAP at the k-th of three strengths
    in turn, each at 1+1 and 2+2 ancillas.  The restart count is fixed below
    the library default (32 at 1+1, 64 at 2+2) so that a run holds several
    cycles in the same time as the other workloads.
    """

    name = "ancilla_entropy"
    cycle = 4
    traced_units = 24
    latency = "p50"
    restarts = 4

    def __init__(self):
        self._values: dict[tuple, float] = {}

    def warm_up(self) -> None:
        u = interaction_unitary((math.pi / 8, math.pi / 8, 0.0))
        optimize.numeric_capacity(
            u, MeasureKind.ENTROPY_OF_ENTANGLEMENT, 1, 1,
            cfg=optimize.OptimizerConfig(restarts=1),
        )

    def units(self, seed: int):
        for k in itertools.count():
            panel = _block_rng(PANEL_SEED, k)
            i = k % len(ANCILLA_ALPHAS)
            items = [
                (k, family, i, anc, dressed(panel, interaction_unitary(triple(ANCILLA_ALPHAS[i]))))
                for family, triple in ANCILLA_FAMILIES.items()
                for anc in (1, 2)
            ]
            yield from _shuffled(seed, k, items)

    def run(self, unit) -> list[str | None]:
        cycle, family, i, anc, u = unit
        try:
            value = optimize.numeric_capacity(
                u, MeasureKind.ENTROPY_OF_ENTANGLEMENT, anc, anc,
                cfg=optimize.OptimizerConfig(restarts=self.restarts),
            ).value
            self._values[cycle, family, i, anc] = value
            check_ancilla(self._values, cycle, family, i, anc)
        except Exception as exc:  # each item's failure is counted, never retried
            return [failure_type(exc)]
        return [None]


def check_ancilla(values: dict, cycle: int, family: str, i: int, anc: int) -> None:
    """Checks on the newest value and every relation it completes."""
    value = values[cycle, family, i, anc]
    if not value <= 2 + ENTROPY_MAX_TOL:
        raise CheckFailed("ancilla.max", f"{value!r}")
    other = values.get((cycle, family, i, 3 - anc))
    if other is not None and not _within(value, other, ANCILLA_GAP_TOL):
        raise CheckFailed("ancilla.22_vs_11", f"{family}: {value!r} vs {other!r}")
    full = family == "SWAP" and anc == 1 and ANCILLA_ALPHAS[i] == QUARTER_PI
    if full and not value >= 2 - SWAP_FULL_TOL:
        raise CheckFailed("ancilla.swap_full", f"{value!r}")
    swap, dcnot = values.get((cycle, "SWAP", i, anc)), values.get((cycle, "DCNOT", i, anc))
    if swap is not None and dcnot is not None and not swap >= dcnot - SWAP_DCNOT_TOL:
        raise CheckFailed("ancilla.swap_vs_dcnot", f"{anc}+{anc}: {swap!r} < {dcnot!r}")


def make(name: str, out_dir: str, workers: int, tracer=None):
    """The workload called ``name``."""
    if name == AnalyticMix.name:
        return AnalyticMix()
    if name == SweepC2.name:
        return SweepC2(out_dir, workers, tracer)
    if name == AncillaEntropy.name:
        return AncillaEntropy()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = (AnalyticMix.name, SweepC2.name, AncillaEntropy.name)
