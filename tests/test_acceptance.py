"""Acceptance suite: one test per criterion, one [PASS]/[FAIL] line each.

Each test gathers every violated condition before failing, so a red run
reports all problems of its criterion at once.
"""

import time

import numpy as np

from entcap.canonical import CanonicalParams, bell_coefficients, decompose
from entcap.capacity import (
    RegionTag,
    capacity_c2,
    capacity_entropy_no_ancilla,
    region_of,
)
from entcap.cli import main
from entcap.measures import (
    MeasureKind,
    binary_entropy,
    concurrence,
    entropy_of_entanglement,
    evaluate,
    linear_entropy,
)
from entcap.optimize import (
    OptimizerConfig,
    numeric_capacity,
    product_start_capacity,
)
from entcap.qcore import (
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


def _finish(n, label, failures):
    if failures:
        print(f"[FAIL] criterion {n}: {label} ({len(failures)} violations)")
        raise AssertionError(f"criterion {n}: " + "; ".join(failures))
    print(f"[PASS] criterion {n}: {label}")


def _random_canonical_alpha(rng):
    a1 = rng.uniform(0, QUARTER_PI)
    a2 = rng.uniform(0, a1)
    a3 = rng.uniform(-a2, a2)
    return (a1, a2, a3)


def _dressed(rng, alpha):
    u = build_canonical_unitary(alpha)
    va, vb = haar_random_local_unitary(rng)
    wa, wb = haar_random_local_unitary(rng)
    return np.kron(va, vb) @ u @ np.kron(wa, wb)


def test_criterion_01_decomposition_round_trip():
    failures = []
    rng = make_rng(1001)
    start = time.monotonic()
    for i in range(1000):
        alpha = _random_canonical_alpha(rng)
        got = decompose(_dressed(rng, alpha))
        expected = (alpha[0], alpha[1], abs(alpha[2]))
        err = max(abs(g - e) for g, e in zip(got.alpha, expected))
        if err > 1e-9:
            failures.append(f"trial {i}: alpha error {err:.2e}")
    elapsed = time.monotonic() - start
    if elapsed >= 10:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _finish(1, f"1000 dressed round-trips within 1e-9 in {elapsed:.1f}s", failures)


def test_criterion_02_known_gates():
    failures = []
    cases = [
        ("cnot-class", CNOT, (QUARTER_PI, 0.0, 0.0)),
        ("swap-class", SWAP, (QUARTER_PI, QUARTER_PI, QUARTER_PI)),
        ("identity", IDENTITY4, (0.0, 0.0, 0.0)),
    ]
    for name, gate, expected in cases:
        got = decompose(gate).alpha
        err = max(abs(g - e) for g, e in zip(got, expected))
        if err > 1e-10:
            failures.append(f"{name}: error {err:.2e}")
    _finish(2, "known-gate angles within 1e-10", failures)


def _analytic_c2(alpha):
    a1, a2, a3 = alpha
    region = region_of(CanonicalParams(alpha))
    if region is RegionTag.ONE_EBIT:
        return 1.0
    if region is RegionTag.REGION_1:
        return float(np.sin(2 * (a1 + a2)))
    return float(np.sin(2 * (a2 + a3)))


def test_criterion_03_analytic_vs_numeric_c2_grid():
    failures = []
    a1_values = [np.pi / 16, np.pi / 8, 3 * np.pi / 16, 7 * np.pi / 32, QUARTER_PI]
    f2_values = [0.0, 0.25, 0.5, 0.75, 1.0]
    f3_values = [0.0, 0.5, 1.0]
    seen = set()
    start = time.monotonic()
    for a1 in a1_values:
        for f2 in f2_values:
            a2 = f2 * a1
            for f3 in f3_values:
                alpha = (a1, a2, f3 * a2)
                seen.add(region_of(CanonicalParams(alpha)))
                num = numeric_capacity(
                    build_canonical_unitary(alpha), MeasureKind.CONCURRENCE_SQUARED
                ).value
                err = abs(num - _analytic_c2(alpha))
                if err > 1e-5:
                    failures.append(f"alpha={alpha}: |numeric-analytic|={err:.2e}")
    elapsed = time.monotonic() - start
    if seen != set(RegionTag):
        failures.append(f"grid covers only {sorted(t.value for t in seen)}")
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.1f}s exceeds 120s")
    _finish(3, f"75-point numeric vs closed form within 1e-5 in {elapsed:.0f}s", failures)


def test_criterion_04_small_angle_optimal_state():
    failures = []
    rng = make_rng(41)
    for i in range(20):
        s = (QUARTER_PI) * (0.05 + 0.9 * rng.random())
        a1 = min(s * (0.5 + 0.5 * rng.random()), QUARTER_PI)
        a2 = s - a1
        a3 = a2 * rng.random()
        u = build_canonical_unitary((a1, a2, a3))
        cf_expect = (1 + np.sin(2 * s)) / 2
        c0_expect = (1 - np.sin(2 * s)) / 2
        # the mixing angle runs against the gate's half-sum; the same state
        # with the opposite angle pairs with the conjugated gate
        for xi, gate, tag in (
            (np.pi / 8 - s / 2, u, "direct"),
            (s / 2 - np.pi / 8, u.conj(), "conjugated"),
        ):
            psi = np.array([0, np.sin(xi), -1j * np.cos(xi), 0])
            c0 = concurrence(PureState(psi)) ** 2
            cf = concurrence(PureState(gate @ psi)) ** 2
            err = max(abs(cf - cf_expect), abs(c0 - c0_expect))
            if err > 1e-10:
                failures.append(f"point {i} ({tag}): error {err:.2e}")
    _finish(4, "small-angle optimal state values within 1e-10 at 20 points", failures)


def _triple_from_sum(s):
    a1 = min(QUARTER_PI, 0.7 * s)
    return (a1, s - a1, 0.0)


def test_criterion_05_entropy_capacity_shape():
    failures = []
    start = time.monotonic()
    sums = np.linspace(np.pi / 32, np.pi / 2, 16)
    caps = [capacity_entropy_no_ancilla(_triple_from_sum(s)).value for s in sums]
    for i in range(15):
        if caps[i + 1] < caps[i] - 1e-4:
            failures.append(f"not monotone at sum={sums[i + 1]:.4f}")
    at_quarter = capacity_entropy_no_ancilla(_triple_from_sum(QUARTER_PI)).value
    if abs(at_quarter - 1.0) > 1e-5:
        failures.append(f"capacity at sum=pi/4 is {at_quarter}")
    for s in (np.pi / 16, np.pi / 8, 3 * np.pi / 16):
        alpha = _triple_from_sum(s)
        cap = capacity_entropy_no_ancilla(alpha).value
        prod = product_start_capacity(
            build_canonical_unitary(alpha), MeasureKind.ENTROPY_OF_ENTANGLEMENT
        ).value
        if cap - prod < 1e-3:
            failures.append(f"sum={s:.4f}: entangled-start edge {cap - prod:.2e}")
    elapsed = time.monotonic() - start
    if elapsed >= 180:
        failures.append(f"runtime {elapsed:.1f}s exceeds 180s")
    _finish(5, f"entropy capacity shape on 16-point grid in {elapsed:.0f}s", failures)


def test_criterion_06_cnot_family_ancilla_indifference():
    failures = []
    start = time.monotonic()
    grid = np.array([0, 1, 2, 3, 4, 5, 6, 8]) * np.pi / 32
    special = {2, 4, 6}  # indices of pi/16, pi/8, 3pi/16
    for k, alpha in enumerate(grid):
        u = build_canonical_unitary((alpha, 0.0, 0.0))
        cap0 = numeric_capacity(u, MeasureKind.ENTROPY_OF_ENTANGLEMENT).value
        cap11 = numeric_capacity(
            u, MeasureKind.ENTROPY_OF_ENTANGLEMENT, anc_a=1, anc_b=1
        ).value
        ps11 = product_start_capacity(
            u, MeasureKind.ENTROPY_OF_ENTANGLEMENT, anc_a=1, anc_b=1
        ).value
        reference = binary_entropy(np.cos(alpha) ** 2)
        if abs(cap0 - cap11) > 1e-4:
            failures.append(f"alpha={alpha:.4f}: ancilla gap {abs(cap0 - cap11):.2e}")
        if abs(ps11 - reference) > 1e-4:
            failures.append(
                f"alpha={alpha:.4f}: product-start off by {abs(ps11 - reference):.2e}"
            )
        if k in special:
            for name, cap in (("bare", cap0), ("ancilla", cap11)):
                if cap - reference < 1e-3:
                    failures.append(
                        f"alpha={alpha:.4f}: {name} margin {cap - reference:.2e}"
                    )
    elapsed = time.monotonic() - start
    if elapsed >= 600:
        failures.append(f"runtime {elapsed:.1f}s exceeds 600s")
    _finish(6, f"cnot-family ancilla indifference at 8 points in {elapsed:.0f}s", failures)


def test_criterion_07_dcnot_swap_families():
    failures = []
    start = time.monotonic()
    alphas = (np.pi / 8, 3 * np.pi / 16, QUARTER_PI)
    caps11 = {}
    for family, triple_of in (
        ("dcnot", lambda a: (a, a, 0.0)),
        ("swap", lambda a: (a, a, a)),
    ):
        for alpha in alphas:
            u = build_canonical_unitary(triple_of(alpha))
            cap0 = numeric_capacity(u, MeasureKind.ENTROPY_OF_ENTANGLEMENT).value
            res11, res22 = (
                numeric_capacity(
                    u, MeasureKind.ENTROPY_OF_ENTANGLEMENT, anc_a=anc, anc_b=anc
                )
                for anc in (1, 2)
            )
            # With ancillas every restart reaches an optimum where its
            # certificate holds (default restarts: 32 at 1+1, 64 at 2+2).
            for res, restarts in ((res11, 32), (res22, 64)):
                if res.converged_restarts != restarts:
                    failures.append(
                        f"{family} alpha={alpha:.4f}: {res.converged_restarts} of "
                        f"{restarts} restarts certified"
                    )
            cap11, cap22 = res11.value, res22.value
            caps11[family, alpha] = cap11
            if cap11 - cap0 < 1e-3:
                failures.append(
                    f"{family} alpha={alpha:.4f}: ancilla gain {cap11 - cap0:.2e}"
                )
            if cap22 - cap11 > 1e-3:
                failures.append(
                    f"{family} alpha={alpha:.4f}: second ancilla adds {cap22 - cap11:.2e}"
                )
            if family == "swap" and alpha == QUARTER_PI:
                if cap0 > 1e-6:
                    failures.append(f"swap pi/4 bare capacity {cap0:.2e}")
                if cap11 < 2 - 1e-3:
                    failures.append(f"swap pi/4 ancilla capacity {cap11:.6f}")
    for alpha in alphas:
        if caps11["swap", alpha] < caps11["dcnot", alpha] - 1e-4:
            failures.append(f"swap below dcnot at alpha={alpha:.4f}")
    elapsed = time.monotonic() - start
    if elapsed >= 1200:
        failures.append(f"runtime {elapsed:.1f}s exceeds 1200s")
    _finish(7, f"dcnot/swap ancilla behavior in {elapsed:.0f}s", failures)


def test_criterion_08_measure_identities():
    failures = []
    rng = make_rng(8008)
    start = time.monotonic()
    for i in range(1000):
        psi = haar_random_state(2, rng)
        c = concurrence(psi)
        e = entropy_of_entanglement(psi)
        r = linear_entropy(psi)
        e_from_c = binary_entropy((1 + np.sqrt(1 - min(c, 1.0) ** 2)) / 2)
        if abs(e - e_from_c) > 1e-10:
            failures.append(f"trial {i}: entropy identity off {abs(e - e_from_c):.2e}")
        if abs(r - c**2 / 2) > 1e-12:
            failures.append(f"trial {i}: linear identity off {abs(r - c ** 2 / 2):.2e}")
    elapsed = time.monotonic() - start
    if elapsed >= 5:
        failures.append(f"runtime {elapsed:.1f}s exceeds 5s")
    _finish(8, f"1000-state measure identities in {elapsed:.1f}s", failures)


def test_criterion_09_invariance_suite():
    failures = []
    rng = make_rng(99)
    for i in range(500):
        psi = haar_random_state(2, rng)
        va, vb = haar_random_local_unitary(rng)
        rotated = PureState(np.kron(va, vb) @ psi.amplitudes)
        for kind in MeasureKind:
            if abs(evaluate(kind, rotated) - evaluate(kind, psi)) > 1e-10:
                failures.append(f"trial {i}: {kind.value} not invariant")
    conj_points = [
        (0.2, 0.15, 0.1),
        (QUARTER_PI, np.pi / 8, np.pi / 16),
        (QUARTER_PI, QUARTER_PI, np.pi / 8),
        (0.3, 0.25, 0.2),
        (QUARTER_PI, np.pi / 5, np.pi / 6),
    ]
    for alpha in conj_points:
        u = build_canonical_unitary(alpha)
        gap = abs(
            numeric_capacity(u, MeasureKind.CONCURRENCE_SQUARED).value
            - numeric_capacity(u.conj(), MeasureKind.CONCURRENCE_SQUARED).value
        )
        if gap > 1e-4:
            failures.append(f"conjugation gap {gap:.2e} at {alpha}")
    for a1, a2, a3_grid in (
        (3 * np.pi / 16, np.pi / 8, np.linspace(0, np.pi / 8, 3)),
        (np.pi / 8, np.pi / 16, np.linspace(0, np.pi / 16, 3)),
    ):
        vals = [
            numeric_capacity(
                build_canonical_unitary((a1, a2, a3)), MeasureKind.CONCURRENCE_SQUARED
            ).value
            for a3 in a3_grid
        ]
        if max(vals) - min(vals) > 1e-4:
            failures.append(
                f"third-angle spread {max(vals) - min(vals):.2e} at ({a1:.3f},{a2:.3f})"
            )
    _finish(9, "local-unitary, conjugation and third-angle invariance", failures)


def test_criterion_10_two_coefficient_support():
    failures = []
    rng = make_rng(1010)
    for i in range(10):
        # generic: away from saturation and from eigenphase degeneracies
        while True:
            if i < 5:
                s = QUARTER_PI * (0.15 + 0.7 * rng.random())
                a1 = min(s * (0.55 + 0.35 * rng.random()), QUARTER_PI)
                alpha = (a1, s - a1, 0.8 * (s - a1) * rng.random())
                want = RegionTag.REGION_1
            else:
                a1 = QUARTER_PI * (0.9 + 0.08 * rng.random())
                a2 = a1 * (0.82 + 0.12 * rng.random())
                lo = QUARTER_PI - a2 + 0.02
                alpha = (a1, a2, lo + (min(a2, lo + 0.25) - lo) * rng.random())
                want = RegionTag.REGION_2
            a1, a2, a3 = alpha
            gaps = (
                abs(a1 - a2),
                abs(a1 - a3),
                abs(a2 - a3),
                abs(a1 + a2 - np.pi / 2),
                abs(a2 + a3 - np.pi / 2),
                abs(a1 + a3 - np.pi / 2),
            )
            if region_of(CanonicalParams(alpha)) is want and min(gaps) > 0.02:
                break
        res = numeric_capacity(
            build_canonical_unitary(alpha), MeasureKind.CONCURRENCE_SQUARED
        )
        mags = np.abs(bell_coefficients(res.optimal_state.amplitudes))
        support = int(np.sum(mags > 1e-4))
        if support > 2:
            failures.append(f"point {i} ({want.value}): support {support}")
    _finish(10, "squared-concurrence optima use two magic components", failures)


def test_criterion_11_sweep_determinism(tmp_path, capsys):
    failures = []
    args = [
        "sweep",
        "--family",
        "cnot",
        "--alpha-min",
        "0",
        "--alpha-max",
        "0.78",
        "--steps",
        "4",
        "--measure",
        "c2",
        "--restarts",
        "6",
        "--seed",
        "42",
    ]
    out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    rc1 = main(args + ["--workers", "1", "--out", str(out1)])
    rc2 = main(args + ["--workers", "3", "--out", str(out2)])
    capsys.readouterr()
    if rc1 != 0 or rc2 != 0:
        failures.append(f"exit codes {rc1}, {rc2}")
    elif out1.read_bytes() != out2.read_bytes():
        failures.append("CSV bytes differ across worker counts")
    with capsys.disabled():
        _finish(11, "seeded sweep is byte-identical across worker counts", failures)
