"""Tests of the benchmark itself: metric names, wrapping, checks, determinism.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""
import dataclasses
import importlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# Per-layer counts that depend only on the inputs, never on timing.
COUNT_SUFFIXES = (".calls", ".rows", ".restarts", ".converged_frac",
                  ".kernel_rows_per_restart", ".rows_per_call", "kernel_rows",
                  "csv_bytes", "workers")


def _counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}


def test_metric_names_match_pattern_and_spec():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(tracing.METRIC_NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    listed = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert listed == tracing.per_layer_spec()
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.WORKLOADS
    assert set(tracing.Tracer().metrics()) | {"trace.items_per_s"} == {
        m["name"] for m in SPEC["per_layer"]}


def _current(point):
    module_name, name = point[0], point[1]
    return getattr(importlib.import_module(module_name), name)


def test_wrappers_restore_originals():
    originals = [_current(p) for p in tracing.WRAP_POINTS]
    with tracing.installed(tracing.Tracer()) as tracer:
        assert tracer.absent == {}
        assert all(_current(p) is not o for p, o in zip(tracing.WRAP_POINTS, originals))
    assert all(_current(p) is o for p, o in zip(tracing.WRAP_POINTS, originals))


def test_missing_wrap_point_reports_layer_absent(monkeypatch):
    import entcap.capacity

    monkeypatch.delattr(entcap.capacity, "minimize")
    with tracing.installed(tracing.Tracer()) as tracer:
        metrics = tracer.metrics()
    assert tracer.absent == {"entcap.capacity.minimize": "capacity.nelder_mead"}
    assert metrics["capacity.nelder_mead.calls"] == 0
    assert not hasattr(entcap.capacity, "minimize")


def _region1_item(seed=3):
    rng = np.random.default_rng(seed)
    alpha = workloads.draw_triple(rng, "Region1")
    return ("Region1", workloads.dressed(rng, workloads.interaction_unitary(alpha)), alpha)


def test_perturbed_analytic_results_fail_their_checks():
    label, u, alpha = _region1_item()
    results = workloads.check_analytic(label, u, alpha)
    from entcap import canonical

    got = canonical.decompose(u).alpha

    def fails(name, check, **changes):
        bad = dict(results)
        bad[name] = dataclasses.replace(results[name], **changes)
        with pytest.raises(workloads.CheckFailed) as info:
            workloads.check_analytic_results(label, got, "Region1", bad)
        assert info.value.check == check

    c2 = results["c2"]
    fails("c2", "capacity.c2.formula", value=c2.value + 1e-9)
    fails("linear", "capacity.linear.half_c2", value=results["linear"].value + 1e-6)
    fails("entropy", "capacity.entropy.state_initial",
          initial_entanglement=results["entropy"].initial_entanglement + 1e-6)
    fails("concurrence", "capacity.concurrence.state_value", optimal_state=c2.optimal_state)
    fails("c2", "capacity.region", region=type(c2.region)("Region2"))
    with pytest.raises(workloads.CheckFailed, match="decompose.alpha"):
        workloads.check_analytic(label, u, (alpha[0] + 1e-7, alpha[1], alpha[2]))


def test_perturbed_sweep_csv_fails_its_check():
    triples = [(0.3, 0.2, 0.1), (0.7, 0.6, 0.3)]
    from entcap import cli

    def csv(values):
        rows = [f"{t[0]!r},{v!r},0,0,32" for t, v in zip(triples, values)]
        return "\n".join([cli.CSV_HEADER, *rows]) + "\n"

    exact = [workloads.closed_form_c2(t) for t in triples]
    assert workloads.check_sweep_csv(csv(exact), triples) == [None, None]
    assert workloads.check_sweep_csv(csv([exact[0] + 2e-5, exact[1]]), triples) == [
        "check:sweep.capacity", None]
    assert workloads.check_sweep_csv(csv([math.nan, exact[1]]), triples)[0] is not None
    assert workloads.check_sweep_csv(csv(exact[:1]), triples) == ["check:sweep.shape"] * 2


@pytest.mark.parametrize("values, key, check", [
    ({(0, "SWAP", 0, 1): 2.1}, (0, "SWAP", 0, 1), "ancilla.max"),
    ({(0, "SWAP", 2, 1): 1.99}, (0, "SWAP", 2, 1), "ancilla.swap_full"),
    ({(0, "DCNOT", 0, 1): 1.4, (0, "DCNOT", 0, 2): 1.402}, (0, "DCNOT", 0, 2),
     "ancilla.22_vs_11"),
    ({(0, "DCNOT", 1, 1): 1.8, (0, "SWAP", 1, 1): 1.7998}, (0, "SWAP", 1, 1),
     "ancilla.swap_vs_dcnot"),
    ({(0, "SWAP", 1, 2): 1.7998, (0, "DCNOT", 1, 2): 1.8}, (0, "DCNOT", 1, 2),
     "ancilla.swap_vs_dcnot"),
])
def test_perturbed_ancilla_values_fail_their_checks(values, key, check):
    with pytest.raises(workloads.CheckFailed) as info:
        workloads.check_ancilla(values, *key)
    assert info.value.check == check


def test_ancilla_checks_accept_consistent_values():
    values = {(0, "DCNOT", 2, 1): 2.0, (0, "DCNOT", 2, 2): 2.0 - 5e-4,
              (0, "SWAP", 2, 1): 2.0, (0, "SWAP", 2, 2): 2.0}
    for key in values:
        workloads.check_ancilla(values, *key)


def _first_units(workload, seed, n):
    units = workload.units(seed)
    return [next(units) for _ in range(n)]


def _arrays(units):
    return [np.asarray(x, dtype=complex) for unit in units for x in unit
            if not isinstance(x, str)]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(name, tmp_path):
    workload = workloads.make(name, str(tmp_path), 1)
    n = 25 if name != "sweep_c2" else 3
    first, again, other = (_arrays(_first_units(workload, s, n)) for s in (7, 7, 8))
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not all(np.array_equal(a, b) for a, b in zip(first, other))


def _traced_counts(name, units, tmp_path):
    tracer = tracing.Tracer()
    workload = workloads.make(name, str(tmp_path), 2, tracer)
    with tracing.installed(tracer):
        outcomes = [o for unit in units for o in workload.run(unit)]
    assert outcomes == [None] * len(outcomes)
    return _counts(tracer.metrics())


def test_same_seed_gives_identical_counts(tmp_path):
    analytic = _first_units(workloads.AnalyticMix(), 5, 4)
    ancilla = _first_units(workloads.AncillaEntropy(), 5, 1)
    sweep = [((0.3, 0.2, 0.1), (0.7, 0.6, 0.3))]
    for name, units in (("analytic_mix", analytic), ("ancilla_entropy", ancilla),
                        ("sweep_c2", sweep)):
        first = _traced_counts(name, units, tmp_path)
        assert first == _traced_counts(name, units, tmp_path)
        assert any(first.values())
    assert first["cli.sweep.rows"] == 2 and first["cli.sweep.workers"] == 2


def test_tail_is_highest_percentile_with_ten_beyond():
    value, pct, n = run.tail([float(i) for i in range(25)])
    assert (value, pct, n) == (14.0, 60.0, 25)


def test_exits_nonzero_without_the_program(tmp_path):
    bench = tmp_path / HERE.name
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "analytic_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
