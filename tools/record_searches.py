"""Before/after records of the optimizer's searches.

Runs a fixed suite of seeded searches and writes one JSON record per search:
the value's ``repr``, the certified restart count, the best restart's seed
and a sha256 of the optimal state's bytes, or the error of a search that
certified no restart.  Two runs on two source trees then show which searches
a change moved:

    PYTHONPATH=/path/to/parent/src python3 tools/record_searches.py --out parent.json
    PYTHONPATH=src python3 tools/record_searches.py --out change.json
    PYTHONPATH=src python3 tools/record_searches.py --compare parent.json change.json

``--compare`` lists every record that differs, with its certified counts and
value change, and exits 1 if any does; it reads only the two files, so it
runs without ``entcap`` importable.  ``--suite`` picks suites by name
(all but ``smoke`` by default):

- ``criterion7``: criterion 7's 18 entropy searches (DCNOT and SWAP families
  at pi/8, 3pi/16 and pi/4; 0+0, 1+1 and 2+2 at the default restarts);
- ``criterion3``: criterion 3's grid (its 65 distinct triples) with the
  entropy, c2, linear entropy and concurrence, free at 32 restarts and
  product starts at 8, plus the CLI sweep's setting: free c2 and linear
  entropy at 8 restarts, each record the sweep's row bit for bit;
- ``ancilla``: the entropy on 18 gates (CNOT, DCNOT and SWAP families at
  pi/16, pi/8, 3pi/16 and pi/4, and 6 Haar gates), free at 1+1 with 16
  restarts and 2+2 with 8, at master seeds 0 and 1, plus product starts at
  1+1 and 2+2;
- ``minimize``: ``minimize_initial_entanglement`` on three gates, with the
  entropy at 1+1 and with c2 and the linear entropy at 0+0;
- ``smoke``: two 0+0 searches, to check the script itself.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import warnings

import numpy as np

# entcap is imported only where searches are set up and run: ``--compare``
# reads two JSON files and needs none of it.  Measures are named by their
# MeasureKind values, searches by their entcap.optimize functions.
MEASURES = ("entropy", "c2", "linear", "concurrence")
FAMILIES = {
    "cnot": lambda a: (a, 0.0, 0.0),
    "dcnot": lambda a: (a, a, 0.0),
    "swap": lambda a: (a, a, a),
}
SEARCHES = {"free": "numeric_capacity", "product": "product_start_capacity"}


def _gate(triple):
    """The canonical gate of an angle triple."""
    from entcap.qcore import build_canonical_unitary

    return build_canonical_unitary(triple)


def _search(key, gate, measure, anc, start="free", restarts=None, seed=0):
    """One suite entry: (key, thunk running the search)."""
    from entcap import optimize
    from entcap.measures import MeasureKind

    cfg = None if restarts is None else optimize.OptimizerConfig(
        restarts=restarts, master_seed=seed
    )
    run = getattr(optimize, SEARCHES[start])
    return key, lambda: run(gate, MeasureKind(measure), anc, anc, cfg)


def _criterion7():
    for family in ("dcnot", "swap"):
        for label, alpha in (("pi/8", math.pi / 8), ("3pi/16", 3 * math.pi / 16),
                             ("pi/4", math.pi / 4)):
            gate = _gate(FAMILIES[family](alpha))
            for anc in (0, 1, 2):
                yield _search(f"criterion7/{family}/{label}/a{anc}{anc}", gate, "entropy", anc)


def _criterion3_triples():
    triples = []
    for a1 in (math.pi / 16, math.pi / 8, 3 * math.pi / 16, 7 * math.pi / 32, math.pi / 4):
        for f2 in (0.0, 0.25, 0.5, 0.75, 1.0):
            for f3 in (0.0, 0.5, 1.0):
                triple = (a1, f2 * a1, f3 * f2 * a1)
                if triple not in triples:
                    triples.append(triple)
    return triples


def _criterion3():
    for measure in MEASURES:
        for triple in _criterion3_triples():
            gate = _gate(triple)
            name = ",".join(f"{a:.6f}" for a in triple)
            for start, restarts in (("free", 32), ("product", 8)):
                key = f"criterion3/{measure}/{start}/{name}"
                yield _search(key, gate, measure, 0, start, restarts)
            if measure in ("c2", "linear"):
                key = f"criterion3/{measure}/free8/{name}"
                yield _search(key, gate, measure, 0, "free", 8)


def _ancilla_gates():
    from entcap.qcore import haar_random_unitary

    angles = (("pi/16", math.pi / 16), ("pi/8", math.pi / 8),
              ("3pi/16", 3 * math.pi / 16), ("pi/4", math.pi / 4))
    for family, triple_of in FAMILIES.items():
        for label, alpha in angles:
            yield f"{family}/{label}", _gate(triple_of(alpha))
    for seed in range(6):
        yield f"haar{seed}", haar_random_unitary(4, 100 + seed)


def _ancilla():
    for name, gate in _ancilla_gates():
        for anc, restarts in ((1, 16), (2, 8)):
            for seed in (0, 1):
                key = f"ancilla/{name}/a{anc}{anc}/free/seed{seed}"
                yield _search(key, gate, "entropy", anc, "free", restarts, seed)
            key = f"ancilla/{name}/a{anc}{anc}/product/seed0"
            yield _search(key, gate, "entropy", anc, "product", restarts)


def _minimize():
    from entcap.measures import MeasureKind
    from entcap.optimize import OptimizerConfig, minimize_initial_entanglement

    cfg = OptimizerConfig(restarts=8)
    for family in FAMILIES:
        gate = _gate(FAMILIES[family](math.pi / 8))
        for key, measure, anc in (("a11", "entropy", 1), ("a00/c2", "c2", 0),
                                  ("a00/linear", "linear", 0)):
            yield f"minimize/{family}/pi/8/{key}", (
                lambda gate=gate, kind=MeasureKind(measure), anc=anc:
                minimize_initial_entanglement(gate, kind, anc, anc, cfg)
            )


def _smoke():
    gate = _gate(FAMILIES["dcnot"](math.pi / 8))
    yield _search("smoke/entropy/dcnot/pi/8", gate, "entropy", 0, "free", 4)
    yield _search("smoke/c2/dcnot/pi/8", gate, "c2", 0, "product", 4)


SUITES = {
    "criterion7": _criterion7,
    "criterion3": _criterion3,
    "ancilla": _ancilla,
    "minimize": _minimize,
    "smoke": _smoke,
}


def record(run) -> dict:
    """The record of one search: its result's fingerprint, or its error."""
    from entcap.errors import EntcapError

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = run()
    except EntcapError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    amplitudes = np.ascontiguousarray(result.optimal_state.amplitudes)
    return {
        "value": repr(result.value),
        "certified": result.converged_restarts,
        "seed": result.best_restart_seed,
        "state": hashlib.sha256(amplitudes.tobytes()).hexdigest(),
    }


def records(suites) -> dict:
    """Records of every search in the named suites, by key."""
    return {key: record(run) for name in suites for key, run in SUITES[name]()}


def compare(old: dict, new: dict) -> list[str]:
    """One line per key whose records differ or that only one side has,
    then a summary: how many differ, how many certify fewer restarts, and
    the largest value change."""
    lines, fewer, shift = [], 0, 0.0
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        if a is None or b is None or "error" in a or "error" in b:
            lines.append(f"{key}: {a} -> {b}")
            fewer += b is None or "error" in b
            continue
        delta = float(b["value"]) - float(a["value"])
        fewer += b["certified"] < a["certified"]
        shift = max(shift, abs(delta))
        fields = ",".join(f for f in ("value", "certified", "seed", "state") if a[f] != b[f])
        lines.append(
            f"{key}: {fields} differ; certified {a['certified']} -> {b['certified']}, "
            f"value {a['value']} -> {b['value']} ({delta:+.3g})"
        )
    return lines + [
        f"{len(lines)} of {len(old.keys() | new.keys())} records differ; {fewer} "
        f"certify fewer restarts or lost their result; largest value change {shift:.3g}"
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the records here as JSON")
    parser.add_argument("--suite", nargs="+", choices=sorted(SUITES),
                        default=[s for s in SUITES if s != "smoke"])
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="list the records that differ between two files")
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.load(open(path)) for path in args.compare)
        lines = compare(old, new)
        print("\n".join(lines))
        return 1 if len(lines) > 1 else 0
    if not args.out:
        parser.error("--out is required unless --compare is given")
    found = records(args.suite)
    with open(args.out, "w") as fh:
        json.dump(found, fh, indent=1, sort_keys=True)
    print(f"{len(found)} records written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
