"""Golden stdout of the CLI commands.

``decompose``, ``invariants`` and ``capacity`` (every measure) run on five
named gates and three locally dressed ones drawn from fixed seeds; their
stdout must equal ``tests/golden/analytic_stdout.txt`` exactly.

``optimize`` (every measure, 4 restarts) on CNOT, DCNOT, SWAP and one
dressed gate, and two small sweeps, are compared with
``tests/golden/optimizer.txt`` more loosely, because optima are not unique
and trajectories legitimately move: command lines, output keys, the CSV
header and alpha column must match exactly and capacities within 1e-10,
while e0/ef, converged counts and the best seed are not compared.

After an intended output change, regenerate the fixtures with

    PYTHONPATH=src python tests/test_golden.py

which rewrites a file only where its test's comparison fails, so a fixture
that still passes keeps its bytes; list every changed line in the change log.
"""
import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np

from entcap.cli import CSV_HEADER, main
from entcap.measures import MeasureKind
from entcap.qcore import (
    CNOT,
    DCNOT,
    IDENTITY4,
    SWAP,
    build_canonical_unitary,
    haar_random_local_unitary,
    make_rng,
)

GOLDEN = Path(__file__).parent / "golden" / "analytic_stdout.txt"
GOLDEN_OPTIMIZER = Path(__file__).parent / "golden" / "optimizer.txt"
CAPACITY_TOL = 1e-10

_H = (1 + 1j) / 2
SQRT_SWAP = np.array(
    [[1, 0, 0, 0], [0, _H, _H.conjugate(), 0], [0, _H.conjugate(), _H, 0], [0, 0, 0, 1]]
)

# (name, canonical triple, seed of the local dressing)
_DRESSED = (
    ("dressed_0.6_0.3_-0.1", (0.6, 0.3, -0.1), 101),
    ("dressed_0.3_0.2_0.1", (0.3, 0.2, 0.1), 102),
    ("dressed_0.7_0.6_-0.4", (0.7, 0.6, -0.4), 103),
)


def _gates():
    gates = {
        "cnot": CNOT,
        "dcnot": DCNOT,
        "swap": SWAP,
        "identity": IDENTITY4,
        "sqrt_swap": SQRT_SWAP,
    }
    for name, alpha, seed in _DRESSED:
        rng = make_rng(seed)
        va, vb = haar_random_local_unitary(rng)
        wa, wb = haar_random_local_unitary(rng)
        gates[name] = np.kron(va, vb) @ build_canonical_unitary(alpha) @ np.kron(wa, wb)
    return gates


def _commands():
    yield ["decompose"]
    yield ["invariants"]
    for kind in MeasureKind:
        yield ["capacity", "--measure", kind.value]


def _write_gates(directory: Path, names) -> dict:
    paths = {}
    for name, gate in _gates().items():
        if name in names:
            path = directory / f"{name}.json"
            rows = [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(gate)]
            path.write_text(json.dumps({"matrix": rows}))
            paths[name] = path
    return paths


def _run(argv, note: str, matrix: Path | None = None) -> str:
    """One command's stdout under a header naming it (not the temporary path)
    and any nonzero exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--matrix", str(matrix)] if matrix else argv)
    status = f", exit {code}" if code else ""
    return f"$ entcap {' '.join(argv)}  # {note}{status}\n{out.getvalue()}"


def _transcript(directory: Path) -> str:
    blocks = []
    for name, path in _write_gates(directory, _gates()).items():
        for argv in _commands():
            blocks.append(_run(argv, name, path))
    return "".join(blocks)


_OPTIMIZED = ("cnot", "dcnot", "swap", "dressed_0.3_0.2_0.1")
# Two rows exactly on a region boundary, where ascents crawl, and one inside.
_BOUNDARY_TRIPLES = (
    (math.pi / 8, math.pi / 8, 0.0),
    (math.pi / 4, math.pi / 8, math.pi / 8),
    (0.3, 0.2, 0.1),
)


def _optimizer_transcript(directory: Path) -> str:
    blocks = []
    for name, path in _write_gates(directory, _OPTIMIZED).items():
        for kind in MeasureKind:
            argv = ["optimize", "--measure", kind.value, "--restarts", "4"]
            blocks.append(_run(argv, name, path))
    triples = []
    for t in _BOUNDARY_TRIPLES:
        triples += ["--alpha-triple", ",".join(repr(a) for a in t)]
    blocks.append(_run(["sweep", *triples, "--measure", "c2", "--restarts", "4"], "c2"))
    family = ["sweep", "--family", "dcnot", "--steps", "3", "--measure", "entropy",
              "--anc-a", "1", "--anc-b", "1", "--restarts", "2"]
    blocks.append(_run(family, "entropy 1+1"))
    return "".join(blocks)


def _pinned(line: str):
    """What the optimizer fixture pins of one output line: an exact part and
    a capacity compared within ``CAPACITY_TOL`` (or None)."""
    if line.startswith("$ ") or line == CSV_HEADER:
        return line, None
    if " = " in line:
        key, value = line.split(" = ")
        return key, float(value) if key == "capacity" else None
    alpha, capacity = line.split(",")[:2]
    return alpha, float(capacity)


def _assert_analytic(transcript: str):
    assert transcript == GOLDEN.read_text(encoding="utf-8")


def _assert_optimizer(transcript: str):
    got = transcript.splitlines()
    want = GOLDEN_OPTIMIZER.read_text(encoding="utf-8").splitlines()
    assert len(got) == len(want)
    for have, pinned in zip(got, want):
        (have_key, have_cap), (want_key, want_cap) = _pinned(have), _pinned(pinned)
        assert have_key == want_key, (have, pinned)
        if want_cap is not None:
            assert abs(have_cap - want_cap) <= CAPACITY_TOL, (have, pinned)


def test_analytic_stdout_matches_golden(tmp_path):
    _assert_analytic(_transcript(tmp_path))


def test_optimizer_output_matches_golden(tmp_path):
    _assert_optimizer(_optimizer_transcript(tmp_path))


if __name__ == "__main__":
    if not __debug__:
        raise SystemExit("the comparisons are asserts: run without -O")
    with tempfile.TemporaryDirectory() as tmp:
        for path, transcript, check in (
            (GOLDEN, _transcript, _assert_analytic),
            (GOLDEN_OPTIMIZER, _optimizer_transcript, _assert_optimizer),
        ):
            got = transcript(Path(tmp))
            try:
                check(got)
            except (AssertionError, FileNotFoundError):
                path.write_text(got, encoding="utf-8")
                print(f"wrote {path}")
            else:
                print(f"kept {path}: it passes")
