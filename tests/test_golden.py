"""Golden stdout of the analytic CLI commands, byte for byte.

``decompose``, ``invariants`` and ``capacity`` (every measure) run on five
named gates and three locally dressed ones drawn from fixed seeds; their
stdout must equal ``tests/golden/analytic_stdout.txt`` exactly.  After an
intended output change, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py

and list every changed line in the change log.
"""
import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from entcap.cli import main
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


def _transcript(directory: Path) -> str:
    blocks = []
    for name, gate in _gates().items():
        path = directory / f"{name}.json"
        rows = [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(gate)]
        path.write_text(json.dumps({"matrix": rows}))
        for argv in _commands():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main([*argv, "--matrix", str(path)]) == 0
            blocks.append(f"$ entcap {' '.join(argv)}  # {name}\n{out.getvalue()}")
    return "".join(blocks)


def test_analytic_stdout_matches_golden(tmp_path):
    assert _transcript(tmp_path) == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(_transcript(Path(tmp)), encoding="utf-8")
    print(f"wrote {GOLDEN}")
