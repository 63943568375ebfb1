import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entcap.optimize
from entcap.cli import CSV_HEADER, _fmt, main, parse_matrix_file
from entcap.errors import MatrixParseError, NotUnitaryError
from entcap.qcore import (
    CNOT,
    _require_unitary,
    DCNOT,
    IDENTITY4,
    SWAP,
    build_canonical_unitary,
    haar_random_local_unitary,
    make_rng,
)


def _write_json(path, matrix):
    data = {
        "matrix": [
            [[float(z.real), float(z.imag)] for z in row] for row in np.asarray(matrix)
        ]
    }
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def cnot_file(tmp_path):
    return _write_json(tmp_path / "cnot.json", CNOT)


def test_fmt_uses_12_significant_digits():
    assert _fmt(np.pi) == "3.14159265359"
    assert _fmt(1.0) == "1"
    assert _fmt(float("nan")) == "nan"
    assert _fmt(-0.5) == "-0.5"


def test_parse_matrix_txt_token_forms(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(
        "1 0 0 0\n"
        "0 0.6+0.8i 0 0\n"
        "0 0 -i 0\n"
        "0 0 0 0.5-0.866025403784i\n"
    )
    m = parse_matrix_file(str(path))
    assert m[1, 1] == pytest.approx(0.6 + 0.8j)
    assert m[2, 2] == pytest.approx(-1j)
    assert m[3, 3] == pytest.approx(0.5 - 0.866025403784j)


def test_parse_matrix_json_and_format_inference(tmp_path):
    path = _write_json(tmp_path / "swap.json", SWAP)
    assert np.allclose(parse_matrix_file(path), SWAP)
    # Leading blank lines and spaces do not hide the JSON's opening brace.
    text = (tmp_path / "swap.json").read_text()
    (tmp_path / "padded.json").write_text("\n  \n\t" + text)
    assert np.allclose(parse_matrix_file(str(tmp_path / "padded.json")), SWAP)
    # Nor does a byte-order mark.
    (tmp_path / "bom.json").write_text("\ufeff" + text, encoding="utf-8")
    assert np.allclose(parse_matrix_file(str(tmp_path / "bom.json")), SWAP)


def test_parse_matrix_format_comes_from_the_text_not_the_extension(tmp_path, capsys):
    # JSON in a .txt file and the text form in a .json file both parse.
    swap = _write_json(tmp_path / "swap.txt", SWAP)
    assert np.array_equal(parse_matrix_file(swap), SWAP)
    path = tmp_path / "cnot.json"
    path.write_text("1 0 0 0\n0 1 0 0\n0 0 0 1\n0 0 1 0\n")
    assert np.array_equal(parse_matrix_file(str(path)), CNOT)
    assert main(["decompose", "--matrix", swap]) == 0
    assert capsys.readouterr().out.startswith("alpha = (0.785398163397, ")
    # There is no --format flag to give.
    assert main(["decompose", "--matrix", swap, "--format", "json"]) == 2


def test_parse_matrix_rejects_bad_shapes(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 0 0 0 7\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    with pytest.raises(MatrixParseError):
        parse_matrix_file(str(path))
    path.write_text("1 0 0 0\n0 1 0 0\n0 0 1 0\n")
    with pytest.raises(MatrixParseError):
        parse_matrix_file(str(path))
    path.write_text("1 0 0 zebra\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    with pytest.raises(MatrixParseError):
        parse_matrix_file(str(path))


def test_parse_matrix_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[[1,0],[0,1]]")
    with pytest.raises(MatrixParseError):
        parse_matrix_file(str(path))
    path.write_text('{"matrix": [[1, 0, 0, 0]]}')
    with pytest.raises(MatrixParseError):
        parse_matrix_file(str(path))
    path.write_text("{ not json")
    with pytest.raises(MatrixParseError):
        parse_matrix_file(str(path))


@pytest.mark.parametrize(
    "entry, message",
    [
        # A bool is an int in Python, but true is no JSON number.
        ("[true, false]", "must be a [re, im] pair"),
        ("[1" + "0" * 400 + ", 0]", "overflows a float"),
    ],
    ids=["bool", "huge-int"],
)
def test_decompose_rejects_json_entries_that_are_no_float(tmp_path, capsys, entry, message):
    rows = [["[0, 0]"] * 4 for _ in range(4)]
    for i, j in enumerate((0, 1, 3, 2)):  # CNOT, with the odd entry first
        rows[i][j] = "[1, 0]"
    rows[0][0] = entry
    path = tmp_path / "odd.json"
    path.write_text('{"matrix": [%s]}' % ", ".join("[%s]" % ", ".join(r) for r in rows))
    with pytest.raises(MatrixParseError, match=re.escape(message)):
        parse_matrix_file(str(path))
    assert main(["decompose", "--matrix", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: entry (0,0)")


def test_parse_matrix_unitarity_gate(tmp_path):
    m = np.eye(4)
    m[0, 0] = 1.1
    path = _write_json(tmp_path / "almost.json", m)
    with pytest.raises(NotUnitaryError, match="residual"):
        parse_matrix_file(path)
    # an explicit loose tolerance lets the same file through, projected onto
    # its polar factor (here the identity)
    loose = parse_matrix_file(path, unitary_tol=0.5)
    _require_unitary(loose)
    assert np.allclose(loose, np.eye(4), atol=1e-15)


def test_unitary_inputs_are_returned_unchanged(tmp_path):
    a, b = haar_random_local_unitary(5)
    u = np.kron(a, b) @ build_canonical_unitary((0.6, 0.3, -0.1))
    assert np.array_equal(parse_matrix_file(_write_json(tmp_path / "u.json", u)), u)


# (H x I) CNOT with +-1/sqrt(2) written to 9 digits: the largest entry of
# U^dagger U - I is 5.3e-10, inside the default --unitary-tol of 1e-8 but
# outside the library's 1e-10.
_H_CNOT_9_DIGITS = (
    "0.707106781 0 0 0.707106781\n"
    "0 0.707106781 0.707106781 0\n"
    "0.707106781 0 0 -0.707106781\n"
    "0 0.707106781 -0.707106781 0\n"
)


def test_near_unitary_matrix_runs_every_command(tmp_path, capsys):
    path = tmp_path / "h_cnot.txt"
    path.write_text(_H_CNOT_9_DIGITS)
    raw = np.loadtxt(path)
    assert 5e-10 < np.abs(raw.T @ raw - np.eye(4)).max() < 1e-8
    for argv in (
        ["decompose"],
        ["invariants"],
        ["capacity", "--measure", "c2"],
    ):
        assert main([*argv, "--matrix", str(path)]) == 0, capsys.readouterr().err
    out = capsys.readouterr().out
    assert "alpha = (0.785398163397, 0, 0)" in out
    assert "capacity = 1, region OneEbit" in out
    # four digits put the largest entry of U^dagger U - I at 2e-5
    path.write_text(_H_CNOT_9_DIGITS.replace("0.707106781", "0.7071"))
    for argv in (["decompose"], ["invariants"], ["capacity", "--measure", "c2"]):
        assert main([*argv, "--matrix", str(path)]) == 1
    assert "residual" in capsys.readouterr().err


def test_decompose_output(cnot_file, capsys):
    assert main(["decompose", "--matrix", cnot_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "alpha = (0.785398163397, 0, 0)"
    assert out[1] == (
        "lambdas = (-0.785398163397, 0.785398163397, "
        "0.785398163397, -0.785398163397)"
    )
    assert out[2] == "conjugated = false"


def test_invariants_output(cnot_file, capsys):
    assert main(["invariants", "--matrix", cnot_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("invariants = (")
    assert out.count("i") >= 4


def test_capacity_output(cnot_file, capsys):
    assert main(["capacity", "--matrix", cnot_file, "--measure", "c2"]) == 0
    out = capsys.readouterr().out
    assert "capacity = 1, region OneEbit" in out
    assert "method = analytic" in out


def test_capacity_linear_reports_rescaled(cnot_file, capsys):
    assert main(["capacity", "--matrix", cnot_file, "--measure", "linear"]) == 0
    out = capsys.readouterr().out
    assert "capacity = 0.5, region OneEbit" in out
    assert "rescaled_capacity = 1" in out


def test_capacity_never_runs_the_optimizer(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the analytic capacity path ran the optimizer")

    monkeypatch.setattr(entcap.optimize, "_capacities", refuse)
    gates = {
        "cnot": (CNOT, "OneEbit"),
        "dcnot": (DCNOT, "OneEbit"),
        "swap": (SWAP, "Region2"),
        "identity": (IDENTITY4, "Region1"),
        "sqrt_swap": (build_canonical_unitary((np.pi / 8,) * 3), "OneEbit"),
    }
    rng = make_rng(23)
    for region, alpha in (
        ("OneEbit", (0.6, 0.3, 0.1)),
        ("Region1", (0.3, 0.2, 0.1)),
        ("Region2", (0.7, 0.6, 0.4)),
    ):
        va, vb = haar_random_local_unitary(rng)
        wa, wb = haar_random_local_unitary(rng)
        dressed = np.kron(va, vb) @ build_canonical_unitary(alpha) @ np.kron(wa, wb)
        gates[f"dressed_{region}"] = (dressed, region)
    for name, (gate, region) in gates.items():
        path = _write_json(tmp_path / f"{name}.json", gate)
        for measure in ("c2", "concurrence", "linear", "entropy"):
            assert main(["capacity", "--matrix", path, "--measure", measure]) == 0
            out = capsys.readouterr().out
            assert f"region {region}" in out, (name, measure)
            assert "method = analytic" in out


def test_optimize_output(cnot_file, capsys):
    rc = main(
        [
            "optimize",
            "--matrix",
            cnot_file,
            "--measure",
            "c2",
            "--restarts",
            "4",
            "--seed",
            "9",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("capacity = ")
    assert "converged_restarts = " in out
    assert "best_restart_seed = " in out
    value = float(out.splitlines()[0].split(" = ")[1])
    assert value == pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize("measure", ["entropy", "linear"])
def test_optimize_prints_no_negative_initial_entanglement(cnot_file, capsys, measure):
    # CNOT's optimal inputs are product states, whose entanglement roundoff
    # once printed as -3.2e-16 (entropy) and -8.9e-16 (linear).
    argv = ["optimize", "--matrix", cnot_file, "--measure", measure, "--restarts", "4"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    (line,) = [x for x in out.splitlines() if x.startswith("initial_entanglement = ")]
    assert not line.split(" = ")[1].startswith("-"), line


def test_module_entry_point_exit_codes(tmp_path):
    # ``python3 -m entcap.cli``, as the README documents it, in a fresh
    # process: the exit code comes from main through app.
    src = str(Path(entcap.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "entcap.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )

    rows = ["1 0 0 0", "0 1 0 0", "0 0 0 1", "0 0 1 0"]
    cnot = tmp_path / "cnot.txt"
    cnot.write_text("\n".join(rows) + "\n")
    scaled = tmp_path / "scaled.txt"
    scaled.write_text("\n".join(["2 0 0 0", *rows[1:]]) + "\n")
    done = run("decompose", "--matrix", str(cnot))
    assert done.returncode == 0 and done.stdout, done.stderr
    bad = run("decompose", "--matrix", str(scaled))
    assert bad.returncode == 1 and bad.stderr.startswith("error:"), bad.stderr
    assert run().returncode == 2


def test_exit_codes(cnot_file, tmp_path, capsys):
    assert main(["decompose", "--matrix", str(tmp_path / "nope.json")]) == 1
    assert main(["decompose"]) == 2
    assert main(["capacity", "--matrix", cnot_file]) == 2
    assert main(["capacity", "--matrix", cnot_file, "--measure", "c2", "--bogus"]) == 2
    # Flags that the closed-form command does not take.
    for flag in ("--numeric-fallback", "--restarts=4", "--product-start", "--anc-a=1"):
        assert main(["capacity", "--matrix", cnot_file, "--measure", "c2", flag]) == 2
    # The climb has no objective tolerance to set.
    for command in (
        ["optimize", "--matrix", cnot_file],
        ["sweep", "--family", "cnot", "--steps", "2"],
    ):
        assert main([*command, "--measure", "c2", "--tol", "1e-8"]) == 2
    assert main(["not-a-command"]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_optimize_domain_error_exit(cnot_file, capsys):
    rc = main(
        [
            "optimize",
            "--matrix",
            cnot_file,
            "--measure",
            "concurrence",
            "--anc-a",
            "1",
            "--restarts",
            "2",
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_config_validation_errors_exit_1(cnot_file, capsys):
    optimize = ["optimize", "--matrix", cnot_file, "--measure", "c2"]
    sweep = ["sweep", "--family", "cnot", "--measure", "c2"]
    for argv, error in [
        ([*optimize, "--max-iterations", "0"], "error: need at least one iteration"),
        ([*optimize, "--restarts", "0"], "error: need at least one restart"),
        ([*sweep, "--restarts", "0"], "error: need at least one restart"),
    ]:
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert error in captured.err, argv
        assert captured.out == "", argv


def test_sweep_without_workers_or_grid_points_exits_1(capsys):
    # Neither quietly runs one process nor prints a header-only CSV.
    sweep = ["sweep", "--family", "cnot", "--measure", "c2", "--restarts", "2"]
    for argv, error in [
        ([*sweep, "--workers", "0"], "error: need at least one worker"),
        ([*sweep, "--workers", "-3"], "error: need at least one worker"),
        ([*sweep, "--steps", "0"], "error: need at least one grid point"),
        ([*sweep, "--steps", "-3"], "error: need at least one grid point"),
    ]:
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert error in captured.err, argv
        assert captured.out == "", argv


def test_sweep_csv_contract(capsys):
    rc = main(
        [
            "sweep",
            "--family",
            "cnot",
            "--alpha-min",
            "0",
            "--alpha-max",
            "0.6",
            "--steps",
            "3",
            "--measure",
            "c2",
            "--restarts",
            "4",
            "--seed",
            "2",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    cells = lines[2].split(",")
    assert len(cells) == 5
    assert float(cells[0]) == pytest.approx(0.3)
    assert float(cells[1]) == pytest.approx(np.sin(0.6), abs=1e-5)
    # cells round-trip at 12 significant digits
    for cell in cells[:4]:
        assert _fmt(float(cell)) == cell


def test_sweep_deterministic_across_workers(tmp_path, capsys):
    args = [
        "sweep",
        "--family",
        "dcnot",
        "--alpha-min",
        "0.1",
        "--alpha-max",
        "0.7",
        "--steps",
        "3",
        "--measure",
        "c2",
        "--restarts",
        "4",
        "--seed",
        "33",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--workers", "1", "--out", str(out1)]) == 0
    assert main(args + ["--workers", "3", "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert b"\r" not in out1.read_bytes()


def test_sweep_repeated_triples_are_byte_identical_across_workers(tmp_path, capsys):
    triples = ["0.3,0.2,0.1", "0.5,0.4,0.0", "0.3,0.2,0.1", "0.2,0.0,0.0", "0.5,0.4,0.0"]
    args = ["sweep", "--measure", "c2", "--restarts", "4", "--seed", "5"]
    for t in triples:
        args += ["--alpha-triple", t]
    outputs = []
    for workers in (1, 2, 3):
        out = tmp_path / f"w{workers}.csv"
        assert main(args + ["--workers", str(workers), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1] == outputs[2]
    lines = outputs[0].decode().splitlines()
    assert len(lines) == 6
    assert lines[3] == lines[1] and lines[5] == lines[2]


def test_sweep_custom_triples(capsys):
    rc = main(
        [
            "sweep",
            "--alpha-triple",
            "0.2,0.1,0.0",
            "--alpha-triple",
            "0.3,0.2,0.1",
            "--measure",
            "c2",
            "--restarts",
            "4",
            "--seed",
            "6",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("0.2,")
    assert lines[2].startswith("0.3,")


def test_sweep_nan_triple_is_an_error_row(capsys):
    rc = main(
        [
            "sweep",
            "--alpha-triple",
            "0.3,nan,0",
            "--alpha-triple",
            "0.2,0.1,0.0",
            "--measure",
            "c2",
            "--restarts",
            "4",
        ]
    )
    assert rc == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "0.3,nan,nan,nan,0"
    assert lines[2].startswith("0.2,")
    assert float(lines[2].split(",")[1]) == pytest.approx(np.sin(0.6), abs=1e-5)
    assert "warning: alpha=0.3:" in captured.err


def test_sweep_bad_triple_is_usage_error(capsys):
    assert main(["sweep", "--alpha-triple", "0.2,0.1", "--measure", "c2"]) == 2
    assert main(["sweep", "--alpha-triple", "a,b,c", "--measure", "c2"]) == 2
    capsys.readouterr()


def test_sweep_error_rows_warn_but_do_not_abort(capsys):
    rc = main(
        [
            "sweep",
            "--family",
            "cnot",
            "--alpha-min",
            "0.5",
            "--alpha-max",
            "2.0",
            "--steps",
            "2",
            "--measure",
            "c2",
            "--restarts",
            "4",
            "--seed",
            "3",
        ]
    )
    assert rc == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 3
    assert lines[2].split(",")[1] == "nan"
    assert "warning:" in captured.err
