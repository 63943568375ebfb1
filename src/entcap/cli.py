"""Command-line front end: matrix ingestion, capacity queries, CSV sweeps.

Exit codes: 0 on success, 1 on a domain error (bad matrix, failed
optimization, unsupported measure), 2 on a usage error.  All numbers are
printed with 12 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .canonical import decompose, local_invariants
from .capacity import (
    capacity_c2,
    capacity_concurrence,
    capacity_entropy_no_ancilla,
    capacity_linear_entropy,
)
from .errors import EntcapError, MatrixParseError, NotUnitaryError
from .measures import MeasureKind
from .optimize import (
    FamilyKind,
    SweepRow,
    _default_config,
    custom_sweep,
    family_sweep,
    numeric_capacity,
    product_start_capacity,
)
from .qcore import QUARTER_PI, _require_unitary

CSV_HEADER = "alpha,capacity,e0,ef,converged"


def _fmt(x: float) -> str:
    # adding 0.0 turns IEEE negative zero into plain zero before display
    return format(float(x) + 0.0, ".12g")


def _fmt_angle(x: float) -> str:
    # The decomposition is accurate to ~1e-15; angles below 1e-12 print as
    # zero so that rounding residue never shows as an interaction.
    return "0" if abs(x) < 1e-12 else _fmt(x)


def _fmt_complex(z: complex) -> str:
    # Parts below 1e-12 are ``eigvals`` residue and print as zero, as angles do.
    sign = "-" if z.imag <= -1e-12 else "+"
    return f"{_fmt_angle(z.real)}{sign}{_fmt_angle(abs(z.imag))}i"


def _parse_complex_token(token: str) -> complex:
    try:
        return complex(token.replace("i", "j").replace("I", "J"))
    except ValueError:
        raise MatrixParseError(f"cannot parse complex token {token!r}") from None


def _matrix_from_txt(text: str) -> np.ndarray:
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) != 4:
        raise MatrixParseError(f"expected 4 matrix rows, got {len(lines)}")
    rows = []
    for line in lines:
        tokens = line.split()
        if len(tokens) != 4:
            raise MatrixParseError(
                f"expected 4 entries per row, got {len(tokens)} in {line!r}"
            )
        rows.append([_parse_complex_token(t) for t in tokens])
    return np.array(rows, dtype=complex)


def _matrix_from_json(text: str) -> np.ndarray:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixParseError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict) or "matrix" not in data:
        raise MatrixParseError('expected an object with a "matrix" key')
    rows = data["matrix"]
    if not isinstance(rows, list) or len(rows) != 4:
        raise MatrixParseError("matrix must be a list of 4 rows")
    out = np.empty((4, 4), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 4:
            raise MatrixParseError(f"row {i} must be a list of 4 entries")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(type(v) in (int, float) for v in entry)  # no bool
            ):
                raise MatrixParseError(
                    f"entry ({i},{j}) must be a [re, im] pair, got {entry!r}"
                )
            try:
                out[i, j] = complex(entry[0], entry[1])
            except OverflowError:
                raise MatrixParseError(f"entry ({i},{j}) overflows a float") from None
    return out


def parse_matrix_file(path: str, unitary_tol: float = 1e-8) -> np.ndarray:
    """Load a 4x4 unitary from disk: JSON when the first non-blank character
    is ``{`` or ``[``, which no token of the text form starts with, and the
    text form otherwise.

    The matrix must pass the package's unitarity check at ``unitary_tol``
    (max entry of U^dagger U - I).  One that passes there but not at the
    library's own 1e-10 is replaced by its nearest unitary, the polar
    factor, so that every later check holds; an already unitary matrix is
    returned unchanged.
    """
    # utf-8-sig drops a byte-order mark, which would hide the first character.
    with open(path, encoding="utf-8-sig") as handle:
        text = handle.read()
    is_json = text.lstrip().startswith(("{", "["))
    u = _matrix_from_json(text) if is_json else _matrix_from_txt(text)
    _require_unitary(u, unitary_tol)
    try:
        return _require_unitary(u)
    except NotUnitaryError:
        w, _, vh = np.linalg.svd(u)
        return w @ vh


def _load_matrix(args) -> np.ndarray:
    return parse_matrix_file(args.matrix, args.unitary_tol)


def _config_from(args):
    """The library's default config for the ancilla counts, with any
    explicit overrides; ``--max-iterations`` is optimize's alone."""
    overrides = dict(
        restarts=args.restarts,
        master_seed=args.seed,
        max_iterations=getattr(args, "max_iterations", None),
    )
    given = {k: v for k, v in overrides.items() if v is not None}
    return replace(_default_config(args.anc_a, args.anc_b), **given)


def _cmd_decompose(args) -> int:
    params = decompose(_load_matrix(args))
    a = params.alpha
    lams = params.lambdas
    print(f"alpha = ({_fmt_angle(a[0])}, {_fmt_angle(a[1])}, {_fmt_angle(a[2])})")
    print(
        "lambdas = ("
        + ", ".join(_fmt_angle(lam) for lam in lams)
        + ")"
    )
    print(f"conjugated = {'true' if params.conjugated else 'false'}")
    return 0


def _cmd_invariants(args) -> int:
    vals = local_invariants(_load_matrix(args))
    print("invariants = (" + ", ".join(_fmt_complex(z) for z in vals) + ")")
    return 0


_ANALYTIC_CAPACITY = {
    MeasureKind.CONCURRENCE_SQUARED: capacity_c2,
    MeasureKind.CONCURRENCE: capacity_concurrence,
    MeasureKind.ENTROPY_OF_ENTANGLEMENT: capacity_entropy_no_ancilla,
    MeasureKind.LINEAR_ENTROPY: capacity_linear_entropy,
}


def _cmd_capacity(args) -> int:
    params = decompose(_load_matrix(args))
    result = _ANALYTIC_CAPACITY[MeasureKind(args.measure)](params)
    print(f"capacity = {_fmt(result.value)}, region {result.region.value}")
    print(f"initial_entanglement = {_fmt(result.initial_entanglement)}")
    if result.rescaled_value is not None:
        print(f"rescaled_capacity = {_fmt(result.rescaled_value)}")
    if result.extrapolated:
        print("extrapolated = true")
    print("method = analytic")
    return 0


def _cmd_optimize(args) -> int:
    u = _load_matrix(args)
    kind = MeasureKind(args.measure)
    cfg = _config_from(args)
    run = product_start_capacity if args.product_start else numeric_capacity
    res = run(u, kind, args.anc_a, args.anc_b, cfg)
    print(f"capacity = {_fmt(res.value)}")
    print(f"initial_entanglement = {_fmt(res.initial_entanglement)}")
    print(f"final_entanglement = {_fmt(res.final_entanglement)}")
    print(f"converged_restarts = {res.converged_restarts}")
    print(f"best_restart_seed = {res.best_restart_seed}")
    return 0


def _csv_text(rows: list[SweepRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                (
                    _fmt(row.alpha),
                    _fmt(row.capacity),
                    _fmt(row.initial_entanglement),
                    _fmt(row.final_entanglement),
                    str(row.converged_restarts),
                )
            )
        )
    return "\n".join(lines) + "\n"


def _cmd_sweep(args) -> int:
    kind = MeasureKind(args.measure)
    cfg = _config_from(args)
    common = dict(
        measure=kind,
        anc_a=args.anc_a,
        anc_b=args.anc_b,
        cfg=cfg,
        product_start=args.product_start,
        workers=args.workers,
    )
    if args.family is not None:
        grid = np.linspace(args.alpha_min, args.alpha_max, max(args.steps, 0))
        rows = family_sweep(FamilyKind(args.family), grid, **common)
    else:
        rows = custom_sweep(args.alpha_triple, **common)
    for row in rows:
        if row.error is not None:
            print(f"warning: alpha={_fmt(row.alpha)}: {row.error}", file=sys.stderr)
    text = _csv_text(rows)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _triple(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected three comma-separated angles, got {text!r}"
        )
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric angle in {text!r}") from None


def _add_matrix_flags(sub) -> None:
    sub.add_argument("--matrix", required=True, help="4x4 unitary file: JSON or text")
    sub.add_argument(
        "--unitary-tol",
        type=float,
        default=1e-8,
        help="largest entry of U^dagger U - I accepted in a parsed matrix; "
        "accepted matrices that are not unitary to 1e-10 are projected onto "
        "the nearest unitary",
    )


def _add_measure_flag(sub) -> None:
    sub.add_argument(
        "--measure",
        required=True,
        choices=tuple(m.value for m in MeasureKind),
    )


def _add_optimizer_flags(sub) -> None:
    _add_measure_flag(sub)
    sub.add_argument("--anc-a", type=int, choices=(0, 1, 2), default=0)
    sub.add_argument("--anc-b", type=int, choices=(0, 1, 2), default=0)
    sub.add_argument("--restarts", type=int, default=None)
    sub.add_argument("--seed", type=int, default=None, help="master seed")
    sub.add_argument(
        "--product-start",
        action="store_true",
        help="restrict initial states to products across the A|B cut",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entcap",
        description="Entangling capacity of two-qubit gates.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("decompose", help="canonical interaction angles")
    _add_matrix_flags(sub)
    sub.set_defaults(handler=_cmd_decompose)

    sub = subs.add_parser("invariants", help="local-unitary invariant spectrum")
    _add_matrix_flags(sub)
    sub.set_defaults(handler=_cmd_invariants)

    sub = subs.add_parser("capacity", help="closed-form capacity by region")
    _add_matrix_flags(sub)
    _add_measure_flag(sub)
    sub.set_defaults(handler=_cmd_capacity)

    sub = subs.add_parser("optimize", help="numeric capacity at one gate")
    _add_matrix_flags(sub)
    _add_optimizer_flags(sub)
    sub.add_argument("--max-iterations", type=int, default=None)
    sub.set_defaults(handler=_cmd_optimize)

    sub = subs.add_parser("sweep", help="capacity along a gate family, as CSV")
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--family", choices=tuple(f.value for f in FamilyKind))
    group.add_argument(
        "--alpha-triple",
        type=_triple,
        action="append",
        metavar="A1,A2,A3",
        help="explicit canonical triple; repeat for several rows",
    )
    sub.add_argument("--alpha-min", type=float, default=0.0)
    sub.add_argument("--alpha-max", type=float, default=QUARTER_PI)
    sub.add_argument("--steps", type=int, default=16)
    _add_optimizer_flags(sub)
    sub.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes the sweep uses; each takes one contiguous chunk of the "
        "distinct gates, and the output bytes do not depend on this count",
    )
    sub.add_argument("--out", default=None, help="CSV path (default: stdout)")
    sub.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (EntcapError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
