"""Command-line surface: every table and grid as deterministic CSV/JSON.

Each subcommand accepts only the flags it reads.  Exit codes: 0 success,
2 usage/parameter error, 3 numerical failure or an uncertified revival
period.  Floats are printed with the shortest round-trip decimal so
identical configs give byte-identical files: `repr` once per distinct float64
table value, `str` (a float's `repr`) for every other table cell, and for
Wigner grids a vectorized kernel in `_shortest` that writes the same bytes
for a block of rows at a time.  Each cmd_* takes the parsed arguments and
returns its rendered text, as one string or as chunks to write in turn (None
when it writes its own files), and its exit code.
"""
from __future__ import annotations

import argparse
import json
import sys
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .dynamics import CERT_TOL, _coefficients, _defect, certify_period, detect_revival
from .errors import FiniteGaussError, InvalidDimensionError, InvalidParameterError
from .hilbert import PhasePoint, StateVector, coherent_state
from .lattice import _BLOCK_CELLS, Dimension, _row_blocks, _sealed
from .spectral import (
    _form_eig,
    _free_coefficients,
    _free_levels,
    _oscillator_form,
    _populated_spectrum,
    commutator_spectrum,
    hermitian_eig,
    oscillator_hamiltonian,
    quasi_eigen_residual,
    uncertainty_product,
)
from .wigner import wigner_closed_form, wigner_definition, wigner_theta_form
from .wrapped import finite_gaussian, naive_gaussian, shifted_finite_gaussian

DEFAULT_D_LIST = (3, 5, 7, 9, 11, 13, 15)


def _column_csv(col) -> list[str]:
    """The CSV text of each cell of one column.

    A float64 array is formatted once per distinct bit pattern, so that 0.0 and
    -0.0 keep their own text; any other column goes through str, which writes a
    float as repr does.
    """
    if isinstance(col, np.ndarray) and col.dtype == np.float64:
        bits, where = np.unique(col.view(np.int64), return_inverse=True)
        return np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)[where].tolist()
    return list(map(str, col.tolist() if isinstance(col, np.ndarray) else col))


def _render_table(header: list[str], columns: list, fmt: str) -> str:
    """The table whose columns, one per header key, are arrays or sequences of cells, rendered a column at a time.

    A column shorter than the others ends in empty cells (None).
    """
    if fmt == "csv":
        texts = [_column_csv(col) for col in columns]
        return "\n".join([",".join(header), *map(",".join, zip_longest(*texts, fillvalue=""))]) + "\n"
    cells = [col.tolist() if isinstance(col, np.ndarray) else list(col) for col in columns]
    payload = [dict(zip(header, row)) for row in zip_longest(*cells)]
    return json.dumps(payload, indent=2) + "\n"


def _write(text, output_path: str | None) -> None:
    """Write a str, or each chunk of an iterable of str, to stdout or to output_path."""
    out = sys.stdout if output_path is None else open(output_path, "w", encoding="utf-8", newline="\n")
    try:
        for chunk in [text] if isinstance(text, str) else text:
            out.write(chunk)
    finally:
        if out is not sys.stdout:
            out.close()


def cmd_gauss(args):
    """Rows n, g(n), g_plus(n), naive(n) for the given lattice."""
    dim = Dimension(args.d)
    g = finite_gaussian(dim, args.kappa).values
    gp = shifted_finite_gaussian(dim, args.kappa).values
    nv = naive_gaussian(dim, args.kappa)
    return _render_table(["n", "g", "g_plus", "naive"], [dim.indices(), g, gp, nv], args.format), 0


def cmd_commutator(args):
    """Imaginary parts of the commutator spectrum, ascending."""
    vals = commutator_spectrum(Dimension(args.d)).eigenvalues
    return _render_table(["k", "eta_imag"], [range(vals.size), vals], args.format), 0


def cmd_uncertainty(args):
    """One row per lattice size: spreads, product, bound, gap."""
    try:
        d_list = [int(tok) for tok in args.d_list.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidParameterError(f"bad --d-list: {exc}") from exc
    if not d_list:
        raise InvalidParameterError("--d-list must name at least one lattice size")
    header = ["d", "delta_q", "delta_p", "product", "half_comm", "gap"]
    reports = [uncertainty_product(Dimension(d), args.kappa) for d in d_list]
    columns = [d_list] + [[getattr(r, key) for r in reports] for key in header[1:]]
    return _render_table(header, columns, args.format), 0


def cmd_spectrum(args):
    """Eigenvalues descending with the gap down to the next level."""
    dim = Dimension(args.d)
    if args.ham == "osc":  # solved from the oscillator's symbol, with the bytes of its dense matrix
        vals = _form_eig(_oscillator_form(dim)).eigenvalues[::-1]
    else:  # the free levels pi*k**2/d are known in closed form: k = 0 once, each k > 0 twice
        vals = np.repeat(_free_levels(dim)[::-1], 2)[:-1]
    gaps = vals[:-1] - vals[1:]  # one short: the lowest level has no gap
    return _render_table(["k", "eigenvalue", "gap"], [range(vals.size), vals, gaps], args.format), 0


def cmd_quasi(args):
    """Quasi-eigenvalue and the defect at n = 1..s."""
    dim = Dimension(args.d)
    rep = quasi_eigen_residual(dim)
    names = ["lambda"] + [f"residual_{n}" for n in range(1, dim.s + 1)]
    values = np.append(rep.lam, rep.residual[dim.s + 1 :])
    return _render_table(["quantity", "value"], [names, values], args.format), 0


def cmd_wigner(args):
    """The d x d Wigner grid from the chosen route; optional cross-check."""
    dim = Dimension(args.d)
    if args.source == "definition":
        grid = wigner_definition(dim, args.kappa)
    elif args.source == "closed":
        grid = wigner_closed_form(dim, args.kappa)
    elif args.kappa != 1.0:
        raise InvalidParameterError(f"--source theta is the kappa = 1 form, got --kappa {args.kappa!r}")
    else:
        grid = wigner_theta_form(dim)
    check_value = _wigner_check(args, grid) if args.check else None
    return _render_wigner(grid, check_value, args.format), 0


def _wigner_check(args, grid) -> float:
    """max |definition - closed form|, reusing grid for the route that made it.

    Taken in blocks of rows, so no d x d difference is formed, and in a function
    of its own, so that the second grid is freed before rendering.
    """
    dim = grid.dim
    wd = grid if args.source == "definition" else wigner_definition(dim, args.kappa)
    wc = grid if args.source == "closed" else wigner_closed_form(dim, args.kappa)
    return max(float(np.max(np.abs(wd.values[rows] - wc.values[rows])))
               for rows in _row_blocks(dim.d, dim.d, _BLOCK_CELLS))


def _grid_rows(grid, formatter):
    """The text of each grid row in turn, its cells as `repr` text joined by the formatter's separator.

    g_kappa is even, so the routes' grids are even in n and in m bit for bit.  Each symmetry is
    decided once per grid, on the bits, so that -0.0 against 0.0 breaks it.  Even in m, a row is
    formatted as its m >= 0 half with mirror columns; even in n, only rows n <= 0 are formatted,
    and the text of each row n < 0 is held until row -n is written.
    """
    d, s, values = grid.dim.d, grid.dim.s, grid.values
    bits = values.view(np.int64)
    block_cells = 4 * _BLOCK_CELLS
    # in blocks of rows, so that no d x d temporary is built
    even_m = all(np.array_equal(bits[b, s:], bits[b, s::-1]) for b in _row_blocks(d, d, block_cells))
    even_n = all(np.array_equal(bits[b], bits[::-1][b]) for b in _row_blocks(s, d, block_cells))
    rows = values[:s + 1] if even_n else values
    columns = np.abs(np.arange(-s, s + 1)) if even_m else None
    waiting = []  # the texts of rows n < 0, in order
    for b in _row_blocks(len(rows), d, block_cells):
        texts = formatter.join_rows(rows[b, s:] if even_m else rows[b], columns)
        yield from texts
        if even_n:
            waiting += texts
    if even_n:
        del waiting[s:]  # row n = 0 is its own mirror
        while waiting:  # popped as written, so that no text is held after its row
            yield waiting.pop()


def _render_wigner(grid, check_value, fmt: str):
    """The grid's text as chunks, one grid row at a time; JSON reads as json.dumps(payload, indent=2) + newline."""
    from ._shortest import RowFormatter  # on first use: a fresh import of the CLI does not load it

    d = grid.dim.d
    ms = ns = [int(n) for n in grid.dim.indices()]
    formatter = RowFormatter("," if fmt == "csv" else ",\n      ")
    if fmt == "csv":
        yield ",".join(["n"] + [str(m) for m in ms]) + "\n"
        for n, cells in zip(ns, _grid_rows(grid, formatter)):
            yield f"{n},{cells}\n"
        if check_value is not None:
            yield f"check_max_abs_diff,{check_value!r}\n"
        return
    payload = {
        "d": d,
        "kappa": float(grid.kappa),
        "source": grid.source.value,
        "n": ns,
        "m": ms,
        "values": [],
    }
    if grid.fitted_scale is not None:
        payload["fitted_scale"] = float(grid.fitted_scale)
    if check_value is not None:
        payload["check_max_abs_diff"] = float(check_value)
    head, tail = json.dumps(payload, indent=2).split('"values": []')
    yield head + '"values": ['
    # json.dumps spells the non-finite floats as JavaScript does; a finite float's repr has no inf or nan
    finite = all(np.isfinite(grid.values[b]).all() for b in _row_blocks(d, d, 4 * _BLOCK_CELLS))
    for i, text in enumerate(_grid_rows(grid, formatter)):
        if not finite:
            text = text.replace("inf", "Infinity").replace("nan", "NaN")
        yield ("," if i else "") + "\n    [\n      " + text + "\n    ]"
    yield "\n  ]" + tail + "\n"


def _revival_state(dim: Dimension, state_spec: list[str], kappa: float) -> StateVector:
    kind = state_spec[0]
    if kind == "gauss":
        if len(state_spec) != 1:
            raise InvalidParameterError("state gauss takes no arguments")
        g = finite_gaussian(dim, kappa)
        return StateVector(dim, g.values).normalized()
    if kind == "coherent":
        if len(state_spec) != 3:
            raise InvalidParameterError("state coherent needs two integers: alpha beta")
        try:
            alpha, beta = int(state_spec[1]), int(state_spec[2])
        except ValueError as exc:
            raise InvalidParameterError(f"coherent labels must be integers: {exc}") from exc
        return coherent_state(dim, PhasePoint(alpha, beta))
    if kind == "delta":
        if len(state_spec) != 2:
            raise InvalidParameterError("state delta needs one integer: n")
        try:
            n = int(state_spec[1])
        except ValueError as exc:
            raise InvalidParameterError(f"delta position must be an integer: {exc}") from exc
        if abs(n) > dim.s:
            raise InvalidParameterError(f"delta position {n} outside |n| <= {dim.s}")
        amps = np.zeros(dim.d, dtype=complex)
        amps[dim.offset(n)] = 1.0
        return StateVector(dim, _sealed(amps))
    raise InvalidParameterError(f"unknown state kind {kind!r}; use gauss, coherent, or delta")


def cmd_revival(args):
    """Detect and certify a revival period; JSON report, exit 3 if uncertified."""
    dim = Dimension(args.d)
    psi = _revival_state(dim, args.state, args.kappa)
    certify = None
    if args.ham == "osc":  # the oscillator's revival needs only the levels psi populates
        spec = _populated_spectrum(psi)
        if spec is None:  # psi spreads past the Ritz space: the whole oscillator, solved and certified
            h = oscillator_hamiltonian(dim)
            spec = hermitian_eig(h)
            certify = lambda period: certify_period(h, psi, period, spectrum=spec)
        levels, coeffs = spec.eigenvalues, _coefficients(spec, psi)
    else:  # the free modes are cosines and sines, so psi's amplitudes on them are one FFT
        levels, coeffs = _free_coefficients(psi)
    mags = np.abs(coeffs)
    report = detect_revival(levels, mags**2, args.rel_tol)

    certified = False
    max_residual = None
    if report.period is not None:
        max_residual = certify(report.period) if certify else _defect(levels, mags, report.period)
        certified = max_residual <= CERT_TOL
    payload = {
        "kind": report.kind,
        "period": None if report.period is None else float(report.period),
        "m": None if report.m is None else int(report.m),
        "certified": certified,
        "max_residual": max_residual,
        "zero_level": bool(report.zero_level),
        "note": report.note,
    }
    if not certified:
        print(f"period not certified: kind={report.kind} max_residual={max_residual}", file=sys.stderr)
    return json.dumps(payload, indent=2) + "\n", (0 if certified else 3)


def _golden_jobs():
    """Pinned configurations behind every checked-in golden file."""
    kappa_4_3 = 4.0 / 3.0
    return [
        ("gauss_d31_kappa1.csv", ["gauss", "--d", "31", "--kappa", "1"]),
        ("gauss_d31_kappa3.csv", ["gauss", "--d", "31", "--kappa", "3"]),
        ("gauss_d3_kappa1.csv", ["gauss", "--d", "3", "--kappa", "1"]),
        ("commutator_d15.csv", ["commutator", "--d", "15"]),
        ("uncertainty_kappa1.csv", ["uncertainty", "--d-list", "3,5,7,9,11,13,15"]),
        ("spectrum_osc_d9.csv", ["spectrum", "--d", "9", "--ham", "osc"]),
        ("spectrum_osc_d13.csv", ["spectrum", "--d", "13", "--ham", "osc"]),
        ("spectrum_free_d5.csv", ["spectrum", "--d", "5", "--ham", "free"]),
        ("quasi_d5.csv", ["quasi", "--d", "5"]),
        ("quasi_d9.csv", ["quasi", "--d", "9"]),
        ("wigner_d3_kappa1.csv", ["wigner", "--d", "3", "--kappa", "1"]),
        (
            "wigner_check_d31.csv",
            ["wigner", "--d", "31", "--kappa", repr(kappa_4_3), "--source", "closed", "--check"],
        ),
        ("revival_free_d9_delta0.json", ["revival", "--d", "9", "--ham", "free", "--state", "delta", "0"]),
        ("revival_osc_d31_gauss.json", ["revival", "--d", "31", "--ham", "osc", "--state", "gauss"]),
        (
            "revival_osc_d31_coherent.json",
            ["revival", "--d", "31", "--ham", "osc", "--state", "coherent", "1", "0",
             "--rel-tol", "1e-6"],
        ),
    ]


def cmd_make_goldens(args):
    """Regenerate the full golden set under --out-dir; writes no output of its own."""
    base = Path(args.out_dir)
    base.mkdir(parents=True, exist_ok=True)
    for name, argv in _golden_jobs():
        code = main(argv + ["--out", str(base / name)])
        if code not in (0, 3):
            return None, code
    return None, 0


# Flags read by more than one subcommand; each subcommand lists the ones it reads.
_SHARED_FLAGS = {
    "--d": dict(type=int, required=True, help="odd lattice size >= 3"),
    "--kappa": dict(type=float, default=1.0, help="squeezing parameter (default 1)"),
    "--format": dict(choices=("csv", "json"), default="csv", help="output format"),
    "--out": dict(default=None, help="output path (default stdout)"),
}


def _add_command(sub, name: str, summary: str, *flags: str) -> argparse.ArgumentParser:
    """Subcommand `name`, run by cmd_<name>, with the named shared flags."""
    p = sub.add_parser(name, help=summary)
    for flag in flags:
        p.add_argument(flag, **_SHARED_FLAGS[flag])
    return p


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finitegauss",
        description="Wrapped Gaussians and exact discrete-quantum tables on odd lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    table = ("--format", "--out")

    _add_command(sub, "gauss", "wrapped, shifted, and naive Gaussian columns",
                 "--d", "--kappa", *table)

    _add_command(sub, "commutator", "spectrum of the position-momentum commutator",
                 "--d", *table)

    p = _add_command(sub, "uncertainty", "spread products over a list of lattice sizes",
                     "--kappa", *table)
    p.add_argument(
        "--d-list",
        default=",".join(str(d) for d in DEFAULT_D_LIST),
        help="comma-separated odd lattice sizes",
    )

    p = _add_command(sub, "spectrum", "Hamiltonian eigenvalues, descending, with gaps",
                     "--d", *table)
    p.add_argument("--ham", choices=("osc", "free"), default="osc", help="which Hamiltonian")

    _add_command(sub, "quasi", "quasi-eigenvalue of the wrapped Gaussian and its defect",
                 "--d", *table)

    p = _add_command(sub, "wigner", "discrete Wigner grid",
                     "--d", "--kappa", *table)
    p.add_argument(
        "--source",
        choices=("definition", "closed", "theta"),
        default="definition",
        help="which route computes the grid",
    )
    p.add_argument("--check", action="store_true", help="also emit max |definition - closed_form|")

    # revival always writes JSON; --kappa shapes the gauss initial state
    p = _add_command(sub, "revival", "detect and certify a revival period",
                     "--d", "--kappa", "--out")
    p.add_argument("--ham", choices=("osc", "free"), default="free", help="which Hamiltonian")
    p.add_argument(
        "--state",
        nargs="+",
        required=True,
        metavar="SPEC",
        help="gauss | coherent ALPHA BETA | delta N",
    )
    p.add_argument("--rel-tol", type=float, default=1e-9, help="revival rational-certification tolerance")

    p = _add_command(sub, "make-goldens", "regenerate all golden outputs")
    p.add_argument("--out-dir", default="tests/goldens", help="directory for golden files")
    return parser


_PARSER = None  # built by the first main call, not at import


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    args = _PARSER.parse_args(argv)
    # looked up at each call, so that a cmd_* rebound on the module is the one that runs
    run = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        text, code = run(args)  # make-goldens creates --out-dir here
        if text is not None:
            _write(text, args.out)
    except (InvalidDimensionError, InvalidParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FiniteGaussError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
