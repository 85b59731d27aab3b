"""Workloads of the finitegauss benchmark: the ops each one runs and their oracles.

An op is one unit of work a user asks for: one CLI invocation, or one
analysis through the library.  `run` is the timed part and returns the
program's output; `check` is the untimed oracle and raises OracleError
when that output is wrong.  Every reference an oracle needs is built
once, before timing starts, either from an analytic formula or from an
independent route computed here with plain numpy.

The seed only orders the ops and, in `library`, picks the coherent
states; the program receives nothing but the generated inputs.
"""
from __future__ import annotations

import contextlib
import importlib
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Stated tolerances of the oracles.
CHECK_DIFF_LIMIT = 1e-12  # Wigner definition-vs-closed-form diff, relative to max |W|
CERT_TOL = 1e-8           # the CLI's default --cert-tol: a certified revival residual
SPECTRUM_RTOL = 1e-10     # eigenvalues and their sums, relative to their scale
GRID_RTOL = 1e-12         # Wigner grids and wrapped sums, relative to their max
THETA_RTOL = 1e-10        # theta-form grid after its one-constant fit
QUASI_RTOL = 1e-11        # quasi-eigen defect, relative to |lambda| * max g
LOW_LEVEL_TOL = 1e-6      # lowest oscillator levels against n + 1/2
FRAME_LIMIT = 1e-12       # coherent-frame resolution residual
UNCERTAINTY_TOL = 1e-12   # kappa=1 spreads against their continuum limits at large d

WORKLOADS = ("cli-large", "library")

CLI_LARGE_DS = (301, 1001)
# Repeats per round of the six jobs at each d other than `wigner`, which runs
# once per d.  Sorted by time, a round then holds the nine d=1001 jobs, the
# three d=301 Wigner grids and `uncertainty`, a cluster of 5r + 1 jobs of
# 45-75 ms (r the d=301 repeat count, with `gauss`), and the r d=301 `quasi`
# jobs.  The median lies 3r - 5.5 jobs below the cluster's top and the tail
# (ten jobs beyond it) among the d=301 Wigner grids, each inside one class.
CLI_LARGE_REPEATS = {301: 6, 1001: 1}
CLI_LARGE_GAUSS_D = 10001
LIBRARY_DS = (101, 301)
# Every decade finite_gaussian accepts, plus one value past its window cap.
# The slowest, kappa=1e-8, runs twice a round: over the 11 rounds of a 40 s
# run the tail (ten ops beyond it) is then the middle of its 22 ops.  Once a
# round, it was the third fastest of 13, on the edge next to the kappa=1e8
# ops, and jumped between the two from run to run.
LIBRARY_KAPPAS = (1e-8,) + tuple(10.0 ** e for e in range(-8, 9)) + (1e-13,)
AUTOCORR_SAMPLES = 1000
FRAME_D = 31
# The free delta revival's known residual is 1.1e-8 at d=201 and 5.8e-7 at d=1001.
FREE_DELTA_RESIDUAL_MAX = 1e-5


class OracleError(AssertionError):
    """An op's output disagrees with its reference."""


@dataclass(frozen=True)
class Defect:
    """A known failure of the program and the outcome it gives.

    `expect` raises OracleError unless a failed op's outcome (its result, or
    the exception it raised) is exactly this failure; any other failure of
    the op is unexpected.
    """

    description: str
    expect: Callable[[object], None]


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: `run` is timed, `check` is the oracle."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    known_defect: Defect | None = None


@dataclass(frozen=True)
class CliResult:
    code: int
    out: str
    err: str


class _Sink:
    """A stdout stand-in that keeps each written string without copying it."""

    def __init__(self):
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def run_cli(argv) -> CliResult:
    """Run one CLI job in process, capturing stdout, stderr and the exit code."""
    cli = importlib.import_module("finitegauss.cli")
    out, err = _Sink(), _Sink()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse exits on a usage error
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, "".join(out.parts), "".join(err.parts))


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


def _expect_code(res: CliResult, want: int = 0) -> None:
    _expect(res.code == want, f"exit code {res.code}, want {want}: {res.err.strip()[:200]}")


def _close(got, want, tol: float, what: str) -> None:
    diff = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    _expect(diff <= tol, f"{what}: max |diff| {diff:.3e} > {tol:.3e}")


def _floats(cells, what: str) -> np.ndarray:
    try:
        return np.array([float(c) for c in cells])
    except ValueError as exc:
        raise OracleError(f"{what}: {exc}") from exc


def _csv(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()]


# ---------------------------------------------------------------- analytic references

def centered(d: int) -> np.ndarray:
    s = (d - 1) // 2
    return np.arange(-s, s + 1)


def dft(v: np.ndarray) -> np.ndarray:
    """(F v)(k) = d**-0.5 sum_n exp(+2j*pi*k*n/d) v(n) on centered labels, by FFT."""
    return math.sqrt(v.size) * np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(v)))


def wrapped_reference(d: int, kappa: float, shift: float) -> np.ndarray:
    """sum over alpha of exp(-kappa*pi*((alpha+shift)*d + n)**2/d), vectorized.

    For the moderate kappa the CLI jobs use, |alpha| <= 3 leaves terms far
    below double precision.
    """
    alpha = np.arange(-3, 4)[:, None] + shift
    x = alpha * d + centered(d)[None, :]
    return np.exp(-kappa * math.pi * x * x / d).sum(axis=0)


def oscillator_traces(d: int) -> tuple[float, float]:
    """tr H and tr H**2 for H = (P**2 + Q**2)/2 in closed form.

    P = F Q F^dag, so tr P**2 = tr Q**2 and tr P**4 = tr Q**4; the diagonal
    of the circulant P**2 is constant, so tr P**2 Q**2 = (tr Q**2)**2 / d.
    """
    n = centered(d).astype(float)
    tr_q2 = 2.0 * math.pi / d * float(np.sum(n * n))
    tr_q4 = (2.0 * math.pi / d) ** 2 * float(np.sum(n ** 4))
    return tr_q2, 0.5 * (tr_q4 + tr_q2 * tr_q2 / d)


def commutator_square_sum(d: int) -> float:
    """sum of eta**2 = squared Frobenius norm of [Q, P], from its closed-form entries."""
    u = np.arange(-(d - 1), d)
    u = u[u != 0]
    w = (math.pi * u / d) / np.sin(math.pi * u / d)
    return float(np.sum((d - np.abs(u)) * w * w))


def quasi_reference(d: int, g: np.ndarray) -> tuple[float, np.ndarray]:
    """lambda and H g - lambda g for the self-dual g_1, with P**2 g = F Q**2 g by FFT."""
    q2 = 2.0 * math.pi / d * centered(d).astype(float) ** 2
    hg = 0.5 * (dft(q2 * g).real + q2 * g)
    s = (d - 1) // 2
    lam = float(hg[s] / g[s])
    return lam, hg - lam * g


# ---------------------------------------------------------------- cli-large oracles

def _table(res: CliResult, header: list[str]) -> list[list[str]]:
    _expect_code(res)
    rows = _csv(res.out)
    _expect(bool(rows) and rows[0] == header, f"header {rows[0] if rows else None}, want {header}")
    return rows[1:]


def _spectrum_rows(res: CliResult, d: int) -> np.ndarray:
    rows = _table(res, ["k", "eigenvalue", "gap"])
    _expect(len(rows) == d, f"{len(rows)} levels, want {d}")
    _expect([r[0] for r in rows] == [str(k) for k in range(d)], "level labels are not 0..d-1")
    vals = _floats([r[1] for r in rows], "eigenvalue")
    gaps = _floats([r[2] for r in rows[:-1]], "gap")
    _expect(rows[-1][2] == "", "last level carries a gap")
    scale = float(np.max(np.abs(vals)))
    _close(gaps, vals[:-1] - vals[1:], SPECTRUM_RTOL * scale, "gaps")
    _expect(bool(np.all(gaps >= -SPECTRUM_RTOL * scale)), "levels are not descending")
    return vals


def check_spectrum_free(d: int):
    levels = np.sort(math.pi * centered(d).astype(float) ** 2 / d)[::-1]

    def check(res: CliResult) -> None:
        vals = _spectrum_rows(res, d)
        _close(vals, levels, SPECTRUM_RTOL * levels[0], "free levels against pi*n**2/d")

    return check


def check_spectrum_osc(d: int):
    tr_h, tr_h2 = oscillator_traces(d)

    def check(res: CliResult) -> None:
        vals = _spectrum_rows(res, d)
        _close(vals.sum(), tr_h, SPECTRUM_RTOL * tr_h, "sum of levels against tr H")
        _close(np.sum(vals * vals), tr_h2, SPECTRUM_RTOL * tr_h2, "sum of squared levels against tr H**2")
        _close(vals[::-1][:10], np.arange(10) + 0.5, LOW_LEVEL_TOL, "lowest levels against n + 1/2")

    return check


def check_commutator(d: int):
    sq = commutator_square_sum(d)

    def check(res: CliResult) -> None:
        rows = _table(res, ["k", "eta_imag"])
        _expect([r[0] for r in rows] == [str(k) for k in range(d)], "labels are not 0..d-1")
        eta = _floats([r[1] for r in rows], "eta_imag")
        _expect(bool(np.all(np.diff(eta) >= 0.0)), "eigenvalues are not ascending")
        _close(eta.sum(), 0.0, SPECTRUM_RTOL * float(np.sum(np.abs(eta))), "trace of -i[Q,P]")
        _close(np.sum(eta * eta), sq, SPECTRUM_RTOL * sq, "sum of eta**2 against ||[Q,P]||_F**2")

    return check


def check_quasi(d: int):
    g = wrapped_reference(d, 1.0, 0.0)
    lam, residual = quasi_reference(d, g)
    s = (d - 1) // 2
    tol = QUASI_RTOL * abs(lam) * float(np.max(g))

    def check(res: CliResult) -> None:
        rows = _table(res, ["quantity", "value"])
        labels = ["lambda"] + [f"residual_{n}" for n in range(1, s + 1)]
        _expect([r[0] for r in rows] == labels, "quantities are not lambda, residual_1..s")
        vals = _floats([r[1] for r in rows], "value")
        _close(vals[0], lam, tol, "lambda against the FFT route")
        _close(vals[1:], residual[s + 1:], tol, "defect against the FFT route")

    return check


def _revival_payload(res: CliResult) -> dict:
    try:
        return json.loads(res.out)
    except json.JSONDecodeError as exc:
        raise OracleError(f"revival output is not JSON: {exc}") from exc


def check_revival(kind: str, period: float, rel_tol: float):
    """A certified revival of the given kind with the analytic period."""

    def check(res: CliResult) -> None:
        payload = _revival_payload(res)
        _expect(payload.get("certified") is True,
                f"not certified: max_residual={payload.get('max_residual')!r}")
        _expect_code(res)
        _expect(payload["kind"] == kind, f"kind {payload['kind']!r}, want {kind!r}")
        _expect(payload["period"] is not None
                and abs(payload["period"] - period) <= rel_tol * period,
                f"period {payload['period']!r}, want {period!r}")
        _expect(0.0 <= payload["max_residual"] <= CERT_TOL,
                f"max_residual {payload['max_residual']!r} > {CERT_TOL}")

    return check


def _lines(text: str):
    """The lines of text one at a time, without a copy of the whole text."""
    start = 0
    while start < len(text):
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        yield text[start:end]
        start = end + 1


def free_delta_defect(d: int) -> Defect:
    """The free delta revival at d >= 201: detected, but not certified."""
    period = 2.0 * d

    def expect(res) -> None:
        _expect(isinstance(res, CliResult), f"raised {res!r}")
        _expect_code(res, 3)
        payload = _revival_payload(res)
        _expect(payload.get("kind") == "commensurate" and payload.get("certified") is False,
                f"kind {payload.get('kind')!r}, certified {payload.get('certified')!r}")
        _expect(isinstance(payload.get("period"), float)
                and abs(payload["period"] - period) <= 1e-8 * period,
                f"period {payload.get('period')!r}, want {period!r} within 1e-8")
        _expect(isinstance(payload.get("max_residual"), float)
                and CERT_TOL < payload["max_residual"] <= FREE_DELTA_RESIDUAL_MAX,
                f"max_residual {payload.get('max_residual')!r} outside ({CERT_TOL}, {FREE_DELTA_RESIDUAL_MAX}]")

    return Defect("revival --ham free --state delta 0 is not certified at d >= 201: the "
                  "period misses 2d by ~3e-9 relative and the residual exceeds cert_tol", expect)


def _grid(res: CliResult, d: int) -> tuple[np.ndarray, float | None]:
    """The d x d grid and the check row's value, parsed one row at a time.

    The d=1001 output is 23 MB of text; parsing it row by row keeps the
    oracle's memory peak well below the CLI's own, so that peak_rss_mb is
    set by the program.
    """
    _expect_code(res)
    labels = [str(n) for n in centered(d)]
    lines = _lines(res.out)
    _expect(next(lines, "").split(",") == ["n"] + labels, "grid header is not n,-s..s")
    grid = np.empty((d, d))
    rows = 0
    check_value = None
    for line in lines:
        _expect(check_value is None, "a line follows the check row")
        label, _, cells = line.partition(",")
        if label == "check_max_abs_diff":
            check_value = _floats(cells.split(","), "check_max_abs_diff")[0]
            continue
        _expect(rows < d and label == labels[rows], f"row {rows} is labelled {label!r}")
        row = _floats(cells.split(","), f"row {label}")
        _expect(row.size == d, f"row {label} has {row.size} values, want {d}")
        grid[rows] = row
        rows += 1
    _expect(rows == d, f"{rows} grid rows, want {d}")
    return grid, check_value


def check_wigner(d: int, reference: np.ndarray, g: np.ndarray, source: str, with_check: bool):
    """Grid against the closed form, rows summing to g(n)**2, and the --check limit."""
    top = float(np.max(np.abs(reference)))

    def check(res: CliResult) -> None:
        grid, check_value = _grid(res, d)
        if source == "theta":
            grid = grid * float(np.vdot(grid, reference) / np.vdot(grid, grid))
            tol = THETA_RTOL * top
        else:
            tol = GRID_RTOL * top
        _close(grid, reference, tol, f"{source} grid against the closed form")
        _close(grid.sum(axis=1), g * g, tol * d, "position marginal against g(n)**2")
        if with_check:
            _expect(check_value is not None and 0.0 <= check_value <= CHECK_DIFF_LIMIT * top,
                    f"check_max_abs_diff {check_value!r} outside [0, {CHECK_DIFF_LIMIT * top:.3e}]")
        else:
            _expect(check_value is None, "unrequested check row")

    return check


def check_uncertainty(ds) -> Callable[[CliResult], None]:
    """kappa=1 is self-dual: both spreads are 1/sqrt(2) and the bound 1/2 at large d."""
    half = 0.5

    def check(res: CliResult) -> None:
        rows = _table(res, ["d", "delta_q", "delta_p", "product", "half_comm", "gap"])
        _expect([r[0] for r in rows] == [str(d) for d in ds], "rows do not follow --d-list")
        for r in rows:
            dq, dp, prod, hc, gap = _floats(r[1:], f"d={r[0]}")
            _close([dq, dp], [math.sqrt(half)] * 2, UNCERTAINTY_TOL, f"d={r[0]} spreads")
            _close([prod, hc], [half, half], UNCERTAINTY_TOL, f"d={r[0]} product and bound")
            _close(gap, prod - hc, UNCERTAINTY_TOL, f"d={r[0]} gap")

    return check


def check_gauss(d: int):
    n = centered(d).astype(float)
    cols = (wrapped_reference(d, 1.0, 0.0), wrapped_reference(d, 1.0, 0.5),
            np.exp(-math.pi * n * n / d))

    def check(res: CliResult) -> None:
        rows = _table(res, ["n", "g", "g_plus", "naive"])
        _expect([r[0] for r in rows] == [str(int(k)) for k in n], "labels are not -s..s")
        for j, (name, ref) in enumerate(zip(("g", "g_plus", "naive"), cols), start=1):
            got = _floats([r[j] for r in rows], name)
            _close(got, ref, GRID_RTOL * float(np.max(ref)), f"{name} against the direct sum")

    return check


def cli_large_ops(ds=CLI_LARGE_DS, gauss_d=CLI_LARGE_GAUSS_D, repeats=CLI_LARGE_REPEATS) -> list[Op]:
    fg = importlib.import_module("finitegauss")
    jobs = []
    for d in ds:
        D = str(d)
        g = wrapped_reference(d, 1.0, 0.0)
        reference = fg.wigner_closed_form(d, 1.0).values
        jobs += repeats.get(d, 1) * [
            (("spectrum", "--d", D, "--ham", "osc"), check_spectrum_osc(d), None),
            (("spectrum", "--d", D, "--ham", "free"), check_spectrum_free(d), None),
            (("commutator", "--d", D), check_commutator(d), None),
            (("quasi", "--d", D), check_quasi(d), None),
            (("revival", "--d", D, "--ham", "free", "--state", "delta", "0"),
             check_revival("commensurate", 2.0 * d, 1e-9),
             free_delta_defect(d) if d >= 201 else None),
            (("revival", "--d", D, "--ham", "osc", "--state", "coherent", "1", "0", "--rel-tol", "1e-6"),
             check_revival("equidistant", 2.0 * math.pi, 1e-9), None),
        ] + [
            (("wigner", "--d", D, "--source", "definition"),
             check_wigner(d, reference, g, "definition", False), None),
            (("wigner", "--d", D, "--source", "closed", "--check"),
             check_wigner(d, reference, g, "closed", True), None),
            (("wigner", "--d", D, "--source", "theta"),
             check_wigner(d, reference, g, "theta", False), None),
        ]
    jobs += [
        (("uncertainty", "--d-list", ",".join(str(d) for d in ds)), check_uncertainty(ds), None),
        (("gauss", "--d", str(gauss_d)), check_gauss(gauss_d), None),
    ]
    return [Op(" ".join(argv), lambda argv=argv: run_cli(argv), check, defect)
            for argv, check, defect in jobs]


# ---------------------------------------------------------------- library

def position_spread(d: int, g: np.ndarray) -> float:
    """sqrt of (2*pi/d) sum n**2 g**2 / sum g**2: the position spread of g."""
    n2 = centered(d).astype(float) ** 2
    return math.sqrt(2.0 * math.pi / d * float(np.dot(n2 * g, g)) / float(np.dot(g, g)))


def library_analysis(fg, d: int, kappa: float, point, h, spectrum) -> dict:
    """The analysis one library user runs: wrapped sums, duality, spreads,
    two Wigner routes and the revival pipeline of a coherent state."""
    dim = fg.as_dimension(d)
    g = fg.finite_gaussian(dim, kappa)
    g_plus = fg.shifted_finite_gaussian(dim, kappa)
    fourier = fg.fourier_apply(fg.StateVector(dim, g.values.astype(complex)))
    dual = fg.finite_gaussian(dim, 1.0 / kappa)
    unc = fg.uncertainty_product(dim, kappa)
    w_def = fg.wigner_definition(dim, kappa)
    w_closed = fg.wigner_closed_form(dim, kappa)

    psi = fg.coherent_state(dim, point)
    levels, weights, _ = fg.populated_levels(spectrum, psi)
    report = fg.detect_revival(levels, weights)
    residual = fg.certify_period(h, psi, report.period, spectrum=spectrum)
    psi_t = fg.evolve(h, psi, report.period, spectrum=spectrum)
    times = np.linspace(0.0, report.period, AUTOCORR_SAMPLES)
    series = fg.autocorrelation(h, psi, times)
    return {
        "d": d, "kappa": kappa, "g": g.values, "g_plus": g_plus.values,
        "fourier": fourier.amps, "dual": dual.values, "unc": unc,
        "w_def": w_def.values, "w_closed": w_closed.values,
        "psi": psi.amps, "report": report, "residual": residual,
        "psi_t": psi_t.amps, "series": series.values,
    }


def check_library(fg, r: dict) -> None:
    d, kappa, g = r["d"], r["kappa"], r["g"]
    # g_kappa(n) + g+_kappa(n) = g_{kappa/4}(2n): the half-period lattice merged
    merged = fg.finite_gaussian(d, kappa / 4.0).value(2 * centered(d))
    _close(g + r["g_plus"], merged, GRID_RTOL * float(np.max(merged)), "g + g_plus against g_{kappa/4}(2n)")
    dual = r["dual"] / math.sqrt(kappa)
    _close(r["fourier"], dual, GRID_RTOL * float(np.max(dual)), "F g_kappa against kappa**-0.5 g_{1/kappa}")

    unc = r["unc"]
    _close([unc.delta_q, unc.delta_p], [position_spread(d, g), position_spread(d, r["dual"])],
           GRID_RTOL * max(unc.delta_q, unc.delta_p), "spreads")
    _close(unc.product, unc.delta_q * unc.delta_p, GRID_RTOL * unc.product, "product")
    _expect(unc.gap >= -UNCERTAINTY_TOL and abs(unc.gap - (unc.product - unc.half_comm)) <= UNCERTAINTY_TOL,
            f"gap {unc.gap!r} breaks product - half_comm >= 0")

    top = float(np.max(np.abs(r["w_closed"])))
    _close(r["w_def"], r["w_closed"], GRID_RTOL * top, "Wigner definition against closed form")
    _close(r["w_def"].sum(axis=1), g * g, GRID_RTOL * top * d, "position marginal against g(n)**2")

    # Low-lying oscillator levels are n + 1/2, so the revival is equidistant and its
    # period a multiple of 2*pi: 2*pi for a ladder, 4*pi for the ground state alone.
    report = r["report"]
    _expect(report.kind == "equidistant", f"revival kind {report.kind!r}, want 'equidistant'")
    turns = report.period / (2.0 * math.pi)
    _expect(round(turns) >= 1 and abs(turns - round(turns)) <= 1e-9 * turns,
            f"revival period {report.period!r} is not a multiple of 2*pi")
    _expect(0.0 <= r["residual"] <= CERT_TOL, f"certify residual {r['residual']!r} > {CERT_TOL}")
    overlap = abs(complex(np.vdot(r["psi"], r["psi_t"])))
    _close(overlap, 1.0, CERT_TOL, "|<psi|psi(T)>|")
    series = r["series"]
    _expect(series.shape == (AUTOCORR_SAMPLES,), f"autocorrelation has shape {series.shape}")
    _close(series[0], 1.0, GRID_RTOL, "autocorrelation at t = 0")
    _close(series[-1], overlap, GRID_RTOL, "autocorrelation at T against the evolved overlap")


def check_mehta(k: int):
    def check(pair) -> None:
        v, fv = pair
        _close(fv, (1j) ** k * v, GRID_RTOL * float(np.max(np.abs(v))), f"F f_{k} against i**{k} f_{k}")

    return check


def check_theta_form(reference: np.ndarray):
    top = float(np.max(np.abs(reference)))

    def check(grid) -> None:
        fit = float(np.vdot(grid.values, reference) / np.vdot(grid.values, grid.values))
        _close(grid.fitted_scale, fit, THETA_RTOL * abs(fit), "fitted_scale against the least-squares fit")
        _close(fit * grid.values, reference, THETA_RTOL * top, "scaled theta grid against the closed form")

    return check


def window_cap_defect(fg) -> Defect:
    """finite_gaussian at kappa = 1e-13: the wrapped-sum window passes _WINDOW_CAP."""

    def expect(exc) -> None:
        _expect(isinstance(exc, fg.NumericalFailureError)
                and str(exc) == "wrapped sum window did not converge",
                f"outcome {exc!r}, want NumericalFailureError from the window cap")

    return Defect("finite_gaussian at kappa = 1e-13 exceeds _WINDOW_CAP and raises", expect)


def library_rounds(ds=LIBRARY_DS, side_d: int = 101):
    """Round factory for `library`; the oscillator and its spectrum are built once per d.

    Each round runs one analysis op per kappa, covering every d with a
    seeded coherent state at each, plus the frame check, the Mehta vectors
    and the theta form.  An op spans all d so that op times cluster by
    kappa; one op per (d, kappa) would put the median on the gap between
    the d=101 and the d=301 ops, where it jumps from run to run.
    """
    fg = importlib.import_module("finitegauss")
    systems = {}
    for d in ds:
        h = fg.oscillator_hamiltonian(d)
        systems[d] = (h, fg.hermitian_eig(h))
    theta_reference = fg.wigner_closed_form(side_d, 1.0).values

    def analysis_op(kappa, points):
        def run():
            return [library_analysis(fg, d, kappa, points[d], *systems[d]) for d in ds]

        def check(results):
            for r in results:
                check_library(fg, r)

        defect = window_cap_defect(fg) if kappa < 1e-8 else None
        return Op(f"library kappa={kappa:g}", run, check, defect)

    def mehta_run():
        vectors = [fg.mehta_eigenvector(side_d, k) for k in range(7)]
        return [(v.amps, fg.fourier_apply(v).amps) for v in vectors]

    def mehta_check(pairs):
        for k, pair in enumerate(pairs):
            check_mehta(k)(pair)

    def frame_check(value):
        _expect(0.0 <= value <= FRAME_LIMIT, f"frame residual {value!r} > {FRAME_LIMIT}")

    fixed = [
        Op(f"frame_resolution_residual d={FRAME_D}", lambda: fg.frame_resolution_residual(FRAME_D),
           frame_check),
        Op(f"mehta_eigenvector d={side_d} k=0..6", mehta_run, mehta_check),
        Op(f"wigner_theta_form d={side_d}", lambda: fg.wigner_theta_form(side_d),
           check_theta_form(theta_reference)),
    ]

    def make_round(rng: random.Random) -> list[Op]:
        ops = list(fixed)
        for kappa in LIBRARY_KAPPAS:
            # Coherent labels within s/4 populate only the equidistant low levels.
            points = {d: fg.PhasePoint(rng.randint(-r, r), rng.randint(-r, r))
                      for d in ds for r in [(d - 1) // 8]}
            ops.append(analysis_op(kappa, points))
        rng.shuffle(ops)
        return ops

    return make_round


def shuffled(ops: list[Op]):
    """Round factory for a fixed op list: every round runs each op once, in seeded order."""
    return lambda rng: rng.sample(ops, len(ops))


def round_factory(workload: str):
    """Build the named workload's references and return its round factory."""
    if workload == "cli-large":
        return shuffled(cli_large_ops())
    if workload == "library":
        return library_rounds()
    raise ValueError(f"unknown workload {workload!r}")
