"""Revival structure of free and oscillator evolution on one lattice.

Runs detection end to end for a few initial states, prints the report
line plus the certification residual and whether it meets CERT_TOL,
the limit the CLI certifies against, and samples the autocorrelation over
one detected period so the recurrence is visible as numbers.

Usage: python scripts/revival_demo.py [d]
"""
import sys

import numpy as np

from finitegauss import (
    Dimension,
    PhasePoint,
    StateVector,
    autocorrelation,
    certify_period,
    coherent_state,
    detect_revival,
    finite_gaussian,
    free_hamiltonian,
    free_spectrum,
    hermitian_eig,
    oscillator_hamiltonian,
    populated_levels,
)
from finitegauss.dynamics import CERT_TOL


def delta_state(dim: Dimension, n: int) -> StateVector:
    amps = np.zeros(dim.d, dtype=complex)
    amps[dim.offset(n)] = 1.0
    return StateVector(dim, amps)


def demo(label, h, spec, psi, rel_tol=1e-9):
    levels, weights, mask = populated_levels(spec, psi)
    rep = detect_revival(levels, weights, rel_tol=rel_tol)
    print(f"{label}: {int(mask.sum())} populated levels -> kind={rep.kind}", end="")
    if rep.period is None:
        print(" (no certified period)")
        return
    residual = certify_period(h, psi, rep.period, spectrum=spec)
    verdict = "certified" if residual <= CERT_TOL else "NOT certified"
    print(f" period={rep.period:.9f} m={rep.m} certify_residual={residual:.2e} {verdict}")
    times = np.linspace(0.0, rep.period, 9)
    series = autocorrelation(h, psi, times, spectrum=spec)
    samples = "  ".join(f"{v:.6f}" for v in series.values)
    print(f"    |autocorr| over one period: {samples}")


def main(d: int = 31) -> int:
    dim = Dimension(d)
    free, osc = free_hamiltonian(dim), oscillator_hamiltonian(dim)
    free_spec, osc_spec = free_spectrum(free), hermitian_eig(osc)  # the free one in closed form
    g = finite_gaussian(dim, 1.0)
    gauss = StateVector(dim, g.values.astype(complex)).normalized()

    demo(f"free d={d}, delta(0)", free, free_spec, delta_state(dim, 0))
    demo(f"free d={d}, delta(1)", free, free_spec, delta_state(dim, 1))
    demo(f"osc  d={d}, gauss", osc, osc_spec, gauss)
    demo(f"osc  d={d}, coherent(1,0)", osc, osc_spec, coherent_state(dim, PhasePoint(1, 0)), rel_tol=1e-6)
    demo(f"osc  d={d}, coherent(2,0)", osc, osc_spec, coherent_state(dim, PhasePoint(2, 0)), rel_tol=1e-6)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 31))
