"""The public surface that other code runs: the README's library tour and the calls the benchmark binds."""
import inspect
import re
from pathlib import Path

import finitegauss as fg

README = Path(__file__).resolve().parent.parent / "README.md"


def parameters(fn) -> list:
    return list(inspect.signature(fn).parameters)


def test_readme_library_tour_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_benchmark_bindings():
    # perfbench/tracer.py binds these signatures and reads the arguments named "m", "residual_tol",
    # "dim" and "spectrum"; perfbench/workloads.py passes spectrum= by keyword and unpacks three values.
    # A change to any of them is a benchmark change, and this test changes with it.
    assert parameters(fg.hermitian_eig) == ["m", "residual_tol"]
    assert parameters(fg.certify_period) == ["h", "psi", "period", "spectrum"]
    assert parameters(fg.evolve) == ["h", "psi", "t", "spectrum"]
    assert parameters(fg.autocorrelation) == ["h", "psi", "times", "spectrum"]
    assert parameters(fg.populated_levels) == ["spectrum", "psi"]
    for wrapped_sum in (fg.finite_gaussian, fg.shifted_finite_gaussian, fg.alternating_wrapped_sum):
        assert parameters(wrapped_sum)[0] == "dim"
    assert parameters(fg.mehta_eigenvector) == ["dim", "k"]

    h = fg.oscillator_hamiltonian(9)
    levels, weights, _ = fg.populated_levels(fg.hermitian_eig(h), fg.coherent_state(9, fg.PhasePoint(1, 0)))
    assert levels.shape == weights.shape
