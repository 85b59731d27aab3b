"""The six value types that hold arrays keep them by one rule: no one can write the stored arrays,
and the caller's own arrays are left as they were."""
import numpy as np
import pytest

from finitegauss import (
    Dimension,
    FiniteGaussian,
    OperatorMatrix,
    PhasePoint,
    QuasiEigenReport,
    Spectrum,
    StateVector,
    TimeSeries,
    autocorrelation,
    coherent_state,
    evolve,
    finite_gaussian,
    fourier_apply,
    hermitian_eig,
    oscillator_hamiltonian,
    quasi_eigen_residual,
)

DIM = Dimension(5)

# name -> (the caller's arrays, the value built from them, its stored arrays)
BUILDS = {
    "StateVector": (lambda: [np.arange(5.0) + 1j], lambda a: StateVector(DIM, a), lambda v: [v.amps]),
    "OperatorMatrix": (lambda: [np.eye(5)], lambda a: OperatorMatrix(DIM, a), lambda v: [v.entries]),
    "Spectrum": (
        lambda: [np.arange(5.0), np.eye(5)],
        lambda vals, vecs: Spectrum(DIM, vals, vecs, 0.0),
        lambda v: [v.eigenvalues, v.eigenvectors],
    ),
    "FiniteGaussian": (lambda: [np.ones(5)], lambda a: FiniteGaussian(DIM, 1.0, False, a), lambda v: [v.values]),
    "QuasiEigenReport": (lambda: [np.zeros(5)], lambda a: QuasiEigenReport(DIM, 0.5, a), lambda v: [v.residual]),
    "TimeSeries": (lambda: [np.linspace(0.0, 1.0, 4), np.ones(4)], TimeSeries, lambda v: [v.times, v.values]),
}


def assert_frozen(a: np.ndarray) -> None:
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a.setflags(write=True)


@pytest.mark.parametrize("name", list(BUILDS))
def test_stored_arrays_cannot_be_thawed_and_the_callers_stay_as_they_were(name):
    make, build, stored = BUILDS[name]
    given = make()
    before = [a.copy() for a in given]
    value = build(*given)
    for a in stored(value):
        assert_frozen(a)
    for a, b in zip(given, before):
        assert a.flags.writeable and np.array_equal(a, b)
        a[...] = 7.0  # the caller writes its own array; the value keeps what it was given
    for a, b in zip(stored(value), before):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("name", list(BUILDS))
def test_a_stored_array_handed_on_is_kept_as_it_is(name):
    make, build, stored = BUILDS[name]
    first = build(*make())
    again = build(*stored(first))
    assert all(a is b for a, b in zip(stored(again), stored(first)))


def test_builders_hand_over_arrays_that_cannot_be_thawed():
    h = oscillator_hamiltonian(DIM)
    psi = coherent_state(DIM, PhasePoint(1, 0))
    spec = hermitian_eig(h)
    for a in (
        psi.amps,
        psi.normalized().amps,
        fourier_apply(psi).amps,
        h.apply(psi).amps,
        evolve(h, psi, 0.5).amps,
        h.entries,
        spec.eigenvalues,
        spec.eigenvectors,
        finite_gaussian(DIM, 1.0).values,
        quasi_eigen_residual(DIM).residual,
        autocorrelation(h, psi, [0.0, 1.0]).times,
        autocorrelation(h, psi, [0.0, 1.0]).values,
    ):
        assert_frozen(a)
