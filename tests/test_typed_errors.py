"""Typed errors that no other test raises: each with its type and its message."""
import math

import numpy as np
import pytest

from finitegauss import (
    Dimension,
    DimensionMismatchError,
    InvalidDimensionError,
    InvalidParameterError,
    KindMismatchError,
    NumericalFailureError,
    OperatorMatrix,
    PhasePoint,
    StateVector,
    ThetaKind,
    alternating_wrapped_sum,
    commutator_qp,
    detect_revival,
    evolve,
    finite_gaussian,
    hermitian_eig,
    mehta_eigenvector,
    oscillator_hamiltonian,
    theta,
    uncertainty_product,
    wigner_definition,
)
from finitegauss import hilbert, spectral, wigner, wrapped
from finitegauss.cli import main


class TestFiniteAndPositive:
    """One check serves the four parameters that must be finite and positive; each keeps its message."""

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_kappa(self, bad):
        with pytest.raises(InvalidParameterError, match=rf"^kappa must be finite and positive, got {bad}$"):
            finite_gaussian(5, bad)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_theta_t(self, bad):
        with pytest.raises(InvalidParameterError, match=rf"^t must be finite and positive, got {bad}$"):
            theta(ThetaKind.THETA3, 0.25, bad)

    def test_theta_checks_z_before_t(self):
        with pytest.raises(InvalidParameterError, match="^z must be finite"):
            theta(ThetaKind.THETA3, math.nan, -1.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_residual_tol(self, bad):
        with pytest.raises(InvalidParameterError, match=rf"^residual_tol must be finite and positive, got {bad}$"):
            hermitian_eig(oscillator_hamiltonian(5), residual_tol=bad)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rel_tol(self, bad):
        with pytest.raises(InvalidParameterError, match=rf"^rel_tol must be finite and positive, got {bad}$"):
            detect_revival([1.0, 2.0], [0.5, 0.5], rel_tol=bad)


class TestCliUsage:
    """Parameter errors of the CLI exit 2 with one line on stderr."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["uncertainty", "--d-list", ","], "--d-list must name at least one lattice size"),
            (["revival", "--d", "5", "--state", "gauss", "1"], "state gauss takes no arguments"),
            (["revival", "--d", "5", "--state", "coherent", "a", "0"], "coherent labels must be integers: "),
            (["revival", "--d", "5", "--state", "delta"], "state delta needs one integer: n"),
            (["revival", "--d", "5", "--state", "delta", "x"], "delta position must be an integer: "),
        ],
        ids=["empty-d-list", "gauss-arity", "coherent-label", "delta-arity", "delta-label"],
    )
    def test_exits_2_with_the_message(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


class TestLibrary:
    def test_evolve_refuses_a_generator_that_is_not_hermitian(self):
        psi = StateVector(Dimension(5), np.eye(5)[2])
        with pytest.raises(KindMismatchError, match="^evolution needs a hermitian generator, got general$"):
            evolve(commutator_qp(5), psi, 1.0)

    def test_evolve_refuses_a_generator_on_another_lattice(self):
        psi = StateVector(Dimension(5), np.eye(5)[2])
        with pytest.raises(DimensionMismatchError, match="^state and generator live on different lattices$"):
            evolve(oscillator_hamiltonian(7), psi, 1.0)

    def test_state_with_a_nan(self):
        with pytest.raises(InvalidParameterError, match="^amplitudes must be finite$"):
            StateVector(Dimension(3), [1.0, math.nan, 0.0])

    def test_operator_of_the_wrong_shape(self):
        with pytest.raises(DimensionMismatchError, match=r"^matrix has shape \(2, 2\), lattice needs \(3, 3\)$"):
            OperatorMatrix(Dimension(3), np.eye(2))

    def test_phase_point_label_that_is_not_an_integer(self):
        with pytest.raises(InvalidParameterError, match=r"^alpha must be an integer, got 1\.5$"):
            PhasePoint(1.5, 0)

    def test_mehta_order_that_is_not_an_integer(self):
        with pytest.raises(InvalidParameterError, match=r"^order k must be an integer, got 2\.0$"):
            mehta_eigenvector(9, 2.0)

    def test_dimension_that_is_not_an_integer(self):
        with pytest.raises(InvalidDimensionError, match=r"^lattice size must be an integer, got 3\.0$"):
            Dimension(3.0)

    def test_alternating_sum_at_an_argument_that_is_not_an_integer(self):
        with pytest.raises(InvalidParameterError, match="^argument n must be integer-valued$"):
            alternating_wrapped_sum(5, 1.0, 0.5)


class TestChecksThatFire:
    """Each numerical check raises its NumericalFailureError once its limit is moved past what it measures."""

    def test_wrapped_sum_window_cap(self, monkeypatch):
        monkeypatch.setattr(wrapped, "_WINDOW_CAP", 0)
        with pytest.raises(NumericalFailureError, match="^wrapped sum window did not converge$"):
            finite_gaussian(31, 1.0)

    def test_theta_series_window_cap(self, monkeypatch):
        monkeypatch.setattr(wrapped, "_WINDOW_CAP", 0)
        with pytest.raises(NumericalFailureError, match="^theta series window did not converge$"):
            theta(ThetaKind.THETA3, 0.25, 0.01)

    def test_mehta_window_cap(self, monkeypatch):
        monkeypatch.setattr(hilbert, "_WINDOW_CAP", 0)
        with pytest.raises(NumericalFailureError, match="^periodized sum window did not converge$"):
            mehta_eigenvector(9, 0)

    def test_half_commutator_cross_check(self, monkeypatch):
        monkeypatch.setattr(spectral, "HALF_COMM_CROSS_TOL", -1.0)
        with pytest.raises(NumericalFailureError, match="^pair-sum and quadratic-form commutator expectations disagree: "):
            uncertainty_product(9, 1.0)

    def test_wigner_realness(self, monkeypatch):
        monkeypatch.setattr(wigner, "REALNESS_TOL", -1.0)
        with pytest.raises(NumericalFailureError, match="^Wigner grid of an even state has imaginary residue ") as err:
            wigner_definition(9, 1.0)
        assert err.value.residual >= 0.0
