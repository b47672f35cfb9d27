"""Spectral kernel contracts against eigendecomposition oracles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramsey_toolkit import (DiagnosticsConfig, PowerIterationError,
                            SeedSchedule, build_accumulator, encode_operator,
                            exp_witness, hadamard_test, log_trace_exp,
                            lyapunov_rate, mat_exp, phase_estimate_dilation,
                            spectral_norm)
from ramsey_toolkit.spectral import log_trace_exp_grid


def random_diagonalizable(rng, d: int, complex_valued: bool = False):
    """Well-conditioned eigenbasis with known eigenvalues: the oracle pair."""
    if complex_valued:
        basis = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        eigenvalues = rng.normal(size=d) + 1j * rng.normal(size=d)
    else:
        basis = rng.normal(size=(d, d))
        eigenvalues = rng.normal(size=d)
    q = np.linalg.qr(basis)[0]
    # A mild non-orthogonal mixing keeps the test honest without blowing up
    # the conditioning.
    mix = np.eye(d) + 0.3 * rng.normal(size=(d, d)) / np.sqrt(d)
    vecs = q @ mix
    matrix = vecs @ np.diag(eigenvalues) @ np.linalg.inv(vecs)
    return matrix, vecs, eigenvalues


class TestMatExp:
    def test_nilpotent_exact(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(mat_exp(m), [[1.0, 1.0], [0.0, 1.0]], atol=1e-14)

    def test_against_eigen_oracle(self):
        rng = np.random.default_rng(7)
        for d in (2, 5, 9):
            for complex_valued in (False, True):
                matrix, vecs, eigenvalues = random_diagonalizable(
                    rng, d, complex_valued)
                oracle = vecs @ np.diag(np.exp(eigenvalues)) @ np.linalg.inv(vecs)
                got = mat_exp(matrix)
                assert np.abs(got - oracle).max() <= 1e-9 * max(
                    1.0, np.abs(oracle).max())

    def test_against_series_oracle_small_norm(self):
        rng = np.random.default_rng(3)
        a = 0.05 * rng.normal(size=(6, 6))
        term = np.eye(6)
        series = np.eye(6)
        for k in range(1, 30):
            term = term @ a / k
            series = series + term
        assert np.abs(mat_exp(a) - series).max() < 1e-14

    def test_large_norm_scaling(self):
        rng = np.random.default_rng(11)
        matrix, vecs, eigenvalues = random_diagonalizable(rng, 5)
        scaled = 40.0 * matrix
        oracle = vecs @ np.diag(np.exp(40.0 * eigenvalues)) @ np.linalg.inv(vecs)
        rel = np.abs(mat_exp(scaled) - oracle).max() / np.abs(oracle).max()
        assert rel < 1e-8

    def test_zero_matrix_trace_is_dimension(self):
        for d in (1, 3, 8):
            assert np.trace(mat_exp(np.zeros((d, d)))) == pytest.approx(d)

    def test_rejects_non_square_and_non_finite(self):
        with pytest.raises(ValueError):
            mat_exp(np.ones((2, 3)))
        with pytest.raises(ValueError):
            mat_exp(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @given(st.integers(min_value=1, max_value=6), st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_commuting_product_identity(self, d, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(d, d)) * 0.5
        b = 0.3 * a @ a + 0.7 * a
        lhs = mat_exp(a) @ mat_exp(b)
        rhs = mat_exp(a + b)
        assert np.abs(lhs - rhs).max() <= 1e-8 * max(1.0, np.abs(rhs).max())


# Every entry point that takes a matrix, with the argument name its error
# must carry.  Each one validates through the same check, so a NaN or an
# infinity is a ValueError before any LAPACK call sees it.
MATRIX_ENTRY_POINTS = {
    "mat_exp": ("M", mat_exp),
    "spectral_norm": ("A", spectral_norm),
    "exp_witness": ("A", lambda m: exp_witness(m, 0.5)),
    "lyapunov_rate": ("A", lambda m: lyapunov_rate(m, 0.5)),
    "encode_operator": ("F", encode_operator),
    "phase_estimate_dilation": (
        "A", lambda m: phase_estimate_dilation(m, 3, 0.1, seed=0)),
    "hadamard_test": ("U", lambda m: hadamard_test(m, [1.0, 0.0])),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("entry", sorted(MATRIX_ENTRY_POINTS))
def test_non_finite_entry_is_a_value_error(entry, bad):
    name, call = MATRIX_ENTRY_POINTS[entry]
    m = np.eye(2)
    m[0, 1] = bad
    with pytest.raises(ValueError, match=rf"^{name} contains non-finite"):
        call(m)


class TestSpectralNorm:
    def test_matches_svd(self):
        rng = np.random.default_rng(13)
        for shape in ((5, 5), (3, 7), (8, 2)):
            a = rng.normal(size=shape)
            top = np.linalg.svd(a, compute_uv=False)[0]
            assert spectral_norm(a, tol=1e-12, max_iter=5000) == pytest.approx(
                top, rel=1e-8)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 4))) == 0.0

    def test_non_convergence_reports_last_estimate(self):
        rng = np.random.default_rng(17)
        a = rng.normal(size=(6, 6))
        with pytest.raises(PowerIterationError) as excinfo:
            spectral_norm(a, tol=1e-14, max_iter=1)
        assert excinfo.value.last_estimate > 0.0

    def test_sign_symmetric_spectrum_converges(self):
        # The dilation's +/- pairs defeat a single-step iteration; the
        # double step must still converge here.
        a = np.diag([3.0, 1.0])
        assert spectral_norm(a) == pytest.approx(3.0, rel=1e-6)


def test_spectral_norm_tol_bounds_default_ensemble():
    # The default sweep's accumulators (d=24, k=400, ten seeds, n=43..46)
    # converge slowly, so successive estimates can agree to 1e-10 while
    # both sit 1e-9 below the top eigenvalue; tol must bound the error.
    config = DiagnosticsConfig(d=24, k=400)
    schedule = SeedSchedule()
    for n in (43, 44, 45, 46):
        for seed in config.seeds:
            accumulator = build_accumulator(
                schedule.batch(config.d, config.k, seed, n))
            top = np.linalg.eigvalsh(accumulator)[-1]
            assert spectral_norm(accumulator, tol=1e-10,
                                 max_iter=2000) == pytest.approx(top, rel=1e-12)


class TestLogTraceExp:
    def test_matches_direct_sum_in_float_range(self):
        lam = np.array([0.5, 1.0, 2.5])
        for alpha in (0.0, 1.0, 10.0):
            direct = np.log10(np.exp(-alpha * lam).sum())
            assert log_trace_exp(lam, alpha) == pytest.approx(direct, abs=1e-12)

    def test_deep_underflow_domain(self):
        lam = np.array([100.0, 120.0, 150.0])
        alpha = 100.0
        # Dominated by the smallest eigenvalue: log10(e^-10000 (1 + ...)).
        expected = -alpha * 100.0 / np.log(10.0)
        got = log_trace_exp(lam, alpha)
        assert got == pytest.approx(expected, abs=1e-6)
        assert got < -4000.0

    def test_validation(self):
        with pytest.raises(ValueError):
            log_trace_exp([], 1.0)
        with pytest.raises(ValueError):
            log_trace_exp([1.0], -0.5)


class TestLogTraceExpGrid:
    """The stacked pass against a loop of single log_trace_exp calls."""

    @staticmethod
    def _assert_matches_calls(spectra, alphas):
        grid = log_trace_exp_grid(spectra, alphas)
        calls = np.array([[log_trace_exp(lam, alpha) for alpha in alphas]
                          for lam in spectra])
        assert grid.shape == calls.shape
        assert (grid == calls).all()
        return grid

    def test_psd_spectra(self):
        config = DiagnosticsConfig(d=24, k=400)
        schedule = SeedSchedule()
        spectra = np.linalg.eigvalsh(np.stack([
            build_accumulator(schedule.batch(24, 400, seed, n))
            for seed in config.seeds for n in (43, 46)]))
        self._assert_matches_calls(spectra, (0.0, *config.alpha_grid, 300.0))

    def test_complex_spectra(self):
        rng = np.random.default_rng(17)
        spectra = np.linalg.eigvals(rng.normal(size=(6, 9, 9)))
        assert np.abs(spectra.imag).max() > 0.1
        self._assert_matches_calls(spectra, (0.0, 0.3, 1.0, 2.5, 40.0))

    def test_sum_underflowing_to_minus_infinity(self):
        # At alpha = 1 the four terms are 1, 1, e^{i pi} and e^{-i pi}, whose
        # rounded values cancel exactly; other alphas leave a finite sum.
        spectra = np.array([[0.0, 0.0, -1j * np.pi, 1j * np.pi],
                            [0.0, 1.0, 2.0, 3.0]])
        grid = self._assert_matches_calls(spectra, (0.5, 1.0, 2.0))
        assert grid[0, 1] == float("-inf")
        assert np.isfinite(np.delete(grid, 1, axis=1)).all()
        assert np.isfinite(grid[1]).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            log_trace_exp_grid(np.zeros((3, 0)), (1.0,))
        with pytest.raises(ValueError):
            log_trace_exp_grid([[1.0, 2.0]], ())
        with pytest.raises(ValueError):
            log_trace_exp_grid([[1.0, 2.0]], (1.0, -0.5))
