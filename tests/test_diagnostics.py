"""Projector diagnostics: closed forms, witnesses, embeddings, decisions."""

from __future__ import annotations

import dataclasses
import errno
import math
import os
import re
import signal
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramsey_toolkit import _pool
from ramsey_toolkit import (ConstraintRestricted, DecisionThresholds,
                            DiagnosticsConfig, DirectionBatch,
                            MissProbabilityModel, SeedSchedule,
                            build_accumulator, chernoff_miss, control_record,
                            decide_critical, deflation_mc,
                            deflation_probability, diagnostics, exp_witness,
                            format_value, linear_witness,
                            load_control_coloring, lyapunov_rate,
                            mean_field_trace, miss_probability,
                            run_diagnostics, sample_directions, slope_fit,
                            spectral_norm)

from conftest import claim_cores


class TestClosedForms:
    def test_miss_probability_values(self):
        assert miss_probability(MissProbabilityModel(k=100, r=1, d=24)) == \
            pytest.approx(math.exp(-100 / 24))
        assert miss_probability(MissProbabilityModel(k=400, r=1, d=24)) == \
            pytest.approx(math.exp(-400 / 24))

    def test_miss_probability_validation(self):
        with pytest.raises(ValueError):
            MissProbabilityModel(k=10, r=0, d=24)
        with pytest.raises(ValueError):
            MissProbabilityModel(k=10, r=25, d=24)
        with pytest.raises(ValueError):
            MissProbabilityModel(k=0, r=1, d=24)

    def test_chernoff_factor_two_exponent_at_rank_one(self):
        # At r = 1 the concentration bound is exactly the square root of the
        # first-moment bound: the exponent halves.
        model = MissProbabilityModel(k=100, r=1, d=24)
        assert chernoff_miss(model) == pytest.approx(
            math.sqrt(miss_probability(model)), rel=1e-12)

    def test_chernoff_regime_validation(self):
        # delta <= 0 once r - 1 >= k r / d.
        with pytest.raises(ValueError):
            chernoff_miss(MissProbabilityModel(k=1, r=3, d=3))

    def test_chernoff_printed_variant_differs(self):
        model = MissProbabilityModel(k=100, r=4, d=24)
        table = chernoff_miss(model)
        printed = chernoff_miss(model, variant="printed")
        assert table == pytest.approx(3.69e-3, rel=0.01)
        assert printed == pytest.approx(
            math.exp(-(100 * 4 / 48) * (1 - 3 / 100) ** 2), rel=1e-12)
        assert abs(printed / table - 1.0) > 0.5

    def test_mean_field_trace_log_domain(self):
        assert mean_field_trace(24, 100, 0.0) == pytest.approx(math.log10(24))
        assert 10.0 ** mean_field_trace(32, 180, 40.0) == pytest.approx(
            6.15e-97, rel=5e-3)

    def test_deflation_probability(self):
        assert deflation_probability(24, 100) == pytest.approx(
            (23 / 24) ** 100, rel=1e-12)
        assert deflation_probability(24, 0) == 1.0

    def test_deflation_mc_three_sigma(self):
        estimate, std_error = deflation_mc(24, 100, trials=4000, seed=5)
        assert std_error > 0.0
        assert abs(estimate - deflation_probability(24, 100)) <= 3 * std_error

    def test_deflation_mc_deterministic(self):
        assert deflation_mc(16, 40, 500, seed=9) == deflation_mc(
            16, 40, 500, seed=9)

    def test_deflation_mc_zero_steps(self):
        assert deflation_mc(8, 0, 100, seed=1) == (1.0, 0.0)

    @pytest.mark.parametrize("d, k", [(4, 3), (24, 100), (32, 220)])
    def test_deflation_mc_exact_moments(self, d, k):
        # prod_j (1 - B_j) with B_j ~ Beta(1/2, (d-1)/2) has raw moments
        # E[R^m] = (prod_{i<m} (d - 1 + 2i) / (d + 2i))^k.
        trials = 20_000
        estimate, std_error = deflation_mc(d, k, trials, seed=d * k)
        m1, m2, m4 = (_residual_moment(d, k, m) for m in (1, 2, 4))
        assert abs(estimate - m1) <= 4 * std_error
        second = std_error ** 2 * (trials - 1) + estimate ** 2
        assert abs(second - m2) <= 4 * math.sqrt((m4 - m2 ** 2) / trials)

    def test_deflation_mc_matches_geometric_route(self):
        d, k, trials = 5, 4, 4000
        geometric = _geometric_residuals(d, k, trials, seed=3)
        estimate, std_error = deflation_mc(d, k, trials, seed=4)
        variance = std_error ** 2 * trials
        mean_se = math.sqrt(geometric.var(ddof=1) / trials + std_error ** 2)
        assert abs(geometric.mean() - estimate) <= 4 * mean_se
        centred = geometric - geometric.mean()
        var_se = math.sqrt(2 * (np.mean(centred ** 4) - geometric.var() ** 2)
                           / trials)
        assert abs(geometric.var(ddof=1) - variance) <= 4 * var_se


class TestDeflationStreams:
    """deflation_mc against a serial fill of the same two spawned streams."""

    @pytest.mark.parametrize("d, k, trials", [
        (8, 1, 2), (8, 5, 3), (12, 16, 3), (12, 17, 2), (5, 33, 2001),
        (24, 100, 2000), (32, 220, 2001)])
    def test_bitwise_equal_to_serial_reference(self, d, k, trials):
        assert deflation_mc(d, k, trials, seed=d + k) == \
            _serial_deflation(d, k, trials, seed=d + k)

    @pytest.mark.parametrize("trials", [2, 3, 2001])
    def test_zero_steps(self, trials):
        assert deflation_mc(16, 0, trials, seed=7) == (1.0, 0.0)

    def test_repeated_calls(self):
        expected = _serial_deflation(16, 40, 501, seed=9)
        for _ in range(5):
            assert deflation_mc(16, 40, 501, seed=9) == expected

    def test_concurrent_calls_match_reference(self):
        # Four callers at once, each with its own helper, under a short
        # switch interval: every result is still the serial one.
        results = {}

        def call(seed):
            results[seed] = deflation_mc(16, 40, 501, seed=seed)

        callers = [threading.Thread(target=call, args=(seed,))
                   for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert results == {seed: _serial_deflation(16, 40, 501, seed=seed)
                           for seed in range(4)}

    def test_helper_failure_is_raised(self, monkeypatch):
        class HelperFailure(RuntimeError):
            pass

        fill = diagnostics._deflate_share

        def failing(*args):
            if threading.current_thread() is not threading.main_thread():
                raise HelperFailure("helper share failed")
            fill(*args)

        baseline = threading.active_count()
        monkeypatch.setattr(diagnostics, "_deflate_share", failing)
        with pytest.raises(HelperFailure):
            deflation_mc(24, 100, 2000, seed=1)
        assert threading.active_count() == baseline

    def test_caller_failure_joins_helper(self, monkeypatch):
        fill = diagnostics._deflate_share
        helper_done = []

        def failing(*args):
            if threading.current_thread() is threading.main_thread():
                raise KeyError("caller share failed")
            fill(*args)
            helper_done.append(True)

        baseline = threading.active_count()
        monkeypatch.setattr(diagnostics, "_deflate_share", failing)
        with pytest.raises(KeyError):
            deflation_mc(24, 100, 2000, seed=1)
        assert helper_done == [True]
        assert threading.active_count() == baseline


def _serial_deflation(d: int, k: int, trials: int,
                      seed: int) -> tuple[float, float]:
    """Reference: fill share 0, then share 1, each from its spawned stream.

    Each share draws the normals, then the gammas, of up to 16 steps at a
    time, and multiplies the factors of a block together row by row before
    they meet the residuals.
    """
    sizes = [len(part) for part in np.array_split(np.empty(trials), 2)]
    parts = []
    for size, stream in zip(sizes, np.random.SeedSequence(seed).spawn(2)):
        rng = np.random.default_rng(stream)
        residuals = np.ones(size)
        for start in range(0, k, 16):
            steps = min(16, k - start)
            z = rng.standard_normal((steps, size))
            chi = 2.0 * rng.standard_gamma(0.5 * (d - 1), (steps, size))
            factors = chi / (z * z + chi)
            fold = factors[0].copy()
            for row in factors[1:]:
                fold *= row
            residuals *= fold
        parts.append(residuals)
    residuals = np.concatenate(parts)
    return (float(residuals.mean()),
            float(residuals.std(ddof=1) / math.sqrt(trials)))


def _residual_moment(d: int, k: int, m: int) -> float:
    return math.prod((d - 1 + 2 * i) / (d + 2 * i) for i in range(m)) ** k


def _geometric_residuals(d: int, k: int, trials: int, seed: int) -> np.ndarray:
    """Reference route: deflate unit targets by k explicit unit directions."""
    rng = np.random.default_rng(seed)
    targets = rng.normal(size=(trials, d))
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    for _ in range(k):
        directions = rng.normal(size=(trials, d))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        overlaps = np.einsum("td,td->t", targets, directions)
        targets -= overlaps[:, None] * directions
    return np.einsum("td,td->t", targets, targets)


class TestDirections:
    def test_sample_shape_and_norms(self):
        batch = sample_directions(24, 100, 42)
        assert batch.vectors.shape == (100, 24)
        assert np.allclose(np.linalg.norm(batch.vectors, axis=1), 1.0,
                           atol=1e-12)

    def test_matches_seeded_gaussian_recipe(self):
        g = np.random.default_rng(42).normal(loc=0.0, scale=1.0,
                                             size=(100, 24))
        expected = g / np.linalg.norm(g, axis=1, keepdims=True)
        assert np.array_equal(sample_directions(24, 100, 42).vectors, expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_directions(1, 5, 0)
        with pytest.raises(ValueError):
            sample_directions(5, 0, 0)
        with pytest.raises(ValueError):
            DirectionBatch(d=4, k=2, seed=0, vectors=np.zeros((3, 4)))

    def test_accumulator_trace_and_psd(self):
        batch = sample_directions(24, 100, 11)
        acc = build_accumulator(batch)
        assert np.trace(acc) == pytest.approx(100.0, abs=1e-10)
        assert np.abs(acc - acc.T).max() == 0.0
        assert np.linalg.eigvalsh(acc).min() >= -1e-10

    def test_accumulator_empty_batch(self):
        empty = DirectionBatch(d=5, k=0, seed=0, vectors=np.zeros((0, 5)))
        assert np.array_equal(build_accumulator(empty), np.zeros((5, 5)))


class TestWitnesses:
    def test_linear_witness_empty_and_single(self):
        empty = DirectionBatch(d=6, k=0, seed=0, vectors=np.zeros((0, 6)))
        assert linear_witness(empty) == (6.0, 1.0, 0.0)
        single = sample_directions(6, 1, 3)
        trace, min_re, max_im = linear_witness(single)
        assert trace == pytest.approx(5.0, abs=1e-12)
        assert min_re == pytest.approx(0.0, abs=1e-12)
        assert max_im == pytest.approx(0.0, abs=1e-10)

    def test_linear_witness_mean_over_seeds(self):
        # E[Tr of the ordered product] is exactly d (1 - 1/d)^k by
        # independence; check the seed mean lands within a loose CLT band.
        d, k = 16, 60
        values = [linear_witness(sample_directions(d, k, s))[0]
                  for s in range(40)]
        expected = d * (1 - 1 / d) ** k
        assert np.mean(values) == pytest.approx(expected, abs=0.12)

    @given(st.integers(min_value=2, max_value=8),
           st.integers(min_value=0, max_value=12),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_linear_witness_trace_bounded(self, d, k, seed):
        if k == 0:
            batch = DirectionBatch(d=d, k=0, seed=0, vectors=np.zeros((0, d)))
        else:
            batch = sample_directions(d, k, seed)
        trace, _, _ = linear_witness(batch)
        assert -d - 1e-9 <= trace <= d + 1e-9

    def test_exp_witness_log_domain_consistency(self):
        batch = sample_directions(12, 30, 7)
        acc = build_accumulator(batch)
        for alpha in (0.0, 0.5, 2.0):
            direct = np.log10(np.trace(
                _expm_oracle(-alpha * acc)).real)
            assert exp_witness(acc, alpha) == pytest.approx(direct, abs=1e-9)

    def test_exp_witness_monotone_collapse(self):
        acc = build_accumulator(sample_directions(24, 100, 23))
        alphas = (0.0, 1.0, 3.0, 10.0, 40.0)
        values = [exp_witness(acc, a) for a in alphas]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_lyapunov_examples(self):
        assert lyapunov_rate(2.5 * np.eye(7), 3.0) == pytest.approx(2.5)
        acc = build_accumulator(sample_directions(24, 100, 42))
        assert lyapunov_rate(acc, 0.0) == pytest.approx(100 / 24)
        assert lyapunov_rate(np.diag([1.0, 2.0]), 1.0) == pytest.approx(
            (math.exp(-1) + 2 * math.exp(-2)) / (math.exp(-1) + math.exp(-2)))

    def test_lyapunov_large_alpha_finite(self):
        acc = build_accumulator(sample_directions(24, 400, 11))
        rate = lyapunov_rate(acc, 500.0)
        assert math.isfinite(rate)
        assert rate == pytest.approx(np.linalg.eigvalsh(acc).min(), rel=1e-6)

    def test_slope_fit_exact_affine(self):
        alphas = [1.0, 2.0, 4.0, 8.0]
        traces = [3.0 - 1.7 * a for a in alphas]
        assert slope_fit(alphas, traces) == pytest.approx(-1.7, abs=1e-12)

    def test_slope_fit_validation(self):
        with pytest.raises(ValueError):
            slope_fit([1.0], [2.0])
        with pytest.raises(ValueError):
            slope_fit([2.0, 2.0], [1.0, 2.0])


def _expm_oracle(m: np.ndarray) -> np.ndarray:
    eigenvalues, vectors = np.linalg.eigh(m)
    return vectors @ np.diag(np.exp(eigenvalues)) @ vectors.conj().T


def _reference_deflation(vectors: np.ndarray) -> np.ndarray:
    """The ordered products of a (S, k, d) stack, one direction at a time."""
    stack, k, d = vectors.shape
    p = np.tile(np.eye(d), (stack, 1, 1))
    for j in range(k):
        v = vectors[:, j, :]
        p -= (p @ v[:, :, None]) * v[:, None, :]
    return p


def _reference_witnesses(vectors: np.ndarray):
    p = _reference_deflation(vectors)
    eigenvalues = np.linalg.eigvals(p)
    return (np.trace(p, axis1=1, axis2=2), eigenvalues.real.min(axis=1),
            np.abs(eigenvalues.imag).max(axis=1))


@st.composite
def _direction_counts(draw):
    """(d, k) with k empty, short of one block, whole blocks or ragged."""
    d = draw(st.integers(min_value=2, max_value=30))
    shape = draw(st.sampled_from(("empty", "short", "whole", "ragged")))
    if shape == "empty":
        return d, 0
    if shape == "short":
        return d, draw(st.integers(min_value=1, max_value=d - 1))
    blocks = draw(st.integers(min_value=1, max_value=4))
    if shape == "whole":
        return d, blocks * d
    return d, blocks * d + draw(st.integers(min_value=1, max_value=d - 1))


class TestBlockedDeflation:
    """The blocked product against the direction-by-direction loop."""

    @pytest.mark.parametrize("stack", [1, 3])
    @pytest.mark.parametrize("restricted", [False, True])
    @given(counts=_direction_counts(), seed=st.integers(0, 2**32 - 1),
           rank_draw=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_matches_loop(self, stack, restricted, counts, seed, rank_draw):
        d, k = counts
        rank = rank_draw % d if restricted else 0
        embedding = (ConstraintRestricted({7: rank}) if restricted
                     else SeedSchedule())
        if k == 0:
            vectors = np.zeros((stack, 0, d))
        else:
            vectors = np.stack([embedding.batch(d, k, seed + s, 7).vectors
                                for s in range(stack)])
        blocked = diagnostics._deflation_products(vectors)
        np.testing.assert_allclose(blocked, _reference_deflation(vectors),
                                   rtol=1e-9, atol=1e-12)
        for got, want in zip(diagnostics._deflation_witnesses(vectors),
                             _reference_witnesses(vectors)):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
        # Zeroed coordinates are untouched by every factor, padding included.
        identity = np.eye(d)[:rank]
        assert np.array_equal(blocked[:, :rank, :],
                              np.broadcast_to(identity, (stack, rank, d)))
        assert np.array_equal(blocked[:, :, :rank],
                              np.broadcast_to(identity.T, (stack, d, rank)))

    def test_paper_size_seed_means_match_loop_cells(self):
        config = DiagnosticsConfig(d=24, k=400)
        schedule = SeedSchedule()
        for record in run_diagnostics(config, (43, 44, 45, 46)):
            vectors = np.stack([
                schedule.batch(config.d, config.k, seed, record.n).vectors
                for seed in config.seeds])
            want = [format_value(float(diagnostics._seed_mean(values)))
                    for values in _reference_witnesses(vectors)]
            got = [format_value(value) for value in
                   (record.tr_lin, record.min_re, record.max_im)]
            assert got == want


class TestEmbeddings:
    def test_seed_schedule_varies_with_n(self):
        emb = SeedSchedule()
        one = emb.batch(8, 5, 42, 1)
        two = emb.batch(8, 5, 42, 2)
        again = emb.batch(8, 5, 42, 1)
        assert not np.array_equal(one.vectors, two.vectors)
        assert np.array_equal(one.vectors, again.vectors)

    def test_constraint_restricted_zeroes_leading_coordinates(self):
        emb = ConstraintRestricted({3: 4})
        batch = emb.batch(10, 20, 7, 3)
        assert np.abs(batch.vectors[:, :4]).max() == 0.0
        assert np.allclose(np.linalg.norm(batch.vectors, axis=1), 1.0)

    def test_rank_zero_matches_unrestricted(self):
        emb = ConstraintRestricted({5: 0})
        assert np.array_equal(emb.batch(12, 8, 3, 5).vectors,
                              sample_directions(12, 8, 3).vectors)

    def test_survivor_floor_on_exp_witness(self):
        # r zeroed coordinates leave r exact zero eigenvalues, so the trace
        # of exp(-alpha A) can never drop below r.
        emb = ConstraintRestricted({0: 3})
        acc = build_accumulator(emb.batch(16, 200, 11, 0))
        for alpha in (1.0, 10.0, 80.0):
            assert exp_witness(acc, alpha) >= math.log10(3.0) - 1e-12

    def test_rank_validation(self):
        emb = ConstraintRestricted({1: 24})
        with pytest.raises(ValueError):
            emb.batch(24, 10, 0, 1)


class TestRunDiagnostics:
    def test_deterministic_and_sorted(self):
        config = DiagnosticsConfig(d=12, k=30, alpha_grid=(1.0, 4.0),
                                   seeds=(3, 5))
        first = run_diagnostics(config, (6, 4, 5, 6))
        second = run_diagnostics(config, (4, 5, 6))
        assert [r.n for r in first] == [4, 5, 6]
        assert first == second

    def test_boundary_records_indeterminate(self):
        config = DiagnosticsConfig(d=12, k=30, alpha_grid=(1.0, 4.0),
                                   seeds=(3,))
        records = run_diagnostics(config, (1, 2, 3))
        assert records[0].critical is None
        assert records[-1].critical is None

    def test_single_alpha_slope_uses_exact_anchor(self):
        config = DiagnosticsConfig(d=12, k=30, alpha_grid=(2.0,), seeds=(3,))
        record = run_diagnostics(config, (1,))[0]
        expected = (record.log10_tr_exp - math.log10(12)) / 2.0
        assert record.slope == pytest.approx(expected, rel=1e-12)
        assert math.isfinite(record.slope)

    def test_default_embedding_is_seed_schedule(self):
        config = DiagnosticsConfig(d=12, k=30, alpha_grid=(1.0, 4.0),
                                   seeds=(3, 5))
        orders = (4, 5, 6)
        assert (run_diagnostics(config, orders)
                == run_diagnostics(config, orders, SeedSchedule()))

    @pytest.mark.parametrize("embedding", [object(), "seed-schedule"])
    def test_embedding_without_batch_is_rejected(self, embedding):
        with pytest.raises(ValueError, match="batch"):
            run_diagnostics(DiagnosticsConfig(), (4,), embedding)

    def test_config_fields(self):
        assert [f.name for f in dataclasses.fields(DiagnosticsConfig)] == [
            "d", "k", "alpha_grid", "seeds"]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DiagnosticsConfig(d=1)
        with pytest.raises(ValueError):
            DiagnosticsConfig(alpha_grid=())
        with pytest.raises(ValueError):
            DiagnosticsConfig(alpha_grid=(3.0, 1.0))
        with pytest.raises(ValueError):
            DiagnosticsConfig(seeds=())

    @pytest.mark.parametrize("embedding", [
        SeedSchedule(), ConstraintRestricted({4: 2, 5: 3, 6: 1})])
    def test_record_matches_per_seed_public_calls(self, embedding):
        config = DiagnosticsConfig(d=12, k=30, alpha_grid=(1.0, 2.5, 6.0),
                                   seeds=(3, 5, 8))
        for record in run_diagnostics(config, (4, 5, 6), embedding):
            rows = []
            for seed in config.seeds:
                batch = embedding.batch(config.d, config.k, seed, record.n)
                acc = build_accumulator(batch)
                rows.append([*linear_witness(batch),
                             lyapunov_rate(acc, config.alpha_grid[-1]),
                             spectral_norm(acc, tol=1e-10, max_iter=2000),
                             *(exp_witness(acc, a) for a in config.alpha_grid)])
            expected = np.mean(rows, axis=0)
            traces = expected[5:]
            got = [record.tr_lin, record.min_re, record.max_im,
                   record.lambda_L, record.rho_H,
                   *(t for _, t in record.trace_grid)]
            assert got == pytest.approx(list(expected), rel=1e-9, abs=0.0)
            assert record.log10_tr_exp == pytest.approx(traces[-1], rel=1e-9)
            assert record.slope == pytest.approx(
                slope_fit(config.alpha_grid, traces), rel=1e-9)

    def test_linear_witness_matches_loop_reference(self):
        batch = sample_directions(10, 40, 21)
        trace, min_re, max_im = _reference_witnesses(batch.vectors[None])
        assert linear_witness(batch) == pytest.approx(
            (trace[0], min_re[0], max_im[0]), rel=1e-9, abs=1e-15)

    def test_numerical_failure_is_carried_on_the_record(self):
        class FailsAtFive(SeedSchedule):
            def batch(self, d, k, seed, n):
                if n == 5:
                    raise np.linalg.LinAlgError("no convergence")
                return super().batch(d, k, seed, n)

        config = DiagnosticsConfig(d=8, k=20, alpha_grid=(1.0, 3.0),
                                   seeds=(3,))
        records = run_diagnostics(config, (4, 5, 6), FailsAtFive())
        assert [r.error is None for r in records] == [True, False, True]
        failed = records[1]
        assert failed.error == "LinAlgError: no convergence"
        assert math.isnan(failed.rho_H) and failed.critical is None

    def test_record_fields_within_ranges(self):
        config = DiagnosticsConfig(d=10, k=25, alpha_grid=(1.0, 3.0),
                                   seeds=(11, 23))
        for record in run_diagnostics(config, (2, 3, 4)):
            assert -10.0 <= record.tr_lin <= 10.0
            assert record.rho_H > 0.0
            assert record.error is None


class TestDecideCritical:
    def _record(self, **overrides):
        base = dict(n=5, d=24, k=400, alpha=40.0, log10_tr_exp=-200.0,
                    tr_lin=0.0, min_re=0.0, max_im=0.0, slope=-1.0,
                    lambda_L=0.1, rho_H=25.0, critical=None)
        base.update(overrides)
        from ramsey_toolkit import DiagnosticsRecord
        return DiagnosticsRecord(**base)

    def test_missing_neighbors_indeterminate(self):
        record = self._record()
        assert decide_critical(record) is None
        assert decide_critical(record, neighbors=(self._record(), None)) is None

    def test_fires_on_joint_extremum(self):
        low = self._record(tr_lin=0.0, rho_H=25.0)
        before = self._record(n=4, tr_lin=2.0, rho_H=27.0)
        after = self._record(n=6, tr_lin=1.0, rho_H=26.0)
        assert decide_critical(low, neighbors=(before, after)) is True

    def test_requires_exponential_collapse(self):
        shallow = self._record(log10_tr_exp=0.0)
        before = self._record(n=4, tr_lin=2.0, rho_H=27.0)
        after = self._record(n=6, tr_lin=1.0, rho_H=26.0)
        assert decide_critical(shallow, neighbors=(before, after)) is False

    def test_requires_strict_extremum(self):
        tied = self._record(tr_lin=1.0)
        before = self._record(n=4, tr_lin=1.0, rho_H=27.0)
        after = self._record(n=6, tr_lin=2.0, rho_H=26.0)
        assert decide_critical(tied, neighbors=(before, after)) is False

    def test_threshold_overrides(self):
        record = self._record(log10_tr_exp=-10.0)
        before = self._record(n=4, tr_lin=2.0, rho_H=27.0)
        after = self._record(n=6, tr_lin=1.0, rho_H=26.0)
        assert decide_critical(record, neighbors=(before, after)) is False
        loose = DecisionThresholds(tau_exp_log10=-5.0)
        assert decide_critical(record, loose, (before, after)) is True
        gated = DecisionThresholds(tau_exp_log10=-5.0, tau_lin=-1.0)
        assert decide_critical(record, gated, (before, after)) is False


class TestControlRecord:
    def test_control_never_fires(self, am46_dir):
        coloring = load_control_coloring(am46_dir)
        config = DiagnosticsConfig(d=24, k=100, seeds=(11, 23))
        record = control_record(coloring, config)
        assert record.n == 46
        assert record.critical is None
        # Certified rank-1 survivor pins the exponential witness at >= 1.
        assert record.log10_tr_exp >= -1e-9


class SweepFailure(Exception):
    """Raised by an embedding in a sweep worker; importable, so it pickles."""


class TestPooledSweep:
    """With two or more orders, run_diagnostics forks a pool of workers
    that claim orders with this process; the records must not show it, and
    no worker or pipe may outlive the sweep."""

    CONFIG = DiagnosticsConfig(d=12, k=30, alpha_grid=(1.0, 2.5, 6.0),
                               seeds=(3, 5, 8))

    @pytest.fixture(autouse=True)
    def clean(self):
        # A pool that deadlocks fails the test instead of hanging the run,
        # and after every path no child is left and no pipe stays open.
        def expire(signum, frame):
            raise TimeoutError("pooled sweep still running after 60 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        fds = len(os.listdir("/proc/self/fd"))
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert len(os.listdir("/proc/self/fd")) == fds

    @staticmethod
    def cells(records) -> list:
        # repr, so that the NaN witnesses of a failed record compare equal.
        return [(repr(r), repr(r.trace_grid)) for r in records]

    @pytest.mark.parametrize("processes", [2, 3])
    @pytest.mark.parametrize("orders", [(5,), (4, 6), (6, 4, 5), (4, 5, 6, 7, 8)])
    @pytest.mark.parametrize("embedding", [
        SeedSchedule(),
        ConstraintRestricted({4: 2, 5: 3, 6: 1, 7: 0, 8: 0}),
        "fails-at-5"], ids=["schedule", "restricted", "fails-at-5"])
    def test_pooled_matches_serial(self, embedding, orders, processes,
                                   monkeypatch):
        fails = embedding == "fails-at-5"
        if fails:
            class FailsAtFive(SeedSchedule):
                def batch(self, d, k, seed, n):
                    if n == 5:
                        raise np.linalg.LinAlgError("no convergence")
                    return super().batch(d, k, seed, n)

            embedding = FailsAtFive()
        claim_cores(monkeypatch, 1)
        serial = run_diagnostics(self.CONFIG, orders, embedding)
        forks = claim_cores(monkeypatch, processes)
        pooled = run_diagnostics(self.CONFIG, orders, embedding)
        assert len(forks) == min(processes, len(orders)) - 1
        assert [r.n for r in pooled] == sorted(orders)
        assert self.cells(pooled) == self.cells(serial)
        assert [r.n for r in pooled if r.error is not None] == \
            ([5] if fails and 5 in orders else [])

    @pytest.mark.parametrize("case", [
        "one-core", "thread", "fork-1", "pipe-1", "pipe-2"])
    def test_serial_without_fork(self, case, monkeypatch):
        # One usable core, a live second thread, or a refused os.fork or
        # os.pipe (the token pipe, then a worker's first pipe): the sweep
        # runs here, with the same records.
        orders = (4, 5, 6)
        claim_cores(monkeypatch, 1)
        serial = run_diagnostics(self.CONFIG, orders)
        forks = claim_cores(monkeypatch, 1 if case == "one-core" else 2)
        calls = []
        if case != "one-core":
            call, failing = ("fork", 1) if case == "thread" else \
                (case[:-2], int(case[-1]))
            real = getattr(os, call)

            def refusing():
                calls.append(None)
                if len(calls) == failing:
                    raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
                return real()

            monkeypatch.setattr(os, call, refusing)
        release = threading.Event()
        helper = threading.Thread(target=release.wait)
        if case == "thread":
            helper.start()
        try:
            records = run_diagnostics(self.CONFIG, orders)
        finally:
            release.set()
            if case == "thread":
                helper.join(timeout=60)
        assert not helper.is_alive()
        assert forks == []
        assert len(calls) == {"one-core": 0, "thread": 0, "fork-1": 1,
                              "pipe-1": 1, "pipe-2": 2}[case]
        assert self.cells(records) == self.cells(serial)

    def test_worker_error_is_raised_with_its_type(self, monkeypatch,
                                                  tmp_path):
        # The worker's first order raises; this process waits in its own
        # first order until the worker has claimed one.
        main = os.getpid()
        started = tmp_path / "started"

        class RaisesInWorker(SeedSchedule):
            def batch(self, d, k, seed, n):
                if os.getpid() != main:
                    started.touch()
                    raise SweepFailure(f"order {n} failed in a worker")
                deadline = time.monotonic() + 30
                while not started.exists() and time.monotonic() < deadline:
                    time.sleep(0.005)
                return super().batch(d, k, seed, n)

        claim_cores(monkeypatch, 2)
        with pytest.raises(SweepFailure, match=r"^order \d failed in a "
                           r"worker$") as info:
            run_diagnostics(self.CONFIG, (4, 5, 6, 7), RaisesInWorker())
        cause = str(info.value.__cause__)
        assert re.match(r"in diag worker \d+:\n", cause)
        assert "in batch" in cause and "SweepFailure" in cause

    def test_unpicklable_worker_error(self, monkeypatch, tmp_path):
        # An exception of a class defined in a function does not pickle:
        # the worker sends a stand-in with its type name, its message and
        # its traceback.
        class LocalError(Exception):
            pass

        main = os.getpid()
        started = tmp_path / "started"

        class RaisesInWorker(SeedSchedule):
            def batch(self, d, k, seed, n):
                if os.getpid() != main:
                    started.touch()
                    raise LocalError("not picklable")
                deadline = time.monotonic() + 30
                while not started.exists() and time.monotonic() < deadline:
                    time.sleep(0.005)
                return super().batch(d, k, seed, n)

        claim_cores(monkeypatch, 2)
        with pytest.raises(_pool.WorkerError) as info:
            run_diagnostics(self.CONFIG, (4, 5, 6, 7), RaisesInWorker())
        error = info.value
        assert error.type_name == f"{__name__}.{LocalError.__qualname__}"
        assert error.message == "not picklable"
        assert str(error) == f"{error.type_name}: not picklable"
        assert "LocalError: not picklable" in error.traceback_text
        assert "in batch" in error.traceback_text
        assert error.traceback_text in str(error.__cause__)

    def test_error_here_kills_worker(self, monkeypatch, tmp_path):
        # The worker sleeps in its first order until it is killed, and this
        # process's order raises once the worker is asleep: the sweep must
        # kill and reap the worker rather than wait for it.
        main = os.getpid()
        started = tmp_path / "started"

        class SleepsInWorker(SeedSchedule):
            def batch(self, d, k, seed, n):
                if os.getpid() != main:
                    (tmp_path / "pid").write_text(str(os.getpid()))
                    os.replace(tmp_path / "pid", started)
                    time.sleep(60)
                deadline = time.monotonic() + 30
                while not started.exists() and time.monotonic() < deadline:
                    time.sleep(0.005)
                raise ValueError("own order failed")

        claim_cores(monkeypatch, 2)
        begin = time.monotonic()
        with pytest.raises(ValueError, match="own order failed"):
            run_diagnostics(self.CONFIG, (4, 5), SleepsInWorker())
        assert time.monotonic() - begin < 30
        with pytest.raises(ProcessLookupError):
            os.kill(int(started.read_text()), 0)
