"""Block encodings, interference tests, stochastic traces, phase read-out."""

from __future__ import annotations

import math

import numpy as np
import pytest

from ramsey_toolkit import qsim
from ramsey_toolkit import (BlockEncoding, PhaseWrapError, block_encode_rank1,
                            encode_operator, hadamard_test, hutchinson_trace,
                            lcu_block_encode, phase_estimate_dilation,
                            phase_resolution)


def random_unit(rng, d):
    raw = rng.normal(size=d) + 1j * rng.normal(size=d)
    return raw / np.linalg.norm(raw)


def unitarity_defect(w):
    return np.abs(w.conj().T @ w - np.eye(w.shape[0])).max()


class TestRankOne:
    def test_block_is_half_outer_product(self):
        rng = np.random.default_rng(1)
        u, v = random_unit(rng, 4), random_unit(rng, 4)
        enc = block_encode_rank1(u, v)
        assert enc.alpha0 == 2.0
        assert enc.data_dim == enc.source_dim == 4
        target = np.outer(u, v.conj())
        assert np.abs(enc.alpha0 * enc.block - target).max() < 1e-12
        assert unitarity_defect(enc.unitary) < 1e-12

    def test_padding_preserves_block(self):
        rng = np.random.default_rng(2)
        u, v = random_unit(rng, 3), random_unit(rng, 3)
        enc = block_encode_rank1(u, v)
        assert enc.data_dim == 4 and enc.source_dim == 3
        target = np.outer(u, v.conj())
        corner = enc.alpha0 * enc.block
        assert np.abs(corner[:3, :3] - target).max() < 1e-12
        assert np.abs(corner[3, :]).max() < 1e-12
        assert np.abs(corner[:, 3]).max() < 1e-12

    def test_rejects_non_unit_vectors(self):
        with pytest.raises(ValueError):
            block_encode_rank1([1.0, 1.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            block_encode_rank1([1.0, 0.0], [1.0, 0.0, 0.0])


class TestLcu:
    def test_weighted_sum_of_outer_products(self):
        rng = np.random.default_rng(3)
        terms = [(0.7, random_unit(rng, 5), random_unit(rng, 5)),
                 (-0.4, random_unit(rng, 5), random_unit(rng, 5)),
                 (0.9j, random_unit(rng, 5), random_unit(rng, 5))]
        enc = lcu_block_encode(terms)
        assert enc.alpha0 == pytest.approx(2.0 * (0.7 + 0.4 + 0.9))
        target = sum(w * np.outer(u, v.conj()) for w, u, v in terms)
        corner = (enc.alpha0 * enc.block)[:5, :5]
        assert np.abs(corner - target).max() < 1e-10
        assert unitarity_defect(enc.unitary) < 1e-10

    def test_single_term_reduces_to_rank1_gadget(self):
        rng = np.random.default_rng(4)
        u, v = random_unit(rng, 4), random_unit(rng, 4)
        # block_encode_rank1 is this one-term call, so the gadget itself
        # is the reference.
        single = lcu_block_encode([(1.0, u, v)])
        assert np.abs(single.unitary - qsim._rank1_gadget(u, v)).max() == 0.0
        assert single.alpha0 == block_encode_rank1(u, v).alpha0 == 2.0

    def test_padding_slots_carry_identity_gadgets(self):
        # Three terms force a 4-slot selector; the result must still be
        # unitary and encode only the three real terms.
        rng = np.random.default_rng(5)
        terms = [(0.5, random_unit(rng, 2), random_unit(rng, 2))
                 for _ in range(3)]
        enc = lcu_block_encode(terms)
        assert enc.ancilla_count == 3
        target = sum(w * np.outer(u, v.conj()) for w, u, v in terms)
        assert np.abs(enc.alpha0 * enc.block - target).max() < 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            lcu_block_encode([])
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            lcu_block_encode([(1.0, random_unit(rng, 2), random_unit(rng, 3))])
        with pytest.raises(ValueError):
            lcu_block_encode([(0.0, [1, 0], [0, 1])])


class TestEncodeOperator:
    def test_reproduces_operator_at_default_scale(self):
        rng = np.random.default_rng(7)
        f = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        enc = encode_operator(f)
        assert enc.alpha0 == pytest.approx(np.linalg.norm(f, 2))
        assert np.abs(enc.alpha0 * enc.block - f).max() < 1e-10
        assert unitarity_defect(enc.unitary) < 1e-10

    def test_looser_scale_still_exact(self):
        rng = np.random.default_rng(8)
        f = rng.normal(size=(3, 3))
        enc = encode_operator(f, alpha0=10.0)
        assert np.abs(10.0 * enc.block - f).max() < 1e-10

    def test_zero_matrix(self):
        enc = encode_operator(np.zeros((2, 2)))
        assert enc.alpha0 == 1.0
        assert np.abs(enc.block).max() == 0.0

    def test_scale_below_norm_rejected(self):
        f = np.diag([3.0, 1.0])
        with pytest.raises(ValueError):
            encode_operator(f, alpha0=2.0)
        with pytest.raises(ValueError):
            encode_operator(f, alpha0=-1.0)
        with pytest.raises(ValueError):
            encode_operator(np.zeros((2, 3)))


class TestBlockEncodingValidation:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            BlockEncoding(unitary=np.ones((2, 2)), ancilla_count=1,
                          alpha0=1.0, data_dim=1, source_dim=1)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            BlockEncoding(unitary=np.eye(6), ancilla_count=1, alpha0=1.0,
                          data_dim=4, source_dim=4)
        with pytest.raises(ValueError):
            BlockEncoding(unitary=np.eye(4), ancilla_count=1, alpha0=0.0,
                          data_dim=2, source_dim=2)

    @pytest.mark.parametrize("defect, accepted", [(5e-9, False),
                                                  (5e-10, True)])
    def test_one_unitarity_tolerance(self, defect, accepted):
        # Construction and hadamard_test share one tolerance: what one
        # accepts, the other accepts too.
        w = np.eye(4)
        w[0, 0] = math.sqrt(1.0 + defect)
        assert unitarity_defect(w) == pytest.approx(defect, rel=1e-6)
        probe = np.array([1.0, 0.0, 0.0, 0.0])
        if accepted:
            BlockEncoding(unitary=w, ancilla_count=1, alpha0=1.0,
                          data_dim=2, source_dim=2)
            assert hadamard_test(w, probe) == pytest.approx(1.0)
            return
        with pytest.raises(ValueError, match="not unitary"):
            BlockEncoding(unitary=w, ancilla_count=1, alpha0=1.0,
                          data_dim=2, source_dim=2)
        with pytest.raises(ValueError, match="not unitary"):
            hadamard_test(w, probe)


class TestHadamard:
    def test_exact_expectation(self):
        rng = np.random.default_rng(9)
        q = np.linalg.qr(rng.normal(size=(6, 6))
                         + 1j * rng.normal(size=(6, 6)))[0]
        probe = random_unit(rng, 6)
        assert hadamard_test(q, probe) == pytest.approx(
            np.vdot(probe, q @ probe).real, abs=1e-12)

    def test_sampled_estimate_concentrates(self):
        rng = np.random.default_rng(10)
        q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        probe = random_unit(rng, 4)
        exact = hadamard_test(q, probe)
        sampled = hadamard_test(q, probe, shots=200_000, seed=17)
        assert abs(sampled - exact) < 4.0 / math.sqrt(200_000) + 1e-12

    def test_sampling_requires_seed(self):
        with pytest.raises(ValueError):
            hadamard_test(np.eye(2), [1.0, 0.0], shots=100)
        with pytest.raises(ValueError):
            hadamard_test(np.eye(2), [1.0, 0.0], shots=0, seed=1)

    def test_rejects_mismatched_probe(self):
        with pytest.raises(ValueError):
            hadamard_test(np.eye(3), [1.0, 0.0])


class TestHutchinson:
    def test_unbiased_for_known_trace(self):
        rng = np.random.default_rng(11)
        f = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        enc = encode_operator(f)
        estimate = hutchinson_trace(enc, probes=6000, seed=101)
        assert estimate.probes == 6000
        assert abs(estimate.value - np.trace(f).real) <= \
            4.0 * estimate.std_error

    def test_deterministic_given_seed(self):
        enc = encode_operator(np.diag([1.0, -2.0, 0.5]))
        a = hutchinson_trace(enc, probes=64, seed=5)
        b = hutchinson_trace(enc, probes=64, seed=5)
        assert a == b

    def test_error_shrinks_with_probes(self):
        # The reported error must scale like 1/sqrt(probes); a 64-fold
        # probe increase should shrink it by roughly 8.
        enc = encode_operator(np.diag([2.0, -1.0, 0.5, 3.0]))
        small = hutchinson_trace(enc, probes=256, seed=7)
        large = hutchinson_trace(enc, probes=16384, seed=7)
        ratio = small.std_error / large.std_error
        assert 5.0 < ratio < 12.0

    def test_shot_path_consistent(self):
        enc = encode_operator(np.diag([1.0, -1.0]))
        est = hutchinson_trace(enc, probes=128, seed=3, shots=4096)
        exact = hutchinson_trace(enc, probes=128, seed=3)
        assert abs(est.value - exact.value) < 1.0

    def test_shot_path_value_is_pinned(self):
        # The value and error the shot path gave while each probe still
        # went through hadamard_test.
        enc = encode_operator(np.diag([1.0, -1.0, 0.5, 2.0]))
        est = hutchinson_trace(enc, probes=16, seed=3, shots=256)
        assert est.value == 2.12109375
        assert est.std_error == 0.5609489248488337

    def test_shot_path_checks_the_unitary_once(self, monkeypatch):
        # BlockEncoding checks its unitary; the probes do not check it again.
        calls = []
        require_unitary = qsim._require_unitary

        def counting(*args):
            calls.append(args)
            return require_unitary(*args)

        monkeypatch.setattr(qsim, "_require_unitary", counting)
        rng = np.random.default_rng(32)
        enc = encode_operator(rng.normal(size=(32, 32)))
        assert len(calls) == 1
        hutchinson_trace(enc, probes=200, seed=5, shots=1000)
        assert len(calls) == 1
        hadamard_test(enc.unitary, np.eye(64)[0])
        assert len(calls) == 2

    def test_validation(self):
        enc = encode_operator(np.eye(2))
        with pytest.raises(ValueError):
            hutchinson_trace(enc, probes=1, seed=0)
        with pytest.raises(ValueError):
            hutchinson_trace(enc, probes=2, seed=0, shots=0)


class TestPhaseEstimation:
    def test_resolution_formula(self):
        assert phase_resolution(7, 0.5) == pytest.approx(
            2.0 * math.pi / (128 * 0.5))
        with pytest.raises(ValueError):
            phase_resolution(0, 1.0)
        with pytest.raises(ValueError):
            phase_resolution(9, 1.0)
        with pytest.raises(ValueError):
            phase_resolution(4, 0.0)

    def test_reads_top_singular_value(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(4, 4))
        left, sigma, right_h = np.linalg.svd(a)
        t = math.pi / (2.0 * np.linalg.norm(a, "fro"))
        aligned = np.concatenate([left[:, 0], right_h[0].conj()]) / math.sqrt(2)
        estimate = phase_estimate_dilation(a, m_bits=7, t=t, state=aligned)
        assert abs(estimate - sigma[0]) <= phase_resolution(7, t)

    def test_signed_read_out(self):
        a = np.array([[2.0]])
        t = math.pi / 8.0
        minus = np.array([1.0, -1.0]) / math.sqrt(2)
        estimate = phase_estimate_dilation(a, m_bits=6, t=t, state=minus)
        assert abs(estimate + 2.0) <= phase_resolution(6, t)

    def test_rectangular_dilation(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(3, 2))
        left, sigma, right_h = np.linalg.svd(a, full_matrices=True)
        t = math.pi / (2.0 * np.linalg.norm(a, "fro"))
        aligned = np.concatenate([left[:, 0], right_h[0]]) / math.sqrt(2)
        estimate = phase_estimate_dilation(a, m_bits=7, t=t, state=aligned)
        assert abs(estimate - sigma[0]) <= phase_resolution(7, t)

    def test_wrap_precheck(self):
        with pytest.raises(PhaseWrapError):
            phase_estimate_dilation(np.array([[3.0]]), m_bits=4, t=2.0,
                                    state=[1.0, 0.0])

    def test_boundary_bin_detected_at_runtime(self):
        n_bins = 1 << 5
        t = math.pi * (1.0 - 1.0 / (2.0 * n_bins))
        aligned = np.array([1.0, 1.0]) / math.sqrt(2)
        with pytest.raises(PhaseWrapError):
            phase_estimate_dilation(np.array([[1.0]]), m_bits=5, t=t,
                                    state=aligned)

    def test_validation(self):
        with pytest.raises(ValueError):
            phase_estimate_dilation(np.array([[1.0]]), m_bits=0, t=0.1,
                                    state=[1, 0])
        with pytest.raises(ValueError):
            phase_estimate_dilation(np.array([[1.0]]), m_bits=3, t=-1.0,
                                    state=[1, 0])
        with pytest.raises(ValueError):
            phase_estimate_dilation(np.array([[1.0]]), m_bits=3, t=0.1,
                                    state=[1, 0, 0])
        with pytest.raises(ValueError):
            phase_estimate_dilation(np.array([[1.0]]), m_bits=3, t=0.1)
