"""Prime-sequence membership, candidate selection, persistence scans."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

import ramsey_toolkit.primes as primes
from ramsey_toolkit import (PSQuery, enumerate_ps, factorize, first_primes,
                            is_prime_sequence, persistence_scan,
                            select_candidate)


class TestBasisAndFactorization:
    def test_first_primes(self):
        assert first_primes(1) == (2,)
        assert first_primes(9) == (2, 3, 5, 7, 11, 13, 17, 19, 23)
        with pytest.raises(ValueError):
            first_primes(0)

    def test_factorize_examples(self):
        sig = factorize(115)
        assert sig.factors == ((5, 1), (23, 1))
        assert sig.distinct == 2 and sig.max_exponent == 1
        assert factorize(1).factors == ()
        assert factorize(121).factors == ((11, 2),)
        with pytest.raises(ValueError):
            factorize(0)

    @given(st.integers(min_value=2, max_value=10 ** 9))
    @settings(max_examples=60, deadline=None)
    def test_factorize_round_trip(self, q):
        sig = factorize(q)
        assert sig.value == q
        assert math.prod(p ** e for p, e in sig.factors) == q
        assert all(e >= 1 for _, e in sig.factors)
        primes = [p for p, _ in sig.factors]
        assert primes == sorted(primes)


class TestMembership:
    def test_known_members(self):
        assert is_prime_sequence(115, PSQuery(k=9))
        assert is_prime_sequence(205, PSQuery(k=13))
        assert is_prime_sequence(121, PSQuery(k=9))
        assert is_prime_sequence(1, PSQuery(k=1))

    def test_known_non_members(self):
        # 115 = 5 * 23 needs the ninth prime; 23 is outside the k=8 basis.
        assert not is_prime_sequence(115, PSQuery(k=8))
        # 2^4 exceeds the default exponent cap.
        assert not is_prime_sequence(16, PSQuery(k=4))
        # 2 * 3 * 5 * 7 exceeds the default distinct cap.
        assert not is_prime_sequence(210, PSQuery(k=4))

    def test_caps_are_configurable(self):
        assert is_prime_sequence(16, PSQuery(k=4, max_exponent=4))
        assert is_prime_sequence(210, PSQuery(k=4, max_distinct=4))

    def test_validation(self):
        with pytest.raises(ValueError):
            is_prime_sequence(0, PSQuery(k=3))
        with pytest.raises(ValueError):
            PSQuery(k=0)
        with pytest.raises(ValueError):
            PSQuery(k=3, max_distinct=0)

    @given(st.integers(min_value=1, max_value=5000),
           st.integers(min_value=1, max_value=14))
    @settings(max_examples=80, deadline=None)
    def test_membership_monotone_in_basis_order(self, q, k):
        if is_prime_sequence(q, PSQuery(k=k)):
            assert is_prime_sequence(q, PSQuery(k=k + 1))


class TestSelection:
    def test_window_enumeration(self):
        # Hand-checked against the k = 9 basis with caps (3 primes, cube):
        # e.g. 112 = 2^4 * 7 and 128 = 2^7 fail the exponent cap, 106 = 2 * 53
        # leaves the basis.
        assert enumerate_ps(100, 130, PSQuery(k=9)) == (
            102, 104, 105, 108, 110, 114, 115, 117, 119, 120, 121, 125,
            126, 130)
        with pytest.raises(ValueError):
            enumerate_ps(10, 10, PSQuery(k=3))

    def test_selection_prefers_low_exponent_then_few_primes(self):
        result = select_candidate(100, 130, PSQuery(k=9))
        assert result.value == 115
        # Squarefree semiprimes lead, then squarefree triples by value,
        # then the squares; the window is inclusive so 100 = 2^2 * 5^2
        # ranks among the exponent-2 block.
        assert result.ranking == (115, 119, 102, 105, 110, 114, 130, 121,
                                  100, 117, 126, 125, 104, 108, 120)

    def test_empty_window(self):
        result = select_candidate(116, 118, PSQuery(k=5))
        assert result.value is None
        assert result.ranking == ()


class TestPersistence:
    def test_diagonal_order_six(self):
        result = persistence_scan(6, 102, 160)
        assert result.value == 115
        assert result.plateau == (9, 11)
        assert dict(result.selections)[9] == 115

    def test_diagonal_order_seven(self):
        result = persistence_scan(7, 205, 492)
        assert result.value == 209
        assert result.plateau == (8, 12)
        assert dict(result.selections)[13] == 205

    def test_off_diagonal_windows(self):
        # The (5, 6) window admits only 45 = 3^2 * 5 until 11 enters the
        # basis at k = 5; 44 = 2^2 * 11 then wins on value, and the
        # squarefree 46 = 2 * 23 takes over once k reaches 9.
        by_k = {k: select_candidate(43, 46, PSQuery(k=k)).value
                for k in range(3, 10)}
        assert by_k[3] == 45 and by_k[4] == 45
        assert by_k[5] == 44 and by_k[8] == 44
        assert by_k[9] == 46

    def test_scan_starts_at_first_admitting_order(self):
        # 115 = 5 * 23 only enters once the basis reaches the ninth prime,
        # so the selections and the plateau begin at k = 9.
        result = persistence_scan(5, 115, 115)
        assert result.selections == ((9, 115),)
        assert result.value == 115
        assert result.plateau == (9, 9)

    def test_no_candidate_raises(self):
        with pytest.raises(ValueError):
            persistence_scan(2, 116, 118, PSQuery(k=1, max_distinct=1))
        with pytest.raises(ValueError):
            persistence_scan(0, 10, 20)
        with pytest.raises(ValueError):
            persistence_scan(5, 46, 43)

    @pytest.mark.parametrize("caps", [(1, 1), (2, 2), (3, 3), (4, 4)])
    @pytest.mark.parametrize("n_diag, lo, hi", [
        (5, 43, 46), (3, 5, 7), (4, 17, 19), (6, 102, 160), (7, 205, 492),
        (7, 1, 600)])
    def test_scan_matches_per_order_selection(self, n_diag, lo, hi, caps):
        # The reference is one select_candidate call per order k.
        expected = []
        for k in range(1, 2 * n_diag):
            head = select_candidate(lo, hi, PSQuery(k, *caps)).value
            if head is not None:
                expected.append((k, head))
        if not expected:
            with pytest.raises(ValueError):
                persistence_scan(n_diag, lo, hi, PSQuery(1, *caps))
            return
        result = persistence_scan(n_diag, lo, hi, PSQuery(1, *caps))
        assert result.selections == tuple(expected)

    def test_scan_factorizes_each_value_once(self, monkeypatch):
        # Over the scan's largest basis, the first 2 * n_diag - 1 primes;
        # no value is factorised in full.
        calls = []
        signature = primes._basis_signature

        def counting(q, basis):
            calls.append(q)
            assert basis == first_primes(13)
            return signature(q, basis)

        def full(q):
            raise AssertionError("full factorisation in the scan")

        monkeypatch.setattr(primes, "_basis_signature", counting)
        monkeypatch.setattr(primes, "factorize", full)
        persistence_scan(7, 205, 492)
        assert sorted(calls) == list(range(205, 493))

    @pytest.mark.parametrize("caps", [(4, 10), (2, 9), (3, 3), (6, 30)])
    @pytest.mark.parametrize("lo, hi", [
        (10 ** 9 - 100, 10 ** 9 + 100), (1000016400, 1000016600)])
    def test_large_windows_match_full_factorisation(self, lo, hi, caps):
        # Near 10^9 most values have a prime factor far outside any basis;
        # the reference factorises every value in full and filters.
        signatures = [factorize(q) for q in range(lo, hi + 1)]
        heads = []
        for k in range(1, 14):
            query = PSQuery(k, *caps)
            admitted = [sig for sig in signatures
                        if sig.distinct <= caps[0]
                        and sig.max_exponent <= caps[1]
                        and all(p in first_primes(k) for p, _ in sig.factors)]
            ranking = tuple(sig.value for sig in sorted(
                admitted,
                key=lambda sig: (sig.max_exponent, sig.distinct, sig.value)))
            assert select_candidate(lo, hi, query).ranking == ranking
            values = set(ranking)
            assert [q for q in range(lo, hi + 1)
                    if is_prime_sequence(q, query)] == sorted(values)
            assert enumerate_ps(lo - 1, hi, query) == tuple(sorted(values))
            if ranking:
                heads.append((k, ranking[0]))
        if not heads:
            with pytest.raises(ValueError):
                persistence_scan(7, lo, hi, PSQuery(1, *caps))
            return
        assert persistence_scan(7, lo, hi, PSQuery(1, *caps)).selections == \
            tuple(heads)
