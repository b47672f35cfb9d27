"""Prime-sequence numbers and window scans over Ramsey bound corridors.

A prime-sequence number of order k admits a factorisation using only the
first k primes, with a cap on how many distinct primes appear and how large
each exponent may grow.  The module enumerates such numbers inside integer
windows and ranks the admissible candidates by one fixed key: smallest
largest exponent, then fewest distinct primes, then smallest value.
Membership divides only by the basis primes, so a value with a factor
outside the basis is dropped without being factorised in full.  A
persistence scan factorises and ranks its window once over its largest
basis, reads the winner at every order k off that ranking, and returns the
selection that persists longest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from itertools import groupby
from operator import itemgetter

__all__ = [
    "PSQuery",
    "PrimeSignature",
    "SelectionResult",
    "PersistenceResult",
    "first_primes",
    "factorize",
    "is_prime_sequence",
    "enumerate_ps",
    "select_candidate",
    "persistence_scan",
]


@cache
def first_primes(k: int) -> tuple[int, ...]:
    """The first ``k`` primes under standard indexing (p1 = 2, p5 = 11)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    primes = [2]
    candidate = 3
    while len(primes) < k:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 2
    return tuple(primes)


@dataclass(frozen=True)
class PSQuery:
    """Membership query: basis order ``k``, distinct-prime and exponent caps."""

    k: int
    max_distinct: int = 3
    max_exponent: int = 3

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.max_distinct < 1:
            raise ValueError(f"max_distinct must be >= 1, got {self.max_distinct}")
        if self.max_exponent < 1:
            raise ValueError(f"max_exponent must be >= 1, got {self.max_exponent}")


@dataclass(frozen=True)
class PrimeSignature:
    """Sorted (prime, exponent) factorisation of a positive integer."""

    factors: tuple[tuple[int, int], ...]

    @property
    def value(self) -> int:
        return math.prod(p**e for p, e in self.factors)

    @property
    def distinct(self) -> int:
        return len(self.factors)

    @property
    def max_exponent(self) -> int:
        return max((e for _, e in self.factors), default=0)


def factorize(q: int) -> PrimeSignature:
    """Full trial-division factorisation.  ``q`` must be >= 1."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    factors: list[tuple[int, int]] = []
    rest = q
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if rest > 1:
        factors.append((rest, 1))
    return PrimeSignature(tuple(factors))


def _basis_signature(q: int, basis) -> PrimeSignature | None:
    """Signature of ``q >= 1`` when all its prime factors lie in ``basis``
    (ascending primes), otherwise None; divides only by the basis."""
    factors: list[tuple[int, int]] = []
    for p in basis:
        if q == 1:
            break
        if q % p == 0:
            e = 0
            while q % p == 0:
                q //= p
                e += 1
            factors.append((p, e))
    return PrimeSignature(tuple(factors)) if q == 1 else None


def _within_caps(sig: PrimeSignature, query: PSQuery) -> bool:
    return (sig.distinct <= query.max_distinct
            and sig.max_exponent <= query.max_exponent)


def _in_basis(sig: PrimeSignature, k: int) -> bool:
    """Every prime of ``sig`` is among the first ``k`` (true for q = 1)."""
    return not sig.factors or sig.factors[-1][0] <= first_primes(k)[-1]


def _rank_key(sig: PrimeSignature) -> tuple[int, int, int]:
    """Smallest largest exponent, then fewest distinct primes, then value."""
    return sig.max_exponent, sig.distinct, sig.value


def _ranked_window(lo: int, hi: int, query: PSQuery,
                   k: int) -> list[PrimeSignature]:
    """Signatures of the values in ``[lo, hi]`` whose primes lie among the
    first ``k`` and that are within the caps of ``query``, in rank order."""
    if hi < lo:
        raise ValueError(f"window [lo, hi] requires hi >= lo, got [{lo}, {hi}]")
    basis = first_primes(k)
    signatures = (_basis_signature(q, basis)
                  for q in range(max(lo, 1), hi + 1))
    return sorted((sig for sig in signatures
                   if sig is not None and _within_caps(sig, query)),
                  key=_rank_key)


def is_prime_sequence(q: int, query: PSQuery) -> bool:
    """True iff every prime factor of ``q`` lies among the first ``query.k``
    primes, at most ``query.max_distinct`` distinct primes appear, and no
    exponent exceeds ``query.max_exponent``.

    ``q = 1`` has no prime factors and satisfies any query vacuously.
    Raises ``ValueError`` for ``q < 1``.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    sig = _basis_signature(q, first_primes(query.k))
    return sig is not None and _within_caps(sig, query)


def enumerate_ps(lo: int, hi: int, query: PSQuery) -> tuple[int, ...]:
    """All prime-sequence numbers in the half-open window ``(lo, hi]``, ascending."""
    if hi <= lo:
        raise ValueError(f"window (lo, hi] requires hi > lo, got ({lo}, {hi}]")
    start = max(lo + 1, 1)
    return tuple(q for q in range(start, hi + 1) if is_prime_sequence(q, query))


@dataclass(frozen=True)
class SelectionResult:
    """Head of the ranking plus the full ranked candidate list."""

    value: int | None
    ranking: tuple[int, ...] = ()


def select_candidate(lo: int, hi: int, query: PSQuery) -> SelectionResult:
    """Rank the prime-sequence numbers in the inclusive window ``[lo, hi]``.

    Candidates are ordered by smallest largest exponent, then fewest
    distinct primes, then smallest value.  Returns the ranking head, or
    ``value=None`` with an empty ranking when the window admits no
    candidate at this query.
    """
    ranking = tuple(sig.value
                    for sig in _ranked_window(lo, hi, query, query.k))
    return SelectionResult(value=ranking[0] if ranking else None,
                           ranking=ranking)


@dataclass(frozen=True)
class PersistenceResult:
    """Persistent selection over a scan of basis orders.

    ``value`` is the selection of the longest consecutive plateau (latest
    plateau wins ties); ``plateau`` is that plateau's inclusive ``(k_first,
    k_last)`` interval; ``selections`` records the per-k winners.
    """

    value: int
    plateau: tuple[int, int]
    selections: tuple[tuple[int, int], ...] = field(repr=False)


def persistence_scan(n_diag: int, lo: int, hi: int,
                     query_template: PSQuery | None = None) -> PersistenceResult:
    """Scan basis orders k and return the longest-lived selection.

    The window ``[lo, hi]`` is factorised over the first ``2 * n_diag - 1``
    primes and ranked once, in the order of :func:`select_candidate`; a
    value with a prime outside that basis wins at no order.  For each k
    from the smallest order admitting a candidate up to ``2 * n_diag - 1``,
    the winner is the first ranked value whose primes all lie among the
    first k: the head :func:`select_candidate` returns at that k.  The
    result is the value whose consecutive run of wins is longest, ties
    resolved toward the latest run.  ``query_template`` supplies the
    distinct/exponent caps; its ``k`` field is ignored.  Raises
    ``ValueError`` when no k in range admits any candidate.
    """
    if n_diag < 1:
        raise ValueError(f"n_diag must be >= 1, got {n_diag}")
    k_max = 2 * n_diag - 1
    ranked = _ranked_window(lo, hi, query_template or PSQuery(k=1), k_max)
    heads = ((k, next((sig.value for sig in ranked if _in_basis(sig, k)), None))
             for k in range(1, k_max + 1))
    selections = tuple((k, value) for k, value in heads if value is not None)
    if not selections:
        raise ValueError(
            f"no prime-sequence candidate in [{lo}, {hi}] for any k <= {k_max}")
    # Admission only grows with k, so the orders in ``selections`` are
    # consecutive and each run of equal winners is a plateau.
    runs = [(value, [k for k, _ in run])
            for value, run in groupby(selections, key=itemgetter(1))]
    value, orders = max(reversed(runs), key=lambda run: len(run[1]))
    return PersistenceResult(value=value, plateau=(orders[0], orders[-1]),
                             selections=selections)
