"""Streaming DIMACS CNF encoder for Ramsey arrowing instances.

One boolean variable per edge of K_N (true = red); every m-subset
contributes a clause forbidding an all-red clique, every n-subset one
forbidding an all-blue clique.  Clauses are streamed in lexicographic
subset order with constant memory, so the emitted bytes are a pure
function of (N, m, n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import TextIO

from .combinatorics import (_ENUM_EDGE_BUDGET, CliqueConstraint,
                            _enumerate_exists)

__all__ = [
    "CnfInstance",
    "edge_var",
    "stream_cnf",
    "write_map",
    "check_small",
]


@dataclass(frozen=True)
class CnfInstance:
    """Instance header data: problem sizes and DIMACS variable/clause counts."""

    N: int
    m: int
    n: int
    var_count: int
    clause_count: int

    @classmethod
    def for_problem(cls, N: int, m: int, n: int) -> "CnfInstance":
        if N < 2:
            raise ValueError(f"N must be >= 2, got {N}")
        if m < 2 or n < 2:
            raise ValueError(f"clique orders must be >= 2, got ({m}, {n})")
        return cls(N=N, m=m, n=n,
                   var_count=math.comb(N, 2),
                   clause_count=math.comb(N, m) + math.comb(N, n))


def edge_var(i: int, j: int, N: int) -> int:
    """One-based DIMACS variable for edge {i, j} of K_N.

    Row-major upper-triangle numbering: {1,2} -> 1, {1,3} -> 2, ...
    Requires ``1 <= i < j <= N``.
    """
    if not (1 <= i < j <= N):
        raise ValueError(f"need 1 <= i < j <= N, got i={i}, j={j}, N={N}")
    return (i - 1) * N - i * (i - 1) // 2 + (j - i)


def stream_cnf(N: int, m: int, n: int, sink: TextIO) -> CnfInstance:
    """Write the full DIMACS instance to ``sink`` and return its header data.

    Emits the ``p cnf`` header, then the negative-literal clauses of all
    m-subsets in lexicographic order, then the positive-literal clauses of
    all n-subsets.  Memory use is constant in the clause count.
    """
    instance = CnfInstance.for_problem(N, m, n)
    sink.write(f"p cnf {instance.var_count} {instance.clause_count}\n")
    emitted = 0
    for subset in combinations(range(1, N + 1), m):
        literals = " ".join(
            f"-{edge_var(a, b, N)}" for a, b in combinations(subset, 2))
        sink.write(literals + " 0\n")
        emitted += 1
    for subset in combinations(range(1, N + 1), n):
        literals = " ".join(
            f"{edge_var(a, b, N)}" for a, b in combinations(subset, 2))
        sink.write(literals + " 0\n")
        emitted += 1
    if emitted != instance.clause_count:
        raise RuntimeError(
            f"clause count mismatch: emitted {emitted}, "
            f"header {instance.clause_count}")
    return instance


def write_map(N: int, sink: TextIO) -> int:
    """Write ``var i j`` lines for every edge of K_N; returns the line count."""
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    count = 0
    for i in range(1, N):
        for j in range(i + 1, N + 1):
            sink.write(f"{edge_var(i, j, N)} {i} {j}\n")
            count += 1
    return count


def check_small(N: int, m: int, n: int) -> bool:
    """Exhaustive satisfiability of the instance for small N.

    Runs the combinatorics module's bitmask sweep, which answers whether
    some edge assignment satisfies all clauses: by construction the same
    question as the existence of a colouring of K_N with no red K_m and no
    blue K_n.  Requires ``C(N, 2) <= 28``.
    """
    instance = CnfInstance.for_problem(N, m, n)
    if instance.var_count > _ENUM_EDGE_BUDGET:
        raise ValueError(
            f"check_small requires C(N,2) <= {_ENUM_EDGE_BUDGET}, "
            f"got {instance.var_count}")
    return _enumerate_exists(N, CliqueConstraint(m, n))
