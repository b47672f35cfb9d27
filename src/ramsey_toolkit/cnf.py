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
from itertools import chain, combinations, islice
from typing import TextIO

import numpy as np

from .combinatorics import (_ENUM_EDGE_BUDGET, CliqueConstraint,
                            _enumerate_exists)

__all__ = [
    "CnfInstance",
    "edge_var",
    "stream_cnf",
    "write_map",
    "check_small",
]

# Literals encoded per block (about 13k subsets at m = 5): one gather and
# one ``sink.write`` each, so memory is bounded whatever the clause count.
_BLOCK_LITERALS = 1 << 17


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


def _edge_table(N: int) -> np.ndarray:
    """``(N+1, N+1)`` table whose entry ``[i, j]``, ``1 <= i < j <= N``, is
    :func:`edge_var` ``(i, j, N)``; all other entries are 0.

    ``np.triu_indices`` lists the upper triangle row-major, the order in
    which :func:`edge_var` counts, so numbering is one ``arange``.
    """
    rows, cols = np.triu_indices(N, k=1)
    table = np.zeros((N + 1, N + 1), dtype=np.intp)
    table[rows + 1, cols + 1] = np.arange(1, rows.size + 1)
    return table


def _token_table(var_count: int, sign: str) -> np.ndarray:
    """ASCII rows of the literal tokens ``f"{sign}{t} "`` for t = 0..var_count,
    zero-padded on the right to one width (row 0 is never gathered)."""
    tokens = [f"{sign}{t} ".encode("ascii") for t in range(var_count + 1)]
    width = len(tokens[-1])
    return np.frombuffer(b"".join(t.ljust(width, b"\0") for t in tokens),
                         dtype=np.uint8).reshape(-1, width)


def _stream_clauses(N: int, size: int, tokens: np.ndarray, var: np.ndarray,
                    sink: TextIO) -> int:
    """Write one clause per ``size``-subset of 1..N, in lexicographic order,
    one ``sink.write`` per block of subsets; returns the clause count.

    Each clause is the tokens of the subset's edge variables in
    ``combinations`` order, then ``0``.  A block is gathered as fixed-width
    byte rows; dropping the zero padding leaves the clause text.
    """
    p, q = np.array(list(combinations(range(size), 2)), dtype=np.intp).T
    block_rows = min(max(1, _BLOCK_LITERALS // p.size), math.comb(N, size))
    width = p.size * tokens.shape[1]
    rows = np.empty((block_rows, width + 2), dtype=np.uint8)
    rows[:, width:] = np.frombuffer(b"0\n", dtype=np.uint8)
    subsets = chain.from_iterable(combinations(range(1, N + 1), size))
    emitted = 0
    while True:
        block = np.fromiter(islice(subsets, block_rows * size),
                            dtype=np.intp).reshape(-1, size)
        if block.shape[0] == 0:
            return emitted
        out = rows[:block.shape[0]]
        out[:, :width] = tokens[var[block[:, p], block[:, q]]].reshape(
            block.shape[0], width)
        sink.write(out[out != 0].tobytes().decode("ascii"))
        emitted += block.shape[0]


def stream_cnf(N: int, m: int, n: int, sink: TextIO) -> CnfInstance:
    """Write the full DIMACS instance to ``sink`` and return its header data.

    Emits the ``p cnf`` header, then the negative-literal clauses of all
    m-subsets in lexicographic order, then the positive-literal clauses of
    all n-subsets.  Clauses go out in blocks of about ``_BLOCK_LITERALS``
    literals, so memory use is constant in the clause count.
    """
    instance = CnfInstance.for_problem(N, m, n)
    sink.write(f"p cnf {instance.var_count} {instance.clause_count}\n")
    var = _edge_table(N)
    emitted = sum(
        _stream_clauses(N, size, _token_table(instance.var_count, sign),
                        var, sink)
        for size, sign in ((m, "-"), (n, "")))
    if emitted != instance.clause_count:
        raise RuntimeError(
            f"clause count mismatch: emitted {emitted}, "
            f"header {instance.clause_count}")
    return instance


def write_map(N: int, sink: TextIO) -> int:
    """Write ``var i j`` lines for every edge of K_N; returns the line count."""
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    var = _edge_table(N).tolist()
    count = 0
    for i, j in combinations(range(1, N + 1), 2):
        sink.write(f"{var[i][j]} {i} {j}\n")
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
