"""Streaming DIMACS CNF encoder for Ramsey arrowing instances.

One boolean variable per edge of K_N (true = red); every m-subset
contributes a clause forbidding an all-red clique, every n-subset one
forbidding an all-blue clique.  Clauses are streamed in lexicographic
subset order, so the emitted bytes are a pure function of (N, m, n).
Per clause size, the (size-1)-subsets are built as one numpy table and
their suffix rows gathered once; each block then gathers its heads and is
written as fixed-width bytes, compacted only where a literal is narrower
than the padded width.  Memory per process is one side's table plus one
block, whatever the clause count: about 7 MB for the negative side and
6 MB for the positive side at N = 43, m = n = 5.

:func:`stream_cnf` writes the instance in order to any text sink.
:func:`_pwrite_cnf` writes it into a file: each side's byte length follows
from (N, m, n) alone, so the two sides go to their own offsets, one
process each where two cores may be used.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, TextIO

import numpy as np

from . import _pool
from .combinatorics import (_ENUM_EDGE_BUDGET, CliqueConstraint,
                            _enumerate_exists)

__all__ = [
    "CnfInstance",
    "edge_var",
    "stream_cnf",
    "write_map",
    "check_small",
]

# Literals encoded per block (about 13k subsets at m = 5): one head gather
# and one write each.
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
    """The literal tokens ``f"{sign}{t} "`` for t = 0..var_count, zero-padded
    on the right to one width, as one ``np.void`` item each, so that a
    gather moves whole tokens (item 0 is never gathered)."""
    tokens = [f"{sign}{t} ".encode("ascii") for t in range(var_count + 1)]
    width = len(tokens[-1])
    return np.frombuffer(b"".join(t.ljust(width, b"\0") for t in tokens),
                         dtype=np.dtype((np.void, width)))


def _subsets(N: int, k: int) -> np.ndarray:
    """The k-subsets of 1..N in lexicographic (``combinations``) order, one
    row each, as a C-contiguous ``uint16`` table of shape (C(N, k), k);
    requires ``1 <= k <= N``.

    Built one column at a time: each row is repeated once for every label
    above its last that still leaves room for the columns after it, and
    those labels are appended in ascending order.  Temporaries stay
    ``int32`` or narrower, and the labels are one cumulative sum taken in
    place: building them as an ``arange`` plus repeated per-row offsets
    made ``stream_cnf(46, 2, 6)`` peak about 9 MB higher.
    """
    # uint16 holds every vertex label that can get here: at N = 2^16,
    # _edge_table alone would need (N+1)^2 intp entries, 32 GiB.
    table = np.arange(1, N - k + 2, dtype=np.uint16).reshape(-1, 1)
    for col in range(1, k):
        # Labels of column ``col`` run up to ``top``, which leaves room for
        # the columns after it, so every row gets at least one label.
        top = N - k + 1 + col
        last = table[:, -1].astype(np.int32)
        after = top - last
        grown = np.empty((int(after.sum()), col + 1), dtype=np.uint16)
        # Row r's labels are last + 1 .. top: the new column steps by one,
        # except where a row starts, where it falls from the previous
        # row's top (0 before the first row) to last + 1.
        steps = np.ones(grown.shape[0], dtype=np.int32)
        steps[np.cumsum(after) - after] = last + 1 - top
        steps[0] += top
        grown[:, col] = np.cumsum(steps, out=steps)
        grown[:, :col] = np.repeat(table, after, axis=0)
        table = grown
    return table


def _stream_clauses(N: int, size: int, sign: str, var: np.ndarray,
                    write: Callable[[np.ndarray], object]) -> int:
    """Pass the clauses of every ``size``-subset of 1..N, with literals
    signed by ``sign``, to ``write``, in lexicographic order, one call per
    block of subsets; returns the clause count.

    Each call gets the block's ASCII bytes as a 1-D ``uint8`` array, valid
    only during the call.  Each clause is the tokens of the subset's edge
    variables (``var``, from :func:`_edge_table`) in ``combinations``
    order, then ``0``.  For the subset ``{i} + S`` with ``i < min S`` that
    is the head, the tokens of the edges ``(i, s)`` for ``s`` in ``S``,
    followed by the suffix, the tokens of the pairs inside ``S``.  The
    suffix rows of all ``(size-1)``-subsets ``S`` (built by
    :func:`_subsets`) are gathered once, in lexicographic order; those
    with ``min S > i`` are a contiguous tail of that table, so a block for
    first vertex ``i`` gathers only its heads and copies a slice of suffix
    rows.  Rows are fixed-width bytes.  When the token of ``var(i, i+1)``,
    the smallest variable in the block, fills the padded width, so does
    every token of the block and the rows are the clause text as they
    stand; otherwise dropping the zero padding leaves it.  Memory holds
    the table of C(N, size-1) suffix rows and subsets, plus one block.
    """
    if size > N:
        return 0
    tokens = _token_table(math.comb(N, 2), sign)
    k = size - 1
    suffixes = _subsets(N, k)
    p, q = np.array(list(combinations(range(k), 2)),
                    dtype=np.intp).reshape(-1, 2).T
    block_rows = max(1, _BLOCK_LITERALS // math.comb(size, 2))
    head_width = k * tokens.itemsize
    width = head_width + p.size * tokens.itemsize
    suffix_rows = np.empty((suffixes.shape[0], width - head_width),
                           dtype=np.uint8)
    for start in range(0, suffixes.shape[0], block_rows):
        chunk = suffixes[start:start + block_rows]
        suffix_rows[start:start + chunk.shape[0]] = np.take(
            tokens, var[chunk[:, p], chunk[:, q]]).view(np.uint8)
    rows = np.empty((min(block_rows, math.comb(N - 1, k)), width + 2),
                    dtype=np.uint8)
    rows[:, width:] = np.frombuffer(b"0\n", dtype=np.uint8)
    firsts = np.searchsorted(suffixes[:, 0], np.arange(1, N - k + 1),
                             side="right")
    emitted = 0
    for i, first in enumerate(firsts.tolist(), start=1):
        heads = tokens[var[i]]
        # Token widths never shrink as the variable grows.
        full_width = tokens[var[i, i + 1]].tobytes()[-1] != 0
        for start in range(first, suffixes.shape[0], block_rows):
            tail = suffixes[start:start + block_rows]
            out = rows[:tail.shape[0]]
            out[:, :head_width] = np.take(heads, tail).view(np.uint8)
            out[:, head_width:width] = suffix_rows[start:start
                                                   + tail.shape[0]]
            write((out if full_width else out[out != 0]).reshape(-1))
            emitted += tail.shape[0]
    return emitted


def _side_bytes(N: int, size: int, sign: str) -> int:
    """Byte length of the clauses that :func:`_stream_clauses` writes for
    ``size`` and ``sign``, from the sizes alone.

    Each of the C(N, 2) edges lies in C(N-2, size-2) of the
    ``size``-subsets, and its token is the sign, its decimal digits and a
    space; each clause ends in ``0\\n``.  The variables 1..V have
    ``sum(V - 10**e + 1 for 10**e <= V)`` digits in all.
    """
    if size > N:
        return 0
    var_count = math.comb(N, 2)
    token_bytes = (len(sign) + 1) * var_count + sum(
        var_count - 10 ** e + 1 for e in range(len(str(var_count))))
    return (math.comb(N - 2, size - 2) * token_bytes
            + 2 * math.comb(N, size))


def _checked(instance: CnfInstance, emitted: int) -> CnfInstance:
    if emitted != instance.clause_count:
        raise RuntimeError(
            f"clause count mismatch: emitted {emitted}, "
            f"header {instance.clause_count}")
    return instance


def _header(instance: CnfInstance) -> str:
    return f"p cnf {instance.var_count} {instance.clause_count}\n"


def stream_cnf(N: int, m: int, n: int, sink: TextIO) -> CnfInstance:
    """Write the full DIMACS instance to ``sink`` and return its header data.

    Emits the ``p cnf`` header, then the negative-literal clauses of all
    m-subsets in lexicographic order, then the positive-literal clauses of
    all n-subsets, each through ``sink.write`` of a ``str``.  Clauses go
    out in blocks of about ``_BLOCK_LITERALS`` literals.  Memory holds one
    side's table of C(N, size-1) suffix rows and subsets at a time, plus
    one block.  The ``cnf`` command writes a regular file through
    :func:`_pwrite_cnf` instead, where each process holds one side's
    table, both sides at once on two cores.
    """
    instance = CnfInstance.for_problem(N, m, n)
    sink.write(_header(instance))
    var = _edge_table(N)
    return _checked(instance, sum(
        _stream_clauses(N, size, sign, var,
                        lambda block: sink.write(str(block, "ascii")))
        for size, sign in ((m, "-"), (n, ""))))


def _pwrite_all(fd: int, data, offset: int) -> int:
    """Write all of ``data`` to ``fd`` at ``offset``, looping on short
    writes; returns the offset after it."""
    view = memoryview(data)
    while view:
        written = os.pwrite(fd, view, offset)
        offset += written
        view = view[written:]
    return offset


def _pwrite_side(N: int, size: int, sign: str, var: np.ndarray, fd: int,
                 start: int, length: int) -> int:
    """Write one side's clauses to ``fd`` from byte ``start``; returns the
    clause count.  Raises before writing past ``start + length``, and if
    the side ends short of it."""
    end = start + length
    offset = start

    def write(block: np.ndarray) -> None:
        nonlocal offset
        if offset + block.size > end:
            raise RuntimeError(
                f"side of size {size} overruns its {length} bytes")
        offset = _pwrite_all(fd, block, offset)

    emitted = _stream_clauses(N, size, sign, var, write)
    if offset != end:
        raise RuntimeError(f"side of size {size} wrote {offset - start} "
                           f"bytes, not {length}")
    return emitted


def _pwrite_cnf(N: int, m: int, n: int, fd: int) -> CnfInstance:
    """Write the full DIMACS instance into the regular file open for
    writing at descriptor ``fd``, which must be empty and not in append
    mode, and return its header data.

    The bytes are those of :func:`stream_cnf`.  The header goes first, and
    each side at its own offset with ``os.pwrite``: the negative side
    right after the header, the positive side :func:`_side_bytes` later.
    The two sides are the two items of one :func:`_pool.run` call, so with
    two usable cores a forked worker writes one side while this process
    writes the other, each holding only its own side's table.  Raises if a
    side writes other than its precomputed length, or if the file does not
    end up as long as the header plus both sides.
    """
    instance = CnfInstance.for_problem(N, m, n)
    offset = _pwrite_all(fd, _header(instance).encode("ascii"), 0)
    sides = []
    for size, sign in ((m, "-"), (n, "")):
        length = _side_bytes(N, size, sign)
        sides.append((size, sign, offset, length))
        offset += length
    var = _edge_table(N)
    emitted = sum(_pool.run(
        lambda chunk: [_pwrite_side(N, size, sign, var, fd, start, length)
                       for size, sign, start, length in chunk],
        sides, min(len(sides), _pool.allowed_processes()),
        "cnf", "clause counts"))
    written = os.fstat(fd).st_size
    if written != offset:
        raise RuntimeError(f"wrote a file of {written} bytes, not {offset}")
    return _checked(instance, emitted)


def write_map(N: int, sink: TextIO) -> int:
    """Write ``var i j`` lines for every edge of K_N; returns the line count."""
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    # combinations lists the edges row-major, the order edge_var counts in.
    for var, (i, j) in enumerate(combinations(range(1, N + 1), 2), start=1):
        sink.write(f"{var} {i} {j}\n")
    return math.comb(N, 2)


def check_small(N: int, m: int, n: int) -> bool:
    """Exhaustive satisfiability of the instance for small N.

    Runs the combinatorics module's labelled existence sweep, which adds
    one vertex at a time through the glue walk's assignment filter and
    answers whether some edge assignment satisfies all clauses: by
    construction the same question as the existence of a colouring of K_N
    with no red K_m and no blue K_n.  Requires ``C(N, 2) <= 28``.
    """
    instance = CnfInstance.for_problem(N, m, n)
    if instance.var_count > _ENUM_EDGE_BUDGET:
        raise ValueError(
            f"check_small requires C(N,2) <= {_ENUM_EDGE_BUDGET}, "
            f"got {instance.var_count}")
    return _enumerate_exists(N, CliqueConstraint(m, n))
