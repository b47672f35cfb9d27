"""Streaming DIMACS CNF encoder for Ramsey arrowing instances.

One boolean variable per edge of K_N (true = red); every m-subset
contributes a clause forbidding an all-red clique, every n-subset one
forbidding an all-blue clique.  Clauses are streamed in lexicographic
subset order, so the emitted bytes are a pure function of (N, m, n).
Per clause size, the (size-1)-subsets are built as one numpy table and
their suffix rows gathered once; when m = n, the positive side reuses the
negative side's table and turns its suffix rows positive in place.  Each
block then gathers its heads and is written as fixed-width bytes; where a
literal is narrower than the padded width, one ``bytes.translate`` pass
drops the zero padding.  Memory is one table of each kind plus one
block, whatever the clause count: about 7 MB at N = 43, m = n = 5.

:func:`_write_cnf` passes the instance in order, as bytes, to any write
function, all from this process; the ``cnf`` command gives it the write
of a file, FIFO or device opened in binary.  :func:`stream_cnf` writes
the same text to any text sink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, TextIO

import numpy as np

from .combinatorics import BudgetError, CliqueConstraint, exists_good_coloring

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


def _block_rows(size: int) -> int:
    """Subsets per block for clauses of ``size`` vertices."""
    return max(1, _BLOCK_LITERALS // math.comb(size, 2))


def _suffix_rows(suffixes: np.ndarray, tokens: np.ndarray,
                 var: np.ndarray, block_rows: int) -> np.ndarray:
    """The padded tokens of the pairs inside each row of ``suffixes``, in
    ``combinations`` order, as one C-contiguous ``uint8`` row per subset,
    gathered ``block_rows`` subsets at a time."""
    p, q = np.array(list(combinations(range(suffixes.shape[1]), 2)),
                    dtype=np.intp).reshape(-1, 2).T
    rows = np.empty((suffixes.shape[0], p.size * tokens.itemsize),
                    dtype=np.uint8)
    for start in range(0, suffixes.shape[0], block_rows):
        chunk = suffixes[start:start + block_rows]
        rows[start:start + chunk.shape[0]] = np.take(
            tokens, var[chunk[:, p], chunk[:, q]]).view(np.uint8)
    return rows


def _unsigned_rows(rows: np.ndarray, width: int,
                   block_rows: int) -> np.ndarray:
    """Turn negative suffix rows into the positive rows of ``width`` bytes
    in place, a block of rows at a time, and return them as a view of the
    front of the same buffer.

    A padded ``-t`` token is the padded ``t`` token with a ``-`` in front,
    the only ``-`` in it, so one ``bytes.translate`` pass that drops every
    ``-`` leaves the positive rows.  Rows only shrink, so a block never
    lands on rows not yet read.
    """
    count = rows.shape[0]
    flat = rows.reshape(-1)
    for start in range(0, count, block_rows):
        stop = min(count, start + block_rows)
        flat[start * width:stop * width] = np.frombuffer(
            rows[start:stop].tobytes().translate(None, b"-"), dtype=np.uint8)
    return flat[:count * width].reshape(count, width)


def _stream_clauses(N: int, tokens: np.ndarray, var: np.ndarray,
                    suffixes: np.ndarray, suffix_rows: np.ndarray,
                    write: Callable[[bytes | np.ndarray], object]) -> int:
    """Pass the clauses of every (k+1)-subset of 1..N, k the width of
    ``suffixes``, with literals from ``tokens`` (:func:`_token_table`), to
    ``write``, in lexicographic order, one call per block of subsets;
    returns the clause count.

    ``suffixes`` is :func:`_subsets` ``(N, k)`` and ``suffix_rows`` its
    rows of padded pair tokens with the same sign (:func:`_suffix_rows`).
    Each clause is the tokens of the subset's edge variables (``var``,
    from :func:`_edge_table`) in ``combinations`` order, then ``0``.  For
    the subset ``{i} + S`` with ``i < min S`` that is the head, the tokens
    of the edges ``(i, s)`` for ``s`` in ``S``, followed by the suffix row
    of ``S``.  The suffixes with ``min S > i`` are a contiguous tail of
    the table, so a block for first vertex ``i`` gathers only its heads
    and copies a slice of suffix rows.  Rows are fixed-width bytes.  When
    the token of ``var(i, i+1)``, the smallest variable in the block,
    fills the padded width, so does every token of the block, and
    ``write`` gets the rows as they stand: a 1-D ``uint8`` array, valid
    only during the call.  Otherwise the zero padding, the only NUL bytes
    in a block, is dropped in one ``bytes.translate`` pass and ``write``
    gets ``bytes``.  Memory beyond the tables is one block.
    """
    k = suffixes.shape[1]
    block_rows = _block_rows(k + 1)
    head_width = k * tokens.itemsize
    width = head_width + suffix_rows.shape[1]
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
            write(out.reshape(-1) if full_width
                  else out.tobytes().translate(None, b"\0"))
            emitted += tail.shape[0]
    return emitted


def _checked(instance: CnfInstance, emitted: int) -> CnfInstance:
    if emitted != instance.clause_count:
        raise RuntimeError(
            f"clause count mismatch: emitted {emitted}, "
            f"header {instance.clause_count}")
    return instance


def _header(instance: CnfInstance) -> str:
    return f"p cnf {instance.var_count} {instance.clause_count}\n"


def _write_cnf(N: int, m: int, n: int,
               write: Callable[[bytes | np.ndarray], object]) -> CnfInstance:
    """Pass the full DIMACS instance to ``write`` in order, as bytes-like
    objects, and return its header data.

    Passes the ``p cnf`` header, then the negative-literal clauses of all
    m-subsets in lexicographic order, then the positive-literal clauses of
    all n-subsets, in blocks of about ``_BLOCK_LITERALS`` literals, all
    from this process.  A block is a 1-D ``uint8`` array, valid only
    during the call, when every literal in it has the padded width, and
    ``bytes`` otherwise (see :func:`_stream_clauses`).  The table of
    (size-1)-subsets is built once per clause size: when m = n, the
    positive side reuses the negative side's table and its suffix rows,
    with every ``-`` dropped in place; otherwise the first side's tables
    are dropped before the second side's are built.  Memory holds those
    tables plus one block: about 7 MB at N = 43, m = n = 5.  At (46, 2, 6)
    the size-6 table makes this process peak at about 120 MB; a forked
    worker that wrote that side at its own file offset peaked at 114 MB
    while this process stayed at 30 MB.  Raises if the clauses written are
    not the header's count.
    """
    instance = CnfInstance.for_problem(N, m, n)
    write(_header(instance).encode("ascii"))
    var = _edge_table(N)
    emitted = 0
    suffixes = suffix_rows = None
    for size, sign in ((m, "-"), (n, "")):
        if size > N:
            continue
        tokens = _token_table(instance.var_count, sign)
        block_rows = _block_rows(size)
        if suffixes is not None and suffixes.shape[1] == size - 1:
            # m = n: the positive side reuses the negative side's tables.
            suffix_rows = _unsigned_rows(
                suffix_rows, math.comb(size - 1, 2) * tokens.itemsize,
                block_rows)
        else:
            # Drop the other side's tables before building these.
            suffixes = suffix_rows = None
            suffixes = _subsets(N, size - 1)
            suffix_rows = _suffix_rows(suffixes, tokens, var, block_rows)
        emitted += _stream_clauses(N, tokens, var, suffixes, suffix_rows,
                                   write)
    return _checked(instance, emitted)


def stream_cnf(N: int, m: int, n: int, sink: TextIO) -> CnfInstance:
    """Write the full DIMACS instance to ``sink`` and return its header data.

    The text is that of :func:`_write_cnf`, which the ``cnf`` command
    writes as bytes; here each piece goes through ``sink.write`` as a
    ``str``.
    """
    return _write_cnf(N, m, n, lambda data: sink.write(str(data, "ascii")))


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

    Runs the labelled existence sweep of ``exists_good_coloring``, which
    adds one vertex at a time through the glue walk's assignment filter and
    answers whether some edge assignment satisfies all clauses: by
    construction the same question as the existence of a colouring of K_N
    with no red K_m and no blue K_n.  Raises ValueError past C(N, 2) = 28.
    """
    CnfInstance.for_problem(N, m, n)  # the writer's argument checks
    try:
        return exists_good_coloring(N, CliqueConstraint(m, n), "enumerate")
    except BudgetError as exc:
        raise ValueError(f"check_small: {exc}") from exc
