"""Colorings, clique detection, glue-and-prune search, graded values."""

from __future__ import annotations

import errno
import hashlib
import itertools
import math
import os
import pickle
import re
import select
import signal
import subprocess
import sys
import threading
import time
import traceback
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramsey_toolkit import _pool, combinatorics
from ramsey_toolkit import (BudgetError, CliqueConstraint, EdgeColoring,
                            brute_force_ramsey, canonical_key, check_small,
                            edge_index, exists_good_coloring, frontier_profile,
                            glue_extensions, graded_ramsey,
                            has_forbidden_clique, qubit_cost, survivor_rank)

from conftest import claim_cores, coloring_from_red_edges, permute_coloring


# Walks small enough to check every order against the per-assignment oracle.
_ORACLE_WALKS = [(3, 3, 6), (3, 4, 9), (3, 5, 9), (4, 4, 7), (2, 5, 6),
                 (4, 3, 8), (5, 3, 8)]


def oracle_has_clique(coloring: EdgeColoring, size: int, red: bool) -> bool:
    """Plain itertools scan over all vertex subsets of the given size."""
    if size == 1:
        return coloring.v >= 1
    for subset in itertools.combinations(range(1, coloring.v + 1), size):
        if all(coloring.is_red(i, j) == red
               for i, j in itertools.combinations(subset, 2)):
            return True
    return False


def _reference_has_clique(adj, vertex_count: int, size: int,
                          within: int | None = None) -> bool:
    """The per-assignment clique recursion the glue walk used to prune with."""
    if size <= 0:
        return True
    start = (1 << vertex_count) - 1 if within is None else within

    def rec(cands: int, need: int) -> bool:
        if need == 0:
            return True
        while cands:
            if cands.bit_count() < need:
                return False
            low = cands & -cands
            i = low.bit_length() - 1
            cands ^= low
            if need == 1 or rec(cands & adj[i], need - 1):
                return True
        return False

    return rec(start, size)


def _reference_next_frontier(frontier, constraint):
    """The glue walk's level step with one clique recursion per assignment,
    kept as the oracle for the truth-table assignment filter."""
    classes = {}
    for red in frontier:
        v = len(red)
        blue = combinatorics._blue(red)
        full = (1 << v) - 1
        for a in range(1 << v):
            if _reference_has_clique(red, v, constraint.m - 1, within=a):
                continue
            if _reference_has_clique(blue, v, constraint.n - 1,
                                     within=full & ~a):
                continue
            child = tuple(r | ((a >> i) & 1) << v
                          for i, r in enumerate(red)) + (a,)
            classes.setdefault(combinatorics._adjacency_key(child), child)
    return [classes[k] for k in sorted(classes)]


def _breadth_first(constraint, v_max: int) -> list[list[tuple]]:
    """Orders 2 to ``v_max`` of the walk grown breadth-first, kept as the
    oracle for the depth-first walk: each order is every
    ``(key, red, generators)`` that ``_children`` keeps of the whole order
    before it, sorted by key.  Canonical augmentation keeps each class
    once, so the keys of an order must be distinct.  Stops after the first
    empty order."""
    parents = ([] if combinatorics._has_forbidden((0,), constraint)
               else [((0,), ())])
    orders = []
    while parents and len(orders) + 1 < v_max:
        children = sorted(combinatorics._children(parents, constraint))
        assert len({key for key, _, _ in children}) == len(children)
        orders.append(children)
        parents = [(red, generators) for _, red, generators in children]
    return orders


def _oracle_profile(constraint, v_max: int) -> tuple:
    """The ``(v, count)`` profile of :func:`_breadth_first`."""
    first = 0 if combinatorics._has_forbidden((0,), constraint) else 1
    return ((1, first),) + tuple(
        (v, len(order)) for v, order in
        enumerate(_breadth_first(constraint, v_max), start=2))


def _reference_avoiding(masks, inside, meet):
    """The boolean clique kernel over edge or assignment masks: True where
    a mask contains no mask of ``inside`` and meets every mask of
    ``meet``."""
    good = np.ones(masks.shape, dtype=bool)
    for sub in map(np.uint64, inside):
        good &= (masks & sub) != sub
        if not good.any():
            return good
    for sub in map(np.uint64, meet):
        good &= (masks & sub) != 0
        if not good.any():
            break
    return good


def _reference_good_assignments(red, constraint) -> list[int]:
    """The glue walk's assignment filter before truth tables: one
    :func:`_reference_avoiding` pass over the 2^v assignments as masks per
    red (m-1)-clique and blue (n-1)-clique."""
    v = len(red)
    full = (1 << v) - 1
    masks = np.arange(1 << v, dtype=np.uint64)
    return masks[_reference_avoiding(
        masks, combinatorics._cliques(red, constraint.m - 1, full),
        combinatorics._cliques(combinatorics._blue(red), constraint.n - 1,
                               full))].tolist()


def _random_red(v: int, density: float, rng) -> list[int]:
    """Red adjacency masks of a random colouring of K_v."""
    red = [0] * v
    for i, j in itertools.combinations(range(v), 2):
        if rng.random() < density:
            red[i] |= 1 << j
            red[j] |= 1 << i
    return red


def _reference_exists(v: int, constraint) -> bool:
    """The flat existence sweep, kept as the labelled sweep's oracle:
    every edge mask with edge {1, 2} red, in chunks of 2^21, plus the
    all-blue colouring, which covers the rest up to relabelling."""
    if not combinatorics._has_forbidden((0,) * v, constraint):
        return True
    e = v * (v - 1) // 2
    if e == 0:
        return False

    def clique_masks(size):
        masks = []
        for subset in itertools.combinations(range(1, v + 1), size):
            m = 0
            for a, b in itertools.combinations(subset, 2):
                m |= 1 << edge_index(a, b, v)
            masks.append(m)
        return masks

    red, blue = clique_masks(constraint.m), clique_masks(constraint.n)
    chunk = 1 << 21
    for start in range(1, 1 << e, 2 * chunk):
        masks = np.arange(start, min(start + 2 * chunk, 1 << e), 2,
                          np.uint32)
        if _reference_avoiding(masks, red, blue).any():
            return True
    return False


def _sorted_neighbour_colors(red, v: int) -> list[int]:
    """Equitable-partition colours by sorting neighbour-colour lists, the
    refinement canonical labelling used before it counted per cell."""
    colors = [0] * v
    while True:
        signatures = []
        for i in range(v):
            nbr = sorted(colors[j] for j in range(v) if (red[i] >> j) & 1)
            signatures.append((colors[i], tuple(nbr)))
        ordered = sorted(set(signatures))
        new_colors = [ordered.index(s) for s in signatures]
        if new_colors == colors:
            return colors
        colors = new_colors


def _reference_refined_colors(red, v: int, first: int | None = None
                              ) -> list[int]:
    """The count refinement with tuple signatures, kept as the oracle for
    the packed integer signatures."""
    degrees = [r.bit_count() for r in red]
    rank = {d: c for c, d in enumerate(sorted(set(degrees)))}
    colors = [rank[d] for d in degrees]
    while len(rank) < v and not (first is not None and colors[first]):
        cells = [0] * len(rank)
        for u, c in enumerate(colors):
            cells[c] |= 1 << u
        signatures = [(c, *[-(r & cell).bit_count() for cell in cells])
                      if cells[c] & (cells[c] - 1) else (c,)
                      for c, r in zip(colors, red)]
        rank = {s: c for c, s in enumerate(sorted(set(signatures)))}
        if len(rank) == len(cells):
            break
        colors = [rank[s] for s in signatures]
    return colors


def _reference_adjacency_key(red, colors=None, first=None, generators=None):
    """The cell-wise key search that pruned only twins, kept as the oracle
    for automorphism pruning: same arguments and results as
    ``combinatorics._adjacency_key``."""
    v = len(red)
    if v == 1:
        return bytes([1])
    if colors is None:
        colors = _reference_refined_colors(red, v)
    sequence = sorted(colors)
    cells = [0] * (sequence[-1] + 1)
    for u, c in enumerate(colors):
        cells[c] |= 1 << u
    best = None
    best_order = []
    beaten = False

    def search(t, remaining, order, cols):
        nonlocal best, best_order, beaten
        while t < v:
            chunks = []
            members = cells[sequence[t]] & remaining
            while members:
                low = members & -members
                members ^= low
                u = low.bit_length() - 1
                r, col = red[u], 0
                for x in order:
                    col = col << 1 | r >> x & 1
                chunks.append((col, u))
            minimal = min(chunks)[0]
            if best is not None and minimal != best[t] and cols == best[:t]:
                if minimal > best[t]:
                    return
                if first is not None and order[0] != first:
                    beaten = True
                    return
            tied = [u for col, u in chunks if col == minimal]
            if len(tied) > 1:
                if t == 0 and first is not None:
                    tied.remove(first)
                    tied.insert(0, first)
                kept = []
                for w in tied:
                    for u in kept:
                        if not (red[u] ^ red[w]) & ~(1 << u | 1 << w):
                            if generators is not None:
                                swap = list(range(v))
                                swap[u], swap[w] = w, u
                                generators.add(bytes(swap))
                            break
                    else:
                        kept.append(w)
                tied = kept
            cols.append(minimal)
            t += 1
            if len(tied) > 1:
                for u in tied:
                    search(t, remaining & ~(1 << u), order + [u], cols[:])
                    if beaten:
                        return
                return
            order.append(tied[0])
            remaining &= ~(1 << tied[0])
        if cols != best:
            best, best_order = cols, order
        elif generators is not None:
            image = [0] * v
            for u, w in zip(best_order, order):
                image[u] = w
            generators.add(bytes(image))

    search(0, (1 << v) - 1, [], [])
    if beaten:
        return None
    out = bytearray([v, sequence[0]])
    for color, col in zip(sequence[1:], best[1:]):
        out.append(color)
        out += col.to_bytes(2, "big")
    return bytes(out)


def _reference_key(red) -> bytes:
    """The canonical key by a search over every remaining vertex at each
    node, kept as the byte oracle for the cell-wise search."""
    v = len(red)
    colors = _sorted_neighbour_colors(red, v)
    if v == 1:
        return bytes([1])
    red_degrees = sum(r.bit_count() for r in red)
    if red_degrees in (0, v * (v - 1)):
        return _pack_reference(v, [(colors[0], (1 << t) - 1 if red_degrees
                                    else 0) for t in range(v)])
    best = None

    def column_of(candidate, order):
        col = 0
        for u in order:
            col = (col << 1) | ((red[candidate] >> u) & 1)
        return col

    def search(order, cols):
        nonlocal best
        t = len(order)
        if best is not None and cols > best[:t]:
            return
        if t == v:
            if best is None or cols < best:
                best = list(cols)
            return
        remaining = [u for u in range(v) if u not in order]
        chunks = {u: (colors[u], column_of(u, order)) for u in remaining}
        minimal = min(chunks.values())
        for u in remaining:
            if chunks[u] != minimal:
                continue
            order.append(u)
            cols.append(minimal)
            search(order, cols)
            cols.pop()
            order.pop()

    search([], [])
    return _pack_reference(v, best)


def _pack_reference(v: int, chunks) -> bytes:
    out = bytearray([v, chunks[0][0]])
    for color, col in chunks[1:]:
        out.append(color)
        out += col.to_bytes(2, "big")
    return bytes(out)


def _least_first_vertices(red) -> set[int]:
    """First vertices of the least chunk sequences over every ordering."""
    v = len(red)
    colors = _sorted_neighbour_colors(red, v)
    sequences = {order: [(colors[u], tuple(red[u] >> x & 1 for x in order[:t]))
                         for t, u in enumerate(order)]
                 for order in itertools.permutations(range(v))}
    least = min(sequences.values())
    return {order[0] for order, seq in sequences.items() if seq == least}


def _assert_first_vertex_orbit(red) -> set[int]:
    """Check the orbit test of ``_adjacency_key`` at every vertex of colour
    0 against every ordering; return the accepted first vertices."""
    v = len(red)
    colors = combinatorics._refined_colors(red, v)
    key = combinatorics._adjacency_key(red)
    starts = _least_first_vertices(red)
    assert all(colors[u] == 0 for u in starts)
    for u in range(v):
        if colors[u] == 0:
            assert combinatorics._adjacency_key(red, colors, u) == (
                key if u in starts else None)
    return starts


def _assert_matches_reference(red):
    red = tuple(red)
    assert combinatorics._refined_colors(red, len(red)) == \
        _sorted_neighbour_colors(red, len(red))
    assert combinatorics._adjacency_key(red) == _reference_key(red)


def burnside_class_count(v: int) -> int:
    """Number of 2-edge-colorings of K_v up to isomorphism.

    Sums 2^(cycles of the induced edge permutation) over S_v, divided by
    v!.  Exact for the small orders the tests exercise.
    """
    edges = list(itertools.combinations(range(v), 2))
    position = {e: idx for idx, e in enumerate(edges)}
    total = 0
    for perm in itertools.permutations(range(v)):
        seen = [False] * len(edges)
        cycles = 0
        for start in range(len(edges)):
            if seen[start]:
                continue
            cycles += 1
            current = start
            while not seen[current]:
                seen[current] = True
                i, j = edges[current]
                a, b = perm[i], perm[j]
                current = position[(min(a, b), max(a, b))]
        total += 2 ** cycles
    return total // math.factorial(v)


class TestEdgeColoring:
    def test_edge_index_is_row_major_bijection(self):
        v = 7
        seen = set()
        for i, j in itertools.combinations(range(1, v + 1), 2):
            idx = edge_index(i, j, v)
            assert 0 <= idx < v * (v - 1) // 2
            seen.add(idx)
        assert len(seen) == v * (v - 1) // 2
        assert edge_index(1, 2, v) == 0
        assert edge_index(v - 1, v, v) == v * (v - 1) // 2 - 1

    def test_mask_round_trip(self):
        coloring = EdgeColoring.from_mask(5, 0b1011001101)
        assert coloring.mask == 0b1011001101
        assert EdgeColoring.from_mask(5, coloring.mask) == coloring

    def test_is_red_symmetric(self, pentagon):
        assert pentagon.is_red(1, 2) and pentagon.is_red(2, 1)
        assert not pentagon.is_red(1, 3)

    def test_red_neighbors(self, pentagon):
        masks = pentagon.red_neighbors()
        assert masks[0] == (1 << 1) | (1 << 4)
        assert all(not (masks[i] >> i) & 1 for i in range(5))

    def test_validation(self):
        with pytest.raises(ValueError):
            EdgeColoring.from_mask(3, 1 << 3)
        with pytest.raises(ValueError):
            EdgeColoring.from_mask(0, 0)


class TestCliqueDetection:
    def test_pentagon_witnesses_r33_above_5(self, pentagon):
        constraint = CliqueConstraint(3, 3)
        assert not has_forbidden_clique(pentagon, constraint)

    def test_paley17_witnesses_r44_above_17(self, paley17):
        assert not has_forbidden_clique(paley17, CliqueConstraint(4, 4))

    @given(st.integers(min_value=2, max_value=8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_subset_oracle(self, v, data):
        e = v * (v - 1) // 2
        mask = data.draw(st.integers(min_value=0, max_value=(1 << e) - 1))
        coloring = EdgeColoring.from_mask(v, mask)
        m = data.draw(st.integers(min_value=2, max_value=4))
        n = data.draw(st.integers(min_value=2, max_value=4))
        expected = (oracle_has_clique(coloring, m, red=True)
                    or oracle_has_clique(coloring, n, red=False))
        assert has_forbidden_clique(coloring, CliqueConstraint(m, n)) == \
            expected


class TestCliques:
    @given(st.integers(min_value=0, max_value=8), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_itertools_oracle(self, v, data):
        e = v * (v - 1) // 2
        mask = data.draw(st.integers(min_value=0, max_value=(1 << e) - 1),
                         label="edges")
        adj = EdgeColoring.from_mask(v, mask).red_neighbors() if v else []
        size = data.draw(st.integers(min_value=0, max_value=5), label="size")
        within = data.draw(st.integers(min_value=0, max_value=(1 << v) - 1),
                           label="within")
        members = [i for i in range(v) if (within >> i) & 1]
        expected = [sum(1 << i for i in subset)
                    for subset in itertools.combinations(members, size)
                    if all((adj[i] >> j) & 1
                           for i, j in itertools.combinations(subset, 2))]
        assert list(combinatorics._cliques(adj, size, within)) == expected

    def test_size_zero_and_oversized(self):
        adj = [0b1110, 0b1101, 0b1011, 0b0111]
        assert list(combinatorics._cliques(adj, 0, 0)) == [0]
        assert list(combinatorics._cliques(adj, 0, 0b1111)) == [0]
        assert list(combinatorics._cliques(adj, 3, 0b0101)) == []
        assert list(combinatorics._cliques(adj, 5, 0b1111)) == []
        assert list(combinatorics._cliques(adj, 3, 0b1111)) == [
            0b0111, 0b1011, 0b1101, 0b1110]


# Sizes from 1 up, with m or n in {1, 2} (no assignment is good when either
# is 1, and a single clique vertex decides it when either is 2).
_FILTER_CONSTRAINTS = [(1, 1), (1, 3), (3, 1), (2, 2), (2, 4), (4, 2),
                       (3, 3), (3, 4), (4, 3), (4, 4), (3, 5), (5, 5)]


class TestGoodAssignments:
    """The walk's truth-table filter against the per-clique numpy one."""

    @pytest.mark.parametrize("v", range(1, 14))
    def test_matches_reference(self, v):
        rng = np.random.default_rng(1900 + v)
        bad = 0
        for m, n in _FILTER_CONSTRAINTS:
            constraint = CliqueConstraint(m, n)
            for density in (0.15, 0.5, 0.85):
                red = _random_red(v, density, rng)
                bad += combinatorics._has_forbidden(red, constraint)
                assert combinatorics._good_assignments(red, constraint) == \
                    _reference_good_assignments(red, constraint)
        # Parents that are not good themselves are filtered the same way.
        assert bad > 0

    def test_matches_reference_at_v16(self):
        rng = np.random.default_rng(1916)
        red = _random_red(16, 0.5, rng)
        constraint = CliqueConstraint(5, 5)
        got = combinatorics._good_assignments(red, constraint)
        assert got and len(got) < 1 << 16
        assert got == _reference_good_assignments(red, constraint)

    def test_walk_parents_match_reference(self):
        # Both tables matter here: red and blue cliques each reject some
        # assignments of these parents, and some assignments survive.
        for (m, n), v_max in [((3, 5), 9), ((4, 4), 7)]:
            constraint = CliqueConstraint(m, n)
            for order in [[(None, (0,), ())]] + _breadth_first(
                    constraint, v_max - 1):
                for _, red, _ in order:
                    assert combinatorics._good_assignments(
                        red, constraint) == _reference_good_assignments(
                            red, constraint)

    def test_small_tables(self):
        # At v <= 3 the table fits in the one byte it is read from.
        red_edge = [0b10, 0b01]
        assert combinatorics._good_assignments([0], CliqueConstraint(3, 3)) \
            == [0, 1]
        assert combinatorics._good_assignments([0], CliqueConstraint(2, 2)) \
            == []
        assert combinatorics._good_assignments(
            red_edge, CliqueConstraint(3, 3)) == [0, 1, 2]
        assert combinatorics._good_assignments(
            [0, 0], CliqueConstraint(3, 2)) == [3]
        assert combinatorics._good_assignments(
            [0, 0], CliqueConstraint(2, 4)) == [0]
        assert combinatorics._good_assignments(
            [0, 0, 0], CliqueConstraint(2, 3)) == []

    @pytest.mark.parametrize("v", range(0, 9))
    def test_tables_bit_by_bit(self, v):
        every, holds, misses = combinatorics._assignment_tables(v)
        assert every == (1 << (1 << v)) - 1
        assert len(holds) == len(misses) == v
        for u in range(v):
            for a in range(1 << v):
                assert holds[u] >> a & 1 == a >> u & 1
                assert misses[u] >> a & 1 == 1 - (a >> u & 1)
            assert holds[u] >> (1 << v) == misses[u] >> (1 << v) == 0


class TestExistence:
    def test_r33_boundary(self):
        constraint = CliqueConstraint(3, 3)
        assert exists_good_coloring(5, constraint)
        assert not exists_good_coloring(6, constraint)

    def test_modes_agree_on_r34(self):
        constraint = CliqueConstraint(3, 4)
        for v in (7, 8):
            enum = exists_good_coloring(v, constraint, mode="enumerate")
            glue = exists_good_coloring(v, constraint, mode="glue")
            assert enum == glue is True
        assert not exists_good_coloring(9, constraint, mode="glue")
        with pytest.raises(BudgetError):
            exists_good_coloring(9, constraint, mode="enumerate")

    def test_budget_error_names_the_order_and_its_edges(self):
        with pytest.raises(BudgetError) as info:
            exists_good_coloring(9, CliqueConstraint(3, 4), mode="enumerate")
        assert str(info.value) == ("labelled sweep at v=9 has 36 edges, "
                                   "past the 28-edge cap (v <= 8)")
        assert info.value.partial is None
        with pytest.raises(BudgetError) as info:
            brute_force_ramsey(CliqueConstraint(3, 4), 9, "enumerate")
        assert str(info.value) == ("enumeration budget exceeded at v=9; "
                                   "orders up to 8 admit good colourings")
        assert info.value.partial == 8
        assert str(info.value.__cause__).startswith("labelled sweep at v=9")

    @pytest.mark.parametrize("v", range(1, 8))
    def test_matches_flat_sweep(self, v):
        for m, n in itertools.product(range(1, 6), repeat=2):
            constraint = CliqueConstraint(m, n)
            expected = _reference_exists(v, constraint)
            reached = combinatorics._sweep(v, constraint)
            assert (reached == v) == expected
            if 1 in (m, n):
                assert expected is False
            # Short of v, the sweep reached the largest good order.
            if 0 < reached < v:
                assert _reference_exists(reached, constraint)
                assert not _reference_exists(reached + 1, constraint)

    @pytest.mark.parametrize("bits", [128, 256, 1024])
    def test_small_pieces(self, paley17, bits):
        # Each step of the sweep extends a parent of v vertices by the
        # piece the filter reads out of a truth table of 2^v bits.  On the
        # first v vertices of the Paley colouring, a (4,4)-good parent, the
        # piece must hold exactly the assignments whose extension by
        # _extend has no red or blue K_4 anywhere, and the Paley colouring's
        # own next vertex among them.
        v = bits.bit_length() - 1
        full = (1 << v) - 1
        paley = paley17.red_neighbors()
        red = tuple(r & full for r in paley[:v])
        constraint = CliqueConstraint(4, 4)
        piece = combinatorics._good_assignments(red, constraint)
        assert piece == [
            a for a in range(bits) if not combinatorics._has_forbidden(
                combinatorics._extend(red, a), constraint)]
        assert paley[v] & full in piece
        assert len(piece) < bits

    def test_one_filter_call_per_labelled_colouring(self, monkeypatch):
        for m, n, ramsey in ((3, 3, 6), (3, 4, 9), (3, 5, 14), (4, 4, 18)):
            for v in range(5, 9):
                assert combinatorics._sweep(
                    v, CliqueConstraint(m, n)) == min(v, ramsey - 1)
        # An UNSAT sweep extends every labelled good colouring of the orders
        # below the first empty one, so the (8; 3,3) sweep filters each
        # (3,3)-good colouring of k = 1..5 vertices exactly once.
        constraint = CliqueConstraint(3, 3)
        good = []
        for k in range(1, 6):
            for x in range(1 << k * (k - 1) // 2):
                coloring = EdgeColoring.from_mask(k, x)
                if not has_forbidden_clique(coloring, constraint):
                    good.append(tuple(coloring.red_neighbors()))
        assert [sum(len(red) == k for red in good) for k in range(1, 6)] == [
            1, 2, 6, 18, 12]
        filtered = []
        good_assignments = combinatorics._good_assignments

        def recording(red, *rest):
            filtered.append(tuple(red))
            return good_assignments(red, *rest)

        monkeypatch.setattr(combinatorics, "_good_assignments", recording)
        assert combinatorics._sweep(8, constraint) == 5
        assert sorted(filtered) == sorted(good)
        assert len(set(filtered)) == len(filtered) == 39

    @pytest.mark.parametrize("m,n,v_max,mode,expected,calls", [
        (3, 3, 8, "enumerate", 6, 39), (2, 8, 8, "enumerate", 8, 7),
        (3, 3, 10, "auto", 6, 48)],
        ids=["r33_enumerate", "r28_enumerate", "r33_auto"])
    def test_one_sweep_per_call(self, m, n, v_max, mode, expected, calls,
                                monkeypatch):
        # brute_force_ramsey answers every order from one sweep: the (3,3)
        # sweep to 8 filters the 39 labelled good colourings of orders 1
        # to 5 once each, and the (2,8) sweep the all-blue colouring of
        # each order 1 to 7.  The auto mode adds one filter call per
        # parent class of the walk (1, 2, 2, 3 and 1 at orders 1 to 5) to
        # the 39 of one sweep to its last order, 6.
        claim_cores(monkeypatch, 1)
        good_assignments = combinatorics._good_assignments
        filtered = []

        def recording(red, *rest):
            filtered.append(red)
            return good_assignments(red, *rest)

        monkeypatch.setattr(combinatorics, "_good_assignments", recording)
        assert brute_force_ramsey(CliqueConstraint(m, n), v_max,
                                  mode) == expected
        assert len(filtered) == calls

    def test_known_values_through_the_sweep(self):
        for k in range(2, 9):
            assert brute_force_ramsey(CliqueConstraint(2, k), 8,
                                      "enumerate") == k
        assert brute_force_ramsey(CliqueConstraint(3, 3), 8,
                                  "enumerate") == 6
        assert check_small(8, 3, 3) is False
        with pytest.raises(BudgetError) as info:
            brute_force_ramsey(CliqueConstraint(3, 4), 9, "enumerate")
        assert info.value.partial == 8

    def test_r2n_is_n(self):
        for n in (2, 3, 5, 7):
            assert brute_force_ramsey(CliqueConstraint(2, n), n + 1) == n

    def test_brute_force_r33_and_r34(self):
        assert brute_force_ramsey(CliqueConstraint(3, 3), 10) == 6
        assert brute_force_ramsey(CliqueConstraint(3, 4), 10, mode="glue") == 9

    def test_r35_is_14(self):
        constraint = CliqueConstraint(3, 5)
        assert brute_force_ramsey(constraint, 15) == 14
        assert exists_good_coloring(13, constraint, "glue")
        assert not exists_good_coloring(14, constraint, "glue")

    def test_unreached_returns_none(self):
        assert brute_force_ramsey(CliqueConstraint(3, 3), 5) is None

    def test_enumerate_budget_carries_partial(self):
        with pytest.raises(BudgetError) as info:
            brute_force_ramsey(CliqueConstraint(4, 4), 12, mode="enumerate")
        assert info.value.partial == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            brute_force_ramsey(CliqueConstraint(3, 3), 0)
        with pytest.raises(ValueError):
            brute_force_ramsey(CliqueConstraint(3, 3), 6, mode="magic")
        with pytest.raises(ValueError):
            CliqueConstraint(0, 3)


class TestCanonicalKey:
    def test_invariant_under_relabeling(self, pentagon, paley17):
        import random
        rng = random.Random(7)
        # Paley(17) beside an 18th vertex with only blue edges: past v = 17
        # a key column takes 3 bytes, not 2.
        paley18 = coloring_from_red_edges(18, [
            (i, j) for i, j in itertools.combinations(range(1, 18), 2)
            if paley17.is_red(i, j)])
        assert len(canonical_key(paley17)) == 2 + 16 * 3
        assert len(canonical_key(paley18)) == 2 + 17 * 4 == 70
        for coloring in (pentagon, paley17, paley18):
            key = canonical_key(coloring)
            for _ in range(30):
                perm = list(range(1, coloring.v + 1))
                rng.shuffle(perm)
                assert canonical_key(permute_coloring(coloring, perm)) == key

    @given(st.integers(min_value=2, max_value=6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_relabeling_property(self, v, data):
        e = v * (v - 1) // 2
        mask = data.draw(st.integers(min_value=0, max_value=(1 << e) - 1))
        perm = data.draw(st.permutations(list(range(1, v + 1))))
        coloring = EdgeColoring.from_mask(v, mask)
        assert canonical_key(coloring) == \
            canonical_key(permute_coloring(coloring, list(perm)))

    @pytest.mark.parametrize("v,expected", [(2, 2), (3, 4), (4, 11), (5, 34)])
    def test_class_counts_match_burnside(self, v, expected):
        if v > 2:
            assert burnside_class_count(v) == expected
        e = v * (v - 1) // 2
        keys = {canonical_key(EdgeColoring.from_mask(v, mask))
                for mask in range(1 << e)}
        assert len(keys) == expected

    def test_orbit_sizes_partition_the_cube(self):
        v = 4
        e = v * (v - 1) // 2
        orbits: dict[bytes, int] = {}
        for mask in range(1 << e):
            key = canonical_key(EdgeColoring.from_mask(v, mask))
            orbits[key] = orbits.get(key, 0) + 1
        assert sum(orbits.values()) == 1 << e
        # Every orbit size divides v! by orbit-stabiliser.
        assert all(math.factorial(v) % size == 0 for size in orbits.values())

    def test_equal_keys_certify_isomorphism(self):
        v = 5
        e = v * (v - 1) // 2
        by_key: dict[bytes, int] = {}
        import random
        rng = random.Random(3)
        for _ in range(200):
            mask = rng.randrange(1 << e)
            key = canonical_key(EdgeColoring.from_mask(v, mask))
            if key in by_key and by_key[key] != mask:
                first = EdgeColoring.from_mask(v, by_key[key])
                second = EdgeColoring.from_mask(v, mask)
                assert any(
                    permute_coloring(first, list(perm)) == second
                    for perm in itertools.permutations(range(1, v + 1)))
            else:
                by_key[key] = mask

    def test_budget(self):
        # The key search of a red cycle C_v grows about 3x per vertex: C16
        # takes 34,144 nodes and keys, C17 passes the 65,536-node budget.
        cycles = {v: coloring_from_red_edges(
            v, [(i, i % v + 1) for i in range(1, v + 1)]) for v in (16, 17)}
        assert len(canonical_key(cycles[16])) == 2 + 15 * 3
        with pytest.raises(BudgetError) as info:
            canonical_key(cycles[17])
        assert str(info.value) == ("canonical labelling at v=17 passed its "
                                   "budget of 65536 search nodes")
        assert info.value.partial is None


class TestReferenceKey:
    """The cell-wise search and count refinement give the old key bytes."""

    @pytest.mark.parametrize("m,n,v_max", [(3, 5, 9), (4, 4, 6)])
    def test_walk_children(self, m, n, v_max, monkeypatch):
        # Every order keyed, as the breadth-first oracle keys them.
        keyed = []
        key = combinatorics._adjacency_key

        def recording_key(red, *args):
            keyed.append(red)
            return key(red, *args)

        monkeypatch.setattr(combinatorics, "_adjacency_key", recording_key)
        _breadth_first(CliqueConstraint(m, n), v_max)
        monkeypatch.undo()
        assert keyed
        for red in keyed:
            _assert_matches_reference(red)

    @given(st.integers(min_value=1, max_value=9), st.data())
    @settings(max_examples=200, deadline=None)
    def test_sparse_and_dense_colourings(self, v, data):
        pairs = list(itertools.combinations(range(v), 2))
        edges = data.draw(st.sets(st.sampled_from(pairs)) if pairs
                          else st.just(set()), label="edges")
        if data.draw(st.booleans(), label="complement"):
            edges = set(pairs) - edges
        red = [0] * v
        for i, j in edges:
            red[i] |= 1 << j
            red[j] |= 1 << i
        _assert_matches_reference(red)

    @given(st.integers(min_value=2, max_value=6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_first_vertex_orbit(self, v, data):
        pairs = list(itertools.combinations(range(v), 2))
        edges = data.draw(st.sets(st.sampled_from(pairs)), label="edges")
        _assert_first_vertex_orbit(coloring_from_red_edges(
            v, [(i + 1, j + 1) for i, j in edges]).red_neighbors())

    @pytest.mark.parametrize("blue", [False, True], ids=["red", "blue"])
    def test_first_vertex_orbit_splits_a_cell(self, blue):
        # A triangle beside a 4-cycle is regular, so refinement leaves one
        # cell, but no automorphism maps a triangle vertex to the cycle.
        coloring = coloring_from_red_edges(
            7, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (6, 7), (4, 7)])
        red = coloring.red_neighbors()
        if blue:
            red = combinatorics._blue(red)
        assert _assert_first_vertex_orbit(red) in ({0, 1, 2}, {3, 4, 5, 6})

    def test_r35_v10_frontier_keys_pinned(self):
        keys = sorted(combinatorics._adjacency_key(red) for _, red, _ in
                      _breadth_first(CliqueConstraint(3, 5), 10)[-1])
        assert len(keys) == 313
        assert hashlib.sha256(b"".join(keys)).hexdigest() == (
            "b49c95bd265f020e876dacfacc550f20"
            "c9e59d7c672b3df33b28bacaf867c947")

    @pytest.mark.parametrize("blue", [False, True], ids=["red", "blue"])
    def test_one_edge_at_budget_is_fast(self, blue):
        import random
        import time
        v = 12
        single = coloring_from_red_edges(v, [(1, 2)])
        coloring = EdgeColoring(v=v, bits=tuple(b != blue for b in single.bits))
        start = time.perf_counter()
        key = canonical_key(coloring)
        assert time.perf_counter() - start < 1.0
        perm = list(range(1, v + 1))
        random.Random(12).shuffle(perm)
        assert canonical_key(permute_coloring(coloring, perm)) == key


class TestGlue:
    def test_extensions_are_good_and_restrict_back(self):
        constraint = CliqueConstraint(3, 3)
        parent = coloring_from_red_edges(3, [(1, 2)])
        assert not has_forbidden_clique(parent, constraint)
        children = glue_extensions(parent, constraint)
        assert children
        for child in children:
            assert child.v == 4
            assert not has_forbidden_clique(child, constraint)
            restricted_mask = 0
            for i, j in itertools.combinations(range(1, 4), 2):
                if child.is_red(i, j):
                    restricted_mask |= 1 << edge_index(i, j, 3)
            assert restricted_mask == parent.mask

    def test_rejects_bad_parent(self):
        constraint = CliqueConstraint(3, 3)
        triangle = coloring_from_red_edges(3, [(1, 2), (1, 3), (2, 3)])
        with pytest.raises(ValueError):
            glue_extensions(triangle, constraint)

    def test_frontier_profile_r33(self):
        assert frontier_profile(CliqueConstraint(3, 3), 8) == (
            (1, 1), (2, 2), (3, 2), (4, 3), (5, 1), (6, 0))

    def test_frontier_profile_r34(self):
        assert frontier_profile(CliqueConstraint(3, 4), 12) == (
            (1, 1), (2, 2), (3, 3), (4, 6), (5, 9), (6, 15), (7, 9),
            (8, 3), (9, 0))
        # Known class counts of good colourings up to R(3,5) = 14 and
        # below R(4,4).
        known = {(3, 5): tuple(count for _, count in _R35),
                 (4, 4): (1, 2, 4, 9, 24, 84, 362, 2079)}
        for (m, n), counts in known.items():
            assert frontier_profile(CliqueConstraint(m, n), len(counts)) == \
                tuple(enumerate(counts, start=1))

    def test_budget_error_carries_finished_profile(self, monkeypatch):
        # The largest key search of the (3,4) walk takes 10 nodes at v=6
        # and v=7 and 14 at v=8, so a budget of 10 stops it at v=8.
        monkeypatch.setattr(combinatorics, "_KEY_NODE_BUDGET", 10)
        with pytest.raises(BudgetError) as info:
            frontier_profile(CliqueConstraint(3, 4), 9)
        assert str(info.value) == ("canonical labelling at v=8 passed its "
                                   "budget of 10 search nodes")
        assert info.value.partial == (
            (1, 1), (2, 2), (3, 3), (4, 6), (5, 9), (6, 15), (7, 9))

    @pytest.mark.parametrize("m,n,v_max", _ORACLE_WALKS)
    def test_walk_matches_per_assignment_oracle(self, m, n, v_max):
        # Representatives are the first children the walk accepts, not the
        # oracle's first children, so the two are compared by their keys.
        constraint = CliqueConstraint(m, n)
        parents = [(0,)]
        for order in _breadth_first(constraint, v_max):
            expected = _reference_next_frontier(parents, constraint)
            parents = [red for _, red, _ in order]
            assert [combinatorics._adjacency_key(red) for red in parents] == \
                [combinatorics._adjacency_key(red) for red in expected]

    @pytest.mark.parametrize("pooled", [False, True],
                             ids=["serial", "pooled"])
    @pytest.mark.parametrize("m,n,v_max", _ORACLE_WALKS)
    def test_depth_first_matches_breadth_first(self, m, n, v_max, pooled,
                                               monkeypatch):
        # The walk counts every order below its split depth-first, in one
        # pool call on one core or two, and on two with the workers'
        # chunks; its profile is the breadth-first one.
        constraint = CliqueConstraint(m, n)
        expected = _oracle_profile(constraint, v_max)
        forks = claim_cores(monkeypatch, 2 if pooled else 1)
        assert frontier_profile(constraint, v_max) == expected
        big = _pool._CHUNKS_PER_PROCESS * 2
        assert bool(forks) == (pooled and any(
            count >= big for v, count in expected if v < v_max))

    @pytest.mark.parametrize("pooled", [False, True],
                             ids=["serial", "pooled"])
    @pytest.mark.parametrize("m,n,v_max", _ORACLE_WALKS)
    def test_last_order_count_matches_keyed(self, m, n, v_max, pooled,
                                            monkeypatch):
        # Each order of the walk, taken as its last, is counted without
        # keys; the count must be the number of classes the keyed step
        # gives at that order.
        claim_cores(monkeypatch, 2 if pooled else 1)
        constraint = CliqueConstraint(m, n)
        parents = [((0,), ())]
        for v, order in enumerate(_breadth_first(constraint, v_max),
                                  start=2):
            assert combinatorics._children(parents, constraint,
                                           count=True) == [len(order)]
            assert frontier_profile(constraint, v)[-1] == (v, len(order))
            parents = [(red, generators) for _, red, generators in order]

    @pytest.mark.parametrize("pooled", [False, True],
                             ids=["serial", "pooled"])
    @pytest.mark.parametrize("m,n,v,budget,partial", [
        (3, 3, 4, 1, ((1, 1), (2, 2), (3, 2))),
        (3, 4, 7, 9, ((1, 1), (2, 2), (3, 3), (4, 6), (5, 9))),
        (3, 5, 8, 10,
         ((1, 1), (2, 2), (3, 3), (4, 7), (5, 13), (6, 32), (7, 71))),
        (4, 4, 5, 3, ((1, 1), (2, 2), (3, 4), (4, 9)))],
        ids=["r33_v4", "r34_v7", "r35_v8", "r44_v5"])
    def test_counted_order_past_the_cap(self, m, n, v, budget, partial,
                                        pooled, monkeypatch):
        # A node budget below some key search stops the walk at the first
        # order that has one: the counted last order v, or for (3,4) the
        # keyed order 6, whose largest search takes 10 nodes.  The error
        # is the key search's, it carries the orders before, and a walk to
        # the last of them finishes within the same budget.  Serially, with
        # no worker between, it is raised in the search that ``_children``
        # started.
        monkeypatch.setattr(combinatorics, "_KEY_NODE_BUDGET", budget)
        claim_cores(monkeypatch, 2 if pooled else 1)
        constraint = CliqueConstraint(m, n)
        with pytest.raises(BudgetError) as info:
            frontier_profile(constraint, v)
        assert str(info.value) == (
            f"canonical labelling at v={len(partial) + 1} passed its "
            f"budget of {budget} search nodes")
        assert info.value.partial == partial
        assert frontier_profile(constraint, len(partial)) == partial
        if pooled:
            return
        frames = [frame.name for frame in
                  traceback.extract_tb(info.value.__cause__.__traceback__)]
        assert frames[-1] == "search"
        assert frames[frames.index("_adjacency_key") - 1] == "_children"

    @pytest.mark.parametrize("red,route", [
        ((6, 9, 17, 18, 12), "degree"),
        ((22, 9, 9, 38, 1, 8), "refinement")], ids=["red_c5", "v6"])
    def test_shortcut_children(self, red, route, monkeypatch):
        # Under (3,5), every child of these parents that passes tests 1 to
        # 3 is taken by ``route`` (two children each): they are counted
        # with no key search, so even a budget of 0 nodes counts them,
        # while keying them passes that budget.  Refinement leaves a new
        # vertex alone in cell 0 only on the refinement route.
        constraint = CliqueConstraint(3, 5)
        generators = set()
        combinatorics._adjacency_key(red, None, None, generators)
        parents = [(red, tuple(sorted(generators)))]
        v = len(red) + 1
        assert len(combinatorics._children(parents, constraint)) == 2
        key = combinatorics._adjacency_key
        refine = combinatorics._refined_colors
        alone = []

        def no_key(child, *args):
            assert len(child) != v, "key search at the counted order"
            return key(child, *args)

        def recording(child, *args):
            colors = refine(child, *args)
            if len(child) == v:
                alone.append(colors[-1] == 0 and colors.count(0) == 1)
            return colors

        monkeypatch.setattr(combinatorics, "_adjacency_key", no_key)
        monkeypatch.setattr(combinatorics, "_refined_colors", recording)
        monkeypatch.setattr(combinatorics, "_KEY_NODE_BUDGET", 0)
        assert combinatorics._children(parents, constraint,
                                       count=True) == [2]
        assert any(alone) == (route == "refinement")
        monkeypatch.setattr(combinatorics, "_adjacency_key", key)
        with pytest.raises(BudgetError) as info:
            combinatorics._children(parents, constraint)
        assert str(info.value) == (f"canonical labelling at v={v} passed "
                                   "its budget of 0 search nodes")
        assert info.value.partial is None

    def test_counted_order_past_the_cap_without_children(self, monkeypatch):
        # No child of the (3,4) v=8 classes passes tests 1 to 3, so the
        # walk's last order runs no key search and ends on a count of 0,
        # as it did when keyed.  Its largest search, at v=8, takes 14
        # nodes: that budget finishes the walk, and 13 stops it at v=8.
        key = combinatorics._adjacency_key
        keyed = []

        def recording(red, *args):
            keyed.append(len(red))
            return key(red, *args)

        monkeypatch.setattr(combinatorics, "_adjacency_key", recording)
        monkeypatch.setattr(combinatorics, "_KEY_NODE_BUDGET", 14)
        assert frontier_profile(CliqueConstraint(3, 4), 9)[-1] == (9, 0)
        assert max(keyed) == 8
        monkeypatch.setattr(combinatorics, "_KEY_NODE_BUDGET", 13)
        with pytest.raises(BudgetError) as info:
            frontier_profile(CliqueConstraint(3, 4), 9)
        assert info.value.partial[-1] == (7, 9)

    @pytest.mark.parametrize("m,n,v,count,digest", [
        (3, 5, 10, 313, "b49c95bd265f020e876dacfacc550f20"
                        "c9e59d7c672b3df33b28bacaf867c947"),
        (4, 4, 7, 362, "f483efe6631074c402a1b0cf53752a83"
                       "e238fa7d449b5a63bbaf54bdcc5d0196")],
        ids=["r35_v10", "r44_v7"])
    def test_frontier_digest(self, m, n, v, count, digest):
        # SHA-256 of the order's sorted canonical keys, as walked by the
        # per-child keying that canonical augmentation replaced.
        keys = sorted(combinatorics._adjacency_key(red) for _, red, _ in
                      _breadth_first(CliqueConstraint(m, n), v)[-1])
        assert len(keys) == count
        assert hashlib.sha256(b"".join(keys)).hexdigest() == digest

    @pytest.mark.parametrize("v,edges", [
        (3, []),
        (5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]),
        (4, [(1, 2), (3, 4)])],
        ids=["empty_k3", "red_c5", "red_matching"])
    def test_extensions_of_symmetric_parents(self, v, edges):
        # Automorphisms of the parent map assignments to isomorphic
        # children; glue_extensions keeps exactly one child per class.
        constraint = CliqueConstraint(3, 4)
        parent = coloring_from_red_edges(v, edges)
        expected = _reference_next_frontier([parent.red_neighbors()],
                                            constraint)
        assert len(expected) < len(combinatorics._good_assignments(
            parent.red_neighbors(), constraint))
        assert glue_extensions(parent, constraint) == [
            combinatorics._to_coloring(red) for red in expected]

    def test_frontier_complete_against_exhaustive_classes(self):
        # Every canonical class of good colourings at order v must appear
        # in the frontier; compare counts against a direct sweep.
        constraint = CliqueConstraint(3, 3)
        for v in (2, 3, 4, 5):
            e = v * (v - 1) // 2
            keys = set()
            for mask in range(1 << e):
                coloring = EdgeColoring.from_mask(v, mask)
                if not has_forbidden_clique(coloring, constraint):
                    keys.add(canonical_key(coloring))
            profile = dict(frontier_profile(constraint, v))
            assert profile[v] == len(keys)


def _automorphisms(red) -> list[tuple[int, ...]]:
    """Every vertex permutation that preserves the red adjacency."""
    v = len(red)
    return [perm for perm in itertools.permutations(range(v))
            if all((red[perm[u]] >> perm[w] & 1) == (red[u] >> w & 1)
                   for u in range(v) for w in range(u + 1, v))]


def _subset_orbits(v: int, images) -> set[frozenset]:
    """Orbits of the vertex masks of 0..v-1 under the permutations
    ``images`` (each a sequence of images), closed under composition."""
    maps = []
    for perm in images:
        # The image of every mask, each from the mask without its low bit.
        image = [0] * (1 << v)
        for b in range(1, 1 << v):
            low = b & -b
            image[b] = image[b ^ low] | 1 << perm[low.bit_length() - 1]
        maps.append(image)
    orbits, seen = set(), set()
    for a in range(1 << v):
        if a in seen:
            continue
        orbit, stack = {a}, [a]
        while stack:
            b = stack.pop()
            for image in maps:
                c = image[b]
                if c not in orbit:
                    orbit.add(c)
                    stack.append(c)
        seen |= orbit
        orbits.add(frozenset(orbit))
    return orbits


def _assert_generators_complete(red):
    """The generators recorded by the key search, with no start vertex and
    with each accepted one, give the brute-force orbits on vertex subsets."""
    v = len(red)
    auts = set(_automorphisms(red))
    expected = _subset_orbits(v, auts)
    colors = combinatorics._refined_colors(red, v)
    for first in [None] + [u for u in range(v) if colors[u] == 0]:
        generators = set()
        key = combinatorics._adjacency_key(red, colors, first, generators)
        if key is None:
            continue
        assert all(tuple(perm) in auts for perm in generators)
        moves = combinatorics._moves(generators)
        assert {frozenset(combinatorics._orbit(a, moves))
                for a in range(1 << v)} == expected


class TestOrbitPruning:
    """Automorphism generators from the key search prune the walk."""

    @given(st.integers(min_value=1, max_value=7), st.data())
    @settings(max_examples=40, deadline=None)
    def test_generators_complete_on_random_colourings(self, v, data):
        pairs = list(itertools.combinations(range(1, v + 1), 2))
        edges = data.draw(st.sets(st.sampled_from(pairs)) if pairs
                          else st.just(set()), label="edges")
        _assert_generators_complete(
            coloring_from_red_edges(v, edges).red_neighbors())

    @pytest.mark.parametrize("edges", [
        [], [(1, 2), (3, 4), (5, 6)],
        [(i, j) for i in (1, 2, 3) for j in (4, 5, 6)]],
        ids=["empty_k6", "red_matching", "red_k33"])
    def test_generators_complete_on_twin_heavy_colourings(self, edges):
        red = coloring_from_red_edges(6, edges).red_neighbors()
        _assert_generators_complete(red)
        _assert_generators_complete(combinatorics._blue(red))

    def test_trivial_group_has_no_generators(self):
        # A red path 1-2-3-4-5 with a triangle 2-3-6 has no symmetry.
        generators = set()
        red = coloring_from_red_edges(
            6, [(1, 2), (2, 3), (3, 4), (4, 5), (2, 6), (3, 6)]).red_neighbors()
        assert _automorphisms(red) == [tuple(range(6))]
        combinatorics._adjacency_key(red, None, None, generators)
        assert generators == set()

    def test_every_accepted_key_is_a_new_class(self, monkeypatch):
        # Every order keyed by the breadth-first oracle, so the wrapper
        # sees every key in this process; the walk's own profile, whose
        # last order is counted, must add up to the same number of classes.
        accepted = []
        key = combinatorics._adjacency_key

        def counting_key(red, *args):
            out = key(red, *args)
            if out is not None:
                accepted.append(out)
            return out

        monkeypatch.setattr(combinatorics, "_adjacency_key", counting_key)
        _breadth_first(CliqueConstraint(3, 5), 10)
        monkeypatch.undo()
        assert len(set(accepted)) == len(accepted) == 910
        profile = frontier_profile(CliqueConstraint(3, 5), 10)
        assert sum(count for _, count in profile[1:]) == 910

    @given(st.integers(min_value=2, max_value=9), st.data())
    @settings(max_examples=100, deadline=None)
    def test_refinement_early_exit(self, v, data):
        pairs = list(itertools.combinations(range(1, v + 1), 2))
        edges = data.draw(st.sets(st.sampled_from(pairs)), label="edges")
        red = coloring_from_red_edges(v, edges).red_neighbors()
        first = data.draw(st.integers(min_value=0, max_value=v - 1),
                          label="first")
        full = combinatorics._refined_colors(red, v)
        early = combinatorics._refined_colors(red, v, first)
        assert (early[first] == 0) == (full[first] == 0)
        if full[first] == 0:
            assert early == full


def _red(v: int, edges) -> list[int]:
    """Red adjacency masks of the graph on 0..v-1 with ``edges``."""
    red = [0] * v
    for i, j in edges:
        red[i] |= 1 << j
        red[j] |= 1 << i
    return red


def _circulant(v: int, steps) -> list[int]:
    return _red(v, [(i, (i + s) % v) for i in range(v) for s in steps])


def _paley9() -> list[int]:
    """Paley graph on GF(9) = GF(3)[i], i^2 = -1: a + bi is vertex 3a + b,
    adjacent when the difference is a nonzero square."""
    def mul(x, y):
        (a, b), (c, d) = x, y
        return (a * c - b * d) % 3, (a * d + b * c) % 3

    field = [(a, b) for a in range(3) for b in range(3)]
    squares = {mul(x, x) for x in field} - {(0, 0)}
    return _red(9, [(3 * a + b, 3 * c + d)
                    for (a, b), (c, d) in itertools.combinations(field, 2)
                    if ((a - c) % 3, (b - d) % 3) in squares])


def _petersen() -> list[int]:
    """The Kneser graph K(5, 2): pairs of 0..4, adjacent when disjoint."""
    pairs = list(itertools.combinations(range(5), 2))
    return _red(10, [(a, b) for a, b in itertools.combinations(range(10), 2)
                     if not set(pairs[a]) & set(pairs[b])])


def _group_order(v: int, generators) -> int:
    """Order of the group ``generators`` generate, by closure from the
    identity."""
    identity = tuple(range(v))
    group, stack = {identity}, [identity]
    while stack:
        g = stack.pop()
        for h in generators:
            gh = tuple(h[g[u]] for u in range(v))
            if gh not in group:
                group.add(gh)
                stack.append(gh)
    return len(group)


class TestAutomorphismPruning:
    """Jump-back and stabiliser-orbit pruning keep the keys, the start-vertex
    answers and the group of the twin-only search."""

    @given(st.integers(min_value=1, max_value=10), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_twin_only_search(self, v, data):
        pairs = list(itertools.combinations(range(v), 2))
        edges = data.draw(st.sets(st.sampled_from(pairs)) if pairs
                          else st.just(set()), label="edges")
        if data.draw(st.booleans(), label="complement"):
            edges = set(pairs) - edges
        red = _red(v, edges)
        colors = _reference_refined_colors(red, v)
        assert combinatorics._refined_colors(red, v) == colors
        generators, expected = set(), set()
        key = combinatorics._adjacency_key(red, None, None, generators)
        assert key == _reference_adjacency_key(red, None, None, expected)
        orbits = _subset_orbits(v, expected)
        assert _subset_orbits(v, generators) == orbits
        for first in range(v):
            assert combinatorics._refined_colors(red, v, first) == \
                _reference_refined_colors(red, v, first)
            if colors[first]:
                continue
            generators = set()
            out = combinatorics._adjacency_key(red, colors, first, generators)
            assert out == _reference_adjacency_key(red, colors, first)
            if out is not None:
                assert _subset_orbits(v, generators) == orbits

    @pytest.mark.parametrize("red", [
        _circulant(7, [1]), _circulant(8, [1]),
        _red(8, [(u, u ^ bit) for u in range(8) for bit in (1, 2, 4)]),
        _circulant(8, [1, 2])], ids=["c7", "c8", "cube", "c8_1_2"])
    def test_generators_complete_without_twins(self, red):
        # No two vertices have the same neighbours apart from each other,
        # so twin pruning never fires and only the new pruning can.
        assert not any(not (red[u] ^ red[w]) & ~(1 << u | 1 << w)
                       for u, w in itertools.combinations(range(len(red)), 2))
        _assert_generators_complete(red)

    @pytest.mark.parametrize("red,order", [
        (_petersen(), 120),
        (_circulant(10, [1]), 20), (_paley9(), 72)],
        ids=["petersen", "c10", "paley9"])
    def test_group_order(self, red, order):
        for colouring in (red, combinatorics._blue(red)):
            generators = set()
            combinatorics._adjacency_key(colouring, None, None, generators)
            assert _group_order(len(red), generators) == order
            # The twin-only search recorded one automorphism per leaf equal
            # to the least, order - 1 of them here; the pruned search jumps
            # back from each and records no more than log2 of the order.
            assert len(generators) <= math.log2(order)


_R35_V10 = ((1, 1), (2, 2), (3, 3), (4, 7), (5, 13), (6, 32), (7, 71),
            (8, 179), (9, 290), (10, 313))
_R35 = _R35_V10 + ((11, 105), (12, 12), (13, 1), (14, 0))


class TestParallelWalk:
    """A walk with a big order counts the subtrees below its split order in
    one pool call, with one worker per extra core; the output must not show
    it, and no worker may outlive the walk."""

    @staticmethod
    def assert_no_children():
        # Covers running children and unreaped zombies alike.
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.fixture
    def time_limit(self):
        # A pool that deadlocks fails the test instead of hanging the run;
        # the pool's ``finally`` kills the workers on the way out.
        def expire(signum, frame):
            raise TimeoutError("pooled walk still running after 60 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    @staticmethod
    def record_runs(monkeypatch) -> list:
        """Record ``(items, processes, results)`` of every pool call."""
        run = _pool.run
        recorded = []

        def recording(work, items, processes):
            out = run(work, items, processes)
            recorded.append((items, processes, out))
            return out

        monkeypatch.setattr(_pool, "run", recording)
        return recorded

    @pytest.mark.parametrize("m,n,v_max,final,split", [
        (3, 5, 12, (12, 12), 7), (3, 5, 14, (14, 0), 7),
        (4, 4, 8, (8, 2079), 6)],
        ids=["r35_v12", "r35_v14", "r44_v8"])
    def test_parallel_matches_serial(self, m, n, v_max, final, split,
                                     monkeypatch):
        # Two cores split one order below the first of 32 parents, or at
        # it when fewer than two orders would remain below (one core keys
        # to the same rule with 16).  The chunks' count vectors are those
        # of the same chunks walked here, and they add up to the one-core
        # profile.
        constraint = CliqueConstraint(m, n)
        claim_cores(monkeypatch, 1)
        serial = frontier_profile(constraint, v_max)
        assert serial[-1] == final
        claim_cores(monkeypatch, 2)
        recorded = self.record_runs(monkeypatch)
        assert frontier_profile(constraint, v_max) == serial
        self.assert_no_children()
        (parents, processes, chunks), = recorded
        assert processes == 2
        # Representatives with their generators, not only their keys.
        assert sorted(parents) == sorted(
            (red, generators) for _, red, generators in
            _breadth_first(constraint, split)[-1])
        expected = [combinatorics._counts_below(
            parents[i::len(chunks)], constraint, v_max)[0][0]
            for i in range(len(chunks))]
        assert sorted(c for c, _, _, _ in chunks) == sorted(expected)
        assert {(f, e, t) for _, f, e, t in chunks} == \
            {(v_max + 1, None, None)}
        assert [sum(column) for column in zip(*expected)] == \
            [count for _, count in serial[split:]]

    @pytest.mark.parametrize("m,n,v_max,split", [
        (3, 3, 6, 5), (3, 5, 12, 7), (4, 4, 8, 6)],
        ids=["r33_v6", "r35_v12", "r44_v8"])
    def test_one_core_counts_the_split_order_inline(self, m, n, v_max, split,
                                                    monkeypatch):
        # One core keys orders to the same split rule as more, with 16
        # parents: one below the first order of 16, or the last order but
        # one when none is that big.  Then one pool call of one process
        # counts the split order's subtrees here, forking nothing.
        constraint = CliqueConstraint(m, n)
        forks = claim_cores(monkeypatch, 1)
        recorded = self.record_runs(monkeypatch)
        assert frontier_profile(constraint, v_max) == \
            _oracle_profile(constraint, v_max)
        (parents, processes, chunks), = recorded
        assert processes == 1 and forks == []
        assert sorted(parents) == sorted(
            (red, generators) for _, red, generators in
            _breadth_first(constraint, split)[-1])
        assert chunks == combinatorics._counts_below(parents, constraint,
                                                     v_max)

    @pytest.mark.parametrize("processes", [3, 4])
    def test_pools_larger_than_the_core_count(self, processes, monkeypatch,
                                              time_limit):
        # More processes than this box may have cores: each walk forks one
        # worker per extra process, and the profile is the serial one.
        forks = claim_cores(monkeypatch, processes)
        recorded = self.record_runs(monkeypatch)
        for m, n, v_max in ((3, 5, 10), (4, 4, 7)):
            constraint = CliqueConstraint(m, n)
            assert frontier_profile(constraint, v_max) == \
                _oracle_profile(constraint, v_max)
            self.assert_no_children()
        assert [used for _, used, _ in recorded] == [processes] * 2
        assert len(forks) == 2 * (processes - 1)

    def test_pipe_buf_bounds_the_pool(self, monkeypatch, time_limit):
        # A PIPE_BUF that holds the tokens of two processes, no more: a
        # four-core walk starts one worker, and the walk is unchanged.
        tokens = 2 * (_pool._CHUNKS_PER_PROCESS + 1)
        monkeypatch.setattr(os, "fpathconf",
                            lambda fd, name: 3 * tokens - 1)
        forks = claim_cores(monkeypatch, 4)
        assert frontier_profile(CliqueConstraint(3, 5), 10) == _R35_V10
        assert len(forks) == 1
        self.assert_no_children()

    def test_chunks_grow_with_the_level(self, monkeypatch, time_limit):
        # A walk pools only a split order of at least 16 parents per
        # process, and cuts it into 16 chunks per process; a shorter list
        # goes in one chunk per item.  Chunk i holds every chunks-th item
        # from the i-th.
        for processes, split in ((2, [32, 71, 84]), (3, [71, 179, 84])):
            claim_cores(monkeypatch, processes)
            recorded = self.record_runs(monkeypatch)
            for m, n, v_max in ((3, 5, 8), (3, 5, 10), (4, 4, 7)):
                constraint = CliqueConstraint(m, n)
                assert frontier_profile(constraint, v_max) == \
                    _oracle_profile(constraint, v_max)
            assert [len(parents) for parents, _, _ in recorded] == split
            assert {len(chunks) for _, _, chunks in recorded} == \
                {16 * processes}
            assert sorted(_pool.run(lambda items: [items], list(range(5)),
                                    processes)) == \
                [[i] for i in range(5)]
            assert sorted(_pool.run(lambda items: [items], list(range(100)),
                                    processes)) == \
                [list(range(i, 100, 16 * processes))
                 for i in range(16 * processes)]
            self.assert_no_children()
            monkeypatch.undo()

    def test_budget_error_in_worker(self, monkeypatch):
        # Forked children inherit the patched key search, which sets the
        # node budget to 0 in a worker only, so only the workers' chunks of
        # the subtrees below v=7 fail, at v=8.  A chunk returns its error
        # with its counts and its traceback text, and the walk raises it
        # with that text chained as its cause.
        main = os.getpid()
        key = combinatorics._adjacency_key

        def budget_in_child(red, *args):
            if os.getpid() != main:
                combinatorics._KEY_NODE_BUDGET = 0
            return key(red, *args)

        monkeypatch.setattr(combinatorics, "_adjacency_key", budget_in_child)
        claim_cores(monkeypatch, 2)
        with pytest.raises(BudgetError) as info:
            frontier_profile(CliqueConstraint(3, 5), 11)
        assert info.value.partial == _R35_V10[:7]
        child_error = info.value.__cause__
        assert isinstance(child_error, BudgetError)
        assert str(info.value) == str(child_error) == (
            "canonical labelling at v=8 passed its budget of 0 search nodes")
        # Only an error that came back pickled has its traceback as text.
        assert child_error.__traceback__ is None
        assert str(child_error.__cause__).startswith("in a glue chunk:\n")
        assert "in _children" in str(child_error.__cause__)
        assert "budget_in_child" in str(child_error.__cause__)
        assert "in search" in str(child_error.__cause__)
        self.assert_no_children()

    def test_unpicklable_results_in_worker(self, tmp_path, time_limit):
        # Results that do not pickle are sent as the worker's pickling
        # error, with its traceback as the cause, not lost with a worker
        # that ends without its results.  This process waits in its first
        # chunk until the worker has claimed one.
        main = os.getpid()
        claimed = tmp_path / "claimed"

        def work(items):
            if os.getpid() != main:
                claimed.touch()
                return [lambda: None]
            deadline = time.monotonic() + 30
            while not claimed.exists() and time.monotonic() < deadline:
                time.sleep(0.005)
            return items

        with pytest.raises((AttributeError, pickle.PicklingError)) as info:
            _pool.run(work, list(range(4)), 2)
        assert "pickle" in str(info.value)
        assert re.match(r"in glue worker \d+:\n", str(info.value.__cause__))
        self.assert_no_children()

    def test_unpicklable_error_in_worker(self, tmp_path, monkeypatch,
                                         time_limit):
        # An exception of a class defined in a function does not pickle:
        # the worker sends a stand-in with its type name, its message and
        # its traceback, and the walk raises that.  This process waits in
        # its first chunk until the worker has raised.
        class LocalError(Exception):
            pass

        main = os.getpid()
        raised = tmp_path / "raised"
        counts_below = combinatorics._counts_below

        def failing(parents, constraint, v_max):
            if os.getpid() != main:
                raised.touch()
                raise LocalError("not picklable")
            deadline = time.monotonic() + 30
            while not raised.exists() and time.monotonic() < deadline:
                time.sleep(0.005)
            return counts_below(parents, constraint, v_max)

        monkeypatch.setattr(combinatorics, "_counts_below", failing)
        claim_cores(monkeypatch, 2)
        fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(_pool.WorkerError) as info:
            frontier_profile(CliqueConstraint(3, 5), 10)
        error = info.value
        assert error.type_name == f"{__name__}.{LocalError.__qualname__}"
        assert error.message == "not picklable"
        assert "LocalError: not picklable" in error.traceback_text
        assert "in failing" in error.traceback_text
        assert re.match(r"in glue worker \d+:\n", str(error.__cause__))
        assert error.traceback_text in str(error.__cause__)
        self.assert_no_children()
        assert len(os.listdir("/proc/self/fd")) == fds

    def test_budget_error_in_own_chunk(self, monkeypatch, time_limit):
        # Three processes split the (3,5) walk at v=8, and the node budget
        # is 0 for this process's searches below it, so this process's
        # chunks fail at v=9 while the workers' succeed: the partial
        # profile survives and every worker is reaped.
        main = os.getpid()
        key = combinatorics._adjacency_key
        budget = combinatorics._KEY_NODE_BUDGET

        def budget_here(red, *args):
            here = os.getpid() == main and len(red) > 8
            combinatorics._KEY_NODE_BUDGET = 0 if here else budget
            return key(red, *args)

        # Restores the budget after the test.
        monkeypatch.setattr(combinatorics, "_KEY_NODE_BUDGET", budget)
        monkeypatch.setattr(combinatorics, "_adjacency_key", budget_here)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(BudgetError) as info:
            frontier_profile(CliqueConstraint(3, 5), 11)
        assert info.value.partial == _R35_V10[:8]
        # Raised here, so the error keeps its own traceback.
        assert info.value.__cause__.__traceback__ is not None
        assert str(info.value) == ("canonical labelling at v=9 passed its "
                                   "budget of 0 search nodes")
        self.assert_no_children()
        assert len(os.listdir("/proc/self/fd")) == fds

    @pytest.mark.parametrize("call,failing,workers", [
        ("fork", 1, 0), ("fork", 2, 1), ("pipe", 1, 0), ("pipe", 2, 0),
        ("pipe", 3, 1), ("pipe", 4, 2)],
        ids=["fork-1", "fork-2", "pipe-1", "pipe-2", "pipe-3", "pipe-4"])
    def test_failed_fork_computes_share_here(self, call, failing, workers,
                                             monkeypatch):
        # A pool of four processes makes its token pipe, then a result
        # pipe and a fork per worker.  The ``failing``-th os.fork or
        # os.pipe call of the walk raises EAGAIN; the pool keeps the
        # ``workers`` it started, and this process claims the chunks they
        # leave.
        forks = claim_cores(monkeypatch, 4)
        real = getattr(os, call)
        calls = []

        def refusing():
            calls.append(None)
            if len(calls) == failing:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return real()

        monkeypatch.setattr(os, call, refusing)
        fds = len(os.listdir("/proc/self/fd"))
        assert frontier_profile(CliqueConstraint(3, 5), 10) == _R35_V10
        # The walk calls the pool once, and it stops at the failed call.
        assert len(calls) == failing
        assert len(forks) == workers
        self.assert_no_children()
        assert len(os.listdir("/proc/self/fd")) == fds

    def test_dead_worker_raises(self):
        # A child that exits in its chunk must fail the walk, not hang it;
        # run in a fresh interpreter so a hang is cut off by the timeout.
        # On two cores the (3,5) walk to v=8 pools its 32 classes of v=6.
        script = """
import os
from ramsey_toolkit import CliqueConstraint, frontier_profile

os.sched_getaffinity = lambda pid: {0, 1}

class ExitsInWorker(CliqueConstraint):
    def __getattribute__(self, name):
        if name == "m" and os.getpid() != MAIN:
            os._exit(3)
        return super().__getattribute__(name)

MAIN = os.getpid()
try:
    print(frontier_profile(ExitsInWorker(3, 5), 8)[-1])
except RuntimeError as exc:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print("no children:", exc)
"""
        result = subprocess.run([sys.executable, "-c", script],
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert re.fullmatch(r"no children: glue worker \d+ ended with "
                            r"status 3 without its counts\n", result.stdout)

    def test_error_in_own_share_kills_child(self, tmp_path, monkeypatch):
        # The worker sleeps in the first chunk it claims until it is
        # killed, and this process's chunk raises once the worker is
        # asleep: the walk must kill and reap the worker rather than wait
        # for it.
        main = os.getpid()
        started = tmp_path / "started"

        def share(parents, constraint, v_max):
            if os.getpid() != main:
                (tmp_path / "pid").write_text(str(os.getpid()))
                os.replace(tmp_path / "pid", started)
                time.sleep(60)
            deadline = time.monotonic() + 30
            while not started.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            raise ValueError("own share failed")

        monkeypatch.setattr(combinatorics, "_counts_below", share)
        claim_cores(monkeypatch, 2)
        begin = time.monotonic()
        with pytest.raises(ValueError, match="own share failed"):
            frontier_profile(CliqueConstraint(3, 5), 10)
        assert time.monotonic() - begin < 30
        self.assert_no_children()
        with pytest.raises(ProcessLookupError):
            os.kill(int(started.read_text()), 0)

    @pytest.mark.parametrize("stall", ["chunk"])
    def test_killed_main_leaves_no_worker(self, stall, tmp_path):
        # The main process stops in its first chunk and is killed with
        # SIGKILL.  Its workers hold each chunk until it has stalled, so
        # they cannot claim all 48 chunks before it claims one, and then
        # take half a second per chunk, so the chunks left would keep them
        # busy for over ten seconds.  An orphan must stop at its next claim
        # instead.
        script = """
import os, sys, time
from ramsey_toolkit import CliqueConstraint, combinatorics, frontier_profile

MAIN = os.getpid()
GATE = sys.argv[1]
fork, counts_below = os.fork, combinatorics._counts_below

def announcing_fork():
    pid = fork()
    if pid:
        print("worker", pid, flush=True)
    return pid

def stalling(parents, constraint, v_max):
    if os.getpid() == MAIN:
        open(GATE, "w").close()
        print("stalled", flush=True)
        time.sleep(120)
    deadline = time.monotonic() + 60
    while not os.path.exists(GATE) and time.monotonic() < deadline:
        time.sleep(0.001)
    time.sleep(0.5)
    return counts_below(parents, constraint, v_max)

os.fork = announcing_fork
combinatorics._counts_below = stalling
os.sched_getaffinity = lambda pid: {0, 1, 2}
frontier_profile(CliqueConstraint(3, 5), 10)
"""
        proc = subprocess.Popen([sys.executable, "-c", script,
                                 str(tmp_path / stall)],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT)
        try:
            out = b""
            deadline = time.monotonic() + 60
            while b"stalled\n" not in out:
                ready, _, _ = select.select([proc.stdout], [], [],
                                            max(0, deadline - time.monotonic()))
                chunk = os.read(proc.stdout.fileno(), 4096) if ready else b""
                assert chunk, out.decode()
                out += chunk
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
        workers = [int(pid) for pid in re.findall(rb"^worker (\d+)$", out,
                                                   re.MULTILINE)]
        assert len(workers) == 2, out.decode()

        def alive(pid):
            # An orphan's zombie is dead, whether or not it is reaped yet.
            try:
                with open(f"/proc/{pid}/stat") as stat:
                    return stat.read().rsplit(")", 1)[1].split()[0] not in \
                        ("Z", "X")
            except FileNotFoundError:
                return False

        deadline = time.monotonic() + 5
        while any(map(alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        left = [pid for pid in workers if alive(pid)]
        for pid in left:
            os.kill(pid, signal.SIGKILL)
        assert not left

    def test_live_thread_walks_serially(self, monkeypatch, time_limit):
        # A forked child of a threaded process can deadlock, so a walk
        # started while another thread is alive never forks; once the
        # thread has ended, the same walk does.
        forks = []

        def refusing_fork():
            forks.append(None)
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", refusing_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        release = threading.Event()
        helper = threading.Thread(target=release.wait)
        helper.start()
        try:
            assert frontier_profile(CliqueConstraint(3, 5), 10) == _R35_V10
        finally:
            release.set()
            helper.join(timeout=60)
        assert not helper.is_alive()
        assert forks == []
        assert frontier_profile(CliqueConstraint(3, 5), 10) == _R35_V10
        assert len(forks) == 1

    def test_end_of_file_is_not_chunk_zero(self, time_limit):
        read, write = os.pipe()
        os.close(write)
        try:
            with pytest.raises(EOFError):
                _pool._claimed([((0,), ())], 1, read, partial(
                    combinatorics._children, constraint=CliqueConstraint(3, 5)))
        finally:
            os.close(read)


class TestGraded:
    def test_matches_binomial(self):
        for m in range(1, 11):
            for n in range(1, 11):
                assert graded_ramsey(m, n) == math.comb(m + n - 2, m - 1)

    def test_symmetry_and_boundary(self):
        assert graded_ramsey(4, 4) == 20
        assert graded_ramsey(1, 9) == graded_ramsey(9, 1) == 1
        assert graded_ramsey(6, 3) == graded_ramsey(3, 6)

    def test_doubling_corridor(self):
        # The diagonal grows by exactly the doubling bound: the Pascal
        # recursion plus symmetry give R(n,n) = 2 R(n-1,n).
        for n in range(2, 10):
            assert graded_ramsey(n, n) == 2 * graded_ramsey(n - 1, n)

    def test_dominates_known_classical_values(self):
        classical = {(3, 3): 6, (3, 4): 9, (3, 5): 14, (3, 6): 18,
                     (3, 7): 23, (3, 8): 28, (3, 9): 36, (4, 4): 18,
                     (4, 5): 25}
        for (m, n), value in classical.items():
            assert graded_ramsey(m + 1, n + 1) >= value - 4
        # Spot values used downstream.
        assert graded_ramsey(4, 5) == 35
        assert graded_ramsey(5, 5) == 70

    def test_validation(self):
        with pytest.raises(ValueError):
            graded_ramsey(0, 3)


class TestCostsAndRanks:
    def test_qubit_costs(self):
        assert qubit_cost(2) == (1, 17)
        assert qubit_cost(44) == (946, 962)
        assert qubit_cost(45) == (990, 1006)
        assert qubit_cost(46) == (1035, 1051)
        with pytest.raises(ValueError):
            qubit_cost(1)

    def test_survivor_rank_counts_classes(self):
        constraint = CliqueConstraint(3, 3)
        assert survivor_rank(constraint, 5, 24) == 1
        assert survivor_rank(constraint, 4, 24) == 3
        assert survivor_rank(constraint, 6, 24) == 0
        assert survivor_rank(constraint, 4, 3) == 2

    def test_survivor_rank_budget(self, monkeypatch):
        # The (5,5) walk is far too long to finish at v = 13; a budget of 1
        # node stops it at v = 4, whose largest key search takes 3.
        monkeypatch.setattr(combinatorics, "_KEY_NODE_BUDGET", 1)
        with pytest.raises(BudgetError) as info:
            survivor_rank(CliqueConstraint(5, 5), 13, 24)
        assert info.value.partial == ((1, 1), (2, 2), (3, 4))
        with pytest.raises(ValueError):
            survivor_rank(CliqueConstraint(3, 3), 5, 1)

    def test_survivor_rank_past_budget_when_frontier_empties(self):
        # Only the all-blue colouring avoids a red edge, and it dies at 13.
        assert survivor_rank(CliqueConstraint(2, 13), 13, 24) == 0

    def test_survivor_rank_budget_carries_walk_partial(self, monkeypatch):
        constraint = CliqueConstraint(3, 5)
        assert survivor_rank(constraint, 13, 24) == 1
        assert survivor_rank(constraint, 14, 24) == 0
        # The largest key search at v = 10 takes 212 nodes.
        monkeypatch.setattr(combinatorics, "_KEY_NODE_BUDGET", 100)
        with pytest.raises(BudgetError) as info:
            survivor_rank(constraint, 13, 24)
        assert info.value.partial == _R35_V10[:-1]

    @pytest.mark.parametrize("m, n", [(2, 4), (3, 3), (3, 5), (4, 4), (5, 5)])
    def test_disjoint_red_cliques_are_good(self, m, n):
        # n - 1 red K_{m-1}, all edges between them blue: a good colouring
        # of order (m - 1)(n - 1), so no walk of (m,n) empties before it.
        v = (m - 1) * (n - 1)
        edges = [(i, j) for i in range(1, v + 1) for j in range(i + 1, v + 1)
                 if (i - 1) // (m - 1) == (j - 1) // (m - 1)]
        coloring = coloring_from_red_edges(v, edges)
        assert not has_forbidden_clique(coloring, CliqueConstraint(m, n))
