"""Colorings, clique detection, glue-and-prune search, graded values."""

from __future__ import annotations

import hashlib
import itertools
import math
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramsey_toolkit import combinatorics
from ramsey_toolkit import (BudgetError, CliqueConstraint, EdgeColoring,
                            brute_force_ramsey, canonical_key, edge_index,
                            exists_good_coloring, frontier_profile,
                            glue_extensions, graded_ramsey,
                            has_forbidden_clique, qubit_cost, survivor_rank)

from conftest import coloring_from_red_edges, permute_coloring


# A parallel cut-off larger than any frontier: the walk stays serial.
_NEVER = 1 << 62


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
    kept as the oracle for the shared subset-mask kernel."""
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


def _reference_avoiding(masks, inside, meet):
    """The boolean clique kernel: True where a mask contains no mask of
    ``inside`` and meets every mask of ``meet``, kept as the oracle for the
    compacting one."""
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


def _counting(values, reads):
    """Yield ``values``, appending each one to ``reads`` as it is read."""
    for x in values:
        reads.append(x)
        yield x


def _reference_refined_colors(red, v: int) -> list[int]:
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


def _reference_key(red) -> bytes:
    """The canonical key by a search over every remaining vertex at each
    node, kept as the byte oracle for the cell-wise search."""
    v = len(red)
    colors = _reference_refined_colors(red, v)
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
    colors = _reference_refined_colors(red, v)
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
        _reference_refined_colors(red, len(red))
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


_UINT32 = st.integers(min_value=0, max_value=(1 << 32) - 1)


class TestAvoiding:
    @given(st.lists(_UINT32, max_size=60), st.lists(_UINT32, max_size=6),
           st.lists(_UINT32, max_size=6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_boolean_kernel(self, values, inside, meet, data):
        # Narrow random masks so that some survive the tests.
        width = data.draw(st.sampled_from([0x7, 0xFF, 0xFFFF, 0xFFFFFFFF]),
                          label="width")
        masks = np.array([x & width for x in values], dtype=np.uint32)
        inside = [x & width for x in inside]
        meet = [x & width for x in meet]
        got = combinatorics._avoiding(masks, inside, meet)
        expected = masks[_reference_avoiding(masks, inside, meet)]
        assert got.dtype == np.uint32
        assert got.tolist() == expected.tolist()

    def test_zero_masks(self):
        masks = np.arange(8, dtype=np.uint32)
        # Every mask contains 0 and none meets it.
        assert combinatorics._avoiding(masks, [0], []).size == 0
        assert combinatorics._avoiding(masks, [], [0]).size == 0
        assert combinatorics._avoiding(masks, [], []).tolist() == [
            0, 1, 2, 3, 4, 5, 6, 7]
        assert combinatorics._avoiding(masks, [0b100], [0b011]).tolist() == [
            1, 2, 3]

    def test_inside_stops_at_the_emptying_mask(self):
        masks = np.array([0b01, 0b10, 0b11], dtype=np.uint32)
        inside_reads, meet_reads = [], []
        got = combinatorics._avoiding(
            masks, _counting([0b01, 0b10, 0b100, 0b1000], inside_reads),
            _counting([0b1], meet_reads))
        assert got.size == 0 and got.dtype == np.uint32
        assert inside_reads == [0b01, 0b10]
        assert meet_reads == []

    def test_meet_stops_at_the_emptying_mask(self):
        masks = np.array([0b01, 0b10, 0b11], dtype=np.uint32)
        meet_reads = []
        got = combinatorics._avoiding(
            masks, [0b100],
            _counting([0b11, 0b01, 0b10, 0b100, 0b1000], meet_reads))
        assert got.size == 0
        assert meet_reads == [0b11, 0b01, 0b10, 0b100]


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

    def test_full_sweep_at_the_edge_budget(self, monkeypatch):
        # (8; 3,3) is UNSAT, so the e=28 sweep reads every chunk up to the
        # mask with all 28 edge bits set, as uint32.
        seen = []
        avoiding = combinatorics._avoiding

        def recording(masks, inside, meet):
            seen.append((masks.dtype, masks.size, int(masks[0]),
                         int(masks[-1])))
            return avoiding(masks, inside, meet)

        monkeypatch.setattr(combinatorics, "_avoiding", recording)
        assert exists_good_coloring(8, CliqueConstraint(3, 3),
                                    "enumerate") is False
        assert {dtype for dtype, *_ in seen} == {np.dtype(np.uint32)}
        assert sum(size for _, size, _, _ in seen) == 1 << 27
        assert seen[0][2] == 1
        assert seen[-1][3] == (1 << 28) - 1
        assert all(prev[3] + 2 == nxt[2] for prev, nxt in zip(seen, seen[1:]))

    def test_r2n_is_n(self):
        for n in (2, 3, 5, 7):
            assert brute_force_ramsey(CliqueConstraint(2, n), n + 1) == n

    def test_brute_force_r33_and_r34(self):
        assert brute_force_ramsey(CliqueConstraint(3, 3), 10) == 6
        assert brute_force_ramsey(CliqueConstraint(3, 4), 10, mode="glue") == 9

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
        for coloring in (pentagon, paley17):
            if coloring.v > 12:
                continue
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
        with pytest.raises(BudgetError):
            canonical_key(EdgeColoring.from_mask(13, 0))


class TestReferenceKey:
    """The cell-wise search and count refinement give the old key bytes."""

    @pytest.mark.parametrize("m,n,v_max", [(3, 5, 9), (4, 4, 6)])
    def test_walk_children(self, m, n, v_max, monkeypatch):
        # Serial walk: keys made in forked workers are not recorded here.
        monkeypatch.setattr(combinatorics, "_PARALLEL_MIN_PARENTS", _NEVER)
        keyed = []
        key = combinatorics._adjacency_key

        def recording_key(red, *args):
            keyed.append(red)
            return key(red, *args)

        monkeypatch.setattr(combinatorics, "_adjacency_key", recording_key)
        frontier_profile(CliqueConstraint(m, n), v_max)
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
        frontier = [((0,), ())]
        for _ in range(9):
            frontier = combinatorics._next_frontier(
                frontier, CliqueConstraint(3, 5))
        keys = sorted(combinatorics._adjacency_key(red) for red, _ in frontier)
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
        # Known class counts of good colourings below R(3,5) and R(4,4).
        known = {(3, 5): (1, 2, 3, 7, 13, 32, 71, 179),
                 (4, 4): (1, 2, 4, 9, 24, 84, 362, 2079)}
        for (m, n), counts in known.items():
            assert frontier_profile(CliqueConstraint(m, n), len(counts)) == \
                tuple(enumerate(counts, start=1))

    def test_budget_error_carries_finished_profile(self, monkeypatch):
        monkeypatch.setattr(combinatorics, "_CANONICAL_V_BUDGET", 6)
        with pytest.raises(BudgetError) as info:
            frontier_profile(CliqueConstraint(3, 4), 9)
        assert info.value.partial == (
            (1, 1), (2, 2), (3, 3), (4, 6), (5, 9), (6, 15))

    @pytest.mark.parametrize("m,n,v_max", [
        (3, 3, 6), (3, 4, 9), (3, 5, 9), (4, 4, 7), (2, 5, 6), (4, 3, 8),
        (5, 3, 8)])
    def test_walk_matches_per_assignment_oracle(self, m, n, v_max):
        # Representatives are the first children the walk accepts, not the
        # oracle's first children, so the two are compared by their keys.
        constraint = CliqueConstraint(m, n)
        frontier = [((0,), ())]
        while frontier and len(frontier[0][0]) < v_max:
            expected = _reference_next_frontier([red for red, _ in frontier],
                                                constraint)
            frontier = combinatorics._next_frontier(frontier, constraint)
            keys = [combinatorics._adjacency_key(red) for red, _ in frontier]
            assert len(set(keys)) == len(keys)
            assert keys == [combinatorics._adjacency_key(red)
                            for red in expected]

    @pytest.mark.parametrize("m,n,v,count,digest", [
        (3, 5, 10, 313, "b49c95bd265f020e876dacfacc550f20"
                        "c9e59d7c672b3df33b28bacaf867c947"),
        (4, 4, 7, 362, "f483efe6631074c402a1b0cf53752a83"
                       "e238fa7d449b5a63bbaf54bdcc5d0196")],
        ids=["r35_v10", "r44_v7"])
    def test_frontier_digest(self, m, n, v, count, digest):
        # SHA-256 of the frontier's sorted canonical keys, as walked by the
        # per-child keying that canonical augmentation replaced.
        frontier = [((0,), ())]
        for _ in range(v - 1):
            frontier = combinatorics._next_frontier(
                frontier, CliqueConstraint(m, n))
        keys = sorted(combinatorics._adjacency_key(red) for red, _ in frontier)
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
    orbits, seen = set(), set()
    for a in range(1 << v):
        if a in seen:
            continue
        orbit, stack = {a}, [a]
        while stack:
            b = stack.pop()
            for perm in images:
                c = sum(1 << perm[u] for u in range(v) if b >> u & 1)
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
    expected = _subset_orbits(v, _automorphisms(red))
    colors = combinatorics._refined_colors(red, v)
    for first in [None] + [u for u in range(v) if colors[u] == 0]:
        generators = set()
        key = combinatorics._adjacency_key(red, colors, first, generators)
        if key is None:
            continue
        auts = set(_automorphisms(red))
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
        # Serial walk, so the wrapper sees every key in this process.
        monkeypatch.setattr(combinatorics, "_PARALLEL_MIN_PARENTS", _NEVER)
        accepted = []
        key = combinatorics._adjacency_key

        def counting_key(red, *args):
            out = key(red, *args)
            if out is not None:
                accepted.append(out)
            return out

        monkeypatch.setattr(combinatorics, "_adjacency_key", counting_key)
        profile = frontier_profile(CliqueConstraint(3, 5), 10)
        assert len(set(accepted)) == len(accepted) == 910
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


_R35_V10 = ((1, 1), (2, 2), (3, 3), (4, 7), (5, 13), (6, 32), (7, 71),
            (8, 179), (9, 290), (10, 313))


class TestParallelWalk:
    """Big levels run on a fork pool; the output must not show it."""

    @pytest.mark.parametrize("m,n,v_max,final", [
        (3, 5, 12, (12, 12)), (4, 4, 8, (8, 2079))],
        ids=["r35_v12", "r44_v8"])
    def test_parallel_matches_serial(self, m, n, v_max, final, monkeypatch):
        next_frontier = combinatorics._next_frontier
        levels = {}
        for cutoff in (0, _NEVER):
            monkeypatch.setattr(combinatorics, "_PARALLEL_MIN_PARENTS",
                                cutoff)
            recorded = []

            def recording(frontier, constraint, pool=None, workers=1):
                out = next_frontier(frontier, constraint, pool, workers)
                recorded.append((pool is not None, out))
                return out

            monkeypatch.setattr(combinatorics, "_next_frontier", recording)
            profile = frontier_profile(CliqueConstraint(m, n), v_max)
            assert profile[-1] == final
            assert multiprocessing.active_children() == []
            levels[cutoff] = recorded
        pooled = len(os.sched_getaffinity(0)) > 1
        assert all(used == pooled for used, _ in levels[0])
        assert not any(used for used, _ in levels[_NEVER])
        # Representatives with their generators, not only their keys.
        assert [out for _, out in levels[0]] == \
            [out for _, out in levels[_NEVER]]

    def test_budget_error_in_worker(self, monkeypatch):
        # Forked workers inherit the patched budget, so at the cut-off 0
        # the v=11 children raise inside the workers.
        monkeypatch.setattr(combinatorics, "_CANONICAL_V_BUDGET", 10)
        monkeypatch.setattr(combinatorics, "_PARALLEL_MIN_PARENTS", 0)
        with pytest.raises(BudgetError) as info:
            frontier_profile(CliqueConstraint(3, 5), 11)
        assert info.value.partial == _R35_V10
        assert multiprocessing.active_children() == []
        if len(os.sched_getaffinity(0)) > 1:
            # The pool chains the worker's traceback as the cause.
            assert "in _children" in str(info.value.__cause__.__cause__)

    def test_dead_worker_raises(self):
        # A worker that exits mid-level must fail the walk, not hang it;
        # run in a child interpreter so a hang is cut off by the timeout.
        script = """
import multiprocessing, os
from concurrent.futures.process import BrokenProcessPool
from ramsey_toolkit import CliqueConstraint, combinatorics, frontier_profile

class ExitsInWorker(CliqueConstraint):
    def __getattribute__(self, name):
        if name == "m" and os.getpid() != MAIN:
            os._exit(3)
        return super().__getattribute__(name)

MAIN = os.getpid()
combinatorics._PARALLEL_MIN_PARENTS = 0
try:
    print(frontier_profile(ExitsInWorker(3, 5), 8)[-1])
except BrokenProcessPool:
    print("broken", multiprocessing.active_children())
"""
        result = subprocess.run([sys.executable, "-c", script],
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        pooled = len(os.sched_getaffinity(0)) > 1
        assert result.stdout == ("broken []\n" if pooled else "(8, 179)\n")


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

    def test_survivor_rank_budget(self):
        with pytest.raises(BudgetError):
            survivor_rank(CliqueConstraint(5, 5), 13, 24)
        with pytest.raises(ValueError):
            survivor_rank(CliqueConstraint(3, 3), 5, 1)
