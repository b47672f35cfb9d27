"""Exact small-order Ramsey combinatorics: cliques, gluing, canonical forms.

Public two-colourings of complete graphs are bit vectors over the
row-major upper triangle (true = red).  One clique kernel serves both
exact routes: ``_avoiding`` returns the ``uint32`` masks that contain no red
clique mask and meet every blue one, dropping dead masks after each clique
test.  The existence sweep runs it over chunks of edge masks; the glue walk
runs it over each parent's 2^v new-vertex assignments against the clique
vertex masks ``_cliques`` yields and stores colourings as red-adjacency
masks, each beside generators of its automorphism group.  The walk grows
classes by canonical augmentation: a child is kept only when its new vertex
is canonical, and most children are rejected by degree, by the parent's
automorphism orbits (one assignment per orbit is tried) and by colour
before any key is computed.  Every child that passes is then a new class,
so nothing is deduplicated, and big levels are split over the usable cores
with a result that does not depend on their number.  Canonical labelling
refines red-degree colours by counting red neighbours per colour cell, then
searches for the least ordering one colour cell at a time, branching only
among tied cell members and trying one of each pair of twins; the search
also records the automorphism generators the walk carries.  The graded
Ramsey recursion and qubit budget helpers live here too.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np

__all__ = [
    "CliqueConstraint",
    "EdgeColoring",
    "BudgetError",
    "edge_index",
    "has_forbidden_clique",
    "exists_good_coloring",
    "glue_extensions",
    "canonical_key",
    "brute_force_ramsey",
    "frontier_profile",
    "graded_ramsey",
    "qubit_cost",
    "survivor_rank",
]

# Direct enumeration cap: edge counts above this would overflow the chunked
# bitmask sweep; callers must take the glue-and-prune route instead.  The
# clique kernel holds masks as uint32, so this budget and the walk's parent
# orders (below _CANONICAL_V_BUDGET) must both stay at most 32 bits.
_ENUM_EDGE_BUDGET = 28

# Canonical labelling cap; the search is exact but has a factorial worst case
# (large cells of tied, non-twin vertices).
_CANONICAL_V_BUDGET = 12

# Walk levels with at least this many parents run on every usable core.
# On a 2-core x86-64 VM, the 71-parent (3,5) level took 43 ms serially and
# 30 ms on two workers, and starting and stopping the pool costs about
# 10 ms, so smaller levels gain nothing from it.
_PARALLEL_MIN_PARENTS = 64

_CHUNK = 1 << 21


class BudgetError(RuntimeError):
    """A requested computation exceeds its enumeration or labelling budget.

    ``partial`` carries whatever was established before the budget ran out
    (for threshold scans, the largest order fully verified).
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class CliqueConstraint:
    """Forbidden monochromatic clique sizes: red K_m and blue K_n."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError(f"clique sizes must be >= 1, got ({self.m}, {self.n})")


def edge_index(i: int, j: int, v: int) -> int:
    """Zero-based position of edge {i, j} in the row-major upper triangle.

    Vertices are 1-based; requires ``1 <= i < j <= v``.  Edge {1, 2} maps to
    position 0, {1, 3} to 1, and so on row by row.
    """
    if not (1 <= i < j <= v):
        raise ValueError(f"need 1 <= i < j <= v, got i={i}, j={j}, v={v}")
    return (i - 1) * v - i * (i - 1) // 2 + (j - i) - 1


@dataclass(frozen=True)
class EdgeColoring:
    """Two-colouring of K_v: ``bits[edge_index(i, j, v)]`` is true when
    edge {i, j} is red."""

    v: int
    bits: tuple[bool, ...]

    def __post_init__(self):
        if self.v < 1:
            raise ValueError(f"v must be >= 1, got {self.v}")
        expected = self.v * (self.v - 1) // 2
        if len(self.bits) != expected:
            raise ValueError(
                f"expected {expected} edge bits for v={self.v}, got {len(self.bits)}")

    @classmethod
    def from_mask(cls, v: int, mask: int) -> "EdgeColoring":
        e = v * (v - 1) // 2
        if mask < 0 or mask >> e:
            raise ValueError(f"mask out of range for {e} edges: {mask}")
        return cls(v=v, bits=tuple(bool((mask >> t) & 1) for t in range(e)))

    @property
    def mask(self) -> int:
        m = 0
        for t, bit in enumerate(self.bits):
            if bit:
                m |= 1 << t
        return m

    def is_red(self, i: int, j: int) -> bool:
        if i > j:
            i, j = j, i
        return self.bits[edge_index(i, j, self.v)]

    def red_neighbors(self) -> list[int]:
        """Adjacency of the red graph as per-vertex bitmasks (0-based)."""
        adj = [0] * self.v
        t = 0
        for i in range(self.v - 1):
            for j in range(i + 1, self.v):
                if self.bits[t]:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
                t += 1
        return adj


def _cliques(adj, size: int, within: int):
    """Vertex masks of the ``size``-cliques of ``adj`` inside ``within``,
    lowest vertex first (lexicographic); size 0 yields 0 once."""
    if size <= 0:
        yield 0
        return
    while within.bit_count() >= size:
        low = within & -within
        within ^= low
        for rest in _cliques(adj, size - 1,
                             within & adj[low.bit_length() - 1]):
            yield low | rest


def _has_clique(adj, vertex_count: int, size: int) -> bool:
    """True when bitmask adjacency ``adj`` has a ``size``-clique."""
    return next(_cliques(adj, size, (1 << vertex_count) - 1), None) is not None


def _avoiding(masks: np.ndarray, inside, meet) -> np.ndarray:
    """The ``uint32`` masks that contain no mask of ``inside`` and meet every
    mask of ``meet``, in input order.  The survivors are compacted after each
    test, and both iterables are read lazily, only until none is left."""
    for sub in map(np.uint32, inside):
        masks = masks[(masks & sub) != sub]
        if not masks.size:
            return masks
    for sub in map(np.uint32, meet):
        masks = masks[(masks & sub) != 0]
        if not masks.size:
            break
    return masks


def _blue(red) -> list[int]:
    """Blue adjacency masks: the complement of ``red`` without loops."""
    full = (1 << len(red)) - 1
    return [full & ~r & ~(1 << i) for i, r in enumerate(red)]


def _has_forbidden(red, constraint: CliqueConstraint) -> bool:
    v = len(red)
    return (_has_clique(red, v, constraint.m)
            or _has_clique(_blue(red), v, constraint.n))


def has_forbidden_clique(coloring: EdgeColoring,
                         constraint: CliqueConstraint) -> bool:
    """True when the colouring contains a red K_m or a blue K_n."""
    return _has_forbidden(coloring.red_neighbors(), constraint)


def _subset_edge_masks(v: int, size: int) -> list[int]:
    masks = []
    for subset in combinations(range(1, v + 1), size):
        m = 0
        for a, b in combinations(subset, 2):
            m |= 1 << edge_index(a, b, v)
        masks.append(m)
    return masks


def _enumerate_exists(v: int, constraint: CliqueConstraint) -> bool:
    """Chunked bitmask sweep for a good colouring on v vertices.

    Only masks with edge {1, 2} red are scanned: a good colouring with any
    red edge can be relabelled to put that edge first, and goodness is
    label-invariant.  The all-blue colouring is the single remaining case
    and is checked directly.  Each chunk of ``uint32`` edge masks goes
    through :func:`_avoiding`, which compacts it to its survivors after
    every clique test, so a chunk costs little once its first few red
    cliques have killed most of its masks.
    """
    e = v * (v - 1) // 2
    if e > _ENUM_EDGE_BUDGET:
        raise BudgetError(
            f"enumeration needs 2^{e} masks, budget is 2^{_ENUM_EDGE_BUDGET}",
            partial=None)
    if not _has_forbidden((0,) * v, constraint):
        return True
    if e == 0:
        return False
    red_edge_masks = _subset_edge_masks(v, constraint.m)
    blue_edge_masks = _subset_edge_masks(v, constraint.n)
    total = 1 << e
    for start in range(1, total, 2 * _CHUNK):
        arr = np.arange(start, min(start + 2 * _CHUNK, total), 2, np.uint32)
        if _avoiding(arr, red_edge_masks, blue_edge_masks).size:
            return True
    return False


def exists_good_coloring(v: int, constraint: CliqueConstraint,
                         mode: str = "auto") -> bool:
    """Whether some colouring of K_v avoids red K_m and blue K_n.

    ``mode="enumerate"`` forces the bitmask sweep (edge budget 28);
    ``mode="glue"`` walks the canonical frontier from a single vertex;
    ``mode="auto"`` uses the sweep inside the budget and glue beyond.
    """
    if v < 1:
        raise ValueError(f"v must be >= 1, got {v}")
    if mode not in ("auto", "enumerate", "glue"):
        raise ValueError(f"unknown mode {mode!r}")
    e = v * (v - 1) // 2
    if mode == "enumerate" or (mode == "auto" and e <= _ENUM_EDGE_BUDGET):
        return _enumerate_exists(v, constraint)
    return _walk(constraint, v)[-1][1] > 0


def _good_assignments(red, constraint: CliqueConstraint) -> list[int]:
    """Ascending assignments ``a`` that extend ``red`` to a good colouring.

    Assignment ``a`` makes the new vertex red-adjacent to the vertices set
    in ``a``; it is good when it holds no red (m-1)-clique of the parent
    and meets every blue (n-1)-clique.  One :func:`_avoiding` call over the
    2^v assignments as ``uint32`` returns exactly these survivors.
    """
    v = len(red)
    full = (1 << v) - 1
    return _avoiding(np.arange(1 << v, dtype=np.uint32),
                     _cliques(red, constraint.m - 1, full),
                     _cliques(_blue(red), constraint.n - 1, full)).tolist()


def _extend(red, a: int) -> tuple[int, ...]:
    """Red adjacency of ``red`` plus a new vertex red-adjacent to ``a``."""
    v = len(red)
    return tuple(r | ((a >> i) & 1) << v for i, r in enumerate(red)) + (a,)


def _moves(generators) -> list[tuple[int, list[tuple[int, int]]]]:
    """Each vertex permutation of ``generators`` (``bytes`` of images) as
    the mask of the vertices it fixes and the ``(bit, image bit)`` pairs of
    the vertices it moves."""
    moves = []
    for perm in generators:
        fixed, moved = 0, []
        for u, w in enumerate(perm):
            if u == w:
                fixed |= 1 << u
            else:
                moved.append((1 << u, 1 << w))
        moves.append((fixed, moved))
    return moves


def _orbit(a: int, moves) -> set[int]:
    """Orbit of the vertex mask ``a`` under the permutations :func:`_moves`
    describes."""
    orbit, stack = {a}, [a]
    while stack:
        b = stack.pop()
        for fixed, moved in moves:
            c = b & fixed
            for bit, image in moved:
                if b & bit:
                    c |= image
            if c not in orbit:
                orbit.add(c)
                stack.append(c)
    return orbit


def _children(parents, constraint: CliqueConstraint) -> list[tuple]:
    """``(key, red, generators)`` of every kept child of ``parents``, in
    order of parent and assignment; see :func:`_next_frontier`."""
    children = []
    for red, generators in parents:
        v = len(red)
        degrees = [r.bit_count() for r in red]
        least = min(degrees)
        lowest = sum(1 << u for u, d in enumerate(degrees) if d == least)
        moves = _moves(generators)
        seen: set[int] = set()
        for a in _good_assignments(red, constraint):
            # Degree k is least iff k <= least, or k == least + 1 and every
            # vertex of the parent's least degree gains an edge.
            k = a.bit_count()
            if k > least and (k > least + 1 or a & lowest != lowest):
                continue
            if moves:
                if a in seen:
                    continue
                seen |= _orbit(a, moves)
            child = _extend(red, a)
            colors = _refined_colors(child, v + 1, v)
            if colors[v]:
                continue
            found: set[bytes] = set()
            key = _adjacency_key(child, colors, v, found)
            if key is not None:
                children.append((key, child, tuple(sorted(found))))
    return children


def _next_frontier(frontier, constraint: CliqueConstraint, pool=None,
                   workers: int = 1) -> list[tuple]:
    """Good one-vertex extensions of good colourings, one per canonical
    class, sorted by key.

    The frontier holds ``(red, generators)`` pairs: a colouring's red
    adjacency masks and generators of its automorphism group, vertex
    permutations as ``bytes`` of images, empty for a trivial group.
    Canonical augmentation (McKay, "Isomorph-free exhaustive generation",
    J. Algorithms 1998): a child is kept only when its new vertex lies in
    the orbit of the first vertex of its least ordering, so each class
    comes from exactly one parent class.  Children are tried in ascending
    order of parent and assignment and rejected as early as possible:

    1. the new vertex must have the least red degree, which masks of the
       parent's degrees decide without building the child;
    2. its assignment must be the least of its orbit under the parent's
       generators: an automorphism of the parent maps the children of one
       orbit onto each other, new vertex onto new vertex;
    3. it must lie in refined colour cell 0, the cell the least ordering
       starts with, and refinement stops once it leaves;
    4. some least ordering must start with it: :func:`_adjacency_key`
       tries it first and gives up once another start beats it, and
       otherwise returns the key and the child's generators.

    Two kept children are isomorphic only when they share a parent and an
    automorphism of the parent maps one assignment to the other, so after
    test 2 every key is a new class and nothing is deduplicated.  With a
    ``pool`` of ``workers`` processes, alternate parents go to each worker
    and the sort by key merges their children, so the frontier does not
    depend on the number of workers.
    """
    if pool is None:
        children = _children(frontier, constraint)
    else:
        children = [child for part in pool.map(
            _children, [frontier[i::workers] for i in range(workers)],
            [constraint] * workers) for child in part]
    return [(red, generators) for _, red, generators in sorted(children)]


def _walk(constraint: CliqueConstraint,
          v_max: int) -> tuple[tuple[int, int], ...]:
    """Grow the frontier of good canonical classes to order ``v_max``.

    Returns the ``(v, count)`` profile, stopping after the first zero.
    Past the canonical labelling budget the :class:`BudgetError` carries
    the profile of the finished orders.  Levels of at least
    ``_PARALLEL_MIN_PARENTS`` parents run on a fork process pool with one
    worker per usable core, started at the first such level and shut down
    when the walk ends, however it ends; a worker that dies raises
    ``BrokenProcessPool``.  With one core or without ``fork`` the walk runs
    serially.
    """
    frontier = [] if _has_forbidden((0,), constraint) else [((0,), ())]
    profile = [(1, len(frontier))]
    cores = (len(os.sched_getaffinity(0))
             if hasattr(os, "sched_getaffinity") and hasattr(os, "fork")
             else 1)
    pool = None
    try:
        while frontier and len(profile) < v_max:
            if (pool is None and cores > 1
                    and len(frontier) >= _PARALLEL_MIN_PARENTS):
                # Imported here: the process pool's modules take about
                # 20 ms to import, which walks of small levels need not pay.
                # Fork, because a spawned worker would import numpy again.
                import multiprocessing
                from concurrent.futures import ProcessPoolExecutor
                pool = ProcessPoolExecutor(
                    cores, multiprocessing.get_context("fork"))
            try:
                frontier = _next_frontier(frontier, constraint, pool, cores)
            except BudgetError as exc:
                raise BudgetError(str(exc), partial=tuple(profile)) from exc
            profile.append((len(profile) + 1, len(frontier)))
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return tuple(profile)


def _to_coloring(red) -> EdgeColoring:
    v = len(red)
    return EdgeColoring(v=v, bits=tuple(
        bool((red[i] >> j) & 1) for i in range(v) for j in range(i + 1, v)))


def glue_extensions(coloring: EdgeColoring,
                    constraint: CliqueConstraint) -> list[EdgeColoring]:
    """All good one-vertex extensions of a good colouring.

    The input must itself be good; only cliques through the new vertex are
    re-checked.  The returned list is deduplicated up to isomorphism: each
    class is represented by its first child, in key order.  Every child is
    keyed here, because the walk's canonical augmentation keeps a class
    under only the one parent class it comes from.
    """
    if has_forbidden_clique(coloring, constraint):
        raise ValueError("glue_extensions requires a good colouring")
    red = coloring.red_neighbors()
    classes: dict[bytes, tuple[int, ...]] = {}
    for a in _good_assignments(red, constraint):
        child = _extend(red, a)
        classes.setdefault(_adjacency_key(child), child)
    return [_to_coloring(classes[k]) for k in sorted(classes)]


def _refined_colors(red, v: int, first: int | None = None) -> list[int]:
    """Equitable-partition colours: red-degree ranks, refined to a fixpoint.

    Each pass ranks vertices by their colour and then by the negated count
    of red neighbours in every colour cell.  Vertices of one colour have
    equal degree, so those counts order them exactly as their sorted lists
    of neighbour colours would; a vertex alone in its cell needs no counts.
    Colour ids are ranks, so they are invariant under vertex relabelling.
    With ``first``, refinement stops as soon as ``first`` leaves colour 0:
    cell 0 only shrinks, because the new ids rank signatures that start
    with the old colour.
    """
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


def canonical_key(coloring: EdgeColoring) -> bytes:
    """Isomorphism-invariant key: minimal colour-and-adjacency string.

    Exact (equal keys iff isomorphic).  Vertices get equitable-partition
    colours by red degree, refined by counting red neighbours per colour
    cell.  A chunk is a vertex's colour and then its adjacency column to
    the vertices placed before it, and the key is the lexicographically
    minimal chunk sequence over all orderings.  Colour compares first, so
    the minimal ordering lists the cells in colour order; the backtracking
    search branches only among the members of the current cell that tie on
    the minimal column, walks singleton steps without branching and prunes
    any prefix above the best found.  Of two tied candidates with the same
    neighbours apart from each other (twins), only the first is tried:
    swapping them is an automorphism fixing the prefix.  Worst case is
    still factorial, hence the hard cap at v = 12.  The key is computed
    from the red adjacency masks, the form the glue walk stores colourings
    in, and nothing is cached.  The walk keys only the children that pass
    its degree and colour tests, and the same search is its orbit test.
    """
    return _adjacency_key(coloring.red_neighbors())


def _adjacency_key(red, colors=None, first=None,
                   generators=None) -> bytes | None:
    """:func:`canonical_key` of the colouring with red adjacency ``red``.

    ``colors`` are its :func:`_refined_colors` when the caller already has
    them.  With ``first``, a vertex of colour 0, the key is returned only
    when some least ordering starts with ``first``, and None otherwise:
    ``first`` is tried first, and the search stops as soon as an ordering
    with another first vertex is found to be smaller.  Orderings with equal
    keys differ by an automorphism, so this asks whether ``first`` lies in
    the orbit of canonical first vertices (McKay & Piperno, "Practical
    graph isomorphism II", JSC 2014).

    With a set ``generators``, the search adds vertex permutations (as
    ``bytes`` of images) that generate the automorphism group: one for each
    leaf whose columns equal the least found, mapping that ordering onto
    this one, and the transposition of each twin it drops.  Every leaf of
    the full search tree is the image of a visited leaf under these twin
    swaps, so once a key is returned they are complete.
    """
    v = len(red)
    if v > _CANONICAL_V_BUDGET:
        raise BudgetError(
            f"canonical_key supports v <= {_CANONICAL_V_BUDGET}, got {v}",
            partial=None)
    if v == 1:
        return bytes([1])
    if colors is None:
        colors = _refined_colors(red, v)
    sequence = sorted(colors)
    cells = [0] * (sequence[-1] + 1)
    for u, c in enumerate(colors):
        cells[c] |= 1 << u
    # Columns of the least ordering found so far; every prefix the search
    # visits is <= its prefix, and equal to it once a leaf below is reached.
    best: list[int] | None = None
    best_order: list[int] = []
    beaten = False

    def search(t: int, remaining: int, order: list[int], cols: list[int]):
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
                # Swapping twins u, w fixes the prefix and the colouring,
                # so the subtree under w repeats the one under u.
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


def brute_force_ramsey(constraint: CliqueConstraint, v_max: int,
                       mode: str = "auto") -> int | None:
    """Smallest v <= v_max admitting no good colouring, or None.

    ``mode="enumerate"`` insists on the bitmask sweep at every order and
    raises :class:`BudgetError` (carrying the largest verified order) once
    the edge budget is exceeded.  The default walks the glue-and-prune
    frontier, cross-checking against enumeration while the sweep is cheap.
    """
    if v_max < 1:
        raise ValueError(f"v_max must be >= 1, got {v_max}")
    if mode not in ("auto", "enumerate", "glue"):
        raise ValueError(f"unknown mode {mode!r}")

    if mode == "enumerate":
        for v in range(1, v_max + 1):
            try:
                exists = _enumerate_exists(v, constraint)
            except BudgetError as exc:
                raise BudgetError(
                    f"enumeration budget exceeded at v={v}; orders up to "
                    f"{v - 1} admit good colourings", partial=v - 1) from exc
            if not exists:
                return v
        return None

    profile = _walk(constraint, v_max)
    if mode == "auto":
        for v, count in profile[1:]:
            if (v * (v - 1) // 2 <= 15
                    and _enumerate_exists(v, constraint) != (count > 0)):
                raise RuntimeError(
                    f"frontier and enumeration disagree at v={v}")
    v, count = profile[-1]
    return v if count == 0 else None


def frontier_profile(constraint: CliqueConstraint,
                     v_max: int) -> tuple[tuple[int, int], ...]:
    """Number of good canonical classes at each order 1..v_max.

    Stops early once the frontier empties; the final recorded count is 0.
    Past the canonical labelling budget, :class:`BudgetError` carries the
    profile of the orders already finished.
    """
    if v_max < 1:
        raise ValueError(f"v_max must be >= 1, got {v_max}")
    return _walk(constraint, v_max)


@cache
def graded_ramsey(m: int, n: int) -> int:
    """Klein-graded Ramsey value by memoized recursion.

    Boundary orders are 1 and the interior satisfies the Pascal recursion,
    so the value equals binomial(m + n - 2, m - 1); the recursion is kept
    as the implementation and the closed form as the test oracle.
    """
    if m < 1 or n < 1:
        raise ValueError(f"orders must be >= 1, got ({m}, {n})")
    if m == 1 or n == 1:
        return 1
    return graded_ramsey(m - 1, n) + graded_ramsey(m, n - 1)


def qubit_cost(n: int) -> tuple[int, int]:
    """Edge-variable qubits and total with the 16-qubit work register."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    edges = math.comb(n, 2)
    return edges, edges + 16


def survivor_rank(constraint: CliqueConstraint, v: int, d: int) -> int:
    """Rank of the survivor subspace a good colouring class count certifies.

    Zero when no good colouring exists at order v, otherwise the class
    count capped at d - 1.  Orders beyond the canonical labelling budget
    raise :class:`BudgetError`.
    """
    if v < 1:
        raise ValueError(f"v must be >= 1, got {v}")
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if v > _CANONICAL_V_BUDGET:
        raise BudgetError(
            f"survivor_rank needs canonical labelling at v={v}, "
            f"budget is v <= {_CANONICAL_V_BUDGET}", partial=None)
    return min(d - 1, _walk(constraint, v)[-1][1])
