"""Exact small-order Ramsey combinatorics: cliques, gluing, canonical forms.

Public two-colourings of complete graphs are bit vectors over the
row-major upper triangle (true = red); inside, colourings are held as
red-adjacency masks.  Both exact routes grow colourings one vertex at a
time through one filter, which tests each parent's 2^v new-vertex
assignments at once: an int of 2^v bits is the truth table of a set of
assignments, one recursion over the parent's cliques ORs the table of the
assignments that hold a red clique with that of the ones that miss a blue
clique, and the assignments left are the good ones.  The existence sweep
extends labelled colourings depth-first through it and stops at the first
one of the wanted order.  The glue walk stores each colouring beside
generators of its automorphism group and grows classes by canonical
augmentation: a child is kept only when its new vertex is canonical, and
most children are rejected by degree, by the parent's automorphism orbits
(one assignment per orbit is tried) and by colour before any key is
computed.
Every child that passes is then a new class, so nothing is deduplicated.
Only the class counts are wanted, so the walk holds no whole order past
a split order: each class of that order has its subtree walked
depth-first, one parent at a time, and the walk's last order is only
counted: a child whose new vertex is alone in the first refined colour
cell is counted without a key.  With more than one usable core, one call
of ``_pool.run`` forks a worker per core after the first, and the workers
and this process claim chunks of the split order's classes from one shared
pipe until none is left.  Each chunk returns one count vector and the
vectors are added, so the result does not depend on the number of cores or
on who claimed which chunk.  Canonical labelling
refines red-degree colours by counting red neighbours per colour cell,
then searches for the least ordering one colour cell at a time, branching
only among tied cell members.  The search prunes by the automorphisms it
finds: it tries one of each pair of twins, jumps back from a leaf equal to
the least found to the node where the two orderings part, and skips a
candidate in the orbit of an explored sibling under the automorphisms
found that fix the prefix.  Those automorphisms are the generators the
walk carries.  The graded Ramsey recursion and qubit budget helpers live
here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from . import _pool
from ._pool import allowed_processes

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

# Direct enumeration cap (v <= 8).  The labelled sweep filters once per
# labelled good colouring of fewer than v vertices, so an unsatisfiable
# order pays for every one of them, and that count grows about like v!
# times the class count.  On a 2-core x86-64 VM the (3,3) sweep at v = 8
# filters 39 colourings in 0.3 ms, while the (3,4) sweep at v = 9 would
# filter 34,666 in 0.43 s, and brute_force_ramsey cross-checks every order
# inside the cap.  Past it, callers take the glue-and-prune route instead,
# whose bound is its assignment truth tables: 2^v bits per table, 16 KB at
# v = 17.
_ENUM_EDGE_BUDGET = 28

# Canonical labelling budget: search nodes of one key search, which is exact
# but has a factorial worst case (large cells of tied, non-twin vertices).
# The largest single search of the (3,5) walk to v=15 takes 221 nodes, of
# (4,4) to v=18 743 and of (3,6) to v=18 7,432.  A red cycle C_v grows about
# 3x per vertex at about 15 us a node on a 2-core x86-64 VM: C12 takes 570,
# C16 34,144 and C17 103,020 (1.5 s), so C16 keys and C17 raises.
_KEY_NODE_BUDGET = 1 << 16


class BudgetError(RuntimeError):
    """A requested computation exceeds its budget: the labelled sweep's
    edge count, or the search nodes of one canonical key search.

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


def _enumerate_exists(v: int, constraint: CliqueConstraint) -> bool:
    """Depth-first sweep of the labelled colourings of K_v, one vertex at a
    time.

    Colourings are held as the glue walk holds them, as red-adjacency
    masks.  Starting from the single vertex, each good colouring is
    extended by every assignment :func:`_good_assignments` lets through,
    so only cliques through the new vertex are tested, and the sweep
    returns True at the first colouring of v vertices.  It is labelled and
    deduplicates nothing, so it does not lean on the walk's degree, orbit
    and key tests, and ``brute_force_ramsey`` checks those against it.
    """
    e = v * (v - 1) // 2
    if e > _ENUM_EDGE_BUDGET:
        raise BudgetError(
            f"labelled sweep at v={v} has {e} edges, past the "
            f"{_ENUM_EDGE_BUDGET}-edge cap (v <= 8)", partial=None)

    def sweep(red) -> bool:
        return len(red) == v or any(
            sweep(_extend(red, a)) for a in _good_assignments(red, constraint))

    return not _has_forbidden((0,), constraint) and sweep((0,))


def exists_good_coloring(v: int, constraint: CliqueConstraint,
                         mode: str = "auto") -> bool:
    """Whether some colouring of K_v avoids red K_m and blue K_n.

    ``mode="enumerate"`` forces the exhaustive sweep of labelled
    colourings, one vertex at a time through the glue walk's assignment
    filter (edge budget 28, so v <= 8);
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


@cache
def _assignment_tables(v: int) -> tuple[int, tuple[int, ...],
                                        tuple[int, ...]]:
    """Truth tables over the 2^v assignments of a new vertex to ``v``
    parent vertices, each an int whose bit ``a`` stands for assignment
    ``a``: the table of every assignment, and per vertex ``u`` the tables
    of the assignments that hold ``u`` and of those that miss it."""
    every = (1 << (1 << v)) - 1
    # Bit u of a is set on runs of 2^u ones after 2^u zeros; dividing the
    # all-ones table by one period's all-ones gives a 1 at each period.
    holds = tuple(every // ((1 << (2 << u)) - 1)
                  * (((1 << (1 << u)) - 1) << (1 << u)) for u in range(v))
    return every, holds, tuple(every ^ t for t in holds)


def _clique_table(adj, size: int, within: int, sub: int, tables) -> int:
    """The assignments of table ``sub`` that, read through the per-vertex
    ``tables``, take in every vertex of some ``size``-clique of ``adj``
    inside ``within``; size 0 gives ``sub``.  Branches like
    :func:`_cliques` and drops a branch once no assignment is left."""
    if size <= 0:
        return sub
    out = 0
    while within.bit_count() >= size:
        low = within & -within
        within ^= low
        u = low.bit_length() - 1
        rest = sub & tables[u]
        if rest:
            out |= _clique_table(adj, size - 1, within & adj[u], rest, tables)
    return out


def _good_assignments(red, constraint: CliqueConstraint) -> list[int]:
    """Ascending assignments ``a`` that extend ``red`` to a good colouring.

    Assignment ``a`` makes the new vertex red-adjacent to the vertices set
    in ``a``; it is good when it holds no red (m-1)-clique of the parent
    and meets every blue (n-1)-clique.  Both tests run on truth tables of
    2^v bits (:func:`_assignment_tables`): the table of assignments that
    hold a red clique, then, among the rest, of those that miss a blue
    one.  The set bits of what is left are the good assignments.
    """
    v = len(red)
    full = (1 << v) - 1
    every, holds, misses = _assignment_tables(v)
    bad = _clique_table(red, constraint.m - 1, full, every, holds)
    bad |= _clique_table(_blue(red), constraint.n - 1, full, every ^ bad,
                         misses)
    good = (every ^ bad).to_bytes(((1 << v) + 7) // 8, "little")
    return np.flatnonzero(np.unpackbits(np.frombuffer(good, dtype=np.uint8),
                                        bitorder="little")).tolist()


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


def _children(parents, constraint: CliqueConstraint,
              count: bool = False) -> list:
    """``(key, red, generators)`` of every good one-vertex extension of
    ``parents`` that is kept, one per canonical class, in order of parent
    and assignment.

    A parent is a ``(red, generators)`` pair: a colouring's red adjacency
    masks and generators of its automorphism group, vertex permutations as
    ``bytes`` of images, empty for a trivial group.  Canonical augmentation
    (McKay, "Isomorph-free exhaustive generation", J. Algorithms 1998): a
    child is kept only when its new vertex lies in the orbit of the first
    vertex of its least ordering, so each class comes from exactly one
    parent class.  Children are tried in ascending order of parent and
    assignment and rejected as early as possible:

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
    test 2 every child kept is a new class and nothing is deduplicated.

    With ``count``, a one-item list of how many children are kept instead,
    for an order that no later order grows from.  Tests 1 to 3 run as
    before.  A child whose new vertex is alone in refined colour cell 0 is
    kept without a key search: every least ordering starts with a vertex
    of cell 0, so it starts with the new vertex, which passes test 4.  The
    new vertex is alone there when its degree is below every other
    vertex's, with no refinement, or when refinement leaves it alone.  Any
    other child runs test 4 without collecting generators.  Only a key
    search can pass the labelling budget and raise :class:`BudgetError`.
    """
    children = []
    kept = 0
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
            if count and (k < least or k == least and a & lowest == lowest):
                # Below every other degree, the new vertex is alone in
                # colour cell 0 before refinement.
                kept += 1
                continue
            child = _extend(red, a)
            colors = _refined_colors(child, v + 1, v)
            if colors[v]:
                continue
            if not count:
                found: set[bytes] = set()
                key = _adjacency_key(child, colors, v, found)
                if key is not None:
                    children.append((key, child, tuple(sorted(found))))
            else:
                kept += (colors.count(0) == 1
                         or _adjacency_key(child, colors, v) is not None)
    return [kept] if count else children


def _counts_below(parents, constraint: CliqueConstraint, v_max: int
                  ) -> list[tuple[list[int], int, BudgetError | None,
                                  str | None]]:
    """One-item list ``[(counts, failed, error, trace)]`` for ``parents`` of
    one order v: ``counts[i]`` classes of order v + 1 + i <= ``v_max`` grow
    from them.

    Each parent's subtree is walked depth-first with :func:`_children` on
    one parent at a time, and order ``v_max`` is only counted, so no order
    is held whole.  A :class:`BudgetError` from one call is caught as
    ``error``, with its traceback text as ``trace`` and ``failed`` the
    order of the children that call grows; that parent's children are
    skipped, and so is every call that would grow order ``failed`` or a
    later one, so ``failed`` is the least order at which any call failed
    and every order before it is counted in full.  Without an error
    ``failed`` is ``v_max + 1`` and ``error`` and ``trace`` are None.
    """
    v = len(parents[0][0])
    counts = [0] * (v_max - v)
    failed, error, trace = v_max + 1, None, None

    def descend(red, generators):
        nonlocal failed, error, trace
        w = len(red) + 1
        if w >= failed:
            return
        try:
            if w == v_max:
                counts[-1] += _children([(red, generators)], constraint,
                                        count=True)[0]
                return
            children = _children([(red, generators)], constraint)
        except BudgetError as exc:
            import traceback
            failed, error = w, exc
            trace = "".join(traceback.format_exception(exc))
            return
        counts[w - v - 1] += len(children)
        for _, child, child_generators in children:
            descend(child, child_generators)

    for red, generators in parents:
        descend(red, generators)
    return [(counts, failed, error, trace)]


def _walk(constraint: CliqueConstraint,
          v_max: int) -> tuple[tuple[int, int], ...]:
    """Count the good canonical classes of each order up to ``v_max``.

    Returns the ``(v, count)`` profile, stopping after the first zero.
    With one process allowed (:func:`allowed_processes`), the whole tree
    is walked depth-first by :func:`_counts_below` from the single vertex.
    Otherwise orders are keyed breadth-first here up to a split order: one
    order below the first with ``_CHUNKS_PER_PROCESS`` parents per
    process, or that first order itself when fewer than two orders would
    remain below the deeper one, or the last order but one when no order
    is that big.  One :func:`_pool.run` call then counts the split order's
    subtrees in chunks, and the chunks' count vectors are added, so the
    profile does not depend on the number of cores or on who claimed which
    chunk.  When a key search passes the labelling budget, the
    :class:`BudgetError` carries the profile of the orders before the first
    that failed, and is raised from the first chunk's error at that order,
    with a worker's traceback chained to that error as its cause.
    """
    parents = [] if _has_forbidden((0,), constraint) else [((0,), ())]
    profile = [(1, len(parents))]
    processes = allowed_processes()
    big = _pool._CHUNKS_PER_PROCESS * processes
    while processes > 1 and parents and len(profile) + 1 < v_max:
        first_big = len(parents) >= big
        if first_big and len(profile) + 3 > v_max:
            break
        try:
            parents = [(red, generators) for _, red, generators
                       in _children(parents, constraint)]
        except BudgetError as exc:
            raise BudgetError(str(exc), partial=tuple(profile)) from exc
        profile.append((len(profile) + 1, len(parents)))
        if first_big:
            break
    if not parents:
        return tuple(profile)
    work = partial(_counts_below, constraint=constraint, v_max=v_max)
    chunks = _pool.run(work, parents,
                       processes if len(parents) >= big else 1,
                       "glue", "counts")
    counts = [sum(column) for column in zip(*(c for c, _, _, _ in chunks))]
    _, failed, error, trace = min(chunks, key=lambda chunk: chunk[1])
    for v, count in enumerate(counts, start=len(profile) + 1):
        if v == failed:
            if error.__traceback__ is None:
                # A worker's error comes back pickled, with its traceback
                # as text.
                error.__cause__ = RuntimeError(f"in a glue chunk:\n{trace}")
            raise BudgetError(str(error), partial=tuple(profile)) from error
        profile.append((v, count))
        if not count:
            break
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
    A signature is one int: the colour, then ``top - count`` for each cell
    in ``v.bit_length()`` bits, with ``top`` the largest such field, so it
    sorts like the tuple of the colour and the negated counts.  Colour ids
    are ranks, so they are invariant under vertex relabelling.  With
    ``first``, refinement stops as soon as ``first`` leaves colour 0: cell
    0 only shrinks, because the new ids rank signatures that start with the
    old colour.
    """
    degrees = [r.bit_count() for r in red]
    rank = {d: c for c, d in enumerate(sorted(set(degrees)))}
    colors = [rank[d] for d in degrees]
    width = v.bit_length()
    top = (1 << width) - 1
    while len(rank) < v and not (first is not None and colors[first]):
        cells = [0] * len(rank)
        for u, c in enumerate(colors):
            cells[c] |= 1 << u
        signatures = []
        for c, r in zip(colors, red):
            if cells[c] & (cells[c] - 1):
                s = c
                for cell in cells:
                    s = s << width | top - (r & cell).bit_count()
            else:
                s = c << width * len(cells)
            signatures.append(s)
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
    any prefix above the best found.  It also prunes by the automorphisms
    it finds: of two tied candidates with the same neighbours apart from
    each other (twins), only the first is tried; a leaf equal to the best
    jumps back to the node where the two orderings part; and a candidate
    in the orbit of an explored sibling, under the automorphisms found that
    fix the prefix, is skipped.  Worst case is still factorial, so a search
    that passes its budget of 65,536 nodes raises :class:`BudgetError`; a
    red 17-cycle does.  Each column takes 2 bytes up to v = 17 and
    ``(v + 6) // 8`` past it.  The key is computed from the red adjacency
    masks, the form the glue walk stores colourings in, and nothing is
    cached.
    The walk keys only the children that pass its degree and colour tests,
    and the same search is its orbit test.
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

    The search keeps every automorphism it finds: for each leaf whose
    columns equal the least found, the permutation mapping that ordering
    onto this one, and the transposition of each twin it drops.  It prunes
    with them in two more ways.  After such a leaf it returns straight to
    the node where the two orderings first differ: that automorphism fixes
    the node's prefix and maps the explored child on the least ordering's
    path onto this one, so the rest of this child's subtree is the image of
    one already searched.  And at every branching node it skips a tied
    candidate in the orbit of an explored sibling under the automorphisms
    found so far that fix the prefix pointwise.  A subtree is thus skipped
    either because its prefix is above the best, so it holds no leaf with
    the least columns, or as the image of a searched subtree under a found
    automorphism, so the key is that of the full search.

    With a set ``generators``, the search adds the automorphisms it found,
    as ``bytes`` of images; once a key is returned they generate the whole
    automorphism group (McKay, "Practical graph isomorphism", Congr. Numer.
    1981).  By induction over the skipped subtrees, every leaf of the full
    tree with the least columns is the image of a visited one under the
    group they generate, and a visited one is the least ordering or was
    recorded as its image.  An automorphism maps the least ordering to such
    a leaf, and the two orderings determine it, so it is a product of the
    generators.
    """
    v = len(red)
    if v == 1:
        return bytes([1])
    if colors is None:
        colors = _refined_colors(red, v)
    sequence = sorted(colors)
    cells = [0] * (sequence[-1] + 1)
    for u, c in enumerate(colors):
        cells[c] |= 1 << u
    full = (1 << v) - 1
    # Columns of the least ordering found so far; every prefix the search
    # visits is <= its prefix, and equal to it once a leaf below is reached.
    best: list[int] | None = None
    best_order: list[int] = []
    beaten = False
    # Automorphisms found, as images mapped to the mask of their fixed points.
    found: dict[bytes, int] = {}
    # The position a leaf equal to best jumps back to; v when none is due.
    back = v
    nodes = 0

    def record(image: list[int]):
        fixed = 0
        for u, w in enumerate(image):
            if u == w:
                fixed |= 1 << u
        found[bytes(image)] = fixed

    def search(t: int, remaining: int, order: list[int], cols: list[int]):
        nonlocal best, best_order, beaten, back, nodes
        nodes += 1
        if nodes > _KEY_NODE_BUDGET:
            raise BudgetError(f"canonical labelling at v={v} passed its "
                              f"budget of {nodes - 1} search nodes",
                              partial=None)
        while t < v:
            members = cells[sequence[t]] & remaining
            if members & (members - 1):
                chunks = []
                while members:
                    low = members & -members
                    members ^= low
                    u = low.bit_length() - 1
                    r, col = red[u], 0
                    for x in order:
                        col = col << 1 | r >> x & 1
                    chunks.append((col, u))
                minimal = min(chunks)[0]
                tied = [u for col, u in chunks if col == minimal]
            else:
                # The last member of its cell: one column and no ties.
                u = members.bit_length() - 1
                r, minimal = red[u], 0
                for x in order:
                    minimal = minimal << 1 | r >> x & 1
                tied = [u]
            if best is not None and minimal != best[t] and cols == best[:t]:
                if minimal > best[t]:
                    return
                if first is not None and order[0] != first:
                    beaten = True
                    return
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
                            swap = list(range(v))
                            swap[u], swap[w] = w, u
                            record(swap)
                            break
                    else:
                        kept.append(w)
                tied = kept
            cols.append(minimal)
            if len(tied) > 1:
                placed = full ^ remaining
                explored = 0
                for i, u in enumerate(tied):
                    if explored >> u & 1:
                        continue
                    search(t + 1, remaining & ~(1 << u), order + [u],
                           cols[:])
                    # A jump back to an earlier position passes through;
                    # one to this position resumes with the next sibling.
                    if beaten or back < t:
                        return
                    back = v
                    explored |= 1 << u
                    if found and i + 1 < len(tied):
                        explored = _closure(explored, [
                            image for image, fixed in found.items()
                            if fixed & placed == placed])
                return
            order.append(tied[0])
            remaining &= ~(1 << tied[0])
            t += 1
        if cols != best:
            best, best_order = cols, order
            return
        image = [0] * v
        for i, (u, w) in enumerate(zip(best_order, order)):
            image[u] = w
            if u != w and back == v:
                back = i
        record(image)

    search(0, full, [], [])
    if generators is not None:
        generators.update(found)
    if beaten:
        return None
    # Byte 0 is v, so keys of different orders never collide.
    width = max(2, (v + 6) // 8)
    out = bytearray([v, sequence[0]])
    for color, col in zip(sequence[1:], best[1:]):
        out.append(color)
        out += col.to_bytes(width, "big")
    return bytes(out)


def _closure(mask: int, images) -> int:
    """The least vertex mask containing ``mask`` that every permutation of
    ``images`` maps onto itself."""
    stack = [u for u in range(mask.bit_length()) if mask >> u & 1]
    while stack:
        u = stack.pop()
        for image in images:
            w = image[u]
            if not mask >> w & 1:
                mask |= 1 << w
                stack.append(w)
    return mask


def brute_force_ramsey(constraint: CliqueConstraint, v_max: int,
                       mode: str = "auto") -> int | None:
    """Smallest v <= v_max admitting no good colouring, or None.

    ``mode="enumerate"`` insists on the labelled sweep at every order and
    raises :class:`BudgetError` (carrying the largest verified order) once
    the edge budget is exceeded.  The default walks the glue-and-prune
    frontier and checks every order inside the edge budget against the
    sweep.
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
            if (v * (v - 1) // 2 <= _ENUM_EDGE_BUDGET
                    and _enumerate_exists(v, constraint) != (count > 0)):
                raise RuntimeError(
                    f"frontier and enumeration disagree at v={v}")
    v, count = profile[-1]
    return v if count == 0 else None


def frontier_profile(constraint: CliqueConstraint,
                     v_max: int) -> tuple[tuple[int, int], ...]:
    """Number of good canonical classes at each order 1..v_max.

    Stops early once the frontier empties; the final recorded count is 0.
    Below the walk's split order every subtree is walked depth-first and
    no order is held whole (see :func:`_walk`).  The count at ``v_max`` is
    taken without keying or keeping its classes: a class whose new vertex
    is alone in the first refined colour cell passes the canonical
    augmentation test without a key search (see :func:`_children`).  When
    one key search passes the labelling budget, :class:`BudgetError`
    carries the profile of the orders already finished.
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
    count capped at d - 1.  The count comes from the frontier walk, so it
    costs the walk to order v: ``survivor_rank(CliqueConstraint(3, 5), 13,
    d)`` is 1 in well under a second, while the (5,5) walk to v = 13 is
    far too long to wait for.  When one key search of the walk passes the
    labelling budget it raises :class:`BudgetError` carrying the profile of
    the finished orders.
    """
    if v < 1:
        raise ValueError(f"v must be >= 1, got {v}")
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    return min(d - 1, _walk(constraint, v)[-1][1])
