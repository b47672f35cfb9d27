"""Shared fixtures: reference colourings, permutation helpers, and a core
count for the worker-pool tests."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from ramsey_toolkit import EdgeColoring, edge_index

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def coloring_from_red_edges(v: int, red_edges) -> EdgeColoring:
    bits = [False] * (v * (v - 1) // 2)
    for a, b in red_edges:
        if a > b:
            a, b = b, a
        bits[edge_index(a, b, v)] = True
    return EdgeColoring(v=v, bits=tuple(bits))


def permute_coloring(coloring: EdgeColoring, perm) -> EdgeColoring:
    """Relabel vertices: ``perm[i - 1]`` is the new name of vertex i."""
    v = coloring.v
    bits = [False] * (v * (v - 1) // 2)
    for i in range(1, v + 1):
        for j in range(i + 1, v + 1):
            a, b = perm[i - 1], perm[j - 1]
            if a > b:
                a, b = b, a
            bits[edge_index(a, b, v)] = coloring.is_red(i, j)
    return EdgeColoring(v=v, bits=tuple(bits))


def claim_cores(monkeypatch, count: int) -> list:
    """Claim ``count`` usable cores; returns the list of workers forked."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)))
    fork, forks = os.fork, []

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


@pytest.fixture
def pentagon() -> EdgeColoring:
    """Red 5-cycle: the unique good colouring for (3, 3) on five vertices."""
    return coloring_from_red_edges(
        5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])


@pytest.fixture
def paley17() -> EdgeColoring:
    """Quadratic-residue colouring on 17 vertices; good for (4, 4)."""
    residues = {(x * x) % 17 for x in range(1, 17)}
    edges = [(i, j) for i in range(1, 18) for j in range(i + 1, 18)
             if (j - i) % 17 in residues or (i - j) % 17 in residues]
    return coloring_from_red_edges(17, edges)


@pytest.fixture
def am46_dir() -> Path:
    return FIXTURE_DIR / "am46"
