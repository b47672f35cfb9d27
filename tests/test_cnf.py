"""DIMACS encoding: headers, clause order, variable map, semantics."""

from __future__ import annotations

import hashlib
import io
import itertools
import math
import os
import re
import sys
import threading
from types import SimpleNamespace
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramsey_toolkit import (CliqueConstraint, CnfInstance, check_small,
                            edge_var, exists_good_coloring, stream_cnf,
                            write_map)
from ramsey_toolkit import _pool, cnf
from ramsey_toolkit.cli import dispatch, main
from ramsey_toolkit.cnf import _BLOCK_LITERALS, _subsets

from conftest import claim_cores


def parse_dimacs(text: str) -> tuple[tuple[int, int], list[list[int]]]:
    lines = text.strip().split("\n")
    tag, kind, nvars, nclauses = lines[0].split()
    assert (tag, kind) == ("p", "cnf")
    clauses = []
    for line in lines[1:]:
        literals = [int(tok) for tok in line.split()]
        assert literals[-1] == 0
        clauses.append(literals[:-1])
    return (int(nvars), int(nclauses)), clauses


def _satisfiable(text: str) -> bool:
    """Evaluate every clause on all 2^nvars assignments at once."""
    (nvars, _), clauses = parse_dimacs(text)
    assignments = (np.arange(1 << nvars)[:, None] >> np.arange(nvars)) & 1 == 1
    satisfied = np.ones(1 << nvars, dtype=bool)
    for clause in clauses:
        satisfied &= np.any(
            [assignments[:, abs(l) - 1] == (l > 0) for l in clause], axis=0)
    return bool(satisfied.any())


def _reference_stream(N: int, m: int, n: int, sink) -> CnfInstance:
    """Reference encoder: one ``edge_var`` call and one format per literal."""
    instance = CnfInstance.for_problem(N, m, n)
    sink.write(f"p cnf {instance.var_count} {instance.clause_count}\n")
    for subset in itertools.combinations(range(1, N + 1), m):
        literals = " ".join(
            f"-{edge_var(a, b, N)}"
            for a, b in itertools.combinations(subset, 2))
        sink.write(literals + " 0\n")
    for subset in itertools.combinations(range(1, N + 1), n):
        literals = " ".join(
            f"{edge_var(a, b, N)}"
            for a, b in itertools.combinations(subset, 2))
        sink.write(literals + " 0\n")
    return instance


def _reference_map(N: int, sink) -> int:
    """Reference map writer: one ``edge_var`` call per edge."""
    count = 0
    for i in range(1, N):
        for j in range(i + 1, N + 1):
            sink.write(f"{edge_var(i, j, N)} {i} {j}\n")
            count += 1
    return count


def _assert_same_text(got, expected) -> None:
    """Assert ``got == expected`` for two str or two bytes values.

    On a mismatch, report the lengths and a short window around the first
    differing offset instead of a diff of texts that can be megabytes long.
    """
    if got == expected:
        return
    offset = next((i for i, (a, b) in enumerate(zip(got, expected))
                   if a != b), min(len(got), len(expected)))
    window = slice(max(0, offset - 40), offset + 40)
    pytest.fail(f"texts differ at offset {offset} (lengths {len(got)} "
                f"and {len(expected)}):\n  got      {got[window]!r}\n"
                f"  expected {expected[window]!r}", pytrace=False)


class TestVariableNumbering:
    def test_examples(self):
        assert edge_var(1, 2, 12) == 1
        assert edge_var(1, 12, 12) == 11
        assert edge_var(2, 3, 12) == 12
        assert edge_var(11, 12, 12) == 66

    @given(st.integers(min_value=2, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_bijection_onto_range(self, N):
        values = [edge_var(i, j, N)
                  for i, j in itertools.combinations(range(1, N + 1), 2)]
        assert values == list(range(1, math.comb(N, 2) + 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            edge_var(2, 2, 5)
        with pytest.raises(ValueError):
            edge_var(3, 1, 5)
        with pytest.raises(ValueError):
            edge_var(1, 6, 5)


class TestStreaming:
    def test_header_small(self):
        sink = io.StringIO()
        instance = stream_cnf(5, 3, 3, sink)
        assert instance == CnfInstance(N=5, m=3, n=3, var_count=10,
                                       clause_count=20)
        (nvars, nclauses), clauses = parse_dimacs(sink.getvalue())
        assert (nvars, nclauses) == (10, 20)
        assert len(clauses) == 20

    def test_header_main_instance(self):
        sink = io.StringIO()
        instance = stream_cnf(12, 5, 5, sink)
        assert instance.var_count == 66
        assert instance.clause_count == 1584
        (nvars, nclauses), clauses = parse_dimacs(sink.getvalue())
        assert (nvars, nclauses) == (66, 1584)
        assert len(clauses) == 1584

    def test_clause_order_and_signs(self):
        sink = io.StringIO()
        stream_cnf(5, 3, 4, sink)
        _, clauses = parse_dimacs(sink.getvalue())
        negatives = [c for c in clauses if all(l < 0 for l in c)]
        positives = [c for c in clauses if all(l > 0 for l in c)]
        assert len(negatives) + len(positives) == len(clauses)
        assert clauses[:len(negatives)] == negatives
        # First m-subset is {1,2,3}: edges {1,2},{1,3},{2,3}.
        assert clauses[0] == [-edge_var(1, 2, 5), -edge_var(1, 3, 5),
                              -edge_var(2, 3, 5)]
        # First n-subset is {1,2,3,4} with all six edges positive.
        assert clauses[len(negatives)] == [
            edge_var(a, b, 5)
            for a, b in itertools.combinations((1, 2, 3, 4), 2)]
        # Lexicographic subset order means the defining subsets ascend.
        subsets = [tuple(sorted({v for l in c for v in _endpoints(abs(l), 5)}))
                   for c in negatives]
        assert subsets == sorted(subsets)

    def test_clause_widths(self):
        sink = io.StringIO()
        stream_cnf(6, 3, 4, sink)
        _, clauses = parse_dimacs(sink.getvalue())
        widths = sorted({len(c) for c in clauses})
        assert widths == [3, 6]

    def test_validation(self):
        with pytest.raises(ValueError):
            stream_cnf(1, 3, 3, io.StringIO())
        with pytest.raises(ValueError):
            stream_cnf(5, 1, 3, io.StringIO())

    @pytest.mark.parametrize("N,m,n", [(20, 2, 6), (28, 5, 2)])
    def test_blocks_within_literal_budget(self, N, m, n):
        texts = []
        stream_cnf(N, m, n, SimpleNamespace(write=texts.append))
        literals = [len(text.split()) - text.count("\n")
                    for text in texts[1:]]
        assert sum(literals) == (math.comb(N, m) * math.comb(m, 2)
                                 + math.comb(N, n) * math.comb(n, 2))
        assert max(literals) <= _BLOCK_LITERALS

    def test_byte_determinism(self):
        first, second = io.StringIO(), io.StringIO()
        stream_cnf(7, 3, 4, first)
        stream_cnf(7, 3, 4, second)
        _assert_same_text(first.getvalue(), second.getvalue())


class TestSubsets:
    @pytest.mark.parametrize("N", range(1, 11))
    def test_matches_combinations(self, N):
        for k in range(1, N + 1):
            table = _subsets(N, k)
            assert table.dtype == np.uint16
            assert table.flags.c_contiguous
            assert table.shape == (math.comb(N, k), k)
            assert [tuple(row) for row in table.tolist()] == list(
                itertools.combinations(range(1, N + 1), k))

    def test_paper_size_table(self):
        table = _subsets(46, 5)
        assert table.shape == (1_370_754, 5)
        assert table[0].tolist() == [1, 2, 3, 4, 5]
        assert table[-1].tolist() == [42, 43, 44, 45, 46]

    @pytest.mark.parametrize("N,m,n,sizes", [(12, 5, 5, [4]),
                                             (12, 4, 5, [3, 4])],
                             ids=["12-5-5", "12-4-5"])
    def test_one_table_per_clause_size(self, monkeypatch, N, m, n, sizes):
        # Both sides of a diagonal instance share one subset table.
        calls = []
        subsets = cnf._subsets

        def counting(N, k):
            calls.append(k)
            return subsets(N, k)

        monkeypatch.setattr(cnf, "_subsets", counting)
        got, expected = io.StringIO(), io.StringIO()
        stream_cnf(N, m, n, got)
        _reference_stream(N, m, n, expected)
        _assert_same_text(got.getvalue(), expected.getvalue())
        assert calls == sizes


class TestByteOracle:
    """The chunked encoder writes exactly the reference encoder's bytes."""

    # m = 2 gives one-literal clauses; m or n > N gives no clauses of that
    # sign; N = 5, 15, 46 put the largest variable at 10, 105 and 1,035,
    # so token widths change inside one instance; (20, 5, 3) and (20, 2, 6)
    # span several blocks.  A clause {i} + S is a head of edges (i, s) and
    # the suffix row of S: (8, 2, 3) and (8, 3, 2) give suffixes with no
    # pair and one pair, (8, 8, 9) and (8, 9, 8) one clause of size N and
    # none of size N + 1, and in (28, 5, 2) first vertex 1 alone has
    # C(27, 4) = 17,550 suffixes, more than the 13,107 rows of a size-5
    # block.
    GRID = [(2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 3), (5, 2, 2),
            (5, 2, 3), (5, 3, 2), (5, 3, 4), (5, 6, 3), (5, 3, 6),
            (5, 5, 5), (7, 7, 3), (9, 2, 3), (12, 3, 4), (12, 5, 5),
            (15, 2, 3), (15, 3, 3), (20, 5, 3), (20, 2, 6), (46, 2, 3),
            (46, 3, 3), (8, 2, 3), (8, 3, 2), (8, 8, 9), (8, 9, 8),
            (28, 5, 2)]

    @pytest.mark.parametrize("N,m,n", GRID)
    def test_stream_matches_reference_stringio(self, N, m, n):
        got, expected = io.StringIO(), io.StringIO()
        assert stream_cnf(N, m, n, got) == _reference_stream(N, m, n,
                                                              expected)
        _assert_same_text(got.getvalue(), expected.getvalue())

    @pytest.mark.parametrize("N,m,n", [(2, 2, 3), (5, 3, 6), (15, 2, 3),
                                       (20, 2, 6), (46, 3, 3)])
    def test_stream_matches_reference_file(self, tmp_path, N, m, n):
        path = tmp_path / "instance.cnf"
        with open(path, "w", encoding="ascii", newline="") as sink:
            stream_cnf(N, m, n, sink)
        expected = io.StringIO()
        _reference_stream(N, m, n, expected)
        _assert_same_text(path.read_bytes(),
                          expected.getvalue().encode("ascii"))

    @pytest.mark.parametrize("N", [2, 3, 5, 15, 46])
    def test_map_matches_reference(self, N):
        got, expected = io.StringIO(), io.StringIO()
        assert write_map(N, got) == _reference_map(N, expected)
        _assert_same_text(got.getvalue(), expected.getvalue())

    # SHA-256 of stream_cnf(N, 5, 5) at paper size; N = 32 is also the
    # benchmark's reference digest.
    PAPER_DIGESTS = {
        32: "fcaa0c7b1ace3944fe3b6853dc2601358ad24177b26df4509949e2ba8eaf341b",
        43: "056b47ea8c89d70dc84b07aee4a6f7488569e682d2e40f29895eb65205dfbf61",
    }

    @pytest.mark.parametrize("N", sorted(PAPER_DIGESTS))
    def test_paper_size_digests_pinned(self, N):
        # Hash each write as it comes, so no 88 MB text is held.
        digest = hashlib.sha256()
        stream_cnf(N, 5, 5, SimpleNamespace(
            write=lambda text: digest.update(text.encode("ascii"))))
        assert digest.hexdigest() == self.PAPER_DIGESTS[N]

    def test_cli_digests_pinned(self, tmp_path):
        target = tmp_path / "r44_N20.cnf"
        assert dispatch(["cnf", "-N", "20", "-m", "4", "-n", "4",
                         "-o", str(target), "--map"]) == 0
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in (target, tmp_path / "r44_N20.cnf.map")}
        assert digests == {
            "r44_N20.cnf": "1d2fcbdec2875ac17bfb5e6c627b245810bb10ca6c963cc"
                           "999ccf5e637c6df27",
            "r44_N20.cnf.map": "49cd1de78416743367379eb0788e40783f75d660b883f"
                               "0d58c58b349e78e1aba",
        }


class TestPooledCnf:
    """The CLI writes every output, regular file, FIFO or device, in order
    from this process: the header, then each side's blocks, as bytes.  The
    bytes must be the reference encoder's, a failed run must remove a
    regular ``-o`` and leave a FIFO in place, and no worker may be forked.
    (The class and test names date from when the CLI wrote each side at
    its own file offset through the worker pool; each case now pins the
    in-order writer on 1 and 2 claimed cores.)"""

    @staticmethod
    def assert_no_children():
        # Covers running children and unreaped zombies alike.
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def count_pool_runs(monkeypatch) -> list:
        calls = []
        run = _pool.run

        def counting(*args):
            calls.append(args)
            return run(*args)

        monkeypatch.setattr(_pool, "run", counting)
        return calls

    @staticmethod
    def reference_bytes(N: int, m: int, n: int) -> bytes:
        expected = io.StringIO()
        _reference_stream(N, m, n, expected)
        return expected.getvalue().encode("ascii")

    @staticmethod
    def read_fifo(fifo) -> tuple[Callable[[], None], list]:
        """Start a thread that reads ``fifo`` to its end; returns a join
        function and the list its bytes go into.

        The join opens and closes a write end until the thread has ended,
        so a reader still waiting in its open, because the command never
        opened ``fifo``, reads an empty end instead of hanging the test.
        """
        chunks = []

        def drain():
            with open(fifo, "rb") as reader:
                chunks.append(reader.read())

        thread = threading.Thread(target=drain)
        thread.start()

        def join() -> None:
            while thread.is_alive():
                try:
                    os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
                except OSError:  # ENXIO: no reader has the FIFO open
                    pass
                thread.join(0.01)

        return join, chunks

    @staticmethod
    def fail_positive_side(monkeypatch):
        """Make the positive side, the second ``_stream_clauses`` call,
        raise before its first block."""
        stream_clauses = cnf._stream_clauses
        calls = []

        def failing(*args):
            calls.append(args)
            if len(calls) == 2:
                raise ValueError("positive side failed")
            return stream_clauses(*args)

        monkeypatch.setattr(cnf, "_stream_clauses", failing)

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("N,m,n", TestByteOracle.GRID)
    def test_cli_matches_reference(self, tmp_path, monkeypatch, N, m, n,
                                   cores):
        forks = claim_cores(monkeypatch, cores)
        runs = self.count_pool_runs(monkeypatch)
        target = tmp_path / "instance.cnf"
        assert dispatch(["cnf", "-N", str(N), "-m", str(m), "-n", str(n),
                         "-o", str(target)]) == 0
        _assert_same_text(target.read_bytes(), self.reference_bytes(N, m, n))
        assert forks == [] and runs == []
        self.assert_no_children()

    @pytest.mark.parametrize("cores", [1, 2])
    def test_paper_digest_through_cli(self, tmp_path, monkeypatch, cores):
        forks = claim_cores(monkeypatch, cores)
        runs = self.count_pool_runs(monkeypatch)
        target = tmp_path / "r55_N32.cnf"
        assert dispatch(["cnf", "-N", "32", "-m", "5", "-n", "5",
                         "-o", str(target)]) == 0
        assert hashlib.sha256(target.read_bytes()).hexdigest() == \
            TestByteOracle.PAPER_DIGESTS[32]
        assert forks == [] and runs == []
        self.assert_no_children()

    def test_sides_written_here_while_a_thread_lives(self, tmp_path,
                                                     monkeypatch):
        # A second thread alive changes nothing: the CLI never forks.
        forks = claim_cores(monkeypatch, 2)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            target = tmp_path / "instance.cnf"
            assert dispatch(["cnf", "-N", "12", "-m", "3", "-n", "4",
                             "-o", str(target)]) == 0
        finally:
            stop.set()
            thread.join()
        assert forks == []
        _assert_same_text(target.read_bytes(), self.reference_bytes(12, 3, 4))

    def test_pipe_written_in_order(self, tmp_path):
        # The CLI writes into a FIFO as into a file, and leaves it in
        # place.
        fifo = tmp_path / "instance.cnf"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert dispatch(["cnf", "-N", "7", "-m", "3", "-n", "4",
                             "-o", str(fifo)]) == 0
            got = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        _assert_same_text(got, self.reference_bytes(7, 3, 4))
        assert fifo.exists()

    def test_fifo_summary_counts_bytes_written(self, tmp_path, capsys):
        # The summary's size is the bytes written, not the size of -o,
        # which reads 0 for a FIFO: both outputs get the same bytes and
        # the same figure (1.3 MB).
        fifo, target = tmp_path / "fifo.cnf", tmp_path / "file.cnf"
        os.mkfifo(fifo)
        join, chunks = self.read_fifo(fifo)
        try:
            assert dispatch(["cnf", "-N", "20", "-o", str(fifo)]) == 0
        finally:
            join()
        piped = capsys.readouterr().err
        assert dispatch(["cnf", "-N", "20", "-o", str(target)]) == 0
        filed = capsys.readouterr().err
        sizes = [re.search(r"clauses, (\S+) MB in", text).group(1)
                 for text in (piped, filed)]
        assert sizes == ["1.3", "1.3"]
        _assert_same_text(chunks[0], target.read_bytes())

    @pytest.mark.parametrize("cores", [1, 2])
    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, capsys,
                                         cores):
        # The positive side fails: the header and the negative side are
        # already written, and the command removes them and writes no map.
        self.fail_positive_side(monkeypatch)
        forks = claim_cores(monkeypatch, cores)
        runs = self.count_pool_runs(monkeypatch)
        target = tmp_path / "r55_N12.cnf"
        monkeypatch.setattr(sys, "argv", [
            "ramsey-toolkit", "cnf", "-N", "12", "-o", str(target), "--map"])
        assert main() == 1
        assert "error: positive side failed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        assert forks == [] and runs == []
        self.assert_no_children()

    def test_failed_write_leaves_fifo(self, tmp_path, monkeypatch, capsys):
        # The same failure into a FIFO exits 1 and writes no map, but the
        # FIFO is not the command's to remove: the reader gets the header
        # and the negative side, and the FIFO stays.
        self.fail_positive_side(monkeypatch)
        fifo = tmp_path / "r34_N12.cnf"
        os.mkfifo(fifo)
        join, chunks = self.read_fifo(fifo)
        monkeypatch.setattr(sys, "argv", [
            "ramsey-toolkit", "cnf", "-N", "12", "-m", "3", "-n", "4",
            "-o", str(fifo), "--map"])
        try:
            assert main() == 1
        finally:
            join()
        assert "error: positive side failed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [fifo]
        expected = self.reference_bytes(12, 3, 4)
        _assert_same_text(chunks[0],
                          expected[:expected.index(b"\n1 ") + 1])

    @pytest.mark.parametrize("failure", ["directory", "partial"])
    def test_failed_map_leaves_no_file(self, tmp_path, monkeypatch, capsys,
                                       failure):
        # The map cannot be opened (its path is a directory) or fails
        # after its first line: the command exits 1, removes the regular
        # -o and a partial map, and prints no "wrote" line.
        target = tmp_path / "r34_N12.cnf"
        map_path = tmp_path / "r34_N12.cnf.map"
        if failure == "directory":
            map_path.mkdir()
        else:
            def partial(N, sink):
                sink.write("1 1 2\n")
                sink.flush()
                raise OSError("map failed")

            monkeypatch.setattr("ramsey_toolkit.cli.write_map", partial)
        monkeypatch.setattr(sys, "argv", [
            "ramsey-toolkit", "cnf", "-N", "12", "-m", "3", "-n", "4",
            "-o", str(target), "--map"])
        assert main() == 1
        out, err = capsys.readouterr()
        assert "wrote" not in out and "error: " in err
        assert list(tmp_path.iterdir()) == (
            [map_path] if failure == "directory" else [])

    def test_failed_map_leaves_fifo(self, tmp_path, capsys):
        # The same failure after a complete instance went into a FIFO:
        # the FIFO is not the command's to remove, and the reader got
        # every byte.
        fifo = tmp_path / "r34_N12.cnf"
        os.mkfifo(fifo)
        (tmp_path / "r34_N12.cnf.map").mkdir()
        join, chunks = self.read_fifo(fifo)
        try:
            with pytest.raises(IsADirectoryError):
                dispatch(["cnf", "-N", "12", "-m", "3", "-n", "4",
                          "-o", str(fifo), "--map"])
        finally:
            join()
        assert "wrote" not in capsys.readouterr().out
        assert fifo.exists()
        _assert_same_text(chunks[0], self.reference_bytes(12, 3, 4))


def _endpoints(var: int, N: int) -> tuple[int, int]:
    for i, j in itertools.combinations(range(1, N + 1), 2):
        if edge_var(i, j, N) == var:
            return (i, j)
    raise AssertionError(f"variable {var} out of range for N={N}")


class TestMap:
    def test_round_trip(self):
        sink = io.StringIO()
        count = write_map(12, sink)
        assert count == 66
        lines = sink.getvalue().strip().split("\n")
        assert len(lines) == 66
        for line in lines:
            var, i, j = map(int, line.split())
            assert edge_var(i, j, 12) == var
        assert [int(l.split()[0]) for l in lines] == list(range(1, 67))


class TestSemantics:
    @pytest.mark.parametrize("N,m,n", [(4, 3, 3), (5, 3, 3), (6, 3, 3),
                                       (5, 3, 4), (6, 4, 4)])
    def test_assignment_satisfies_iff_coloring_good(self, N, m, n):
        sink = io.StringIO()
        stream_cnf(N, m, n, sink)
        _, clauses = parse_dimacs(sink.getvalue())
        constraint = CliqueConstraint(m, n)
        e = math.comb(N, 2)
        from ramsey_toolkit import EdgeColoring, has_forbidden_clique
        for mask in range(1 << e):
            # Variable t+1 corresponds to bit t in both encodings.
            assignment = [(mask >> t) & 1 == 1 for t in range(e)]
            satisfied = all(
                any(assignment[l - 1] if l > 0 else not assignment[-l - 1]
                    for l in clause)
                for clause in clauses)
            coloring = EdgeColoring.from_mask(N, mask)
            assert satisfied == (not has_forbidden_clique(coloring,
                                                          constraint))

    def test_check_small_matches_existence(self):
        for N in (4, 5, 6, 7):
            assert check_small(N, 3, 3) == exists_good_coloring(
                N, CliqueConstraint(3, 3))
            # Second routes: the glue walk, and for small N the streamed
            # clauses evaluated one by one.
            assert check_small(N, 3, 3) == exists_good_coloring(
                N, CliqueConstraint(3, 3), "glue")
            if N <= 6:
                sink = io.StringIO()
                stream_cnf(N, 3, 3, sink)
                assert check_small(N, 3, 3) == _satisfiable(sink.getvalue())
        assert check_small(8, 3, 4) is True
        with pytest.raises(ValueError):
            check_small(9, 3, 4)
