"""Command-line surface: artifacts, exit codes, determinism."""

from __future__ import annotations

import multiprocessing
import re
import subprocess
import sys

import numpy as np
import pytest

from ramsey_toolkit import cli, combinatorics, diagnostics
from ramsey_toolkit.cli import dispatch, main


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _fail_at_five(monkeypatch):
    """Make the CLI's diag sweep fail its record at order 5."""
    class FailsAtFive(diagnostics.SeedSchedule):
        def batch(self, d, k, seed, n):
            if n == 5:
                raise np.linalg.LinAlgError("no convergence")
            return super().batch(d, k, seed, n)

    real = cli.run_diagnostics
    monkeypatch.setattr(
        cli, "run_diagnostics",
        lambda config, orders: real(config, orders, FailsAtFive()))


class TestDiag:
    def test_minimal_table_invocation(self, tmp_path):
        status = dispatch(["diag", "--d", "24", "--k", "400",
                           "--alpha", "0.5", "--seed", "12345",
                           "--out_dir", str(tmp_path)])
        assert status == 0
        rows = read_csv(tmp_path / "results_table_I.csv")
        assert [row["n"] for row in rows] == ["43", "44", "45", "46"]
        assert all(row["d"] == "24" and row["k"] == "400" for row in rows)
        # Sweep endpoints lack a neighbour on one side.
        assert rows[0]["critical"] == "indeterminate"
        assert rows[-1]["critical"] == "indeterminate"

    def test_control_table(self, tmp_path, am46_dir):
        status = dispatch(["diag", "--d", "8", "--k", "20",
                           "--alpha", "2.0", "--seed", "3",
                           "--n", "4", "5",
                           "--out_dir", str(tmp_path),
                           "--am46_dir", str(am46_dir)])
        assert status == 0
        control_rows = read_csv(tmp_path / "results_table_III.csv")
        assert len(control_rows) == 1
        assert control_rows[0]["n"] == "46"
        assert control_rows[0]["critical"] != "true"

    def test_missing_control_dir_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "argv",
                            ["ramsey-toolkit", "diag", "--d", "8",
                             "--k", "10", "--n", "4",
                             "--out_dir", str(tmp_path),
                             "--am46_dir", str(tmp_path / "absent")])
        assert main() == 1

    def test_failed_record_is_reported_and_exits_nonzero(
            self, tmp_path, monkeypatch, capsys):
        _fail_at_five(monkeypatch)
        status = dispatch(["diag", "--d", "8", "--k", "12", "--seed", "5",
                           "--n", "4", "5", "6", "--out_dir", str(tmp_path)])
        assert status == 1
        assert "n=5: LinAlgError: no convergence" in capsys.readouterr().err
        rows = read_csv(tmp_path / "results_table_I.csv")
        assert [row["n"] for row in rows] == ["4", "5", "6"]
        assert rows[1]["rho_H"] == "nan"

    def test_summary_on_stderr(self, tmp_path, capsys, monkeypatch):
        assert dispatch(["diag", "--d", "8", "--k", "12", "--seed", "5", "7",
                         "--n", "4", "5", "6",
                         "--out_dir", str(tmp_path)]) == 0
        assert re.fullmatch(
            r"diag: 3 orders x 2 seeds at d=8, k=12, 0 failed "
            r"in \d+\.\d\d s\n",
            capsys.readouterr().err)

        _fail_at_five(monkeypatch)
        assert dispatch(["diag", "--d", "8", "--k", "12", "--seed", "5",
                         "--n", "4", "5", "--out_dir", str(tmp_path)]) == 1
        summary, error = capsys.readouterr().err.splitlines()
        assert re.fullmatch(
            r"diag: 2 orders x 1 seeds at d=8, k=12, 1 failed "
            r"in \d+\.\d\d s",
            summary)
        assert error == "error: n=5: LinAlgError: no convergence"

    def test_byte_determinism(self, tmp_path):
        args = ["diag", "--d", "8", "--k", "12", "--alpha", "1.0", "3.0",
                "--seed", "5", "7", "--n", "3", "4", "5"]
        dispatch(args + ["--out_dir", str(tmp_path / "a")])
        dispatch(args + ["--out_dir", str(tmp_path / "b")])
        first = (tmp_path / "a" / "results_table_I.csv").read_bytes()
        second = (tmp_path / "b" / "results_table_I.csv").read_bytes()
        assert first == second


class TestCnf:
    def test_main_instance_with_map(self, tmp_path):
        target = tmp_path / "r55_N12.cnf"
        status = dispatch(["cnf", "-N", "12", "-m", "5", "-n", "5",
                           "-o", str(target), "--map"])
        assert status == 0
        lines = target.read_text().strip().split("\n")
        assert lines[0] == "p cnf 66 1584"
        assert len(lines) == 1585
        map_lines = (tmp_path / "r55_N12.cnf.map").read_text().strip()
        assert len(map_lines.split("\n")) == 66
        assert map_lines.split("\n")[0] == "1 1 2"

    def test_summary_on_stderr(self, tmp_path, capsys):
        assert dispatch(["cnf", "-N", "12", "-m", "5", "-n", "5",
                         "-o", str(tmp_path / "r55_N12.cnf")]) == 0
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"cnf: 1584 clauses, 0\.1 MB in \d+\.\d\d s "
            r"\(\d+\.\dM clauses/s\)\n", err)

    def test_determinism(self, tmp_path):
        for name in ("one.cnf", "two.cnf"):
            dispatch(["cnf", "-N", "7", "-m", "3", "-n", "4",
                      "-o", str(tmp_path / name)])
        assert (tmp_path / "one.cnf").read_bytes() == \
            (tmp_path / "two.cnf").read_bytes()


class TestGlue:
    def test_frontier_to_threshold(self, tmp_path, capsys):
        status = dispatch(["glue", "-m", "3", "-n", "3", "--vmax", "6",
                           "--out_dir", str(tmp_path)])
        assert status == 0
        rows = read_csv(tmp_path / "glue_frontier.csv")
        observed = [(row["v"], row["good_classes"]) for row in rows]
        assert observed == [("1", "1"), ("2", "2"), ("3", "2"),
                            ("4", "3"), ("5", "1"), ("6", "0")]
        assert "threshold reached" in capsys.readouterr().out

    def test_budget_keeps_partial_frontier(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.setattr(combinatorics, "_CANONICAL_V_BUDGET", 6)
        status = dispatch(["glue", "-m", "3", "-n", "4", "--vmax", "9",
                           "--out_dir", str(tmp_path)])
        assert status == 1
        rows = read_csv(tmp_path / "glue_frontier.csv")
        observed = [(row["v"], row["good_classes"]) for row in rows]
        assert observed == [("1", "1"), ("2", "2"), ("3", "3"),
                            ("4", "6"), ("5", "9"), ("6", "15")]
        captured = capsys.readouterr()
        assert "threshold reached" not in captured.out
        assert "error:" in captured.err and "v <= 6" in captured.err

    def test_budget_in_worker_keeps_partial_frontier(self, tmp_path, capsys,
                                                     monkeypatch):
        # Forked workers inherit the patched budget and cut-off, so the
        # BudgetError is raised in a worker of every level's pool.
        monkeypatch.setattr(combinatorics, "_CANONICAL_V_BUDGET", 10)
        monkeypatch.setattr(combinatorics, "_PARALLEL_MIN_PARENTS", 0)
        status = dispatch(["glue", "-m", "3", "-n", "5", "--vmax", "11",
                           "--out_dir", str(tmp_path)])
        assert status == 1
        rows = read_csv(tmp_path / "glue_frontier.csv")
        assert [row["good_classes"] for row in rows] == [
            "1", "2", "3", "7", "13", "32", "71", "179", "290", "313"]
        assert "v <= 10" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_summary_on_stderr(self, tmp_path, capsys, monkeypatch):
        assert dispatch(["glue", "-m", "3", "-n", "3", "--vmax", "8",
                         "--out_dir", str(tmp_path)]) == 0
        assert re.fullmatch(
            r"glue: \(3,3\) to v=8, 0 classes at v=6 in \d+\.\d\d s\n",
            capsys.readouterr().err)
        monkeypatch.setattr(combinatorics, "_CANONICAL_V_BUDGET", 6)
        assert dispatch(["glue", "-m", "3", "-n", "4", "--vmax", "9",
                         "--out_dir", str(tmp_path)]) == 1
        summary, error = capsys.readouterr().err.splitlines()
        assert re.fullmatch(
            r"glue: \(3,4\) to v=9, 15 classes at v=6 in \d+\.\d\d s",
            summary)
        assert error.startswith("error: ")


class TestPrime:
    def test_default_scan(self, tmp_path):
        status = dispatch(["prime", "--out_dir", str(tmp_path)])
        assert status == 0
        rows = read_csv(tmp_path / "prime_scan.csv")
        six = [row for row in rows if row["n_diag"] == "6"]
        seven = [row for row in rows if row["n_diag"] == "7"]
        assert {row["selected"] for row in six if row["in_plateau"] == "true"} \
            == {"115"}
        assert {row["selected"] for row in seven if row["in_plateau"] == "true"} \
            == {"209"}

    def test_explicit_window_single_order(self, tmp_path):
        status = dispatch(["prime", "--n", "5", "--lo", "43", "--hi", "46",
                           "--out_dir", str(tmp_path)])
        assert status == 0
        rows = read_csv(tmp_path / "prime_scan.csv")
        assert all(row["lo"] == "43" and row["hi"] == "46" for row in rows)

    def test_window_flags_require_single_order(self):
        with pytest.raises(ValueError):
            dispatch(["prime", "--n", "6", "7", "--lo", "1", "--hi", "9"])
        with pytest.raises(ValueError):
            dispatch(["prime", "--n", "6", "--lo", "100"])

    def test_unknown_order_needs_window(self):
        with pytest.raises(ValueError):
            dispatch(["prime", "--n", "9"])

    def test_bad_window_writes_nothing(self, tmp_path):
        with pytest.raises(ValueError):
            dispatch(["prime", "--n", "6", "9", "--out_dir", str(tmp_path)])
        assert list(tmp_path.iterdir()) == []


class TestQsim:
    def test_verification_suite_passes(self, tmp_path):
        status = dispatch(["qsim", "--seed", "12345",
                           "--out_dir", str(tmp_path)])
        assert status == 0
        rows = read_csv(tmp_path / "qsim_results.csv")
        assert len(rows) == 6
        assert all(row["status"] == "true" for row in rows)
        assert {row["check"] for row in rows} == {
            "rank1_block", "lcu_block", "completion_block", "hadamard_exact",
            "hutchinson_vs_witness", "phase_estimate"}


class TestEstimate:
    def test_default_orders(self, tmp_path):
        status = dispatch(["estimate", "--out_dir", str(tmp_path)])
        assert status == 0
        rows = read_csv(tmp_path / "qubit_costs.csv")
        observed = [(row["n"], row["edge_qubits"], row["total_qubits"])
                    for row in rows]
        assert observed == [("44", "946", "962"), ("45", "990", "1006"),
                            ("46", "1035", "1051")]


class TestEntryPoints:
    def test_unknown_subcommand_exits_with_usage(self):
        with pytest.raises(SystemExit) as info:
            dispatch(["transmogrify"])
        assert info.value.code == 2

    def test_module_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "ramsey_toolkit", "estimate",
             "--n", "2", "--out_dir", str(tmp_path)],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert "n=2: 1 edge qubits, 17 total" in result.stdout

    def test_main_reports_errors_on_stderr(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["ramsey-toolkit", "prime",
                                          "--n", "9"])
        assert main() == 1
        assert "error:" in capsys.readouterr().err

    def test_subcommands_import_numpy_only(self, tmp_path):
        # The package declares numpy as its only runtime dependency; a graph
        # or scientific library that happens to be installed must not creep
        # into any subcommand's import graph.
        script = f"""
import sys
from ramsey_toolkit.cli import dispatch
out = {str(tmp_path)!r}
for argv in (["glue", "-m", "3", "-n", "3", "--vmax", "6"],
             ["diag", "--d", "8", "--k", "12", "--seed", "5", "--n", "4", "5"],
             ["qsim"], ["prime"], ["estimate"]):
    assert dispatch(argv + ["--out_dir", out]) == 0, argv
assert dispatch(["cnf", "-N", "6", "-m", "3", "-n", "3", "--map",
                 "-o", out + "/r33_N6.cnf"]) == 0
loaded = {{name.partition(".")[0] for name in sys.modules}}
print(sorted(loaded & {{"scipy", "networkx", "sympy", "numba"}}))
"""
        result = subprocess.run([sys.executable, "-c", script],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip().split("\n")[-1] == "[]"
