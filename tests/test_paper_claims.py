"""A ledger of the source paper's claims: what this toolkit reads for each.

One test per claim of the abstract, each pinning the toolkit's own reading
through the CLI, whether or not it agrees with the paper.  The README's
"Paper claims" table has the same rows.  A change that moves a reading must
update both, and must come from the paper's text or from an exact result,
never from choosing a rule or a window because it gives the paper's answer.
"""

from __future__ import annotations

import csv
import re

import pytest

from ramsey_toolkit.cli import dispatch


def run(capsys, *argv) -> str:
    """stdout of one CLI run, which must exit 0."""
    capsys.readouterr()
    assert dispatch(list(argv)) == 0
    return capsys.readouterr().out


def test_diag_does_not_identify_45(capsys, tmp_path):
    # "Both diagnostics identify R(5,5) at n = 45."  The default embedding,
    # SeedSchedule, plants no rank structure, so its rows at 43-46 differ
    # only by their seed draws, and the decision rule reads n = 45 as false.
    out = run(capsys, "diag", "--d", "24", "--k", "400",
              "--out_dir", str(tmp_path))
    verdicts = dict(re.findall(r"^n=(\d+): .* critical=(\w+)$", out,
                               re.MULTILINE))
    assert verdicts == {"43": "indeterminate", "44": "False",
                        "45": "False", "46": "indeterminate"}


def test_prime_heuristic_reads_44(capsys, tmp_path):
    # The prime-sequence heuristic for 45: the default rule on the corridor
    # [43, 46] reads 44 = 2^2 * 11, persistent for k = 5..8.  45 = 3^2 * 5
    # ties it on distinct primes and on the largest exponent and loses on
    # the last criterion, the smaller value; 45 is selected only at k = 3, 4.
    out = run(capsys, "prime", "--n", "5", "--out_dir", str(tmp_path))
    assert out.splitlines()[0] == "n=5 window [43,46]: persistent 44 (k=5..8)"
    with open(tmp_path / "prime_scan.csv", newline="") as table:
        selected = {int(row["k"]): int(row["selected"])
                    for row in csv.DictReader(table)}
    assert [k for k, value in selected.items() if value == 45] == [3, 4]


@pytest.mark.parametrize("order,lo,hi,reads", [
    (3, 5, 7, 5), (4, 17, 19, 18)], ids=["R33", "R44"])
def test_prime_heuristic_back_tests(capsys, tmp_path, order, lo, hi, reads):
    # The same rule on the values the glue walk computes exactly, each in a
    # window around the known value: it reads 5 against R(3,3) = 6, and 18
    # against R(4,4) = 18.
    out = run(capsys, "prime", "--n", str(order), "--lo", str(lo),
              "--hi", str(hi), "--out_dir", str(tmp_path))
    value = int(re.match(rf"n={order} window \[{lo},{hi}\]: persistent "
                         r"(\d+) ", out).group(1))
    assert value == reads


def test_edge_encoding_needs_990_qubits(capsys, tmp_path):
    # "C(n, 2) ~ 10^3 logical qubits demanded by direct edge encodings":
    # reproduced, C(45, 2) = 990 edge qubits.
    out = run(capsys, "estimate", "--n", "45", "--out_dir", str(tmp_path))
    assert out.splitlines()[0] == "n=45: 990 edge qubits, 1006 total"


def test_five_data_qubits_not_computed_yet(capsys, tmp_path):
    # "Only five data qubits plus a few ancillas for R(5,5) = 45": not
    # computed yet (ROADMAP item 8).  estimate gives the edge side alone.
    run(capsys, "estimate", "--n", "45", "--out_dir", str(tmp_path))
    assert [path.name for path in tmp_path.iterdir()] == ["qubit_costs.csv"]
    with open(tmp_path / "qubit_costs.csv", newline="") as table:
        assert next(csv.reader(table)) == ["n", "edge_qubits",
                                           "total_qubits"]


def test_r66_r77_few_qubit_estimates_not_computed_yet(capsys, tmp_path):
    # "Few-qubit estimates for R(6,6) and R(7,7)": not computed yet
    # (ROADMAP item 8).  On the bound corridors [102, 160] and [205, 492]
    # that prime scans, the edge side reads thousands of qubits.
    out = run(capsys, "estimate", "--n", "102", "160", "205", "492",
              "--out_dir", str(tmp_path))
    assert out.splitlines()[:4] == [
        "n=102: 5151 edge qubits, 5167 total",
        "n=160: 12720 edge qubits, 12736 total",
        "n=205: 20910 edge qubits, 20926 total",
        "n=492: 120786 edge qubits, 120802 total"]
