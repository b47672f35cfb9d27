"""Command-line front end: six subcommands over the library primitives.

Every run is a pure function of its flags: explicit seeds, sorted
iteration orders and canonical CSV formatting make repeated invocations
byte-identical.  Exit status is 0 exactly when all requested artifacts
were written and validated; a ``diag`` record that carries an error, or a
``glue`` run in which one key search passes the labelling budget of search
nodes (which still writes the orders it finished), is reported on stderr
and makes the status nonzero.  ``diag``,
``cnf`` and ``glue`` also print a one-line run summary on stderr, so that
no artifact depends on the clock.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .cnf import CnfInstance, _write_cnf, write_map
from .combinatorics import (BudgetError, CliqueConstraint, frontier_profile,
                            qubit_cost)
from .diagnostics import (DiagnosticsConfig, build_accumulator,
                          control_record, exp_witness, run_diagnostics,
                          sample_directions)
from .primes import factorize, persistence_scan
from .qsim import (block_encode_rank1, encode_operator, hadamard_test,
                   hutchinson_trace, lcu_block_encode, phase_estimate_dilation,
                   phase_resolution)
from .reporting import load_control_coloring, write_results
from . import spectral

__all__ = ["build_parser", "dispatch", "main"]

_DEFAULT_ORDERS = (43, 44, 45, 46)

# Established diagonal bound corridors keyed by order.
_DEFAULT_WINDOWS = {5: (43, 46), 6: (102, 160), 7: (205, 492)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramsey-toolkit",
        description="Spectral, combinatorial and statevector diagnostics "
                    "for small Ramsey thresholds.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    diag = sub.add_parser(
        "diag", help="seed-averaged projector diagnostics over graph orders")
    diag.add_argument("--d", type=int, default=DiagnosticsConfig.d,
                      help="ambient dimension")
    diag.add_argument("--k", type=int, default=DiagnosticsConfig.k,
                      help="directions per batch")
    diag.add_argument("--alpha", type=float, nargs="+",
                      default=DiagnosticsConfig.alpha_grid,
                      help="witness alpha grid (default: standard grid)")
    diag.add_argument("--seed", type=int, nargs="+",
                      default=DiagnosticsConfig.seeds,
                      help="seed ensemble (default: standard ensemble)")
    diag.add_argument("--n", type=int, nargs="+", default=_DEFAULT_ORDERS,
                      help="graph orders to sweep")
    diag.add_argument("--out_dir", type=Path, default=Path("out"))
    diag.add_argument("--am46_dir", type=Path, default=None,
                      help="directory holding am46_red.csv / am46_blue.csv")

    cnf = sub.add_parser("cnf", help="stream a DIMACS arrowing instance")
    cnf.add_argument("-N", type=int, required=True, help="vertex count")
    cnf.add_argument("-m", type=int, default=5, help="red clique order")
    cnf.add_argument("-n", type=int, default=5, help="blue clique order")
    cnf.add_argument("-o", type=Path, required=True, help="output path")
    cnf.add_argument("--map", action="store_true", dest="emit_map",
                     help="also write the variable-to-edge map")

    glue = sub.add_parser(
        "glue", help="grow good-colouring classes one vertex at a time")
    glue.add_argument("-m", type=int, default=3)
    glue.add_argument("-n", type=int, default=3)
    glue.add_argument("--vmax", type=int, default=6)
    glue.add_argument("--out_dir", type=Path, default=Path("out"))

    prime = sub.add_parser(
        "prime", help="prime-sequence persistence scan over bound corridors")
    prime.add_argument("--n", type=int, nargs="+", default=[6, 7],
                       help="diagonal orders to scan")
    prime.add_argument("--lo", type=int, default=None,
                       help="window lower end (single order only)")
    prime.add_argument("--hi", type=int, default=None,
                       help="window upper end (single order only)")
    prime.add_argument("--out_dir", type=Path, default=Path("out"))

    qsim = sub.add_parser(
        "qsim", help="statevector verification suite for the encodings")
    qsim.add_argument("--seed", type=int, default=12345)
    qsim.add_argument("--out_dir", type=Path, default=Path("out"))

    estimate = sub.add_parser(
        "estimate", help="qubit budgets for edge-variable encodings")
    estimate.add_argument("--n", type=int, nargs="+", default=[44, 45, 46])
    estimate.add_argument("--out_dir", type=Path, default=Path("out"))
    return parser


def _cmd_diag(args: argparse.Namespace) -> int:
    sweep = DiagnosticsConfig(d=args.d, k=args.k,
                              alpha_grid=tuple(sorted(args.alpha)),
                              seeds=tuple(args.seed))
    start = time.perf_counter()
    records = run_diagnostics(sweep, tuple(args.n))
    table_one = write_results(records, args.out_dir / "results_table_I.csv")
    for record in records:
        print(f"n={record.n}: log10_tr_exp={record.log10_tr_exp:.3f} "
              f"tr_lin={record.tr_lin:.6g} rho_H={record.rho_H:.4f} "
              f"critical={'indeterminate' if record.critical is None else record.critical}")
    print(f"wrote {table_one}")
    errors = [f"n={record.n}: {record.error}" for record in records
              if record.error is not None]
    if args.am46_dir is not None:
        coloring = load_control_coloring(args.am46_dir)
        control = control_record(coloring, sweep)
        table_three = write_results(
            [control], args.out_dir / "results_table_III.csv")
        print(f"control v={coloring.v}: log10_tr_exp="
              f"{control.log10_tr_exp:.3f} tr_lin={control.tr_lin:.6g} "
              f"critical="
              f"{'indeterminate' if control.critical is None else control.critical}")
        print(f"wrote {table_three}")
        if control.error is not None:
            errors.append(f"control v={coloring.v}: {control.error}")
    elapsed = time.perf_counter() - start
    # Run summary on stderr, so no artifact depends on the clock.
    print(f"diag: {len(records)} orders x {len(sweep.seeds)} seeds at "
          f"d={sweep.d}, k={sweep.k}, {len(errors)} failed in {elapsed:.2f} s",
          file=sys.stderr)
    for line in errors:
        print(f"error: {line}", file=sys.stderr)
    return 1 if errors else 0


def _cmd_cnf(args: argparse.Namespace) -> int:
    # Validate the sizes before creating anything, so a bad flag writes
    # nothing.
    CnfInstance.for_problem(args.N, args.m, args.n)
    output = args.o
    output.parent.mkdir(parents=True, exist_ok=True)
    map_path = Path(str(output) + ".map")
    regular = []

    def opened(path: Path, mode: str, **kwargs):
        sink = open(path, mode, **kwargs)
        if stat.S_ISREG(os.fstat(sink.fileno()).st_mode):
            regular.append(path)
        return sink

    start = time.perf_counter()
    written = 0
    try:
        with opened(output, "wb") as sink:

            def write(data) -> None:
                nonlocal written
                written += sink.write(data)

            instance = _write_cnf(args.N, args.m, args.n, write)
        elapsed = time.perf_counter() - start
        if args.emit_map:
            with opened(map_path, "w", encoding="ascii",
                        newline="") as map_sink:
                count = write_map(args.N, map_sink)
    except BaseException:
        # The header already claims every clause, so a run cut short,
        # even in its last flush or in the map, keeps neither file; but a
        # FIFO or a device given as -o or as the map is never removed.
        for path in regular:
            path.unlink(missing_ok=True)
        raise
    print(f"wrote {output}: {instance.var_count} variables, "
          f"{instance.clause_count} clauses")
    # Run summary on stderr, so no artifact depends on the clock.
    print(f"cnf: {instance.clause_count} clauses, "
          f"{written / 1e6:.1f} MB in {elapsed:.2f} s "
          f"({instance.clause_count / elapsed / 1e6:.1f}M clauses/s)",
          file=sys.stderr)
    if args.emit_map:
        print(f"wrote {map_path}: {count} edges")
    return 0


def _cmd_glue(args: argparse.Namespace) -> int:
    constraint = CliqueConstraint(m=args.m, n=args.n)
    start = time.perf_counter()
    try:
        profile, error = frontier_profile(constraint, args.vmax), None
    except BudgetError as exc:
        # Keep the orders finished before the budget ran out.
        profile, error = exc.partial, exc
    elapsed = time.perf_counter() - start
    rows = [{"m": args.m, "n": args.n, "v": v, "good_classes": count}
            for v, count in profile]
    path = write_results(rows, args.out_dir / "glue_frontier.csv",
                         columns=("m", "n", "v", "good_classes"))
    for v, count in profile:
        print(f"v={v}: {count} good classes")
    final_v, final_count = profile[-1]
    if final_count == 0:
        print(f"threshold reached: no good colouring on {final_v} vertices")
    print(f"wrote {path}")
    # Run summary on stderr, so no artifact depends on the clock.
    print(f"glue: ({args.m},{args.n}) to v={args.vmax}, {final_count} classes "
          f"at v={final_v} in {elapsed:.2f} s", file=sys.stderr)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def _cmd_prime(args: argparse.Namespace) -> int:
    # Validate every window before scanning, so a bad flag writes nothing.
    windows = []
    for order in args.n:
        if args.lo is not None or args.hi is not None:
            if len(args.n) != 1:
                raise ValueError(
                    "--lo/--hi apply only when scanning a single order")
            if args.lo is None or args.hi is None:
                raise ValueError("--lo and --hi must be given together")
            windows.append((order, args.lo, args.hi))
        elif order in _DEFAULT_WINDOWS:
            windows.append((order, *_DEFAULT_WINDOWS[order]))
        else:
            raise ValueError(
                f"no default window for order {order}; pass --lo/--hi")
    rows = []
    for order, lo, hi in windows:
        result = persistence_scan(order, lo, hi)
        for k_order, selected in result.selections:
            signature = factorize(selected)
            rows.append({
                "n_diag": order, "k": k_order, "lo": lo, "hi": hi,
                "selected": selected, "distinct": signature.distinct,
                "max_exp": signature.max_exponent,
                "in_plateau": (result.plateau[0] <= k_order <= result.plateau[1]
                               and selected == result.value),
            })
        print(f"n={order} window [{lo},{hi}]: persistent {result.value} "
              f"(k={result.plateau[0]}..{result.plateau[1]})")
    path = write_results(rows, args.out_dir / "prime_scan.csv",
                         columns=("n_diag", "k", "lo", "hi", "selected",
                                  "distinct", "max_exp", "in_plateau"))
    print(f"wrote {path}")
    return 0


def _qsim_checks(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)

    def unit(dim: int) -> np.ndarray:
        raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return raw / np.linalg.norm(raw)

    checks: list[dict] = []

    def check(name: str, value: float, reference: float, tolerance: float):
        checks.append({"check": name, "value": value, "reference": reference,
                       "tolerance": tolerance, "status": value <= tolerance})

    u, v = unit(8), unit(8)
    enc = block_encode_rank1(u, v)
    check("rank1_block", float(np.abs(enc.alpha0 * enc.block[:8, :8]
                                      - np.outer(u, v.conj())).max()),
          0.0, 1e-8)

    terms = [(float(rng.normal()), unit(8), unit(8)) for _ in range(3)]
    lcu = lcu_block_encode(terms)
    target = sum(w * np.outer(uu, vv.conj()) for w, uu, vv in terms)
    check("lcu_block", float(np.abs(lcu.alpha0 * lcu.block[:8, :8]
                                    - target).max()), 0.0, 1e-7)

    batch = sample_directions(8, 20, seed + 1)
    accumulator = build_accumulator(batch)
    operand = spectral.mat_exp(-0.5 * accumulator)
    enc_op = encode_operator(operand, alpha0=1.0)
    check("completion_block", float(np.abs(enc_op.block - operand).max()),
          0.0, 1e-10)

    probe = unit(16)
    expectation = hadamard_test(enc.unitary, probe)
    direct = float(np.vdot(probe, enc.unitary @ probe).real)
    check("hadamard_exact", abs(expectation - direct), 0.0, 1e-10)

    estimate = hutchinson_trace(enc_op, probes=2000, seed=seed + 2)
    exact = 10.0 ** exp_witness(accumulator, 0.5)
    check("hutchinson_vs_witness", abs(estimate.value - exact), exact,
          4.0 * estimate.std_error)

    a_small = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    sigma_top = float(np.linalg.svd(a_small, compute_uv=False)[0])
    left, _, right_h = np.linalg.svd(a_small)
    aligned = np.concatenate([left[:, 0], right_h[0].conj()]) / np.sqrt(2.0)
    t_step = np.pi / (2.0 * sigma_top)
    estimate_sigma = phase_estimate_dilation(a_small, 7, t_step, state=aligned)
    check("phase_estimate", abs(estimate_sigma - sigma_top), sigma_top,
          phase_resolution(7, t_step))
    return checks


def _cmd_qsim(args: argparse.Namespace) -> int:
    checks = _qsim_checks(args.seed)
    path = write_results(checks, args.out_dir / "qsim_results.csv",
                         columns=("check", "value", "reference", "tolerance",
                                  "status"))
    failures = 0
    for row in checks:
        verdict = "ok" if row["status"] else "FAIL"
        print(f"{row['check']}: {row['value']:.3e} "
              f"(tolerance {row['tolerance']:.3e}) {verdict}")
        failures += 0 if row["status"] else 1
    print(f"wrote {path}")
    return 1 if failures else 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    rows = []
    for order in args.n:
        edges, total = qubit_cost(order)
        rows.append({"n": order, "edge_qubits": edges, "total_qubits": total})
        print(f"n={order}: {edges} edge qubits, {total} total")
    path = write_results(rows, args.out_dir / "qubit_costs.csv",
                         columns=("n", "edge_qubits", "total_qubits"))
    print(f"wrote {path}")
    return 0


_HANDLERS = {
    "diag": _cmd_diag,
    "cnf": _cmd_cnf,
    "glue": _cmd_glue,
    "prime": _cmd_prime,
    "qsim": _cmd_qsim,
    "estimate": _cmd_estimate,
}


def dispatch(argv) -> int:
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.subcommand](args)


def main() -> int:
    try:
        return dispatch(sys.argv[1:])
    except BrokenPipeError:
        return 1
    except Exception as exc:  # argparse handles its own exits
        print(f"error: {exc}", file=sys.stderr)
        return 1
