"""Command-line front end: six subcommands over the library primitives.

Every run is a pure function of its flags: explicit seeds, sorted
iteration orders and canonical CSV formatting make repeated invocations
byte-identical.  Exit status is 0 exactly when all requested artifacts
were written and validated; a ``diag`` record that carries an error is
reported on stderr and makes the status nonzero.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .cnf import CnfInstance, stream_cnf, write_map
from .combinatorics import CliqueConstraint, frontier_profile, qubit_cost
from .diagnostics import (_DEFAULT_ALPHAS, _DEFAULT_SEEDS, DiagnosticsConfig,
                          build_accumulator, control_record, exp_witness,
                          run_diagnostics, sample_directions)
from .primes import PSQuery, factorize, persistence_scan
from .qsim import (block_encode_rank1, encode_operator, hadamard_test,
                   hutchinson_trace, lcu_block_encode, phase_estimate_dilation,
                   phase_resolution)
from .reporting import RESULT_COLUMNS, load_control_coloring, write_results
from . import spectral

__all__ = ["RunConfig", "build_parser", "dispatch", "main"]

_DEFAULT_ORDERS = (43, 44, 45, 46)

# Established diagonal bound corridors keyed by order.
_DEFAULT_WINDOWS = {5: (43, 46), 6: (102, 160), 7: (205, 492)}


@dataclass(frozen=True)
class RunConfig:
    """Normalised flag set for one invocation."""

    subcommand: str
    d: int = 24
    k: int = 100
    alphas: tuple[float, ...] = _DEFAULT_ALPHAS
    seeds: tuple[int, ...] = _DEFAULT_SEEDS
    n_values: tuple[int, ...] = _DEFAULT_ORDERS
    out_dir: Path = Path("out")
    control_dir: Path | None = None
    N: int = 12
    m: int = 5
    n: int = 5
    output: Path | None = None
    emit_map: bool = False
    vmax: int = 9
    windows: tuple[tuple[int, int, int], ...] = field(default=())
    seed: int = 12345


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramsey-toolkit",
        description="Spectral, combinatorial and statevector diagnostics "
                    "for small Ramsey thresholds.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    diag = sub.add_parser(
        "diag", help="seed-averaged projector diagnostics over graph orders")
    diag.add_argument("--d", type=int, default=24, help="ambient dimension")
    diag.add_argument("--k", type=int, default=100, help="directions per batch")
    diag.add_argument("--alpha", type=float, nargs="+", default=None,
                      help="witness alpha grid (default: standard grid)")
    diag.add_argument("--seed", type=int, nargs="+", default=None,
                      help="seed ensemble (default: standard ensemble)")
    diag.add_argument("--n", type=int, nargs="+", default=None,
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


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    common: dict = {"subcommand": args.subcommand}
    if args.subcommand == "diag":
        alphas = tuple(sorted(args.alpha)) if args.alpha else _DEFAULT_ALPHAS
        seeds = tuple(args.seed) if args.seed else _DEFAULT_SEEDS
        orders = tuple(args.n) if args.n else _DEFAULT_ORDERS
        common.update(d=args.d, k=args.k, alphas=alphas, seeds=seeds,
                      n_values=orders, out_dir=args.out_dir,
                      control_dir=args.am46_dir)
    elif args.subcommand == "cnf":
        common.update(N=args.N, m=args.m, n=args.n, output=args.o,
                      emit_map=args.emit_map)
    elif args.subcommand == "glue":
        common.update(m=args.m, n=args.n, vmax=args.vmax, out_dir=args.out_dir)
    elif args.subcommand == "prime":
        orders = tuple(args.n)
        windows = []
        for order in orders:
            if args.lo is not None or args.hi is not None:
                if len(orders) != 1:
                    raise ValueError(
                        "--lo/--hi apply only when scanning a single order")
                if args.lo is None or args.hi is None:
                    raise ValueError("--lo and --hi must be given together")
                windows.append((order, args.lo, args.hi))
            else:
                if order not in _DEFAULT_WINDOWS:
                    raise ValueError(
                        f"no default window for order {order}; pass --lo/--hi")
                lo, hi = _DEFAULT_WINDOWS[order]
                windows.append((order, lo, hi))
        common.update(n_values=orders, windows=tuple(windows),
                      out_dir=args.out_dir)
    elif args.subcommand == "qsim":
        common.update(seed=args.seed, out_dir=args.out_dir)
    elif args.subcommand == "estimate":
        common.update(n_values=tuple(args.n), out_dir=args.out_dir)
    return RunConfig(**common)


def _cmd_diag(config: RunConfig) -> int:
    sweep = DiagnosticsConfig(d=config.d, k=config.k,
                              alpha_grid=config.alphas, seeds=config.seeds)
    records = run_diagnostics(sweep, config.n_values)
    table_one = write_results(records, config.out_dir / "results_table_I.csv")
    for record in records:
        print(f"n={record.n}: log10_tr_exp={record.log10_tr_exp:.3f} "
              f"tr_lin={record.tr_lin:.6g} rho_H={record.rho_H:.4f} "
              f"critical={'indeterminate' if record.critical is None else record.critical}")
    print(f"wrote {table_one}")
    errors = [f"n={record.n}: {record.error}" for record in records
              if record.error is not None]
    if config.control_dir is not None:
        coloring = load_control_coloring(config.control_dir)
        control = control_record(coloring, sweep)
        table_three = write_results(
            [control], config.out_dir / "results_table_III.csv")
        print(f"control v={coloring.v}: log10_tr_exp="
              f"{control.log10_tr_exp:.3f} tr_lin={control.tr_lin:.6g} "
              f"critical="
              f"{'indeterminate' if control.critical is None else control.critical}")
        print(f"wrote {table_three}")
        if control.error is not None:
            errors.append(f"control v={coloring.v}: {control.error}")
    for line in errors:
        print(f"error: {line}", file=sys.stderr)
    return 1 if errors else 0


def _cmd_cnf(config: RunConfig) -> int:
    output = config.output
    assert output is not None
    output.parent.mkdir(parents=True, exist_ok=True)
    with open(output, "w", encoding="ascii", newline="") as sink:
        instance = stream_cnf(config.N, config.m, config.n, sink)
    print(f"wrote {output}: {instance.var_count} variables, "
          f"{instance.clause_count} clauses")
    if config.emit_map:
        map_path = Path(str(output) + ".map")
        with open(map_path, "w", encoding="ascii", newline="") as sink:
            count = write_map(config.N, sink)
        print(f"wrote {map_path}: {count} edges")
    return 0


def _cmd_glue(config: RunConfig) -> int:
    constraint = CliqueConstraint(m=config.m, n=config.n)
    profile = frontier_profile(constraint, config.vmax)
    rows = [{"m": config.m, "n": config.n, "v": v, "good_classes": count}
            for v, count in profile]
    path = write_results(rows, config.out_dir / "glue_frontier.csv",
                         columns=("m", "n", "v", "good_classes"))
    for v, count in profile:
        print(f"v={v}: {count} good classes")
    final_v, final_count = profile[-1]
    if final_count == 0:
        print(f"threshold reached: no good colouring on {final_v} vertices")
    print(f"wrote {path}")
    return 0


def _cmd_prime(config: RunConfig) -> int:
    rows = []
    for order, lo, hi in config.windows:
        result = persistence_scan(order, lo, hi, PSQuery(k=1))
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
    path = write_results(rows, config.out_dir / "prime_scan.csv",
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

    u, v = unit(8), unit(8)
    enc = block_encode_rank1(u, v)
    defect = float(np.abs(enc.alpha0 * enc.block[:8, :8]
                          - np.outer(u, v.conj())).max())
    checks.append({"check": "rank1_block", "value": defect,
                   "reference": 0.0, "tolerance": 1e-8,
                   "status": defect <= 1e-8})

    terms = [(float(rng.normal()), unit(8), unit(8)) for _ in range(3)]
    lcu = lcu_block_encode(terms)
    target = sum(w * np.outer(uu, vv.conj()) for w, uu, vv in terms)
    defect = float(np.abs(lcu.alpha0 * lcu.block[:8, :8] - target).max())
    checks.append({"check": "lcu_block", "value": defect,
                   "reference": 0.0, "tolerance": 1e-7,
                   "status": defect <= 1e-7})

    batch = sample_directions(8, 20, seed + 1)
    accumulator = build_accumulator(batch)
    operand = spectral.mat_exp(-0.5 * accumulator)
    enc_op = encode_operator(operand, alpha0=1.0)
    defect = float(np.abs(enc_op.block - operand).max())
    checks.append({"check": "completion_block", "value": defect,
                   "reference": 0.0, "tolerance": 1e-10,
                   "status": defect <= 1e-10})

    probe = unit(16)
    expectation = hadamard_test(enc.unitary, probe)
    direct = float(np.vdot(probe, enc.unitary @ probe).real)
    defect = abs(expectation - direct)
    checks.append({"check": "hadamard_exact", "value": defect,
                   "reference": 0.0, "tolerance": 1e-10,
                   "status": defect <= 1e-10})

    estimate = hutchinson_trace(enc_op, probes=2000, seed=seed + 2)
    exact = 10.0 ** exp_witness(accumulator, 0.5)
    gap = abs(estimate.value - exact)
    budget = 4.0 * estimate.std_error
    checks.append({"check": "hutchinson_vs_witness", "value": gap,
                   "reference": exact, "tolerance": budget,
                   "status": gap <= budget})

    a_small = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    sigma_top = float(np.linalg.svd(a_small, compute_uv=False)[0])
    left, _, right_h = np.linalg.svd(a_small)
    aligned = np.concatenate([left[:, 0], right_h[0].conj()]) / np.sqrt(2.0)
    t_step = np.pi / (2.0 * sigma_top)
    estimate_sigma = phase_estimate_dilation(a_small, 7, t_step, state=aligned)
    resolution = phase_resolution(7, t_step)
    gap = abs(estimate_sigma - sigma_top)
    checks.append({"check": "phase_estimate", "value": gap,
                   "reference": sigma_top, "tolerance": resolution,
                   "status": gap <= resolution})
    return checks


def _cmd_qsim(config: RunConfig) -> int:
    checks = _qsim_checks(config.seed)
    path = write_results(checks, config.out_dir / "qsim_results.csv",
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


def _cmd_estimate(config: RunConfig) -> int:
    rows = []
    for order in config.n_values:
        edges, total = qubit_cost(order)
        rows.append({"n": order, "edge_qubits": edges, "total_qubits": total})
        print(f"n={order}: {edges} edge qubits, {total} total")
    path = write_results(rows, config.out_dir / "qubit_costs.csv",
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
    config = _config_from_args(args)
    return _HANDLERS[config.subcommand](config)


def main() -> int:
    try:
        return dispatch(sys.argv[1:])
    except BrokenPipeError:
        return 1
    except Exception as exc:  # argparse handles its own exits
        print(f"error: {exc}", file=sys.stderr)
        return 1
