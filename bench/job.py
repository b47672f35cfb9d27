"""One benchmark job, run by ``bench/run.py`` in a fresh interpreter.

Usage: ``python3 bench/job.py '<spec as JSON>'``

The spec names the workload, the inputs generated from the benchmark seed,
the job's output directory and whether to trace.  The job imports
ramsey_toolkit from the checkout's ``src``, notes the CLOCK_MONOTONIC time
at which it is ready, runs the workload's public calls, and prints one JSON
line: its timings, peak RSS, outputs and, when traced, its spans.

A traced job runs the same public calls inside spans.  It then runs the
other workloads' calls and the layer probes of all three: the public
functions that the CLI and the sweep call internally, called again in the
same order, each in its own span.  So every layer is measured in every
traced run, whichever workload it belongs to.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

ORDERS = (43, 44, 45, 46)
MC_CASES = ((24, 100), (32, 180), (32, 220))
MC_TRIALS = 2000
GLUE_RUNS = (("r35", 3, 5, 10), ("r44", 4, 4, 7))
CNF_NAME = "r55_N32.cnf"
PRIME_WINDOWS = ((6, 102, 160), (7, 205, 492))
ESTIMATE_ORDERS = (44, 45, 46)


class Tracer:
    """Spans kept in memory: [name, tag, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, tag: str | None = None):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, tag, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][3] = time.perf_counter()


def untraced_span(name: str, tag: str | None = None):
    return nullcontext()


def _dispatch(argv: list[str]) -> None:
    from ramsey_toolkit.cli import dispatch
    code = dispatch(argv)
    if code != 0:
        raise RuntimeError(f"{argv[0]} exited with status {code}")


# --- spectral: diag sweep + control table, qsim suite, deflation Monte Carlo


def spectral_job(spec: dict, out: Path, span) -> dict:
    from ramsey_toolkit import deflation_mc
    with span("cli.diag"):
        _dispatch(["diag", "--d", "24", "--k", "400",
                   "--n", *map(str, ORDERS), "--am46_dir", spec["fixture"],
                   "--out_dir", str(out)])
    with span("cli.qsim"):
        _dispatch(["qsim", "--seed", str(spec["qsim_seed"]),
                   "--out_dir", str(out)])
    estimates = []
    for (d, k), seed in zip(MC_CASES, spec["mc_seeds"]):
        with span("diagnostics.deflation_mc"):
            estimate, std_error = deflation_mc(d, k, MC_TRIALS, seed)
        estimates.append([d, k, estimate, std_error])
    return {"deflation_mc": estimates}


def spectral_probes(spec: dict, probe: Path, span) -> dict:
    import numpy as np
    from ramsey_toolkit import (DiagnosticsConfig, SeedSchedule,
                                build_accumulator, control_record,
                                linear_witness, load_control_coloring,
                                lyapunov_rate, run_diagnostics, spectral,
                                write_results)
    config = DiagnosticsConfig(d=24, k=400)
    # The same calls as the CLI's diag handler, in its order.
    with span("diagnostics.run"):
        records = run_diagnostics(config, ORDERS)
    with span("reporting.write_results"):
        write_results(records, probe / "results_table_I.csv")
    with span("reporting.load_control"):
        coloring = load_control_coloring(spec["fixture"])
    with span("diagnostics.control"):
        control = control_record(coloring, config)
    with span("reporting.write_results"):
        write_results([control], probe / "results_table_III.csv")

    # The per-seed steps of the sweep, in the order the sweep takes them.
    grid = config.alpha_grid
    schedule = SeedSchedule()
    deviation = 0.0
    for record in records:
        sums = np.zeros(4)
        for seed in config.seeds:
            with span("diagnostics.sample"):
                batch = schedule.batch(config.d, config.k, seed, record.n)
            with span("diagnostics.accumulator"):
                accumulator = build_accumulator(batch)
            with span("diagnostics.linear_witness"):
                tr_lin = linear_witness(batch)[0]
            with span("diagnostics.exp_witness"):
                eigenvalues = np.linalg.eigvalsh(accumulator)
                for alpha in grid:
                    with span("spectral.log_trace_exp"):
                        trace = spectral.log_trace_exp(eigenvalues, alpha)
            with span("diagnostics.lyapunov"):
                rate = lyapunov_rate(accumulator, grid[-1])
            with span("spectral.spectral_norm"):
                norm = spectral.spectral_norm(accumulator, tol=1e-10,
                                              max_iter=2000)
            sums += (trace, tr_lin, rate, norm)
        replayed = sums / len(config.seeds)
        swept = np.array([record.log10_tr_exp, record.tr_lin,
                          record.lambda_L, record.rho_H])
        scale = np.maximum(np.abs(swept), 1.0)
        deviation = max(deviation,
                        float(np.max(np.abs(replayed - swept) / scale)))
    qsim = _qsim_probe(spec["qsim_seed"], span)
    return {"replay_deviation": deviation, **qsim}


def _qsim_probe(seed: int, span) -> dict:
    """The qsim suite's calls, with the suite's random draws in its order."""
    import numpy as np
    from ramsey_toolkit import (block_encode_rank1, build_accumulator,
                                encode_operator, exp_witness, hadamard_test,
                                hutchinson_trace, lcu_block_encode,
                                phase_estimate_dilation, phase_resolution,
                                sample_directions, spectral)
    rng = np.random.default_rng(seed)

    def unit(dim: int):
        raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return raw / np.linalg.norm(raw)

    with span("qsim.checks"):
        u, v = unit(8), unit(8)
        rank1 = block_encode_rank1(u, v)
        lcu_block_encode([(float(rng.normal()), unit(8), unit(8))
                          for _ in range(3)])
        accumulator = build_accumulator(sample_directions(8, 20, seed + 1))
        with span("spectral.mat_exp"):
            operand = spectral.mat_exp(-0.5 * accumulator)
        completion = encode_operator(operand, alpha0=1.0)
        hadamard_test(rank1.unitary, unit(16))
        with span("qsim.hutchinson"):
            estimate = hutchinson_trace(completion, probes=2000, seed=seed + 2)
        exact = 10.0 ** exp_witness(accumulator, 0.5)
        a_small = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        left, singular, right_h = np.linalg.svd(a_small)
        aligned = (np.concatenate([left[:, 0], right_h[0].conj()])
                   / np.sqrt(2.0))
        t_step = np.pi / (2.0 * singular[0])
        with span("qsim.phase_estimate"):
            sigma = phase_estimate_dilation(a_small, 7, t_step, state=aligned)
        resolution = phase_resolution(7, t_step)
    return {"hutchinson_in_band":
            abs(estimate.value - exact) <= 4.0 * estimate.std_error,
            "phase_in_band": abs(sigma - singular[0]) <= resolution}


# --- search: glue frontiers for (3,5) and (4,4), brute-force R(3,4)


def search_job(spec: dict, out: Path, span) -> dict:
    from ramsey_toolkit import CliqueConstraint, brute_force_ramsey
    for label, m, n, vmax in GLUE_RUNS:
        with span("cli.glue"):
            _dispatch(["glue", "-m", str(m), "-n", str(n), "--vmax", str(vmax),
                       "--out_dir", str(out / label)])
    with span("combinatorics.brute_force"):
        r34 = brute_force_ramsey(CliqueConstraint(3, 4), 10)
    return {"brute_force_r34": r34}


def _relabel(coloring, perm):
    """The colouring with vertex i renamed perm[i - 1] (1-based names)."""
    from ramsey_toolkit import EdgeColoring, edge_index
    v = coloring.v
    bits = [False] * len(coloring.bits)
    for i in range(1, v + 1):
        for j in range(i + 1, v + 1):
            a, b = sorted((perm[i - 1], perm[j - 1]))
            bits[edge_index(a, b, v)] = coloring.is_red(i, j)
    return EdgeColoring(v=v, bits=tuple(bits))


def _clear_key_cache():
    """Give a probe the cold canonical-key cache a CLI run starts with."""
    from ramsey_toolkit import canonical_key
    getattr(canonical_key, "cache_clear", lambda: None)()


def search_probes(spec: dict, probe: Path, span) -> dict:
    import numpy as np
    from ramsey_toolkit import (CliqueConstraint, EdgeColoring, canonical_key,
                                frontier_profile, glue_extensions)
    rng = np.random.default_rng(spec["relabel_seed"])
    counts = {"candidates": 0, "extensions": 0, "classes": 0,
              "canonical_key_calls": 0, "key_mismatches": 0}
    profiles, replayed = {}, {}
    for label, m, n, vmax in GLUE_RUNS:
        constraint = CliqueConstraint(m, n)
        _clear_key_cache()
        with span("combinatorics.glue"):
            profile = frontier_profile(constraint, vmax)
        profiles[label] = [count for _, count in profile]
        # One glue level at a time, as frontier_profile grows them.
        _clear_key_cache()
        frontier = [EdgeColoring(v=1, bits=())]
        replayed[label] = [1]
        for v in range(2, vmax + 1):
            classes = {}
            with span("combinatorics.glue_level", f"{label}_v{v}"):
                for coloring in frontier:
                    with span("combinatorics.glue_extensions"):
                        extensions = glue_extensions(coloring, constraint)
                    counts["candidates"] += 1 << coloring.v
                    counts["extensions"] += len(extensions)
                    for extended in extensions:
                        classes.setdefault(canonical_key(extended), extended)
                frontier = [classes[k] for k in sorted(classes)]
            counts["classes"] += len(frontier)
            replayed[label].append(len(frontier))
        # Relabelled copies of the classes: new colourings, so no key is
        # reused from the glue above.
        _clear_key_cache()
        for coloring in frontier:
            relabelled = _relabel(coloring, [int(p) + 1 for p in
                                             rng.permutation(coloring.v)])
            with span("combinatorics.canonical_key"):
                key = canonical_key(relabelled)
            counts["canonical_key_calls"] += 1
            counts["key_mismatches"] += key != canonical_key(coloring)
    return {"profiles": profiles, "replayed_profiles": replayed,
            "counts": counts}


# --- encode: CNF + map, UNSAT sweeps, prime scan, qubit estimates


def encode_job(spec: dict, out: Path, span) -> dict:
    from ramsey_toolkit import (CliqueConstraint, check_small,
                                exists_good_coloring)
    with span("cli.cnf"):
        _dispatch(["cnf", "-N", "32", "-m", "5", "-n", "5",
                   "-o", str(out / CNF_NAME), "--map"])
    with span("cnf.check_small"):
        sat_7_3_3 = check_small(7, 3, 3)
    with span("combinatorics.enumerate"):
        good_7_3_3 = exists_good_coloring(7, CliqueConstraint(3, 3),
                                          "enumerate")
    with span("cli.prime"):
        _dispatch(["prime", "--n", *(str(w[0]) for w in PRIME_WINDOWS),
                   "--out_dir", str(out)])
    with span("cli.estimate"):
        _dispatch(["estimate", "--n", *map(str, ESTIMATE_ORDERS),
                   "--out_dir", str(out)])
    return {"check_small_7_3_3": sat_7_3_3, "enumerate_7_3_3": good_7_3_3}


def encode_probes(spec: dict, probe: Path, span) -> dict:
    from ramsey_toolkit import (PSQuery, persistence_scan, qubit_cost,
                                stream_cnf, write_map, write_results)
    # The same calls as the CLI's cnf, prime and estimate handlers.
    with open(probe / CNF_NAME, "w", encoding="ascii", newline="") as sink:
        with span("cnf.stream"):
            instance = stream_cnf(32, 5, 5, sink)
    with open(probe / (CNF_NAME + ".map"), "w", encoding="ascii",
              newline="") as sink:
        with span("cnf.write_map"):
            write_map(32, sink)
    for order, lo, hi in PRIME_WINDOWS:
        with span("primes.scan"):
            persistence_scan(order, lo, hi, PSQuery(k=1))
    rows = []
    for order in ESTIMATE_ORDERS:
        edges, total = qubit_cost(order)
        rows.append({"n": order, "edge_qubits": edges, "total_qubits": total})
    with span("reporting.write_results"):
        write_results(rows, probe / "qubit_costs.csv",
                      columns=("n", "edge_qubits", "total_qubits"))
    return {"clauses": instance.clause_count}


JOBS = {"spectral": spectral_job, "search": search_job, "encode": encode_job}
PROBES = {"spectral": spectral_probes, "search": search_probes,
          "encode": encode_probes}


def _files(root: Path) -> dict:
    """SHA-256, size and (for small CSV tables) text of every file."""
    files = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest = hashlib.sha256()
        with open(path, "rb") as source:
            for block in iter(lambda: source.read(1 << 20), b""):
                digest.update(block)
        entry = {"sha256": digest.hexdigest(), "bytes": path.stat().st_size}
        if path.suffix == ".csv" and entry["bytes"] < 1 << 16:
            entry["text"] = path.read_text(encoding="ascii")
        files[path.relative_to(root).as_posix()] = entry
    return files


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = Path(spec["src"]).resolve()
    import ramsey_toolkit
    if src not in Path(ramsey_toolkit.__file__).resolve().parents:
        # The package is not installed; a stale install must not be measured.
        raise SystemExit(f"ramsey_toolkit was imported from "
                         f"{ramsey_toolkit.__file__}, not from {src}")
    import ramsey_toolkit.cli  # noqa: F401  (the CLI is part of set-up)
    workdir = Path(spec["workdir"])
    out, probe = workdir / "out", workdir / "probe"
    out.mkdir()
    tracer = Tracer() if spec["trace"] else None
    span = tracer.span if tracer else untraced_span
    result = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    start = time.perf_counter()
    try:
        result["outputs"] = JOBS[spec["workload"]](spec, out, span)
        result["job_s"] = time.perf_counter() - start
        result["peak_rss_kb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
        if tracer:
            start = time.perf_counter()
            result["other_outputs"] = {}
            for workload, other_job in JOBS.items():
                if workload != spec["workload"]:
                    other = workdir / "other" / workload
                    other.mkdir(parents=True)
                    result["other_outputs"][workload] = other_job(spec, other,
                                                                  span)
            probe.mkdir()
            result["probes"] = {}
            for run_probes in PROBES.values():
                result["probes"].update(run_probes(spec, probe, span))
            result["extra_s"] = time.perf_counter() - start
            result["spans"] = tracer.spans
    except Exception:  # the job failed; run.py counts it
        result["error"] = traceback.format_exc()
    result["files"] = _files(workdir)
    print(json.dumps(result, default=lambda value: value.item()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
