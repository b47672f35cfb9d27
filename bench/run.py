"""Benchmark runner for ramsey-toolkit: one workload, one run.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {spectral,search,encode} --seed N \
        --seconds S --trace {0,1} [--reference PATH]

The runner stays a single process and starts one fresh job interpreter at a
time (``bench/job.py``), so that every job pays the start-up and cold-cache
cost a CLI user pays and no job overlaps another on a small machine.  It
starts jobs until the next would end after ``--seconds``.  Every job's
outputs are checked; a job that raises or fails a check counts as failed.

With ``--trace 0`` the run reports the end-to-end metrics: the median job
and the median set-up time, both scaled for the machine's speed (see
``calibrate``), the peak RSS and the share of jobs that passed.  With
``--trace 1`` it alternates untraced and traced jobs and reports per-layer
self times and counts from the traced ones; the spans are written once, at
the end, to ``.bench_out/``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep bench/ free of generated files
import job  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"
FIXTURE = BENCH / "data" / "am46"

# The seed whose inputs are the CLI's own defaults; the qsim table, the one
# artifact that depends on the seed, was recorded at it.
DEFAULT_SEED = 0

# Time of calibrate() in a quiet spell on a 2-core x86-64 VM.  The run's
# job and set-up times are scaled by CALIBRATION_QUIET_S / (median
# calibration time of the run), so they read as seconds in a quiet spell: on
# a shared host the machine's speed wanders by up to 1.8x over minutes.
CALIBRATION_QUIET_S = 0.15

# Every job ends before the 180 s limit on one run.
RUN_DEADLINE_S = 165.0

END_TO_END = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "pass_ratio": "1"}

# Per-layer metrics and units.  A name ending in _s is the self time of the
# spans of that name (span minus child spans); a name with a tag after _s is
# the total time of the tagged span.  A traced job runs every layer.
PER_LAYER = {
    "diagnostics.deflation_mc_s": "s",
    "diagnostics.deflation_trials_per_s": "1/s",
    "diagnostics.run_s": "s",
    "diagnostics.control_s": "s",
    "diagnostics.sample_s": "s",
    "diagnostics.accumulator_s": "s",
    "diagnostics.linear_witness_s": "s",
    "diagnostics.exp_witness_s": "s",
    "diagnostics.lyapunov_s": "s",
    "diagnostics.per_seed_total_s": "s",
    "spectral.spectral_norm_s": "s",
    "spectral.log_trace_exp_s": "s",
    "spectral.mat_exp_s": "s",
    "spectral.calls": "count",
    "qsim.checks_s": "s",
    "qsim.hutchinson_s": "s",
    "qsim.phase_estimate_s": "s",
    "combinatorics.glue_s": "s",
    "combinatorics.glue_level_s.r35_v9": "s",
    "combinatorics.glue_level_s.r35_v10": "s",
    "combinatorics.glue_level_s.r44_v7": "s",
    "combinatorics.glue_levels_total_s": "s",
    "combinatorics.glue_extensions_s": "s",
    "combinatorics.canonical_key_s": "s",
    "combinatorics.canonical_key_calls": "count",
    "combinatorics.candidates": "count",
    "combinatorics.extensions": "count",
    "combinatorics.classes": "count",
    "combinatorics.keep_ratio": "1",
    "combinatorics.brute_force_s": "s",
    "combinatorics.enumerate_s": "s",
    "combinatorics.masks_per_s": "1/s",
    "cnf.stream_s": "s",
    "cnf.clauses_per_s": "1/s",
    "cnf.mb_written": "MB",
    "cnf.write_map_s": "s",
    "cnf.check_small_s": "s",
    "cnf.masks_per_s": "1/s",
    "reporting.write_results_s": "s",
    "reporting.load_control_s": "s",
    "primes.scan_s": "s",
    "cli.diag_s": "s",
    "cli.qsim_s": "s",
    "cli.glue_s": "s",
    "cli.cnf_s": "s",
    "cli.prime_s": "s",
    "cli.estimate_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "1",
}

SEED_STEPS = ("diagnostics.sample", "diagnostics.accumulator",
              "diagnostics.linear_witness", "diagnostics.exp_witness",
              "diagnostics.lyapunov", "spectral.log_trace_exp",
              "spectral.spectral_norm")


class SetupError(RuntimeError):
    """A job interpreter exited before reporting; nothing can be measured."""


def _derive(seed: int, label: str, count: int) -> list[int]:
    return [int.from_bytes(hashlib.sha256(f"{seed}/{label}/{i}".encode())
                           .digest()[:4], "big") for i in range(count)]


def job_inputs(seed: int) -> dict:
    """Generated inputs: qsim, Monte Carlo and relabelling seeds.

    The diag sweep keeps the CLI's default seed ensemble at every seed: its
    power iterations take 0.20 to 0.35 s depending on the ensemble, which
    alone would spread the spectral job time by 15% from seed to seed.
    """
    if seed == DEFAULT_SEED:
        return {"qsim_seed": 12345,
                "mc_seeds": [d + k for d, k in job.MC_CASES],
                "relabel_seed": 0}
    return {"qsim_seed": _derive(seed, "qsim", 1)[0],
            "mc_seeds": _derive(seed, "mc", len(job.MC_CASES)),
            "relabel_seed": _derive(seed, "relabel", 1)[0]}


def child_environment() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    # Not installed: the checkout's own source is what gets measured.
    env["PYTHONPATH"] = str(SRC)
    # Fixed hash seed: set and dict orders, and their cost, repeat.
    env["PYTHONHASHSEED"] = "0"
    # Single-threaded BLAS: the baseline, and no contention on 2 cores.
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def _calibration_kernel() -> None:
    rng = random.Random(7)
    keys = [tuple(rng.random() < 0.5 for _ in range(45)) for _ in range(20000)]
    index = {key: i for i, key in enumerate(keys)}
    for _ in range(3):
        for key in keys:
            index[key] += 1
    adjacency = [rng.getrandbits(20) for _ in range(20)]

    def cliques(candidates: int, need: int) -> int:
        if need == 0:
            return 1
        found = 0
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            found += cliques(candidates & adjacency[low.bit_length() - 1],
                             need - 1)
        return found

    cliques((1 << 20) - 1, 4)


def calibrate() -> float:
    """Seconds a fixed pure-Python kernel takes now.

    Tuple hashing, dict updates over a few MB and bitmask clique recursion,
    like the program's hot loops.  It runs in this process, which never
    imports the program, so its time tracks only the spells in which
    neighbours on a shared host slow the machine down.
    """
    start = time.perf_counter()
    _calibration_kernel()
    return time.perf_counter() - start


def run_job(spec: dict, env: dict, deadline: float) -> dict:
    """Run one job in a fresh interpreter and return its report."""
    workdir = Path(tempfile.mkdtemp(prefix=spec["workload"] + "-", dir=WORK))
    try:
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "job.py"),
             json.dumps({**spec, "workdir": str(workdir)})],
            env=env, cwd=workdir, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"error": "timed out", "files": {}}
    finally:
        # Each job writes into its own directory, removed after the job.
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SetupError(proc.stderr.strip() or f"exit {proc.returncode}")
    report = json.loads(proc.stdout.splitlines()[-1])
    report["setup_s"] = report["ready"] - spawned
    return report


# --- output checks


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(text.splitlines()))


def _float(cell: str) -> float | None:
    """The cell's value when it is a float (not an integer), else None."""
    try:
        int(cell)
        return None
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return None


def compare_table(text: str, reference: str,
                  tolerance: dict | None) -> str | None:
    """None when the table matches the reference, else the first mismatch.

    Integer, boolean and text cells match exactly and float cells within
    ``tolerance`` (rel, abs).  Without a tolerance only the header, the row
    count and the first column are compared and floats must be finite.
    """
    got, want = _rows(text), _rows(reference)
    if got[0] != want[0] or len(got) != len(want):
        return (f"header or row count {got[0]}/{len(got)} != "
                f"{want[0]}/{len(want)}")
    for row, ref_row in zip(got[1:], want[1:]):
        for column, cell, ref in zip(want[0], row, ref_row):
            value, expected = _float(cell), _float(ref)
            if tolerance is None:
                if column == want[0][0] and cell != ref:
                    return f"{column}={cell}, expected {ref}"
                if value is not None and not math.isfinite(value):
                    return f"{column}={cell} is not finite"
            elif expected is not None:
                limit = tolerance["abs"] + tolerance["rel"] * abs(expected)
                if value is None or not abs(value - expected) <= limit:
                    return (f"{column}={cell}, expected {ref} "
                            f"within {limit:.1e}")
            elif cell != ref:
                return f"{column}={cell}, expected {ref}"
    return None


def _deflation_problems(estimates, sigmas) -> list[str]:
    found = []
    for d, k, estimate, std_error in estimates:
        expected = (1.0 - 1.0 / d) ** k
        if not abs(estimate - expected) <= sigmas * std_error:
            found.append(f"deflation_mc({d},{k})={estimate:.4e} is not within "
                         f"{sigmas} SE of {expected:.4e}")
    return found


def check_job(workload: str, default_seed: bool, report: dict,
              ref: dict) -> list[str]:
    """Problems with one job's outputs; empty when every check passes."""
    if "error" in report:
        return [report["error"].strip().splitlines()[-1]]
    files = report["files"]
    found = []
    for other, outputs in report.get("other_outputs", {}).items():
        prefix = f"other/{other}/"
        found += [f"{other}: {problem}" for problem in check_job(
            other, default_seed,
            {"outputs": outputs,
             "files": {"out/" + name[len(prefix):]: entry
                       for name, entry in files.items()
                       if name.startswith(prefix)}}, ref)]
    for name, entry in files.items():
        if name.startswith("probe/"):
            rest = name[len("probe/"):]
            twins = [f"out/{rest}"] + [f"other/{w}/{rest}" for w in job.JOBS]
            for twin in twins:
                if twin in files and files[twin]["sha256"] != entry["sha256"]:
                    found.append(f"{name}: differs from the CLI's {twin}")
    found += _probe_problems(report.get("probes"), ref)
    for name, digest in ref["digests"].get(workload, {}).items():
        if files.get(name, {}).get("sha256") != digest:
            found.append(f"{name}: digest differs from the reference")
    outputs = report["outputs"]
    if workload == "spectral":
        for name, table in ref["tables"].items():
            seeded = name == "out/qsim_results.csv" and not default_seed
            if name not in files:
                found.append(f"{name}: missing")
            elif mismatch := compare_table(
                    files[name]["text"], table,
                    None if seeded else ref["float_tolerance"]):
                found.append(f"{name}: {mismatch}")
        qsim_rows = _rows(files["out/qsim_results.csv"]["text"])[1:]
        statuses = [row[-1] for row in qsim_rows]
        if not statuses or any(s != "true" for s in statuses):
            found.append(f"qsim statuses {statuses}")
        found += _deflation_problems(outputs["deflation_mc"], ref["mc_sigmas"])
    elif workload == "search":
        if outputs["brute_force_r34"] != ref["brute_force_r34"]:
            found.append(f"brute_force_ramsey((3,4),10)="
                         f"{outputs['brute_force_r34']}")
    elif workload == "encode":
        for name in ("check_small_7_3_3", "enumerate_7_3_3"):
            if outputs[name] is not False:
                found.append(f"{name}={outputs[name]}, expected UNSAT")
    return found


def _probe_problems(probes: dict | None, ref: dict) -> list[str]:
    """Problems with a traced job's layer probes (all three workloads')."""
    if probes is None:
        return []
    found = []
    if not probes["replay_deviation"] <= 1e-9:
        found.append(f"per-seed replay deviates from the sweep by "
                     f"{probes['replay_deviation']:.1e}")
    if not (probes["hutchinson_in_band"] and probes["phase_in_band"]):
        found.append("qsim probe outside its band")
    for key in ("profiles", "replayed_profiles"):
        if probes[key] != ref["profiles"]:
            found.append(f"{key} {probes[key]} != {ref['profiles']}")
    if probes["counts"]["key_mismatches"]:
        found.append("canonical_key changed under relabelling")
    if probes["clauses"] != ref["clauses"]:
        found.append(f"stream_cnf wrote {probes['clauses']} clauses")
    return found


def _artifact_digests(report: dict) -> dict:
    return {name: entry["sha256"] for name, entry in report["files"].items()
            if name.startswith("out/")}


# --- metrics


def layer_metrics(report: dict) -> dict:
    """Per-layer values of one traced job, from its spans and counts."""
    spans = report["spans"]
    child_time = [0.0] * len(spans)
    for name, tag, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    values: dict[str, float] = {}
    roots = 0.0
    for (name, tag, start, end, parent), inner in zip(spans, child_time):
        key = f"{name}_s"
        values[key] = values.get(key, 0.0) + (end - start) - inner
        if tag is not None:
            key = f"{name}_s.{tag}"
            values[key] = values.get(key, 0.0) + end - start
            values["combinatorics.glue_levels_total_s"] = (
                values.get("combinatorics.glue_levels_total_s", 0.0)
                + end - start)
        if parent is None:
            roots += end - start
    values["spectral.calls"] = sum(s[0].startswith("spectral.") for s in spans)
    values["diagnostics.per_seed_total_s"] = sum(
        values.get(f"{name}_s", 0.0) for name in SEED_STEPS)
    values["trace.coverage"] = roots / (report["job_s"] + report["extra_s"])

    def rate(work, key):
        return work / values[key] if values.get(key) else 0.0

    values["diagnostics.deflation_trials_per_s"] = rate(
        len(job.MC_CASES) * job.MC_TRIALS, "diagnostics.deflation_mc_s")
    # check_small(7,3,3) is UNSAT: its sweep visits all 2^21 assignments,
    # and the enumeration sweep the 2^20 with edge {1,2} red.
    values["cnf.masks_per_s"] = rate(1 << 21, "cnf.check_small_s")
    values["combinatorics.masks_per_s"] = rate(1 << 20,
                                               "combinatorics.enumerate_s")
    probes = report["probes"]
    values["cnf.clauses_per_s"] = rate(probes["clauses"], "cnf.stream_s")
    values["cnf.mb_written"] = sum(
        entry["bytes"] for name, entry in report["files"].items()
        if name.startswith("probe/" + job.CNF_NAME)) / 1e6
    counts = probes["counts"]
    for key in ("candidates", "extensions", "classes", "canonical_key_calls"):
        values[f"combinatorics.{key}"] = counts[key]
    values["combinatorics.keep_ratio"] = (counts["classes"]
                                          / counts["candidates"])
    return values


def summarise(untraced: list[dict], traced: list[dict], calibrations:
              list[float], passed: int, attempted: int,
              trace: bool) -> tuple[dict, list[str]]:
    """Metrics for the JSON line, and a printed table with sample counts."""
    # A job that failed a check does not set the time, unless all failed.
    times = ([r["job_s"] for r in untraced if r["passed"]]
             or [r["job_s"] for r in untraced if "job_s" in r])
    lines = []
    if not trace:
        setups = [r["setup_s"] for r in untraced]
        scale = CALIBRATION_QUIET_S / statistics.median(calibrations)
        metrics = {
            "job_s": (statistics.median(times) * scale if times
                      else float("nan")),
            "setup_s": statistics.median(setups) * scale,
            "peak_rss_mb": max(r.get("peak_rss_kb", 0)
                               for r in untraced) / 1024,
            "pass_ratio": passed / attempted,
        }
        lines.append(f"scale: {CALIBRATION_QUIET_S} s / median of "
                     f"{len(calibrations)} calibrations "
                     f"({min(calibrations):.4f}..{max(calibrations):.4f} s) "
                     f"= {scale:.4f}")
        if times:
            lines.append(f"job_s: median of {len(times)}, scaled; fastest "
                         f"{min(times) * scale:.4f} s scaled; unscaled median "
                         f"{statistics.median(times):.4f} s, fastest "
                         f"{min(times):.4f} s")
        lines.append(f"setup_s: median of {len(setups)}, scaled; unscaled "
                     f"{statistics.median(setups):.4f} s")
        lines.append(f"peak_rss_mb: max of {len(untraced)} jobs")
        lines.append(f"pass_ratio: {passed} of {attempted} jobs")
        units = END_TO_END
    else:
        per_job = [layer_metrics(r) for r in traced if "spans" in r]
        metrics = {}
        for name in PER_LAYER:
            samples = [v[name] for v in per_job if name in v]
            metrics[name] = statistics.median(samples) if samples else 0.0
        traced_times = [r["job_s"] for r in traced if "job_s" in r]
        if times and traced_times:
            metrics["trace.overhead_s"] = min(traced_times) - min(times)
        lines.append(f"per-layer values: median of {len(per_job)} traced "
                     f"jobs; trace.overhead_s: fastest traced "
                     f"({len(traced_times)}) minus fastest untraced "
                     f"({len(times)})")
        units = PER_LAYER
    table = [f"{name:40s} {value:16.6g} {units[name]}"
             for name, value in metrics.items()]
    return ({name: {"value": value, "unit": units[name]}
             for name, value in metrics.items()}, lines + table)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(job.JOBS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--reference", type=Path, default=REFERENCE,
                        help="reference outputs (the self-test corrupts one)")
    args = parser.parse_args(argv)
    if not (SRC / "ramsey_toolkit" / "__init__.py").is_file():
        print(f"no ramsey_toolkit sources under {SRC}", file=sys.stderr)
        return 2
    ref = json.loads(args.reference.read_text())
    began = time.monotonic()
    deadline = began + RUN_DEADLINE_S
    WORK.mkdir(exist_ok=True)
    # One untraced job per round, followed by one traced job when tracing.
    kinds = (False, True) if args.trace else (False,)
    spec = {"workload": args.workload, "src": str(SRC),
            "fixture": str(FIXTURE), **job_inputs(args.seed)}
    env = child_environment()
    default_seed = args.seed == DEFAULT_SEED
    untraced, traced, problems, job_lines = [], [], [], []
    first_digests = None
    calibrations = [calibrate()]
    rounds, timed_out = 0, False
    # Start a round only if, at the pace so far, it ends within --seconds.
    while not timed_out and (rounds == 0 or (time.monotonic() - began)
                             * (rounds + 1) / rounds <= args.seconds):
        rounds += 1
        for traced_job in kinds:
            index = len(untraced) + len(traced)
            try:
                report = run_job({**spec, "trace": traced_job}, env, deadline)
            except SetupError as exc:
                print(f"job {index} could not start: {exc}", file=sys.stderr)
                return 1
            calibrations.append(calibrate())
            found = check_job(args.workload, default_seed, report, ref)
            if "error" not in report:
                digests = _artifact_digests(report)
                if first_digests is None:
                    first_digests = digests
                elif digests != first_digests:
                    found.append("artifacts differ from the run's first job")
            problems += [f"job {index}: {problem}" for problem in found]
            report["passed"] = not found
            job_lines.append(
                f"job {index}{' traced' if traced_job else ''}: "
                f"{report.get('job_s', float('nan')):.4f} s, set-up "
                f"{report.get('setup_s', float('nan')):.4f} s, then "
                f"calibration {calibrations[-1]:.4f} s, "
                f"{'passed' if not found else 'FAILED'}")
            (traced if traced_job else untraced).append(report)
            timed_out = report.get("error") == "timed out"
            if timed_out:
                break
    attempted = len(untraced) + len(traced)
    passed = sum(r["passed"] for r in untraced + traced)
    metrics, lines = summarise(untraced, traced, calibrations, passed,
                               attempted, bool(args.trace))
    if traced:
        trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
        with open(trace_path, "w", encoding="ascii") as sink:
            for job_id, report in enumerate(traced):
                for name, tag, start, end, parent in report.get("spans", []):
                    sink.write(json.dumps({"job": job_id, "name": name,
                                           "tag": tag, "start": start,
                                           "end": end, "parent": parent})
                               + "\n")
        lines.append(f"spans: {trace_path.relative_to(ROOT)}")
    print(f"workload={args.workload} seed={args.seed} jobs={attempted} "
          f"failed={attempted - passed} wall={time.monotonic() - began:.1f}s")
    for line in job_lines + problems + lines:
        print(line)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": attempted - passed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
