"""Spectral, combinatorial and statevector diagnostics for small Ramsey
thresholds: random-projector collapse witnesses, exact small-order colouring
searches, prime-sequence corridor scans, streaming SAT encodings and dense
block-encoding simulations, all bit-reproducible from explicit seeds."""

__version__ = "0.1.0"

from .combinatorics import (BudgetError, CliqueConstraint, EdgeColoring,
                            brute_force_ramsey, canonical_key, edge_index,
                            exists_good_coloring, frontier_profile,
                            glue_extensions, graded_ramsey,
                            has_forbidden_clique, qubit_cost, survivor_rank)
from .cnf import CnfInstance, check_small, edge_var, stream_cnf, write_map
from .diagnostics import (ConstraintRestricted, DecisionThresholds,
                          DiagnosticsConfig, DiagnosticsRecord, DirectionBatch,
                          MissProbabilityModel, SeedSchedule,
                          build_accumulator, chernoff_miss, control_record,
                          decide_critical, deflation_mc, deflation_probability,
                          exp_witness, linear_witness, lyapunov_rate,
                          mean_field_trace, miss_probability, run_diagnostics,
                          sample_directions, slope_fit)
from .primes import (PersistenceResult, PrimeSignature, PSQuery,
                     SelectionResult, enumerate_ps, factorize, first_primes,
                     is_prime_sequence, persistence_scan, select_candidate)
from .qsim import (BlockEncoding, PhaseWrapError, TraceEstimate,
                   block_encode_rank1, encode_operator, hadamard_test,
                   hutchinson_trace, lcu_block_encode, phase_estimate_dilation,
                   phase_resolution)
from .reporting import (RESULT_COLUMNS, ControlColoringError,
                        ControlComplementError, ControlFormatError,
                        ControlSizeError, ControlSymmetryError, format_value,
                        load_control_coloring, write_results)
from .spectral import (PowerIterationError, log_trace_exp, log_trace_exp_grid,
                       mat_exp, spectral_norm)

__all__ = [
    "__version__",
    "BudgetError", "CliqueConstraint", "EdgeColoring", "brute_force_ramsey",
    "canonical_key", "edge_index", "exists_good_coloring", "frontier_profile",
    "glue_extensions", "graded_ramsey", "has_forbidden_clique", "qubit_cost",
    "survivor_rank",
    "CnfInstance", "check_small", "edge_var", "stream_cnf", "write_map",
    "ConstraintRestricted", "DecisionThresholds", "DiagnosticsConfig",
    "DiagnosticsRecord", "DirectionBatch", "MissProbabilityModel",
    "SeedSchedule", "build_accumulator", "chernoff_miss", "control_record",
    "decide_critical", "deflation_mc", "deflation_probability", "exp_witness",
    "linear_witness", "lyapunov_rate", "mean_field_trace", "miss_probability",
    "run_diagnostics", "sample_directions", "slope_fit",
    "PersistenceResult", "PrimeSignature", "PSQuery", "SelectionResult",
    "enumerate_ps", "factorize", "first_primes", "is_prime_sequence",
    "persistence_scan", "select_candidate",
    "BlockEncoding", "PhaseWrapError", "TraceEstimate", "block_encode_rank1",
    "encode_operator", "hadamard_test", "hutchinson_trace", "lcu_block_encode",
    "phase_estimate_dilation", "phase_resolution",
    "RESULT_COLUMNS", "ControlColoringError", "ControlComplementError",
    "ControlFormatError", "ControlSizeError", "ControlSymmetryError",
    "format_value", "load_control_coloring", "write_results",
    "PowerIterationError", "log_trace_exp", "log_trace_exp_grid", "mat_exp",
    "spectral_norm",
]
