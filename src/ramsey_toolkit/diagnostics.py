"""Random-projector spectral diagnostics over a schedule of graph orders.

A batch of k random unit directions in R^d induces an accumulator
A = sum_j v_j v_j^T.  Two witnesses of rank collapse are tracked: the
ordered linear deflation product prod_j (I - v_j v_j^T) and the exponential
witness Tr exp(-alpha A), evaluated in the log domain so collapse depths
hundreds of decades below underflow remain quotable.  A survivor subspace
of rank r shows up as Tr exp(-alpha A) >= r at every alpha, which is what
the criticality decision exploits.  The accumulator is symmetric PSD, so
its top eigenvalue is its spectral norm rho_H; the sweep takes that, the
exponential witness and lambda_L from one eigendecomposition per seed.
The deflation product is built in blocks of d directions, each block a
compact WY factor I - W^T Y (Schreiber & Van Loan 1989), so an order costs
about k/d + d stacked matrix products instead of k rank-1 steps.

All randomness flows from explicit integer seeds; records are pure
functions of (configuration, n), computed one order after another in the
calling process.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from . import spectral

__all__ = [
    "MissProbabilityModel",
    "DirectionBatch",
    "DiagnosticsConfig",
    "DiagnosticsRecord",
    "DecisionThresholds",
    "SeedSchedule",
    "ConstraintRestricted",
    "miss_probability",
    "chernoff_miss",
    "mean_field_trace",
    "deflation_probability",
    "deflation_mc",
    "sample_directions",
    "build_accumulator",
    "linear_witness",
    "exp_witness",
    "lyapunov_rate",
    "slope_fit",
    "run_diagnostics",
    "decide_critical",
    "control_record",
]

_LN10 = math.log(10.0)


@dataclass(frozen=True)
class MissProbabilityModel:
    """Sampling model: k unit directions in R^d against a rank-r subspace."""

    k: int
    r: int
    d: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"d must be >= 2, got {self.d}")
        if not (1 <= self.r <= self.d):
            raise ValueError(f"need 1 <= r <= d, got r={self.r}, d={self.d}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


def miss_probability(model: MissProbabilityModel) -> float:
    """First-moment bound exp(-k r / d) on missing a rank-r subspace."""
    return math.exp(-model.k * model.r / model.d)


def chernoff_miss(model: MissProbabilityModel, variant: str = "table") -> float:
    """Chernoff lower-tail bound on accumulating too little subspace overlap.

    With mu = k r / d and delta = 1 - (r - 1) / mu, the ``table`` variant is
    exp(-mu delta^2 / 2), the form consistent with the tabulated reference
    values.  The ``printed`` variant, exp(-(k r / 2d)(1 - (r - 1)/k)^2),
    is retained for comparison but does not reproduce them.
    """
    mu = model.k * model.r / model.d
    if variant == "table":
        delta = 1.0 - (model.r - 1) / mu
        if delta <= 0.0:
            raise ValueError(
                f"rank {model.r} too large for the concentration regime "
                f"(mu = {mu:g})")
        return math.exp(-mu * delta * delta / 2.0)
    if variant == "printed":
        delta = 1.0 - (model.r - 1) / model.k
        return math.exp(-(model.k * model.r / (2.0 * model.d)) * delta * delta)
    raise ValueError(f"unknown variant {variant!r}")


def mean_field_trace(d: int, k: int, alpha: float) -> float:
    """log10 of the mean-field trace d * exp(-alpha k / d).

    Log-domain return keeps deep-collapse regimes (hundreds of decades
    below the smallest subnormal) representable.
    """
    if d < 1 or k < 1:
        raise ValueError(f"d and k must be >= 1, got d={d}, k={k}")
    if alpha < 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    return math.log10(d) - (alpha * k / d) / _LN10


def deflation_probability(d: int, k: int) -> float:
    """Expected squared residual (1 - 1/d)^k of k sequential deflations."""
    if d < 2 or k < 0:
        raise ValueError(f"need d >= 2 and k >= 0, got d={d}, k={k}")
    return (1.0 - 1.0 / d) ** k


# deflation_mc: the calling thread fills share 0 and one helper thread the
# rest, each in blocks of up to _MC_BLOCK steps.
_MC_STREAMS = 2
_MC_BLOCK = 16


def deflation_mc(d: int, k: int, trials: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of the deflation residual with its standard error.

    Each trial is the squared norm left of a random unit target after k
    deflations by independent uniform unit directions.  By rotational
    invariance the squared overlap B_j of the j-th direction with the unit
    vector of the current residual is Beta(1/2, (d - 1)/2), independent of
    all earlier steps, so the residual after k steps is prod_j (1 - B_j) in
    law.  That law is sampled directly: each factor 1 - B_j is drawn as
    chi2_{d-1} / (z^2 + chi2_{d-1}) from one standard normal z and one
    standard gamma, not from d Gaussians.
    E[1 - B_j] = 1 - 1/d, so the estimator is unbiased for (1 - 1/d)^k.

    The trials are split by ``np.array_split`` into two fixed shares, each
    drawn from its own generator of ``SeedSequence(seed).spawn(2)``.  A
    helper thread fills share 1 while the calling thread fills share 0;
    numpy's generator fills and large ufunc loops release the GIL, so the
    two can run on two cores.  The share count is a constant, so the result
    depends only on the arguments, not on cores or scheduling.  Each share
    draws up to ``_MC_BLOCK`` steps at once into preallocated
    (block, share) buffers and folds them into its residuals with one
    ``np.multiply.reduce``, so memory is O(block * trials) at any k.

    Run with ``OPENBLAS_NUM_THREADS=1``: numpy's default OpenBLAS leaves
    one extra OS thread after ``import numpy`` on a 2-core x86-64 VM, and
    then the helper did not overlap at first.  In fresh processes without
    the variable, the first three rounds of calls at (24, 100), (32, 180)
    and (32, 220) with 2000 trials took 21-36 ms each, about the 25 ms of
    the two shares run one after the other, and later rounds 13-15 ms; with
    it, every round after the first took 13-16 ms.  The package's matrices
    are at most 48 x 48, so it gains nothing from BLAS threads.
    """
    if trials < 2:
        raise ValueError(f"trials must be >= 2, got {trials}")
    if d < 2 or k < 0:
        raise ValueError(f"need d >= 2 and k >= 0, got d={d}, k={k}")
    residuals = np.ones(trials)
    shares = np.array_split(residuals, _MC_STREAMS)
    streams = np.random.SeedSequence(seed).spawn(_MC_STREAMS)
    block = min(k, _MC_BLOCK)
    # Every buffer is allocated here, before the helper starts, so the
    # helper thread allocates nothing (a thread's own malloc arena would
    # add to the peak RSS).
    jobs = [(share, np.random.default_rng(stream), d, k,
             np.empty((block, share.size)), np.empty((block, share.size)),
             np.empty(share.size))
            for share, stream in zip(shares, streams)]
    failures: list[BaseException] = []

    def helper() -> None:
        try:
            for job in jobs[1:]:
                _deflate_share(*job)
        except BaseException as exc:
            failures.append(exc)

    thread = threading.Thread(target=helper, name="deflation_mc")
    thread.start()
    try:
        _deflate_share(*jobs[0])
    finally:
        thread.join()
    if failures:
        raise failures[0]
    estimate = float(residuals.mean())
    std_error = float(residuals.std(ddof=1) / math.sqrt(trials))
    return estimate, std_error


def _deflate_share(residuals: np.ndarray, rng: np.random.Generator, d: int,
                   k: int, overlap: np.ndarray, rest: np.ndarray,
                   fold: np.ndarray) -> None:
    """Multiply k deflation factors into ``residuals`` in place, in blocks.

    ``overlap`` and ``rest`` are (block, len(residuals)) buffers and
    ``fold`` a (len(residuals),) buffer.  Each block draws its normals,
    then its gammas, row after row from ``rng``.
    """
    for start in range(0, k, _MC_BLOCK):
        z = overlap[:k - start]
        chi = rest[:k - start]
        rng.standard_normal(out=z)
        rng.standard_gamma(0.5 * (d - 1), out=chi)
        chi *= 2.0                       # chi2_{d-1}
        z *= z                           # z^2, i.e. chi2_1
        z += chi
        chi /= z                         # 1 - B_j, one row per step
        np.multiply.reduce(chi, axis=0, out=fold)
        residuals *= fold


@dataclass(frozen=True)
class DirectionBatch:
    """k unit directions in R^d with the seed that produced them."""

    d: int
    k: int
    seed: int
    vectors: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"d must be >= 2, got {self.d}")
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        if self.vectors.shape != (self.k, self.d):
            raise ValueError(
                f"vectors must have shape ({self.k}, {self.d}), "
                f"got {self.vectors.shape}")


def sample_directions(d: int, k: int, seed: int) -> DirectionBatch:
    """Draw k iid uniform unit directions in R^d from one explicit seed.

    Row-normalised standard Gaussians; requires d >= 2 and k >= 1.
    """
    return _draw_directions(d, k, seed, 0)


def _draw_directions(d: int, k: int, seed: int, zeroed: int) -> DirectionBatch:
    """The seeded draw behind every embedding.

    k rows of standard Gaussians in R^d from ``default_rng(seed)``, the
    first ``zeroed`` coordinates set to zero, each row then normalised.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    g = np.random.default_rng(seed).normal(loc=0.0, scale=1.0, size=(k, d))
    g[:, :zeroed] = 0.0
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    if not np.all(norms > 0):
        raise RuntimeError("degenerate zero-norm draw")
    return DirectionBatch(d=d, k=k, seed=seed, vectors=g / norms)


def build_accumulator(batch: DirectionBatch) -> np.ndarray:
    """Accumulator A = sum_j v_j v_j^T; trace equals k by construction."""
    if batch.k == 0:
        return np.zeros((batch.d, batch.d))
    a = batch.vectors.T @ batch.vectors
    return (a + a.T) * 0.5


def linear_witness(batch: DirectionBatch) -> tuple[float, float, float]:
    """Trace and eigenvalue extremes of the ordered deflation product.

    Computes P = (I - v_1 v_1^T)(I - v_2 v_2^T) ... in index order; the
    product is not symmetric, so the full non-Hermitian spectrum is taken.
    P is built in blocks of d directions (see ``_deflation_products``),
    which agrees with the direction-by-direction product to rounding.
    Returns (trace, min real part, max |imaginary part|); the empty batch
    yields (d, 1, 0) from P = I.
    """
    trace, min_re, max_im = _deflation_witnesses(batch.vectors[None])
    return float(trace[0]), float(min_re[0]), float(max_im[0])


def _deflation_witnesses(vectors: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """linear_witness for a (S, k, d) stack of batches, all S at once.

    The S products come from ``_deflation_products`` in blocks of d
    directions; one stacked eigvals call then gives every spectrum.
    """
    p = _deflation_products(vectors)
    eigenvalues = np.linalg.eigvals(p)
    return (np.trace(p, axis1=1, axis2=2),
            eigenvalues.real.min(axis=1),
            np.abs(eigenvalues.imag).max(axis=1))


def _deflation_products(vectors: np.ndarray) -> np.ndarray:
    """The ordered products prod_j (I - v_j v_j^T) of a (S, k, d) stack.

    The k directions are cut into blocks Y of d rows; the last block is
    padded with zero rows, each an exact identity factor.  A block's
    product is I - W^T Y, where row w_j is the partial product of the
    block's first j - 1 factors applied to y_j:
    w_j = y_j - sum_{i<j} (y_j . y_i) w_i.  This is the compact WY form of
    a product of Householder-type factors (Schreiber & Van Loan, SIAM J.
    Sci. Stat. Comput. 10, 1989; Joffrain et al., ACM TOMS 32, 2006).  The
    Gram matrices of all blocks of all S batches come from one stacked
    matmul, the recurrence takes d - 1 steps across all of them, and the
    blocks are folded into P in order, P <- P - (P W^T) Y, one step per
    block.  Beside P this holds Y, W and the Gram matrices, about
    3 S ceil(k / d) d^2, that is O(S k d), doubles.
    """
    stack, k, d = vectors.shape
    blocks = -(-k // d)
    y = np.zeros((stack, blocks * d, d))
    y[:, :k] = vectors
    y = y.reshape(stack, blocks, d, d)
    gram = y @ y.transpose(0, 1, 3, 2)
    w = y.copy()
    for j in range(1, d):
        w[:, :, j] -= (gram[:, :, None, j, :j] @ w[:, :, :j])[:, :, 0]
    p = np.tile(np.eye(d), (stack, 1, 1))
    for block in range(blocks):
        p -= (p @ w[:, block].transpose(0, 2, 1)) @ y[:, block]
    return p


def _hermitian_eigenvalues(A) -> np.ndarray:
    M = spectral._checked_matrix(A, "A")
    scale = float(np.abs(M).max())
    if np.allclose(M, M.conj().T, atol=1e-12 * max(scale, 1.0)):
        return np.linalg.eigvalsh(M)
    return np.linalg.eigvals(M)


def exp_witness(A, alpha: float) -> float:
    """log10 of Tr exp(-alpha A) through the eigenvalues of A.

    Goes through the spectral kernel's shifted log-sum-exp, so collapse
    values far below 1e-300 are returned faithfully.
    """
    if alpha < 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    return spectral.log_trace_exp(_hermitian_eigenvalues(A), alpha)


def lyapunov_rate(A, alpha: float) -> float:
    """Boltzmann-weighted mean eigenvalue sum(l e^{-a l}) / sum(e^{-a l}).

    At alpha = 0 this is the plain spectral mean (k/d for an accumulator);
    as alpha grows it tracks the lower spectral edge.  Weights are shifted
    before exponentiation so large alpha stays finite.
    """
    if alpha < 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    return float(_boltzmann_mean(_hermitian_eigenvalues(A), alpha))


def _boltzmann_mean(eigenvalues, alpha: float) -> np.ndarray:
    """lyapunov_rate from eigenvalues; a (S, d) stack gives S rates."""
    lam = np.asarray(eigenvalues, dtype=np.complex128)
    exponents = (-alpha * lam).real
    shift = exponents.max(axis=-1, keepdims=True)
    weights = np.exp(exponents - shift)
    value = np.sum(lam * weights, axis=-1) / np.sum(weights, axis=-1)
    return value.real


def slope_fit(alphas: Sequence[float], log10_traces: Sequence[float]) -> float:
    """Least-squares slope of log10 trace against alpha.

    Needs at least two distinct alpha values.
    """
    x = np.asarray(alphas, dtype=float)
    y = np.asarray(log10_traces, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("need two or more (alpha, log10 trace) pairs")
    if float(x.max() - x.min()) == 0.0:
        raise ValueError("alphas must not all coincide")
    xc = x - x.mean()
    return float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))


class SeedSchedule:
    """Embedding where n enters only through a per-(seed, n) derived stream.

    Each graph order gets statistically independent directions; no rank
    structure is planted, so witnesses stay at their bulk values.
    """

    def batch(self, d: int, k: int, seed: int, n: int) -> DirectionBatch:
        derived = int(np.random.SeedSequence((seed, n)).generate_state(
            1, np.uint64)[0])
        return sample_directions(d, k, derived)


class ConstraintRestricted:
    """Embedding confining directions to a survivor-subspace complement.

    The rank profile maps n to the survivor rank r(n); the first r
    coordinates of the same per-seed Gaussian draw are zeroed before
    normalisation, so directions live in the orthogonal complement of a
    fixed rank-r subspace and Tr exp(-alpha A) can never fall below r.
    Rank 0 reproduces the unrestricted draw and collapses fully.
    """

    def __init__(self, rank_profile: Mapping[int, int]):
        self._ranks = dict(rank_profile)

    def batch(self, d: int, k: int, seed: int, n: int) -> DirectionBatch:
        r = int(self._ranks[n])
        if not (0 <= r < d):
            raise ValueError(f"rank profile must satisfy 0 <= r < d, got {r}")
        return _draw_directions(d, k, seed, r)


@dataclass(frozen=True)
class DiagnosticsConfig:
    """Sweep configuration: geometry (d, k), alpha grid and seed ensemble.

    The defaults are the standard grid and ensemble that ``diag`` uses.
    The embedding is chosen per call of :func:`run_diagnostics`.
    """

    d: int = 24
    k: int = 100
    alpha_grid: tuple[float, ...] = (3.0, 5.0, 7.0, 10.0, 15.0, 20.0, 40.0)
    seeds: tuple[int, ...] = (11, 23, 42, 73, 101, 137, 211, 307, 401, 509)

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"d must be >= 2, got {self.d}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        grid = tuple(float(a) for a in self.alpha_grid)
        if not grid or any(a <= 0 for a in grid):
            raise ValueError("alpha_grid must be non-empty and positive")
        if sorted(grid) != list(grid) or len(set(grid)) != len(grid):
            raise ValueError("alpha_grid must be strictly increasing")
        object.__setattr__(self, "alpha_grid", grid)
        seeds = tuple(int(s) for s in self.seeds)
        if not seeds:
            raise ValueError("seeds must be non-empty")
        object.__setattr__(self, "seeds", seeds)


@dataclass(frozen=True)
class DecisionThresholds:
    """Criticality gates for :func:`decide_critical`.

    Unset gates fall back to defaults taken from the record being judged:
    ``tau_exp_log10`` to the log-midpoint between the mean-field trace and
    1 at the record's (d, k, alpha), ``tau_lin`` to no linear gate.
    """

    tau_exp_log10: float | None = None
    tau_lin: float | None = None


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Seed-averaged witnesses for one graph order n.

    ``alpha`` is the decision point (largest grid value); ``log10_tr_exp``
    is the seed-mean log10 exponential witness there, ``trace_grid`` holds
    the same mean at every grid alpha.  ``critical`` is None until the
    record has been judged against its neighbours, and stays None when a
    neighbour is missing.
    """

    n: int
    d: int
    k: int
    alpha: float
    log10_tr_exp: float
    tr_lin: float
    min_re: float
    max_im: float
    slope: float
    lambda_L: float
    rho_H: float
    critical: bool | None = None
    trace_grid: tuple[tuple[float, float], ...] = field(default=(), repr=False)
    error: str | None = None


def _compute_record(config: DiagnosticsConfig, n: int,
                    embedding) -> DiagnosticsRecord:
    """Seed-mean witnesses for order n from one spectrum per seed.

    All of the order's batches are drawn first and their accumulators are
    solved in one stacked eigvalsh call.  The accumulator is symmetric PSD,
    so its top eigenvalue is its spectral norm: that is rho_H.  The
    exponential witness at every (seed, alpha) pair comes from the same
    eigenvalues in one stacked log-trace pass, as does lambda_L.  The
    deflation products of all seeds are built together in blocks of d
    directions (compact WY form, see ``_deflation_products``), which holds
    O(S k d) doubles for the S seeds beside the products themselves.  Seed
    means are summed in seed order, which keeps the CSV cells byte-stable.
    """
    grid = config.alpha_grid
    alpha_decision = grid[-1]
    batches = [embedding.batch(config.d, config.k, seed, n)
               for seed in config.seeds]
    eigenvalues = np.linalg.eigvalsh(
        np.stack([build_accumulator(batch) for batch in batches]))
    per_alpha = _seed_mean(spectral.log_trace_exp_grid(eigenvalues, grid))
    tr_lin, min_re, max_im = (
        float(_seed_mean(values)) for values in
        _deflation_witnesses(np.stack([batch.vectors for batch in batches])))
    lam_l = float(_seed_mean(_boltzmann_mean(eigenvalues, alpha_decision)))
    rho_h = float(_seed_mean(eigenvalues[:, -1]))
    if len(grid) >= 2:
        slope = slope_fit(grid, per_alpha)
    else:
        # Single-alpha sweeps are anchored at the exact Tr exp(0 A) = d point
        # so the reported slope is the true secant of the trace curve.
        slope = (per_alpha[0] - math.log10(config.d)) / grid[0]
    return DiagnosticsRecord(
        n=n, d=config.d, k=config.k, alpha=alpha_decision,
        log10_tr_exp=float(per_alpha[-1]), tr_lin=tr_lin, min_re=min_re,
        max_im=max_im, slope=float(slope), lambda_L=lam_l, rho_H=rho_h,
        critical=None,
        trace_grid=tuple((a, float(t)) for a, t in zip(grid, per_alpha)),
    )


def _seed_mean(values: np.ndarray) -> np.ndarray:
    """Mean over the leading (seed) axis, summed strictly in seed order."""
    return np.add.accumulate(values, axis=0)[-1] / len(values)


def _record_or_failure(config: DiagnosticsConfig, n: int,
                       embedding) -> DiagnosticsRecord:
    """The record for order n, or NaN witnesses with the reason if its
    numerics failed."""
    try:
        return _compute_record(config, n, embedding)
    except np.linalg.LinAlgError as exc:
        nan = float("nan")
        return DiagnosticsRecord(
            n=n, d=config.d, k=config.k, alpha=config.alpha_grid[-1],
            log10_tr_exp=nan, tr_lin=nan, min_re=nan, max_im=nan, slope=nan,
            lambda_L=nan, rho_H=nan, critical=None,
            error=f"{type(exc).__name__}: {exc}")


def _order(n) -> int:
    """``n`` as an int if it is an integer of at least 1, else ValueError."""
    try:
        order = operator.index(n)
    except TypeError:
        raise ValueError(f"orders must be integers >= 1, got {n!r}") from None
    if order < 1:
        raise ValueError(f"orders must be integers >= 1, got {n!r}")
    return order


def run_diagnostics(config: DiagnosticsConfig, n_values: Sequence[int],
                    embedding=None) -> list[DiagnosticsRecord]:
    """One seed-averaged record per graph order, judged for criticality.

    ``embedding`` is any object with a ``batch(d, k, seed, n)`` method that
    returns a :class:`DirectionBatch`; None means :class:`SeedSchedule`.
    Orders must be integers (``int`` or numpy integers) of at least 1; any
    other order raises ``ValueError`` naming it.  Orders are deduplicated
    and returned ascending.  A numerical failure at one order is captured
    on its record (``error`` field, NaN witnesses) without aborting the
    sweep.  Records are judged by :func:`decide_critical` with its default
    gates.  Criticality needs both neighbours, so the first and last
    records always stay indeterminate.

    The orders are computed one after another in this process.  Each takes
    about 5 ms at d=24, k=400 with 10 seeds, too short for a forked worker
    to pay off: the child loads ``numpy.random`` and makes its first LAPACK
    calls again, and on a 2-core x86-64 VM two processes working at once
    each ran at about half speed for bursts under about 200 ms.  There,
    with ``OPENBLAS_NUM_THREADS=1``, ``dispatch(["diag", ...])`` over the
    orders 43-46 took these medians of 7 fresh processes, with a pool of
    one worker per extra core against without: 49 against 25 ms at k=100,
    60 against 38 ms at k=400 and 146 against 120 ms at k=2000.
    """
    if embedding is None:
        embedding = SeedSchedule()
    elif not hasattr(embedding, "batch"):
        raise ValueError("embedding must provide a batch(d, k, seed, n) method")
    orders = sorted(set(_order(n) for n in n_values))
    if not orders:
        raise ValueError("n_values must be non-empty")
    records = [_record_or_failure(config, n, embedding) for n in orders]
    judged = []
    for idx, record in enumerate(records):
        before = records[idx - 1] if idx > 0 else None
        after = records[idx + 1] if idx + 1 < len(records) else None
        verdict = decide_critical(record, neighbors=(before, after))
        judged.append(replace(record, critical=verdict))
    return judged


def decide_critical(record: DiagnosticsRecord,
                    thresholds: DecisionThresholds | None = None,
                    neighbors: tuple[DiagnosticsRecord | None,
                                     DiagnosticsRecord | None] = (None, None),
                    ) -> bool | None:
    """Three-way conjunction marking a collapse order.

    Fires only when (a) the exponential witness sits at or below the
    threshold (default: log-midpoint between the mean-field trace and 1 at
    the decision alpha), (b) the linear witness is strictly locally
    extremal against both neighbours, and (c) the accumulator norm is
    strictly locally extremal.  Missing neighbours or a failed record make
    the verdict indeterminate (None).

    Gate (a) does not bind at k >> d: there the smallest accumulator
    eigenvalue, which sets the witness, grows almost as fast as the
    mean-field k/d, so the witness lies far below the midpoint (at d=24,
    k=400 about -175 against -144) and the verdict rests on (b) and (c)
    alone.  At d=24 with the default alpha grid and seeds, over the orders
    43-46, gate (a) failed on all four records for every k <= 217, on some
    for 218 <= k <= 237, and on none for 238 <= k <= 600.  A mean-field
    estimate, (sqrt(k) - sqrt(d))^2 / d for that eigenvalue against half
    of k/d, puts the edge higher, near 12 d ~ 280.
    """
    if record.error is not None:
        return None
    before, after = neighbors
    if before is None or after is None:
        return None
    if before.error is not None or after.error is not None:
        return None
    gates = thresholds or DecisionThresholds()
    tau = gates.tau_exp_log10
    if tau is None:
        tau = 0.5 * mean_field_trace(record.d, record.k, record.alpha)
    if not (record.log10_tr_exp <= tau):
        return False
    if gates.tau_lin is not None and not (record.tr_lin <= gates.tau_lin):
        return False
    lin_extremal = ((record.tr_lin < before.tr_lin and record.tr_lin < after.tr_lin)
                    or (record.tr_lin > before.tr_lin and record.tr_lin > after.tr_lin))
    rho_extremal = ((record.rho_H < before.rho_H and record.rho_H < after.rho_H)
                    or (record.rho_H > before.rho_H and record.rho_H > after.rho_H))
    return bool(lin_extremal and rho_extremal)


def control_record(coloring, config: DiagnosticsConfig) -> DiagnosticsRecord:
    """Diagnostics for a structural control colouring under the restricted
    embedding.

    The control is a fixed colouring of K_v, not a good-colouring witness:
    goodness is not checked, and the am46 fixture contains both a red and a
    blue K_6 (no (5,5)-good colouring of K_46 exists).  The record is
    evaluated at rank 1, the smallest nonzero survivor rank, so the
    exponential witness cannot fall below 1.  The record is never judged:
    it has no neighbours, so ``critical`` is always None (indeterminate).
    A numerical failure is captured on the record's ``error`` field, as in
    the sweep.
    """
    v = int(coloring.v)
    return _record_or_failure(config, v, ConstraintRestricted({v: 1}))
