"""Dense spectral kernel: matrix exponential, spectral norm, log-domain traces.

Everything here is deterministic and desk-scale: matrices are plain numpy
arrays, no sparsity.  The one iterative solver is the power iteration of
:func:`spectral_norm`; the diagnostics sweep reads rho_H from a dense
``eigvalsh`` instead.  Log-domain trace evaluation lives here too so that
downstream witnesses can quote traces far below 1e-300 without underflow.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "PowerIterationError",
    "mat_exp",
    "spectral_norm",
    "log_trace_exp",
    "log_trace_exp_grid",
]

#: Pade-13 numerator/denominator coefficients (Higham's scaling-and-squaring).
_PADE13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)

#: 1-norm threshold below which the order-13 approximant needs no scaling.
_THETA13 = 4.25


class PowerIterationError(RuntimeError):
    """Power iteration ran out of iterations; carries the last estimate."""

    def __init__(self, message: str, last_estimate: float):
        super().__init__(message)
        self.last_estimate = last_estimate


def _checked_matrix(M, name: str, square: bool = True) -> np.ndarray:
    """``M`` as an array, checked 2-D, non-empty, finite and (by default)
    square.  The array is returned uncast; each caller applies its own dtype.
    """
    A = np.asarray(M)
    if A.ndim != 2 or A.size == 0 or (square and A.shape[0] != A.shape[1]):
        kind = "square matrix" if square else "matrix"
        raise ValueError(
            f"{name} must be a non-empty {kind}, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def mat_exp(M) -> np.ndarray:
    """Matrix exponential via Pade-13 scaling and squaring.

    ``M`` is halved s times until its 1-norm is at most 4.25, inside
    Higham's bound theta_13 = 5.37 (SIAM J. Matrix Anal. Appl. 26, 2005),
    so the approximant's backward error is at most unit roundoff, about
    1.1e-16, relative to ``||M||``; squaring s times undoes the scaling.
    The forward error is that times the conditioning of exp at ``M``.
    """
    A = _checked_matrix(M, "M")
    A = A.astype(np.complex128 if np.iscomplexobj(A) else np.float64)
    d = A.shape[0]
    norm1 = float(np.linalg.norm(A, 1))
    squarings = 0
    if norm1 > _THETA13:
        squarings = max(0, int(math.ceil(math.log2(norm1 / _THETA13))))
        A = A / (2.0**squarings)

    b = _PADE13
    ident = np.eye(d, dtype=A.dtype)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    E = np.linalg.solve(V - U, V + U)
    for _ in range(squarings):
        E = E @ E
    return E


def spectral_norm(A, tol: float = 1e-8, max_iter: int = 500) -> float:
    """Largest singular value by power iteration on the Hermitian dilation.

    The dilation spectrum is symmetric about zero, so a single-step
    iteration can oscillate between the +sigma and -sigma eigenvectors;
    applying H twice per step targets H^2 whose top eigenvalue is sigma^2
    and restores convergence.  The iteration stops once the unit iterate x
    has Rayleigh quotient theta = x^H H^2 x with residual
    ``||H^2 x - theta x|| <= tol * theta``; H^2 is Hermitian, so some
    eigenvalue sigma_i^2 of it then lies within ``tol * theta`` of theta,
    and ``sqrt(theta)`` is returned.  Failure to converge within
    ``max_iter`` raises :class:`PowerIterationError` carrying the last
    estimate.
    """
    B = _checked_matrix(A, "A", square=False)
    B = np.asarray(B, dtype=np.complex128 if np.iscomplexobj(B) else np.float64)
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")

    r, c = B.shape
    n = r + c

    def apply_h(x: np.ndarray) -> np.ndarray:
        top = B @ x[r:]
        bot = B.conj().T @ x[:r]
        return np.concatenate([top, bot])

    # Fixed pseudo-random start; a deterministic seed keeps runs bit-stable
    # while avoiding accidental orthogonality to the top singular subspace.
    x = np.random.default_rng(0x5EED).standard_normal(n)
    x = x.astype(B.dtype) / np.linalg.norm(x)

    theta = 0.0
    for _ in range(max_iter):
        y = apply_h(x)
        # x^H H^2 x = ||H x||^2 for the unit iterate x.
        theta = float(np.vdot(y, y).real)
        if theta == 0.0:
            return 0.0
        z = apply_h(y)
        if np.linalg.norm(z - theta * x) <= tol * theta:
            return math.sqrt(theta)
        x = z / np.linalg.norm(z)
    estimate = math.sqrt(theta)
    raise PowerIterationError(
        f"power iteration did not converge in {max_iter} iterations; "
        f"last estimate {estimate:.12g}",
        last_estimate=estimate,
    )


def log_trace_exp(eigenvalues, alpha: float) -> float:
    """log10 of ``sum_i exp(-alpha * lambda_i)`` via shifted log-sum-exp.

    Works entirely in the log domain so traces as small as 1e-10000 are
    representable.  For Hermitian positive semidefinite input the sum is a
    positive real and the returned value is exact up to rounding; for
    complex spectra the magnitude of the (complex) sum is reported.  This
    is the one-spectrum, one-alpha case of :func:`log_trace_exp_grid`.
    """
    lam = np.asarray(eigenvalues, dtype=np.complex128).ravel()
    return float(log_trace_exp_grid(lam, (alpha,))[0])


def log_trace_exp_grid(spectra, alphas) -> np.ndarray:
    """:func:`log_trace_exp` for a stack of spectra at a grid of alphas.

    ``spectra`` has shape (..., n), one spectrum per leading index, and
    the result has shape (..., len(alphas)).  Each entry is computed with
    the same operations as a single call, so the stacked pass and a loop
    of single calls agree bit for bit.  A sum that underflows to zero
    gives ``-inf``.
    """
    lam = np.asarray(spectra, dtype=np.complex128)
    grid = np.asarray(alphas, dtype=np.float64)
    if lam.ndim == 0 or lam.shape[-1] == 0:
        raise ValueError("eigenvalues must be non-empty")
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("alphas must be a non-empty 1-D sequence")
    if grid.min() < 0.0:
        raise ValueError(f"alpha must be >= 0, got {grid.min()}")
    exponents = -grid[:, None] * lam[..., None, :]
    shift = exponents.real.max(axis=-1)
    scaled = np.exp(exponents - shift[..., None])
    magnitude = np.abs(scaled.sum(axis=-1))
    with np.errstate(divide="ignore"):
        return (shift + np.log(magnitude)) / math.log(10.0)
