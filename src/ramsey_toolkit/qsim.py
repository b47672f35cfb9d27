"""Desk-scale statevector routes to the spectral witnesses.

Block encodings are dense unitaries holding a target operator (scaled by
alpha_0) in their ancilla-zero corner: a three-stage gadget for rank-1
outer products, a prepare/select/unprepare combination for weighted sums,
and a completion dilation for arbitrary contractions such as exp(-alpha A).
Trace estimation runs Hutchinson probes through the encoding; eigenvalue
read-out runs textbook phase estimation on the Hermitian dilation with the
register handled by an FFT rather than an explicit QFT matrix.

Registers are plain numpy statevectors, ancillas most significant.  All
randomness comes from explicit integer seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import spectral

__all__ = [
    "BlockEncoding",
    "TraceEstimate",
    "PhaseWrapError",
    "block_encode_rank1",
    "lcu_block_encode",
    "encode_operator",
    "hadamard_test",
    "hutchinson_trace",
    "phase_estimate_dilation",
    "phase_resolution",
]

_UNITARY_TOL = 1e-9


class PhaseWrapError(RuntimeError):
    """Eigenphase hit the wrap-around boundary; reduce the time step."""


@dataclass(frozen=True)
class TraceEstimate:
    """Hutchinson estimate with its standard error and probe count."""

    value: float
    std_error: float
    probes: int


@dataclass(frozen=True)
class BlockEncoding:
    """Unitary whose ancilla-zero block is the target operator over alpha0.

    ``data_dim`` is the (possibly padded) data register dimension;
    ``source_dim`` the original operator dimension before padding.
    """

    unitary: np.ndarray = field(repr=False)
    ancilla_count: int
    alpha0: float
    data_dim: int
    source_dim: int

    def __post_init__(self):
        w = _require_unitary(self.unitary, "BlockEncoding.unitary")
        if self.data_dim < 1 or w.shape[0] % self.data_dim:
            raise ValueError(
                f"total dimension {w.shape[0]} is not a multiple of "
                f"data_dim {self.data_dim}")
        if self.alpha0 <= 0.0:
            raise ValueError(f"alpha0 must be positive, got {self.alpha0}")

    @property
    def block(self) -> np.ndarray:
        """Ancilla-zero corner; ``alpha0 * block`` is the encoded operator."""
        return self.unitary[:self.data_dim, :self.data_dim]


def _as_state(vec, name: str = "state") -> np.ndarray:
    x = np.asarray(vec, dtype=np.complex128).ravel()
    if x.size < 1:
        raise ValueError(f"{name} must be non-empty")
    norm = float(np.linalg.norm(x))
    if abs(norm - 1.0) > _UNITARY_TOL:
        raise ValueError(f"{name} must be a unit vector, norm is {norm:.12g}")
    return x


def _require_unitary(U, name: str = "U") -> np.ndarray:
    w = np.asarray(spectral._checked_matrix(U, name), dtype=np.complex128)
    defect = np.abs(w.conj().T @ w - np.eye(w.shape[0])).max()
    if defect > _UNITARY_TOL:
        raise ValueError(f"{name} is not unitary (defect {defect:.3e})")
    return w


def _completion_unitary(first_column: np.ndarray) -> np.ndarray:
    """Any unitary whose first column is the given unit vector.

    QR of the vector stacked against the identity; the leading column's
    phase is corrected afterwards, which keeps the result deterministic.
    """
    u = first_column
    d = u.size
    stacked = np.concatenate([u[:, None], np.eye(d, dtype=np.complex128)],
                             axis=1)
    q = np.linalg.qr(stacked)[0][:, :d]
    phase = np.vdot(q[:, 0], u)
    q = q.copy()
    q[:, 0] *= phase
    return q


def _pad_to_pow2(vec: np.ndarray) -> np.ndarray:
    d = vec.size
    target = 1 << (d - 1).bit_length()
    if target == d:
        return vec
    out = np.zeros(target, dtype=np.complex128)
    out[:d] = vec
    return out


# Ancilla gadget pieces: the reflection applied alongside data index 0 and
# the bit flip applied alongside every other index.
_R2 = np.array([[0.5, math.sqrt(3.0) / 2.0],
                [math.sqrt(3.0) / 2.0, -0.5]])
_X2 = np.array([[0.0, 1.0], [1.0, 0.0]])


def _rank1_gadget(u_pad: np.ndarray, v_pad: np.ndarray) -> np.ndarray:
    """Unitary with ancilla-zero block exactly u v^H / 2.

    Conjugating the index-selective ancilla rotation by state-preparation
    unitaries turns its (0, 0) entry of 1/2 into the rank-1 target.
    """
    dp = u_pad.size
    gadget = np.kron(_X2, np.eye(dp, dtype=np.complex128))
    gadget[::dp, ::dp] = _R2
    prep_u = _completion_unitary(u_pad)
    prep_v = _completion_unitary(v_pad)
    eye2 = np.eye(2)
    return np.kron(eye2, prep_u) @ gadget @ np.kron(eye2, prep_v).conj().T


def block_encode_rank1(u, v) -> BlockEncoding:
    """Block encoding of the outer product |u><v| with alpha0 = 2.

    Both vectors must be unit; dimensions that are not a power of two are
    zero-padded, which leaves the encoded block unchanged on the original
    coordinates.
    """
    uu = _as_state(u, "u")
    vv = _as_state(v, "v")
    if uu.size != vv.size:
        raise ValueError(
            f"u and v must have equal dimension, got {uu.size} and {vv.size}")
    u_pad = _pad_to_pow2(uu)
    v_pad = _pad_to_pow2(vv)
    w = _rank1_gadget(u_pad, v_pad)
    return BlockEncoding(unitary=w, ancilla_count=1, alpha0=2.0,
                         data_dim=u_pad.size, source_dim=uu.size)


def lcu_block_encode(terms) -> BlockEncoding:
    """Block encoding of sum_j w_j |u_j><v_j| with alpha0 = 2 sum_j |w_j|.

    ``terms`` is a non-empty sequence of (weight, u, v); weights may be
    negative or complex (their phases are folded into the left vectors).
    A single term reduces to the rank-1 gadget.
    """
    parsed = []
    for weight, u, v in terms:
        parsed.append((complex(weight), _as_state(u, "u"), _as_state(v, "v")))
    if not parsed:
        raise ValueError("terms must be non-empty")
    dim = parsed[0][1].size
    for _, uu, vv in parsed:
        if uu.size != dim or vv.size != dim:
            raise ValueError("all terms must share one dimension")
    weight_sum = sum(abs(w) for w, _, _ in parsed)
    if weight_sum == 0.0:
        raise ValueError("weights must not all vanish")

    count = len(parsed)
    sel_bits = (count - 1).bit_length()
    sel_dim = 1 << sel_bits
    d_pad = 1 << (dim - 1).bit_length()
    gadget_dim = 2 * d_pad

    select = np.zeros((sel_dim * gadget_dim, sel_dim * gadget_dim),
                      dtype=np.complex128)
    amplitudes = np.zeros(sel_dim, dtype=np.complex128)
    for j, (w, uu, vv) in enumerate(parsed):
        amplitudes[j] = math.sqrt(abs(w) / weight_sum)
        phase = w / abs(w) if w != 0 else 1.0
        u_pad = _pad_to_pow2(uu) * phase
        v_pad = _pad_to_pow2(vv)
        lo = j * gadget_dim
        select[lo:lo + gadget_dim, lo:lo + gadget_dim] = _rank1_gadget(
            u_pad, v_pad)
    for j in range(count, sel_dim):
        lo = j * gadget_dim
        select[lo:lo + gadget_dim, lo:lo + gadget_dim] = np.eye(gadget_dim)

    prep = _completion_unitary(amplitudes)
    lift = np.kron(prep, np.eye(gadget_dim))
    w_total = lift.conj().T @ select @ lift
    return BlockEncoding(unitary=w_total, ancilla_count=sel_bits + 1,
                         alpha0=2.0 * weight_sum, data_dim=d_pad,
                         source_dim=dim)


def encode_operator(F, alpha0: float | None = None) -> BlockEncoding:
    """Completion dilation [[B, S], [S', -B^H]] encoding F = alpha0 B.

    ``alpha0`` defaults to the spectral norm of F (the tightest admissible
    scale); it must be at least that norm so that B is a contraction.  The
    off-diagonal square roots are built from the SVD of B, which keeps the
    dilation unitary to machine precision.  No padding is needed here.
    """
    mat = np.asarray(spectral._checked_matrix(F, "F"), dtype=np.complex128)
    d = mat.shape[0]
    left, sigma, right_h = np.linalg.svd(mat)
    top = float(sigma[0])
    if alpha0 is None:
        alpha0 = top if top > 0.0 else 1.0
    if alpha0 <= 0.0:
        raise ValueError(f"alpha0 must be positive, got {alpha0}")
    if top > alpha0 * (1.0 + 1e-12):
        raise ValueError(
            f"alpha0 = {alpha0:g} is below the spectral norm {top:g}")
    s = np.clip(sigma / alpha0, 0.0, 1.0)
    b = left @ np.diag(s) @ right_h
    residual = np.sqrt(1.0 - s * s)
    s_left = left @ np.diag(residual) @ left.conj().T
    s_right = right_h.conj().T @ np.diag(residual) @ right_h
    w = np.zeros((2 * d, 2 * d), dtype=np.complex128)
    w[:d, :d] = b
    w[:d, d:] = s_left
    w[d:, :d] = s_right
    w[d:, d:] = -b.conj().T
    return BlockEncoding(unitary=w, ancilla_count=1, alpha0=float(alpha0),
                         data_dim=d, source_dim=d)


def hadamard_test(U, probe, shots: int | None = None,
                  seed: int | None = None) -> float:
    """Re <probe| U |probe> by the one-ancilla interference circuit.

    The default is the exact expectation from the statevector branches;
    with ``shots`` the +/-1 outcomes are sampled, which requires a seed.
    """
    w = _require_unitary(U)
    psi = _as_state(probe, "probe")
    if psi.size != w.shape[0]:
        raise ValueError(
            f"probe dimension {psi.size} does not match operator "
            f"dimension {w.shape[0]}")
    return _interference(w, psi, shots, seed)


def _interference(w: np.ndarray, psi: np.ndarray, shots: int | None,
                  seed: int | None) -> float:
    """:func:`hadamard_test` of the checked ``complex128`` unitary ``w`` on
    the unit state ``psi`` of its dimension; nothing here re-checks them."""
    plus = 0.5 * (psi + w @ psi)
    minus = 0.5 * (psi - w @ psi)
    p0 = float(np.vdot(plus, plus).real)
    p1 = float(np.vdot(minus, minus).real)
    if shots is None:
        return p0 - p1
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if seed is None:
        raise ValueError("sampling requires an explicit seed")
    rng = np.random.default_rng(seed)
    ones = int(rng.binomial(shots, min(max(p0, 0.0), 1.0)))
    return 2.0 * ones / shots - 1.0


def hutchinson_trace(encoding: BlockEncoding, probes: int, seed: int,
                     shots: int | None = None) -> TraceEstimate:
    """Stochastic trace of the encoded operator through its unitary.

    Normalised complex-Gaussian probes r (E[r r^H] = I over the data
    register) are lifted to ancilla-zero states; the estimator is
    alpha0 * D * mean Re <0 r| W |0 r>, unbiased for Re Tr(alpha0 B).
    The standard error of the probe mean is reported alongside.
    """
    if probes < 2:
        raise ValueError(f"probes must be >= 2, got {probes}")
    d = encoding.data_dim
    total = encoding.unitary.shape[0]
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(probes, d)) + 1j * rng.normal(size=(probes, d))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    unit = raw / norms
    if shots is None:
        block = encoding.unitary[:d, :d]
        quad = np.einsum("pi,ij,pj->p", unit.conj(), block, unit)
        samples = encoding.alpha0 * d * quad.real
    else:
        # BlockEncoding checked the unitary once; the probes are unit.
        w = np.asarray(encoding.unitary, dtype=np.complex128)
        samples = np.empty(probes)
        for j in range(probes):
            state = np.zeros(total, dtype=np.complex128)
            state[:d] = unit[j]
            value = _interference(w, state, shots,
                                  int(rng.integers(0, 2**62)))
            samples[j] = encoding.alpha0 * d * value
    estimate = float(samples.mean())
    std_error = float(samples.std(ddof=1) / math.sqrt(probes))
    return TraceEstimate(value=estimate, std_error=std_error, probes=probes)


def phase_resolution(m_bits: int, t: float) -> float:
    """Eigenvalue width of one register bin: 2 pi / (2^m t)."""
    if not (1 <= m_bits <= 8):
        raise ValueError(f"m_bits must be in 1..8, got {m_bits}")
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    return 2.0 * math.pi / ((1 << m_bits) * t)


def phase_estimate_dilation(A, m_bits: int, t: float, state=None,
                            seed: int | None = None) -> float:
    """Dominant dilation eigenvalue by phase estimation on exp(-i t H).

    H is the Hermitian dilation of A, so the read-out targets +/- the
    singular values of A.  The m-bit register is never materialised: the
    time series U^j |psi> is assembled iteratively and the inverse QFT is
    an FFT across it.  Requires t ||A||_2 < pi; a dominant boundary bin
    (phase 1/2) raises :class:`PhaseWrapError` advising a smaller t.
    Decoded eigenvalues are signed; resolution is 2 pi / (2^m t).
    """
    mat = np.asarray(spectral._checked_matrix(A, "A", square=False),
                     dtype=np.complex128)
    phase_resolution(m_bits, t)  # validates m_bits and t
    top = float(np.linalg.svd(mat, compute_uv=False)[0])
    if t * top >= math.pi:
        raise PhaseWrapError(
            f"t * ||A|| = {t * top:.6g} >= pi aliases the spectrum; "
            f"choose t < {math.pi / top:.6g}")
    rows, cols = mat.shape
    dim = rows + cols
    h = np.zeros((dim, dim), dtype=np.complex128)
    h[:rows, rows:] = mat
    h[rows:, :rows] = mat.conj().T
    if state is not None:
        psi = _as_state(state, "state")
        if psi.size != dim:
            raise ValueError(
                f"state dimension {psi.size} does not match dilation "
                f"dimension {dim}")
    else:
        if seed is None:
            raise ValueError("either an initial state or a seed is required")
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi = raw / np.linalg.norm(raw)

    step = spectral.mat_exp(-1j * t * h)
    n_bins = 1 << m_bits
    series = np.empty((n_bins, dim), dtype=np.complex128)
    current = psi
    for j in range(n_bins):
        series[j] = current
        current = step @ current
    amplitudes = np.fft.fft(series, axis=0) / n_bins
    probabilities = np.abs(amplitudes) ** 2
    per_bin = probabilities.sum(axis=1)
    dominant = int(np.argmax(per_bin))
    if dominant == n_bins // 2:
        raise PhaseWrapError(
            "dominant phase sits on the wrap-around bin; reduce t")
    phase = dominant / n_bins
    if phase > 0.5:
        phase -= 1.0
    return -2.0 * math.pi * phase / t
