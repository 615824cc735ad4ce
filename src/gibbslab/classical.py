"""Classical field measure: Gaussian sampling, reweighting, moments.

The free measure draws each mode coefficient alpha_j as an independent
centered complex Gaussian with E|alpha_j|^2 = 1/lambda_j. The interacting
measure reweights those samples by exp(-F_NL), where F_NL is the (quartic,
nonnegative) pair-interaction energy of the field u = sum_j alpha_j u_j,
contracted on Sym^2 with the same pair matrix as the quantum pair energy.
Because 0 < exp(-F_NL) <= 1 in the defocusing case, plain importance
sampling is stable at desk scale; the effective sample size is tracked so
weight degeneracy cannot pass silently.

Moments and F_NL read the raw amplitudes A_k of one occupation_products
pass per chunk, whose sector k is the Sym^k component of the sample's
tensor power up to the factor sqrt(k!). Each moment order takes one
Hermitian rank update per chunk (BLAS zherk on sqrt(w) A_k, scaled in
place); k! is applied once to the finished matrix, which is filled from one
triangle and so is exactly Hermitian.

The F_NL chunks and the batch-means blocks of moment_matrix_blocks run on
a pool of one thread per CPU the process may use (kernels._workers, the
pool size of the Gibbs solve, fock._gibbs_sectors). The calling thread
builds the pass's one parent table (kernels.Recurrence); the workers call
private routes only, and reach zherk through kernels._zherk, which
releases the GIL. Each chunk and each block is computed as on one thread
and the blocks are summed in order, so every bit is independent of the
pool size.

sample_free, reweight and the moment functions hold the whole ensemble,
for `gibbslab sample` and the self-checks. The sweep streams it instead,
one batch-means block at a time (sample_measure), keeping only F_NL and
the rows the trial state reads; it shares their routines, and so their
bits.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.blas import dsyrk

from .kernels import Recurrence, _products, _workers, _zherk
# perfbench/tests/test_tracer.py checks that the tracer rebinds this name here
from .kernels import occupation_products  # noqa: F401
from .spectral import SpectralBasis, TwoBodyTensor

__all__ = [
    "WeightedEnsemble",
    "MomentMatrix",
    "MeanInteraction",
    "ClassicalFreeEnergy",
    "MeasureSample",
    "sample_free",
    "f_nl_batch",
    "reweight",
    "moment_matrix",
    "moment_matrices",
    "moment_matrix_blocks",
    "sample_measure",
    "free_moments",
    "mean_F_NL_free",
    "classical_relative_free_energy",
    "ensemble_to_csv",
    "moments_to_csv",
]

_CHUNK = 8192
N_BLOCKS = 50  # batch-means blocks of the sweep's moment standard errors
DEGENERATE_ESS = 0.05  # ESS share below which a weighted sample is degenerate


@dataclass(frozen=True)
class WeightedEnsemble:
    """Monte Carlo samples of the free measure with log-weights -F_NL.

    coeffs has one row per sample. For a freshly drawn free ensemble the
    log-weights are identically zero and z_r = 1; `reweight` fills them in.
    """

    coeffs: np.ndarray
    log_weights: np.ndarray
    z_r: float
    z_r_stderr: float
    ess: float
    reweighted: bool = False

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]

    @property
    def K(self) -> int:
        return self.coeffs.shape[1]

    def normalized_weights(self) -> np.ndarray:
        return _normalized(self.log_weights)


def _normalized(log_weights: np.ndarray) -> np.ndarray:
    """The weights exp(log_weights), scaled to sum to 1."""
    w = np.exp(log_weights - log_weights.max())
    return w / w.sum()


@dataclass(frozen=True)
class MomentMatrix:
    """Hermitian moment matrix on Sym^k(C^K) in the occupation basis."""

    k: int
    entries: np.ndarray
    occupations: np.ndarray

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return float(np.real(np.trace(self.entries)))


def sample_free(basis: SpectralBasis, n_samples: int,
                seed: int) -> WeightedEnsemble:
    """Draw independent mode coefficients from the free Gaussian measure.

    The rows are the first n_samples of the free stream of seed
    (_free_stream), drawn into the one coefficient array, so a fixed seed
    fixes the ensemble bit for bit.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    coeffs = np.empty((n_samples, basis.K), dtype=np.complex128)
    _free_stream(basis, seed)(coeffs)
    return WeightedEnsemble(coeffs=coeffs, log_weights=np.zeros(n_samples),
                            z_r=1.0, z_r_stderr=0.0, ess=float(n_samples))


def _free_stream(basis: SpectralBasis, seed: int):
    """fill(out) writes the next rows of the free coefficient stream of seed
    into out, a complex128 (m, K) array.

    The generator is seeded with the first child of numpy's
    SeedSequence(seed). The normals are drawn _CHUNK rows at a time, each
    half scaled straight into the real or the imaginary slots of out's float
    view. Each row reads its 2K normals in turn, so the rows of any cut of
    the stream into fills are those of a single (rows, 2K) draw.
    """
    scale = np.sqrt(0.5 / basis.eigenvalues)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])

    def fill(out: np.ndarray) -> None:
        K = out.shape[1]
        # the float view of out interleaves real and imaginary parts
        parts = out.view(np.float64)
        for lo in range(0, out.shape[0], _CHUNK):
            z = rng.standard_normal((min(_CHUNK, out.shape[0] - lo), 2 * K))
            np.multiply(z[:, :K], scale, out=parts[lo:lo + _CHUNK, 0::2])
            np.multiply(z[:, K:], scale, out=parts[lo:lo + _CHUNK, 1::2])

    return fill


def f_nl_batch(coeffs: np.ndarray, tensor: TwoBodyTensor) -> np.ndarray:
    """F_NL = (1/2) Re <S_2, W_2 S_2> = Re <A_2, W_2 A_2> for every sample row.

    S_2 = sqrt(2) A_2 holds the Sym^2 components of alpha (x) alpha, A_2
    being sector 2 of the moment matrices' amplitude pass (`_amplitudes`),
    and W_2 is the pair matrix (`TwoBodyTensor.pair_matrix`) that the
    quantum pair energy uses. The tensor entries come from the grid
    quadrature, so F equals (1/2) iint |u(x)|^2 w(x-y) |u(y)|^2 dx dy.
    The _CHUNK-row chunks run on the pool over one parent table, each cut
    where one thread cuts it.
    """
    W2 = tensor.pair_matrix()
    rec = Recurrence.graded(coeffs.shape[1], 2)
    out = np.empty(coeffs.shape[0])
    _on_pool(_f_nl_rows, [(coeffs[lo:lo + _CHUNK], W2, rec,
                           out[lo:lo + _CHUNK])
                          for lo in range(0, coeffs.shape[0], _CHUNK)])
    return out


def _f_nl_rows(rows: np.ndarray, W2: np.ndarray, rec: Recurrence,
               out: np.ndarray, buf: np.ndarray | None = None):
    """out = F_NL of each row, one amplitude pass per _CHUNK rows, written
    into buf (see _amplitudes). Each column is computed on its own, so the
    bits do not depend on the cut."""
    for lo, A in _amplitudes(rows, rec, buf):
        # the real W_2 acts alike on the real and imaginary parts, which the
        # float view of A_2 interleaves sample by sample
        X = A[2].view(np.float64)
        out[lo:lo + _CHUNK] = \
            np.einsum("pj,pj->j", X, W2 @ X).reshape(-1, 2).sum(axis=1)


def _on_pool(fn, tasks: list) -> list:
    """[fn(*task) for task in tasks], in order, on a pool of _workers()
    threads that is shut down before it returns. fn must call private
    routes only."""
    with ThreadPoolExecutor(_workers()) as pool:
        return list(pool.map(lambda task: fn(*task), tasks))


def reweight(ensemble: WeightedEnsemble,
             tensor: TwoBodyTensor) -> WeightedEnsemble:
    """Attach the interaction weights exp(-F_NL) to a free ensemble.

    z_r is the plain mean of the weights (its standard error by the usual
    sample-variance formula) and ess = (sum w)^2 / sum w^2, read from the
    weights scaled so that the largest is 1 (_weight_statistics).
    """
    F = _defocusing(f_nl_batch(ensemble.coeffs, tensor))
    _refuse_underflow(F)
    z, stderr, ess = _weight_statistics(F)
    return replace(ensemble, log_weights=-F, z_r=z, z_r_stderr=stderr,
                   ess=ess, reweighted=True)


def _defocusing(F: np.ndarray) -> np.ndarray:
    """F_NL values clipped at 0 in place, refused when one is below -1e-10.
    Private, so pool workers may call it."""
    if np.any(F < -1e-10):
        raise ValueError("negative interaction energy: kernel is not defocusing")
    return np.clip(F, 0.0, None, out=F)


def _refuse_underflow(F: np.ndarray) -> None:
    """Refuse clipped F_NL values whose weights exp(-F) all underflow to
    0: Z_r would be 0."""
    if not np.exp(-F).any():
        raise ValueError(f"every weight exp(-F_NL) underflows to 0 (smallest "
                         f"F_NL {F.min():.6g}); the interaction is too strong")


def _weight_statistics(F: np.ndarray) -> tuple:
    """(z_r, z_r_stderr, ess) of the weights w = exp(-F) of clipped F_NL
    values: the plain mean of w, its standard error by the usual
    sample-variance formula, and the ESS (sum v)^2 / sum v^2 of
    v = exp(-(F - min F)), which is w scaled so that its largest entry is
    1. The ESS does not depend on that scale, but the scaled sums cannot
    underflow to 0/0 where every w is below about 1e-162."""
    n = F.size
    w = np.exp(-F)
    z = float(w.mean())
    stderr = float(w.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    # v overwrites w: one array of n weights is held
    v = np.exp(np.subtract(F.min(), F, out=w), out=w)
    total = v.sum()
    ess = float(total ** 2 / np.square(v, out=v).sum())
    return z, stderr, ess


def _amplitudes(coeffs: np.ndarray, rec: Recurrence,
                buf: np.ndarray | None = None):
    """Per _CHUNK rows of coeffs, yield (first row, [A_0, ..., A_k_max]).

    rec is Recurrence.graded(K, k_max), the pass's one parent table, built
    on the calling thread and read by every chunk and worker. A_k is sector
    k of one occupation_products pass over the graded index set 0..k_max,
    a row-contiguous view of shape (dim Sym^k, rows) whose column s
    holds prod_j alpha_j^{m_j} / sqrt(m_j!) for sample s. Each amplitude is its
    parent's times one factor, so A_k is bitwise the same for every
    k_max >= k. The Sym^k components of the sample's k-fold tensor power
    are sqrt(k!) A_k.

    Every chunk, the short last one included, is written into a
    contiguous prefix of buf, a flat complex128 array of at least
    dim(rec) * min(_CHUNK, rows) entries; without one, the call allocates
    one of that size. A consumer may scale the views in place but must be
    done with them before it asks for the next chunk.
    """
    offsets = rec.offsets
    D = int(offsets[-1])
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if buf is None:
        buf = np.empty(D * min(_CHUNK, coeffs.shape[0]), dtype=np.complex128)
    for lo in range(0, coeffs.shape[0], _CHUNK):
        rows = coeffs[lo:lo + _CHUNK]
        out = buf[:D * rows.shape[0]].reshape(D, rows.shape[0])
        A = _products(rows, rec, None, out)
        yield lo, [A[offsets[k]:offsets[k + 1]]
                   for k in range(offsets.size - 1)]


def _hermitian(C: np.ndarray, scale: float) -> np.ndarray:
    """scale * M, filled from the upper triangle of C = conj(M).

    That is what a rank update zherk(a = A.T, trans=2) leaves for
    M = A A^H (dsyrk for real A); mirroring one triangle makes the result
    exactly Hermitian with a real diagonal.
    """
    upper = np.triu(C, 1).conj() * scale
    return np.ascontiguousarray(
        upper + upper.conj().T + np.diag(C.diagonal().real * scale))


def _checked_graded(K: int, n: int, k_max: int) -> Recurrence:
    """Recurrence.graded(K, k_max) of a moment pass up to order k_max over
    n samples, refused when dim Sym^k_max(C^K) is too large for the memory
    budget: it grows with k and is checked first, so an over-budget pass
    builds no table or amplitude."""
    if k_max < 1:
        raise ValueError("moment order k must be >= 1")
    D = math.comb(K + k_max - 1, k_max)
    if D > 5000 or n * D > 4e8:
        raise ValueError(f"symmetric space dim {D} too large for the memory budget")
    return Recurrence.graded(K, k_max)


def _moments(coeffs: np.ndarray, log_weights: np.ndarray, orders,
             rec: Recurrence, with_stderr: bool = False,
             buf: np.ndarray | None = None):
    """Self-normalized moment matrices of the given orders of the samples
    coeffs with log_weights, one chunk loop over the amplitudes of rec
    (_checked_graded of the top order), written into buf (see _amplitudes).

    Per chunk and order, A_k is scaled in place by sqrt(w) and enters one
    Hermitian rank update; k! is applied to the finished sums. Returns the
    list of MomentMatrix, and with with_stderr also the list of their
    standard errors (see `moment_matrix`), whose sums of w^2 A_k A_k^H and
    of w^2 |A_k|^2 (|A_k|^2)^T ride along in the same loop. It calls
    private routes only, so pool workers may run it.
    """
    wt = _normalized(log_weights)
    dims = [rec.sector(k).shape[0] for k in orders]
    # Fortran order lets zherk and dsyrk update the sums in place
    M = [np.zeros((D, D), dtype=np.complex128, order="F") for D in dims]
    X = [np.zeros_like(Mk) if with_stderr else None for Mk in M]
    Q = [np.zeros((D, D), order="F") if with_stderr else None for D in dims]
    acc_w2 = 0.0
    for lo, A in _amplitudes(coeffs, rec, buf):
        wc = wt[lo:lo + _CHUNK]
        root = np.sqrt(wc)
        for k, Mk, Xk, Qk in zip(orders, M, X, Q):
            a = A[k]
            a *= root
            _zherk(a, Mk)
            if with_stderr:
                r = a.real**2 + a.imag**2
                dsyrk(1.0, r.T, beta=1.0, c=Qk, trans=1, overwrite_c=1)
                a *= root
                _zherk(a, Xk)
        if with_stderr:
            acc_w2 += float(np.sum(wc**2))
    facts = [float(math.factorial(k)) for k in orders]
    moments = [MomentMatrix(k=k, entries=_hermitian(Mk, f),
                            occupations=rec.sector(k))
               for k, Mk, f in zip(orders, M, facts)]
    if not with_stderr:
        return moments
    stderr = []
    for m, Xk, Qk, f in zip(moments, X, Q, facts):
        var = _hermitian(Qk, f * f) \
            - 2.0 * np.real(np.conj(m.entries) * _hermitian(Xk, f)) \
            + np.abs(m.entries) ** 2 * acc_w2
        stderr.append(np.sqrt(np.clip(var, 0.0, None)))
    return moments, stderr


def moment_matrix(ensemble: WeightedEnsemble, k: int,
                  with_stderr: bool = False):
    """Weighted k-th moment matrix of the sampled measure.

    Self-normalized average of the projectors onto the symmetrized k-fold
    tensor power of each sample, in the occupation basis: entry (m, n) is
    E_mu[S_m(alpha) conj(S_n(alpha))] with S_m = sqrt(k!/prod m_j!) *
    prod alpha_j^{m_j}. Hermitian PSD by construction.

    With with_stderr=True also returns the elementwise standard error of the
    complex entries, sqrt(sum_s w_s^2 |X_s - M|^2) with normalized weights
    (the delta-method variance of a self-normalized estimator).
    """
    rec = _checked_graded(ensemble.K, ensemble.n, k)
    args = (ensemble.coeffs, ensemble.log_weights, (k,), rec)
    if not with_stderr:
        return _moments(*args)[0]
    (moment,), (stderr,) = _moments(*args, with_stderr=True)
    return moment, stderr


def moment_matrices(ensemble: WeightedEnsemble, k_max: int) -> dict:
    """{k: moment_matrix(ensemble, k)} for k = 1..k_max, bitwise, from one
    amplitude pass per chunk."""
    orders = range(1, k_max + 1)
    rec = _checked_graded(ensemble.K, ensemble.n, k_max)
    return dict(zip(orders, _moments(ensemble.coeffs, ensemble.log_weights,
                                     orders, rec)))


def moment_matrix_blocks(ensemble: WeightedEnsemble, k_max: int,
                         n_blocks: int = N_BLOCKS) -> dict:
    """Moment matrices of orders 1..k_max and their per-block estimates.

    Each block is `moment_matrices` of a contiguous slice, self-normalized
    on its own samples, so one amplitude pass per chunk serves every order;
    the spread of a statistic across blocks gives its batch-means standard
    error. The full matrix is the mean of the blocks weighted by their share
    of the total weight, which is the self-normalized estimate over the
    whole ensemble. Returns {k: (MomentMatrix, list of block entries)}; a
    fixed seed fixes the blocks too.

    The blocks run on the pool, one amplitude buffer per worker, over one
    parent table; they are summed in order, so the bits do not depend on
    the pool size.
    """
    if n_blocks < 2 or n_blocks > ensemble.n:
        raise ValueError("need 2 <= n_blocks <= n_samples")
    rec = _checked_graded(ensemble.K, ensemble.n, k_max)
    orders = range(1, k_max + 1)
    lw = ensemble.log_weights
    bounds = _block_bounds(ensemble.n, n_blocks)
    per_block = _on_pool(_moments, [(ensemble.coeffs[lo:hi], lw[lo:hi],
                                     orders, rec)
                                    for lo, hi in zip(bounds[:-1], bounds[1:])])
    return _combine_blocks(lw, bounds, per_block, orders)


def _block_bounds(n: int, n_blocks: int) -> np.ndarray:
    """Edges of n_blocks contiguous batch-means blocks of n samples."""
    return np.linspace(0, n, n_blocks + 1).astype(int)


def _combine_blocks(log_weights: np.ndarray, bounds: np.ndarray,
                    per_block: list, orders) -> dict:
    """{k: (MomentMatrix, list of block entries)} of the blocks' moment
    matrices per_block: each full matrix is the blocks' mean weighted by
    their share of the total weight exp(log_weights), summed in order."""
    w = log_weights - log_weights.max()
    np.exp(w, out=w)
    shares = np.add.reduceat(w, bounds[:-1]) / w.sum()
    out = {}
    for i, k in enumerate(orders):
        blocks = [b[i].entries for b in per_block]
        full = sum(s * b for s, b in zip(shares, blocks))
        out[k] = (replace(per_block[0][i], entries=full), blocks)
    return out


@dataclass(frozen=True)
class MeasureSample:
    """What one streamed pass over the interacting measure keeps.

    head is the reweighted ensemble of the first rows the pass kept, whose
    own z_r, stderr and ess describe those rows only (None when it kept
    none). z_r, z_r_stderr and ess are those of the whole ensemble, and
    moments is {k: (MomentMatrix, list of block entries)} as
    moment_matrix_blocks returns it (empty when no order was asked for).
    """

    head: WeightedEnsemble | None
    z_r: float
    z_r_stderr: float
    ess: float
    moments: dict


def sample_measure(basis: SpectralBasis, tensor: TwoBodyTensor,
                   n_samples: int, seed: int, k_max: int, keep: int,
                   n_blocks: int = N_BLOCKS) -> MeasureSample:
    """moment_matrix_blocks(reweight(sample_free(basis, n_samples, seed),
    tensor), k_max, n_blocks), bitwise, without holding the ensemble.

    The calling thread draws the blocks in turn from the free stream of
    sample_free and keeps their rows below keep; the pool computes each
    block's F_NL and its moment matrices of orders 1..k_max (none for
    k_max = 0), at most two blocks in flight, so at most two blocks of
    coefficients are held. Each block is cut and normalized as
    moment_matrix_blocks cuts it. The pass allocates one amplitude buffer
    per pool thread (at most two) before the first block, sized for the
    larger of the F_NL and moment recurrences and one chunk of the longest
    block, and block b writes every chunk of both passes into buffer
    b % threads: block b is drawn only once block b - 2 is collected, and
    a pool of one thread runs the blocks in turn. So no block allocates
    amplitudes of its own, and the buffers are dropped before the blocks
    are combined. A block with a negative F_NL is refused,
    as reweight refuses it, when it is collected: no later block is drawn.
    Only F_NL is kept, 8 bytes per sample; after the last block the
    weights, their statistics (and the underflow refusal, which reads every
    weight) and the block shares come from it by the routines of reweight
    and moment_matrix_blocks.
    """
    if n_blocks < 2 or n_blocks > n_samples:
        raise ValueError("need 2 <= n_blocks <= n_samples")
    if not 0 <= keep <= n_samples:
        raise ValueError("keep must lie in 0..n_samples")
    K = basis.K
    F = np.empty(n_samples)
    head = np.empty((keep, K), dtype=np.complex128)
    orders = range(1, k_max + 1)
    m_rec = _checked_graded(K, n_samples, k_max) if k_max else None
    W2, f_rec = tensor.pair_matrix(), Recurrence.graded(K, 2)
    fill = _free_stream(basis, seed)
    bounds = _block_bounds(n_samples, n_blocks)
    threads = min(2, _workers())
    D = max(rec.offsets[-1] for rec in (f_rec, m_rec) if rec is not None)
    size = int(D) * min(_CHUNK, int(np.diff(bounds).max()))
    slots = [np.empty(size, dtype=np.complex128) for _ in range(threads)]
    per_block, pending = [], deque()
    with ThreadPoolExecutor(threads) as pool:
        for b, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            if len(pending) == 2:
                per_block.append(pending.popleft().result())
            rows = np.empty((hi - lo, K), dtype=np.complex128)
            fill(rows)
            if lo < keep:
                head[lo:hi] = rows[:keep - lo]
            pending.append(pool.submit(_measure_block, rows, W2, f_rec,
                                       m_rec, orders, F[lo:hi],
                                       slots[b % threads]))
        per_block += [task.result() for task in pending]
    del slots, rows
    _refuse_underflow(F)
    held = None if keep == 0 else WeightedEnsemble(
        head, -F[:keep], *_weight_statistics(F[:keep]), reweighted=True)
    stats = _weight_statistics(F)
    # F turns into the log-weights in place: one array of n samples is held
    lw = np.negative(F, out=F)
    return MeasureSample(held, *stats,
                         _combine_blocks(lw, bounds, per_block, orders))


def _measure_block(rows: np.ndarray, W2: np.ndarray, f_rec: Recurrence,
                   m_rec: Recurrence | None, orders, F: np.ndarray,
                   buf: np.ndarray) -> list:
    """F = the clipped F_NL of one block's rows, then the block's moment
    matrices of orders over m_rec, both passes writing their amplitudes
    into buf. Private routes only, for the pool."""
    _f_nl_rows(rows, W2, f_rec, F, buf)
    _defocusing(F)
    return _moments(rows, -F, orders, m_rec, buf=buf) if orders else []


def free_moments(eigenvalues: np.ndarray, k: int) -> MomentMatrix:
    """Exact k-th moment matrix of the free Gaussian measure.

    Independent mode coefficients make it diagonal in the occupation basis,
    with entries k! * prod_j lambda_j^{-n_j}.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    occs = Recurrence.graded(eigenvalues.size, k).sector(k)
    diag = np.array([math.factorial(k) * np.prod(eigenvalues ** -row)
                     for row in occs])
    return MomentMatrix(k=k, entries=np.diag(diag).astype(np.complex128),
                        occupations=occs)


@dataclass(frozen=True)
class MeanInteraction:
    """Monte Carlo mean of F_NL under the free measure vs its closed form."""

    mc_value: float
    mc_stderr: float
    closed_form: float


def mean_F_NL_free(basis: SpectralBasis, tensor: TwoBodyTensor,
                   n_samples: int = 20000, seed: int = 0) -> MeanInteraction:
    """E_{mu_0}[F_NL] two ways: sampling, and the Wick closed form.

    Wick's theorem on the independent Gaussian coefficients gives
    E[conj(a_i a_j) a_k a_l] = (d_ik d_jl + d_il d_jk)/(lambda_i lambda_j),
    hence the closed form (1/2) sum_ij (W_ijij + W_ijji)/(lambda_i lambda_j),
    which is (1/2) tr over Sym^2 of the kernel against the free second moment.
    It reads the raw entries, independently of the Sym^2 route of f_nl_batch.
    """
    lam = basis.eigenvalues
    W = tensor.entries
    inv = 1.0 / np.outer(lam, lam)
    closed = 0.5 * float(np.sum((np.einsum("ijij->ij", W)
                                 + np.einsum("ijji->ij", W)) * inv))
    ens = sample_free(basis, n_samples, seed)
    F = f_nl_batch(ens.coeffs, tensor)
    return MeanInteraction(mc_value=float(F.mean()),
                           mc_stderr=float(F.std(ddof=1) / math.sqrt(n_samples)),
                           closed_form=closed)


@dataclass(frozen=True)
class ClassicalFreeEnergy:
    """-log Z_r with its diagnostic energy/entropy decomposition."""

    value: float
    stderr: float
    mean_interaction: float
    entropy_term: float


def classical_relative_free_energy(ensemble: WeightedEnsemble) -> ClassicalFreeEnergy:
    """Relative free energy of the reweighted measure.

    The density exp(-F_NL)/Z_r collapses energy plus relative entropy to
    -log Z_r exactly; both terms are still reported separately from weighted
    averages as a diagnostic.
    """
    if not ensemble.reweighted:
        raise ValueError("ensemble has not been reweighted")
    wt = ensemble.normalized_weights()
    F = -ensemble.log_weights
    mean_F = float(np.sum(wt * F))
    log_z = math.log(ensemble.z_r)
    entropy = float(np.sum(wt * (ensemble.log_weights - log_z)))
    return ClassicalFreeEnergy(value=-log_z,
                               stderr=ensemble.z_r_stderr / ensemble.z_r,
                               mean_interaction=mean_F,
                               entropy_term=entropy)


def ensemble_to_csv(ensemble: WeightedEnsemble, path) -> None:
    """Per-sample summary: index, |alpha_j|^2 per mode, log-weight."""
    with open(path, "w", encoding="utf-8") as fh:
        cols = ",".join(f"abs2_{j + 1}" for j in range(ensemble.K))
        fh.write(f"sample,{cols},log_weight\n")
        occ = np.abs(ensemble.coeffs) ** 2
        for s in range(ensemble.n):
            vals = ",".join(f"{v:.17g}" for v in occ[s])
            fh.write(f"{s},{vals},{ensemble.log_weights[s]:.17g}\n")


def moments_to_csv(moment: MomentMatrix, path) -> None:
    """Entries as (row multi-index, col multi-index, real, imag) rows."""
    labels = ["|".join(str(int(x)) for x in row) for row in moment.occupations]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("row_index,col_index,real,imag\n")
        for a, la in enumerate(labels):
            for b, lb in enumerate(labels):
                z = moment.entries[a, b]
                fh.write(f"{la},{lb},{z.real:.17g},{z.imag:.17g}\n")
