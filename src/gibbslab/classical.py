"""Classical field measure: Gaussian sampling, reweighting, moments.

The free measure draws each mode coefficient alpha_j as an independent
centered complex Gaussian with E|alpha_j|^2 = 1/lambda_j. The interacting
measure reweights those samples by exp(-F_NL), where F_NL is the (quartic,
nonnegative) pair-interaction energy of the field u = sum_j alpha_j u_j.
Because 0 < exp(-F_NL) <= 1 in the defocusing case, plain importance
sampling is stable at desk scale; the effective sample size is tracked so
weight degeneracy cannot pass silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import symspace
from .kernels import occupation_products
from .spectral import InteractionKernel, SpectralBasis, TwoBodyTensor, \
    interaction_elements

__all__ = [
    "WeightedEnsemble",
    "MomentMatrix",
    "MeanInteraction",
    "ClassicalFreeEnergy",
    "sample_free",
    "f_nl_batch",
    "reweight",
    "moment_matrix",
    "moment_matrix_blocks",
    "free_moments",
    "mean_F_NL_free",
    "classical_relative_free_energy",
    "ensemble_to_csv",
    "moments_to_csv",
]

_CHUNK = 8192


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
        w = np.exp(self.log_weights - self.log_weights.max())
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

    The generator is seeded with the first child of numpy's
    SeedSequence(seed), so a fixed seed fixes the ensemble bit for bit.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    K = basis.K
    scale = np.sqrt(0.5 / basis.eigenvalues)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    z = rng.standard_normal((n_samples, 2 * K))
    coeffs = (z[:, :K] + 1j * z[:, K:]) * scale
    return WeightedEnsemble(coeffs=coeffs, log_weights=np.zeros(n_samples),
                            z_r=1.0, z_r_stderr=0.0, ess=float(n_samples))


def f_nl_batch(coeffs: np.ndarray, basis: SpectralBasis,
               kernel: InteractionKernel,
               tensor: TwoBodyTensor | None = None) -> np.ndarray:
    """F_NL for every sample row, via the two-body tensor contraction.

    Equals the grid quadrature (1/2) iint |u(x)|^2 w(x-y) |u(y)|^2 dx dy
    (the tensor entries come from the same quadrature), but costs O(K^4) per
    sample instead of a grid pass, which is what makes reweighting 1e5
    samples cheap.
    """
    if tensor is None:
        tensor = interaction_elements(basis, kernel)
    K = basis.K
    Wm = tensor.entries.reshape(K * K, K * K)
    n = coeffs.shape[0]
    out = np.empty(n)
    for lo in range(0, n, _CHUNK):
        c = coeffs[lo:lo + _CHUNK]
        B = np.einsum("si,sj->sij", c, c).reshape(c.shape[0], K * K)
        out[lo:lo + _CHUNK] = 0.5 * np.real(
            np.einsum("sa,sa->s", B.conj() @ Wm, B))
    return out


def reweight(ensemble: WeightedEnsemble, basis: SpectralBasis,
             kernel: InteractionKernel,
             tensor: TwoBodyTensor | None = None) -> WeightedEnsemble:
    """Attach the interaction weights exp(-F_NL) to a free ensemble.

    z_r is the plain mean of the weights (its standard error by the usual
    sample-variance formula) and ess = (sum w)^2 / sum w^2.
    """
    F = f_nl_batch(ensemble.coeffs, basis, kernel, tensor)
    if np.any(F < -1e-10):
        raise ValueError("negative interaction energy: kernel is not defocusing")
    F = np.clip(F, 0.0, None)
    w = np.exp(-F)
    n = ensemble.n
    z = float(w.mean())
    stderr = float(w.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    ess = float(w.sum() ** 2 / np.sum(w**2))
    return replace(ensemble, log_weights=-F, z_r=z, z_r_stderr=stderr,
                   ess=ess, reweighted=True)


def _sym_products(coeffs: np.ndarray, k: int) -> np.ndarray:
    """Components sqrt(k!/prod m_j!) prod_j alpha_j^{m_j} of each sample's
    k-fold tensor power, shape (n, sym_dim(K, k)).

    The amplitudes of sector k come from the graded index set 0..k, and the
    multinomial normalizer is sqrt(k!) times theirs.
    """
    graded, offsets = symspace.graded_indices(coeffs.shape[1], k)
    A = occupation_products(coeffs, graded)[offsets[k]:]
    return (A * math.sqrt(math.factorial(k))).T


def _checked_sym_dim(ensemble: WeightedEnsemble, k: int) -> int:
    """dim Sym^k(C^K), refused when the moment pass would be too large."""
    if k < 1:
        raise ValueError("moment order k must be >= 1")
    D = symspace.sym_dim(ensemble.K, k)
    if D > 5000 or ensemble.n * D > 4e8:
        raise ValueError(f"symmetric space dim {D} too large for the memory budget")
    return D


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
    D = _checked_sym_dim(ensemble, k)
    occs = symspace.multi_indices(ensemble.K, k)
    wt = ensemble.normalized_weights()
    M = np.zeros((D, D), dtype=np.complex128)
    acc_w2x = np.zeros((D, D), dtype=np.complex128)
    acc_w2absx = np.zeros((D, D))
    acc_w2 = 0.0
    for lo in range(0, ensemble.n, _CHUNK):
        S = _sym_products(ensemble.coeffs[lo:lo + _CHUNK], k)
        wc = wt[lo:lo + _CHUNK]
        M += (S * wc[:, None]).T @ S.conj()
        if with_stderr:
            w2 = wc**2
            acc_w2x += (S * w2[:, None]).T @ S.conj()
            S2 = np.abs(S) ** 2
            acc_w2absx += (S2 * w2[:, None]).T @ S2
            acc_w2 += float(w2.sum())
    M = 0.5 * (M + M.conj().T)
    result = MomentMatrix(k=k, entries=M, occupations=occs)
    if not with_stderr:
        return result
    var = acc_w2absx - 2.0 * np.real(np.conj(M) * acc_w2x) + np.abs(M) ** 2 * acc_w2
    stderr = np.sqrt(np.clip(var, 0.0, None))
    return result, stderr


def moment_matrix_blocks(ensemble: WeightedEnsemble, k: int,
                         n_blocks: int = 50):
    """The moment matrix and its per-block estimates, in one pass.

    Each block is `moment_matrix` of a contiguous slice, self-normalized on
    its own samples; the spread of a statistic across blocks gives its
    batch-means standard error. The full matrix is the mean of the blocks
    weighted by their share of the total weight, which is the self-normalized
    estimate over the whole ensemble. Returns (MomentMatrix, list of block
    entries); a fixed seed fixes the blocks too.
    """
    if n_blocks < 2 or n_blocks > ensemble.n:
        raise ValueError("need 2 <= n_blocks <= n_samples")
    _checked_sym_dim(ensemble, k)
    w = np.exp(ensemble.log_weights - ensemble.log_weights.max())
    bounds = np.linspace(0, ensemble.n, n_blocks + 1).astype(int)
    blocks = [moment_matrix(replace(ensemble, coeffs=ensemble.coeffs[lo:hi],
                                    log_weights=ensemble.log_weights[lo:hi]),
                            k)
              for lo, hi in zip(bounds[:-1], bounds[1:])]
    shares = np.add.reduceat(w, bounds[:-1]) / w.sum()
    full = sum(s * b.entries for s, b in zip(shares, blocks))
    return replace(blocks[0], entries=full), [b.entries for b in blocks]


def free_moments(eigenvalues: np.ndarray, k: int) -> MomentMatrix:
    """Exact k-th moment matrix of the free Gaussian measure.

    Independent mode coefficients make it diagonal in the occupation basis,
    with entries k! * prod_j lambda_j^{-n_j}.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    occs = symspace.multi_indices(eigenvalues.size, k)
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


def mean_F_NL_free(basis: SpectralBasis, kernel: InteractionKernel,
                   n_samples: int = 20000, seed: int = 0,
                   tensor: TwoBodyTensor | None = None) -> MeanInteraction:
    """E_{mu_0}[F_NL] two ways: sampling, and the Wick closed form.

    Wick's theorem on the independent Gaussian coefficients gives
    E[conj(a_i a_j) a_k a_l] = (d_ik d_jl + d_il d_jk)/(lambda_i lambda_j),
    hence the closed form (1/2) sum_ij (W_ijij + W_ijji)/(lambda_i lambda_j),
    which is (1/2) tr over Sym^2 of the kernel against the free second moment.
    """
    if tensor is None:
        tensor = interaction_elements(basis, kernel)
    lam = basis.eigenvalues
    W = np.real(tensor.entries)
    inv = 1.0 / np.outer(lam, lam)
    closed = 0.5 * float(np.sum((np.einsum("ijij->ij", W)
                                 + np.einsum("ijji->ij", W)) * inv))
    ens = sample_free(basis, n_samples, seed)
    F = f_nl_batch(ens.coeffs, basis, kernel, tensor)
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
