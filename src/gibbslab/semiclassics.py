"""Coherent states, trial states, Husimi densities, entropy-gap checks.

A coherent vector over v in C^K has occupation amplitudes
exp(-|v|^2/2) prod_j v_j^{n_j} / sqrt(n_j!); its total particle number is
Poisson(|v|^2), which is what makes the truncation tail computable. Mixing
coherent projectors over field samples gives the variational trial state,
and the diagonal coherent-state matrix elements of any state give its
Husimi density, the computable finite-temperature stand-in for a limiting
phase-space measure.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincc

from .classical import WeightedEnsemble
from .fock import DiagonalState, FockBasis, FockState, relative_entropy
# perfbench/tests/test_tracer.py checks that the tracer rebinds this name here
from .fock import reduced_density_matrix  # noqa: F401
from .kernels import occupation_products

__all__ = [
    "TailWarning",
    "CoherentVector",
    "coherent",
    "coherent_overlap",
    "trial_state",
    "husimi_density",
    "husimi_kl_importance",
    "BLGap",
    "berezin_lieb_gap",
]

_CHUNK = 256
_WINDOW_TAIL = 2.0 ** -60  # Poisson mass a sector window leaves out per side
_WINDOW_REL = 2.0 ** -53   # omitted share of a density that forces the full basis
_TAIL_THRESHOLD = 1e-6  # coherent mass beyond n_max that triggers TailWarning


class TailWarning(UserWarning):
    """Truncation tail of a coherent construction exceeded its threshold."""


@dataclass(frozen=True)
class CoherentVector:
    """Truncated coherent state with its Poisson tail bound."""

    amplitudes: np.ndarray
    tail_bound: float


def coherent(v: np.ndarray, basis: FockBasis) -> CoherentVector:
    """Coherent state over v, truncated at the basis cutoff.

    Warns when the Poisson mass beyond n_max exceeds 1e-6; keeping
    |v|^2 <= n_max / 2 is a comfortable regime.
    """
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if v.size != basis.K:
        raise ValueError("coherent vector length must match the mode count")
    nu = float(np.sum(np.abs(v) ** 2))
    tail = float(gammainc(basis.n_max + 1, nu)) if nu > 0 else 0.0
    if tail > _TAIL_THRESHOLD:
        warnings.warn(f"coherent tail mass {tail:.3e} beyond n_max={basis.n_max}",
                      TailWarning, stacklevel=2)
    amps = occupation_products(v[None, :], basis.occupations,
                               np.exp([-0.5 * nu]))[:, 0]
    return CoherentVector(amplitudes=amps, tail_bound=tail)


def coherent_overlap(a: CoherentVector, b: CoherentVector) -> complex:
    """<xi(a), xi(b)> of the truncated vectors."""
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def _sector_window(nu_lo: float, nu_hi: float, n_top: int) -> tuple[int, int]:
    """Sectors n_lo..n_hi of 0..n_top outside which Poisson(nu) has at most
    2^-60 mass below and at most 2^-60 above, for every nu in [nu_lo, nu_hi].

    n_hi is the first n with P(N > n) <= 2^-60 at nu_hi (n_top if none is),
    and n_lo the last n <= n_hi with P(N < n) <= 2^-60 at nu_lo. The upper
    tail grows with nu and the lower tail shrinks, so the two ends of the
    range bound every nu inside it.
    """
    upper = gammainc(np.arange(1, n_top + 2), nu_hi) <= _WINDOW_TAIL
    n_hi = int(np.argmax(upper)) if upper.any() else n_top
    lower = gammaincc(np.arange(1, n_hi + 1), nu_lo) <= _WINDOW_TAIL
    n_lo = n_hi if lower.all() else int(np.argmin(lower))
    return n_lo, n_hi


def trial_state(ensemble: WeightedEnsemble, T: float, layout: FockState,
                n_subsample: int | None = None) -> FockState:
    """Symmetrized mixture of coherent projectors at vectors sqrt(T) * alpha,
    on the (sector, class) blocks of layout.

    layout is the Gibbs state the trial state is compared with; only its
    blocks' (n, rows) are read. The sampled measure, H_lam and the free state
    are invariant under the global phase alpha -> e^{i theta} alpha, under
    complex conjugation alpha -> conj(alpha) (the modes and W are real) and
    under the reflection x -> -x (the mode parity). Each projector is
    replaced by its exact average over these maps: the phase keeps its
    sector blocks, conjugation their real part and the reflection their
    parity-class blocks, the classes of layout (one per sector when the
    parity fell back, and then nothing is pinched). The average keeps the
    energy and, by joint convexity, cannot raise S(. | free), so the state
    is a variational upper bound no worse than the plain mixture.

    Samples are taken in chunks of 256 in ascending nu = T |alpha|^2. The
    particle number of a coherent vector is Poisson(nu), so a chunk builds
    amplitudes only up to n_hi and updates only the sectors n_lo..n_hi
    outside which every one of its samples has at most 2^-60 mass on
    either side (_sector_window). The mixture without this window differs
    from it by a share eps <= 2^-59 / (1 - tau) of its trace, tau the
    weighted mean coherent tail beyond n_max, so by joint convexity and
    concavity of the entropy S(trial | free) moves by at most
    eps (max|log q| + log(1/eps) + 1), q the free state's diagonal: of
    order 2^-59 max|log q|. The windowed mixture is still a state, so it is
    still an upper bound. A sector that no chunk reaches is exactly zero and
    gets no block.

    The mixture is renormalized to unit trace; n_subsample keeps the first
    n samples (a deterministic, unbiased cut of an iid ensemble) with their
    weights renormalized. Warns when a sample's coherent tail beyond n_max
    exceeds 1e-6.
    """
    if not ensemble.reweighted:
        raise ValueError("trial state needs a reweighted ensemble")
    if n_subsample is not None and n_subsample < 1:
        raise ValueError(f"n_subsample must be a positive sample count, "
                         f"got {n_subsample}")
    basis = layout.basis
    n = ensemble.n if n_subsample is None else min(n_subsample, ensemble.n)
    coeffs = ensemble.coeffs[:n]
    logw = ensemble.log_weights[:n]
    w = np.exp(logw - logw.max())
    w = w / w.sum()
    vs = math.sqrt(T) * coeffs

    nu = np.sum(np.abs(vs) ** 2, axis=1)
    tails = gammainc(basis.n_max + 1, np.clip(nu, 1e-300, None))
    bad = int(np.sum(tails > _TAIL_THRESHOLD))
    if bad:
        warnings.warn(
            f"{bad} of {n} trial-state samples have coherent tail mass above "
            f"{_TAIL_THRESHOLD:.1e} (worst {tails.max():.3e})",
            TailWarning, stacklevel=2)
    gauss = np.exp(-0.5 * nu)

    offsets = basis.sector_offsets
    order = np.argsort(nu, kind="stable")
    chunks = [order[lo:lo + _CHUNK] for lo in range(0, n, _CHUNK)]
    windows = [_sector_window(nu[s[0]], nu[s[-1]], basis.n_max)
               for s in chunks]
    reached = np.zeros(basis.n_max + 1, dtype=bool)
    for n_lo, n_hi in windows:
        reached[n_lo:n_hi + 1] = True
    kept = [(m, rows) for m, rows, _ in layout.blocks if reached[m]]
    sums = [np.zeros((rows.size, rows.size)) for _, rows in kept]
    for s, (n_lo, n_hi) in zip(chunks, windows):
        A = occupation_products(vs[s], basis.occupations[:offsets[n_hi + 1]],
                                gauss[s])
        # Re (A w A^H) is X diag(w, w) X^T on the float view X of A, which
        # interleaves the real and imaginary part of each sample's column
        X = A.view(np.float64)
        w2 = np.repeat(w[s], 2)
        for (m, rows), G in zip(kept, sums):
            if n_lo <= m <= n_hi:
                Xi = X[rows]
                G += (Xi * w2) @ Xi.T
    tr = sum(float(np.trace(G)) for G in sums)
    return FockState(basis, tuple((m, rows, G / tr)
                                  for (m, rows), G in zip(kept, sums)))


def _contract(state: FockState | DiagonalState, A: np.ndarray,
              n_hi: int) -> np.ndarray:
    """Re <A|state|A> over sectors 0..n_hi for each column of A.

    A holds the amplitudes of those sectors (a graded prefix of the basis).
    A DiagonalState costs O(dim) per point as p . |A|^2; a FockState is
    contracted one (sector, class) block at a time.
    """
    # A real p or G acts alike on Re A and Im A, which the float view of A
    # interleaves column by column.
    X = A.view(np.float64)
    if isinstance(state, DiagonalState):
        p = state.p[:A.shape[0]]
        return np.einsum("i,ij,ij->j", p, X, X).reshape(-1, 2).sum(axis=1)
    val = np.zeros(A.shape[1])
    for n, rows, G in state.blocks:
        if n > n_hi:
            break
        if np.isrealobj(G):
            Xi = X[rows]
            val += np.einsum("ij,ij->j", Xi, G @ Xi).reshape(-1, 2).sum(axis=1)
        else:
            Ai = A[rows]
            val += np.real(np.einsum("ij,ij->j", Ai.conj(), G @ Ai))
    return val


def _husimi(states: list[FockState | DiagonalState], eps: float,
            points: np.ndarray) -> np.ndarray:
    """Husimi densities of FockStates or DiagonalStates on one basis, one
    row per state.

    Points are taken in chunks in ascending order of nu = |v|^2, and the
    coherent amplitudes of each chunk are built once and contracted against
    every state. The particle number of a coherent vector is Poisson(nu) and
    every state is block diagonal, so a chunk only spans sectors up to the
    n_hi of _sector_window, the first whose Poisson(nu_max) tail beyond it
    is at most 2^-60. Sector m of the amplitudes has squared norm exactly
    e^-nu nu^m / m!, and lambda_max(G_m) <= tr G_m, so the omitted part of
    a density is at most max_{m > n_hi} tr G_m * P(N > n_hi); a point where
    that exceeds 2^-53 of the kept part is recomputed over the full basis.
    """
    if eps <= 0:
        raise ValueError("scale eps must be positive")
    basis = states[0].basis
    for other in states[1:]:
        if not other.basis.matches(basis):
            raise ValueError("states live on different bases")
    points = np.atleast_2d(np.asarray(points, dtype=np.complex128))
    vs = points / math.sqrt(eps)
    nu = np.sum(np.abs(vs) ** 2, axis=1)
    n_top = basis.n_max
    # beyond[i, n] = max over m > n of tr G_m of state i
    tr = np.array([s.sector_probabilities() for s in states])
    beyond = np.zeros_like(tr)
    beyond[:, :-1] = np.maximum.accumulate(tr[:, :0:-1], axis=1)[:, ::-1]

    def kept(idx: np.ndarray, n_hi: int) -> np.ndarray:
        occs = basis.occupations[:int(basis.sector_offsets[n_hi + 1])]
        A = occupation_products(vs[idx], occs, np.exp(-0.5 * nu[idx]))
        return np.array([_contract(s, A, n_hi) for s in states])

    out = np.empty((len(states), points.shape[0]))
    order = np.argsort(nu, kind="stable")
    redo = []
    for lo in range(0, order.size, _CHUNK):
        idx = order[lo:lo + _CHUNK]
        _, n_hi = _sector_window(nu[idx[0]], nu[idx[-1]], n_top)
        out[:, idx] = kept(idx, n_hi)
        if n_hi < n_top:
            missed = beyond[:, n_hi, None] * gammainc(n_hi + 1, nu[idx])
            redo.append(idx[np.any(missed > _WINDOW_REL * out[:, idx], axis=0)])
    redo = np.concatenate(redo) if redo else np.zeros(0, dtype=np.int64)
    for lo in range(0, redo.size, _CHUNK):
        idx = redo[lo:lo + _CHUNK]
        out[:, idx] = kept(idx, n_top)
    return (math.pi * eps) ** (-basis.K) * np.clip(out, 0.0, None)


def husimi_density(state: FockState | DiagonalState, eps: float,
                   points: np.ndarray) -> np.ndarray:
    """Lower-symbol density (pi eps)^-K <xi(u/sqrt(eps))| state |xi(u/sqrt(eps))>.

    points: (P, K) complex field values u. Nonnegative by positivity of the
    state; integrates to 1 minus the truncation tail.
    """
    return _husimi([state], eps, points)[0]


@dataclass(frozen=True)
class KLEstimate:
    value: float
    stderr: float
    ess: float
    degenerate: bool


def husimi_kl_importance(state: FockState, ref: DiagonalState, eps: float,
                         n_samples: int = 4000, seed: int = 0) -> KLEstimate:
    """KL divergence of the two (normalized) Husimi densities.

    Samples a per-mode complex Gaussian moment-matched to the reference
    state's Husimi covariance, importance-weights to the reference density,
    and self-normalizes both densities so the truncation deficit cancels.
    The standard error comes from ten batch means, so at least 10 samples
    are needed; estimates with effective sample size below 5% are flagged
    degenerate.
    """
    if not state.basis.matches(ref.basis):
        raise ValueError("states live on different bases")
    if n_samples < 10:
        raise ValueError("Husimi KL estimate needs at least 10 samples")
    rng = np.random.default_rng(seed)
    K = state.basis.K
    var = eps * (ref.basis.occupations.T @ ref.p + 1.0)  # occupancy + 1
    z = rng.standard_normal((n_samples, 2 * K))
    u = (z[:, :K] + 1j * z[:, K:]) * np.sqrt(var / 2.0)
    logq = np.sum(-np.abs(u) ** 2 / var - np.log(math.pi * var), axis=1)

    h, hp = _husimi([state, ref], eps, u)
    floor = 1e-290
    lh = np.log(np.clip(h, floor, None))
    lhp = np.log(np.clip(hp, floor, None))

    w_state = np.exp(lh - logq)       # importance weights to the state density
    w_ref = np.exp(lhp - logq)
    z_state, z_ref = w_state.mean(), w_ref.mean()
    ratio = lh - lhp
    value = float(np.sum(w_state * ratio) / w_state.sum()
                  + math.log(z_ref / z_state))
    ess = float(w_state.sum() ** 2 / np.sum(w_state**2))

    nb = 10
    bounds = np.linspace(0, n_samples, nb + 1).astype(int)
    batch = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        ws, wr = w_state[lo:hi], w_ref[lo:hi]
        batch.append(np.sum(ws * ratio[lo:hi]) / ws.sum()
                     + math.log(wr.mean() / ws.mean()))
    stderr = float(np.std(batch, ddof=1) / math.sqrt(nb))
    return KLEstimate(value=value, stderr=stderr, ess=ess,
                      degenerate=ess < 0.05 * n_samples)


@dataclass(frozen=True)
class BLGap:
    """Quantum vs classical (Husimi) relative entropy and their gap."""

    quantum: float
    classical: float
    gap: float
    classical_stderr: float
    ess: float
    degenerate: bool

    @classmethod
    def of(cls, quantum: float, kl: KLEstimate) -> BLGap:
        """The gap of a quantum relative entropy and a Husimi KL estimate."""
        return cls(quantum=quantum, classical=kl.value,
                   gap=quantum - kl.value, classical_stderr=kl.stderr,
                   ess=kl.ess, degenerate=kl.degenerate)


def berezin_lieb_gap(state: FockState, ref: DiagonalState, eps: float,
                     n_samples: int = 4000, seed: int = 0) -> BLGap:
    """Gap between quantum relative entropy and the Husimi-density KL.

    Asymptotically (small eps) the quantum term dominates the classical one;
    at finite scale the signed gap is simply reported.
    """
    return BLGap.of(relative_entropy(state, ref),
                    husimi_kl_importance(state, ref, eps, n_samples=n_samples,
                                         seed=seed))
