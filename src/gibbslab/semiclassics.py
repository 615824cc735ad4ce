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
from scipy.special import gammainc

from .classical import WeightedEnsemble
from .fock import FockBasis, FockState, reduced_density_matrix, relative_entropy
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
_WINDOW_TAIL = 2.0 ** -60  # Poisson mass a chunk's sector window leaves out
_WINDOW_REL = 2.0 ** -53   # omitted share of a density that forces the full basis
_TAIL_THRESHOLD = 1e-6  # coherent mass beyond n_max that triggers TailWarning


class TailWarning(UserWarning):
    """Truncation tail of a coherent construction exceeded its threshold."""


@dataclass(frozen=True)
class CoherentVector:
    """Truncated coherent state with its Poisson tail bound."""

    v: np.ndarray
    amplitudes: np.ndarray
    tail_bound: float
    basis: FockBasis

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def projector(self) -> FockState:
        M = np.outer(self.amplitudes, self.amplitudes.conj())
        return FockState(basis=self.basis, matrix=M / self.norm_sq())


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
    return CoherentVector(v=v, amplitudes=amps, tail_bound=tail, basis=basis)


def coherent_overlap(a: CoherentVector, b: CoherentVector) -> complex:
    """<xi(a), xi(b)> of the truncated vectors."""
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def trial_state(ensemble: WeightedEnsemble, T: float, basis: FockBasis,
                n_subsample: int | None = None) -> FockState:
    """Phase-averaged mixture of coherent projectors at vectors sqrt(T) * alpha.

    Each projector is replaced by its sector-diagonal pinching, which equals
    its exact average over the global phase alpha -> e^{i theta} alpha (a
    symmetry of the sampled measure), keeps the state block diagonal, and
    can only lower the free energy. The mixture is renormalized to unit
    trace; n_subsample keeps the first n samples (a deterministic, unbiased
    cut of an iid ensemble) with their weights renormalized. Warns when a
    sample's coherent tail beyond n_max exceeds 1e-6.
    """
    if not ensemble.reweighted:
        raise ValueError("trial state needs a reweighted ensemble")
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

    sums = [np.zeros((basis.sector_dim(m), basis.sector_dim(m)),
                     dtype=np.complex128) for m in range(basis.n_max + 1)]
    for lo in range(0, n, _CHUNK):
        A = occupation_products(vs[lo:lo + _CHUNK], basis.occupations,
                                gauss[lo:lo + _CHUNK])
        wc = w[lo:lo + _CHUNK]
        for m in range(basis.n_max + 1):
            Am = A[basis.sector_slice(m)]
            sums[m] += (Am * wc) @ Am.conj().T
    tr = sum(float(np.real(np.trace(b))) for b in sums)
    return FockState(basis=basis, blocks=tuple(b / tr for b in sums))


def _husimi_form(state: FockState):
    """How <xi|state|xi> contracts a (dim, P) amplitude array.

    A diagonal array p when every sector block is exactly diagonal (a free
    Gibbs state is), so a point costs O(dim) as p . |A|^2; otherwise a list
    of (slice, block) pairs, one per sector or one dense block.
    """
    if not state.sector_diagonal:
        return [(slice(None), np.ascontiguousarray(state.matrix))]
    blocks = state.diagonal_blocks()
    if all(not np.any(G - np.diag(np.diagonal(G))) for G in blocks):
        return np.concatenate([np.real(np.diagonal(G)) for G in blocks])
    return [(state.basis.sector_slice(m), np.ascontiguousarray(G))
            for m, G in enumerate(blocks)]


def _contract(form, A: np.ndarray, n_hi: int) -> np.ndarray:
    """Re <A|state|A> over sectors 0..n_hi for each column of A.

    A holds the amplitudes of those sectors (a graded prefix of the basis);
    form comes from _husimi_form, and a dense form needs n_hi = n_max.
    """
    # A real p or G acts alike on Re A and Im A, which the float view of A
    # interleaves column by column.
    X = A.view(np.float64)
    if isinstance(form, np.ndarray):
        p = form[:A.shape[0]]
        return np.einsum("i,ij,ij->j", p, X, X).reshape(-1, 2).sum(axis=1)
    val = np.zeros(A.shape[1])
    for sl, G in form[:n_hi + 1]:
        if np.isrealobj(G):
            Xm = X[sl]
            val += np.einsum("ij,ij->j", Xm, G @ Xm).reshape(-1, 2).sum(axis=1)
        else:
            Am = A[sl]
            val += np.real(np.einsum("ij,ij->j", Am.conj(), G @ Am))
    return val


def _husimi(states: list[FockState], eps: float,
            points: np.ndarray) -> np.ndarray:
    """Husimi densities of states on one basis, one row per state.

    Points are taken in chunks in ascending order of nu = |v|^2, and the
    coherent amplitudes of each chunk are built once and contracted against
    every state. The particle number of a coherent vector is Poisson(nu), so
    when every state is sector-diagonal a chunk only spans sectors up to the
    first n_hi whose Poisson(nu_max) tail beyond it is at most 2^-60. Sector
    m of the amplitudes has squared norm exactly e^-nu nu^m / m!, and
    lambda_max(G_m) <= tr G_m, so the omitted part of a density is at most
    max_{m > n_hi} tr G_m * P(N > n_hi); a point where that exceeds 2^-53
    of the kept part is recomputed over the full basis. Dense states always
    use the full basis.
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
    forms = [_husimi_form(s) for s in states]
    n_top = basis.n_max
    windowed = all(s.sector_diagonal for s in states)
    if windowed:
        # beyond[i, n] = max over m > n of tr G_m of state i
        tr = np.array([s.sector_probabilities() for s in states])
        beyond = np.zeros_like(tr)
        beyond[:, :-1] = np.maximum.accumulate(tr[:, :0:-1], axis=1)[:, ::-1]

    def kept(idx: np.ndarray, n_hi: int) -> np.ndarray:
        occs = basis.occupations[:int(basis.sector_offsets[n_hi + 1])]
        A = occupation_products(vs[idx], occs, np.exp(-0.5 * nu[idx]))
        return np.array([_contract(form, A, n_hi) for form in forms])

    out = np.empty((len(states), points.shape[0]))
    order = np.argsort(nu, kind="stable")
    redo = []
    for lo in range(0, order.size, _CHUNK):
        idx = order[lo:lo + _CHUNK]
        n_hi = n_top
        if windowed:
            inside = gammainc(np.arange(1, n_top + 2), nu[idx[-1]]) \
                <= _WINDOW_TAIL
            n_hi = int(np.argmax(inside)) if inside.any() else n_top
        out[:, idx] = kept(idx, n_hi)
        if n_hi < n_top:
            missed = beyond[:, n_hi, None] * gammainc(n_hi + 1, nu[idx])
            redo.append(idx[np.any(missed > _WINDOW_REL * out[:, idx], axis=0)])
    redo = np.concatenate(redo) if redo else np.zeros(0, dtype=np.int64)
    for lo in range(0, redo.size, _CHUNK):
        idx = redo[lo:lo + _CHUNK]
        out[:, idx] = kept(idx, n_top)
    return (math.pi * eps) ** (-basis.K) * np.clip(out, 0.0, None)


def husimi_density(state: FockState, eps: float, points: np.ndarray) -> np.ndarray:
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


def _reference_scales(ref: FockState, eps: float) -> np.ndarray:
    """Per-mode Gaussian proposal variances eps * (occupancy + 1)."""
    g1 = reduced_density_matrix(ref, 1)
    occ = np.clip(np.real(np.diag(g1.entries)), 0.0, None)
    return eps * (occ + 1.0)


def husimi_kl_importance(state: FockState, ref: FockState, eps: float,
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
    var = _reference_scales(ref, eps)
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


def berezin_lieb_gap(state: FockState, ref: FockState, eps: float,
                     n_samples: int = 4000, seed: int = 0) -> BLGap:
    """Gap between quantum relative entropy and the Husimi-density KL.

    Asymptotically (small eps) the quantum term dominates the classical one;
    at finite scale the signed gap is simply reported.
    """
    return BLGap.of(relative_entropy(state, ref),
                    husimi_kl_importance(state, ref, eps, n_samples=n_samples,
                                         seed=seed))
