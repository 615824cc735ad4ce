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

from .classical import MomentMatrix, WeightedEnsemble
from .fock import FockBasis, FockState, reduced_density_matrix, relative_entropy
from .kernels import occupation_products
from .metrics import trace_norm_distance

__all__ = [
    "TailWarning",
    "CoherentVector",
    "coherent",
    "coherent_overlap",
    "trial_state",
    "husimi_density",
    "husimi_to_csv",
    "husimi_kl_importance",
    "husimi_kl_quadrature",
    "husimi_normalization_quadrature",
    "DeFinettiReport",
    "definetti_moment_check",
    "BLGap",
    "berezin_lieb_gap",
]

_CHUNK = 256


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
    if tail > 1e-6:
        warnings.warn(f"coherent tail mass {tail:.3e} beyond n_max={basis.n_max}",
                      TailWarning, stacklevel=2)
    amps = occupation_products(v[None, :], basis.occupations,
                               np.exp([-0.5 * nu]))[:, 0]
    return CoherentVector(v=v, amplitudes=amps, tail_bound=tail, basis=basis)


def coherent_overlap(a: CoherentVector, b: CoherentVector) -> complex:
    """<xi(a), xi(b)> of the truncated vectors."""
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def trial_state(ensemble: WeightedEnsemble, T: float, basis: FockBasis,
                n_subsample: int | None = None, phase_average: bool = False,
                tail_threshold: float = 1e-6) -> FockState:
    """Weighted mixture of coherent projectors at vectors sqrt(T) * alpha.

    The mixture is renormalized to unit trace; n_subsample keeps the first n
    samples (a deterministic, unbiased cut of an iid ensemble) with their
    weights renormalized. With phase_average=True each
    projector is replaced by its sector-diagonal pinching, which equals its
    exact average over the global phase alpha -> e^{i theta} alpha (a
    symmetry of the sampled measure), keeps the state block diagonal, and
    can only lower the free energy; the default keeps the plain projectors,
    so a single sample reproduces the coherent projector exactly.
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
    bad = int(np.sum(tails > tail_threshold))
    if bad:
        warnings.warn(
            f"{bad} of {n} trial-state samples have coherent tail mass above "
            f"{tail_threshold:.1e} (worst {tails.max():.3e})",
            TailWarning, stacklevel=2)
    gauss = np.exp(-0.5 * nu)

    if phase_average:
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

    M = np.zeros((basis.dim, basis.dim), dtype=np.complex128)
    for lo in range(0, n, _CHUNK):
        A = occupation_products(vs[lo:lo + _CHUNK], basis.occupations,
                                gauss[lo:lo + _CHUNK])
        M += (A * w[lo:lo + _CHUNK]) @ A.conj().T
    M = 0.5 * (M + M.conj().T)
    return FockState(basis=basis, matrix=M / float(np.real(np.trace(M))))


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


def _contract(form, A: np.ndarray) -> np.ndarray:
    """Re <A|state|A> for each column of A, with form from _husimi_form."""
    # A real p or G acts alike on Re A and Im A, which the float view of A
    # interleaves column by column.
    X = A.view(np.float64)
    if isinstance(form, np.ndarray):
        return np.einsum("i,ij,ij->j", form, X, X).reshape(-1, 2).sum(axis=1)
    val = np.zeros(A.shape[1])
    for sl, G in form:
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

    The coherent amplitudes of each chunk of points are built once and
    contracted against every state.
    """
    if eps <= 0:
        raise ValueError("scale eps must be positive")
    basis = states[0].basis
    for other in states[1:]:
        if not other.basis.matches(basis):
            raise ValueError("states live on different bases")
    points = np.atleast_2d(np.asarray(points, dtype=np.complex128))
    vs = points / math.sqrt(eps)
    forms = [_husimi_form(s) for s in states]
    out = np.empty((len(states), points.shape[0]))
    pref = (math.pi * eps) ** (-basis.K)
    for lo in range(0, points.shape[0], _CHUNK):
        vc = vs[lo:lo + _CHUNK]
        A = occupation_products(vc, basis.occupations,
                                np.exp(-0.5 * np.sum(np.abs(vc) ** 2, axis=1)))
        for i, form in enumerate(forms):
            out[i, lo:lo + _CHUNK] = pref * np.clip(_contract(form, A),
                                                    0.0, None)
    return out


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
    The standard error comes from ten batch means; estimates with effective
    sample size below 5% are flagged degenerate.
    """
    if not state.basis.matches(ref.basis):
        raise ValueError("states live on different bases")
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


def _polar_points(r_max: float, nr: int, ntheta: int):
    r = (np.arange(nr) + 0.5) * (r_max / nr)
    th = 2.0 * math.pi * np.arange(ntheta) / ntheta
    pts = (r[:, None] * np.exp(1j * th)[None, :]).reshape(-1, 1)
    area = np.repeat(r * (r_max / nr) * (2.0 * math.pi / ntheta), ntheta)
    return pts, area


def husimi_normalization_quadrature(state: FockState, eps: float,
                                    r_max: float, nr: int = 200,
                                    ntheta: int = 64) -> float:
    """Polar-grid integral of the Husimi density (single-mode states only)."""
    if state.basis.K != 1:
        raise ValueError("quadrature path is implemented for K = 1")
    pts, area = _polar_points(r_max, nr, ntheta)
    return float(np.sum(husimi_density(state, eps, pts) * area))


def husimi_kl_quadrature(state: FockState, ref: FockState, eps: float,
                         r_max: float, nr: int = 200, ntheta: int = 64) -> float:
    """Deterministic K=1 cross-check of husimi_kl_importance."""
    if state.basis.K != 1:
        raise ValueError("quadrature path is implemented for K = 1")
    pts, area = _polar_points(r_max, nr, ntheta)
    h, hp = _husimi([state, ref], eps, pts)
    zh = float(np.sum(h * area))
    zhp = float(np.sum(hp * area))
    mask = h > 1e-290
    return float(np.sum(h[mask] / zh * np.log((h[mask] / zh)
                                              / np.clip(hp[mask] / zhp, 1e-290, None))
                        * area[mask]))


@dataclass(frozen=True)
class DeFinettiReport:
    """Moment-bound diagnostics along a sequence of states."""

    orders: tuple
    constants: dict          # k -> list of eps^k tr Gamma^(k)
    bounds: dict             # k -> free-moment trace used as the yardstick
    bounded: dict            # k -> bool
    distances: dict | None   # k -> list of ||k! eps^k Gamma^(k) - candidate||_tr


def definetti_moment_check(states: list[tuple[FockState, float]],
                           eigenvalues: np.ndarray, k_max: int = 3,
                           candidates: dict[int, MomentMatrix] | None = None,
                           margin: float = 0.15) -> DeFinettiReport:
    """Check eps^k tr Gamma^(k) stays below the free-moment yardstick.

    The yardstick for order k is the trace of the exact free moment matrix
    (defocusing interactions only push occupancies down), inflated by
    `margin`. When candidate moment matrices are supplied, the trace-norm
    distances of k! eps^k Gamma^(k) to them are reported per state.
    """
    from .classical import free_moments

    orders = tuple(range(1, k_max + 1))
    constants = {k: [] for k in orders}
    distances = {k: [] for k in orders} if candidates else None
    bounds = {k: free_moments(eigenvalues, k).trace() for k in orders}
    for state, eps in states:
        for k in orders:
            if k > state.basis.n_max:
                continue
            g = reduced_density_matrix(state, k)
            constants[k].append(eps**k * g.trace())
            if candidates and k in candidates:
                scaled = math.factorial(k) * eps**k * g.entries
                distances[k].append(
                    trace_norm_distance(scaled, candidates[k].entries))
    bounded = {k: bool(np.all(np.asarray(constants[k])
                              <= (1.0 + margin) * bounds[k]))
               for k in orders}
    return DeFinettiReport(orders=orders, constants=constants, bounds=bounds,
                           bounded=bounded, distances=distances)


def husimi_to_csv(points: np.ndarray, values: np.ndarray, path) -> None:
    """Density samples as CSV rows: re/im of each mode, then the value."""
    points = np.atleast_2d(points)
    K = points.shape[1]
    with open(path, "w", encoding="utf-8") as fh:
        cols = ",".join(f"re_{j + 1},im_{j + 1}" for j in range(K))
        fh.write(f"{cols},density\n")
        for u, val in zip(points, values):
            parts = ",".join(f"{z.real:.17g},{z.imag:.17g}" for z in u)
            fh.write(f"{parts},{val:.17g}\n")


@dataclass(frozen=True)
class BLGap:
    """Quantum vs classical (Husimi) relative entropy and their gap."""

    quantum: float
    classical: float
    gap: float
    classical_stderr: float
    ess: float
    degenerate: bool


def berezin_lieb_gap(state: FockState, ref: FockState, eps: float,
                     n_samples: int = 4000, seed: int = 0) -> BLGap:
    """Gap between quantum relative entropy and the Husimi-density KL.

    Asymptotically (small eps) the quantum term dominates the classical one;
    at finite scale the signed gap is simply reported.
    """
    quantum = relative_entropy(state, ref)
    kl = husimi_kl_importance(state, ref, eps, n_samples=n_samples, seed=seed)
    return BLGap(quantum=quantum, classical=kl.value,
                 gap=quantum - kl.value, classical_stderr=kl.stderr,
                 ess=kl.ess, degenerate=kl.degenerate)
