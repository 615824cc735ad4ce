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
from scipy.special import gammainc, gammaincinv

from .classical import DEGENERATE_ESS, WeightedEnsemble
from .fock import DiagonalState, FockBasis, FockState, relative_entropy
# perfbench/tests/test_tracer.py checks that the tracer rebinds this name here
from .fock import reduced_density_matrix  # noqa: F401
from .kernels import occupation_products, occupation_sectors

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
_REACH_TAIL = 2.0 ** -60  # Poisson mass a point leaves beyond its reach
_REACH_REL = 2.0 ** -53   # omitted share of a density that forces the full basis
_TAIL_THRESHOLD = 1e-6  # coherent mass beyond n_max that triggers TailWarning
# the largest nu = |v|^2 whose vacuum amplitude exp(-nu/2), the first factor
# of every coherent amplitude, is a normal float; above it the walk's
# products lose their bits (at K = 1, nu = 1600 gives the zero vector)
_NU_MAX = -2.0 * math.log(np.finfo(float).tiny)


class TailWarning(UserWarning):
    """Truncation tail of a coherent construction exceeded its threshold."""


@dataclass(frozen=True)
class CoherentVector:
    """Truncated coherent state with its Poisson tail bound."""

    amplitudes: np.ndarray
    tail_bound: float


def _check_nu(nu) -> None:
    """Refuse coherent points with |v|^2 above _NU_MAX."""
    top = float(np.max(nu, initial=0.0))
    if top > _NU_MAX:
        raise ValueError(f"coherent point with nu = |v|^2 = {top:.6g} above "
                         f"the limit {_NU_MAX:.6f}, where exp(-nu/2) is "
                         "subnormal")


def coherent(v: np.ndarray, basis: FockBasis) -> CoherentVector:
    """Coherent state over v, truncated at the basis cutoff.

    Warns when the Poisson mass beyond n_max exceeds 1e-6; keeping
    |v|^2 <= n_max / 2 is a comfortable regime. |v|^2 above _NU_MAX
    (1416.79) is refused.
    """
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if v.size != basis.K:
        raise ValueError("coherent vector length must match the mode count")
    nu = float(np.sum(np.abs(v) ** 2))
    _check_nu(nu)
    tail = float(gammainc(basis.n_max + 1, nu)) if nu > 0 else 0.0
    if tail > _TAIL_THRESHOLD:
        warnings.warn(f"coherent tail mass {tail:.3e} beyond n_max={basis.n_max}",
                      TailWarning, stacklevel=2)
    amps = occupation_products(v[None, :], basis.recurrence,
                               np.exp([-0.5 * nu]))[:, 0]
    return CoherentVector(amplitudes=amps, tail_bound=tail)


def coherent_overlap(a: CoherentVector, b: CoherentVector) -> complex:
    """<xi(a), xi(b)> of the truncated vectors."""
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def _reach(nu: np.ndarray, n_max: int) -> np.ndarray:
    """Each point's reach: the first sector n <= n_max with
    P(N > n) <= 2^-60 for N ~ Poisson(nu), else n_max.

    P(N > n) = gammainc(n + 1, nu) grows with nu, so it is at most 2^-60
    exactly when nu <= gammaincinv(n + 1, 2^-60); one table of these
    thresholds and searchsorted give every point's reach, non-decreasing
    in nu.
    """
    table = gammaincinv(np.arange(1, n_max + 2), _REACH_TAIL)
    return np.minimum(np.searchsorted(table, nu), n_max)


def _coherent_chunks(vs: np.ndarray, nu: np.ndarray, basis: FockBasis,
                     reach: np.ndarray):
    """Coherent amplitudes of the points vs, nu = |v|^2, in chunks of 256 in
    ascending nu (a stable sort), one sector at a time.

    reach is each point's top sector, non-decreasing in nu (as _reach is).
    Yields (idx, sectors): idx the chunk's rows of vs and sectors the
    occupation_sectors stream of the chunk, (n, c, A_n) with A_n the
    amplitudes of sector n for the chunk's points c: that reach it (one
    column per point). A caller lets each sector go before it asks for the
    next, so at most two sectors of amplitudes are alive at a time. Every
    chunk reads the parent table the basis was enumerated with; the walk
    builds none. A point with nu above _NU_MAX is refused before any chunk.
    """
    _check_nu(nu)
    order = np.argsort(nu, kind="stable")
    for lo in range(0, order.size, _CHUNK):
        idx = order[lo:lo + _CHUNK]
        yield idx, occupation_sectors(vs[idx], basis.recurrence,
                                      np.exp(-0.5 * nu[idx]), reach[idx])


def _by_sector(state: FockState | DiagonalState) -> list[list]:
    """The terms of state listed under each sector n: (rows - first row of
    n, G) for each class block (n, rows, G), or (None, p_n), the sector's
    slice of a DiagonalState."""
    basis = state.basis
    if isinstance(state, DiagonalState):
        return [[(None, state.p[basis.sector_slice(n)])]
                for n in range(basis.n_max + 1)]
    out = [[] for _ in range(basis.n_max + 1)]
    for n, rows, G in state.blocks:
        out[n].append((rows - basis.sector_offsets[n], G))
    return out


def _rank_update(sums: dict, blocks: list, A: np.ndarray, w2: np.ndarray):
    """sums[b] += Re (A_i diag(w) A_i^H) over the rows A_i of each block
    (b, rows) of one sector, rows counted from the sector's first row, w2
    the weights w of A's columns each repeated twice.

    Re (A w A^H) is X diag(w, w) X^T on the float view X of A, which
    interleaves the real and imaginary part of each sample's column.
    """
    X = A.view(np.float64)
    for b, rows in blocks:
        Xi = X[rows]
        if b not in sums:
            sums[b] = np.zeros((rows.size, rows.size))
        sums[b] += (Xi * w2) @ Xi.T


def trial_state(ensemble: WeightedEnsemble, T: float, basis: FockBasis,
                layout) -> FockState:
    """Symmetrized mixture of coherent projectors at vectors sqrt(T) * alpha,
    one per row of ensemble, on the (sector, class) blocks of layout.

    layout holds the (n, rows) of every (sector, class) block of H_lam on
    basis, as ThermalPoint.layout records them; no Gibbs state is read.
    The sampled measure, H_lam and the free state are invariant under the
    global phase alpha -> e^{i theta} alpha, under complex conjugation
    alpha -> conj(alpha) (the modes and W are real) and under the
    reflection x -> -x (the mode parity). Each projector is replaced by its
    exact average over these maps: the phase keeps its sector blocks,
    conjugation their real part and the reflection their parity-class
    blocks, the classes of layout (one per sector when the parity fell
    back, and then nothing is pinched). The average keeps the energy and,
    by joint convexity, cannot raise S(. | free), so the state is a
    variational upper bound no worse than the plain mixture.

    The samples walk _coherent_chunks (nu = T |alpha|^2), each up to its
    reach (_reach), beyond which it has at most 2^-60 mass; each sector of
    amplitudes updates the blocks of its sector, one rank update over the
    samples that reach it, as it arrives. The mixture over every sector up
    to n_max differs from it by a share eps <= 2^-60 / (1 - tau) of its
    trace, tau the weighted mean coherent tail beyond n_max, so by joint
    convexity and concavity of the entropy S(trial | free) moves by at most
    eps (max|log q| + log(1/eps) + 1), q the free state's diagonal: of
    order 2^-60 max|log q|. The truncated mixture is still a state, so it
    is still an upper bound. A sector that no sample reaches is exactly
    zero and gets no block.

    The mixture is renormalized to unit trace. The sweep passes the head
    of its classical pass (sample_measure), whose rows are the first
    trial_subsample samples: a deterministic, unbiased cut of an iid
    ensemble. Warns when a sample's coherent tail beyond n_max exceeds 1e-6.
    """
    if not ensemble.reweighted:
        raise ValueError("trial state needs a reweighted ensemble")
    if sum(rows.size for _, rows in layout) != basis.dim:
        raise ValueError("layout does not cover the basis")
    logw = ensemble.log_weights
    w = np.exp(logw - logw.max())
    w = w / w.sum()
    vs = math.sqrt(T) * ensemble.coeffs

    nu = np.sum(np.abs(vs) ** 2, axis=1)
    tails = gammainc(basis.n_max + 1, np.clip(nu, 1e-300, None))
    bad = int(np.sum(tails > _TAIL_THRESHOLD))
    if bad:
        warnings.warn(
            f"{bad} of {ensemble.n} trial-state samples have coherent tail "
            f"mass above {_TAIL_THRESHOLD:.1e} (worst {tails.max():.3e})",
            TailWarning, stacklevel=2)
    sums, by_sector = {}, [[] for _ in range(basis.n_max + 1)]
    for b, (m, rows) in enumerate(layout):
        by_sector[m].append((b, rows - basis.sector_offsets[m]))
    reach = _reach(nu, basis.n_max)
    for idx, sectors in _coherent_chunks(vs, nu, basis, reach):
        w2 = np.repeat(w[idx], 2)
        for m, c, A in sectors:
            _rank_update(sums, by_sector[m], A, w2[2 * c:])
    kept = [(m, rows, sums[b]) for b, (m, rows) in enumerate(layout)
            if b in sums]
    tr = sum(float(np.trace(G)) for _, _, G in kept)
    for _, _, G in kept:
        G /= tr
    return FockState(basis, tuple(kept))


def _contract(terms: list, A: np.ndarray, val: np.ndarray) -> None:
    """val += Re <A|terms|A> for each column of A, the amplitudes of one
    sector, and terms that sector's part of a state (_by_sector).

    A diagonal part costs O(sector dim) per point as p . |A|^2; class
    blocks are contracted one at a time.
    """
    # The real p or G acts alike on Re A and Im A, which the float view of A
    # interleaves column by column.
    X = A.view(np.float64)
    for rows, G in terms:
        if rows is None:
            val += np.einsum("i,ij,ij->j", G, X, X).reshape(-1, 2).sum(axis=1)
        else:
            Xi = X[rows]
            val += np.einsum("ij,ij->j", Xi, G @ Xi).reshape(-1, 2).sum(axis=1)


def _densities(terms: list, vs: np.ndarray, nu: np.ndarray,
               basis: FockBasis, reach: np.ndarray) -> np.ndarray:
    """Re <xi(v)|state|xi(v)> for each state's _by_sector and each point,
    over sectors 0..reach of that point, in the walk of _coherent_chunks."""
    out = np.empty((len(terms), vs.shape[0]))
    for idx, sectors in _coherent_chunks(vs, nu, basis, reach):
        vals = np.zeros((len(terms), idx.size))
        for n, c, A in sectors:
            for t, val in zip(terms, vals):
                _contract(t[n], A, val[c:])
        out[:, idx] = vals
    return out


def _husimi(states: list[FockState | DiagonalState], eps: float,
            points: np.ndarray):
    """Husimi densities of FockStates or DiagonalStates on one basis, one
    row per state, with each point's reach and the points recomputed over
    the full basis: (densities, reach, redo).

    Each chunk of _coherent_chunks builds its amplitudes one sector at a
    time and contracts every state, which is block diagonal, sector by
    sector as it arrives. A point's amplitudes stop at its reach, the first
    sector n_hi whose Poisson(nu) tail beyond it is at most 2^-60 (_reach).
    Sector m of the amplitudes has squared norm exactly e^-nu nu^m / m!, and
    lambda_max(G_m) <= tr G_m, so the omitted part of a density is at most
    max_{m > n_hi} tr G_m * P(N > n_hi); a point where that exceeds 2^-53
    of the kept part is recomputed over the full basis (a reach of n_max).
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
    # beyond[i, n] = max over m > n of tr G_m of state i
    tr = np.array([s.sector_probabilities() for s in states])
    beyond = np.zeros_like(tr)
    beyond[:, :-1] = np.maximum.accumulate(tr[:, :0:-1], axis=1)[:, ::-1]

    terms = [_by_sector(s) for s in states]
    reach = _reach(nu, basis.n_max)
    out = _densities(terms, vs, nu, basis, reach)
    short = np.flatnonzero(reach < basis.n_max)
    missed = beyond[:, reach[short]] * gammainc(reach[short] + 1, nu[short])
    redo = short[np.any(missed > _REACH_REL * out[:, short], axis=0)]
    out[:, redo] = _densities(terms, vs[redo], nu[redo], basis,
                              np.full(redo.size, basis.n_max))
    return (math.pi * eps) ** (-basis.K) * np.clip(out, 0.0, None), reach, redo


def husimi_density(state: FockState | DiagonalState, eps: float,
                   points: np.ndarray) -> np.ndarray:
    """Lower-symbol density (pi eps)^-K <xi(u/sqrt(eps))| state |xi(u/sqrt(eps))>.

    points: (P, K) complex field values u. Nonnegative by positivity of the
    state; integrates to 1 minus the truncation tail.
    """
    return _husimi([state], eps, points)[0][0]


@dataclass(frozen=True)
class KLEstimate:
    value: float
    stderr: float
    ess: float
    degenerate: bool
    fallback_points: int     # points whose densities took the full basis
    n_hi: tuple              # min, median, max of the points' reach


def husimi_kl_importance(state: FockState, ref: DiagonalState, eps: float,
                         n_samples: int = 4000, seed: int = 0) -> KLEstimate:
    """KL divergence of the two (normalized) Husimi densities.

    Samples a per-mode complex Gaussian moment-matched to the reference
    state's Husimi covariance, importance-weights to the reference density,
    and self-normalizes both densities so the truncation deficit cancels.
    The standard error comes from ten batch means, so at least 10 samples
    are needed; estimates with effective sample size below 5% are flagged
    degenerate. The estimate also counts the points _husimi recomputed over
    the full basis and gives the min, median and max of their reach.
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

    (h, hp), reach, redo = _husimi([state, ref], eps, u)
    floor = 1e-290
    lh = np.log(np.clip(h, floor, None))
    lhp = np.log(np.clip(hp, floor, None))

    log_w = lh - logq
    w_state = np.exp(log_w)           # importance weights to the state density
    w_ref = np.exp(lhp - logq)
    ratio = lh - lhp

    def kl(s: slice) -> float:   # the self-normalized estimate over s
        w = w_state[s]
        return float(np.sum(w * ratio[s]) / w.sum()
                     + math.log(w_ref[s].mean() / w.mean()))

    value = kl(slice(None))
    # the ESS of w_state scaled so that its largest weight is 1, which
    # cannot underflow to 0/0
    v = np.exp(log_w - log_w.max())
    ess = float(v.sum() ** 2 / np.sum(v**2))

    nb = 10
    bounds = np.linspace(0, n_samples, nb + 1).astype(int)
    batch = [kl(slice(lo, hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]
    stderr = float(np.std(batch, ddof=1) / math.sqrt(nb))
    return KLEstimate(value=value, stderr=stderr, ess=ess,
                      degenerate=ess < DEGENERATE_ESS * n_samples,
                      fallback_points=int(redo.size),
                      n_hi=(int(reach.min()), float(np.median(reach)),
                            int(reach.max())))


@dataclass(frozen=True)
class BLGap:
    """Quantum vs classical (Husimi) relative entropy and their gap."""

    quantum: float
    classical: float
    gap: float
    classical_stderr: float
    ess: float
    degenerate: bool
    fallback_points: int
    n_hi: tuple

    @classmethod
    def of(cls, quantum: float, kl: KLEstimate) -> BLGap:
        """The gap of a quantum relative entropy and a Husimi KL estimate."""
        return cls(quantum=quantum, classical=kl.value,
                   gap=quantum - kl.value, classical_stderr=kl.stderr,
                   ess=kl.ess, degenerate=kl.degenerate,
                   fallback_points=kl.fallback_points, n_hi=kl.n_hi)


def berezin_lieb_gap(state: FockState, ref: DiagonalState, eps: float,
                     n_samples: int = 4000, seed: int = 0) -> BLGap:
    """Gap between quantum relative entropy and the Husimi-density KL.

    Asymptotically (small eps) the quantum term dominates the classical one;
    at finite scale the signed gap is simply reported.
    """
    return BLGap.of(relative_entropy(state, ref),
                    husimi_kl_importance(state, ref, eps, n_samples=n_samples,
                                         seed=seed))
