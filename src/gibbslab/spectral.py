"""One-body operator discretization and the pair-interaction tensor.

The one-body Hamiltonian is either an anharmonic well -u'' + |x|^a + m on a
Dirichlet box [-L, L] (a > 2, so the box truncation is harmless once L^a
dominates the highest retained eigenvalue) or -u'' + m on the fixed interval
[-1, 1] with Dirichlet, Neumann or periodic ends (m > 0 keeps it positive
definite). Second-order central differences on a uniform grid; eigenvectors
are normalized against the grid quadrature, so mode coefficients and grid
sums can be mixed freely downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal

from .kernels import Recurrence

__all__ = [
    "Grid",
    "OneBodySpec",
    "DiscreteOperator",
    "SpectralBasis",
    "InteractionKernel",
    "TwoBodyTensor",
    "SchattenTrace",
    "build_operator",
    "eigendecompose",
    "schatten_trace",
    "interaction_elements",
    "basis_to_csv",
]

_BCS = ("dirichlet", "neumann", "periodic")
_KERNELS = ("delta", "constant", "gaussian")  # InteractionKernel names
_K_TAIL = 8  # top eigenvalues that calibrate the Schatten tail
_PARITY_TOL = 1e-10  # reflection classification and forbidden-W bound


@dataclass(frozen=True)
class Grid:
    """Uniform quadrature grid: nodes, per-node weights and spacing."""

    nodes: np.ndarray
    weights: np.ndarray
    dx: float
    periodic: bool = False

    @property
    def n(self) -> int:
        return self.nodes.size

    def reflection(self) -> np.ndarray:
        """Index of the node at -x for each node x: i -> -i mod n on a
        periodic grid (node 0 sits at x = -1, which is also x = +1), the
        reversed order otherwise."""
        i = np.arange(self.n)
        return (-i) % self.n if self.periodic else i[::-1]


@dataclass(frozen=True)
class OneBodySpec:
    """Parameters of the one-body operator.

    domain "anharmonic": -d2/dx2 + |x|^a + m on [-half_width, half_width]
    with Dirichlet walls; requires a > 2.
    domain "interval": -d2/dx2 + m on [-1, 1] with boundary condition `bc`;
    requires m > 0.
    """

    domain: str
    m: float
    grid_points: int
    a: float | None = None
    half_width: float | None = None
    bc: str = "dirichlet"

    def __post_init__(self):
        if self.domain not in ("anharmonic", "interval"):
            raise ValueError(f"unknown domain {self.domain!r}")
        if self.grid_points < 64:
            raise ValueError("grid_points must be at least 64")
        if not math.isfinite(self.m):
            raise ValueError("m must be finite")
        if self.domain == "anharmonic":
            if self.a is None or not 2 < self.a < math.inf:
                raise ValueError("anharmonic exponent must satisfy 2 < a < inf")
            if self.half_width is None or not 0 < self.half_width < math.inf:
                raise ValueError("anharmonic box needs 0 < half_width < inf")
        else:
            if self.bc not in _BCS:
                raise ValueError(f"bc must be one of {_BCS}")
            if self.m <= 0:
                raise ValueError("interval operator needs m > 0 to be positive definite")

    @classmethod
    def anharmonic_line(cls, a: float, half_width: float, m: float = 0.0,
                        grid_points: int = 1024) -> "OneBodySpec":
        return cls(domain="anharmonic", m=m, grid_points=grid_points,
                   a=a, half_width=half_width)

    @classmethod
    def interval(cls, bc: str = "dirichlet", m: float = 1.0,
                 grid_points: int = 512) -> "OneBodySpec":
        return cls(domain="interval", m=m, grid_points=grid_points, bc=bc.lower())


@dataclass(frozen=True)
class DiscreteOperator:
    """Symmetric finite-difference matrix: tridiagonal plus an optional
    periodic corner coupling."""

    diag: np.ndarray
    off: np.ndarray
    wrap: float
    grid: Grid
    spec: OneBodySpec

    @property
    def n(self) -> int:
        return self.diag.size

    def apply(self, u: np.ndarray) -> np.ndarray:
        v = self.diag * u
        v[:-1] += self.off * u[1:]
        v[1:] += self.off * u[:-1]
        if self.wrap != 0.0:
            v[0] += self.wrap * u[-1]
            v[-1] += self.wrap * u[0]
        return v

    def dense(self) -> np.ndarray:
        h = np.diag(self.diag)
        h += np.diag(self.off, 1) + np.diag(self.off, -1)
        if self.wrap != 0.0:
            h[0, -1] += self.wrap
            h[-1, 0] += self.wrap
        return h


def build_operator(spec: OneBodySpec) -> DiscreteOperator:
    """Assemble the finite-difference operator for a OneBodySpec."""
    n = spec.grid_points
    if spec.domain == "anharmonic" or spec.bc == "dirichlet":
        # Dirichlet walls on [-L, L]: the anharmonic well, or the interval
        anharmonic = spec.domain == "anharmonic"
        L = float(spec.half_width) if anharmonic else 1.0
        dx = 2.0 * L / (n + 1)
        nodes = -L + dx * np.arange(1, n + 1)
        potential = np.abs(nodes) ** spec.a + spec.m if anharmonic \
            else np.full(n, spec.m)
        diag = 2.0 / dx**2 + potential
        off = np.full(n - 1, -1.0 / dx**2)
        grid = Grid(nodes, np.full(n, dx), dx)
        return DiscreteOperator(diag, off, 0.0, grid, spec)
    if spec.bc == "neumann":
        # cell-centered grid; zero-flux ends give 1/dx^2 corner diagonals
        dx = 2.0 / n
        nodes = -1.0 + dx * (np.arange(n) + 0.5)
        diag = np.full(n, 2.0 / dx**2 + spec.m)
        diag[0] = diag[-1] = 1.0 / dx**2 + spec.m
        off = np.full(n - 1, -1.0 / dx**2)
        grid = Grid(nodes, np.full(n, dx), dx)
        return DiscreteOperator(diag, off, 0.0, grid, spec)
    # periodic
    dx = 2.0 / n
    nodes = -1.0 + dx * np.arange(n)
    diag = np.full(n, 2.0 / dx**2 + spec.m)
    off = np.full(n - 1, -1.0 / dx**2)
    grid = Grid(nodes, np.full(n, dx), dx, periodic=True)
    return DiscreteOperator(diag, off, -1.0 / dx**2, grid, spec)


@dataclass(frozen=True)
class SpectralBasis:
    """Lowest K eigenpairs of the discrete operator.

    eigenvectors[j] holds mode j on the grid, normalized so that
    sum_x u_i u_j dx = delta_ij; signs are fixed (first significant component
    positive) and degenerate blocks are re-orthonormalized canonically, so a
    basis is a pure function of the operator.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    grid: Grid
    spec: OneBodySpec

    @property
    def K(self) -> int:
        return self.eigenvalues.size

    def parity(self) -> np.ndarray | None:
        """Reflection class of each mode, 0 (even) or 1 (odd), from its
        overlap with its own reflection x -> -x; None unless every overlap
        is +-1 to 1e-10."""
        U = self.eigenvectors
        overlap = (U * U[:, self.grid.reflection()]) @ self.grid.weights
        if np.any(np.abs(np.abs(overlap) - 1.0) > _PARITY_TOL):
            return None
        return (overlap < 0).astype(np.int64)


def _fix_sign(v: np.ndarray) -> np.ndarray:
    thresh = 1e-8 * np.abs(v).max()
    for x in v:
        if abs(x) > thresh:
            return v if x > 0 else -v
    return v


def _canonical_block(vecs: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of a degenerate eigenspace.

    Projects coordinate axes onto the span in grid-index order and
    Gram-Schmidts the results, which depends only on the subspace, not on
    whatever basis the eigensolver happened to return.
    """
    d, n = vecs.shape
    out = []
    for i in range(n):
        w = vecs.T @ vecs[:, i]  # projection of e_i onto the span
        for u in out:
            w = w - u * (u @ w)
        nrm = np.linalg.norm(w)
        if nrm > 1e-6:
            out.append(w / nrm)
            if len(out) == d:
                break
    if len(out) < d:  # pathological span; keep the solver's basis
        return vecs
    return np.array(out)


def eigendecompose(op: DiscreteOperator, K: int) -> SpectralBasis:
    """Lowest K eigenpairs, quadrature-orthonormalized, deterministic;
    an operator with lambda_1 <= 0 is refused (the free state needs h > 0)."""
    n = op.n
    if K < 1:
        raise ValueError("K must be positive")
    if K > n // 4:
        raise ValueError(f"K={K} too large for {n} grid points (need K <= n/4)")
    if op.wrap == 0.0:
        lam, vecs = eigh_tridiagonal(op.diag, op.off, select="i",
                                     select_range=(0, K - 1))
    else:
        lam, vecs = eigh(op.dense(), subset_by_index=(0, K - 1))
    if lam[0] <= 0:
        raise ValueError(f"h is not positive definite: lambda_1 = {lam[0]:g}")
    vecs = vecs.T / math.sqrt(op.grid.dx)  # rows = modes, quadrature-normalized

    # canonicalize degenerate blocks (periodic spectra come in pairs)
    i = 0
    while i < K:
        j = i + 1
        tol = 1e-8 * max(1.0, abs(lam[i]))
        while j < K and abs(lam[j] - lam[i]) <= tol:
            j += 1
        if j - i > 1:
            # _canonical_block returns unit rows; restore quadrature norm
            vecs[i:j] = _canonical_block(vecs[i:j]) / math.sqrt(op.grid.dx)
        i = j
    vecs = np.array([_fix_sign(v) for v in vecs])

    basis = SpectralBasis(lam, vecs, op.grid, op.spec)
    res = np.linalg.norm((np.array([op.apply(v) for v in vecs])
                          - lam[:, None] * vecs), axis=1) * math.sqrt(op.grid.dx)
    if np.any(res > 1e-6 * np.abs(lam)):
        raise RuntimeError("eigensolver residuals exceed 1e-6 * lambda")
    return basis


@dataclass(frozen=True)
class SchattenTrace:
    """Partial sum of lambda_j^-p with a growth-law tail estimate."""

    p: float
    partial_sum: float
    tail_bound: float
    divergent: bool

    @property
    def value(self) -> float:
        return math.inf if self.divergent else self.partial_sum + self.tail_bound


def schatten_trace(basis: SpectralBasis, p: float) -> SchattenTrace:
    """Sum of lambda_j^-p over the computed modes plus an analytic tail.

    The tail integrates the eigenvalue growth law lambda_j ~ c j^rho with
    rho = 2 on the interval and rho = 2a/(a+2) on the anharmonic line (Weyl
    counting), calibrating c on the top 8 computed eigenvalues. When
    rho*p <= 1 the series diverges and the result is flagged instead of
    being reported as a number.
    """
    if p < 0:
        raise ValueError("p must be nonnegative")
    lam = basis.eigenvalues
    K = lam.size
    if basis.spec.domain == "interval":
        rho = 2.0
    else:
        a = float(basis.spec.a)
        rho = 2.0 * a / (a + 2.0)
    if rho * p <= 1.0:
        return SchattenTrace(p, float(np.sum(lam ** -p)) if p > 0 else float(K),
                             math.inf, True)
    k_cal = min(_K_TAIL, K)
    js = np.arange(K - k_cal + 1, K + 1, dtype=float)
    c = float(np.exp(np.mean(np.log(lam[-k_cal:]) - rho * np.log(js))))
    tail = c ** -p * K ** (1.0 - rho * p) / (rho * p - 1.0)
    return SchattenTrace(p, float(np.sum(lam ** -p)), tail, False)


@dataclass(frozen=True)
class InteractionKernel:
    """Nonnegative pair interaction w(x - y), named as in a config file.

    delta:    g * delta(x - y).
    constant: w = g.
    gaussian: w(d) = g * exp(-(d / width)^2 / 2), width > 0.
    g >= 0 (defocusing) for every name, and g = 0 is the free case; g and
    width must be finite, and only gaussian reads a width.
    """

    name: str
    g: float = 0.0
    width: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.g) and math.isfinite(self.width)):
            raise ValueError("kernel g and width must be finite")
        if self.name not in _KERNELS:
            raise ValueError(f"unknown kernel name {self.name!r}")
        if self.g < 0:
            raise ValueError("kernel g must be nonnegative (defocusing)")
        if self.name == "gaussian" and self.width <= 0:
            raise ValueError("gaussian kernel needs width > 0")
        if self.name != "gaussian" and self.width != 0:
            raise ValueError("only the gaussian kernel reads a width")

    @property
    def is_zero(self) -> bool:
        return self.g == 0


@dataclass(frozen=True)
class TwoBodyTensor:
    """Matrix elements W[i,j,k,l] = <u_i u_j| w |u_k u_l> in the mode basis.

    parity[j] is the reflection class (0/1) of mode j. Every entry whose
    four classes sum to an odd number is exactly zero, so the pair term
    conserves (-1)^(occupation of the odd modes). Left out, every mode is
    in class 0: one class, no constraint. The entries are real; complex
    ones are refused.
    """

    entries: np.ndarray
    parity: np.ndarray | None = None

    def __post_init__(self):
        if np.iscomplexobj(self.entries):
            raise ValueError("two-body tensor entries must be real")
        if self.parity is None:
            object.__setattr__(self, "parity", np.zeros(self.K, dtype=np.int64))

    @classmethod
    def with_parity(cls, entries: np.ndarray,
                    parity: np.ndarray | None) -> "TwoBodyTensor":
        """Tensor whose modes carry the reflection classes `parity`, its
        parity-forbidden entries set to zero once each is checked to be at
        most 1e-10 max|W| (quadrature noise). With parity None or a failed
        check, every mode gets class 0 and the entries are kept as given."""
        if parity is None:
            return cls(entries)
        p = np.asarray(parity, dtype=np.int64)
        forbidden = np.add.outer(np.add.outer(p, p), np.add.outer(p, p)) % 2 == 1
        if np.abs(entries[forbidden]).max(initial=0.0) \
                > _PARITY_TOL * np.abs(entries).max(initial=0.0):
            return cls(entries)
        return cls(np.where(forbidden, 0.0, entries), p)

    @property
    def K(self) -> int:
        return self.entries.shape[0]

    def pair_matrix(self) -> np.ndarray:
        """W_2 = C^T W C, the pair interaction on Sym^2(C^K) in the
        occupation basis (Recurrence sector 2), for energies tr[W_2 G^(2)]
        and F_NL. Column p of the isometry C holds the product-basis
        coefficients of |e_p>. Built from entries on every call, as they
        are a mutable array."""
        K = self.K
        occs = Recurrence.graded(K, 2).sector(2)
        C = np.zeros((K * K, occs.shape[0]))
        for p, row in enumerate(occs):
            i, j = np.repeat(np.arange(K), row)  # the occupied modes, i <= j
            C[[i * K + j, j * K + i], p] = \
                1.0 if i == j else 1.0 / math.sqrt(2.0)
        return C.T @ self.entries.reshape(K * K, K * K) @ C


def _difference_matrix(profile: np.ndarray, periodic: bool) -> np.ndarray:
    """w(x_i - x_j) from the profile w(i dx), i < n (even extension)."""
    n = profile.size
    idx = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    if periodic:
        idx = np.minimum(idx, n - idx)
    return profile[idx]


def interaction_elements(basis: SpectralBasis, kernel: InteractionKernel) -> TwoBodyTensor:
    """Two-body tensor of the pair interaction in the spectral basis.

    Delta kernels reduce to the single quadrature g * sum_x u_i u_j u_k u_l dx
    (legitimate in 1D); constant and gaussian kernels use the double
    quadrature over w(x - y), its profile w(i dx) sampled on the basis grid.
    The modes' reflection classes (`SpectralBasis.parity`) go to
    `TwoBodyTensor.with_parity`, which zeroes the parity-forbidden entries
    after checking them, or falls back to one class.
    """
    U = basis.eigenvectors
    dx = basis.grid.dx
    n = basis.grid.n
    K = basis.K
    W = np.zeros((K, K, K, K))

    if not kernel.is_zero and kernel.name == "delta":
        W += kernel.g * np.einsum("ix,jx,kx,lx->ijkl", U, U, U, U * dx)
    elif not kernel.is_zero:
        d = dx * np.arange(n)
        profile = (np.full(n, kernel.g) if kernel.name == "constant"
                   else kernel.g * np.exp(-0.5 * (d / kernel.width) ** 2))
        Wmat = _difference_matrix(profile, basis.grid.periodic)
        A = np.einsum("ix,kx->ikx", U, U).reshape(K * K, n)
        M = (A @ Wmat @ A.T) * dx * dx
        W += M.reshape(K, K, K, K).transpose(0, 2, 1, 3)
    return TwoBodyTensor.with_parity(W, basis.parity())


def basis_to_csv(basis: SpectralBasis, path) -> None:
    """Dump modes as CSV rows: j, lambda_j, then the grid values."""
    with open(path, "w", encoding="utf-8") as fh:
        cols = ",".join(f"u_x{i}" for i in range(basis.grid.n))
        fh.write(f"j,lambda_j,{cols}\n")
        for j in range(basis.K):
            vals = ",".join(f"{v:.17g}" for v in basis.eigenvectors[j])
            fh.write(f"{j + 1},{basis.eigenvalues[j]:.17g},{vals}\n")
