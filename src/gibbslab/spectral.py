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
_K_TAIL = 8  # top eigenvalues that calibrate the Schatten tail


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
        if self.domain == "anharmonic":
            if self.a is None or self.a <= 2:
                raise ValueError("anharmonic exponent must satisfy a > 2")
            if self.half_width is None or self.half_width <= 0:
                raise ValueError("anharmonic box needs half_width > 0")
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
    if spec.domain == "anharmonic":
        L = float(spec.half_width)
        dx = 2.0 * L / (n + 1)
        nodes = -L + dx * np.arange(1, n + 1)
        potential = np.abs(nodes) ** spec.a + spec.m
        diag = 2.0 / dx**2 + potential
        off = np.full(n - 1, -1.0 / dx**2)
        grid = Grid(nodes, np.full(n, dx), dx)
        return DiscreteOperator(diag, off, 0.0, grid, spec)

    if spec.bc == "dirichlet":
        dx = 2.0 / (n + 1)
        nodes = -1.0 + dx * np.arange(1, n + 1)
        diag = np.full(n, 2.0 / dx**2 + spec.m)
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

    def orthonormality_defect(self) -> float:
        G = (self.eigenvectors * self.grid.weights) @ self.eigenvectors.T
        return float(np.abs(G - np.eye(self.K)).max())


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
    """Lowest K eigenpairs, quadrature-orthonormalized, deterministic."""
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
    """Nonnegative pair interaction w(x - y).

    variant "delta":   g * delta(x - y), g >= 0.
    variant "bounded": samples w(|d|) >= 0 on the difference grid, values[i]
                       at offset i * dx (the even extension is implied).
    """

    variant: str
    g: float = 0.0
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.variant not in ("delta", "bounded"):
            raise ValueError(f"unknown kernel variant {self.variant!r}")
        if self.g < 0:
            raise ValueError("delta coupling must be nonnegative (defocusing)")
        if self.values is not None and np.any(np.asarray(self.values) < 0):
            raise ValueError("bounded kernel values must be nonnegative")

    @classmethod
    def delta(cls, g: float) -> "InteractionKernel":
        return cls(variant="delta", g=g)

    @classmethod
    def bounded(cls, values) -> "InteractionKernel":
        return cls(variant="bounded", values=np.asarray(values, dtype=float))

    @property
    def is_zero(self) -> bool:
        if self.variant == "delta":
            return self.g == 0.0
        return self.values is None or not np.any(self.values)


@dataclass(frozen=True)
class TwoBodyTensor:
    """Matrix elements W[i,j,k,l] = <u_i u_j| w |u_k u_l> in the mode basis."""

    entries: np.ndarray

    @property
    def K(self) -> int:
        return self.entries.shape[0]

    def hermiticity_defect(self) -> float:
        W = self.entries
        return float(np.abs(W - np.conj(W.transpose(2, 3, 0, 1))).max())

    def boson_symmetry_defect(self) -> float:
        W = self.entries
        return float(np.abs(W - W.transpose(1, 0, 3, 2)).max())


def _difference_matrix(kernel_values: np.ndarray, n: int, periodic: bool) -> np.ndarray:
    idx = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    if periodic:
        idx = np.minimum(idx, n - idx)
    vals = np.asarray(kernel_values, dtype=float)
    if vals.size < idx.max() + 1:
        vals = np.concatenate([vals, np.zeros(idx.max() + 1 - vals.size)])
    return vals[idx]


def interaction_elements(basis: SpectralBasis, kernel: InteractionKernel) -> TwoBodyTensor:
    """Two-body tensor of the pair interaction in the spectral basis.

    Delta kernels reduce to the single quadrature g * sum_x u_i u_j u_k u_l dx
    (legitimate in 1D); bounded kernels use the double quadrature over
    w(x - y).
    """
    U = basis.eigenvectors
    dx = basis.grid.dx
    n = basis.grid.n
    K = basis.K
    W = np.zeros((K, K, K, K))

    if kernel.variant == "delta":
        if kernel.g != 0.0:
            W += kernel.g * np.einsum("ix,jx,kx,lx->ijkl", U, U, U, U * dx)
        return TwoBodyTensor(W)

    if kernel.values is not None and np.any(kernel.values):
        Wmat = _difference_matrix(kernel.values, n, basis.grid.periodic)
        A = np.einsum("ix,kx->ikx", U, U).reshape(K * K, n)
        M = (A @ Wmat @ A.T) * dx * dx
        W += M.reshape(K, K, K, K).transpose(0, 2, 1, 3)
    return TwoBodyTensor(W)


def basis_to_csv(basis: SpectralBasis, path) -> None:
    """Dump modes as CSV rows: j, lambda_j, then the grid values."""
    with open(path, "w", encoding="utf-8") as fh:
        cols = ",".join(f"u_x{i}" for i in range(basis.grid.n))
        fh.write(f"j,lambda_j,{cols}\n")
        for j in range(basis.K):
            vals = ",".join(f"{v:.17g}" for v in basis.eigenvectors[j])
            fh.write(f"{j + 1},{basis.eigenvalues[j]:.17g},{vals}\n")
