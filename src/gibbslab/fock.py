"""Truncated bosonic Fock space: Hamiltonians, Gibbs states, marginals.

The Fock space over K modes is truncated at total occupation n_max and
enumerated in graded colexicographic order, so every operator built here is
block diagonal across total-particle sectors whenever it commutes with the
number operator. Every state the lab builds (Gibbs states, the free state,
the symmetrized trial state) commutes with it too, so a FockState is
stored as one real block per (sector, symmetry class). A state diagonal in
the occupation basis, as the free Gibbs state is, is a DiagonalState: its
diagonal alone, and the reference of every relative entropy.

Reduced k-body matrices follow the binomial-weight convention
tr[A Gamma^(k)] = sum_n C(n,k) tr[(A (x)_s 1) G_n], so tr Gamma^(1) equals
the mean particle number; the mean-field rescaling k!/T^k happens only in
the convergence driver.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.linalg.lapack import dstevd
from scipy.special import gammaln, logsumexp

from .classical import MomentMatrix
from .kernels import (Recurrence, _dsyevd, _syevd_sizes, _workers,
                      two_body_coo)
from .spectral import TwoBodyTensor

__all__ = [
    "FockBasis",
    "FockOperator",
    "FockState",
    "DiagonalState",
    "EnergySplit",
    "ThermalPoint",
    "build_fock_basis",
    "ladder",
    "build_hamiltonian",
    "gibbs_state",
    "reduced_density_matrix",
    "reduced_dm_normal_ordered",
    "particle_number",
    "energy_decomposition",
    "two_body_energy",
    "pair_energy",
    "relative_entropy",
    "relative_free_energy",
    "free_sector_weights",
    "choose_n_max",
    "solve_point",
    "random_state",
]

_LOG_FLOOR = 1e-300
_N_MAX_FLOOR = 4  # smallest cutoff choose_n_max returns


@dataclass(frozen=True)
class FockBasis:
    """Occupation basis with total occupation <= n_max, graded colex order,
    with the parent table it was enumerated with (kernels.Recurrence), which
    every coherent walk on the basis reads."""

    K: int
    n_max: int
    recurrence: Recurrence
    strides: np.ndarray
    table: np.ndarray

    @property
    def occupations(self) -> np.ndarray:
        return self.recurrence.occs

    @property
    def sector_offsets(self) -> np.ndarray:
        return self.recurrence.offsets

    @property
    def dim(self) -> int:
        return self.occupations.shape[0]

    def sector_slice(self, n: int) -> slice:
        return slice(int(self.sector_offsets[n]), int(self.sector_offsets[n + 1]))

    def sector_dim(self, n: int) -> int:
        return int(self.sector_offsets[n + 1] - self.sector_offsets[n])

    def matches(self, other: FockBasis) -> bool:
        """Same mode count and cutoff, hence the same enumerated basis."""
        return self.K == other.K and self.n_max == other.n_max


def build_fock_basis(K: int, n_max: int, dim_budget: int = 20000) -> FockBasis:
    """Enumerate the truncated basis; fails fast on dimension overflow."""
    if K < 1 or n_max < 0:
        raise ValueError("need K >= 1 and n_max >= 0")
    dim = math.comb(K + n_max, K)
    if dim > dim_budget:
        raise ValueError(f"Fock dimension {dim} exceeds the budget {dim_budget}")
    strides = (n_max + 1) ** np.arange(K, dtype=np.int64)
    span = (n_max + 1) ** K
    if span > (1 << 26):
        raise ValueError("radix lookup too large; reduce K or n_max")
    rec = Recurrence.graded(K, n_max)
    table = np.full(span, -1, dtype=np.int64)
    table[rec.occs @ strides] = np.arange(dim, dtype=np.int64)
    return FockBasis(K=K, n_max=n_max, recurrence=rec, strides=strides,
                     table=table)


def ladder(basis: FockBasis, j: int):
    """(a_j, a_j^dagger) as sparse matrices; creation out of the top sector
    is truncated to zero, so [a_i, a_j^dag] = delta_ij only below n_max."""
    if not 1 <= j <= basis.K:
        raise ValueError(f"mode index {j} outside 1..{basis.K}")
    col = j - 1
    occ = basis.occupations
    src = np.flatnonzero(occ[:, col] > 0)
    dst = basis.table[(occ[src] @ basis.strides) - basis.strides[col]]
    vals = np.sqrt(occ[src, col].astype(float))
    a = sparse.csr_matrix((vals, (dst, src)), shape=(basis.dim, basis.dim))
    return a, a.T.tocsr()


@dataclass(frozen=True)
class FockOperator:
    """Real symmetric operator on the truncated Fock space.

    labels[i] is the symmetry class of basis state i; the operator has no
    entry between two sectors or two labels, so the Gibbs solver
    (_gibbs_sectors) diagonalizes each class of a sector on its own.
    """

    basis: FockBasis
    matrix: sparse.csr_matrix
    labels: np.ndarray

    def class_block(self, rows: np.ndarray) -> np.ndarray:
        """The dense block on the basis indices rows."""
        return self.matrix[rows][:, rows].toarray()

    def hermiticity_defect(self) -> float:
        return _asymmetry(self.matrix)


def _asymmetry(A: sparse.csr_matrix) -> float:
    """max |A - A^T| over the stored entries, 0 when A is symmetric."""
    d = A - A.T
    return float(np.abs(d.data).max()) if d.nnz else 0.0


def _has_pair_term(tensor: TwoBodyTensor, lam: float) -> bool:
    """Whether lam * W is a nonzero operator: lam != 0 and W has an entry."""
    return lam != 0.0 and bool(np.any(tensor.entries))


# Triplets of one two_body_coo call in the assembly of H: a run of sectors
# is cut where rows * count_nonzero(W) would pass it.
_TRIPLETS = 1 << 18


def build_hamiltonian(basis: FockBasis, eigenvalues: np.ndarray,
                      tensor: TwoBodyTensor, lam: float) -> FockOperator:
    """H = sum_j lambda_j a_j+ a_j + lam * (1/2) sum W[ijkl] a_i+ a_j+ a_l a_k.

    The normal-ordered two-body term reproduces sum_{p<q} w(x_p - x_q) on
    every n-particle sector; it annihilates the vacuum and the one-particle
    sector and keeps the operator block diagonal in total particle number.
    It also conserves the reflection parity (-1)^(occupation of the odd
    modes) of the tensor's mode classes, which labels each basis state.

    H is its sector runs (_hamiltonian_runs) laid on the diagonal: the
    blocks solve_point's Gibbs stream assembles one at a time, each
    dropped once solved, which is how the sweep gets H; this whole matrix
    serves the selfchecks, the energy split and callers of gibbs_state.
    Each run's rows are stacked with their columns moved to the whole
    basis, so no whole-basis COO is held, and H is bitwise the one of a
    single COO -> CSR conversion.
    """
    labels, runs = _hamiltonian_runs(basis, eigenvalues, tensor, lam)
    stacked = [sparse.csr_matrix((M.data, M.indices + lo, M.indptr),
                                 shape=(M.shape[0], basis.dim))
               for lo, M in runs]
    return FockOperator(basis, sparse.vstack(stacked, format="csr"), labels)


def _hamiltonian_runs(basis: FockBasis, eigenvalues: np.ndarray,
                      tensor: TwoBodyTensor, lam: float):
    """The labels of H (build_hamiltonian) and a generator of its sector
    runs (_sector_runs) as (lo, M), M the CSR block of H on the states
    lo:hi, which H couples to no other state. The arguments are checked
    at once; a run is assembled on the calling thread when the generator
    is advanced to it, and the generator keeps none it has yielded.

    Each run is one two_body_coo call on its states, with at most
    _TRIPLETS triplets unless it is one sector, and its triplets become its
    CSR rows at once. The operator conserves the particle number, so the
    triplets whose columns are a run's states are every entry of its rows,
    and each row's duplicates come in the order a whole-basis call gives
    them: every entry has the bits of a single COO -> CSR conversion.
    Without a pair term H is diagonal, and one run.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    if eigenvalues.size != basis.K:
        raise ValueError("one-body spectrum size does not match the mode count")
    if lam < 0:
        raise ValueError("coupling must be nonnegative")
    if tensor.K != basis.K:
        raise ValueError("two-body tensor mode count does not match basis")
    diag = basis.occupations @ eigenvalues

    def runs():
        if not _has_pair_term(tensor, lam):
            yield 0, sparse.diags(diag).tocsr()
            return
        W = tensor.entries
        for lo, hi in _sector_runs(basis, np.count_nonzero(W)):
            yield lo, _run_matrix(basis, lo, hi, diag, W, lam)

    return basis.occupations @ tensor.parity % 2, runs()


def _run_matrix(basis: FockBasis, lo: int, hi: int, diag: np.ndarray,
                W: np.ndarray, lam: float) -> sparse.csr_matrix:
    """The block of H on the states lo:hi of one sector run."""
    rows, cols, vals = two_body_coo(basis.occupations[lo:hi], basis.table,
                                    basis.strides, W)
    pair = sparse.coo_matrix((vals, (rows - lo, cols)),
                             shape=(hi - lo, hi - lo)).tocsr()
    del rows, cols, vals  # not held while the sum is formed
    return sparse.diags(diag[lo:hi]).tocsr() + lam * pair


def _sector_runs(basis: FockBasis, per_row: int):
    """(lo, hi) basis ranges of consecutive sectors, in order, each cut
    before the sector that would take its rows * per_row past _TRIPLETS;
    a sector past it alone is a run of its own."""
    edges = [0]
    offsets = basis.sector_offsets.tolist()
    for lo, hi in zip(offsets[1:-1], offsets[2:]):
        if (hi - edges[-1]) * per_row > _TRIPLETS:
            edges.append(lo)
    edges.append(offsets[-1])
    return zip(edges[:-1], edges[1:])


@dataclass(frozen=True)
class FockState:
    """Positive trace-one operator commuting with the number operator and
    zero between classes: blocks holds (n, rows, G) in sector order, G the
    state on the basis indices rows (ascending) of one class of sector n.
    The blocks of a stored sector partition that sector, and a sector with
    no block is zero. Blocks are real, as the lab's Hamiltonian (real modes
    and pair tensor) is, and a complex one is refused. One diagonal in the
    occupation basis can be a DiagonalState instead."""

    basis: FockBasis
    blocks: tuple

    def __post_init__(self):
        if any(np.iscomplexobj(G) for *_, G in self.blocks):
            raise ValueError("FockState blocks must be real")

    @classmethod
    def from_sectors(cls, basis: FockBasis, mats) -> FockState:
        """One class per sector: mats[n] is the whole block of sector n."""
        rows = np.split(np.arange(basis.dim), basis.sector_offsets[1:-1])
        return cls(basis, tuple(zip(range(basis.n_max + 1), rows, mats)))

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.basis.dim,) * 2)
        for _, rows, G in self.blocks:
            out[rows[:, None], rows] = G
        return out

    def sector_probabilities(self) -> np.ndarray:
        # a sector with no block keeps its zeros
        diag = np.zeros(self.basis.dim)
        for _, rows, G in self.blocks:
            diag[rows] = np.diagonal(G)
        return _sector_sums(self.basis, diag)


def _sector_sums(basis: FockBasis, diag: np.ndarray) -> np.ndarray:
    """Each sector's sum of a diagonal in basis order, so a state's sum is
    its sector's trace."""
    return np.array([diag[basis.sector_slice(n)].sum()
                     for n in range(basis.n_max + 1)])


@dataclass(frozen=True)
class DiagonalState:
    """Positive trace-one operator diagonal in the occupation basis, stored
    as its diagonal (p[i] is the weight of basis state i)."""

    basis: FockBasis
    p: np.ndarray

    def __post_init__(self):
        if np.shape(self.p) != (self.basis.dim,):
            raise ValueError("diagonal length does not match the basis dim")

    def sector_probabilities(self) -> np.ndarray:
        return np.add.reduceat(self.p, self.basis.sector_offsets[:-1])


def _class_blocks(basis: FockBasis, labels: np.ndarray, lo: int,
                  M: sparse.csr_matrix):
    """The (sector, class) blocks of the operator whose block on the basis
    states lo:lo + m is M (m x m, CSR), which it couples to no other
    state, as (n, rows, r, c, v): rows the block's basis indices
    (ascending) and v its stored entries at the in-block positions (r, c),
    in ascending sector, then label, order; labels[i] is the class of basis
    state i.

    M is checked first: a complex M, one with a non-finite entry and one
    whose M - M^T passes 1e-10 are refused. The stable sort order by
    (sector, label) lays each block on a run of consecutive states, so in
    M permuted by order a block's entries are one slice of the COO rows. A
    stored nonzero outside every run is refused. The whole of an operator
    is the case lo = 0, M its matrix.
    """
    if np.iscomplexobj(M):
        raise ValueError("Hamiltonian must be real")
    if not np.isfinite(M.data).all():
        raise ValueError("Hamiltonian has non-finite entries")
    if _asymmetry(M) > 1e-10:
        raise ValueError("Hamiltonian is not symmetric")
    hi = lo + M.shape[0]
    sector, labels = basis.occupations[lo:hi].sum(axis=1), labels[lo:hi]
    order = np.lexsort((labels, sector))
    P = M[order][:, order]
    P.sum_duplicates()
    P.eliminate_zeros()
    P = P.tocoo()
    s, labels = sector[order], labels[order]
    run = np.concatenate(([0], np.cumsum((s[1:] != s[:-1])
                                         | (labels[1:] != labels[:-1]))))
    if np.any(run[P.row] != run[P.col]):
        raise ValueError("H couples states of different classes or sectors")
    edges = np.searchsorted(run, np.arange(run[-1] + 2))
    bounds = np.searchsorted(P.row, edges)
    for a, b, p, q in zip(edges[:-1], edges[1:], bounds[:-1], bounds[1:]):
        yield (int(s[a]), lo + order[a:b], P.row[p:q] - a, P.col[p:q] - a,
               P.data[p:q])


def _widest_class(basis: FockBasis, labels: np.ndarray) -> int:
    """Rows of the widest (sector, class) block of an operator on basis
    whose basis state i has class labels[i], from a bincount of the
    (sector, label) pairs."""
    sector = basis.occupations.sum(axis=1)
    _, label = np.unique(labels, return_inverse=True)
    return int(np.bincount(sector * (label.max() + 1) + label).max())


def _workspace(d: int):
    """One dense solve's arrays for blocks of up to d rows: dsyevd's work
    and iwork for d rows, about 2 d^2 doubles. work is longer than d^2, so
    V V^T is formed in it once dsyevd returns (_solve_block)."""
    lwork, liwork = _syevd_sizes(d)
    return np.empty(lwork), np.empty(liwork, np.intc)


class _Workspaces:
    """The dense-solve workspaces of one Gibbs solve, each sized for its
    widest class block (_widest_class) and each dsyevd's work and iwork
    alone (_workspace): the block itself is solved in its own place. A
    solve takes a spare one, or makes one when none is spare, and gives it
    back when it ends, failed or not, so there are at most as many as
    solves run at once; they are dropped with this object."""

    def __init__(self, d: int):
        self.d, self.spare = d, []

    @contextmanager
    def take(self):
        # list.pop and list.append are atomic, so the pool threads share
        # the list without a lock
        try:
            ws = self.spare.pop()
        except IndexError:
            ws = _workspace(self.d)
        try:
            yield ws
        finally:
            self.spare.append(ws)


def _solve_block(G: np.ndarray, r: np.ndarray, c: np.ndarray, v: np.ndarray,
                 T: float, workspaces: _Workspaces | None = None) -> np.ndarray:
    """Solve the class block whose entries v lie at (r, c) and write
    V V^T into G, a C-ordered array, V = U exp(-lam/2T), formed over U
    (_gram); return lam.

    Without workspaces the block is tridiagonal, and LAPACK's stevd gets
    its diagonal and lower off-diagonal straight from the triplets. With
    them, the dense route solves in G's own memory: the block is scattered
    into G.T, the layout numpy.linalg.eigh's copy has, Fortran (i, j) =
    block[i, j], and dsyevd (kernels._dsyevd, with the GIL released)
    solves it there, reading the lower triangle, bitwise as numpy's eigh.
    V V^T is then formed in the taken workspace's work array, which dsyevd
    no longer needs and which is longer than d^2, and copied into G. Pool
    threads run the dense route, so it calls numpy and kernels' private
    routes alone.
    """
    d = G.shape[0]
    if workspaces is None:
        diag, low = np.zeros(d), np.zeros(max(d - 1, 1))
        on, below = r == c, r == c + 1
        diag[r[on]] = v[on]
        low[c[below]] = v[below]
        lam, U, info = dstevd(diag, low)
        if info:
            raise np.linalg.LinAlgError(f"stevd failed with info {info}")
        return _gram(U, lam, T, G)
    with workspaces.take() as (work, iwork):
        U = G.T
        U.fill(0.0)
        U[r, c] = v
        lam = np.empty(d)
        info = _dsyevd(U, lam, work, iwork)
        if info:
            raise np.linalg.LinAlgError(f"dsyevd failed with info {info}")
        VVt = work[:d * d].reshape(d, d)
        _gram(U, lam, T, VVt)
        G[...] = VVt
        return lam


def _gram(U: np.ndarray, lam: np.ndarray, T: float,
          G: np.ndarray) -> np.ndarray:
    """G = V V^T with V = U exp(-lam/2T) formed over U: one syrk (half the
    flops of (U w) U^T, and exactly symmetric). Returns lam."""
    U *= np.exp(-lam / (2.0 * T))
    np.matmul(U, U.T, out=G)
    return lam


# Sectors of one Gibbs solve held at once: the one the caller folds in and
# those whose blocks are on the pool or being handed to it; the pool solves
# sector n + 1 while the calling thread folds sector n.
_IN_FLIGHT = 3


def _gibbs_sectors(basis: FockBasis, labels: np.ndarray, runs, T: float):
    """Solve exp(-H/T) sector by sector: yield (n, blocks, flat, lam) in
    ascending n, blocks the [(rows, G)] of the label classes of sector n,
    G = V V^T unnormalized, flat the blocks laid end to end and one zero
    after them (each G is a view of it), and lam the sector's eigenvalues,
    sorted.

    H is given as runs, an iterable of (lo, M) in basis order, M the CSR
    block of H on the basis states lo:lo + m, whole sectors that H couples
    to no other state (_hamiltonian_runs, or one run of a whole H), and
    labels[i] is the class of basis state i. A run is taken from runs when
    the stream reaches it, on the calling thread, and cut into its class
    blocks and checked by _class_blocks: a complex run, one with a
    non-finite entry, an asymmetric one and an entry between two blocks
    are refused. The run is dropped once its blocks are handed on, so at
    most one run is held, besides the entries of blocks still in flight.
    Each block's (r, c, v) triplets go to _solve_block, and flat is never
    scattered into but by that solve: it is allocated empty but for its
    last zero, and each G is first written by its own solve. A block whose
    entries all lie within one place of the diagonal goes to LAPACK's
    tridiagonal divide-and-conquer solver (stevd) on the calling thread,
    as scipy's wrapper holds the GIL. Every other block goes to the dense
    one (dsyevd, called by ctypes without the GIL) on a pool of one thread
    per CPU this process may use; the pool assumes a single-threaded BLAS.
    A dense solve runs in G's own place, with a workspace of _Workspaces,
    of which there are at most as many as solves run at once, each about
    2 d^2 doubles for the widest class block d. dsyevd reads the lower
    triangle and on a tridiagonal input ends in the same stedc call, so
    the two give the same bits there. At most _IN_FLIGHT sectors are held,
    the one yielded included; the pool is shut down, its solves finished,
    and the workspaces dropped when the stream ends, fails or is closed.
    """
    if T <= 0:
        raise ValueError("temperature must be positive")

    def solved(n, blocks, flat, lams):
        return n, blocks, flat, np.sort(np.concatenate(
            [x if isinstance(x, np.ndarray) else x.result() for x in lams]))

    def cut(lo, M):
        # the run's blocks into pending; its locals, M and the views of its
        # permuted copy among them, go when it returns
        for n, group in groupby(_class_blocks(basis, labels, lo, M),
                                key=itemgetter(0)):
            group = list(group)
            flat = np.empty(sum(rows.size ** 2 for _, rows, *_ in group) + 1)
            flat[-1] = 0.0
            blocks, lams, at = [], [], 0
            for _, rows, r, c, v in group:
                G = flat[at:at + rows.size ** 2].reshape(rows.size, rows.size)
                at += G.size
                blocks.append((rows, G))
                lams.append(_solve_block(G, r, c, v, T)
                            if np.all(np.abs(r - c) <= 1)
                            else pool.submit(_solve_block, G, r, c, v, T,
                                             workspaces))
            pending.append((n, blocks, flat, lams))
            if len(pending) == _IN_FLIGHT - 1:
                yield solved(*pending.popleft())

    pending = deque()
    workspaces = _Workspaces(_widest_class(basis, labels))
    with ThreadPoolExecutor(_workers()) as pool:
        for run in runs:
            yield from cut(*run)
            del run  # not held while the next run is assembled
        while pending:
            yield solved(*pending.popleft())


def _fold_gibbs(basis: FockBasis, labels: np.ndarray, runs, T: float,
                orders=(), keep: bool = True):
    """Fold the sector stream of exp(-H/T), H given by its labels and runs
    (_gibbs_sectors), into the point's sums: the marginals of the given
    orders (_Marginals, which branches each sector as it arrives), the
    diagonal (in basis order) and, with keep, the blocks as (n, rows, G);
    each normalized by one exp(-log Z) scale at the end. Returns (blocks,
    layout, log Z, <H>, diagonal, marginals), layout the (n, rows) of
    every block in stream order, kept or not: the split of H into
    (sector, class) blocks.

    A sector's blocks are dropped once folded in, unless kept. log Z is the
    log-sum-exp of every eigenvalue, each sector's sorted, so it does not
    depend on the split (the class_split selfcheck holds it to whole
    sectors), and <H> = sum_i p_i eps_i, p_i = exp(-eps_i/T - log Z), is
    one dot product over the same eigenvalues, which also give the entropy
    -sum p log p = <H>/T + log Z with no second eigensolve. The sums cannot
    overflow: the vacuum's eigenvalue is 0 for every H _hamiltonian_runs
    assembles, so log Z >= 0 (and V stays finite above a spectrum of -1400 T;
    the lab's H is positive semidefinite). The kept blocks and the diagonal
    are scaled in place, so they carry the bits of a scale applied to the
    whole state; a marginal sums the unnormalized blocks and is scaled
    once, which moves it at float level against the marginal of the
    normalized blocks.
    """
    gather = _Marginals(basis, orders)
    diag = np.zeros(basis.dim)
    eigs, kept, layout = [], [], []
    for n, blocks, flat, lam in _gibbs_sectors(basis, labels, runs, T):
        eigs.append(lam)
        for rows, G in blocks:
            diag[rows] = np.diagonal(G)
            layout.append((n, rows))
        gather.add(n, blocks, flat)
        if keep:
            kept += [(n, rows, G) for rows, G in blocks]
        del blocks, flat, G  # not held while the stream scatters the next
    eigs = np.concatenate(eigs)
    log_z = float(logsumexp(-eigs / T))
    energy = float(np.exp(-eigs / T - log_z) @ eigs)
    scale = np.exp(-log_z)
    for *_, G in kept:
        G *= scale
    diag *= scale
    return kept, layout, log_z, energy, diag, gather.result(scale)


def gibbs_state(H: FockOperator, T: float):
    """exp(-H/T)/Z as (sector, class) blocks, log Z (log-sum-exp) and the
    energy <H> = sum_i p_i eps_i, p_i = exp(-eps_i/T - log Z).

    It collects the sector stream that solve_point folds (_gibbs_sectors,
    which says how each class block is cut and solved), H taken as one
    run, checked whole before any block is solved, and keeps every
    block: the solve leaves V V^T in the array the state keeps, exp(-H/T)
    unnormalized, V = U exp(-lam/2T): one syrk (half the flops of
    (U w) U^T, and exactly symmetric), and the eigenvectors are dropped at
    once. Last, every block is scaled in place by exp(-log Z) (see
    _fold_gibbs). Against exp(-lam/T - log Z) weights the blocks move at
    float level, two roundings of one number; log Z and <H> do not move.
    solve_point folds the same stream into the marginals as it arrives and
    keeps the blocks only when asked, so the sweep's rows without a
    Berezin-Lieb stage never hold every block.
    """
    blocks, _, log_z, energy, _, _ = _fold_gibbs(
        H.basis, H.labels, [(0, H.matrix)], T)
    return FockState(basis=H.basis, blocks=tuple(blocks)), log_z, energy


def _branching(basis: FockBasis, k: int, m: int, log_fact: np.ndarray):
    """Sector m + k branched over Sym^k (x) Sym^m: the places in that
    sector of p + r and the weights sqrt(prod_j C(p_j + r_j, p_j)), a row
    per k-body occupation p and a column per state r of sector m.
    log_fact[i] = gammaln(i + 1.0) for i = 0..n_max, read by index: the
    bits of gammaln on each occupation."""
    occs_k, rest = basis.recurrence.sector(k), basis.recurrence.sector(m)
    rows = basis.table[(occs_k @ basis.strides)[:, None]
                       + (rest @ basis.strides)[None, :]]
    lgamma_p = np.array([math.lgamma(i + 1.0) for i in range(k + 1)])
    p, r = occs_k[:, None, :], rest[None, :, :]
    terms = log_fact[p + r] - log_fact[r] - lgamma_p[p]
    logs = terms[..., 0]
    for j in range(1, basis.K):  # in mode order: np.sum would add in another
        logs = logs + terms[..., j]
    return rows - basis.sector_offsets[m + k], np.exp(0.5 * logs)


def reduced_density_matrix(state: FockState, k: int) -> MomentMatrix:
    """k-body marginal by symmetric partial trace with binomial weights.

    Expanding each sector's symmetric basis over Sym^k (x) Sym^(n-k) turns
    the weighted partial trace into the gather
        Gamma^(k)[p, q] = sum_n sum_r c(p,r) c(q,r) G_n[p+r, q+r],
    with c(p,r) = sqrt(prod_j C(p_j+r_j, p_j)) branched where sector n is
    read (_branching). Each sector is one gather of the Dk^2 |rest| entries
    G_n[p+r, q+r] and one reduction over r. The gather reads the sector's
    class blocks laid end to end, and a pair in different classes reads the
    exact zero put after them. A sector with no block is zero, skipped.
    """
    if not 1 <= k <= state.basis.n_max:
        raise ValueError(f"order k={k} outside 1..n_max={state.basis.n_max}")
    return _state_marginals(state, (k,))[k]


def _state_marginals(state: FockState, orders) -> dict:
    """The marginals of the given orders, fed to _Marginals by sector."""
    sectors = {}
    for n, rows, G in state.blocks:
        sectors.setdefault(n, []).append((rows, G))
    gather = _Marginals(state.basis, orders)
    for n in sorted(sectors):
        gather.add(n, sectors[n], np.concatenate(
            [G.ravel() for _, G in sectors[n]] + [np.zeros(1)]))
    return gather.result()


class _Marginals:
    """Running sums of the marginals of the given orders, one sector at a
    time; the gather of reduced_density_matrix over every sector added.
    It holds the Dk x Dk sums alone: a sector is branched as it is added."""

    def __init__(self, basis: FockBasis, orders):
        self.basis = basis
        self.log_fact = gammaln(np.arange(1.0, basis.n_max + 2.0))
        self.sums = {k: np.zeros((basis.recurrence.sector(k).shape[0],) * 2)
                     for k in orders}

    def add(self, n: int, blocks, flat: np.ndarray) -> None:
        """Add sector n, given as its class blocks [(rows, G)] and flat,
        the blocks' entries laid end to end and one zero after them: a pair
        in different classes reads that zero."""
        orders = [k for k in self.sums if k <= n]
        if not orders:
            return
        # block, place in the block and row start in flat, by place in sector n
        cls, pos, start = np.empty((3, self.basis.sector_dim(n)), np.int64)
        at = 0
        for c, (g, G) in enumerate(blocks):
            g = g - self.basis.sector_offsets[n]
            cls[g], pos[g] = c, np.arange(g.size)
            start[g] = at + pos[g] * g.size
            at += G.size
        for k in orders:
            rows, c = _branching(self.basis, k, n - k, self.log_fact)
            a, b = rows[:, None], rows[None, :]
            vals = flat[np.where(cls[a] == cls[b], start[a] + pos[b], -1)]
            self.sums[k] += (c[:, None, :] * c[None, :, :] * vals).sum(axis=-1)

    def result(self, scale: float = 1.0) -> dict:
        """{k: MomentMatrix} of the sums, symmetrized and times scale."""
        return {k: MomentMatrix(k=k, entries=0.5 * (g + g.T) * scale,
                                occupations=self.basis.recurrence.sector(k))
                for k, g in self.sums.items()}


def reduced_dm_normal_ordered(state: FockState, k: int) -> MomentMatrix:
    """Same marginal from normal-ordered ladder expectations.

    Entry (p, q) is tr[prod_j (a_j+)^{q_j} prod_j a_j^{p_j} state] divided by
    sqrt(prod p_j! prod q_j!), built from explicit sparse operator products;
    an algebraically independent route used to cross-check the partial trace.
    """
    basis = state.basis
    if not 1 <= k <= basis.n_max:
        raise ValueError(f"order k={k} outside 1..n_max={basis.n_max}")
    occs_k = basis.recurrence.sector(k)
    Dk = occs_k.shape[0]
    lowering = [ladder(basis, j + 1)[0] for j in range(basis.K)]
    dense = state.to_dense()

    def chain(powers, ops):
        M = sparse.identity(basis.dim, format="csr")
        for j, pw in enumerate(powers):
            for _ in range(int(pw)):
                M = ops[j] @ M
        return M

    ann = [chain(p, lowering) for p in occs_k]
    out = np.zeros((Dk, Dk))
    for b, q in enumerate(occs_k):
        cre = ann[b].T.tocsr()
        for a, p in enumerate(occs_k):
            O = (cre @ ann[a]).tocoo()
            val = np.sum(O.data * dense[O.col, O.row])
            norm = math.sqrt(math.prod(math.factorial(int(x)) for x in p)
                             * math.prod(math.factorial(int(x)) for x in q))
            out[a, b] = val / norm
    return MomentMatrix(k=k, entries=out, occupations=occs_k)


def particle_number(state: FockState) -> float:
    """tr[N state]; equals tr of the one-body marginal."""
    probs = state.sector_probabilities()
    return float(np.sum(np.arange(probs.size) * probs))


def two_body_energy(state: FockState, tensor: TwoBodyTensor,
                    lam: float) -> float:
    """lam tr[W_2 Gamma^(2)] on Sym^2; 0 without a pair term or below n = 2."""
    if not _has_pair_term(tensor, lam) or state.basis.n_max < 2:
        return 0.0
    return pair_energy(reduced_density_matrix(state, 2), tensor, lam)


def pair_energy(g2: MomentMatrix, tensor: TwoBodyTensor, lam: float) -> float:
    """lam tr[W_2 g2] on Sym^2, for a two-body marginal g2 already built."""
    return lam * float(np.trace(tensor.pair_matrix() @ g2.entries))


@dataclass(frozen=True)
class EnergySplit:
    total: float
    one_body: float
    two_body: float


def energy_decomposition(state: FockState, eigenvalues: np.ndarray,
                         tensor: TwoBodyTensor, lam: float) -> EnergySplit:
    """tr[H state] and its exact split into one- and two-body marginals."""
    H = build_hamiltonian(state.basis, eigenvalues, tensor, lam)
    total = sum(float(np.sum(H.class_block(rows).T * G))
                for _, rows, G in state.blocks)
    g1 = reduced_density_matrix(state, 1)
    one_body = float(np.sum(np.asarray(eigenvalues) * np.diag(g1.entries)))
    return EnergySplit(total=total, one_body=one_body,
                       two_body=two_body_energy(state, tensor, lam))


def relative_entropy(state: FockState, ref: DiagonalState) -> float:
    """tr[state (log state - log ref)]; +inf on a support violation.

    The sum runs over the state's (sector, class) blocks, and its side needs
    only the eigenvalues of each. The reference is diagonal, so its
    diagonal q is its spectrum and the state's diagonal is the mass on each
    of its modes, with no eigensolve; its kernel is exactly q == 0. If the
    state carries more than 1e-9 of its mass there the support condition
    fails and +inf is returned; otherwise eigenvalues are clipped at 1e-300
    (the 0 log 0 = 0 convention). A sector with no block is zero and adds
    nothing. The sweep calls this only on trial states: the Gibbs state's
    own value comes with its spectrum (ThermalPoint.s_gibbs).
    """
    if not state.basis.matches(ref.basis):
        raise ValueError("states live on different bases")
    total, stray = 0.0, 0.0
    for _, rows, G in state.blocks:
        p = np.clip(eigh(G, eigvals_only=True), 0.0, None)
        mask = p > _LOG_FLOOR
        total += float(np.sum(p[mask] * np.log(p[mask])))
        q, mass = ref.p[rows], np.diagonal(G)
        stray += float(mass[q <= 0.0].sum())
        total -= float(np.sum(mass * np.log(np.clip(q, _LOG_FLOOR, None))))
    if stray > 1e-9:
        return math.inf
    return total


def relative_free_energy(state: FockState, free_ref: DiagonalState,
                         tensor: TwoBodyTensor, lam: float,
                         T: float) -> float:
    """lam tr[w Gamma^(2)] + T S(state | free reference).

    For the interacting Gibbs state this equals T (log Z_0 - log Z_lam); for
    any other state it is an upper bound (variational principle).
    """
    return two_body_energy(state, tensor, lam) \
        + T * relative_entropy(state, free_ref)


def free_sector_weights(eigenvalues: np.ndarray, T: float, n_cap: int) -> np.ndarray:
    """Unnormalized sector weights of the free Gibbs state up to n_cap.

    Convolves the per-mode geometric series exp(-lambda_j n / T); sector n of
    the result is sum over occupations with total n of exp(-E/T).
    """
    poly = np.array([1.0])
    for lam in np.asarray(eigenvalues, dtype=float):
        geo = np.exp(-lam / T * np.arange(n_cap + 1))
        poly = np.convolve(poly, geo)[:n_cap + 1]
    return poly


def choose_n_max(eigenvalues: np.ndarray, T: float, tail: float = 1e-8,
                 dim_budget: int = 20000) -> int:
    """Smallest cutoff (at least 4) past half the free state's mass whose
    top two sectors carry mass < tail, masses normalized by the closed-form
    free partition function Z_0 = prod_j (1 - exp(-lambda_j/T))^-1.

    The half-mass rule keeps a very hot state's nearly empty low sectors
    from passing. As N >= N_1, the lowest mode's occupation, it needs
    n + 1 > T log 2 / lambda_1, which refuses a hot point at once. The
    weights are computed once, up to the largest cutoff within dim_budget
    or, if lower, the first n where the Chernoff bound E[e^sN] e^-s(n-1) on
    P(N >= n - 1), s = 3 lambda_1 / 4T, is below min(tail, 1/2).
    """
    if not 0 < T < math.inf:
        raise ValueError("temperature must be positive and finite")
    if tail <= 0 or tail >= 1:
        raise ValueError("tail threshold must lie in (0, 1)")
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    if eigenvalues.min() <= 0:
        raise ValueError("free state needs positive one-body eigenvalues")
    K = eigenvalues.size
    # the largest cutoff whose basis fits dim_budget
    n_top = bisect_right(range(int(dim_budget) + 1), dim_budget,
                         key=lambda n: math.comb(K + n, K)) - 1
    if n_top >= _N_MAX_FLOOR \
            and n_top + 2 > T * math.log(2) / float(eigenvalues.min()):
        log_free = np.sum(np.log(-np.expm1(-eigenvalues / T)))  # -log Z_0
        # log E[e^sN] of N, a sum of independent geometric occupations
        s = 0.75 * float(eigenvalues.min()) / T
        log_mgf = log_free - np.sum(np.log(-np.expm1(s - eigenvalues / T)))
        cap = min(n_top, 2 + int((log_mgf - math.log(min(tail, 0.5))) / s))
        w = free_sector_weights(eigenvalues, T, cap) / math.exp(-log_free)
        ok = np.flatnonzero((w[:-1] + w[1:] < tail)
                            & (np.cumsum(w)[1:] > 0.5))
        if ok.size:
            return max(int(ok[0]) + 1, _N_MAX_FLOOR)
    raise ValueError(
        f"tail policy at T={T:g} needs n_max > {n_top} "
        f"(dim > {math.comb(K + n_top, K)}), over the budget {dim_budget}")


@dataclass(frozen=True)
class ThermalPoint:
    """Interacting (at lam = 1/T) and free (diagonal) Gibbs states of one T.

    energy is <H_lam> of the Gibbs state, sum_i p_i eps_i over its spectrum,
    and one_body_energy its <H_0>, the Gibbs diagonal . E with
    E = occupations @ eigenvalues. Together they give the relative entropy
        s_gibbs = S(gibbs | free)
                = (one_body_energy - energy) / T + log_z_free - log_z,
    from sum p log p = -<H_lam>/T - log Z and log q = -E/T - log Z_0.
    marginals holds Gamma^(k) of the Gibbs state for k = 1..k_max, and
    Gamma^(2) too whenever there is a pair term, which gives pair_energy
    lam tr[W_2 Gamma^(2)] (0 without a pair term); tail_mass is the weight
    of the top two sectors and particle_number <N>. layout is the (n, rows)
    of every (sector, class) block of the Gibbs state, in its order, the
    split a trial state is built on. gibbs is the Gibbs state as blocks
    when solve_point was asked to keep them, else None.
    """

    T: float
    lam: float
    basis: FockBasis
    layout: tuple
    gibbs: FockState | None
    free: DiagonalState
    log_z: float
    log_z_free: float
    energy: float
    one_body_energy: float
    s_gibbs: float
    marginals: dict
    pair_energy: float
    tail_mass: float
    particle_number: float


def solve_point(eigenvalues: np.ndarray, tensor: TwoBodyTensor, T: float, *,
                k_max: int = 1, keep_blocks: bool = True, tail: float = 1e-8,
                dim_budget: int = 20000) -> ThermalPoint:
    """Cutoff from the tail policy, then exp(-H_lam/T) at lam = 1/T (kept
    as ThermalPoint.lam) and exp(-H_0/T). H_0 is diagonal in the occupation
    basis with energies occupations @ eigenvalues, so the free state is
    written down directly; only H_lam is diagonalized, once; S(gibbs | free)
    comes from that spectrum (see ThermalPoint).

    The Gibbs solve is one sector stream (_gibbs_sectors), the one
    gibbs_state collects, over H_lam's sector runs (_hamiltonian_runs):
    each run is assembled when the stream reaches it and dropped once its
    blocks are on their way, so the whole H is never built. As each
    sector's solves finish, its blocks are
    gathered into the marginals of orders 1..k_max (and 2 with a pair
    term, for the pair energy) and its diagonal kept, and then the blocks
    are dropped unless keep_blocks; log Z scales the sums once, at the end
    (_fold_gibbs), which also records the blocks' layout. Without
    keep_blocks, at most a few sectors' blocks are held at once and
    ThermalPoint.gibbs is None. Raises ValueError when the tail policy
    needs a basis over dim_budget, or k_max is outside 1..n_max.
    """
    n_max = choose_n_max(eigenvalues, T, tail=tail, dim_budget=dim_budget)
    if not 1 <= k_max <= n_max:
        raise ValueError(f"order k={k_max} outside 1..n_max={n_max}")
    basis = build_fock_basis(len(eigenvalues), n_max, dim_budget=dim_budget)
    lam = 1.0 / T
    pair = _has_pair_term(tensor, lam)
    k_top = max(k_max, 2 if pair else 1)
    blocks, layout, log_z, energy, diag, marginals = _fold_gibbs(
        basis, *_hamiltonian_runs(basis, eigenvalues, tensor, lam), T,
        orders=range(1, k_top + 1), keep=keep_blocks)
    E = basis.occupations @ np.asarray(eigenvalues, dtype=float)
    log_z_free = float(logsumexp(-E / T))
    free = DiagonalState(basis, np.exp(-E / T - log_z_free))
    one_body = float(diag @ E)
    probs = _sector_sums(basis, diag)
    return ThermalPoint(
        T=T, lam=lam, basis=basis, layout=tuple(layout),
        gibbs=FockState(basis, tuple(blocks)) if keep_blocks else None,
        free=free, log_z=log_z, log_z_free=log_z_free, energy=energy,
        one_body_energy=one_body,
        s_gibbs=(one_body - energy) / T + log_z_free - log_z,
        marginals=marginals,
        pair_energy=pair_energy(marginals[2], tensor, lam) if pair else 0.0,
        tail_mass=float(probs[-2:].sum()),
        particle_number=float(np.sum(np.arange(probs.size) * probs)))


def random_state(basis: FockBasis, seed: int) -> FockState:
    """Random mixed state, one real block A A^T per sector; test fodder."""
    rng = np.random.default_rng(seed)
    dims = np.diff(basis.sector_offsets)
    blocks = [A @ A.T for A in (rng.standard_normal((d, d)) for d in dims)]
    tr = sum(float(np.trace(b)) for b in blocks)
    return FockState.from_sectors(basis, [b / tr for b in blocks])
