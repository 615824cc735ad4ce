"""Occupation multi-indices for symmetric tensor powers of C^K.

Both sides of the comparison (classical field moments and quantum reduced
density matrices) are expressed on Sym^k(C^K) in the same basis: occupation
multi-indices (n_1, ..., n_K) with sum k, enumerated in colexicographic
order, with the multinomially normalized symmetric basis vectors

    |e_n> = sqrt(prod_j n_j! / k!) * sum over distinct orderings.

A product vector then has components <e_n | v^{(x) k}> = N_n * prod_j v_j^{n_j}
with N_n = sqrt(k! / prod_j n_j!), i.e. sqrt(k!) times the amplitudes
prod_j v_j^{n_j} / sqrt(n_j!) that `kernels.occupation_products` builds on
the graded index set of `graded_indices`.

The index sets come from `kernels.Recurrence.graded`, which also enumerates
the Fock basis, so every side reads one enumeration; nothing is cached.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import Recurrence

__all__ = [
    "multi_indices",
    "graded_indices",
    "sym_dim",
    "pair_embedding",
    "two_body_sym_matrix",
]


def sym_dim(K: int, k: int) -> int:
    """Dimension C(K+k-1, k) of Sym^k(C^K)."""
    return math.comb(K + k - 1, k)


def multi_indices(K: int, total: int) -> np.ndarray:
    """All occupation multi-indices with the given total, colex order.

    Colexicographic: indices are compared at the last coordinate where they
    differ, so e.g. for K=2, total=2 the order is (2,0), (1,1), (0,2).
    Returns an int64 array of shape (sym_dim(K, total), K).
    """
    if K < 1 or total < 0:
        raise ValueError("need K >= 1 and total >= 0")
    rec = Recurrence.graded(K, total)
    return rec.occs[rec.offsets[total]:]


def graded_indices(K: int, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Multi-indices of totals 0..n_max, sector after sector, and offsets.

    Returns (occs, offsets) with sector n in rows offsets[n]:offsets[n + 1].
    The set is closed under removing a particle, which is what
    `kernels.occupation_products` needs.
    """
    rec = Recurrence.graded(K, n_max)
    return rec.occs, rec.offsets


def pair_embedding(K: int) -> np.ndarray:
    """Isometry C from Sym^2(C^K) into C^K (x) C^K.

    Column p of C holds the product-basis coefficients of the normalized
    symmetric pair vector |e_p>, so a two-body operator given as a K^2 x K^2
    matrix M restricts to the symmetric space as C^T M C.
    """
    occs = multi_indices(K, 2)
    C = np.zeros((K * K, occs.shape[0]))
    for p, row in enumerate(occs):
        modes = np.flatnonzero(row)
        if len(modes) == 1:
            i = modes[0]
            C[i * K + i, p] = 1.0
        else:
            i, j = modes
            C[i * K + j, p] = 1.0 / math.sqrt(2.0)
            C[j * K + i, p] = 1.0 / math.sqrt(2.0)
    return C


def two_body_sym_matrix(W: np.ndarray) -> np.ndarray:
    """Restrict a two-body tensor W[i,j,k,l] = <u_i u_j|w|u_k u_l> to Sym^2.

    Returns the sym_dim(K,2) x sym_dim(K,2) matrix of the pair interaction in
    the occupation basis; used for energies tr[w G^(2)] on the symmetric space.
    """
    K = W.shape[0]
    M = W.reshape(K * K, K * K)
    C = pair_embedding(K)
    return C.T @ M @ C
