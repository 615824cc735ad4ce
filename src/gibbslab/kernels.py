"""Hot loops of the occupation basis, in numpy.

    occupation_products(vs, occs[, vacuum, out])  -- normalized amplitudes
        prod_j vs[s, j] ** occs[d, j] / sqrt(occs[d, j]!), shape (D, n),
        with no temporary above _STEP elements besides the factor table
        and a transposed copy of vs
    occupation_sectors(vs, occs[, vacuum, reach])  -- the same amplitudes
        as a stream of sectors, each column only up to its own reach
    two_body_coo(occs, table, strides, W)  -- COO triplets of the normal
        ordered two-body operator (1/2) sum W[i,j,k,l] a_i+ a_j+ a_l a_k,
        one step per annihilated pair (k, l) over every created pair and state
"""

from __future__ import annotations

import numpy as np

__all__ = ["occupation_products", "occupation_sectors", "two_body_coo"]

# Largest gather a sector step of the amplitude recurrence makes, in elements
# (128 KiB of complex128): slices of rows * n_samples <= _STEP elements, or
# one row at a time from views when a slice would hold a single row.
_STEP = 1 << 13


def _parents(occs: np.ndarray):
    """Parent row, raised mode and its occupation for every row of occs.

    The parent of a state removes one particle from its highest occupied
    mode. Returns (parent, mode, count, bounds): bounds holds the first row
    of each sector after the vacuum and ends with D.
    """
    D, K = occs.shape
    totals = occs.sum(axis=1)
    if totals[0] != 0 or np.any(np.diff(totals) < 0):
        raise ValueError("occupations must be graded and start at the vacuum")
    mode = K - 1 - np.argmax(occs[:, ::-1] > 0, axis=1)
    count = occs[np.arange(D), mode]
    base = occs.max(axis=0) + 1
    if np.sum(np.log2(base)) >= 62:
        raise ValueError("occupation numbers too large for radix keys")
    strides = np.concatenate([[1], np.cumprod(base[:-1])])
    keys = occs @ strides
    parent_keys = keys - np.where(count > 0, strides[mode], 0)
    order = np.argsort(keys)
    sorted_keys = keys[order]
    if np.any(sorted_keys[1:] == sorted_keys[:-1]):
        raise ValueError("occupation rows repeat")
    pos = np.searchsorted(sorted_keys, parent_keys).clip(0, D - 1)
    parent = order[pos]
    if np.any(keys[parent] != parent_keys):
        raise ValueError("occupation set is not closed under parents")
    bounds = np.append(np.flatnonzero(np.diff(totals)) + 1, D)
    return parent, mode, count, bounds


def _checked(vs, occs) -> tuple[np.ndarray, np.ndarray]:
    vs = np.asarray(vs, dtype=np.complex128)
    occs = np.asarray(occs, dtype=np.int64)
    if occs.shape[1] != vs.shape[1]:
        raise ValueError("occupation rows and vectors differ in mode count")
    return vs, occs


def _recurrence(vs: np.ndarray, occs: np.ndarray):
    """(parent, which, factors, bounds) of the amplitude recurrence over occs:
    row r is factors[which[r]] times row parent[r], where
    factors[j * c_max + c - 1] = vs[:, j] / sqrt(c), and bounds is that of
    _parents."""
    parent, mode, count, bounds = _parents(occs)
    # from a contiguous vs.T the quotient is C-ordered and its reshape is a
    # view
    c_max = max(int(count.max()), 1)
    vt = np.ascontiguousarray(vs.T)
    factors = (vt[:, None, :] / np.sqrt(np.arange(1.0, c_max + 1.0))[:, None]
               ).reshape(vs.shape[1] * c_max, vs.shape[0])
    return parent, mode * c_max + count - 1, factors, bounds


def _step(src: np.ndarray, parent: np.ndarray, which: np.ndarray,
          factors: np.ndarray, dst: np.ndarray) -> None:
    """dst[r] = src[parent[r]] * factors[which[r]] for every row r of dst.

    Row slices whose parent and factor gathers hold at most _STEP elements
    each; rows wider than _STEP / 2 are multiplied one at a time from views,
    so no step copies a whole sector.
    """
    step = _STEP // dst.shape[1]
    if step <= 1:
        for r in range(dst.shape[0]):
            np.multiply(src[parent[r]], factors[which[r]], out=dst[r])
        return
    for a in range(0, dst.shape[0], step):
        b = a + step
        np.multiply(src[parent[a:b]], factors[which[a:b]], out=dst[a:b])


def occupation_products(vs: np.ndarray, occs: np.ndarray,
                        vacuum: np.ndarray | None = None,
                        out: np.ndarray | None = None) -> np.ndarray:
    """prod_j vs[s, j] ** occs[d, j] / sqrt(occs[d, j]!) for every sample s
    and occupation row d, returned with shape (D, n_samples).

    occs must be graded by total occupation, start at the vacuum and be
    closed under parents (every state with total n + 1 keeps its parent, one
    particle fewer in its highest occupied mode, in sector n), as a Fock
    basis or the symmetric-power sectors 0..k are. Each row then costs one
    multiply: A[child] = A[parent] * v[mode] / sqrt(n_mode), a sector at a
    time in the row slices of _step. Callers chunk over samples when n * D
    is large; occupation_sectors walks the same steps one sector at a time.

    vacuum, if given, is the vacuum row's value per sample and multiplies
    every amplitude of that sample; coherent states pass exp(-|v|^2 / 2),
    which keeps every amplitude below 1 in modulus.

    out, if given, is a C-contiguous complex128 (D, n_samples) array that
    receives the amplitudes and is returned; a chunk loop can reuse one.
    """
    vs, occs = _checked(vs, occs)
    shape = (occs.shape[0], vs.shape[0])
    if out is None:
        out = np.empty(shape, dtype=np.complex128)
    elif (out.shape != shape or out.dtype != np.complex128
          or not out.flags.c_contiguous):
        raise ValueError(f"out must be a C-contiguous complex128 {shape} array")
    if out.size == 0:
        return out
    parent, which, factors, bounds = _recurrence(vs, occs)
    out[0] = 1.0 if vacuum is None else vacuum
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        _step(out, parent[lo:hi], which[lo:hi], factors, out[lo:hi])
    return out


def occupation_sectors(vs: np.ndarray, occs: np.ndarray,
                       vacuum: np.ndarray | None = None,
                       reach: np.ndarray | None = None):
    """The amplitudes of occupation_products, one sector at a time.

    Yields (n, c, A_n) for n = 0, 1, ... up to the top sector of occs: A_n
    is sector n for the columns c: of vs, shape (sector dim, n_samples - c),
    bitwise those rows and columns of occupation_products. reach, if given,
    is each column's top sector, non-decreasing along the columns, so the
    columns that reach n are a suffix; the walk ends at the last column's
    reach. Sector n is built from sector n - 1 alone, so the generator
    holds at most the sector it yields and the one before it; a consumer
    that lets each sector go before it asks for the next keeps at most two
    alive.
    """
    vs, occs = _checked(vs, occs)
    n_cols = vs.shape[0]
    if reach is not None:
        reach = np.asarray(reach, dtype=np.int64)
        if reach.shape != (n_cols,) or np.any(np.diff(reach) < 0):
            raise ValueError("reach must be one non-decreasing sector per "
                             "column")
    if n_cols == 0 or occs.shape[0] == 0:
        return
    parent, which, factors, bounds = _recurrence(vs, occs)
    starts = np.concatenate([[0], bounds])   # first row of each sector, D
    top = bounds.size - 1 if reach is None else int(reach[-1])
    if not 0 <= top < bounds.size:
        raise ValueError(f"reach {top} is outside the sectors 0.."
                         f"{bounds.size - 1} of occs")
    A = np.empty((1, n_cols), dtype=np.complex128)
    A[0] = 1.0 if vacuum is None else vacuum
    c = 0
    yield 0, c, A
    for n in range(1, top + 1):
        c_n = c if reach is None else c + int(np.searchsorted(reach[c:], n))
        lo, hi = starts[n], starts[n + 1]
        child = np.empty((hi - lo, n_cols - c_n), dtype=np.complex128)
        _step(A[:, c_n - c:], parent[lo:hi] - starts[n - 1], which[lo:hi],
              factors[:, c_n:], child)
        A, c = child, c_n
        yield n, c, A


def two_body_coo(occs: np.ndarray, table: np.ndarray, strides: np.ndarray,
                 W: np.ndarray):
    """COO triplets of (1/2) sum_{ijkl} W[i,j,k,l] a_i+ a_j+ a_l a_k.

    occs: (dim, K) occupation numbers of the basis states; table: radix lookup
    with table[occ . strides] = state index; W: (K, K, K, K) real tensor.
    Returns (rows, cols, vals) with duplicate entries left for the sparse
    constructor to sum. The operator conserves total particle number, so every
    produced row index is valid. Triplets come in the order (k, l, j, i,
    state) over the nonzero W[i, j, k, l] and the states a_l a_k keeps.
    """
    occs = np.asarray(occs, dtype=np.int64)
    keys = occs @ strides
    eye = np.eye(occs.shape[1], dtype=np.int64)
    out = []
    for k, l in np.ndindex(W.shape[2:]):
        n_k, n_l = occs[:, k], occs[:, l] - (l == k)
        sel = np.flatnonzero((n_k >= 1) & (n_l >= 1))
        j, i = np.nonzero(W[:, :, k, l].T)
        left = (occs[sel] - eye[k] - eye[l]).T     # occupations after a_l a_k
        amp = np.sqrt((n_k[sel] * n_l[sel]).astype(float)) \
            * np.sqrt((left[j] + 1) * (left[i] + 1 + (i == j)[:, None]))
        out.append((table[keys[sel] - strides[k] - strides[l]
                          + (strides[j] + strides[i])[:, None]].ravel(),
                     np.tile(sel, j.size),
                     ((0.5 * W[i, j, k, l])[:, None] * amp).ravel()))
    return tuple(np.concatenate(x) for x in zip(*out))
