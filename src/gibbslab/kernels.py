"""Hot loops of the occupation basis, in numpy, and what the thread pools
share.

    occupation_products(vs, occs[, vacuum, out])  -- normalized amplitudes
        prod_j vs[s, j] ** occs[d, j] / sqrt(occs[d, j]!), shape (D, n),
        with no temporary above _STEP elements besides the factor table
        and a transposed copy of vs
    occupation_sectors(vs, occs, vacuum, reach)  -- the same amplitudes
        as a stream of sectors, each column only up to its own reach
    Recurrence.of(occs)  -- the parent table both functions walk, which a
        loop over chunks of samples builds once and passes for occs
    two_body_coo(occs, table, strides, W)  -- COO triplets of the normal
        ordered two-body operator (1/2) sum W[i,j,k,l] a_i+ a_j+ a_l a_k,
        one step per annihilated pair (k, l) over every created pair and state

The pools of fock and classical take _workers() threads. Their workers call
private routes only (_products, _zherk and numpy), so nothing a tracer
wraps around the public names runs off the calling thread.
"""

from __future__ import annotations

import ctypes
import os
from typing import NamedTuple

import numpy as np
from scipy.linalg import cython_blas

__all__ = ["Recurrence", "occupation_products", "occupation_sectors",
           "two_body_coo"]

# Largest gather a sector step of the amplitude recurrence makes, in elements
# (128 KiB of complex128): slices of rows * n_samples <= _STEP elements, or
# one row at a time from views when a slice would hold a single row.
_STEP = 1 << 13


def _workers() -> int:
    """Threads of every pool: the CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _blas(name: str, *argtypes):
    """The BLAS routine scipy.linalg.cython_blas exports as name, called
    by ctypes: the library scipy's f2py wrappers call, without the GIL."""
    capsule = cython_blas.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                    ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return ctypes.CFUNCTYPE(None, *argtypes)(
        get_pointer(capsule, get_name(capsule)))


_int, _double = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double)
# zherk(uplo, trans, n, k, alpha, a, lda, beta, c, ldc)
_ZHERK = _blas("zherk", ctypes.c_char_p, ctypes.c_char_p, _int, _int,
               _double, ctypes.c_void_p, _int, _double, ctypes.c_void_p, _int)


def _zherk(a: np.ndarray, c: np.ndarray) -> None:
    """c += conj(a) a^T in the upper triangle of c, in place.

    The BLAS call of scipy.linalg.blas.zherk(1.0, a.T, beta=1.0, c=c,
    trans=2, overwrite_c=1), bitwise, with the GIL released. a is a
    C-contiguous complex128 (D, n) array, so a.T is the Fortran (n, D)
    operand, and c a Fortran-ordered complex128 (D, D) array. ctypes hands
    BLAS raw pointers, so any other layout is refused, not misread.
    """
    D, n = a.shape
    if a.dtype != np.complex128 or not a.flags.c_contiguous:
        raise ValueError("zherk needs a C-contiguous complex128 operand")
    if (c.dtype != np.complex128 or c.shape != (D, D)
            or not c.flags.f_contiguous or not c.flags.writeable):
        raise ValueError(f"zherk needs a writeable Fortran-ordered "
                         f"complex128 ({D}, {D}) sum")
    if max(D, n) >= 2**31:
        raise ValueError("zherk operand too large for 32-bit BLAS ints")
    one = ctypes.c_double(1.0)
    _ZHERK(b"U", b"C", ctypes.c_int(D), ctypes.c_int(n), one,
           a.ctypes.data, ctypes.c_int(max(n, 1)), one, c.ctypes.data,
           ctypes.c_int(D))


def _parents(occs: np.ndarray):
    """Parent row, raised mode and its occupation for every row of occs.

    The parent of a state removes one particle from its highest occupied
    mode. Returns (parent, mode, count, bounds): bounds holds the first row
    of each sector after the vacuum and ends with D.
    """
    D, K = occs.shape
    totals = occs.sum(axis=1)
    if D == 0 or totals[0] != 0 or np.any(np.diff(totals) < 0):
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


class Recurrence(NamedTuple):
    """The sample-free half of the amplitude recurrence over occs: row r is
    factors[which[r]] times row parent[r], with
    factors[(c - 1) * K + j] = vs[:, j] / sqrt(c) (_factors), and bounds
    that of _parents. A loop over chunks of samples builds it once
    (Recurrence.of) and passes it for occs. One over sectors 0..n serves
    occupation_sectors up to any reach <= n."""

    occs: np.ndarray
    parent: np.ndarray
    which: np.ndarray
    bounds: np.ndarray

    @classmethod
    def of(cls, occs) -> Recurrence:
        occs = np.asarray(occs, dtype=np.int64)
        parent, mode, count, bounds = _parents(occs)
        return cls(occs, parent, (count - 1) * occs.shape[1] + mode, bounds)


def _checked(vs, occs) -> tuple[np.ndarray, Recurrence]:
    """vs as complex128, and occs as its Recurrence unless it is one."""
    vs = np.asarray(vs, dtype=np.complex128)
    rec = occs if isinstance(occs, Recurrence) else Recurrence.of(occs)
    if rec.occs.shape[1] != vs.shape[1]:
        raise ValueError("occupation rows and vectors differ in mode count")
    return vs, rec


def _factors(vs: np.ndarray, n: int) -> np.ndarray:
    """factors[(c - 1) * K + j] = vs[:, j] / sqrt(c) for c = 1..n, shape
    (n * K, n_samples): every factor of the rows in sectors up to n, whose
    counts are at most n."""
    # from a contiguous vs.T the quotient is C-ordered and its reshape is a
    # view
    vt = np.ascontiguousarray(vs.T)
    return (vt / np.sqrt(np.arange(1.0, n + 1.0))[:, None, None]
            ).reshape(n * vs.shape[1], vs.shape[0])


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
    occs may be given as its Recurrence, which such a loop builds once.

    vacuum, if given, is the vacuum row's value per sample and multiplies
    every amplitude of that sample; coherent states pass exp(-|v|^2 / 2),
    which keeps every amplitude below 1 in modulus.

    out, if given, is a C-contiguous complex128 (D, n_samples) array that
    receives the amplitudes and is returned; a chunk loop can reuse one.
    """
    vs, rec = _checked(vs, occs)
    shape = (rec.occs.shape[0], vs.shape[0])
    if out is None:
        out = np.empty(shape, dtype=np.complex128)
    elif (out.shape != shape or out.dtype != np.complex128
          or not out.flags.c_contiguous):
        raise ValueError(f"out must be a C-contiguous complex128 {shape} array")
    if out.size == 0:
        return out
    return _products(vs, rec, vacuum, out)


def _products(vs: np.ndarray, rec: Recurrence, vacuum, out: np.ndarray):
    """occupation_products of a complex128 vs into a fitting out, over rec.
    A pool worker calls this route, which calls nothing public."""
    out[0] = 1.0 if vacuum is None else vacuum
    factors = _factors(vs, rec.bounds.size - 1)
    for lo, hi in zip(rec.bounds[:-1], rec.bounds[1:]):
        _step(out, rec.parent[lo:hi], rec.which[lo:hi], factors, out[lo:hi])
    return out


def occupation_sectors(vs: np.ndarray, occs: np.ndarray,
                       vacuum: np.ndarray, reach: np.ndarray):
    """The amplitudes of occupation_products, one sector at a time.

    reach is each column's top sector, nonnegative and non-decreasing along
    the columns, so the columns that reach sector n are a suffix c:. Yields
    (n, c, A_n) for n = 0, 1, ... up to the last column's reach: A_n is
    sector n for the columns c:, shape (sector dim, n_samples - c), bitwise
    those rows and columns of occupation_products. Sector n is built from
    sector n - 1 alone, so the generator holds at most the sector it yields
    and the one before it; a consumer that lets each sector go before it
    asks for the next keeps at most two alive. occs may be a Recurrence
    over more sectors than the columns reach.
    """
    vs, rec = _checked(vs, occs)
    n_cols = vs.shape[0]
    reach = np.asarray(reach, dtype=np.int64)
    if reach.shape != (n_cols,) or np.any(reach < 0) \
            or np.any(np.diff(reach) < 0):
        raise ValueError("reach must be one nonnegative, non-decreasing "
                         "sector per column")
    if n_cols == 0:
        return
    starts = np.concatenate([[0], rec.bounds])  # first row of each sector, D
    top = int(reach[-1])
    if top >= rec.bounds.size:
        raise ValueError(f"reach {top} is outside the sectors 0.."
                         f"{rec.bounds.size - 1} of occs")
    factors = _factors(vs, top)
    A = np.empty((1, n_cols), dtype=np.complex128)
    A[0] = vacuum
    c = 0
    yield 0, c, A
    for n in range(1, top + 1):
        c_n = c + int(np.searchsorted(reach[c:], n))
        lo, hi = starts[n], starts[n + 1]
        child = np.empty((hi - lo, n_cols - c_n), dtype=np.complex128)
        _step(A[:, c_n - c:], rec.parent[lo:hi] - starts[n - 1],
              rec.which[lo:hi], factors[:, c_n:], child)
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
