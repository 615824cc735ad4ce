"""Hot loops of the occupation basis, in numpy, and what the thread pools
share.

    Recurrence.graded(K, n)  -- the graded colex occupations 0..n, the one
        enumeration of the Fock basis and the Sym^k sectors, with the
        parent table both amplitude functions walk, built sector from
        sector in one pass
    occupation_products(vs, occs[, vacuum])  -- normalized amplitudes
        prod_j vs[s, j] ** occs[d, j] / sqrt(occs[d, j]!), shape (D, n),
        with no temporary above _STEP elements besides the factor table
        and a transposed copy of vs; occs is a Recurrence, never an array
    occupation_sectors(vs, occs, vacuum, reach)  -- the same amplitudes
        as a stream of sectors, each column only up to its own reach, over
        a Recurrence too
    two_body_coo(occs, table, strides, W)  -- COO triplets of the normal
        ordered two-body operator (1/2) sum W[i,j,k,l] a_i+ a_j+ a_l a_k on
        a run of basis states, one step per annihilated pair (k, l) over
        every created pair and state

The pools of fock and classical take _workers() threads. Their workers call
private routes only (_products, _zherk, _dsyevd, which allocates its own
scratch on each call, and numpy), so nothing a tracer wraps around the
public names runs off the calling thread.
"""

from __future__ import annotations

import ctypes
import os
from typing import NamedTuple

import numpy as np
from scipy.linalg import cython_blas, cython_lapack

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


def _foreign(module, name: str, *argtypes):
    """The routine module (scipy.linalg.cython_blas or cython_lapack)
    exports as name, called by ctypes: the library scipy's f2py wrappers
    call, without the GIL."""
    capsule = module.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                    ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return ctypes.CFUNCTYPE(None, *argtypes)(
        get_pointer(capsule, get_name(capsule)))


_int, _double = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double)
_char, _ptr = ctypes.c_char_p, ctypes.c_void_p
# zherk(uplo, trans, n, k, alpha, a, lda, beta, c, ldc)
_ZHERK = _foreign(cython_blas, "zherk", _char, _char, _int, _int, _double,
                  _ptr, _int, _double, _ptr, _int)
# dsyevd(jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info)
_DSYEVD = _foreign(cython_lapack, "dsyevd", _char, _char, _int, _ptr, _int,
                   _ptr, _ptr, _int, _ptr, _int, _int)


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


def _syevd_sizes(d: int) -> tuple[int, int]:
    """(lwork, liwork) that dsyevd('V', 'L') asks for on d rows: its
    workspace query, the one numpy.linalg.eigh makes and then passes."""
    if 2 * d * d + 6 * d + 1 >= 2**31:
        raise ValueError("dsyevd block too large for 32-bit LAPACK ints")
    work, iwork, info = np.empty(1), np.empty(1, np.intc), ctypes.c_int()
    _DSYEVD(b"V", b"L", ctypes.c_int(d), None, ctypes.c_int(max(d, 1)), None,
            work.ctypes.data, ctypes.c_int(-1), iwork.ctypes.data,
            ctypes.c_int(-1), info)
    return int(work[0]), int(iwork[0])


def _dsyevd(a: np.ndarray, w: np.ndarray) -> tuple[int, np.ndarray]:
    """Eigenvalues, ascending, into w and eigenvectors over a of the
    symmetric matrix whose lower triangle a holds; returns LAPACK's info
    and the work array dsyevd used, which the caller may reuse.

    The LAPACK call of numpy.linalg.eigh(a) (UPLO='L'), bitwise, with the
    GIL released. a is a writeable Fortran-ordered float64 (d, d) array, so
    on return column k of a is the eigenvector of w[k]; w a contiguous
    float64 (d,) array. Each call allocates its own work and iwork at the
    sizes of the workspace query (_syevd_sizes), as numpy does: dsyevd's
    back-transformation (dormtr) blocks by lwork, so another lwork would
    move the eigenvectors' bits. ctypes hands LAPACK raw pointers, so any
    other layout is refused, not misread.
    """
    d = a.shape[0]
    if (a.dtype != np.float64 or a.shape != (d, d)
            or not a.flags.f_contiguous or not a.flags.writeable):
        raise ValueError("dsyevd needs a writeable Fortran-ordered float64 "
                         "square matrix")
    if w.dtype != np.float64 or w.shape != (d,) or not w.flags.c_contiguous:
        raise ValueError(f"dsyevd needs a contiguous float64 ({d},) "
                         f"eigenvalue array")
    lwork, liwork = _syevd_sizes(d)
    work, iwork = np.empty(lwork), np.empty(liwork, np.intc)
    info = ctypes.c_int()
    _DSYEVD(b"V", b"L", ctypes.c_int(d), a.ctypes.data,
            ctypes.c_int(max(d, 1)), w.ctypes.data, work.ctypes.data,
            ctypes.c_int(lwork), iwork.ctypes.data, ctypes.c_int(liwork),
            info)
    return info.value, work


class Recurrence(NamedTuple):
    """The graded colex occupations 0..n over K modes with the sample-free
    half of the amplitude recurrence: row r is factors[which[r]] times row
    parent[r], with factors[(c - 1) * K + j] = vs[:, j] / sqrt(c)
    (_factors); sector m is rows offsets[m]:offsets[m + 1]. A table over
    sectors 0..n serves occupation_sectors up to any reach <= n.

    Sector k is the occupation basis of Sym^k(C^K) on both sides of the
    comparison, classical moments and quantum marginals: colex order
    compares the last coordinate where two rows differ (K=2, k=2 gives
    (2,0), (1,1), (0,2)), with the normalized symmetric vectors
        |e_n> = sqrt(prod_j n_j! / k!) * sum over distinct orderings.
    A product vector then has <e_n | v^{(x) k}> = sqrt(k!) times the
    amplitude prod_j v_j^{n_j} / sqrt(n_j!) of occupation_products."""

    occs: np.ndarray
    offsets: np.ndarray
    parent: np.ndarray
    which: np.ndarray

    @classmethod
    def graded(cls, K: int, n: int) -> Recurrence:
        """Sector m + 1 from sector m: for j = 0..K-1, every state of sector
        m whose highest occupied mode is <= j, one particle added in j. In
        colex order those states are a prefix of sector m and their children
        follow it in order, so the blocks come out in graded colex order.
        The parent of a row removes a particle from its highest occupied
        mode; the vacuum's entries (parent 0, which -1) are never read."""
        if K < 1 or n < 0:
            raise ValueError("need K >= 1 and n >= 0")
        # ends[m][j]: rows of sector m whose highest occupied mode is <= j
        ends = [np.ones(K, dtype=np.int64)]
        for _ in range(n):
            ends.append(np.cumsum(ends[-1]))
        offsets = np.zeros(n + 2, dtype=np.int64)
        offsets[1:] = np.cumsum([e[-1] for e in ends])
        D = int(offsets[-1])
        occs = np.zeros((D, K), dtype=np.int64)
        parent = np.zeros(D, dtype=np.int64)
        which = np.full(D, -1, dtype=np.int64)
        for m in range(n):
            lo, at = int(offsets[m]), int(offsets[m + 1])
            for j, c in enumerate(ends[m].tolist()):
                rows = slice(at, at + c)
                occs[rows] = occs[lo:lo + c]
                which[rows] = occs[lo:lo + c, j] * K + j
                occs[rows, j] += 1
                parent[rows] = np.arange(lo, lo + c)
                at += c
        return cls(occs, offsets, parent, which)

    def sector(self, m: int) -> np.ndarray:
        """The rows of sector m, the occupation basis of Sym^m(C^K)."""
        if not 0 <= m < self.offsets.size - 1:
            raise ValueError(f"sector {m} is outside 0..{self.offsets.size - 2}")
        return self.occs[self.offsets[m]:self.offsets[m + 1]]


def _checked(vs, occs) -> tuple[np.ndarray, Recurrence]:
    """vs as complex128 and occs, which must be a Recurrence on as many
    modes; an occupation array is refused."""
    if not isinstance(occs, Recurrence):
        raise ValueError("occupations must be given as a kernels.Recurrence")
    vs = np.asarray(vs, dtype=np.complex128)
    if occs.occs.shape[1] != vs.shape[1]:
        raise ValueError("occupation rows and vectors differ in mode count")
    return vs, occs


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


def occupation_products(vs: np.ndarray, occs: Recurrence,
                        vacuum: np.ndarray | None = None) -> np.ndarray:
    """prod_j vs[s, j] ** occs[d, j] / sqrt(occs[d, j]!) for every sample s
    and occupation row d of occs.occs, returned with shape (D, n_samples).

    occs is the Recurrence of the graded colex occupations 0..n
    (Recurrence.graded), as a Fock basis holds one and the symmetric-power
    sectors 0..k are; an occupation array is refused. Each row costs one
    multiply: A[child] = A[parent] * v[mode] / sqrt(n_mode), a sector at a
    time in the row slices of _step. Callers chunk over samples when n * D
    is large, reading one table; occupation_sectors walks the same steps
    one sector at a time.

    vacuum, if given, is the vacuum row's value per sample and multiplies
    every amplitude of that sample; coherent states pass exp(-|v|^2 / 2),
    which keeps every amplitude below 1 in modulus.
    """
    vs, rec = _checked(vs, occs)
    out = np.empty((rec.occs.shape[0], vs.shape[0]), dtype=np.complex128)
    if out.size == 0:
        return out
    return _products(vs, rec, vacuum, out)


def _products(vs: np.ndarray, rec: Recurrence, vacuum, out: np.ndarray):
    """occupation_products of a complex128 vs into out, a C-contiguous
    complex128 (D, n_samples) array that a chunk loop can reuse, over rec.
    Every element of out is written. A pool worker calls this route, which
    calls nothing public."""
    out[0] = 1.0 if vacuum is None else vacuum
    offsets = rec.offsets
    factors = _factors(vs, offsets.size - 2)
    for lo, hi in zip(offsets[1:-1], offsets[2:]):
        _step(out, rec.parent[lo:hi], rec.which[lo:hi], factors, out[lo:hi])
    return out


def occupation_sectors(vs: np.ndarray, occs: Recurrence,
                       vacuum: np.ndarray, reach: np.ndarray):
    """The amplitudes of occupation_products, one sector at a time.

    reach is each column's top sector, nonnegative and non-decreasing along
    the columns, so the columns that reach sector n are a suffix c:. Yields
    (n, c, A_n) for n = 0, 1, ... up to the last column's reach: A_n is
    sector n for the columns c:, shape (sector dim, n_samples - c), bitwise
    those rows and columns of occupation_products. Sector n is built from
    sector n - 1 alone, so the generator holds at most the sector it yields
    and the one before it; a consumer that lets each sector go before it
    asks for the next keeps at most two alive. occs is a Recurrence, and
    may be one over more sectors than the columns reach.
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
    starts = rec.offsets
    top = int(reach[-1])
    if top > starts.size - 2:
        raise ValueError(f"reach {top} is outside the sectors 0.."
                         f"{starts.size - 2} of occs")
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
    """COO triplets of (1/2) sum_{ijkl} W[i,j,k,l] a_i+ a_j+ a_l a_k on the
    states occs.

    occs: (m, K) occupation numbers of any run of basis states, the whole
    basis or some of its sectors; table: the basis's radix lookup with
    table[occ . strides] = state index; W: (K, K, K, K) real tensor.
    Returns (rows, cols, vals) with duplicate entries left for the sparse
    constructor to sum: rows index the whole basis (they are table
    lookups) and cols index the run, cols[t] being the row of occs the
    triplet acts on. The operator conserves total particle number, so every
    produced row index is valid and lies in the sectors of the run's
    states. Triplets come in the order (k, l, j, i, state) over the nonzero
    W[i, j, k, l] and the states a_l a_k keeps.
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
