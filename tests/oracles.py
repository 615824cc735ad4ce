"""Independent numerical oracles used by the tests.

Everything here is deliberately implemented without the package internals:
Numerov shooting for 1D eigenvalues, scalar quadrature for the quartic
partition function, Wick pairings for Gaussian moments, the geometric
Kullback-Leibler divergence for thermal single-mode states, a power table
for occupation-number monomials, grid quadrature of the interaction energy
and polar-grid quadrature over single-mode Husimi densities (the densities
themselves come from the package). The relative entropy and the Husimi
density of plain matrices are the whole-space definitions, with no sector
structure; so is the mixture of coherent projectors, whose symmetry average
is its real part pinched to (sector, class) blocks. A coherent point's
reach scans the Poisson tail beyond each sector, with no threshold table.
A state that leaves a sector out is padded with explicit zero blocks
there. The per-pair
partial trace keeps the per-occupation branching loop the package's
branching table replaced: for each k-body occupation p it looks up p + r
in the basis table and sums gammaln terms over the modes p occupies. The
graded colex occupations are itertools multisets sorted by total and
reversed tuple, with every parent found by tuple lookup; the sector-gather
amplitudes take their parents from such lookups and keep the
one-gather-per-sector loop that `occupation_products` must reproduce bit
for bit. The moment matrices
are dense weighted sums of per-sample outer products. The Gibbs blocks
slice each class from the Hamiltonian's CSR matrix and give every one to
scipy's dense divide-and-conquer driver, one by one; a single dense block
can also go to numpy.linalg.eigh and one matmul into a fresh array, the
numpy route the package's own dsyevd call must reproduce. The free-state
cutoff sums the free Gibbs weights over the enumerated basis and scans
every cutoff in budget. The Hamiltonian's pair term is one two_body_coo call
over the whole basis, converted to CSR at once.
"""

import itertools
import math

import numpy as np
from scipy import sparse
from scipy.integrate import quad
from scipy.linalg import eigh
from scipy.optimize import brentq
from scipy.special import gammainc, gammaln, logsumexp

from gibbslab import (MomentMatrix, TwoBodyTensor, build_fock_basis,
                      build_hamiltonian, husimi_density)
from gibbslab.fock import DiagonalState, FockState
from gibbslab.kernels import two_body_coo


def no_pair(K: int) -> TwoBodyTensor:
    """The all-zero pair tensor on K modes: H is H_0 at every coupling."""
    return TwoBodyTensor(np.zeros((K,) * 4))


def free_hamiltonian(fb, eigenvalues):
    """H_0 = sum_j lambda_j a_j+ a_j on the Fock basis fb."""
    return build_hamiltonian(fb, eigenvalues, no_pair(fb.K), 0.0)


def numerov_ground_state(a: float = 4.0, L: float = 8.0, m: float = 0.0,
                         n: int = 16001, bracket=(0.5, 2.0)) -> float:
    """Lowest eigenvalue of -u'' + |x|^a + m by even-parity shooting."""

    def mismatch(E: float) -> float:
        x = np.linspace(0.0, L, n)
        h = x[1] - x[0]
        g = E - (x**a + m)
        f = 1.0 + (h * h / 12.0) * g
        u = np.empty(n)
        u[0] = 1.0
        u[1] = u[0] * (1.0 - 0.5 * g[0] * h * h + g[0] ** 2 * h**4 / 24.0)
        for i in range(1, n - 1):
            u[i + 1] = ((12.0 - 10.0 * f[i]) * u[i] - f[i - 1] * u[i - 1]) / f[i + 1]
            if abs(u[i + 1]) > 1e250:
                u[: i + 2] /= 1e250
        return u[-1]

    return brentq(mismatch, *bracket, xtol=1e-12)


def quartic_zr() -> float:
    """Z_r = integral_0^inf exp(-r - r^2) dr for the unit quartic weight."""
    val, _ = quad(lambda r: math.exp(-r - r * r), 0.0, np.inf)
    return val


def dirichlet_eigenvalue(j: int, m: float = 1.0) -> float:
    """Continuum Dirichlet spectrum of -u'' + m on [-1, 1]."""
    return (j * math.pi / 2.0) ** 2 + m


def wick_fourth_moment(lams, i: int, j: int, k: int, l: int) -> float:
    """E[conj(a_i) conj(a_j) a_k a_l] for independent complex Gaussians with
    E|a_p|^2 = 1/lambda_p."""
    lams = np.asarray(lams, dtype=float)
    pairings = int(i == k) * int(j == l) + int(i == l) * int(j == k)
    return pairings / (lams[i] * lams[j])


def geometric_kl(nbar_a: float, nbar_b: float) -> float:
    """KL divergence of the occupancy distributions of two thermal modes."""
    sa = nbar_a / (1.0 + nbar_a)
    sb = nbar_b / (1.0 + nbar_b)
    return math.log((1.0 - sa) / (1.0 - sb)) + nbar_a * math.log(sa / sb)


def forward_difference_form(u: np.ndarray, potential: np.ndarray,
                            dx: float) -> float:
    """Grid quadrature of |u'|^2 + V |u|^2 with Dirichlet walls."""
    padded = np.concatenate([[0.0], u, [0.0]])
    der = np.abs(np.diff(padded)) ** 2 / dx
    return float(der.sum() + np.sum(potential * np.abs(u) ** 2) * dx)


def power_products(vs: np.ndarray, occs: np.ndarray) -> np.ndarray:
    """prod_j vs[s, j] ** occs[d, j] for every sample s and occupation row d,
    shape (n_samples, D), from a per-mode table of powers."""
    vs = np.ascontiguousarray(vs, dtype=np.complex128)
    occs = np.asarray(occs)
    n, K = vs.shape
    out = np.ones((n, occs.shape[0]), dtype=np.complex128)
    for j in range(K):
        mo = int(occs[:, j].max()) if occs.size else 0
        pows = np.empty((n, mo + 1), dtype=np.complex128)
        pows[:, 0] = 1.0
        for p in range(1, mo + 1):
            np.multiply(pows[:, p - 1], vs[:, j], out=pows[:, p])
        out *= pows[:, occs[:, j]]
    return out


def graded_colex(K: int, n: int):
    """The occupations of totals 0..n over K modes sorted into graded colex
    order (by total, then by the reversed tuple), with offsets, each row's
    parent (one particle fewer in its highest occupied mode, found by tuple
    lookup) and which = (count - 1) * K + mode of that particle; the vacuum
    gets parent 0 and which -1."""
    occs = np.concatenate([colex_sector(K, t) for t in range(n + 1)])
    offsets = np.searchsorted(occs.sum(axis=1), np.arange(n + 2))
    parent, mode, count, _ = _tuple_parents(occs)
    which = np.where(count > 0, (count - 1) * K + mode, -1)
    return occs, offsets, parent, which


def colex_sector(K: int, n: int) -> np.ndarray:
    """The occupations of total n over K modes, from itertools, sorted
    into colex order (by the reversed tuple)."""
    rows = sorted((tuple(modes.count(j) for j in range(K)) for modes in
                   itertools.combinations_with_replacement(range(K), n)),
                  key=lambda r: r[::-1])
    return np.array(rows, dtype=np.int64).reshape(-1, K)


def _tuple_parents(occs: np.ndarray):
    """Parent row, highest occupied mode and its count for every row of a
    graded occupation array that starts at the vacuum, by tuple lookup, and
    the first row of each sector after the vacuum, ending with D. The
    vacuum is its own parent, with mode 0 and count 0."""
    rows = [tuple(r) for r in occs.tolist()]
    index = {r: d for d, r in enumerate(rows)}
    parent, mode, count = (np.zeros(len(rows), dtype=np.int64)
                           for _ in range(3))
    for d, r in enumerate(rows[1:], start=1):
        j = max(i for i, x in enumerate(r) if x)
        mode[d], count[d] = j, r[j]
        parent[d] = index[r[:j] + (r[j] - 1,) + r[j + 1:]]
    totals = occs.sum(axis=1)
    bounds = np.append(np.flatnonzero(np.diff(totals)) + 1, len(rows))
    return parent, mode, count, bounds


def sector_gather_products(vs: np.ndarray, occs: np.ndarray,
                           vacuum: np.ndarray | None = None) -> np.ndarray:
    """occupation_products by whole-sector gathers: each sector is one
    multiply of its parents' rows by its factors' rows, both gathered as
    (sector rows, n) copies."""
    vs = np.asarray(vs, dtype=np.complex128)
    occs = np.asarray(occs, dtype=np.int64)
    n, K = vs.shape
    out = np.empty((occs.shape[0], n), dtype=np.complex128)
    if out.size == 0:
        return out
    parent, mode, count, bounds = _tuple_parents(occs)
    c_max = max(int(count.max()), 1)
    factors = (vs.T[:, None, :] / np.sqrt(np.arange(1.0, c_max + 1.0))[:, None]
               ).reshape(K * c_max, n)
    which = mode * c_max + count - 1
    out[0] = 1.0 if vacuum is None else vacuum
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        np.multiply(out[parent[lo:hi]], factors[which[lo:hi]], out=out[lo:hi])
    return out


def dense_moments(coeffs: np.ndarray, log_weights: np.ndarray, k: int):
    """Self-normalized k-th moment matrix sum_s w_s S_s S_s^H / sum_s w_s
    and its delta-method standard error sqrt(sum_s w_s^2 |S_s S_s^H - M|^2)
    (normalized weights), with S_s = sqrt(k!/prod m_j!) prod_j alpha_j^{m_j}
    from a power table, one (n, D, D) stack of outer products."""
    occs = colex_sector(coeffs.shape[1], k)
    norms = np.array([math.sqrt(math.factorial(k) / math.prod(
        math.factorial(int(x)) for x in row)) for row in occs])
    S = power_products(coeffs, occs) * norms
    w = np.exp(log_weights - log_weights.max())
    w = w / w.sum()
    outer = S[:, :, None] * S.conj()[:, None, :]
    M = np.einsum("s,sab->ab", w, outer)
    var = np.einsum("s,sab->ab", w**2, np.abs(outer - M) ** 2)
    return M, np.sqrt(var)


def pinched(matrix: np.ndarray, basis, labels=None) -> FockState:
    """The (sector, class) blocks of a matrix on the Fock basis, as a state;
    labels[i] is the class of basis state i (one class if left out)."""
    labels = np.zeros(basis.dim, dtype=np.int64) if labels is None else labels
    blocks = []
    for n in range(basis.n_max + 1):
        lab = labels[basis.sector_slice(n)]
        for c in np.unique(lab):
            rows = np.flatnonzero(lab == c) + int(basis.sector_offsets[n])
            blocks.append((n, rows, matrix[np.ix_(rows, rows)]))
    return FockState(basis=basis, blocks=tuple(blocks))


def padded(state: FockState, layout) -> FockState:
    """state with an explicit zero block for each (sector, class) block
    (n, rows) of layout in a sector where state has none: the zero-padded
    form that a missing sector stands for. layout may be a state's blocks,
    whose entries are not read."""
    held = {n for n, _, _ in state.blocks}
    zeros = [(n, rows, np.zeros((rows.size, rows.size)))
             for n, rows, *_ in layout if n not in held]
    blocks = sorted(list(state.blocks) + zeros, key=lambda b: b[0])
    return FockState(basis=state.basis, blocks=tuple(blocks))


def dense_sector(state: FockState, n: int) -> np.ndarray:
    """Sector n of a state as one dense block, zero between its classes."""
    d = state.basis.sector_dim(n)
    parts = [(rows, G) for m, rows, G in state.blocks if m == n]
    out = np.zeros((d, d), dtype=np.result_type(*(G for _, G in parts)))
    for rows, G in parts:
        i = rows - int(state.basis.sector_offsets[n])
        out[np.ix_(i, i)] = G
    return out


def diagonal_of(state: FockState) -> DiagonalState:
    """The diagonal of a state whose every class block is exactly diagonal;
    asserts that each one is."""
    p = np.empty(state.basis.dim)
    for _, rows, G in state.blocks:
        assert not np.any(G - np.diag(np.diagonal(G))), "block not diagonal"
        p[rows] = np.real(np.diagonal(G))
    return DiagonalState(state.basis, p)


def relative_entropy_dense(rho: np.ndarray, sigma: np.ndarray) -> float:
    """tr[rho (log rho - log sigma)] of two matrices, from eigh of each.

    Eigenvalues of sigma below 1e-14 of its largest count as kernel; more
    than 1e-9 of rho's mass there gives +inf.
    """
    p = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    q, V = np.linalg.eigh(sigma)
    mass = np.real(np.sum(V.conj() * (rho @ V), axis=0))
    if mass[q <= 1e-14 * max(q[-1], 1e-300)].sum() > 1e-9:
        return math.inf
    p = p[p > 1e-300]
    return float(np.sum(p * np.log(p))
                 - np.sum(mass * np.log(np.clip(q, 1e-300, None))))


def coherent_amplitudes(vs: np.ndarray, basis) -> np.ndarray:
    """a_n = exp(-|v|^2/2) prod_j v_j^{n_j} / sqrt(n_j!) over the whole
    basis for each row v of vs, shape (n_samples, dim)."""
    vs = np.atleast_2d(np.asarray(vs, dtype=np.complex128))
    nu = np.sum(np.abs(vs) ** 2, axis=1)
    occs = basis.occupations
    return power_products(vs, occs) * np.exp(
        -0.5 * nu[:, None] - 0.5 * gammaln(occs + 1.0).sum(axis=1)[None, :])


def reach(nu: float, n_max: int) -> int:
    """The first n <= n_max with P(N > n) = gammainc(n + 1, nu) <= 2^-60
    for N ~ Poisson(nu), else n_max."""
    small = gammainc(np.arange(1, n_max + 2), nu) <= 2.0 ** -60
    return int(np.argmax(small)) if small.any() else n_max


def husimi_dense(matrix: np.ndarray, basis, eps: float,
                 pts: np.ndarray) -> np.ndarray:
    """(pi eps)^-K Re a+ M a at each point u, with the coherent amplitudes
    a of v = u / sqrt(eps) over the whole basis."""
    A = coherent_amplitudes(np.asarray(pts) / math.sqrt(eps), basis)
    val = np.real(np.sum(A.conj() * (A @ np.asarray(matrix).T), axis=1))
    return (math.pi * eps) ** (-basis.K) * val


def coherent_mixture(vs: np.ndarray, w: np.ndarray, basis) -> np.ndarray:
    """sum_s w_s |a_s><a_s| of the truncated coherent vectors a_s at the
    rows of vs, over the whole basis and scaled to unit trace: the plain
    mixture, before any symmetry average."""
    A = coherent_amplitudes(vs, basis)
    M = (A.T * np.asarray(w)) @ A.conj()
    return M / np.real(np.trace(M))


def symmetrized(matrix: np.ndarray, basis, labels=None) -> FockState:
    """The symmetry average of a matrix on the Fock basis: the phase average
    keeps its sector blocks, complex conjugation its real part and the
    reflection the class blocks of labels (whole sectors if left out)."""
    return pinched(np.real(matrix), basis, labels)


def sample_free_one_shot(basis, n_samples: int, seed: int) -> np.ndarray:
    """Free-measure coefficients from one (n_samples, 2K) normal draw of the
    generator `sample_free` seeds."""
    K = basis.K
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    z = rng.standard_normal((n_samples, 2 * K))
    return (z[:, :K] + 1j * z[:, K:]) * np.sqrt(0.5 / basis.eigenvalues)


def eval_F_NL(coeffs: np.ndarray, basis, kernel) -> float:
    """Pair-interaction energy of one field, by grid quadrature.

    Reconstructs u on the grid and evaluates
    (1/2) iint |u(x)|^2 w(x-y) |u(y)|^2 dx dy; for a delta kernel this is the
    local quartic (g/2) int |u|^4. Always >= 0 for a nonnegative kernel.
    """
    u = np.asarray(coeffs) @ basis.eigenvectors
    rho = np.abs(u) ** 2
    dx = basis.grid.dx
    if kernel.is_zero:
        return 0.0
    if kernel.name == "delta":
        return float(0.5 * kernel.g * np.sum(rho**2) * dx)
    n = rho.size
    idx = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    if basis.grid.periodic:
        idx = np.minimum(idx, n - idx)
    d = dx * np.arange(n)
    w = kernel.g * (np.ones(n) if kernel.name == "constant"  # w at offset d
                    else np.exp(-0.5 * (d / kernel.width) ** 2))
    return 0.5 * dx * dx * float(rho @ (w[idx] @ rho))


def eval_quadratic_form(coeffs: np.ndarray, basis) -> float:
    """<u, h u> = sum_j lambda_j |alpha_j|^2."""
    return float(np.sum(basis.eigenvalues * np.abs(coeffs) ** 2))


def _polar_points(r_max: float, nr: int, ntheta: int):
    r = (np.arange(nr) + 0.5) * (r_max / nr)
    th = 2.0 * math.pi * np.arange(ntheta) / ntheta
    pts = (r[:, None] * np.exp(1j * th)[None, :]).reshape(-1, 1)
    area = np.repeat(r * (r_max / nr) * (2.0 * math.pi / ntheta), ntheta)
    return pts, area


def husimi_normalization_quadrature(state, eps: float, r_max: float,
                                    nr: int = 200, ntheta: int = 64) -> float:
    """Polar-grid integral of the Husimi density (single-mode states only)."""
    if state.basis.K != 1:
        raise ValueError("quadrature path is implemented for K = 1")
    pts, area = _polar_points(r_max, nr, ntheta)
    return float(np.sum(husimi_density(state, eps, pts) * area))


def husimi_kl_quadrature(state, ref, eps: float, r_max: float, nr: int = 200,
                         ntheta: int = 64) -> float:
    """Deterministic K=1 cross-check of husimi_kl_importance."""
    if state.basis.K != 1:
        raise ValueError("quadrature path is implemented for K = 1")
    pts, area = _polar_points(r_max, nr, ntheta)
    h = husimi_density(state, eps, pts)
    hp = husimi_density(ref, eps, pts)
    zh = float(np.sum(h * area))
    zhp = float(np.sum(hp * area))
    mask = h > 1e-290
    return float(np.sum(h[mask] / zh * np.log((h[mask] / zh)
                                              / np.clip(hp[mask] / zhp, 1e-290, None))
                        * area[mask]))


def branching_rows(basis, p: np.ndarray, rest: np.ndarray, n: int):
    """Sector ranks of p + rest and the sqrt(prod C(p_j+r_j, p_j)) weights."""
    source = rest + p[None, :]
    ranks = basis.table[source @ basis.strides] - int(basis.sector_offsets[n])
    logs = np.zeros(rest.shape[0])
    for j in np.flatnonzero(p):
        pj = int(p[j])
        sj = source[:, j].astype(float)
        logs += gammaln(sj + 1.0) - gammaln(sj - pj + 1.0) - math.lgamma(pj + 1.0)
    return ranks, np.exp(0.5 * logs)


def reduced_density_matrix_pairs(state, k: int):
    """k-body marginal by the per-pair partial trace: for each pair (p, q)
    of k-body occupations, sum_r c(p,r) c(q,r) G_n[p+r, q+r] over sectors,
    one Python-level reduction per pair, read from each sector's dense
    view."""
    basis = state.basis
    occs_k = colex_sector(basis.K, k)
    Dk = occs_k.shape[0]
    out = np.zeros((Dk, Dk), dtype=np.complex128)
    for n in range(k, basis.n_max + 1):
        G = dense_sector(state, n)
        rest = colex_sector(basis.K, n - k)
        ridx = np.arange(rest.shape[0])
        rows, coefs = zip(*[branching_rows(basis, p, rest, n) for p in occs_k])
        for a in range(Dk):
            ga = G[rows[a]]
            for b in range(Dk):
                out[a, b] += np.sum(coefs[a] * coefs[b] * ga[ridx, rows[b]])
    out = 0.5 * (out + out.conj().T)
    return MomentMatrix(k=k, entries=out, occupations=occs_k)


def brute_force_cutoff(eigenvalues, T: float, tail: float, dim_budget: int):
    """Smallest n >= 4 within dim_budget whose sectors n - 1 and n hold
    free mass < tail and whose sectors 0..n hold more than half of it, or
    None. Sector masses sum exp(-E/T)/Z_0 over the enumerated basis, with
    Z_0 = prod_j (1 - exp(-lambda_j/T))^-1."""
    lam = np.asarray(eigenvalues, dtype=float)
    K = lam.size
    n_top = 0
    while math.comb(K + n_top + 1, K) <= dim_budget:
        n_top += 1
    if n_top < 4:
        return None
    fb = build_fock_basis(K, n_top, dim_budget)
    log_z0 = -np.sum(np.log1p(-np.exp(-lam / T)))
    p = np.exp(-(fb.occupations @ lam) / T - log_z0)
    mass = np.array([p[fb.sector_slice(n)].sum() for n in range(n_top + 1)])
    for n in range(4, n_top + 1):
        if mass[n - 1] + mass[n] < tail and mass[:n + 1].sum() > 0.5:
            return n
    return None


def gibbs_blocks_csr(H, T: float):
    """exp(-H/T)/Z as (sector, class) blocks, log Z and <H>, with each
    class block sliced from the CSR matrix and solved by scipy's dense
    divide-and-conquer driver, whatever its shape, rebuilt as V V^T with
    V = U exp(-lam/2T) and then scaled by exp(-log Z)."""
    basis = H.basis
    eigs, solved = [], []
    for n in range(basis.n_max + 1):
        labels = H.labels[basis.sector_slice(n)]
        parts = []
        for c in np.unique(labels):
            rows = np.flatnonzero(labels == c) + basis.sector_offsets[n]
            B = H.matrix[rows][:, rows].toarray()
            parts.append((n, rows, *eigh(B, driver="evd")))
        eigs.append(np.sort(np.concatenate([lam for _, _, lam, _ in parts])))
        solved += parts
    eigs = np.concatenate(eigs)
    log_z = float(logsumexp(-eigs / T))
    energy = float(np.exp(-eigs / T - log_z) @ eigs)
    blocks = []
    for n, rows, lam, U in solved:
        V = U * np.exp(-lam / (2.0 * T))
        blocks.append((n, rows, (V @ V.T) * np.exp(-log_z)))
    return FockState(basis=basis, blocks=tuple(blocks)), log_z, energy


def gibbs_block_eigh(B: np.ndarray, T: float):
    """lam and V V^T of the dense class block B, V = U exp(-lam/2T), with
    (lam, U) = numpy.linalg.eigh(B) (which reads B's lower triangle) and
    V V^T one np.matmul(V, V.T) into a fresh array."""
    lam, U = np.linalg.eigh(B)
    U *= np.exp(-lam / (2.0 * T))
    G = np.empty_like(B)
    np.matmul(U, U.T, out=G)
    return lam, G


def hamiltonian_one_shot(fb, eigenvalues, tensor, lam: float):
    """The CSR matrix of H_0 + lam * W on the Fock basis fb, its pair term
    from one whole-basis two_body_coo call and one COO -> CSR conversion."""
    rows, cols, vals = two_body_coo(fb.occupations, fb.table, fb.strides,
                                    tensor.entries)
    W = sparse.coo_matrix((vals, (rows, cols)), shape=(fb.dim, fb.dim))
    return sparse.diags(fb.occupations @ eigenvalues).tocsr() \
        + lam * W.tocsr()
