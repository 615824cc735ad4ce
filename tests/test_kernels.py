import math
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg.blas import zherk

import gibbslab as gl
from gibbslab.kernels import (_STEP, Recurrence, _dsyevd, _products, _zherk,
                              occupation_products, occupation_sectors,
                              two_body_coo)

import oracles


def _random_inputs(seed, K=3, n_max=6, n_samples=40):
    rng = np.random.default_rng(seed)
    fb = gl.build_fock_basis(K, n_max)
    vs = rng.standard_normal((n_samples, K)) \
        + 1j * rng.standard_normal((n_samples, K))
    W = rng.uniform(0.0, 1.0, (K, K, K, K))
    W[rng.uniform(size=W.shape) < 0.3] = 0.0  # sparsity before symmetrizing
    W[0, 0, 0, 0] = 0.0                       # guarantee the skip path runs
    W = W + W.transpose(2, 3, 0, 1)           # hermitian
    W = W + W.transpose(1, 0, 3, 2)           # bosonic
    return fb, vs, W


def test_occupation_products_match_power_table():
    rng = np.random.default_rng(0)
    for seed in range(12):
        K, n_max = int(rng.integers(1, 4)), int(rng.integers(0, 9))
        fb, vs, _ = _random_inputs(seed, K=K, n_max=n_max, n_samples=30)
        norms = np.array([1.0 / math.sqrt(math.prod(math.factorial(int(x))
                                                    for x in row))
                          for row in fb.occupations])
        expect = oracles.power_products(vs, fb.occupations) * norms
        got = occupation_products(vs, Recurrence.graded(K, n_max))
        assert got.shape == (fb.dim, vs.shape[0])
        assert np.allclose(got.T, expect, rtol=1e-13, atol=1e-13)
        # a vacuum value per sample scales all of that sample's amplitudes
        vac = rng.uniform(0.1, 2.0, vs.shape[0])
        scaled = occupation_products(vs, Recurrence.graded(K, n_max), vac)
        assert np.allclose(scaled, got * vac, rtol=1e-14, atol=0.0)


def test_occupation_products_on_symmetric_sectors():
    # the graded index set 0..k gives sqrt(k!)-scaled sector k
    rng = np.random.default_rng(5)
    vs = rng.standard_normal((20, 4)) + 1j * rng.standard_normal((20, 4))
    for k in (1, 2, 3):
        rec = Recurrence.graded(4, k)
        occs = rec.sector(k)
        assert np.array_equal(occs, oracles.colex_sector(4, k))
        multinomial = np.array([math.factorial(k) / math.prod(
            math.factorial(int(x)) for x in row) for row in occs])
        expect = oracles.power_products(vs, occs) * np.sqrt(multinomial)
        got = occupation_products(vs, rec)[rec.offsets[k]:].T \
            * math.sqrt(math.factorial(k))
        assert np.allclose(got, expect, rtol=1e-13, atol=1e-13)


# Fock cuts of about a hundred rows, with sectors wider than a sector step
# at n = 4000 or more samples
_FOCK_N_MAX = {1: 12, 2: 10, 3: 6, 4: 5, 5: 4}


def _assert_matches_sector_gathers(K, n, fock_n_max):
    rng = np.random.default_rng(1000 * K + n)
    vs = rng.standard_normal((n, K)) + 1j * rng.standard_normal((n, K))
    vacuum = np.exp(-0.5 * np.sum(np.abs(vs) ** 2, axis=1))
    for rec in (Recurrence.graded(K, 3),
                Recurrence.graded(K, fock_n_max)):
        for vac in (None, vacuum):
            got = occupation_products(vs, rec, vac)
            want = oracles.sector_gather_products(vs, rec.occs, vac)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            # a reused buffer of the private route is overwritten in full
            buf = np.full(want.shape, np.nan + 0j)
            assert _products(vs, rec, vac, buf) is buf
            assert buf.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 255, 256, 257, 4000, 8192, 8193])
@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
def test_occupation_products_bitwise_match_sector_gathers(K, n):
    # row-sliced sector steps multiply the same operands as one gather per
    # sector
    _assert_matches_sector_gathers(K, n, _FOCK_N_MAX[K])


@pytest.mark.parametrize("n", [_STEP // 3, _STEP // 3 + 1, _STEP // 2,
                               _STEP // 2 + 1, _STEP, _STEP + 1])
def test_occupation_products_bitwise_across_the_row_step(n):
    # three- and two-row slices up to _STEP / 2 samples, single rows from
    # views beyond it
    _assert_matches_sector_gathers(2, n, 6)


_GRADED = Recurrence.graded(2, 3)


@pytest.mark.parametrize("occs", [
    _GRADED.occs,                  # the graded colex set 0..n itself
    _GRADED.occs.tolist(),         # the same as nested lists
    tuple(_GRADED),                # the Recurrence's fields, untyped
    [[1, 0], [0, 0]],              # vacuum not first
    [[0, 0], [0, 1], [1, 0]],      # closed under parents, not colex
    np.zeros((0, 2), dtype=int),   # no vacuum
    [[0, 0], [1, 0], [1, 0]],      # repeated row
])
def test_occupation_products_rejects_unusable_index_sets(occs):
    # both kernels walk a Recurrence and refuse anything else, even the
    # occupations one holds; nothing is rebuilt or searched for parents
    with pytest.raises(ValueError, match="Recurrence"):
        occupation_products(np.ones((3, 2)), occs)
    with pytest.raises(ValueError, match="Recurrence"):
        list(occupation_sectors(np.ones((3, 2)), occs, np.ones(3),
                                np.full(3, 3)))


def test_amplitude_kernels_refuse_vectors_of_another_mode_count():
    with pytest.raises(ValueError, match="mode count"):
        occupation_products(np.ones((3, 3)), _GRADED)
    with pytest.raises(ValueError, match="mode count"):
        list(occupation_sectors(np.ones((3, 3)), _GRADED, np.ones(3),
                                np.full(3, 3)))


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
def test_graded_recurrence_matches_a_tuple_oracle(K):
    # the builder's rows, sectors, parents and factor slots against an
    # itertools enumeration sorted into colex order, parents by tuple lookup;
    # sector m, the Sym^m basis, is the same rows for every n >= m, and a
    # sector outside 0..n is refused
    for n in range(13):
        rec = Recurrence.graded(K, n)
        want = oracles.graded_colex(K, n)
        for got, w in zip(rec, want, strict=True):
            assert got.dtype == np.int64
            assert np.array_equal(got, w)
        occs, offsets = want[:2]
        for m in range(n + 1):
            assert np.array_equal(rec.sector(m),
                                  occs[offsets[m]:offsets[m + 1]])
        for m in (-1, n + 1):
            with pytest.raises(ValueError, match="sector"):
                rec.sector(m)
    with pytest.raises(ValueError):
        Recurrence.graded(K, -1)


def test_building_a_basis_leaves_nothing_behind():
    # the enumeration caches nothing: building and dropping a K=2, n_max=400
    # basis (80601 rows) returns the traced memory to where it started, so
    # a second basis is not cheaper than the first
    gl.build_fock_basis(2, 8)            # first-call imports and constants
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        basis = gl.build_fock_basis(2, 400, dim_budget=100_000)
        held, _ = tracemalloc.get_traced_memory()
        del basis
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held - before > 2 << 20       # the basis itself was traced
    assert after - before < 1 << 20


@pytest.mark.parametrize("n", [1, 40, _STEP // 2 + 1])
@pytest.mark.parametrize("K", [1, 2, 3])
def test_occupation_sectors_are_bitwise_the_products(K, n):
    # each sector of the stream, for the suffix of columns that reach it,
    # is those rows and columns of occupation_products
    rng = np.random.default_rng(K * n)
    fb = gl.build_fock_basis(K, _FOCK_N_MAX[K] if n < 1000 else 6)
    vs = rng.standard_normal((n, K)) + 1j * rng.standard_normal((n, K))
    vac = np.exp(-0.5 * np.sum(np.abs(vs) ** 2, axis=1))
    want = occupation_products(vs, fb.recurrence, vac)
    for reach in (np.full(n, fb.n_max),
                  np.sort(rng.integers(0, fb.n_max + 1, n))):
        steps = []
        for m, c, A in occupation_sectors(vs, fb.recurrence, vac, reach):
            assert c == np.sum(reach < m)
            assert A.flags.owndata and A.flags.c_contiguous
            assert A.tobytes() == want[fb.sector_slice(m), c:].tobytes()
            steps.append(m)
        assert steps == list(range(reach[-1] + 1))


@pytest.mark.parametrize("reach", [[2, 1, 3], [0, 1], [0, 1, 4],
                                   [-1, 2, 3]])
def test_occupation_sectors_rejects_an_unfit_reach(reach):
    # decreasing, one column short, beyond the top sector, below the vacuum
    rec = Recurrence.graded(2, 3)
    with pytest.raises(ValueError, match="reach"):
        list(occupation_sectors(np.ones((3, 2)), rec, np.ones(3),
                                np.array(reach)))


def test_a_shared_recurrence_gives_the_same_bits():
    # one table over the whole basis serves every prefix of whole sectors
    rng = np.random.default_rng(5)
    fb = gl.build_fock_basis(2, 12)
    rec = fb.recurrence
    vs = rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2))
    vac = np.exp(-0.5 * np.sum(np.abs(vs) ** 2, axis=1))
    assert occupation_products(vs, rec, vac).tobytes() \
        == occupation_products(vs, Recurrence.graded(2, 12), vac).tobytes()
    reach = np.sort(rng.integers(0, 7, 50))
    prefix = Recurrence.graded(2, int(reach[-1]))
    for (m, c, A), (m0, c0, A0) in zip(
            occupation_sectors(vs, rec, vac, reach),
            occupation_sectors(vs, prefix, vac, reach), strict=True):
        assert (m, c) == (m0, c0) and A.tobytes() == A0.tobytes()


@pytest.mark.parametrize("shape", [(1, 40), (6, 1), (6, 0), (35, 8192)])
def test_ctypes_zherk_is_scipys_zherk_bitwise(shape):
    # a single row, a single sample, zero samples and a moment chunk
    rng = np.random.default_rng(sum(shape))
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    D = shape[0]
    c = np.asfortranarray(rng.standard_normal((D, D))
                          + 1j * rng.standard_normal((D, D)))
    want = zherk(1.0, a.T, beta=1.0, c=c.copy(order="F"), trans=2,
                 overwrite_c=1)
    got = c.copy(order="F")
    _zherk(a, got)
    assert got.tobytes() == want.tobytes()
    assert (got.tobytes() == c.tobytes()) == (shape[1] == 0)


@pytest.mark.parametrize("a, c, match", [
    (np.ones((4, 10), dtype=complex)[:, ::2], None, "C-contiguous"),
    (np.ones((4, 5), dtype=complex, order="F"), None, "C-contiguous"),
    (np.ones((4, 5)), None, "C-contiguous"),
    (np.ones((4, 5), dtype=complex), np.zeros((4, 4), dtype=complex),
     "Fortran"),
    (np.ones((4, 5), dtype=complex), np.zeros((3, 3), dtype=complex,
                                              order="F"), "Fortran"),
])
def test_ctypes_zherk_refuses_a_layout_it_would_misread(a, c, match):
    # BLAS gets raw pointers: a strided view, a transposed layout or a real
    # array would be read as garbage, not copied
    if c is None:
        c = np.zeros((4, 4), dtype=complex, order="F")
    with pytest.raises(ValueError, match=match):
        _zherk(a, c)
    assert not c.any()


@pytest.mark.parametrize("case", ["C-ordered", "strided",
                                  "strided eigenvalues"])
def test_ctypes_dsyevd_refuses_a_layout_it_would_misread(case):
    # LAPACK gets raw pointers: a C-ordered or strided matrix, or a strided
    # eigenvalue array, is refused
    d = 6
    a, w = np.asfortranarray(np.eye(d)), np.empty(d)
    if case == "C-ordered":
        a = np.ascontiguousarray(a + np.tri(d))
    elif case == "strided":
        a = np.asfortranarray(np.eye(2 * d))[::2, ::2]
    else:
        w = np.empty(2 * d)[::2]
    before = a.copy()
    with pytest.raises(ValueError, match="dsyevd needs"):
        _dsyevd(a, w)
    assert np.array_equal(a, before)


def test_two_body_coo_matches_ladder_products():
    inputs = [_random_inputs(seed, K=K)[::2]
              for K in range(2, 5) for seed in range(4)]
    # K = 1 has the one entry W[0,0,0,0], which _random_inputs zeroes; an
    # all-zero W gives empty triplets
    inputs += [(gl.build_fock_basis(1, 6), np.full((1,) * 4, 0.7)),
               (gl.build_fock_basis(3, 6), np.zeros((3,) * 4))]
    for fb, W in inputs:
        rows, cols, vals = two_body_coo(fb.occupations, fb.table, fb.strides,
                                        W)
        assert rows.dtype == cols.dtype == np.int64 and vals.dtype == float
        assert rows.size == cols.size == vals.size
        assert (rows.size == 0) == (not W.any())
        got = sparse.coo_matrix((vals, (rows, cols)),
                                shape=(fb.dim, fb.dim)).toarray()
        ops = [gl.ladder(fb, j + 1) for j in range(fb.K)]
        expect = np.zeros((fb.dim, fb.dim))
        for i, j, k, l in zip(*np.nonzero(W)):
            term = ops[i][1] @ ops[j][1] @ ops[l][0] @ ops[k][0]
            expect += 0.5 * W[i, j, k, l] * term.toarray()
        assert np.abs(got - expect).max() < 1e-12
        assert np.abs(got - got.T).max() < 1e-12


def test_reference_products_match_direct_loop():
    fb, vs, _ = _random_inputs(1, K=2, n_max=4, n_samples=5)
    out = occupation_products(vs, fb.recurrence)
    for s in range(vs.shape[0]):
        for d, occ in enumerate(fb.occupations):
            direct = np.prod([vs[s, j] ** occ[j]
                              / math.sqrt(math.factorial(occ[j]))
                              for j in range(2)])
            assert abs(out[d, s] - direct) < 1e-12
