import math

import numpy as np
import pytest
from scipy import sparse

import gibbslab as gl
from gibbslab import symspace
from gibbslab.kernels import occupation_products, two_body_coo

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
        got = occupation_products(vs, fb.occupations)
        assert got.shape == (fb.dim, vs.shape[0])
        assert np.allclose(got.T, expect, rtol=1e-13, atol=1e-13)
        # a vacuum value per sample scales all of that sample's amplitudes
        vac = rng.uniform(0.1, 2.0, vs.shape[0])
        scaled = occupation_products(vs, fb.occupations, vac)
        assert np.allclose(scaled, got * vac, rtol=1e-14, atol=0.0)


def test_occupation_products_on_symmetric_sectors():
    # the graded index set 0..k of symspace gives sqrt(k!)-scaled sector k
    rng = np.random.default_rng(5)
    vs = rng.standard_normal((20, 4)) + 1j * rng.standard_normal((20, 4))
    for k in (1, 2, 3):
        graded, offsets = symspace.graded_indices(4, k)
        occs = symspace.multi_indices(4, k)
        assert np.array_equal(graded[offsets[k]:], occs)
        multinomial = np.array([math.factorial(k) / math.prod(
            math.factorial(int(x)) for x in row) for row in occs])
        expect = oracles.power_products(vs, occs) * np.sqrt(multinomial)
        got = occupation_products(vs, graded)[offsets[k]:].T \
            * math.sqrt(math.factorial(k))
        assert np.allclose(got, expect, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("occs", [
    [[1, 0], [0, 0]],              # vacuum not first
    [[0, 0], [1, 1], [1, 0]],      # not graded
    [[0, 0], [0, 1], [1, 1]],      # (1, 1) lacks its parent (1, 0)
    [[0, 0], [1, 0], [1, 0]],      # repeated row
])
def test_occupation_products_rejects_unusable_index_sets(occs):
    with pytest.raises(ValueError):
        occupation_products(np.ones((3, 2)), np.array(occs))


def test_two_body_coo_matches_ladder_products():
    for seed in range(4):
        fb, _, W = _random_inputs(seed)
        rows, cols, vals = two_body_coo(fb.occupations, fb.table, fb.strides,
                                        W)
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
    out = occupation_products(vs, fb.occupations)
    for s in range(vs.shape[0]):
        for d, occ in enumerate(fb.occupations):
            direct = np.prod([vs[s, j] ** occ[j]
                              / math.sqrt(math.factorial(occ[j]))
                              for j in range(2)])
            assert abs(out[d, s] - direct) < 1e-12
