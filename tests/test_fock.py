import gc
import math
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.special import gammaln, logsumexp

import gibbslab as gl
from gibbslab import fock
from gibbslab.kernels import _syevd_sizes

import oracles


def test_basis_dimensions():
    assert gl.build_fock_basis(1, 10).dim == 11
    assert gl.build_fock_basis(3, 10).dim == math.comb(13, 3) == 286
    assert gl.build_fock_basis(2, 0).dim == 1


def test_basis_order_and_offsets():
    fb = gl.build_fock_basis(2, 2)
    assert fb.occupations.tolist() == [[0, 0], [1, 0], [0, 1],
                                       [2, 0], [1, 1], [0, 2]]
    assert fb.sector_offsets.tolist() == [0, 1, 3, 6]
    # (1, 1) is the second state of sector 2
    assert fb.table[np.array([1, 1]) @ fb.strides] - fb.sector_offsets[2] == 1


def test_basis_budget_overflow():
    with pytest.raises(ValueError):
        gl.build_fock_basis(3, 100, dim_budget=20000)


def test_number_operator_is_adag_a():
    fb = gl.build_fock_basis(1, 10)
    a, adag = gl.ladder(fb, 1)
    n_op = (adag @ a).toarray()
    assert np.allclose(n_op, np.diag(np.arange(11.0)))


def test_annihilation_kills_vacuum():
    fb = gl.build_fock_basis(2, 4)
    a, _ = gl.ladder(fb, 1)
    vac = np.zeros(fb.dim)
    vac[0] = 1.0
    assert not np.any(a @ vac)


def test_ladder_commutator_below_cutoff():
    fb = gl.build_fock_basis(2, 4)
    a1, ad1 = gl.ladder(fb, 1)
    a2, ad2 = gl.ladder(fb, 2)
    comm = (a1 @ ad1 - ad1 @ a1).toarray()
    cross = (a1 @ ad2 - ad2 @ a1).toarray()
    below = fb.occupations.sum(axis=1) < fb.n_max
    idx = np.flatnonzero(below)
    assert np.allclose(comm[np.ix_(idx, idx)], np.eye(idx.size))
    assert np.allclose(cross[np.ix_(idx, idx)], 0.0)
    # creation out of the top sector is truncated to zero
    top = np.flatnonzero(~below)
    assert not np.any(ad1.toarray()[:, top])


def test_ladder_mode_range():
    fb = gl.build_fock_basis(2, 3)
    with pytest.raises(ValueError):
        gl.ladder(fb, 0)
    with pytest.raises(ValueError):
        gl.ladder(fb, 3)


def test_single_mode_sector_energies(basis_k2, tensor_k2):
    fb = gl.build_fock_basis(1, 4)
    t1 = gl.TwoBodyTensor(tensor_k2.entries[:1, :1, :1, :1])
    lam1 = basis_k2.eigenvalues[:1]
    w = t1.entries[0, 0, 0, 0]
    coupling = 0.6
    H = gl.build_hamiltonian(fb, lam1, t1, coupling)
    diag = H.matrix.toarray().diagonal()
    expect = [lam1[0] * n + coupling * w * n * (n - 1) / 2 for n in range(5)]
    assert np.allclose(diag, expect, atol=1e-12)
    assert np.allclose(H.matrix.toarray(), np.diag(diag))


def test_free_hamiltonian_is_diagonal(basis_k2):
    fb = gl.build_fock_basis(2, 3)
    H = oracles.free_hamiltonian(fb, basis_k2.eigenvalues)
    M = H.matrix.toarray()
    assert np.allclose(M, np.diag(fb.occupations @ basis_k2.eigenvalues))


def test_two_body_annihilates_low_sectors(basis_k2, tensor_k2):
    fb = gl.build_fock_basis(2, 4)
    H0 = oracles.free_hamiltonian(fb, basis_k2.eigenvalues)
    H1 = gl.build_hamiltonian(fb, basis_k2.eigenvalues, tensor_k2, 1.0)
    W = (H1.matrix - H0.matrix).toarray()
    low = slice(0, 3)  # vacuum + one-particle sector
    assert not np.any(W[low, :]) and not np.any(W[:, low])
    assert H1.hermiticity_defect() < 1e-12


def test_hamiltonian_is_sector_block_diagonal(basis_k2, tensor_k2):
    fb = gl.build_fock_basis(2, 5)
    H = gl.build_hamiltonian(fb, basis_k2.eigenvalues, tensor_k2, 0.8)
    M = H.matrix.toarray()
    totals = fb.occupations.sum(axis=1)
    off_sector = totals[:, None] != totals[None, :]
    assert not np.any(M[off_sector])


def test_two_body_matches_pair_potential_on_sectors(basis_k2, tensor_k2):
    # on the n-particle sector the normal-ordered operator must equal
    # sum_{p<q} w(x_p - x_q); check n = 2 against the symmetric-space matrix
    fb = gl.build_fock_basis(2, 3)
    H0 = oracles.free_hamiltonian(fb, basis_k2.eigenvalues)
    H1 = gl.build_hamiltonian(fb, basis_k2.eigenvalues, tensor_k2, 1.0)
    W = (H1.matrix - H0.matrix).toarray()
    s = fb.sector_slice(2)
    assert np.allclose(W[s, s], tensor_k2.pair_matrix(), atol=1e-12)


def test_gibbs_geometric_partition_function():
    fb = gl.build_fock_basis(1, 10)
    H = oracles.free_hamiltonian(fb, np.array([1.0]))
    state, log_z, _ = gl.gibbs_state(H, 1.0)
    exact = math.log((1.0 - math.exp(-11.0)) / (1.0 - math.exp(-1.0)))
    assert abs(log_z - exact) < 1e-10
    assert abs(state.sector_probabilities().sum() - 1.0) < 1e-10


def test_gibbs_low_temperature_is_vacuum(basis_k2, tensor_k2):
    fb = gl.build_fock_basis(2, 4)
    H = gl.build_hamiltonian(fb, basis_k2.eigenvalues, tensor_k2, 0.5)
    state, _, _ = gl.gibbs_state(H, 1e-3)
    probs = state.sector_probabilities()
    assert probs[0] == pytest.approx(1.0, abs=1e-12)
    assert gl.particle_number(state) < 1e-12


def test_gibbs_commutes_with_number(basis_k2, tensor_k2):
    fb = gl.build_fock_basis(2, 4)
    H = gl.build_hamiltonian(fb, basis_k2.eigenvalues, tensor_k2, 0.5)
    state, _, _ = gl.gibbs_state(H, 2.0)
    N = np.diag(fb.occupations.sum(axis=1).astype(float))
    M = state.to_dense()
    assert np.abs(N @ M - M @ N).max() < 1e-12
    eigs = np.concatenate([np.linalg.eigvalsh(G)
                           for *_, G in state.blocks])
    assert eigs.min() > -1e-12


def test_gibbs_rejects_bad_input(basis_k2):
    fb = gl.build_fock_basis(2, 3)
    H = oracles.free_hamiltonian(fb, basis_k2.eigenvalues)
    with pytest.raises(ValueError):
        gl.gibbs_state(H, 0.0)
    bad = fock.FockOperator(fb, sparse.csr_matrix(
        np.triu(np.ones((fb.dim, fb.dim)))), np.zeros(fb.dim, dtype=np.int64))
    with pytest.raises(ValueError):
        gl.gibbs_state(bad, 1.0)


def _random_reflection_tensor(K, parity, rng):
    """Real W with W[ijkl] = W[klij] = W[jilk] and every entry whose mode
    classes sum to an odd number exactly zero."""
    A = rng.uniform(0.0, 1.0, (K,) * 4)
    W = (A + A.transpose(2, 3, 0, 1) + A.transpose(1, 0, 3, 2)
         + A.transpose(3, 2, 1, 0)) / 4.0
    p = np.asarray(parity)
    odd = np.add.outer(np.add.outer(p, p), np.add.outer(p, p)) % 2 == 1
    return np.where(odd, 0.0, W)


def _with_forbidden_entry(tensor):
    # one parity-forbidden entry of 1e-6 and its symmetric partners
    W = tensor.entries.copy()
    for idx in [(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)]:
        W[idx] = 1e-6
    return W


@settings(max_examples=30, deadline=None)
@given(K=st.integers(1, 3), n_max=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1), T=st.floats(0.5, 5.0),
       lam=st.floats(0.0, 1.0))
def test_parity_split_matches_one_class(K, n_max, seed, T, lam):
    rng = np.random.default_rng(seed)
    parity = rng.integers(0, 2, K)
    W = _random_reflection_tensor(K, parity, rng)
    eigenvalues = np.sort(rng.uniform(0.5, 5.0, K))
    split = gl.TwoBodyTensor.with_parity(W, parity)
    assert np.array_equal(split.parity, parity)
    fb = gl.build_fock_basis(K, n_max)
    H = gl.build_hamiltonian(fb, eigenvalues, split, lam)
    assert np.array_equal(H.labels, fb.occupations @ parity % 2)
    got, log_z, _ = gl.gibbs_state(H, T)
    want, log_z_one, _ = gl.gibbs_state(
        gl.build_hamiltonian(fb, eigenvalues, gl.TwoBodyTensor(W), lam), T)
    assert abs(log_z - log_z_one) <= 1e-12 * max(1.0, abs(log_z_one))
    for n in range(n_max + 1):
        assert np.abs(oracles.dense_sector(got, n)
                      - oracles.dense_sector(want, n)).max() <= 1e-12


@settings(max_examples=20, deadline=None)
@given(K=st.integers(1, 3), n_max=st.integers(2, 8),
       seed=st.integers(0, 2**32 - 1), T=st.floats(0.5, 5.0),
       lam=st.floats(0.0, 1.0))
def test_parity_split_gibbs_state_properties(K, n_max, seed, T, lam):
    rng = np.random.default_rng(seed)
    parity = rng.integers(0, 2, K)
    tensor = gl.TwoBodyTensor.with_parity(
        _random_reflection_tensor(K, parity, rng), parity)
    eigenvalues = np.sort(rng.uniform(0.5, 5.0, K))
    fb = gl.build_fock_basis(K, n_max)
    gibbs, log_z, _ = gl.gibbs_state(
        gl.build_hamiltonian(fb, eigenvalues, tensor, lam), T)
    free, log_z0, _ = gl.gibbs_state(
        oracles.free_hamiltonian(fb, eigenvalues), T)
    free = oracles.diagonal_of(free)
    g1 = gl.reduced_density_matrix(gibbs, 1)
    assert g1.trace() == pytest.approx(gl.particle_number(gibbs), abs=1e-10)
    for k in (1, 2):
        pt = gl.reduced_density_matrix(gibbs, k).entries
        no = gl.reduced_dm_normal_ordered(gibbs, k).entries
        assert np.abs(pt - no).max() <= 1e-10
        assert np.linalg.eigvalsh(pt).min() >= -1e-12
    split = gl.energy_decomposition(gibbs, eigenvalues, tensor, lam)
    assert split.total == pytest.approx(split.one_body + split.two_body,
                                        rel=1e-9, abs=1e-12)
    fe = gl.relative_free_energy(gibbs, free, tensor, lam, T)
    assert fe == pytest.approx(T * (log_z0 - log_z), rel=1e-8, abs=1e-10)
    other = fock.random_state(fb, seed % 1000)
    assert gl.relative_free_energy(other, free, tensor, lam, T) >= fe - 1e-10


def test_forbidden_entry_falls_back_and_matches_dense_route(basis_k3,
                                                            tensor_k3):
    # negative control: the check refuses the split, and the one-class
    # Gibbs state equals exp(-H/T)/Z from one eigensolve of the dense H
    W = _with_forbidden_entry(tensor_k3)
    tensor = gl.TwoBodyTensor.with_parity(W, tensor_k3.parity)
    assert not tensor.parity.any() and np.array_equal(tensor.entries, W)
    assert not gl.TwoBodyTensor.with_parity(W, None).parity.any()
    T = 3.0
    fb = gl.build_fock_basis(3, 6)
    H = gl.build_hamiltonian(fb, basis_k3.eigenvalues, tensor, 0.7)
    assert not H.labels.any()
    gibbs, log_z, _ = gl.gibbs_state(H, T)
    E, V = np.linalg.eigh(H.matrix.toarray())
    want_log_z = float(np.log(np.sum(np.exp(-E / T))))
    assert log_z == pytest.approx(want_log_z, rel=1e-12)
    rho = (V * np.exp(-E / T - want_log_z)) @ V.T
    assert np.abs(gibbs.to_dense() - rho).max() <= 1e-12


def test_gibbs_refuses_labels_that_cut_an_entry(basis_k3, tensor_k3):
    fb = gl.build_fock_basis(3, 4)
    labels = fb.occupations @ tensor_k3.parity % 2
    H = gl.build_hamiltonian(fb, basis_k3.eigenvalues,
                             gl.TwoBodyTensor(_with_forbidden_entry(tensor_k3)),
                             0.7)
    cut = fock.FockOperator(fb, H.matrix, labels)
    with pytest.raises(ValueError, match="different classes"):
        gl.gibbs_state(cut, 1.0)
    # the same labels on the checked tensor's Hamiltonian cut nothing
    H = gl.build_hamiltonian(fb, basis_k3.eigenvalues, tensor_k3, 0.7)
    assert np.array_equal(H.labels, labels) and labels.any()
    gl.gibbs_state(H, 1.0)


def test_gibbs_refuses_an_entry_between_sectors(basis_k3, tensor_k3):
    # the vacuum coupled to the one-particle state (1, 0, 0) of the same
    # label: a number-changing entry that no Gibbs block can hold
    fb = gl.build_fock_basis(3, 4)
    H = gl.build_hamiltonian(fb, basis_k3.eigenvalues, tensor_k3, 0.7)
    assert fb.occupations[1].tolist() == [1, 0, 0] and H.labels[1] == 0
    bump = sparse.csr_matrix(([0.3, 0.3], ([0, 1], [1, 0])),
                             shape=H.matrix.shape)
    changed = fock.FockOperator(fb, H.matrix + bump, H.labels)
    with pytest.raises(ValueError, match="different classes or sectors"):
        gl.gibbs_state(changed, 1.0)


def test_rdm_pure_two_particle_state():
    fb = gl.build_fock_basis(1, 6)
    blocks = [np.zeros((1, 1)) for _ in range(7)]
    blocks[2] = np.ones((1, 1))
    state = fock.FockState.from_sectors(fb, blocks)
    g1 = gl.reduced_density_matrix(state, 1)
    assert g1.entries[0, 0] == pytest.approx(2.0)   # binomial weight C(2,1)
    g2 = gl.reduced_density_matrix(state, 2)
    assert g2.entries[0, 0] == pytest.approx(1.0)   # C(2,2)
    assert gl.particle_number(state) == pytest.approx(2.0)


def test_rdm_order_guard():
    fb = gl.build_fock_basis(1, 3)
    state = fock.random_state(fb, 0)
    with pytest.raises(ValueError):
        gl.reduced_density_matrix(state, 4)
    with pytest.raises(ValueError):
        gl.reduced_dm_normal_ordered(state, 0)
    for k in (0, 4):
        with pytest.raises(ValueError):
            gl.reduced_density_matrix(state, k)


def test_free_gibbs_occupancies_closed_form(basis_k2):
    T = 2.0
    n_max = gl.choose_n_max(basis_k2.eigenvalues, T, tail=1e-12)
    fb = gl.build_fock_basis(2, n_max)
    H = oracles.free_hamiltonian(fb, basis_k2.eigenvalues)
    state, _, _ = gl.gibbs_state(H, T)
    occ = np.real(np.diag(gl.reduced_density_matrix(state, 1).entries))
    exact = 1.0 / (np.exp(basis_k2.eigenvalues / T) - 1.0)
    assert np.abs(occ - exact).max() < 1e-8
    n_exact = exact.sum()
    assert abs(gl.particle_number(state) - n_exact) < 1e-8


def test_rdm_routes_agree_on_random_states():
    rng_seeds = range(6)
    for K, n_max in [(1, 8), (2, 6), (3, 5)]:
        fb = gl.build_fock_basis(K, n_max)
        for seed in rng_seeds:
            state = fock.random_state(fb, seed)
            for k in (1, 2, 3):
                if k > n_max:
                    continue
                a = gl.reduced_density_matrix(state, k)
                b = gl.reduced_dm_normal_ordered(state, k)
                assert np.abs(a.entries - b.entries).max() < 1e-10
                assert np.linalg.eigvalsh(a.entries).min() > -1e-12


@settings(max_examples=40, deadline=None)
@given(K=st.integers(1, 3), n_max=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["random", "gibbs", "gaps"]),
       data=st.data())
def test_rdm_gather_is_bitwise_the_pair_loop(K, n_max, seed, kind, data):
    # "gaps": a two-class Gibbs state with the blocks of some sectors
    # dropped, the way a trial state is stored
    k = data.draw(st.sampled_from(sorted({*range(1, min(3, n_max) + 1),
                                          n_max})), label="k")
    fb = gl.build_fock_basis(K, n_max)
    if kind in ("gibbs", "gaps"):
        rng = np.random.default_rng(seed)
        parity = rng.integers(0, 2, K)
        if kind == "gaps":
            parity[0], parity[-1] = 0, 1
        tensor = gl.TwoBodyTensor.with_parity(
            _random_reflection_tensor(K, parity, rng), parity)
        H = gl.build_hamiltonian(fb, np.sort(rng.uniform(0.5, 5.0, K)),
                                 tensor, rng.uniform(0.0, 1.0))
        state, _, _ = gl.gibbs_state(H, rng.uniform(0.5, 5.0))
    else:
        state = fock.random_state(fb, seed)
    want_state = state
    if kind == "gaps":
        kept = rng.integers(0, 2, n_max + 1).astype(bool)
        state = fock.FockState(fb, tuple(b for b in state.blocks
                                         if kept[b[0]]))
        want_state = oracles.padded(state, want_state.blocks)
        if K >= 2 and n_max >= 2:
            assert len({b[0] for b in want_state.blocks}) \
                < len(want_state.blocks)
    got = gl.reduced_density_matrix(state, k)
    occs_k = got.occupations
    assert np.array_equal(occs_k, oracles.colex_sector(K, k))
    for n in range(k, n_max + 1):
        # sector n as the gather branches it, in places of sector n
        rows, coefs = fock._branching(fb, k, n - k, _log_factorials(fb))
        rest = oracles.colex_sector(K, n - k)
        for a, p in enumerate(occs_k):
            ranks, c = oracles.branching_rows(fb, p, rest, n)
            assert np.array_equal(rows[a], ranks)
            assert coefs[a].tobytes() == c.tobytes()
    assert np.array_equal(got.entries, oracles.reduced_density_matrix_pairs(
        want_state, k).entries)
    every = fock._state_marginals(state, range(1, min(3, n_max) + 1))
    assert list(every) == list(range(1, min(3, n_max) + 1))
    for j, g in every.items():
        one = gl.reduced_density_matrix(state, j)
        assert g.k == j and np.array_equal(g.occupations, one.occupations)
        assert g.entries.tobytes() == one.entries.tobytes()


@pytest.mark.parametrize("K", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_branching_table_weights_are_binomial(K, k):
    # every sector k..n_max, branched over Sym^k (x) Sym^m, m = 0..n_max-k
    n_max = k + 4
    fb = gl.build_fock_basis(K, n_max)
    occs_k = fb.recurrence.sector(k)
    for m in range(n_max - k + 1):
        rows, coefs = fock._branching(fb, k, m, _log_factorials(fb))
        rest = fb.recurrence.sector(m)
        assert rows.shape == coefs.shape == (occs_k.shape[0], rest.shape[0])
        sector = fb.occupations[fb.sector_slice(m + k)]
        for a, p in enumerate(occs_k):
            for r, occ in enumerate(rest):
                assert np.array_equal(sector[rows[a, r]], p + occ)
                exact = math.sqrt(math.prod(math.comb(int(x + y), int(x))
                                            for x, y in zip(p, occ)))
                assert abs(coefs[a, r] - exact) <= 1e-15 * exact


def _log_factorials(fb):
    """The log-factorial table the marginal gather hands _branching."""
    return fock._Marginals(fb, ()).log_fact


@pytest.mark.parametrize("K, n_max", [(2, 197), (3, 30)])
def test_branching_table_lookup_matches_gammaln(K, n_max):
    # the table lookups give gammaln's bits on every occupation: the
    # weights of every (k, m) equal those of gammaln evaluated per entry
    fb = gl.build_fock_basis(K, n_max)
    table = _log_factorials(fb)
    assert table.tobytes() == gammaln(np.arange(n_max + 1) + 1.0).tobytes()
    for k in range(1, 4):
        occs_k = fb.recurrence.sector(k)
        lgamma_p = np.array([math.lgamma(i + 1.0) for i in range(k + 1)])
        for m in range(n_max - k + 1):
            rows, coefs = fock._branching(fb, k, m, table)
            p, r = occs_k[:, None, :], fb.recurrence.sector(m)[None, :, :]
            terms = gammaln(p + r + 1.0) - gammaln(r + 1.0) - lgamma_p[p]
            logs = terms[..., 0]
            for j in range(1, K):
                logs = logs + terms[..., j]
            assert coefs.tobytes() == np.exp(0.5 * logs).tobytes()


def test_marginal_tables_read_the_basis_sectors(monkeypatch):
    # the k-body occupations of the marginal gather (its per-sector
    # branching included) and of the normal-ordered route are the basis's
    # own sectors k: neither enumerates anything
    fb = gl.build_fock_basis(3, 6)
    state = fock.random_state(fb, 3)
    calls = []
    graded = gl.kernels.Recurrence.graded

    def counting(K, n):
        calls.append((K, n))
        return graded(K, n)

    monkeypatch.setattr(gl.kernels.Recurrence, "graded", counting)
    every = fock._state_marginals(state, (1, 2, 3))
    normal = gl.reduced_dm_normal_ordered(state, 2)
    assert calls == []
    assert list(every) == [1, 2, 3]
    for k, g in every.items():
        assert np.shares_memory(g.occupations, fb.occupations)
        assert np.array_equal(g.occupations, oracles.colex_sector(3, k))
    assert np.array_equal(normal.occupations, oracles.colex_sector(3, 2))


def _random_charge_tensor(K, charge, rng):
    """Real W with W[ijkl] = W[klij] = W[jilk], zero unless the pair term
    conserves the mod-3 charge: charge[i] + charge[j] = charge[k] + charge[l]
    mod 3."""
    A = rng.uniform(0.0, 1.0, (K,) * 4)
    W = (A + A.transpose(2, 3, 0, 1) + A.transpose(1, 0, 3, 2)
         + A.transpose(3, 2, 1, 0)) / 4.0
    q = np.asarray(charge)
    pair = np.add.outer(q, q)
    return np.where(np.subtract.outer(pair, pair) % 3 == 0, W, 0.0)


@settings(max_examples=30, deadline=None)
@given(K=st.integers(2, 3), n_max=st.integers(2, 7),
       seed=st.integers(0, 2**32 - 1), T=st.floats(0.5, 5.0),
       lam=st.floats(0.0, 1.0))
@example(K=3, n_max=6, seed=3643, T=1.0, lam=1.0)
def test_mod3_class_blocks_match_dense_oracles(K, n_max, seed, T, lam):
    # three classes per sector from n = 2 on: every consumer of the class
    # blocks against its whole-space or pair-loop oracle
    rng = np.random.default_rng(seed)
    charge = np.concatenate([[0, 1], rng.integers(0, 3, K - 2)])
    W = _random_charge_tensor(K, charge, rng)
    eigenvalues = np.sort(rng.uniform(0.5, 5.0, K))
    fb = gl.build_fock_basis(K, n_max)
    H = gl.build_hamiltonian(fb, eigenvalues, gl.TwoBodyTensor(W), lam)
    labels = fb.occupations @ charge % 3
    state, log_z, _ = gl.gibbs_state(fock.FockOperator(fb, H.matrix, labels), T)
    assert np.unique(labels[fb.sector_slice(2)]).size == 3
    assert {n for n, *_ in state.blocks} == set(range(n_max + 1))
    for _, rows, G in state.blocks:
        assert np.all(labels[rows] == labels[rows[0]])
    E = np.linalg.eigvalsh(H.matrix.toarray())
    assert log_z == pytest.approx(float(logsumexp(-E / T)), rel=1e-12)
    rho = state.to_dense()
    for k in range(1, min(3, n_max) + 1):
        assert np.array_equal(
            gl.reduced_density_matrix(state, k).entries,
            oracles.reduced_density_matrix_pairs(state, k).entries)
    ref = _random_diagonal(fb, rng)
    assert gl.relative_entropy(state, ref) == pytest.approx(
        oracles.relative_entropy_dense(rho, np.diag(ref.p)),
        rel=1e-10, abs=1e-12)
    z = rng.standard_normal((200, K)) + 1j * rng.standard_normal((200, K))
    pts = z * np.sqrt(rng.uniform(0.0, n_max, 200) / 2.0)[:, None]
    got = gl.husimi_density(state, 1.0, pts)
    want = oracles.husimi_dense(rho, fb, 1.0, pts)
    # the terms a_i rho_ij a_j cancel where the density is small, so each
    # point is bounded by the sum of their magnitudes, not by the density
    A = np.abs(oracles.coherent_amplitudes(pts, fb))
    bound = 1e-13 * np.pi ** (-K) * np.sum(A * (A @ np.abs(rho)), axis=1)
    assert np.all(np.abs(got - want) <= bound)
    # negative control: the vacuum block moved by 1e-9 relative fails it
    n, rows, G = state.blocks[0]
    moved = fock.FockState(fb, ((n, rows, G * (1 + 1e-9)),) + state.blocks[1:])
    assert np.any(np.abs(gl.husimi_density(moved, 1.0, pts) - want) > bound)
    total = float(np.real(np.sum(H.matrix.toarray() * rho.T)))
    split = gl.energy_decomposition(state, eigenvalues, gl.TwoBodyTensor(W),
                                    lam)
    assert split.total == pytest.approx(total, rel=1e-12)


def test_parity_split_gibbs_state_stores_no_zero_padding(basis_k3,
                                                         tensor_k3):
    # the stored entries are sum over (sector, class) of d_c^2, fewer than
    # the sum over sectors of d_n^2 that whole sector blocks would hold
    fb = gl.build_fock_basis(3, 10)
    H = gl.build_hamiltonian(fb, basis_k3.eigenvalues, tensor_k3, 0.5)
    gibbs, _, _ = gl.gibbs_state(H, 2.0)
    class_sizes = [np.bincount(H.labels[fb.sector_slice(n)])
                   for n in range(fb.n_max + 1)]
    want = sum(int(np.sum(c[c > 0] ** 2)) for c in class_sizes)
    assert sum(G.size for *_, G in gibbs.blocks) == want
    assert want < sum(fb.sector_dim(n) ** 2 for n in range(fb.n_max + 1))
    for _, rows, G in gibbs.blocks:
        assert G.shape == (rows.size, rows.size)
        assert np.unique(H.labels[rows]).size == 1
    assert sum(rows.size for _, rows, _ in gibbs.blocks) == fb.dim


def _coherent_projector(v, fb):
    """Sector blocks of the real part of |xi(v)><xi(v)| / <xi(v)|xi(v)>,
    the part of the projector that marginals and <N> see; for a real v the
    imaginary part is exactly 0."""
    a = gl.coherent(np.asarray(v, dtype=complex), fb).amplitudes
    return oracles.pinched(np.real(np.outer(a, a.conj())) / np.vdot(a, a).real,
                           fb)


def test_rdm_coherent_projector():
    fb = gl.build_fock_basis(2, 22)
    g1 = gl.reduced_density_matrix(_coherent_projector([1.0, 0.0], fb), 1)
    assert abs(g1.entries[0, 0] - 1.0) < 1e-8   # |v_1|^2 up to the tail
    assert abs(g1.entries[1, 1]) < 1e-12


def test_rdm_vacuum_is_zero():
    fb = gl.build_fock_basis(2, 4)
    vac = _coherent_projector(np.zeros(2), fb)
    for k in (1, 2):
        assert not np.any(gl.reduced_density_matrix(vac, k).entries)


def test_particle_number_identity_random_states():
    fb = gl.build_fock_basis(3, 6)
    for seed in range(5):
        state = fock.random_state(fb, seed)
        g1 = gl.reduced_density_matrix(state, 1)
        assert abs(g1.trace() - gl.particle_number(state)) < 1e-10


def test_energy_decomposition(basis_k2, tensor_k2):
    fb = gl.build_fock_basis(2, 6)
    lam = 0.4
    # two-particle pure state: total = 2 lambda_1 + lam W_1111
    blocks = [np.zeros((fb.sector_dim(n),) * 2) for n in range(7)]
    blocks[2][0, 0] = 1.0
    state = fock.FockState.from_sectors(fb, blocks)
    split = gl.energy_decomposition(state, basis_k2.eigenvalues, tensor_k2, lam)
    expect = 2 * basis_k2.eigenvalues[0] + lam * tensor_k2.entries[0, 0, 0, 0]
    assert split.total == pytest.approx(expect, rel=1e-12)
    assert split.total == pytest.approx(split.one_body + split.two_body,
                                        rel=1e-12)
    # lam = 0 has no two-body part
    split0 = gl.energy_decomposition(state, basis_k2.eigenvalues, tensor_k2, 0.0)
    assert split0.two_body == 0.0


def test_energy_decomposition_random_states(basis_k3, tensor_k3):
    fb = gl.build_fock_basis(3, 5)
    for seed in range(20):
        state = fock.random_state(fb, seed)
        split = gl.energy_decomposition(state, basis_k3.eigenvalues,
                                        tensor_k3, 0.7)
        rel = abs(split.total - split.one_body - split.two_body) \
            / max(abs(split.total), 1e-12)
        assert rel < 1e-9


def _random_diagonal(fb, rng):
    q = np.exp(-rng.uniform(0.0, 20.0, fb.dim))
    return fock.DiagonalState(fb, q / q.sum())


def _as_blocks(ref):
    """A DiagonalState as the FockState with the same (diagonal) blocks."""
    fb = ref.basis
    return fock.FockState.from_sectors(fb, [
        np.diag(ref.p[fb.sector_slice(n)]) for n in range(fb.n_max + 1)])


def test_diagonal_state_checks_length_and_sums_sectors():
    fb = gl.build_fock_basis(2, 4)
    ref = _random_diagonal(fb, np.random.default_rng(0))
    assert np.allclose(ref.sector_probabilities(),
                       _as_blocks(ref).sector_probabilities(),
                       rtol=1e-14, atol=0.0)
    for bad in (ref.p[:-1], np.append(ref.p, 0.0), ref.p.reshape(1, -1)):
        with pytest.raises(ValueError, match="basis dim"):
            fock.DiagonalState(fb, bad)


def test_relative_entropy_basics():
    fb = gl.build_fock_basis(2, 4)
    rng = np.random.default_rng(1)
    a = _random_diagonal(fb, rng)
    assert abs(gl.relative_entropy(_as_blocks(a), a)) < 1e-10
    for seed in range(100):
        x, y = fock.random_state(fb, seed), _random_diagonal(fb, rng)
        assert gl.relative_entropy(x, y) > -1e-10


def test_relative_entropy_matches_classical_kl():
    # commuting diagonal states reduce to the KL of their eigenvalue vectors
    fb = gl.build_fock_basis(1, 60)
    def thermal(nbar):
        s = nbar / (1.0 + nbar)
        p = (1 - s) * s ** np.arange(61)
        return fock.FockState.from_sectors(
            fb, [np.array([[v]]) for v in p / p.sum()])
    a, b = thermal(0.4), thermal(0.9)
    kl = gl.relative_entropy(a, oracles.diagonal_of(b))
    assert abs(kl - oracles.geometric_kl(0.4, 0.9)) < 1e-6
    # asymmetry witnessed
    assert abs(gl.relative_entropy(b, oracles.diagonal_of(a)) - kl) > 1e-3


def test_relative_entropy_support_violation():
    # the vacuum as reference: its kernel is every state but the vacuum
    fb = gl.build_fock_basis(2, 3)
    vacuum = fock.DiagonalState(fb, np.eye(fb.dim)[0])
    pure = _coherent_projector(np.zeros(2), fb)
    mixed = fock.random_state(fb, 5)
    assert math.isinf(gl.relative_entropy(mixed, vacuum))
    assert gl.relative_entropy(pure, vacuum) == 0.0
    full = _random_diagonal(fb, np.random.default_rng(5))
    assert math.isfinite(gl.relative_entropy(pure, full))


@settings(max_examples=40, deadline=None)
@given(K=st.integers(1, 3), n_max=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1),
       zero_sector=st.one_of(st.none(), st.integers(0, 8)))
def test_relative_entropy_diagonal_reference_matches_dense_oracle(
        K, n_max, seed, zero_sector):
    # a diagonal reference needs no eigensolve; the whole-space definition
    # diagonalizes the same reference as one matrix
    fb = gl.build_fock_basis(K, n_max)
    rng = np.random.default_rng(seed)
    q = np.exp(-rng.uniform(0.0, 20.0, fb.dim))
    if zero_sector is not None and zero_sector <= n_max:
        q[fb.sector_slice(zero_sector)] = 0.0
    q /= q.sum()
    diag_ref = fock.DiagonalState(fb, q)
    state = fock.random_state(fb, seed % 1000)
    got = gl.relative_entropy(state, diag_ref)
    want = oracles.relative_entropy_dense(state.to_dense(), np.diag(q))
    if zero_sector is not None and zero_sector <= n_max:
        assert math.isinf(got) and math.isinf(want)
    else:
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_relative_entropy_rejects_equal_dim_different_bases():
    rng = np.random.default_rng(0)
    a = fock.random_state(gl.build_fock_basis(2, 3), 0)
    b = fock.random_state(gl.build_fock_basis(3, 2), 1)
    assert a.basis.dim == b.basis.dim == 10
    for x, y in [(a, b), (b, a)]:
        with pytest.raises(ValueError, match="different bases"):
            gl.relative_entropy(x, _random_diagonal(y.basis, rng))
    # an equal basis built separately is accepted
    c = _random_diagonal(gl.build_fock_basis(2, 3), rng)
    assert gl.relative_entropy(a, c) > 0.0


def test_relative_free_energy_identity(basis_k2, tensor_k2):
    T = 2.0
    n_max = gl.choose_n_max(basis_k2.eigenvalues, T, tail=1e-10)
    fb = gl.build_fock_basis(2, n_max)
    lam = 0.5
    H = gl.build_hamiltonian(fb, basis_k2.eigenvalues, tensor_k2, lam)
    H0 = oracles.free_hamiltonian(fb, basis_k2.eigenvalues)
    gibbs, log_z, _ = gl.gibbs_state(H, T)
    free_blocks, log_z0, _ = gl.gibbs_state(H0, T)
    free = oracles.diagonal_of(free_blocks)
    fe = gl.relative_free_energy(gibbs, free, tensor_k2, lam, T)
    target = T * (log_z0 - log_z)
    assert abs(fe - target) < 1e-8 * max(abs(target), 1.0)
    no_pair = oracles.no_pair(fb.K)
    assert gl.relative_free_energy(free_blocks, free, no_pair, 0.0, T) == \
        pytest.approx(0.0, abs=1e-10)


def test_relative_free_energy_identity_single_mode(basis_k2, tensor_k2):
    T, lam = 2.0, 0.5
    fb = gl.build_fock_basis(1, 40)
    lam1 = basis_k2.eigenvalues[:1]
    t1 = gl.TwoBodyTensor(tensor_k2.entries[:1, :1, :1, :1])
    gibbs, log_z, _ = gl.gibbs_state(gl.build_hamiltonian(fb, lam1, t1, lam), T)
    free, log_z0, _ = gl.gibbs_state(oracles.free_hamiltonian(fb, lam1), T)
    fe = gl.relative_free_energy(gibbs, oracles.diagonal_of(free), t1, lam, T)
    assert fe == pytest.approx(T * (log_z0 - log_z), rel=1e-8)


def test_gibbs_minimizes_free_energy(basis_k2, tensor_k2):
    def free_energy(state):
        # tr[H state] + T tr[state log state], densely
        rho = state.to_dense()
        p = np.clip(np.linalg.eigvalsh(rho), 1e-300, None)
        return float(np.real(np.trace(H.matrix @ rho))
                     + T * np.sum(p * np.log(p)))

    T = 1.5
    fb = gl.build_fock_basis(2, 8)
    H = gl.build_hamiltonian(fb, basis_k2.eigenvalues, tensor_k2, 0.5)
    gibbs, _, _ = gl.gibbs_state(H, T)
    base = free_energy(gibbs)
    rng = np.random.default_rng(0)
    for seed in range(20):
        other = fock.random_state(fb, seed + 100)
        eps = rng.uniform(0.05, 0.6)
        pert = oracles.pinched(
            (1 - eps) * gibbs.to_dense() + eps * other.to_dense(), fb)
        assert free_energy(pert) >= base - 1e-9


def test_variational_bound_of_relative_free_energy(basis_k2, tensor_k2):
    T = 2.0
    fb = gl.build_fock_basis(2, gl.choose_n_max(basis_k2.eigenvalues, T,
                                                tail=1e-10))
    lam = 0.5
    H = gl.build_hamiltonian(fb, basis_k2.eigenvalues, tensor_k2, lam)
    H0 = oracles.free_hamiltonian(fb, basis_k2.eigenvalues)
    gibbs, _, _ = gl.gibbs_state(H, T)
    free = oracles.diagonal_of(gl.gibbs_state(H0, T)[0])
    base = gl.relative_free_energy(gibbs, free, tensor_k2, lam, T)
    for seed in range(5):
        other = fock.random_state(fb, seed)
        pert = oracles.pinched(0.9 * gibbs.to_dense() + 0.1 * other.to_dense(),
                               fb)
        assert gl.relative_free_energy(pert, free, tensor_k2, lam, T) \
            >= base - 1e-9


def test_choose_n_max_policy(basis_k2):
    lam = basis_k2.eigenvalues
    n5 = gl.choose_n_max(lam, 5.0, tail=1e-8)
    n10 = gl.choose_n_max(lam, 10.0, tail=1e-8)
    assert n10 > n5
    w = fock.free_sector_weights(lam, 5.0, 4 * n5)
    frac = (w[n5 - 1] + w[n5]) / w.sum()
    assert frac < 1e-8
    with pytest.raises(ValueError):
        gl.choose_n_max(lam, 5.0, tail=1e-8, dim_budget=10)


@pytest.mark.parametrize("T", [0.0, -1.0])
def test_choose_n_max_rejects_non_positive_temperature(basis_k2, T):
    with pytest.raises(ValueError, match="temperature must be positive"):
        gl.choose_n_max(basis_k2.eigenvalues, T)


@pytest.mark.parametrize("T", [1e3, 1.6e4, 6.4e4, 1e5, 1e12])
def test_choose_n_max_refuses_hot_points_at_once(basis_k2, T):
    # T = 1e5 puts less than 1e-8 of the free mass on sectors 0 and 1, so
    # only the half-mass rule keeps the policy from answering 4
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="over the budget 20000"):
        gl.choose_n_max(basis_k2.eigenvalues, T, tail=1e-8, dim_budget=20000)
    assert time.perf_counter() - t0 < 0.1


def test_choose_n_max_work_follows_the_cutoff(monkeypatch):
    caps = []
    weights = fock.free_sector_weights

    def recording(eigenvalues, T, n_cap):
        caps.append(n_cap)
        return weights(eigenvalues, T, n_cap)

    monkeypatch.setattr(fock, "free_sector_weights", recording)
    lam = np.array([1.0])
    n_max = gl.choose_n_max(lam, 5.0, tail=1e-8, dim_budget=10**9)
    # K = 1: sectors (n-1, n) hold (1 - q^2) q^(n-1) of the mass, q = e^-0.2
    assert n_max == 1 + math.ceil(math.log(1e-8 / (1 - math.exp(-0.4)))
                                  / -0.2)
    assert max(caps) < 2 * n_max
    caps.clear()
    with pytest.raises(ValueError, match="over the budget"):
        gl.choose_n_max(lam, 1e12, tail=1e-8, dim_budget=10**9)
    assert caps == []


@settings(max_examples=100, deadline=None)
@given(K=st.integers(1, 4), data=st.data(), T=st.floats(0.1, 50.0),
       log_tail=st.floats(-14.0, -2.0), dim_budget=st.integers(10, 2000))
def test_choose_n_max_is_the_brute_force_cutoff(K, data, T, log_tail,
                                                dim_budget):
    # for tail <= 1/4 the first n >= 4 meeting both rules is also the
    # floor 4 applied to the first n >= 1 meeting them: the free sector
    # masses are log-concave
    lam = np.sort(data.draw(st.lists(st.floats(0.2, 10.0), min_size=K,
                                     max_size=K), label="eigenvalues"))
    tail = 10.0 ** log_tail
    want = oracles.brute_force_cutoff(lam, T, tail, dim_budget)
    if want is None:
        with pytest.raises(ValueError, match="over the budget"):
            gl.choose_n_max(lam, T, tail=tail, dim_budget=dim_budget)
    else:
        assert gl.choose_n_max(lam, T, tail=tail,
                               dim_budget=dim_budget) == want


@pytest.mark.parametrize("T", [2.0, 5.0])
def test_solve_point_matches_hand_built_chain(basis_k2, tensor_k2, T):
    lam = 1.0 / T
    point = gl.solve_point(basis_k2.eigenvalues, tensor_k2, T,
                           tail=1e-8, dim_budget=20000)
    n_max = gl.choose_n_max(basis_k2.eigenvalues, T, tail=1e-8)
    fb = gl.build_fock_basis(2, n_max)
    H = gl.build_hamiltonian(fb, basis_k2.eigenvalues, tensor_k2, lam)
    H0 = oracles.free_hamiltonian(fb, basis_k2.eigenvalues)
    gibbs, log_z, _ = gl.gibbs_state(H, T)
    free, log_z0, _ = gl.gibbs_state(H0, T)
    assert (point.T, point.lam) == (T, lam)
    assert point.basis.n_max == n_max and point.basis.matches(fb)
    assert point.log_z == log_z and point.log_z_free == log_z0
    assert len(point.gibbs.blocks) == len(gibbs.blocks)
    assert {n for n, *_ in gibbs.blocks} == set(range(n_max + 1))
    for (na, ia, ga), (nb, ib, gb) in zip(point.gibbs.blocks, gibbs.blocks):
        assert na == nb and np.array_equal(ia, ib) and np.array_equal(ga, gb)
    # exp(-E/T - log Z_0) against exp(-E/2T)^2 exp(-log Z_0) from the H_0
    # Gibbs route: two roundings of one number, 2 ulp apart, plus the
    # rounding of exp's argument E/T + log Z_0 on the direct side, which
    # moves its result by at most |E/T + log Z_0| ulp
    assert point.free.p.shape == (fb.dim,)
    want = oracles.diagonal_of(free).p
    arg = fb.occupations @ basis_k2.eigenvalues / T + log_z0
    assert np.all(np.abs(point.free.p - want)
                  <= (2.0 + np.abs(arg)) * np.spacing(want))


@pytest.mark.parametrize("k_max", [1, 2])
def test_point_pair_energy_reads_its_pair_marginal(basis_k2, tensor_k2,
                                                   k_max):
    # lam tr[W_2 Gamma^(2)] of the Gamma^(2) the solve gathers, whatever
    # k_max; 0 without a pair term, where Gamma^(2) is gathered only for
    # k_max >= 2
    point = gl.solve_point(basis_k2.eigenvalues, tensor_k2, 2.0,
                           k_max=k_max, keep_blocks=False)
    assert point.pair_energy > 0.0
    assert point.pair_energy == fock.pair_energy(point.marginals[2],
                                                 tensor_k2, point.lam)
    free = gl.solve_point(basis_k2.eigenvalues, oracles.no_pair(2), 2.0,
                          k_max=k_max, keep_blocks=False)
    assert free.pair_energy == 0.0
    assert (2 in free.marginals) == (k_max >= 2)


def test_solve_point_free_state_matches_eigensolver_route_k3(basis_k3,
                                                             tensor_k3):
    # within a K=3 sector the basis order is not the energy order, so the
    # closed form sums log Z in another order than the eigensolver route
    T = 2.0
    point = gl.solve_point(basis_k3.eigenvalues, tensor_k3, T)
    fb = point.basis
    free, log_z0, _ = gl.gibbs_state(
        oracles.free_hamiltonian(fb, basis_k3.eigenvalues), T)
    assert point.log_z_free == pytest.approx(log_z0, rel=1e-13, abs=0.0)
    assert point.free.p.shape == (fb.dim,)
    np.testing.assert_allclose(point.free.p, oracles.diagonal_of(free).p,
                               rtol=1e-13, atol=0.0)


def _k3_point(basis_k3, tensor_k3, T=2.5):
    """H of the K=3 point whose widest parity class exceeds 25 rows, so
    stedc's divide-and-conquer path runs."""
    fb = gl.build_fock_basis(3, gl.choose_n_max(basis_k3.eigenvalues, T))
    H = gl.build_hamiltonian(fb, basis_k3.eigenvalues, tensor_k3, 1.0 / T)
    assert max(np.bincount(H.labels[fb.sector_slice(n)]).max()
               for n in range(fb.n_max + 1)) > 25
    return H, T


def test_gibbs_pool_size_does_not_change_the_bits(basis_k3, tensor_k3,
                                                  monkeypatch):
    # each dense solve takes one of at most as many workspaces as solves
    # run at once, each dsyevd's work and iwork for the widest class block
    H, T = _k3_point(basis_k3, tensor_k3)
    d = fock._widest_class(H.basis, H.labels)
    lwork, liwork = _syevd_sizes(d)
    got = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(fock, "_workers", lambda: workers)
        calls, seen = _count_solvers(monkeypatch)
        threads = threading.active_count()
        got[workers] = gl.gibbs_state(H, T)
        assert threading.active_count() == threads
        made = seen["workspaces"]
        assert 1 <= len(made) <= min(workers, calls["evd"])
        assert seen["evd_work"] == {id(work) for work, _ in made}
        for work, iwork in made:
            assert (work.size, iwork.size) == (lwork, liwork)
        monkeypatch.undo()
    _assert_same_gibbs(got[2], got[1])
    _assert_same_gibbs(got[3], got[1])
    for *_, G in got[3][0].blocks:
        assert np.array_equal(G, G.T)


def test_gibbs_blocks_are_exactly_symmetric(basis_k2, tensor_k2):
    # the tridiagonal route builds its blocks on the calling thread
    T = 10.0
    fb = gl.build_fock_basis(2, gl.choose_n_max(basis_k2.eigenvalues, T))
    state, _, _ = gl.gibbs_state(
        gl.build_hamiltonian(fb, basis_k2.eigenvalues, tensor_k2, 1.0 / T), T)
    for *_, G in state.blocks:
        assert np.array_equal(G, G.T)


@pytest.mark.parametrize("K", [1, 3])
def test_gibbs_state_refuses_a_non_finite_hamiltonian(dirichlet_op,
                                                      delta_kernel, K):
    # NaN > 1e-10 is false, so the symmetry check alone lets a NaN through;
    # at K=1 every block is tridiagonal and stevd does not check its input
    basis = gl.eigendecompose(dirichlet_op, K)
    tensor = gl.interaction_elements(basis, delta_kernel)
    T = 2.5
    fb = gl.build_fock_basis(K, gl.choose_n_max(basis.eigenvalues, T))
    H = gl.build_hamiltonian(fb, basis.eigenvalues, tensor, 1.0 / T)
    for bad in (np.nan, np.inf):
        A = H.matrix.copy()
        A.data[A.nnz // 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            gl.gibbs_state(fock.FockOperator(fb, A, H.labels), T)


def test_gibbs_divide_and_conquer_blocks_match_dense_eigh(basis_k3,
                                                         tensor_k3):
    # LAPACK's stedc uses QR below 26 rows; the largest parity class here
    # is wider, so the recursive divide-and-conquer path runs
    H, T = _k3_point(basis_k3, tensor_k3)
    fb = H.basis
    gibbs, log_z, _ = gl.gibbs_state(H, T)
    E, V = np.linalg.eigh(H.matrix.toarray())
    want_log_z = float(logsumexp(-E / T))
    assert log_z == pytest.approx(want_log_z, rel=1e-13, abs=0.0)
    rho = (V * np.exp(-E / T - want_log_z)) @ V.T
    for n in range(fb.n_max + 1):
        want = rho[fb.sector_slice(n), fb.sector_slice(n)]
        assert np.abs(oracles.dense_sector(gibbs, n) - want).max() \
            <= 1e-12 * np.abs(want).max()
    free = gl.solve_point(basis_k3.eigenvalues, oracles.no_pair(3), T)
    assert free.log_z_free - free.log_z == 0.0


def _count_solvers(monkeypatch):
    """Count fock's calls of the dense eigensolver (kernels' dsyevd, on the
    pool threads) and the tridiagonal one (stevd, on the calling thread);
    seen holds the thread of each tridiagonal call, the work array of each
    dense call, the dense workspaces made and, for each V V^T, the data
    addresses of the U it is formed over and of the array it is written
    into."""
    calls = {"evd": 0, "stevd": 0}
    seen = {"stevd_threads": [], "evd_work": set(), "workspaces": [],
            "gram": []}
    lock = threading.Lock()
    dsyevd, dstevd = fock._dsyevd, fock.dstevd
    workspace, gram = fock._workspace, fock._gram

    def counting_dsyevd(a, w, work, iwork):
        with lock:
            calls["evd"] += 1
            seen["evd_work"].add(id(work))
        return dsyevd(a, w, work, iwork)

    def counting_stevd(*args, **kwargs):
        calls["stevd"] += 1
        seen["stevd_threads"].append(threading.get_ident())
        return dstevd(*args, **kwargs)

    def recording_workspace(d):
        made = workspace(d)
        with lock:
            seen["workspaces"].append(made)
        return made

    def recording_gram(U, lam, T, G):
        with lock:
            seen["gram"].append((U.ctypes.data, G.ctypes.data))
        return gram(U, lam, T, G)

    monkeypatch.setattr(fock, "_dsyevd", counting_dsyevd)
    monkeypatch.setattr(fock, "dstevd", counting_stevd)
    monkeypatch.setattr(fock, "_workspace", recording_workspace)
    monkeypatch.setattr(fock, "_gram", recording_gram)
    return calls, seen


def _assert_same_gibbs(got, want):
    state, log_z, energy = got
    want_state, want_log_z, want_energy = want
    assert log_z == want_log_z and energy == want_energy
    assert len(state.blocks) == len(want_state.blocks)
    for (na, ia, ga), (nb, ib, gb) in zip(state.blocks, want_state.blocks):
        assert na == nb and np.array_equal(ia, ib) and np.array_equal(ga, gb)


def _is_tridiagonal(block):
    return not np.triu(block, 2).any() and not np.tril(block, -2).any()


@pytest.mark.parametrize("K, T", [(2, 10.0), (3, 2.5)])
def test_gibbs_blocks_from_coo_are_bitwise_the_csr_route(
        basis_k2, tensor_k2, basis_k3, tensor_k3, monkeypatch, K, T):
    # every K=2 parity block is tridiagonal and goes to stevd, the K=3 ones
    # are not; both give the bits of dense evd on CSR slices, and
    # gibbs_state no longer reads class_block
    basis, tensor = (basis_k2, tensor_k2) if K == 2 else (basis_k3, tensor_k3)
    fb = gl.build_fock_basis(K, gl.choose_n_max(basis.eigenvalues, T))
    H = gl.build_hamiltonian(fb, basis.eigenvalues, tensor, 1.0 / T)
    want = oracles.gibbs_blocks_csr(H, T)
    band = [_is_tridiagonal(H.class_block(rows))
            for _, rows, _ in want[0].blocks]
    tri = sum(band)

    def refuse(*args):
        raise AssertionError("gibbs_state read class_block")

    monkeypatch.setattr(fock.FockOperator, "class_block", refuse)
    calls, seen = _count_solvers(monkeypatch)
    got = gl.gibbs_state(H, T)
    _assert_same_gibbs(got, want)
    assert calls == {"evd": len(want[0].blocks) - tri, "stevd": tri}
    # stevd runs on the calling thread, and each block's V V^T is formed
    # once: a tridiagonal block's straight into the array the state keeps,
    # a dense block's over the eigenvectors dsyevd left in that array, into
    # a workspace's work, and copied back
    assert set(seen["stevd_threads"]) == {threading.get_ident()}
    kept = {G.ctypes.data: b for (*_, G), b in zip(got[0].blocks, band)}
    made = {work.ctypes.data for work, _ in seen["workspaces"]}
    assert len(seen["gram"]) == len(kept)
    for U, out in seen["gram"]:
        assert (out in kept and kept[out]) or (U in kept and not kept[U]
                                               and out in made)
    # a stevd U is freed once used, so a later sector's array may reuse its
    # address: the dense grams are told apart by where they write
    dense = {U for U, out in seen["gram"] if out not in kept}
    assert len(dense) == len(kept) - tri
    if K == 2:
        assert calls["evd"] == 0 and seen["workspaces"] == []
    else:
        assert calls["evd"] > 25 and calls["stevd"] > 0
        assert seen["evd_work"] <= {id(work) for work, _ in seen["workspaces"]}


def _csr_entry(A, r, c) -> int:
    """Place of the stored entry (r, c) in A.data."""
    lo, hi = A.indptr[r], A.indptr[r + 1]
    k = lo + int(np.searchsorted(A.indices[lo:hi], c))
    assert k < hi and A.indices[k] == c
    return k


def test_tridiagonal_route_reads_the_lower_triangle(basis_k2, tensor_k2):
    # negative control: one upper off-diagonal entry moved by an ulp leaves
    # H Hermitian to 1e-10 and the result unchanged, as evd (which reads
    # the lower triangle) leaves it; the same move below does show
    T = 10.0
    fb = gl.build_fock_basis(2, gl.choose_n_max(basis_k2.eigenvalues, T))
    H = gl.build_hamiltonian(fb, basis_k2.eigenvalues, tensor_k2, 1.0 / T)
    n = 12
    g = np.flatnonzero(H.labels[fb.sector_slice(n)] == 0) + fb.sector_offsets[n]
    moved = {}
    for side, (r, c) in {"upper": (g[0], g[1]), "lower": (g[1], g[0])}.items():
        A = H.matrix.copy()
        k = _csr_entry(A, r, c)
        A.data[k] = np.nextafter(A.data[k], np.inf)
        moved[side] = fock.FockOperator(fb, A, H.labels)
    assert 0.0 < moved["upper"].hermiticity_defect() <= 1e-10
    base = gl.gibbs_state(H, T)
    _assert_same_gibbs(gl.gibbs_state(moved["upper"], T), base)
    _assert_same_gibbs(gl.gibbs_state(moved["upper"], T),
                       oracles.gibbs_blocks_csr(moved["upper"], T))
    lower = gl.gibbs_state(moved["lower"], T)
    _assert_same_gibbs(lower, oracles.gibbs_blocks_csr(moved["lower"], T))
    assert any(not np.array_equal(a, b) for (*_, a), (*_, b)
               in zip(lower[0].blocks, base[0].blocks))


def test_parity_fallback_blocks_go_to_dense_evd(basis_k2, tensor_k2,
                                                monkeypatch):
    # control: a K=2 tensor that fails the parity check leaves one class per
    # sector, and the pair term's n_1 -> n_1 +- 1 moves make its blocks
    # pentadiagonal; only sectors of at most two states are tridiagonal
    W = _with_forbidden_entry(tensor_k2)
    tensor = gl.TwoBodyTensor.with_parity(W, tensor_k2.parity)
    T = 5.0
    fb = gl.build_fock_basis(2, gl.choose_n_max(basis_k2.eigenvalues, T))
    H = gl.build_hamiltonian(fb, basis_k2.eigenvalues, tensor, 1.0 / T)
    assert not H.labels.any()
    assert not _is_tridiagonal(fock.FockOperator.class_block(
        H, np.arange(fb.dim)[fb.sector_slice(fb.n_max)]))
    want = oracles.gibbs_blocks_csr(H, T)
    calls, _ = _count_solvers(monkeypatch)
    _assert_same_gibbs(gl.gibbs_state(H, T), want)
    assert calls == {"evd": fb.n_max - 1, "stevd": 2}


def test_gibbs_state_refuses_a_complex_hamiltonian(basis_k2, tensor_k2):
    # negative control: D H D^H with a diagonal phase D is Hermitian with
    # the same spectrum, but complex, and a real block would drop its
    # imaginary part
    T = 5.0
    fb = gl.build_fock_basis(2, gl.choose_n_max(basis_k2.eigenvalues, T))
    H = gl.build_hamiltonian(fb, basis_k2.eigenvalues, tensor_k2, 1.0 / T)
    D = sparse.diags(np.exp(1j * np.arange(fb.dim)))
    Hc = fock.FockOperator(fb, (D @ H.matrix @ D.conj()).tocsr(), H.labels)
    assert np.abs(Hc.matrix.data.imag).max() > 0.1
    with pytest.raises(ValueError, match="real"):
        gl.gibbs_state(Hc, T)


def test_fock_state_refuses_a_complex_block():
    fb = gl.build_fock_basis(2, 3)
    blocks = list(fock.random_state(fb, 0).blocks)
    n, rows, G = blocks[2]
    blocks[2] = (n, rows, G + 0j)
    with pytest.raises(ValueError, match="real"):
        fock.FockState(fb, tuple(blocks))


def test_gibbs_state_sums_duplicate_entries(basis_k2, tensor_k2):
    # a CSR matrix with every entry stored as two halves is the same
    # operator; toarray sums them, and so must the COO route
    T = 5.0
    fb = gl.build_fock_basis(2, gl.choose_n_max(basis_k2.eigenvalues, T))
    H = gl.build_hamiltonian(fb, basis_k2.eigenvalues, tensor_k2, 1.0 / T)
    A = H.matrix
    halves = sparse.csr_matrix((np.repeat(A.data / 2, 2),
                                np.repeat(A.indices, 2), 2 * A.indptr),
                               shape=A.shape)
    assert not halves.has_canonical_format
    _assert_same_gibbs(gl.gibbs_state(fock.FockOperator(fb, halves, H.labels),
                                      T), gl.gibbs_state(H, T))


def test_tridiagonal_solver_failure_is_raised(basis_k2, tensor_k2,
                                             monkeypatch):
    fb = gl.build_fock_basis(2, 6)
    H = gl.build_hamiltonian(fb, basis_k2.eigenvalues, tensor_k2, 0.5)
    monkeypatch.setattr(fock, "dstevd",
                        lambda d, e: (d, np.eye(d.size), 2))
    with pytest.raises(np.linalg.LinAlgError, match="info 2"):
        gl.gibbs_state(H, 1.0)


def test_solve_point_rejects_over_budget_temperature(basis_k2, tensor_k2):
    with pytest.raises(ValueError, match="budget 2000"):
        gl.solve_point(basis_k2.eigenvalues, tensor_k2, 50.0,
                       dim_budget=2000)


def _materialized_point(eigenvalues, tensor, T, k_max):
    """log Z, <H>, <H_0>, tail mass, <N> and marginals of the Gibbs state
    of solve_point's cutoff, from gibbs_state's blocks and a separate
    _state_marginals gather of every order on them."""
    fb = gl.build_fock_basis(len(eigenvalues),
                             gl.choose_n_max(eigenvalues, T))
    H = gl.build_hamiltonian(fb, eigenvalues, tensor, 1.0 / T)
    state, log_z, energy = gl.gibbs_state(H, T)
    E = fb.occupations @ eigenvalues
    one_body = sum(float(np.diagonal(G) @ E[rows])
                   for _, rows, G in state.blocks)
    return H, state, {
        "log_z": log_z, "energy": energy, "one_body_energy": one_body,
        "tail_mass": float(state.sector_probabilities()[-2:].sum()),
        "particle_number": gl.particle_number(state),
        "marginals": fock._state_marginals(state, range(1, k_max + 1))}


@pytest.mark.parametrize("case", ["k2-tridiagonal", "k3-pool", "one-class"])
def test_streamed_point_matches_the_materialized_route(
        basis_k2, tensor_k2, basis_k3, tensor_k3, monkeypatch, case):
    # solve_point folds each sector into its sums as it is solved and keeps
    # no block; the sums are normalized once, at the end, so they leave the
    # route over normalized blocks at float level only. The pool size does
    # not change the bits, and the pool is gone when the point returns.
    basis, tensor, T = {
        "k2-tridiagonal": (basis_k2, tensor_k2, 10.0),
        "k3-pool": (basis_k3, tensor_k3, 2.5),
        "one-class": (basis_k3, gl.TwoBodyTensor(tensor_k3.entries), 2.5),
    }[case]
    H, state, want = _materialized_point(basis.eigenvalues, tensor, T, 3)
    tri = [_is_tridiagonal(H.class_block(rows)) for _, rows, _ in state.blocks]
    if case == "k2-tridiagonal":
        assert all(tri)
    else:
        assert not any(tri[len(tri) // 2:])
    assert (len(state.blocks) == H.basis.n_max + 1) == (case == "one-class")
    got = {}
    for workers in (1, 2):
        monkeypatch.setattr(fock, "_workers", lambda: workers)
        threads = threading.active_count()
        got[workers] = gl.solve_point(basis.eigenvalues, tensor, T, k_max=3,
                                      keep_blocks=False)
        assert threading.active_count() == threads
    point = got[1]
    assert point.gibbs is None and sorted(point.marginals) == [1, 2, 3]
    # the stream records the (sector, class) split it solved, kept or not
    assert len(point.layout) == len(state.blocks)
    for (n, rows), (m, block_rows, _) in zip(point.layout, state.blocks):
        assert n == m and np.array_equal(rows, block_rows)
    for key in ("log_z", "energy", "one_body_energy", "tail_mass",
                "particle_number"):
        assert getattr(point, key) == getattr(got[2], key)
        assert getattr(point, key) == pytest.approx(want[key], rel=1e-13,
                                                    abs=0.0)
    for k, g_k in point.marginals.items():
        assert g_k.entries.tobytes() == got[2].marginals[k].entries.tobytes()
        ref = want["marginals"][k]
        assert np.array_equal(g_k.occupations, ref.occupations)
        assert np.abs(g_k.entries - ref.entries).max() \
            <= 1e-13 * np.abs(ref.entries).max()
    # log Z and <H> come from the same eigenvalues in the same order
    assert (point.log_z, point.energy) == (want["log_z"], want["energy"])
    # kept, the blocks are gibbs_state's, bit for bit
    kept = gl.solve_point(basis.eigenvalues, tensor, T, k_max=3)
    _assert_same_gibbs((kept.gibbs, kept.log_z, kept.energy),
                       (state, want["log_z"], want["energy"]))


@pytest.fixture(scope="module")
def desk_k5(dirichlet_op, delta_kernel):
    basis = gl.eigendecompose(dirichlet_op, 5)
    return basis, gl.interaction_elements(basis, delta_kernel)


@pytest.mark.parametrize("K, n_max, budget", [
    (2, 197, None), (3, 53, None), (5, 9, None), (5, 10, None), (3, 20, 1)])
def test_sector_batched_hamiltonian_matches_one_shot_assembly(
        K, n_max, budget, basis_k2, tensor_k2, basis_k3, tensor_k3, desk_k5,
        monkeypatch):
    # desk's T=40, ed-k3's T=10 and classical-k5's T=1.5 bases, one whose
    # top sector alone passes the triplet budget (K=5, n_max=10: 1001
    # states of 313 triplets) and one where every sector passes it
    basis, tensor = {2: (basis_k2, tensor_k2), 3: (basis_k3, tensor_k3),
                     5: desk_k5}[K]
    if budget is not None:
        monkeypatch.setattr(fock, "_TRIPLETS", budget)
    fb = gl.build_fock_basis(K, n_max, 30000)
    per_row = np.count_nonzero(tensor.entries)
    runs = list(fock._sector_runs(fb, per_row))
    # the runs tile the basis on sector edges, each within the budget
    # unless it is one sector
    edges = [lo for lo, _ in runs] + [fb.dim]
    assert edges[0] == 0 and [hi for _, hi in runs] == edges[1:]
    starts = fb.sector_offsets.tolist()
    assert set(edges) <= set(starts)
    for lo, hi in runs:
        assert (hi - lo) * per_row <= fock._TRIPLETS \
            or starts.index(hi) - starts.index(lo) == 1
    if n_max == 10 or budget:
        assert fb.sector_dim(n_max) * per_row > fock._TRIPLETS
        assert runs[-1] == (fb.sector_offsets[n_max], fb.dim)
    if budget:
        assert len(runs) == n_max + 1
    got = gl.build_hamiltonian(fb, basis.eigenvalues, tensor, 0.1).matrix
    want = oracles.hamiltonian_one_shot(fb, basis.eigenvalues, tensor, 0.1)
    for M in (got, want):
        M.sort_indices()
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()


def test_hamiltonian_assembly_peak_memory_is_a_few_runs(basis_k3, tensor_k3):
    # ed-k3's T=10 point (K=3, n_max=53, dim 27720, 278,619 stored entries):
    # the whole-basis assembly held 1,016,964 COO triplets and peaked at
    # 51.7 MB; each sector run holds at most 2^18 triplets (6.3 MB)
    fb = gl.build_fock_basis(3, 53, 30000)
    tracemalloc.start()
    try:
        H = gl.build_hamiltonian(fb, basis_k3.eigenvalues, tensor_k3, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert H.matrix.nnz == 278_619
    assert peak <= 20 * 2**20


def _several_runs(monkeypatch, basis, tensor, T):
    """The basis of T's cutoff, with the triplet budget cut so that H_lam
    comes in more than three sector runs; returns it and the runs."""
    monkeypatch.setattr(fock, "_TRIPLETS", 2000)
    fb = gl.build_fock_basis(len(basis.eigenvalues),
                             gl.choose_n_max(basis.eigenvalues, T))
    runs = list(fock._sector_runs(fb, np.count_nonzero(tensor.entries)))
    assert len(runs) > 3
    return fb, runs


@pytest.mark.parametrize("keep", [True, False], ids=["kept", "dropped"])
@pytest.mark.parametrize("K, T", [(2, 10.0), (3, 2.5)])
def test_streamed_runs_are_bitwise_the_whole_hamiltonian(
        basis_k2, tensor_k2, basis_k3, tensor_k3, monkeypatch, K, T, keep):
    # solve_point assembles H_lam run by run as its stream reaches each
    # run; the whole H solved as one run gives the same blocks, log Z,
    # <H>, diagonal, marginals and layout, bit for bit
    basis, tensor = (basis_k2, tensor_k2) if K == 2 else (basis_k3, tensor_k3)
    fb, _ = _several_runs(monkeypatch, basis, tensor, T)
    H = gl.build_hamiltonian(fb, basis.eigenvalues, tensor, 1.0 / T)
    blocks, layout, log_z, energy, diag, marginals = fock._fold_gibbs(
        fb, H.labels, [(0, H.matrix)], T, orders=range(1, 4), keep=keep)
    point = gl.solve_point(basis.eigenvalues, tensor, T, k_max=3,
                           keep_blocks=keep)
    assert point.basis.matches(fb)
    assert (point.log_z, point.energy) == (log_z, energy)
    assert point.one_body_energy == float(diag @ (fb.occupations
                                                  @ basis.eigenvalues))
    assert len(point.layout) == len(layout)
    for (n, rows), (m, want) in zip(point.layout, layout):
        assert n == m and np.array_equal(rows, want)
    assert sorted(point.marginals) == sorted(marginals) == [1, 2, 3]
    for k, g_k in marginals.items():
        assert point.marginals[k].entries.tobytes() == g_k.entries.tobytes()
    if keep:
        assert len(point.gibbs.blocks) == len(blocks)
        for (n, rows, G), (m, want_rows, want) in zip(point.gibbs.blocks,
                                                      blocks):
            assert n == m and np.array_equal(rows, want_rows)
            assert G.tobytes() == want.tobytes()
    else:
        assert point.gibbs is None and blocks == []


class _InlinePool:
    """A ThreadPoolExecutor stand-in that runs each submission at once, so
    no block is in flight when the stream moves on."""

    def __init__(self, workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        done = Future()
        done.set_result(fn(*args))
        return done


def test_solve_point_holds_one_run_of_the_hamiltonian_at_a_time(
        basis_k3, tensor_k3, monkeypatch):
    # no whole H is built: each run's matrix and the data of its permuted
    # copy are gone before the next run is assembled (its blocks solved at
    # once), and at most one run is alive whenever the stream yields
    _, runs = _several_runs(monkeypatch, basis_k3, tensor_k3, 2.5)
    assemble, sectors = fock._run_matrix, fock._gibbs_sectors
    cut = fock._class_blocks
    refs, copies, at_build, at_sector = [], [], [], []

    def alive(watched):
        gc.collect()
        return sum(ref() is not None for ref in watched)

    def spying(*args):
        at_build.append((alive(refs), alive(copies)))
        M = assemble(*args)
        refs.append(weakref.ref(M))
        return M

    def cutting(*args):
        for block in cut(*args):
            copies.append(weakref.ref(block[-1].base))
            yield block

    def watching(*args):
        for item in sectors(*args):
            at_sector.append(alive(refs))
            yield item

    def refuse(*args):
        raise AssertionError("solve_point built the whole H")

    monkeypatch.setattr(fock, "build_hamiltonian", refuse)
    monkeypatch.setattr(fock, "_run_matrix", spying)
    monkeypatch.setattr(fock, "_class_blocks", cutting)
    monkeypatch.setattr(fock, "_gibbs_sectors", watching)
    monkeypatch.setattr(fock, "ThreadPoolExecutor", _InlinePool)
    gl.solve_point(basis_k3.eigenvalues, tensor_k3, 2.5, k_max=3,
                   keep_blocks=False)
    assert len(refs) == len(runs) and len(copies) > len(runs)
    assert at_build == [(0, 0)] * len(runs)
    assert max(at_sector) == 1
    assert alive(refs) == alive(copies) == 0


@pytest.mark.parametrize("bad, message", [
    ("nan", "non-finite"), ("complex", "real"),
    ("asymmetric", "not symmetric")])
def test_a_bad_run_is_refused_and_leaves_no_thread(
        basis_k3, tensor_k3, monkeypatch, bad, message):
    # the last run goes bad after the earlier runs' dense blocks went to
    # the pool: the stream refuses it with the message a whole H gets, and
    # the pool is shut down
    T = 2.5
    _, runs = _several_runs(monkeypatch, basis_k3, tensor_k3, T)
    last = runs[-1][0]
    assemble, dsyevd, built, solved = fock._run_matrix, fock._dsyevd, [], []

    def corrupting(basis, lo, *rest):
        M = assemble(basis, lo, *rest)
        built.append(lo)
        if lo != last:
            return M
        M = M.astype(complex) if bad == "complex" else M.copy()
        coo = M.tocoo()
        k = int(np.flatnonzero(coo.row != coo.col)[0])
        M.data[k] = np.nan if bad == "nan" else M.data[k] + 1e-6
        return M

    def counting(*args):
        solved.append(1)
        return dsyevd(*args)

    monkeypatch.setattr(fock, "_workers", lambda: 2)
    monkeypatch.setattr(fock, "_run_matrix", corrupting)
    monkeypatch.setattr(fock, "_dsyevd", counting)
    threads = threading.active_count()
    with pytest.raises(ValueError, match=message):
        gl.solve_point(basis_k3.eigenvalues, tensor_k3, T, k_max=3,
                       keep_blocks=False)
    assert threading.active_count() == threads
    assert built == [lo for lo, _ in runs] and len(solved) > 0


def test_streamed_solve_peak_memory_is_a_few_sectors(basis_k3, tensor_k3,
                                                     monkeypatch):
    # the ed-k3 shape at T=7 (K=3, k_max=3, dense parity blocks on the
    # pool, 39 sectors): without its blocks kept, a point holds the
    # gather's Dk x Dk sums, the blocks of at most a few sectors and one
    # sector run of H, not the 20 MB of all the blocks nor a whole H; no
    # branching of the whole basis is held (the gather branches each
    # sector as it is added). The largest run's assembly peak, measured on
    # its own, comes on top, and so do the exact bytes of the dense
    # solves' workspaces, numpy arrays that tracemalloc sees.
    T = 7.0
    fb = gl.build_fock_basis(3, gl.choose_n_max(basis_k3.eigenvalues, T))
    labels, runs = fock._hamiltonian_runs(fb, basis_k3.eigenvalues,
                                          tensor_k3, 1.0 / T)
    sector = [8 * int((np.bincount(labels[fb.sector_slice(n)]) ** 2).sum())
              for n in range(fb.n_max + 1)]
    assert sum(sector) > 8 * max(sector)
    tracemalloc.start()
    try:
        fock._Marginals(fb, range(1, 4))
        _, tables = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tables < 64 * 1024
    assembly = []
    tracemalloc.start()
    try:
        while True:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run = next(runs, None)
            if run is None:
                break
            assembly.append(tracemalloc.get_traced_memory()[1] - held)
            del run
    finally:
        tracemalloc.stop()
    assert len(assembly) > 1
    workspace, made = fock._workspace, []

    def recording(d):
        arrays = workspace(d)
        made.append(sum(x.nbytes for x in arrays))
        return arrays

    monkeypatch.setattr(fock, "_workspace", recording)
    for workers in (1, 2):
        monkeypatch.setattr(fock, "_workers", lambda: workers)
        made.clear()
        tracemalloc.start()
        try:
            gl.solve_point(basis_k3.eigenvalues, tensor_k3, T, k_max=3,
                           keep_blocks=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 1 <= len(made) <= workers
        assert peak <= tables + 5 * max(sector) + sum(made) + max(assembly)


def test_solve_point_refuses_an_order_outside_the_cutoff(basis_k2, tensor_k2):
    for k_max in (0, 100):
        with pytest.raises(ValueError, match=f"order k={k_max} outside"):
            gl.solve_point(basis_k2.eigenvalues, tensor_k2, 2.0, k_max=k_max)


def test_a_failed_pool_solve_is_raised_and_leaves_no_thread(
        basis_k3, tensor_k3, monkeypatch):
    # a nonzero info of dsyevd is raised as LinAlgError, and the failed
    # solve gives its workspace back
    H, T = _k3_point(basis_k3, tensor_k3)
    dsyevd, calls, spaces = fock._dsyevd, [], []

    def failing(a, w, work, iwork):
        calls.append(a.shape)
        return 3 if len(calls) == 5 else dsyevd(a, w, work, iwork)

    class Recording(fock._Workspaces):
        def __init__(self, d):
            super().__init__(d)
            spaces.append(self)

    monkeypatch.setattr(fock, "_workers", lambda: 2)
    monkeypatch.setattr(fock, "_dsyevd", failing)
    monkeypatch.setattr(fock, "_Workspaces", Recording)
    made = _count_solvers(monkeypatch)[1]["workspaces"]
    threads = threading.active_count()
    with pytest.raises(np.linalg.LinAlgError,
                       match="dsyevd failed with info 3"):
        gl.gibbs_state(H, T)
    assert threading.active_count() == threads
    assert len(spaces) == 1 and len(made) >= 1
    assert sorted(map(id, spaces[0].spare)) == sorted(map(id, made))


def _whole_class_blocks(H):
    """The class blocks of the whole H, cut as one run."""
    return fock._class_blocks(H.basis, H.labels, 0, H.matrix)


def _dense_block(d: int, seed: int) -> np.ndarray:
    """A random d x d block, symmetric to about 1e-13 but not bitwise: its
    upper triangle is moved off the lower one."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((d, d))
    B = X + X.T
    B[np.triu_indices(d, 1)] *= 1.0 + 1e-13 * rng.standard_normal(
        d * (d - 1) // 2)
    return B


@pytest.fixture(scope="module")
def workspaces_300():
    return fock._Workspaces(300)


@pytest.mark.parametrize("d", [1, 2, 13, 14, 15, 16, 17, 64, 100, 129, 300])
def test_dense_route_is_numpys_eigh_bitwise(d, workspaces_300):
    # one workspace sized for d = 300 serves every block; dsyevd gets the
    # work sizes numpy asks for (a longer lwork moves the bits at d = 64)
    B, T = _dense_block(d, seed=d), 2.5
    if d > 1:
        assert 0.0 < np.abs(B - B.T).max() <= 1e-10
    r, c = np.nonzero(B)
    G = np.empty((d, d))
    lam = fock._solve_block(G, r, c, B[r, c], T, workspaces_300)
    want_lam, want = oracles.gibbs_block_eigh(B, T)
    assert lam.tobytes() == want_lam.tobytes()
    assert G.tobytes() == want.tobytes()


def test_dense_route_solves_in_place_at_odd_offsets(workspaces_300,
                                                   monkeypatch):
    # blocks laid at odd element offsets of one sector array: dsyevd
    # solves each in its own place, V V^T is numpy's eigh route bit for
    # bit, nothing past a block is written, and a workspace is dsyevd's
    # work and iwork alone
    dims, T = [1, 13, 64, 100, 129, 300], 2.5
    flat = np.full(sum(d * d + 1 for d in dims) + 1, np.nan)
    dsyevd, places, at, slots = fock._dsyevd, [], 1, []

    def solving(a, w, work, iwork):
        places.append(a.ctypes.data)
        return dsyevd(a, w, work, iwork)

    monkeypatch.setattr(fock, "_dsyevd", solving)
    for d in dims:
        assert at % 2 == 1
        G = flat[at:at + d * d].reshape(d, d)
        B = _dense_block(d, seed=d)
        r, c = np.nonzero(B)
        lam = fock._solve_block(G, r, c, B[r, c], T, workspaces_300)
        want_lam, want = oracles.gibbs_block_eigh(B, T)
        assert lam.tobytes() == want_lam.tobytes()
        assert G.tobytes() == want.tobytes()
        assert places[-1] == G.ctypes.data
        slots.append(np.arange(at, at + d * d))
        at += d * d
        at += at % 2 == 0
    assert np.isnan(np.delete(flat, np.concatenate(slots))).all()
    lwork, liwork = _syevd_sizes(300)
    assert [(work.size, iwork.size) for work, iwork in workspaces_300.spare] \
        == [(lwork, liwork)]


def test_dense_route_is_numpys_eigh_on_every_dense_k3_block(basis_k3,
                                                            tensor_k3):
    # ed-k3's T=2.5 shape (K=3, n_max 15); its H is symmetric to 1e-10,
    # not bitwise
    H, T = _k3_point(basis_k3, tensor_k3)
    assert H.basis.n_max == 15
    workspaces = fock._Workspaces(fock._widest_class(H.basis, H.labels))
    dense = 0
    for _, rows, r, c, v in _whole_class_blocks(H):
        if np.all(np.abs(r - c) <= 1):
            continue
        dense += 1
        G = np.empty((rows.size,) * 2)
        lam = fock._solve_block(G, r, c, v, T, workspaces)
        want_lam, want = oracles.gibbs_block_eigh(H.class_block(rows), T)
        assert lam.tobytes() == want_lam.tobytes()
        assert G.tobytes() == want.tobytes()
    assert dense > 25 and len(workspaces.spare) == 1


def test_dense_route_reads_the_lower_triangle(basis_k3, tensor_k3):
    # negative control: an upper entry of a dense block moved by an ulp
    # leaves the state unchanged, as numpy's eigh (which reads the lower
    # triangle) leaves it; the same move below shows. A block scattered
    # in C order would read the upper triangle instead.
    H, T = _k3_point(basis_k3, tensor_k3)
    _, rows, r, c, _ = max(_whole_class_blocks(H), key=lambda b: b[1].size)
    k = int(np.flatnonzero(c - r >= 2)[0])
    upper, lower = (rows[r[k]], rows[c[k]]), (rows[c[k]], rows[r[k]])
    moved = {}
    for side, (i, j) in {"upper": upper, "lower": lower}.items():
        A = H.matrix.copy()
        at = _csr_entry(A, i, j)
        A.data[at] = np.nextafter(A.data[at], np.inf)
        moved[side] = fock.FockOperator(H.basis, A, H.labels)
    assert 0.0 < moved["upper"].hermiticity_defect() <= 1e-10
    base = gl.gibbs_state(H, T)
    _assert_same_gibbs(gl.gibbs_state(moved["upper"], T), base)
    lower = gl.gibbs_state(moved["lower"], T)
    _assert_same_gibbs(lower, oracles.gibbs_blocks_csr(moved["lower"], T))
    assert any(not np.array_equal(a, b) for (*_, a), (*_, b)
               in zip(lower[0].blocks, base[0].blocks))
