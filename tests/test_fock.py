import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import gibbslab as gl
from gibbslab import fock

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
    assert fb.rank_in_sector(np.array([[1, 1]]), 2).tolist() == [1]


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
    H = gl.build_hamiltonian(fb, basis_k2.eigenvalues, None, 0.0)
    M = H.matrix.toarray()
    assert np.allclose(M, np.diag(fb.occupations @ basis_k2.eigenvalues))


def test_two_body_annihilates_low_sectors(basis_k2, tensor_k2):
    fb = gl.build_fock_basis(2, 4)
    H0 = gl.build_hamiltonian(fb, basis_k2.eigenvalues, None, 0.0)
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
    H0 = gl.build_hamiltonian(fb, basis_k2.eigenvalues, None, 0.0)
    H1 = gl.build_hamiltonian(fb, basis_k2.eigenvalues, tensor_k2, 1.0)
    W = (H1.matrix - H0.matrix).toarray()
    s = fb.sector_slice(2)
    from gibbslab.symspace import two_body_sym_matrix
    assert np.allclose(W[s, s], two_body_sym_matrix(tensor_k2.entries),
                       atol=1e-12)


def test_gibbs_geometric_partition_function():
    fb = gl.build_fock_basis(1, 10)
    H = gl.build_hamiltonian(fb, np.array([1.0]), None, 0.0)
    state, log_z = gl.gibbs_state(H, 1.0)
    exact = math.log((1.0 - math.exp(-11.0)) / (1.0 - math.exp(-1.0)))
    assert abs(log_z - exact) < 1e-10
    assert abs(state.trace() - 1.0) < 1e-10


def test_gibbs_low_temperature_is_vacuum(basis_k2, tensor_k2):
    fb = gl.build_fock_basis(2, 4)
    H = gl.build_hamiltonian(fb, basis_k2.eigenvalues, tensor_k2, 0.5)
    state, _ = gl.gibbs_state(H, 1e-3)
    probs = state.sector_probabilities()
    assert probs[0] == pytest.approx(1.0, abs=1e-12)
    assert gl.particle_number(state) < 1e-12


def test_gibbs_commutes_with_number(basis_k2, tensor_k2):
    fb = gl.build_fock_basis(2, 4)
    H = gl.build_hamiltonian(fb, basis_k2.eigenvalues, tensor_k2, 0.5)
    state, _ = gl.gibbs_state(H, 2.0)
    assert state.sector_diagonal
    N = np.diag(fb.occupations.sum(axis=1).astype(float))
    M = state.to_dense()
    assert np.abs(N @ M - M @ N).max() < 1e-12
    eigs = np.concatenate([np.linalg.eigvalsh(b) for b in state.blocks])
    assert eigs.min() > -1e-12


def test_gibbs_rejects_bad_input(basis_k2):
    fb = gl.build_fock_basis(2, 3)
    H = gl.build_hamiltonian(fb, basis_k2.eigenvalues, None, 0.0)
    with pytest.raises(ValueError):
        gl.gibbs_state(H, 0.0)
    bad = fock.FockOperator(fb, sparse.csr_matrix(
        np.triu(np.ones((fb.dim, fb.dim)))))
    with pytest.raises(ValueError):
        gl.gibbs_state(bad, 1.0)


def test_rdm_pure_two_particle_state():
    fb = gl.build_fock_basis(1, 6)
    blocks = [np.zeros((1, 1)) for _ in range(7)]
    blocks[2] = np.ones((1, 1))
    state = fock.FockState(basis=fb, blocks=tuple(blocks))
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


def test_free_gibbs_occupancies_closed_form(basis_k2):
    T = 2.0
    n_max = gl.choose_n_max(basis_k2.eigenvalues, T, tail=1e-12)
    fb = gl.build_fock_basis(2, n_max)
    H = gl.build_hamiltonian(fb, basis_k2.eigenvalues, None, 0.0)
    state, _ = gl.gibbs_state(H, T)
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


def test_rdm_routes_agree_on_dense_states():
    fb = gl.build_fock_basis(2, 5)
    state = fock.random_state(fb, 3, dense=True)
    for k in (1, 2):
        a = gl.reduced_density_matrix(state, k)
        b = gl.reduced_dm_normal_ordered(state, k)
        assert np.abs(a.entries - b.entries).max() < 1e-10


def test_rdm_coherent_projector():
    fb = gl.build_fock_basis(2, 22)
    cv = gl.coherent(np.array([1.0, 0.0]), fb)
    g1 = gl.reduced_density_matrix(cv.projector(), 1)
    assert abs(g1.entries[0, 0] - 1.0) < 1e-8   # |v_1|^2 up to the tail
    assert abs(g1.entries[1, 1]) < 1e-12


def test_rdm_vacuum_is_zero():
    fb = gl.build_fock_basis(2, 4)
    vac = gl.coherent(np.zeros(2), fb).projector()
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
    state = fock.FockState(basis=fb, blocks=tuple(blocks))
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


def test_relative_entropy_basics():
    fb = gl.build_fock_basis(2, 4)
    a = fock.random_state(fb, 1)
    assert abs(gl.relative_entropy(a, a)) < 1e-10
    for seed in range(100):
        x, y = fock.random_state(fb, 2 * seed), fock.random_state(fb, 2 * seed + 1)
        assert gl.relative_entropy(x, y) > -1e-10


def test_relative_entropy_matches_classical_kl():
    # commuting diagonal states reduce to the KL of their eigenvalue vectors
    fb = gl.build_fock_basis(1, 60)
    def thermal(nbar):
        s = nbar / (1.0 + nbar)
        p = (1 - s) * s ** np.arange(61)
        return fock.FockState(basis=fb,
                              blocks=tuple(np.array([[v]]) for v in p / p.sum()))
    a, b = thermal(0.4), thermal(0.9)
    kl = gl.relative_entropy(a, b)
    assert abs(kl - oracles.geometric_kl(0.4, 0.9)) < 1e-6
    # asymmetry witnessed
    assert abs(gl.relative_entropy(b, a) - kl) > 1e-3


def test_relative_entropy_support_violation():
    fb = gl.build_fock_basis(2, 3)
    pure = gl.coherent(np.zeros(2), fb).projector()
    mixed = fock.random_state(fb, 5)
    assert math.isinf(gl.relative_entropy(mixed, pure))
    assert math.isfinite(gl.relative_entropy(pure, mixed))


@settings(max_examples=40, deadline=None)
@given(K=st.integers(1, 3), n_max=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1), dense_state=st.booleans(),
       zero_sector=st.one_of(st.none(), st.integers(0, 8)))
def test_relative_entropy_diagonal_reference_matches_generic_route(
        K, n_max, seed, dense_state, zero_sector):
    # a diagonal reference stored as sector blocks skips its eigensolve; the
    # same reference passed as a dense matrix goes through eigh(ref)
    fb = gl.build_fock_basis(K, n_max)
    rng = np.random.default_rng(seed)
    q = np.exp(-rng.uniform(0.0, 20.0, fb.dim))
    if zero_sector is not None and zero_sector <= n_max:
        q[fb.sector_slice(zero_sector)] = 0.0
    q /= q.sum()
    diag_ref = fock.FockState(basis=fb, blocks=tuple(
        np.diag(q[fb.sector_slice(n)]) for n in range(n_max + 1)))
    dense_ref = fock.FockState(basis=fb, matrix=np.diag(q))
    state = fock.random_state(fb, seed % 1000, dense=dense_state)
    got = gl.relative_entropy(state, diag_ref)
    want = gl.relative_entropy(state, dense_ref)
    if zero_sector is not None and zero_sector <= n_max:
        assert math.isinf(got) and math.isinf(want)
    else:
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_relative_entropy_rejects_equal_dim_different_bases():
    a = fock.random_state(gl.build_fock_basis(2, 3), 0)
    b = fock.random_state(gl.build_fock_basis(3, 2), 1)
    assert a.basis.dim == b.basis.dim == 10
    for x, y in [(a, b), (b, a)]:
        with pytest.raises(ValueError, match="different bases"):
            gl.relative_entropy(x, y)
    # an equal basis built separately is accepted
    c = fock.random_state(gl.build_fock_basis(2, 3), 2)
    assert gl.relative_entropy(a, c) > 0.0


def test_relative_free_energy_identity(basis_k2, tensor_k2):
    T = 2.0
    n_max = gl.choose_n_max(basis_k2.eigenvalues, T, tail=1e-10)
    fb = gl.build_fock_basis(2, n_max)
    lam = 0.5
    H = gl.build_hamiltonian(fb, basis_k2.eigenvalues, tensor_k2, lam)
    H0 = gl.build_hamiltonian(fb, basis_k2.eigenvalues, None, 0.0)
    gibbs, log_z = gl.gibbs_state(H, T)
    free, log_z0 = gl.gibbs_state(H0, T)
    fe = gl.relative_free_energy(gibbs, free, tensor_k2, lam, T)
    target = T * (log_z0 - log_z)
    assert abs(fe - target) < 1e-8 * max(abs(target), 1.0)
    assert gl.relative_free_energy(free, free, None, 0.0, T) == \
        pytest.approx(0.0, abs=1e-10)


def test_relative_free_energy_identity_single_mode(basis_k2, tensor_k2):
    T, lam = 2.0, 0.5
    fb = gl.build_fock_basis(1, 40)
    lam1 = basis_k2.eigenvalues[:1]
    t1 = gl.TwoBodyTensor(tensor_k2.entries[:1, :1, :1, :1])
    gibbs, log_z = gl.gibbs_state(gl.build_hamiltonian(fb, lam1, t1, lam), T)
    free, log_z0 = gl.gibbs_state(gl.build_hamiltonian(fb, lam1, None, 0.0), T)
    fe = gl.relative_free_energy(gibbs, free, t1, lam, T)
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
    gibbs, _ = gl.gibbs_state(H, T)
    base = free_energy(gibbs)
    rng = np.random.default_rng(0)
    for seed in range(20):
        other = fock.random_state(fb, seed + 100)
        eps = rng.uniform(0.05, 0.6)
        mix = [(1 - eps) * g + eps * o
               for g, o in zip(gibbs.blocks, other.blocks)]
        pert = fock.FockState(basis=fb, blocks=tuple(mix))
        assert free_energy(pert) >= base - 1e-9


def test_variational_bound_of_relative_free_energy(basis_k2, tensor_k2):
    T = 2.0
    fb = gl.build_fock_basis(2, gl.choose_n_max(basis_k2.eigenvalues, T,
                                                tail=1e-10))
    lam = 0.5
    H = gl.build_hamiltonian(fb, basis_k2.eigenvalues, tensor_k2, lam)
    H0 = gl.build_hamiltonian(fb, basis_k2.eigenvalues, None, 0.0)
    gibbs, _ = gl.gibbs_state(H, T)
    free, _ = gl.gibbs_state(H0, T)
    base = gl.relative_free_energy(gibbs, free, tensor_k2, lam, T)
    for seed in range(5):
        other = fock.random_state(fb, seed)
        mix = [(0.9) * g + 0.1 * o for g, o in zip(gibbs.blocks, other.blocks)]
        pert = fock.FockState(basis=fb, blocks=tuple(mix))
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


@pytest.mark.parametrize("T", [2.0, 5.0])
def test_solve_point_matches_hand_built_chain(basis_k2, tensor_k2, T):
    lam = 1.0 / T
    point = gl.solve_point(basis_k2.eigenvalues, tensor_k2, T, lam,
                           tail=1e-8, dim_budget=20000)
    n_max = gl.choose_n_max(basis_k2.eigenvalues, T, tail=1e-8)
    fb = gl.build_fock_basis(2, n_max)
    H = gl.build_hamiltonian(fb, basis_k2.eigenvalues, tensor_k2, lam)
    H0 = gl.build_hamiltonian(fb, basis_k2.eigenvalues, None, 0.0)
    gibbs, log_z = gl.gibbs_state(H, T)
    free, log_z0 = gl.gibbs_state(H0, T)
    assert (point.T, point.lam) == (T, lam)
    assert point.basis.n_max == n_max and point.basis.matches(fb)
    assert point.log_z == log_z and point.log_z_free == log_z0
    for got, want in [(point.gibbs, gibbs), (point.free, free)]:
        assert len(got.blocks) == len(want.blocks) == n_max + 1
        for a, b in zip(got.blocks, want.blocks):
            assert np.array_equal(a, b)


def test_solve_point_free_state_matches_eigensolver_route_k3(basis_k3,
                                                             tensor_k3):
    # within a K=3 sector the basis order is not the energy order, so the
    # closed form sums log Z in another order than the eigensolver route
    T = 2.0
    point = gl.solve_point(basis_k3.eigenvalues, tensor_k3, T, 1.0 / T)
    fb = point.basis
    free, log_z0 = gl.gibbs_state(
        gl.build_hamiltonian(fb, basis_k3.eigenvalues, None, 0.0), T)
    assert point.log_z_free == pytest.approx(log_z0, rel=1e-13, abs=0.0)
    assert len(point.free.blocks) == len(free.blocks) == fb.n_max + 1
    for got, want in zip(point.free.blocks, free.blocks):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_solve_point_rejects_over_budget_temperature(basis_k2, tensor_k2):
    with pytest.raises(ValueError, match="budget 2000"):
        gl.solve_point(basis_k2.eigenvalues, tensor_k2, 50.0, 0.02,
                       dim_budget=2000)
