import math
import warnings

import numpy as np
import pytest

import gibbslab as gl
from gibbslab import fock, semiclassics
from gibbslab.kernels import occupation_products
from gibbslab.semiclassics import (TailWarning, coherent_overlap,
                                   husimi_kl_importance)

import oracles


def _thermal_single_mode(nbar, n_max):
    fb = gl.build_fock_basis(1, n_max)
    s = nbar / (1.0 + nbar)
    p = (1 - s) * s ** np.arange(n_max + 1)
    return fock.FockState(basis=fb,
                          blocks=tuple(np.array([[v]]) for v in p / p.sum()))


def test_coherent_vacuum():
    fb = gl.build_fock_basis(2, 5)
    cv = gl.coherent(np.zeros(2), fb)
    assert cv.amplitudes[0] == pytest.approx(1.0)
    assert not np.any(cv.amplitudes[1:])
    assert cv.tail_bound == 0.0


@pytest.mark.filterwarnings("ignore::gibbslab.semiclassics.TailWarning")
def test_coherent_normalization_and_poisson_sectors():
    # |v|^2 up to n_max/2 makes the Poisson tail exceed the warning
    # threshold by design; the normalization identity must still hold
    fb = gl.build_fock_basis(2, 24)
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v *= math.sqrt(rng.uniform(0.1, fb.n_max / 2)) / np.linalg.norm(v)
        cv = gl.coherent(v, fb)
        assert abs(cv.norm_sq() + cv.tail_bound - 1.0) < 1e-12
        nu = float(np.sum(np.abs(v) ** 2))
        for k in (0, 1, 2):
            sector = cv.amplitudes[fb.sector_slice(k)]
            poisson = math.exp(-nu) * nu**k / math.factorial(k)
            assert abs(np.sum(np.abs(sector) ** 2) - poisson) < 1e-12


def test_coherent_particle_number_is_poisson_mean():
    fb = gl.build_fock_basis(2, 25)
    v = np.array([1.2 + 0.3j, -0.5j])
    cv = gl.coherent(v, fb)
    nu = float(np.sum(np.abs(v) ** 2))
    assert abs(fock.particle_number(cv.projector()) - nu) < 1e-8


def test_coherent_tail_warning():
    fb = gl.build_fock_basis(1, 6)
    with pytest.warns(TailWarning):
        gl.coherent(np.array([2.5 + 0j]), fb)


@pytest.mark.filterwarnings("ignore::gibbslab.semiclassics.TailWarning")
def test_overlap_law():
    # tails enter the tolerance explicitly here, so heavy draws are fine
    fb = gl.build_fock_basis(2, 30)
    rng = np.random.default_rng(1)
    for _ in range(50):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a, b = gl.coherent(v, fb), gl.coherent(w, fb)
        exact = np.exp(np.vdot(v, w) - 0.5 * (np.vdot(v, v) + np.vdot(w, w)))
        slack = 1e-8 + math.sqrt(a.tail_bound * b.tail_bound) \
            + a.tail_bound + b.tail_bound
        assert abs(coherent_overlap(a, b) - exact) < slack
        assert abs(abs(coherent_overlap(a, b)) ** 2
                   - math.exp(-float(np.sum(np.abs(v - w) ** 2)))) < 2 * slack


def _plain_mixture(ens, T, fb, n_subsample=None):
    """The unpinched mixture sum_s w_s |xi_s><xi_s| of the truncated coherent
    vectors at sqrt(T) * alpha_s, as one dense unit-trace matrix."""
    n = ens.n if n_subsample is None else n_subsample
    logw = ens.log_weights[:n]
    w = np.exp(logw - logw.max())
    M = np.zeros((fb.dim, fb.dim), dtype=np.complex128)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TailWarning)
        for ws, alpha in zip(w / w.sum(), ens.coeffs[:n]):
            cv = gl.coherent(math.sqrt(T) * alpha, fb)
            M += ws * cv.norm_sq() * cv.projector().matrix
    return fock.FockState(basis=fb, matrix=M / np.real(np.trace(M)))


def _sector_blocks(matrix, fb):
    return [matrix[fb.sector_slice(n), fb.sector_slice(n)]
            for n in range(fb.n_max + 1)]


def test_trial_state_single_sample_is_coherent_projector(basis_k2, delta_kernel):
    ens = gl.reweight(gl.sample_free(basis_k2, 1, seed=2), basis_k2,
                      delta_kernel)
    fb = gl.build_fock_basis(2, 20)
    T = 1.0
    trial = gl.trial_state(ens, T, fb)
    cv = gl.coherent(math.sqrt(T) * ens.coeffs[0], fb)
    expect = _sector_blocks(cv.projector().matrix, fb)
    assert len(trial.blocks) == len(expect)
    for got, want in zip(trial.blocks, expect):
        assert np.abs(got - want).max() < 1e-12


def test_trial_state_particle_number(basis_k2, delta_kernel):
    ens = gl.reweight(gl.sample_free(basis_k2, 3000, seed=4), basis_k2,
                      delta_kernel)
    T = 1.0
    fb = gl.build_fock_basis(2, 25)
    trial = gl.trial_state(ens, T, fb)
    wt = ens.normalized_weights()
    target = T * float(np.sum(wt * np.sum(np.abs(ens.coeffs) ** 2, axis=1)))
    h = T * np.sum(np.abs(ens.coeffs) ** 2, axis=1)
    se = float(np.sqrt(np.sum(wt**2 * (h - target) ** 2)))
    assert abs(fock.particle_number(trial) - target) < max(4 * se, 1e-6)


def test_trial_state_phase_average_only_drops_cross_sectors(basis_k2,
                                                            delta_kernel):
    ens = gl.reweight(gl.sample_free(basis_k2, 64, seed=5), basis_k2,
                      delta_kernel)
    fb = gl.build_fock_basis(2, 18)
    plain = _plain_mixture(ens, 0.8, fb)
    pinched = gl.trial_state(ens, 0.8, fb)
    for want, got in zip(_sector_blocks(plain.matrix, fb), pinched.blocks):
        assert np.abs(want - got).max() < 1e-12
    assert abs(fock.particle_number(plain)
               - fock.particle_number(pinched)) < 1e-10


@pytest.mark.filterwarnings("ignore:.*trial-state samples.*")
def test_trial_state_variational_bound(basis_k2, tensor_k2, delta_kernel):
    T = 2.0
    lam = 1.0 / T
    ens = gl.reweight(gl.sample_free(basis_k2, 4000, seed=6), basis_k2,
                      delta_kernel)
    n_max = gl.choose_n_max(basis_k2.eigenvalues, T, tail=1e-10)
    fb = gl.build_fock_basis(2, n_max)
    H = gl.build_hamiltonian(fb, basis_k2.eigenvalues, tensor_k2, lam)
    H0 = gl.build_hamiltonian(fb, basis_k2.eigenvalues, None, 0.0)
    gibbs, _ = gl.gibbs_state(H, T)
    free, _ = gl.gibbs_state(H0, T)
    fe_gibbs = gl.relative_free_energy(gibbs, free, tensor_k2, lam, T)
    for trial in (gl.trial_state(ens, T, fb, n_subsample=256),
                  _plain_mixture(ens, T, fb, n_subsample=256)):
        fe_trial = gl.relative_free_energy(trial, free, tensor_k2, lam, T)
        assert fe_trial >= fe_gibbs - 1e-8
    # pinching can only lower the trial free energy
    fe_plain = gl.relative_free_energy(
        _plain_mixture(ens, T, fb, n_subsample=128), free, tensor_k2, lam, T)
    fe_pinch = gl.relative_free_energy(
        gl.trial_state(ens, T, fb, n_subsample=128), free, tensor_k2, lam, T)
    assert fe_pinch <= fe_plain + 1e-9


def test_trial_state_warns_on_cutoff_violation(basis_k2, delta_kernel):
    ens = gl.reweight(gl.sample_free(basis_k2, 200, seed=7), basis_k2,
                      delta_kernel)
    fb = gl.build_fock_basis(2, 6)
    with pytest.warns(TailWarning, match=r"\d+ of 200"):
        gl.trial_state(ens, 8.0, fb)


def test_husimi_vacuum_density():
    fb = gl.build_fock_basis(1, 8)
    vac = gl.coherent(np.zeros(1), fb).projector()
    pts = np.array([[0.3 + 0.4j], [1.0 + 0.0j], [0.0 + 0.0j]])
    dens = gl.husimi_density(vac, 1.0, pts)
    expect = np.exp(-np.abs(pts[:, 0]) ** 2) / math.pi
    assert np.abs(dens - expect).max() < 1e-12


def test_husimi_peaks_at_scaled_center():
    fb = gl.build_fock_basis(1, 40)
    w = np.array([1.1 + 0.6j])
    proj = gl.coherent(w, fb).projector()
    eps = 0.5
    line = np.linspace(-2.5, 2.5, 101)
    pts = (math.sqrt(eps) * w)[None, :] + line[:, None] * np.array([[1.0]])
    dens = gl.husimi_density(proj, eps, pts)
    assert abs(line[np.argmax(dens)]) < 0.05


def test_husimi_positive_on_random_states():
    fb = gl.build_fock_basis(2, 6)
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2))
    for seed in range(5):
        state = fock.random_state(fb, seed)
        assert np.all(gl.husimi_density(state, 0.7, pts) >= 0.0)


def test_husimi_normalization_window():
    for state, eps, rmax in [
        (_thermal_single_mode(0.5, 25), 1.0, 7.0),
        (_thermal_single_mode(1.5, 40), 0.5, 6.0),
        (gl.coherent(np.array([0.9 + 0.2j]), gl.build_fock_basis(1, 30))
         .projector(), 1.0, 8.0),
    ]:
        val = oracles.husimi_normalization_quadrature(state, eps, r_max=rmax,
                                                      nr=300, ntheta=96)
        assert 0.97 <= val <= 1.001


def test_husimi_kl_importance_matches_quadrature_and_oracle():
    a = _thermal_single_mode(0.6, 50)
    b = _thermal_single_mode(1.1, 50)
    eps = 1.0
    quantum = gl.relative_entropy(a, b)
    assert abs(quantum - oracles.geometric_kl(0.6, 1.1)) < 1e-8
    quad = oracles.husimi_kl_quadrature(a, b, eps, r_max=9.0, nr=400,
                                        ntheta=128)
    est = husimi_kl_importance(a, b, eps, n_samples=20000, seed=11)
    assert not est.degenerate
    assert abs(est.value - quad) < max(4 * est.stderr, 2e-3)
    # the classical KL is dominated by the quantum one here
    assert quad <= quantum + 1e-6


def _kl_from_separate_densities(state, ref, eps, n_samples, seed):
    """The importance estimate of husimi_kl_importance, rebuilt from two
    husimi_density calls on the same proposal draws."""
    rng = np.random.default_rng(seed)
    K = state.basis.K
    g1 = gl.reduced_density_matrix(ref, 1)
    var = eps * (np.clip(np.real(np.diag(g1.entries)), 0.0, None) + 1.0)
    z = rng.standard_normal((n_samples, 2 * K))
    u = (z[:, :K] + 1j * z[:, K:]) * np.sqrt(var / 2.0)
    logq = np.sum(-np.abs(u) ** 2 / var - np.log(math.pi * var), axis=1)
    lh = np.log(np.clip(gl.husimi_density(state, eps, u), 1e-290, None))
    lhp = np.log(np.clip(gl.husimi_density(ref, eps, u), 1e-290, None))
    ws, wr = np.exp(lh - logq), np.exp(lhp - logq)
    return float(np.sum(ws * (lh - lhp)) / ws.sum()
                 + math.log(wr.mean() / ws.mean()))


def test_husimi_kl_importance_matches_separate_densities(basis_k2, tensor_k2):
    T = 5.0
    fb = gl.build_fock_basis(2, gl.choose_n_max(basis_k2.eigenvalues, T))
    gibbs, _ = gl.gibbs_state(
        gl.build_hamiltonian(fb, basis_k2.eigenvalues, tensor_k2, 1.0 / T), T)
    free, _ = gl.gibbs_state(
        gl.build_hamiltonian(fb, basis_k2.eigenvalues, None, 0.0), T)
    dense = fock.random_state(fb, 3, dense=True)
    # diagonal, sector-block and dense contractions, mixed in one estimate
    for state, ref in [(gibbs, free), (dense, gibbs), (free, free)]:
        est = husimi_kl_importance(state, ref, 1.0 / T, n_samples=600, seed=4)
        expect = _kl_from_separate_densities(state, ref, 1.0 / T, 600, 4)
        assert est.value == pytest.approx(expect, rel=1e-12, abs=1e-15)


def test_husimi_diagonal_path_needs_exactly_diagonal_blocks(basis_k2):
    fb = gl.build_fock_basis(2, 12)
    free, _ = gl.gibbs_state(
        gl.build_hamiltonian(fb, basis_k2.eigenvalues, None, 0.0), 3.0)
    rng = np.random.default_rng(8)
    pts = 0.8 * (rng.standard_normal((40, 2)) + 1j * rng.standard_normal((40, 2)))
    eps = 0.4

    def dense_route(state):
        return gl.husimi_density(
            fock.FockState(basis=fb, matrix=state.to_dense()), eps, pts)

    assert isinstance(semiclassics._husimi_form(free), np.ndarray)
    diag = gl.husimi_density(free, eps, pts)
    assert np.allclose(diag, dense_route(free), rtol=1e-12, atol=0.0)

    # negative control: one off-diagonal entry (and its Hermitian mirror)
    blocks = [b.copy() for b in free.blocks]
    G = blocks[3]
    G[0, 1] = G[1, 0] = 0.5 * math.sqrt(G[0, 0] * G[1, 1])
    perturbed = fock.FockState(basis=fb, blocks=tuple(blocks))
    assert not isinstance(semiclassics._husimi_form(perturbed), np.ndarray)
    got = gl.husimi_density(perturbed, eps, pts)
    assert np.allclose(got, dense_route(perturbed), rtol=1e-12, atol=0.0)
    # the diagonal of the two states agrees, so an O(dim) route would miss it
    assert np.max(np.abs(got - diag) / diag) > 1e-2


def _full_basis_husimi(state, eps, pts):
    """(pi eps)^-K <xi|state|xi> with amplitudes over every sector."""
    fb = state.basis
    vs = pts / math.sqrt(eps)
    nu = np.sum(np.abs(vs) ** 2, axis=1)
    A = occupation_products(vs, fb.occupations, np.exp(-0.5 * nu))
    form = semiclassics._husimi_form(state)
    return (math.pi * eps) ** (-fb.K) * semiclassics._contract(form, A,
                                                                fb.n_max)


def _record_amplitude_rows(monkeypatch):
    rows = []
    build = semiclassics.occupation_products

    def recording(vs, occs, vacuum=None):
        rows.append(len(occs))
        return build(vs, occs, vacuum)

    monkeypatch.setattr(semiclassics, "occupation_products", recording)
    return rows


def _spread_points(n, nu_max, seed):
    # |v|^2 spread over [0, nu_max] in shuffled order, at scale eps = 1
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    z /= np.linalg.norm(z, axis=1)[:, None]
    return z * np.sqrt(rng.uniform(0.0, nu_max, n))[:, None]


def test_husimi_sector_window_matches_full_basis(monkeypatch, basis_k2,
                                                 tensor_k2):
    T = 6.0
    fb = gl.build_fock_basis(2, 30)
    gibbs, _ = gl.gibbs_state(
        gl.build_hamiltonian(fb, basis_k2.eigenvalues, tensor_k2, 1.0 / T), T)
    free, _ = gl.gibbs_state(
        gl.build_hamiltonian(fb, basis_k2.eigenvalues, None, 0.0), T)
    pts = _spread_points(700, 9.0, 1)
    rows = _record_amplitude_rows(monkeypatch)
    # sector-block and exactly diagonal states share the windowed chunks
    h = semiclassics._husimi([gibbs, free], 1.0, pts)
    assert isinstance(semiclassics._husimi_form(free), np.ndarray)
    assert min(rows) < fb.dim and len(rows) == 3   # windows, no fallback
    for got, state in zip(h, [gibbs, free]):
        want = _full_basis_husimi(state, 1.0, pts)
        assert np.all(np.abs(got - want) <= 1e-13 * want)
    # a dense state keeps the full basis in every chunk
    rows.clear()
    dense = fock.random_state(fb, 2, dense=True)
    got = gl.husimi_density(dense, 1.0, pts)
    assert rows == [fb.dim] * 3
    want = _full_basis_husimi(dense, 1.0, pts)
    assert np.all(np.abs(got - want) <= 1e-13 * want)


def test_husimi_sector_window_falls_back_on_top_sector_mass(monkeypatch):
    # negative control: all mass in the top sector, which every window drops
    fb = gl.build_fock_basis(2, 30)
    rng = np.random.default_rng(5)
    d = fb.sector_dim(30)
    M = rng.standard_normal((d, d))
    blocks = [np.zeros((fb.sector_dim(n),) * 2) for n in range(30)]
    top = fock.FockState(basis=fb,
                         blocks=tuple(blocks + [M @ M.T / np.trace(M @ M.T)]))
    pts = _spread_points(300, 3.0, 2)
    rows = _record_amplitude_rows(monkeypatch)
    got = gl.husimi_density(top, 1.0, pts)
    assert rows[0] < fb.dim and rows[-1] == fb.dim   # window, then fallback
    want = _full_basis_husimi(top, 1.0, pts)
    assert np.all(want > 0.0)
    assert np.all(np.abs(got - want) <= 1e-13 * want)


def test_berezin_lieb_rejects_equal_dim_different_bases():
    a = fock.random_state(gl.build_fock_basis(2, 3), 0)
    b = fock.random_state(gl.build_fock_basis(3, 2), 1)
    assert a.basis.dim == b.basis.dim
    with pytest.raises(ValueError, match="different bases"):
        husimi_kl_importance(a, b, 1.0, n_samples=100)
    with pytest.raises(ValueError, match="different bases"):
        gl.berezin_lieb_gap(a, b, 1.0, n_samples=100)


def test_berezin_lieb_gap_equal_states():
    a = _thermal_single_mode(0.8, 40)
    res = gl.berezin_lieb_gap(a, a, 1.0, n_samples=4000, seed=1)
    assert abs(res.quantum) < 1e-10
    assert abs(res.classical) < 5e-3
    assert abs(res.gap) < 5e-3


def test_berezin_lieb_gap_thermal_pair():
    a = _thermal_single_mode(0.5, 50)
    b = _thermal_single_mode(1.0, 50)
    res = gl.berezin_lieb_gap(a, b, 1.0, n_samples=20000, seed=2)
    assert abs(res.quantum - oracles.geometric_kl(0.5, 1.0)) < 1e-8
    quad = oracles.husimi_kl_quadrature(a, b, 1.0, r_max=9.0, nr=400,
                                        ntheta=128)
    assert abs(res.classical - quad) < max(4 * res.classical_stderr, 2e-3)
    assert res.gap > 0
