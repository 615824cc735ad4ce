import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc

import gibbslab as gl
from gibbslab import fock, semiclassics
from gibbslab.semiclassics import (TailWarning, coherent_overlap,
                                   husimi_kl_importance)

import oracles


def _thermal_single_mode(nbar, n_max):
    fb = gl.build_fock_basis(1, n_max)
    s = nbar / (1.0 + nbar)
    p = (1 - s) * s ** np.arange(n_max + 1)
    return fock.FockState.from_sectors(
        fb, [np.array([[v]]) for v in p / p.sum()])


def _thermal_state(fb, T):
    """The free state of unit mode energies at temperature T, as sector
    blocks."""
    p = np.exp(-fb.occupations.sum(axis=1) / T)
    return fock.FockState.from_sectors(
        fb, [np.diag(p[fb.sector_slice(n)]) / p.sum()
             for n in range(fb.n_max + 1)])


def _number_state(fb, n):
    """|n><n| of a single mode."""
    return fock.FockState.from_sectors(
        fb, [np.array([[float(m == n)]]) for m in range(fb.n_max + 1)])


def _norm_sq(cv):
    return np.vdot(cv.amplitudes, cv.amplitudes).real


def _projector(cv):
    """|xi><xi| / <xi|xi> of a truncated coherent vector, as a matrix."""
    return np.outer(cv.amplitudes, cv.amplitudes.conj()) / _norm_sq(cv)


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
        assert abs(_norm_sq(cv) + cv.tail_bound - 1.0) < 1e-12
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
    # <N> reads only the diagonal, which is real
    assert abs(fock.particle_number(oracles.pinched(np.real(_projector(cv)),
                                                    fb)) - nu) < 1e-8


def test_coherent_reads_the_basis_table(monkeypatch):
    # a coherent vector walks the parent table the basis was enumerated
    # with: one call builds no table, and its amplitudes are those of a
    # table of the same basis built again (the negative control, one call)
    fb = gl.build_fock_basis(2, 40)
    v = np.array([1.2 + 0.3j, -0.5j])
    calls = []
    graded = gl.kernels.Recurrence.graded

    def counting(K, n):
        calls.append((K, n))
        return graded(K, n)

    monkeypatch.setattr(gl.kernels.Recurrence, "graded", counting)
    cv = gl.coherent(v, fb)
    assert calls == []
    vacuum = np.exp([-0.5 * float(np.sum(np.abs(v) ** 2))])
    want = gl.kernels.occupation_products(
        v[None, :], gl.kernels.Recurrence.graded(2, 40), vacuum)[:, 0]
    assert calls == [(2, 40)]
    assert cv.amplitudes.tobytes() == want.tobytes()


def test_coherent_tail_warning():
    fb = gl.build_fock_basis(1, 6)
    with pytest.warns(TailWarning):
        gl.coherent(np.array([2.5 + 0j]), fb)


@pytest.mark.parametrize("nu, refused", [
    (1488.0, True), (1600.0, True), (1400.0, False)])
def test_coherent_points_past_the_normal_float_range_are_refused(nu, refused):
    # exp(-nu/2), the first factor of every coherent amplitude, is subnormal
    # above nu = 1416.79; there the walk gave a vector of norm 1.285 (nu =
    # 1488) or the zero vector (nu = 1600), with a tail bound near 0
    fb = gl.build_fock_basis(1, 2500, dim_budget=3000)
    v = np.array([math.sqrt(nu) + 0j])
    flat = fock.DiagonalState(fb, np.full(fb.dim, 1.0 / fb.dim))
    if not refused:
        xi = gl.coherent(v, fb)
        assert abs(np.linalg.norm(xi.amplitudes) - 1.0) < 1e-12
        assert xi.tail_bound < 1e-100
        (h,) = semiclassics.husimi_density(flat, 1.0, v[None, :])
        assert h == pytest.approx(1.0 / (math.pi * fb.dim), rel=1e-12)
        return
    for build in (lambda: gl.coherent(v, fb),
                  lambda: semiclassics.husimi_density(flat, 1.0, v[None, :])):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == (
            f"coherent point with nu = |v|^2 = {nu:g} above the limit "
            "1416.792837, where exp(-nu/2) is subnormal")


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
    vectors at sqrt(T) * alpha_s, as one unit-trace matrix."""
    n = ens.n if n_subsample is None else n_subsample
    logw = ens.log_weights[:n]
    return oracles.coherent_mixture(math.sqrt(T) * ens.coeffs[:n],
                                    np.exp(logw - logw.max()), fb)


def _plain_free_energy(plain, free, tensor, lam, T):
    """relative_free_energy of an unpinched mixture: its two-body energy sees
    only its sector blocks, its relative entropy the whole matrix. W_2 is
    real symmetric, so the antisymmetric imaginary part of a block traces
    to 0 against it and the real part gives the pair energy exactly."""
    fb = free.basis
    return fock.two_body_energy(oracles.pinched(np.real(plain), fb), tensor,
                                lam) \
        + T * oracles.relative_entropy_dense(plain, np.diag(free.p))


def _gibbs(fb, basis, tensor, T=1.0):
    """The Gibbs state of H_{1/T} on fb."""
    H = gl.build_hamiltonian(fb, basis.eigenvalues, tensor, 1.0 / T)
    return gl.gibbs_state(H, T)[0]


def _layout(fb, basis, tensor, T=1.0):
    """The (n, rows) of the (sector, class) blocks of H_{1/T} on fb, as the
    Gibbs stream records them (ThermalPoint.layout) without keeping a
    block: the layout a trial state takes."""
    H = gl.build_hamiltonian(fb, basis.eigenvalues, tensor, 1.0 / T)
    return fock._fold_gibbs(fb, H.labels, [(0, H.matrix)], T, keep=False)[1]


def _free(fb, basis, T):
    """The free Gibbs state on fb, as its diagonal."""
    p = np.exp(-fb.occupations @ basis.eigenvalues / T)
    return fock.DiagonalState(fb, p / p.sum())


def _labels(fb, tensor):
    return fb.occupations @ tensor.parity % 2


def _assert_blocks_close(got, want, tol):
    """got, a sector it leaves out read as zero, against want block by
    block."""
    got = oracles.padded(got, want.blocks)
    assert [(n, rows.tolist()) for n, rows, _ in got.blocks] \
        == [(n, rows.tolist()) for n, rows, _ in want.blocks]
    for (*_, g), (*_, w) in zip(got.blocks, want.blocks):
        assert np.isrealobj(g)
        assert np.abs(g - w).max() < tol


def test_trial_state_single_sample_is_coherent_projector(basis_k2, tensor_k2):
    ens = gl.reweight(gl.sample_free(basis_k2, 1, seed=2), tensor_k2)
    fb = gl.build_fock_basis(2, 20)
    T = 1.0
    trial = gl.trial_state(ens, T, fb, _layout(fb, basis_k2, tensor_k2))
    cv = gl.coherent(math.sqrt(T) * ens.coeffs[0], fb)
    expect = oracles.symmetrized(_projector(cv), fb, _labels(fb, tensor_k2))
    _assert_blocks_close(trial, expect, 1e-12)


def test_trial_state_particle_number(basis_k2, tensor_k2):
    ens = gl.reweight(gl.sample_free(basis_k2, 3000, seed=4), tensor_k2)
    T = 1.0
    fb = gl.build_fock_basis(2, 25)
    trial = gl.trial_state(ens, T, fb, _layout(fb, basis_k2, tensor_k2))
    wt = ens.normalized_weights()
    target = T * float(np.sum(wt * np.sum(np.abs(ens.coeffs) ** 2, axis=1)))
    h = T * np.sum(np.abs(ens.coeffs) ** 2, axis=1)
    se = float(np.sqrt(np.sum(wt**2 * (h - target) ** 2)))
    assert abs(fock.particle_number(trial) - target) < max(4 * se, 1e-6)


def test_trial_state_phase_average_only_drops_cross_sectors(basis_k2,
                                                            tensor_k2):
    # the symmetry average drops the cross-sector blocks, the imaginary part
    # and the cross-class blocks of the plain mixture, and nothing else
    ens = gl.reweight(gl.sample_free(basis_k2, 64, seed=5), tensor_k2)
    fb = gl.build_fock_basis(2, 18)
    plain = _plain_mixture(ens, 0.8, fb)
    trial = gl.trial_state(ens, 0.8, fb, _layout(fb, basis_k2, tensor_k2))
    _assert_blocks_close(
        trial, oracles.symmetrized(plain, fb, _labels(fb, tensor_k2)), 1e-12)
    n_plain = float(np.real(np.diagonal(plain)) @ fb.occupations.sum(axis=1))
    assert abs(n_plain - fock.particle_number(trial)) < 1e-10


@pytest.mark.filterwarnings("ignore:.*trial-state samples.*")
def test_trial_state_variational_bound(basis_k2, tensor_k2):
    T = 2.0
    lam = 1.0 / T
    ens = gl.reweight(gl.sample_free(basis_k2, 4000, seed=6), tensor_k2)
    n_max = gl.choose_n_max(basis_k2.eigenvalues, T, tail=1e-10)
    fb = gl.build_fock_basis(2, n_max)
    H = gl.build_hamiltonian(fb, basis_k2.eigenvalues, tensor_k2, lam)
    H0 = oracles.free_hamiltonian(fb, basis_k2.eigenvalues)
    gibbs, _, _ = gl.gibbs_state(H, T)
    layout = [(n, rows) for n, rows, _ in gibbs.blocks]
    free = oracles.diagonal_of(gl.gibbs_state(H0, T)[0])
    fe_gibbs = gl.relative_free_energy(gibbs, free, tensor_k2, lam, T)
    for fe_trial in (
            gl.relative_free_energy(
                gl.trial_state(ens, T, fb, layout, n_subsample=256),
                free, tensor_k2, lam, T),
            _plain_free_energy(_plain_mixture(ens, T, fb, n_subsample=256),
                               free, tensor_k2, lam, T)):
        assert fe_trial >= fe_gibbs - 1e-8
    # the symmetry average can only lower the trial free energy
    fe_plain = _plain_free_energy(_plain_mixture(ens, T, fb, n_subsample=128),
                                  free, tensor_k2, lam, T)
    fe_pinch = gl.relative_free_energy(
        gl.trial_state(ens, T, fb, layout, n_subsample=128), free, tensor_k2,
        lam, T)
    assert fe_pinch <= fe_plain + 1e-9


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 48),
       T=st.floats(0.5, 3.0))
def test_symmetrized_gap_is_at_most_the_sector_pinched_gap(
        basis_k2, tensor_k2, seed, n, T):
    # 0 <= F(trial) - F(Gibbs) <= F(sector-pinched mixture) - F(Gibbs): the
    # variational principle, then joint convexity of S(. | free)
    lam = 1.0 / T
    fb = gl.build_fock_basis(2, 12)
    ens = gl.reweight(gl.sample_free(basis_k2, n, seed=seed), tensor_k2)
    gibbs = _gibbs(fb, basis_k2, tensor_k2, T)
    free = _free(fb, basis_k2, T)
    fe_gibbs = gl.relative_free_energy(gibbs, free, tensor_k2, lam, T)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TailWarning)
        trial = gl.trial_state(ens, T, fb, [(n, rows)
                                            for n, rows, _ in gibbs.blocks])
    sym = gl.relative_free_energy(trial, free, tensor_k2, lam, T) - fe_gibbs
    sector = fb.occupations.sum(axis=1)
    pinched = _plain_mixture(ens, T, fb) * (sector[:, None] == sector)
    plain = _plain_free_energy(pinched, free, tensor_k2, lam, T) - fe_gibbs
    assert -1e-10 <= sym <= plain + 1e-10


def test_trial_state_without_parity_pinches_nothing(basis_k2, tensor_k2):
    # negative control: a tensor without parity (the one-class fallback)
    # leaves whole sectors, so the trial state is exactly the conjugation
    # average alone, and it carries the cross-class entries the parity
    # classes drop
    ens = gl.reweight(gl.sample_free(basis_k2, 300, seed=9), tensor_k2)
    fb = gl.build_fock_basis(2, 16)
    flat = gl.TwoBodyTensor.with_parity(tensor_k2.entries, None)
    trial = gl.trial_state(ens, 1.0, fb, _layout(fb, basis_k2, flat))
    sectors = [(n, np.arange(fb.dim)[fb.sector_slice(n)])
               for n in range(fb.n_max + 1)]
    conj_only = gl.trial_state(ens, 1.0, fb, sectors)
    assert len(trial.blocks) == fb.n_max + 1
    for (n, rows, g), (m, want, c) in zip(trial.blocks, conj_only.blocks):
        assert n == m and np.array_equal(rows, want) and np.array_equal(g, c)
    _assert_blocks_close(
        trial, oracles.symmetrized(_plain_mixture(ens, 1.0, fb), fb), 1e-12)
    labels = _labels(fb, tensor_k2)
    cross = 0.0
    for _, rows, g in trial.blocks:
        lab = labels[rows]
        cross = max(cross, np.abs(g[lab[:, None] != lab]).max(initial=0.0))
    assert cross > 1e-6


def test_trial_state_rejects_nonpositive_subsample(basis_k2, tensor_k2):
    ens = gl.reweight(gl.sample_free(basis_k2, 100, seed=1), tensor_k2)
    fb = gl.build_fock_basis(2, 8)
    layout = _layout(fb, basis_k2, tensor_k2)
    for bad in (0, -5):
        with pytest.raises(ValueError, match="n_subsample must be a positive"):
            gl.trial_state(ens, 1.0, fb, layout, n_subsample=bad)


@pytest.mark.filterwarnings("ignore::gibbslab.semiclassics.TailWarning")
def test_trial_state_refuses_a_layout_of_another_basis(basis_k2, tensor_k2):
    # the layout of a smaller cutoff, or one block short, does not cover
    # the basis the amplitudes are built on
    ens = gl.reweight(gl.sample_free(basis_k2, 100, seed=1), tensor_k2)
    fb = gl.build_fock_basis(2, 8)
    layout = _layout(fb, basis_k2, tensor_k2)
    for bad in (_layout(gl.build_fock_basis(2, 7), basis_k2, tensor_k2),
                layout[:-1]):
        with pytest.raises(ValueError, match="layout does not cover"):
            gl.trial_state(ens, 1.0, fb, bad)
    assert len(gl.trial_state(ens, 1.0, fb, layout).blocks) > 0


def _far_ensemble(n, seed):
    """n reweighted samples with |alpha|^2 spread over [48, 64], far from
    the vacuum, and log-weights in [-2, 0]."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    z /= np.linalg.norm(z, axis=1)[:, None]
    coeffs = z * np.sqrt(rng.uniform(48.0, 64.0, n))[:, None]
    return gl.WeightedEnsemble(coeffs, -rng.uniform(0.0, 2.0, n), z_r=1.0,
                               z_r_stderr=0.0, ess=float(n), reweighted=True)


@pytest.mark.filterwarnings("ignore::gibbslab.semiclassics.TailWarning")
@pytest.mark.parametrize("n", [1, 255, 256, 257, 700])
def test_trial_state_window_matches_unwindowed(monkeypatch, basis_k2,
                                               tensor_k2, n):
    fb = gl.build_fock_basis(2, 36)
    layout = _layout(fb, basis_k2, tensor_k2)
    free = _free(fb, basis_k2, 10.0)
    log_q = float(np.max(-np.log(free.p)))
    sampled = gl.reweight(gl.sample_free(basis_k2, 700, seed=12), tensor_k2)
    # T = 2 puts every sample's reach below n_max; every far sample
    # reaches n_max, with most of its mass beyond it
    streams = _record_sector_streams(monkeypatch)
    for ens, T in ((sampled, 2.0), (_far_ensemble(700, 3), 1.0)):
        streams.clear()
        trial = gl.trial_state(ens, T, fb, layout, n_subsample=n)
        vs = math.sqrt(T) * ens.coeffs[:n]
        w = np.exp(ens.log_weights[:n] - ens.log_weights[:n].max())
        want = oracles.symmetrized(oracles.coherent_mixture(vs, w, fb), fb,
                                   _labels(fb, tensor_k2))
        _assert_blocks_close(trial, want, 1e-12)
        # the trial_state docstring's bound on S(trial | free)
        nu = np.sum(np.abs(vs) ** 2, axis=1)
        tail = gammainc(fb.n_max + 1, nu)
        eps = 2.0 ** -60 / (1.0 - np.sum(w * tail) / w.sum())
        bound = eps * (log_q + math.log(1.0 / eps) + 1.0)
        assert abs(gl.relative_entropy(trial, free)
                   - gl.relative_entropy(want, free)) <= bound + 1e-12
        # each chunk of 256 in ascending nu builds sector m for exactly its
        # samples whose reach is at least m
        reach = np.array([oracles.reach(x, fb.n_max) for x in nu])
        chunks = np.array_split(np.argsort(nu, kind="stable"),
                                range(256, n, 256))
        assert len(streams) == len(chunks)
        for stream, idx in zip(streams, chunks):
            top = reach[idx]
            assert stream == [(m, int(np.sum(top < m)),
                               int(np.sum(top >= m)))
                              for m in range(top.max() + 1)]
        assert (reach.max() < fb.n_max) == (T == 2.0)


@pytest.mark.filterwarnings("ignore::gibbslab.semiclassics.TailWarning")
def test_trial_state_stores_no_zero_blocks(monkeypatch, basis_k2, tensor_k2):
    # no sample reaches the top sectors, which get no block
    fb = gl.build_fock_basis(2, 36)
    gibbs = _gibbs(fb, basis_k2, tensor_k2)
    ens = gl.reweight(gl.sample_free(basis_k2, 256, seed=12), tensor_k2)
    trial = gl.trial_state(ens, 2.0, fb, _layout(fb, basis_k2, tensor_k2))
    free = _free(fb, basis_k2, 10.0)
    held = {n for n, *_ in trial.blocks}
    assert held == set(range(max(held) + 1)) and max(held) < fb.n_max
    assert all(G.any() for *_, G in trial.blocks)
    # a stored sector keeps every class block of the layout
    assert [(n, rows.tolist()) for n, rows, _ in trial.blocks] \
        == [(n, rows.tolist()) for n, rows, _ in gibbs.blocks if n in held]
    calls = []
    eigh = fock.eigh

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(fock, "eigh", counting)
    got = gl.relative_entropy(trial, free)
    assert len(calls) == len(trial.blocks)
    want = oracles.relative_entropy_dense(trial.to_dense(), np.diag(free.p))
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


@pytest.mark.filterwarnings("ignore::gibbslab.semiclassics.TailWarning")
def test_missing_sectors_read_as_zero_blocks(basis_k2, tensor_k2):
    # every sample's reach stops below n_max
    fb = gl.build_fock_basis(2, 36)
    layout = _layout(fb, basis_k2, tensor_k2)
    ens = gl.reweight(gl.sample_free(basis_k2, 300, seed=12), tensor_k2)
    trial = gl.trial_state(ens, 2.0, fb, layout)
    full = oracles.padded(trial, layout)
    assert max(n for n, *_ in trial.blocks) < fb.n_max
    assert len(full.blocks) == len(layout) > len(trial.blocks)
    free = _free(fb, basis_k2, 10.0)
    assert gl.relative_entropy(trial, free) == gl.relative_entropy(full, free)
    for k in (1, 2, 3):
        assert gl.reduced_density_matrix(trial, k).entries.tobytes() \
            == gl.reduced_density_matrix(full, k).entries.tobytes()
    assert trial.sector_probabilities().tobytes() \
        == full.sector_probabilities().tobytes()
    assert trial.to_dense().tobytes() == full.to_dense().tobytes()
    rng = np.random.default_rng(5)
    vs = 4.0 * (rng.standard_normal((40, 2)) + 1j * rng.standard_normal((40, 2)))
    assert semiclassics._husimi([trial], 1.0, vs)[0].tobytes() \
        == semiclassics._husimi([full], 1.0, vs)[0].tobytes()


def test_trial_state_warns_on_cutoff_violation(basis_k2, tensor_k2):
    ens = gl.reweight(gl.sample_free(basis_k2, 200, seed=7), tensor_k2)
    fb = gl.build_fock_basis(2, 6)
    with pytest.warns(TailWarning, match=r"\d+ of 200"):
        gl.trial_state(ens, 8.0, fb, _layout(fb, basis_k2, tensor_k2))


def test_husimi_vacuum_density():
    fb = gl.build_fock_basis(1, 8)
    vac = _number_state(fb, 0)
    pts = np.array([[0.3 + 0.4j], [1.0 + 0.0j], [0.0 + 0.0j]])
    dens = gl.husimi_density(vac, 1.0, pts)
    expect = np.exp(-np.abs(pts[:, 0]) ** 2) / math.pi
    assert np.abs(dens - expect).max() < 1e-12


def test_husimi_peaks_at_scaled_center():
    # |n> has density (pi eps)^-1 e^-nu nu^n / n!, nu = |u|^2 / eps, which
    # peaks on the circle |u|^2 = n eps
    fb = gl.build_fock_basis(1, 40)
    n, eps = 3, 0.5
    line = np.linspace(0.0, 2.5, 101)
    pts = (line * np.exp(0.7j))[:, None]
    dens = gl.husimi_density(_number_state(fb, n), eps, pts)
    nu = line**2 / eps
    expect = np.exp(-nu) * nu**n / math.factorial(n) / (math.pi * eps)
    assert np.abs(dens - expect).max() < 1e-12
    assert abs(line[np.argmax(dens)] - math.sqrt(n * eps)) < 0.05


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
        (_number_state(gl.build_fock_basis(1, 30), 2), 1.0, 8.0),
    ]:
        val = oracles.husimi_normalization_quadrature(state, eps, r_max=rmax,
                                                      nr=300, ntheta=96)
        assert 0.97 <= val <= 1.001


def test_husimi_kl_importance_matches_quadrature_and_oracle():
    a = _thermal_single_mode(0.6, 50)
    b = oracles.diagonal_of(_thermal_single_mode(1.1, 50))
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


def test_husimi_kl_ess_holds_where_the_squared_weights_underflow(
        monkeypatch):
    # the state's density times 1e-200 puts every importance weight below
    # 1e-162, so its square underflows; the ESS reads the weights scaled
    # to a largest of 1 and does not move
    a = _thermal_single_mode(0.6, 50)
    b = oracles.diagonal_of(_thermal_single_mode(1.1, 50))
    want = husimi_kl_importance(a, b, 1.0, n_samples=2000, seed=11)
    husimi = semiclassics._husimi

    def dimmed(states, eps, points):
        (h, hp), reach, redo = husimi(states, eps, points)
        assert h.min() > 1e-80
        return (h * 1e-200, hp), reach, redo

    monkeypatch.setattr(semiclassics, "_husimi", dimmed)
    got = husimi_kl_importance(a, b, 1.0, n_samples=2000, seed=11)
    assert got.ess == pytest.approx(want.ess, rel=1e-12)
    assert not got.degenerate and not want.degenerate


def _kl_from_separate_densities(state, ref, eps, n_samples, seed):
    """The importance estimate of husimi_kl_importance, rebuilt from two
    husimi_density calls on the same proposal draws; ref is the reference
    as sector blocks, and its one-body marginal sets the proposal."""
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
    gibbs, _, _ = gl.gibbs_state(
        gl.build_hamiltonian(fb, basis_k2.eigenvalues, tensor_k2, 1.0 / T), T)
    free, _, _ = gl.gibbs_state(
        oracles.free_hamiltonian(fb, basis_k2.eigenvalues), T)
    # sector-block contractions of the Gibbs and a random state, each mixed
    # with the diagonal one of the reference in one estimate; the expected
    # value contracts the reference's sector blocks
    for state in (gibbs, fock.random_state(fb, 3), free):
        est = husimi_kl_importance(state, oracles.diagonal_of(free), 1.0 / T,
                                   n_samples=600, seed=4)
        expect = _kl_from_separate_densities(state, free, 1.0 / T, 600, 4)
        assert est.value == pytest.approx(expect, rel=1e-12, abs=1e-15)


def test_husimi_diagonal_state_matches_block_route(basis_k2):
    fb = gl.build_fock_basis(2, 12)
    free, _, _ = gl.gibbs_state(
        oracles.free_hamiltonian(fb, basis_k2.eigenvalues), 3.0)
    rng = np.random.default_rng(8)
    pts = 0.8 * (rng.standard_normal((40, 2)) + 1j * rng.standard_normal((40, 2)))
    eps = 0.4

    def dense_route(state):
        return oracles.husimi_dense(state.to_dense(), fb, eps, pts)

    diag = gl.husimi_density(oracles.diagonal_of(free), eps, pts)
    assert np.allclose(diag, gl.husimi_density(free, eps, pts),
                       rtol=1e-12, atol=0.0)
    assert np.allclose(diag, dense_route(free), rtol=1e-12, atol=0.0)

    # negative control: one off-diagonal entry (and its Hermitian mirror)
    M = free.to_dense()
    i, j = fb.sector_slice(3).start, fb.sector_slice(3).start + 1
    M[i, j] = M[j, i] = 0.5 * math.sqrt(M[i, i] * M[j, j])
    perturbed = oracles.pinched(M, fb)
    with pytest.raises(AssertionError, match="not diagonal"):
        oracles.diagonal_of(perturbed)
    got = gl.husimi_density(perturbed, eps, pts)
    assert np.allclose(got, dense_route(perturbed), rtol=1e-12, atol=0.0)
    # the diagonal of the two states agrees, so an O(dim) route would miss it
    assert np.max(np.abs(got - diag) / diag) > 1e-2


def _record_sector_streams(monkeypatch):
    """Every occupation_sectors stream of semiclassics, as the list of its
    (sector, first column, columns) steps."""
    streams = []
    build = semiclassics.occupation_sectors

    def recording(vs, occs, vacuum, reach):
        streams.append([])
        for n, c, A in build(vs, occs, vacuum, reach):
            streams[-1].append((n, c, A.shape[1]))
            yield n, c, A

    monkeypatch.setattr(semiclassics, "occupation_sectors", recording)
    return streams


def _spread_points(n, nu_max, seed):
    # |v|^2 spread over [0, nu_max] in shuffled order, at scale eps = 1
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    z /= np.linalg.norm(z, axis=1)[:, None]
    return z * np.sqrt(rng.uniform(0.0, nu_max, n))[:, None]


@pytest.mark.filterwarnings("ignore::gibbslab.semiclassics.TailWarning")
@pytest.mark.parametrize("reach", ["point", "full"])
def test_coherent_chunks_cover_every_point_once_in_ascending_nu(reach):
    # the one walk of trial_state and _husimi: chunks of 256 in ascending
    # nu, each sector bitwise the rows of coherent() for the chunk's points
    # that reach it
    fb = gl.build_fock_basis(2, 30)
    vs = _spread_points(700, 24.0, 3)
    nu = np.sum(np.abs(vs) ** 2, axis=1)
    per_point = {"point": semiclassics._reach(nu, fb.n_max),
                 "full": np.full(700, fb.n_max)}[reach]
    seen = []
    for idx, sectors in semiclassics._coherent_chunks(vs, nu, fb, per_point):
        assert idx.size == min(256, 700 - len(seen))
        top = per_point[idx]
        full = np.array([gl.coherent(v, fb).amplitudes for v in vs[idx]]).T
        steps = []
        for n, c, A in sectors:
            assert c == np.sum(top < n)
            assert A.tobytes() == full[fb.sector_slice(n), c:].tobytes()
            steps.append(n)
        assert steps == list(range(top[-1] + 1))
        seen += idx.tolist()
    assert sorted(seen) == list(range(700))
    assert np.all(np.diff(nu[seen]) >= 0)


@pytest.mark.filterwarnings("ignore::gibbslab.semiclassics.TailWarning")
def test_coherent_walk_builds_one_parent_table(monkeypatch, basis_k2,
                                               tensor_k2):
    # the one table is the basis's, built as it is enumerated; every chunk
    # of every walk on the basis reads it, and no walk builds another
    calls = []
    graded = gl.kernels.Recurrence.graded

    def counting(K, n):
        calls.append((K, n))
        return graded(K, n)

    monkeypatch.setattr(gl.kernels.Recurrence, "graded", counting)
    fb = gl.build_fock_basis(2, 30)
    assert calls == [(2, 30)]
    vs = _spread_points(700, 24.0, 3)
    nu = np.sum(np.abs(vs) ** 2, axis=1)
    reach = semiclassics._reach(nu, fb.n_max)
    streams = _record_sector_streams(monkeypatch)
    for _, sectors in semiclassics._coherent_chunks(vs, nu, fb, reach):
        list(sectors)
    assert len(streams) == 3 and calls == [(2, 30)]
    layout = _layout(fb, basis_k2, tensor_k2)
    calls.clear()
    gl.trial_state(_far_ensemble(600, 3), 1.0, fb, layout)
    assert len(streams) == 6 and calls == []


def test_point_reach_is_the_sector_window():
    # the table of _reach against the per-point scan of the Poisson tail,
    # over nu that span the vacuum's reach to beyond the cutoff
    rng = np.random.default_rng(11)
    n_max = 150
    nu = np.concatenate([rng.uniform(0.0, 160.0, 2900),
                         10.0 ** rng.uniform(-20.0, 0.0, 100)])
    got = semiclassics._reach(nu, n_max)
    want = [oracles.reach(x, n_max) for x in nu]
    assert got.tolist() == want
    assert got.min() < 5 and got.max() == n_max


@pytest.mark.filterwarnings("ignore::gibbslab.semiclassics.TailWarning")
def test_at_most_two_sectors_of_amplitudes_are_alive(monkeypatch, basis_k2,
                                                     tensor_k2):
    # each caller of the walk lets a sector go before it asks for the next,
    # so a stage holds two sectors of one chunk, not a chunk's prefix
    build = semiclassics.occupation_sectors
    built, alive = [], []

    def recording(vs, occs, vacuum, reach):
        for n, c, A in build(vs, occs, vacuum, reach):
            built.append(weakref.ref(A))
            alive.append(sum(ref() is not None for ref in built))
            yield n, c, A
        alive.append(None)   # end of one stream

    monkeypatch.setattr(semiclassics, "occupation_sectors", recording)
    fb = gl.build_fock_basis(2, 30)
    d = fb.sector_dim(30)
    top = fock.FockState.from_sectors(
        fb, [np.zeros((fb.sector_dim(n),) * 2) for n in range(30)]
        + [np.eye(d) / d])
    # all mass in the top sector: each point up to its reach, then the
    # full-basis redo
    gl.husimi_density(top, 1.0, _spread_points(600, 3.0, 2))
    gl.trial_state(_far_ensemble(600, 3), 1.0, fb,
                   _layout(fb, basis_k2, tensor_k2))
    assert alive.count(None) == 3 + 3 + 3
    assert len(built) > 9 * 20
    assert max(a for a in alive if a is not None) == 2


def _memory_peak(fn, *args):
    """Peak traced allocation of one call, in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.filterwarnings("ignore::gibbslab.semiclassics.TailWarning")
def test_walk_peaks_below_a_quarter_of_one_chunk_prefix(basis_k2, tensor_k2):
    # one chunk's amplitudes over the whole graded prefix are 256 * dim
    # complex numbers; the sector stream holds two sectors of them
    fb = gl.build_fock_basis(2, 120)
    chunk = 256 * fb.dim * 16
    gibbs = _gibbs(fb, basis_k2, tensor_k2, T=20.0)
    pts = _spread_points(600, 50.0, 4)
    nu_top = np.max(np.sum(np.abs(pts) ** 2, axis=1))
    assert semiclassics._reach(nu_top, fb.n_max) > 100
    assert _memory_peak(gl.husimi_density, gibbs, 1.0, pts) < chunk / 4
    rng = np.random.default_rng(6)
    ens = gl.WeightedEnsemble(pts, -rng.uniform(0.0, 2.0, 600), z_r=1.0,
                              z_r_stderr=0.0, ess=600.0, reweighted=True)
    layout = [(n, rows) for n, rows, _ in gibbs.blocks]
    assert _memory_peak(gl.trial_state, ens, 1.0, fb, layout) < chunk / 4


def test_husimi_sector_window_matches_full_basis(monkeypatch, basis_k2,
                                                 tensor_k2):
    T = 6.0
    fb = gl.build_fock_basis(2, 30)
    gibbs, _, _ = gl.gibbs_state(
        gl.build_hamiltonian(fb, basis_k2.eigenvalues, tensor_k2, 1.0 / T), T)
    free, _, _ = gl.gibbs_state(
        oracles.free_hamiltonian(fb, basis_k2.eigenvalues), T)
    pts = _spread_points(700, 9.0, 1)
    streams = _record_sector_streams(monkeypatch)
    # sector-block and diagonal states share the chunks, each point up to
    # its own reach
    h, reach, redo = semiclassics._husimi(
        [gibbs, oracles.diagonal_of(free)], 1.0, pts)
    assert len(streams) == 3 and redo.size == 0   # no fallback
    assert streams[0][-1][0] < fb.n_max
    assert [s[-1][0] for s in streams] == [reach[i].max() for i in
                                           np.array_split(np.argsort(
                                               reach, kind="stable"),
                                               [256, 512])]
    # the first chunk's top sector is built for fewer points than its vacuum
    assert streams[0][-1][2] < streams[0][0][2]
    for got, state in zip(h, [gibbs, free]):
        want = oracles.husimi_dense(state.to_dense(), fb, 1.0, pts)
        assert np.all(np.abs(got - want) <= 1e-13 * want)


@settings(max_examples=30, deadline=None)
@given(K=st.integers(1, 3), n_max=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
def test_husimi_complex_blocks_match_full_basis(K, n_max, seed):
    # dense sector blocks, the trial state's shape; half the points sit
    # near the vacuum, where a chunk drops the top sectors
    fb = gl.build_fock_basis(K, n_max)
    state = fock.random_state(fb, seed % 1000)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((600, K)) + 1j * rng.standard_normal((600, K))
    z /= np.linalg.norm(z, axis=1)[:, None]
    nu = np.concatenate([rng.uniform(0.0, n_max, 300),
                         rng.uniform(0.0, 1e-3, 300)])
    pts = z * np.sqrt(nu)[:, None]
    got = semiclassics._husimi([state], 1.0, pts)[0][0]
    want = oracles.husimi_dense(state.to_dense(), fb, 1.0, pts)
    assert np.all(np.abs(got - want) <= 1e-13 * want)


def _one_sector_state(fb, m, seed):
    """A state whose mass sits in sector m alone, as one random block."""
    rng = np.random.default_rng(seed)
    d = fb.sector_dim(m)
    M = rng.standard_normal((d, d))
    return fock.FockState.from_sectors(
        fb, [M @ M.T / np.trace(M @ M.T) if n == m
             else np.zeros((fb.sector_dim(n),) * 2)
             for n in range(fb.n_max + 1)])


@pytest.mark.parametrize("short", [False, True])
def test_husimi_point_reach_against_the_dense_oracle(monkeypatch, short):
    # all mass in sector 12: the points whose reach is 12 keep it in their
    # last sector. Negative control: a stream one sector short of each
    # point's reach (the fallback bound still reads the true reach) drops
    # that mass and fails the oracle there.
    fb = gl.build_fock_basis(2, 30)
    state = _one_sector_state(fb, 12, 4)
    pts = _spread_points(600, 0.5, 7)
    reach = semiclassics._reach(np.sum(np.abs(pts) ** 2, axis=1), fb.n_max)
    at_top = reach == 12
    assert at_top.sum() > 10
    if short:
        build = semiclassics.occupation_sectors

        def one_short(vs, occs, vacuum, reach):
            return build(vs, occs, vacuum, np.maximum(reach - 1, 0))

        monkeypatch.setattr(semiclassics, "occupation_sectors", one_short)
    got = semiclassics._husimi([state], 1.0, pts)[0][0]
    want = oracles.husimi_dense(state.to_dense(), fb, 1.0, pts)
    assert np.all(want > 0.0)
    err = np.abs(got - want) > 1e-13 * want
    if short:
        assert np.all(err[at_top])
    else:
        assert not err.any()


def test_husimi_sector_window_falls_back_on_top_sector_mass(monkeypatch):
    # negative control: all mass in the top sector, beyond every point's reach
    fb = gl.build_fock_basis(2, 30)
    rng = np.random.default_rng(5)
    d = fb.sector_dim(30)
    M = rng.standard_normal((d, d))
    blocks = [np.zeros((fb.sector_dim(n),) * 2) for n in range(30)]
    top = fock.FockState.from_sectors(
        fb, blocks + [M @ M.T / np.trace(M @ M.T)])
    pts = _spread_points(300, 3.0, 2)
    streams = _record_sector_streams(monkeypatch)
    got = gl.husimi_density(top, 1.0, pts)
    # reaches below the top sector, then every point over the full basis
    assert streams[0][-1][0] < fb.n_max
    assert streams[-1][-1][:2] == (fb.n_max, 0)
    want = oracles.husimi_dense(top.to_dense(), fb, 1.0, pts)
    assert np.all(want > 0.0)
    assert np.all(np.abs(got - want) <= 1e-13 * want)


def test_kl_estimate_counts_fallback_points_and_reach():
    # top-sector mass: points whose reach stops below n_max are recomputed
    # over the full basis, and the estimate counts them; a thermal state
    # needs none
    fb = gl.build_fock_basis(2, 30)
    d = fb.sector_dim(30)
    top = fock.FockState.from_sectors(
        fb, [np.zeros((fb.sector_dim(n),) * 2) for n in range(30)]
        + [np.eye(d) / d])
    ref = oracles.diagonal_of(_thermal_state(fb, 1.0))
    for state, none in ((top, False), (_thermal_state(fb, 1.0), True)):
        est = husimi_kl_importance(state, ref, 1.0, n_samples=300, seed=3)
        rng = np.random.default_rng(3)
        var = ref.basis.occupations.T @ ref.p + 1.0
        z = rng.standard_normal((300, 4))
        u = (z[:, :2] + 1j * z[:, 2:]) * np.sqrt(var / 2.0)
        _, reach, redo = semiclassics._husimi([state, ref], 1.0, u)
        assert est.fallback_points == redo.size
        assert (est.fallback_points == 0) == none
        assert est.n_hi == (reach.min(), np.median(reach), reach.max())
        assert reach.min() < reach.max() <= fb.n_max


def test_berezin_lieb_rejects_equal_dim_different_bases():
    a = fock.random_state(gl.build_fock_basis(2, 3), 0)
    b = fock.DiagonalState(gl.build_fock_basis(3, 2), np.full(10, 0.1))
    assert a.basis.dim == b.basis.dim
    with pytest.raises(ValueError, match="different bases"):
        husimi_kl_importance(a, b, 1.0, n_samples=100)
    with pytest.raises(ValueError, match="different bases"):
        gl.berezin_lieb_gap(a, b, 1.0, n_samples=100)


def test_husimi_kl_needs_ten_samples():
    a = _thermal_single_mode(0.8, 40)
    with pytest.raises(ValueError, match="at least 10 samples"):
        husimi_kl_importance(a, oracles.diagonal_of(a), 1.0, n_samples=9)
    husimi_kl_importance(a, oracles.diagonal_of(a), 1.0, n_samples=10)


def test_berezin_lieb_gap_equal_states():
    a = _thermal_single_mode(0.8, 40)
    res = gl.berezin_lieb_gap(a, oracles.diagonal_of(a), 1.0, n_samples=4000,
                              seed=1)
    assert abs(res.quantum) < 1e-10
    assert abs(res.classical) < 5e-3
    assert abs(res.gap) < 5e-3


def test_berezin_lieb_gap_thermal_pair():
    a = _thermal_single_mode(0.5, 50)
    b = oracles.diagonal_of(_thermal_single_mode(1.0, 50))
    res = gl.berezin_lieb_gap(a, b, 1.0, n_samples=20000, seed=2)
    assert abs(res.quantum - oracles.geometric_kl(0.5, 1.0)) < 1e-8
    quad = oracles.husimi_kl_quadrature(a, b, 1.0, r_max=9.0, nr=400,
                                        ntheta=128)
    assert abs(res.classical - quad) < max(4 * res.classical_stderr, 2e-3)
    assert res.gap > 0
