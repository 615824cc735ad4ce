import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gibbslab as gl
from gibbslab.classical import (_CHUNK, f_nl_batch, free_moments,
                                moment_matrices, moment_matrix_blocks,
                                moments_to_csv, ensemble_to_csv)
from gibbslab.convergence import _classical_side, parse_config

import oracles


_SIDE_CONFIG = """
grid_points = 256
K = 2
T_schedule = 2.0, 4.0
k_max = 2
"""


def _single_mode_basis(lam, grid):
    u = np.ones((1, grid.n)) / np.sqrt(grid.n * grid.dx)
    return gl.SpectralBasis(np.array([lam]), u, grid, None)


def test_gaussian_second_moment(basis_k2):
    basis = _single_mode_basis(2.0, basis_k2.grid)
    ens = gl.sample_free(basis, 40000, seed=11)
    occ = np.abs(ens.coeffs[:, 0]) ** 2
    se = occ.std(ddof=1) / math.sqrt(ens.n)
    assert abs(occ.mean() - 0.5) < 4 * se


def test_gaussian_centered_and_independent(basis_k2):
    ens = gl.sample_free(basis_k2, 40000, seed=12)
    for j in range(2):
        col = ens.coeffs[:, j]
        se = col.std(ddof=1) / math.sqrt(ens.n)
        assert abs(col.mean()) < 4 * se
    cross = ens.coeffs[:, 0] * np.conj(ens.coeffs[:, 1])
    se = cross.std(ddof=1) / math.sqrt(ens.n)
    assert abs(cross.mean()) < 4 * abs(se)


def test_sampling_is_deterministic(basis_k2):
    a = gl.sample_free(basis_k2, 500, seed=9)
    b = gl.sample_free(basis_k2, 500, seed=9)
    assert np.array_equal(a.coeffs, b.coeffs)
    c = gl.sample_free(basis_k2, 500, seed=10)
    assert not np.array_equal(a.coeffs, c.coeffs)


def test_free_ensemble_fields(basis_k2):
    ens = gl.sample_free(basis_k2, 100, seed=0)
    assert not ens.reweighted
    assert ens.z_r == 1.0 and ens.ess == 100
    assert not np.any(ens.log_weights)


def test_f_nl_zero_field(basis_k2, delta_kernel):
    val = oracles.eval_F_NL(np.zeros(2, dtype=complex), basis_k2, delta_kernel)
    assert val == 0.0


def test_f_nl_single_dirichlet_mode(basis_k2):
    # F = (g/2) |alpha|^4 int u_1^4, with int u_1^4 = 3/4 for the cosine mode
    g = 2.0
    alpha = np.array([1.3 + 0.0j, 0.0])
    val = oracles.eval_F_NL(alpha, basis_k2, gl.InteractionKernel("delta", g))
    i4 = float(np.sum(basis_k2.eigenvectors[0] ** 4) * basis_k2.grid.dx)
    assert abs(val - 0.5 * g * 1.3**4 * i4) < 1e-12
    assert abs(i4 - 0.75) < 1e-6


@settings(max_examples=20, deadline=None)
@given(st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                          allow_infinity=False))
def test_f_nl_quartic_scaling(c):
    spec = gl.OneBodySpec.interval("dirichlet", m=1.0, grid_points=128)
    basis = gl.eigendecompose(gl.build_operator(spec), 2)
    kern = gl.InteractionKernel("delta", 0.7)
    alpha = np.array([0.4 - 0.2j, 0.9 + 1.1j])
    base = oracles.eval_F_NL(alpha, basis, kern)
    scaled = oracles.eval_F_NL(c * alpha, basis, kern)
    assert abs(scaled - abs(c) ** 4 * base) <= 1e-9 * max(1.0, abs(c) ** 4)


def test_quadratic_form(basis_k2):
    assert oracles.eval_quadratic_form(np.array([1.0, 0.0]), basis_k2) == \
        pytest.approx(basis_k2.eigenvalues[0])
    assert oracles.eval_quadratic_form(np.zeros(2), basis_k2) == 0.0


def test_quadratic_form_vs_grid_quadrature(basis_k2):
    rng = np.random.default_rng(4)
    alpha = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    val = oracles.eval_quadratic_form(alpha, basis_k2)
    u = alpha @ basis_k2.eigenvectors
    potential = np.full(basis_k2.grid.n, 1.0)
    oracle = oracles.forward_difference_form(u, potential, basis_k2.grid.dx)
    assert abs(val - oracle) < 1e-8 * oracle


def _f_nl_defect(coeffs, basis, kernel, tensor):
    """Largest |f_nl_batch - grid quadrature|, in units of the tolerance
    1e-9 max(1, max F) of test_batch_f_nl_matches_scalar."""
    scalar = np.array([oracles.eval_F_NL(c, basis, kernel) for c in coeffs])
    return np.abs(f_nl_batch(coeffs, tensor) - scalar).max() \
        / (1e-9 * max(1.0, scalar.max()))


def _random_fields(n, K, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, K)) + 1j * rng.standard_normal((n, K))


def test_batch_f_nl_matches_scalar(basis_k2):
    coeffs = _random_fields(16, 2, seed=5)
    kernels = [
        gl.InteractionKernel("delta", 0.8),
        gl.InteractionKernel("gaussian", 0.3, width=0.2),
    ]
    for kern in kernels:
        tensor = gl.interaction_elements(basis_k2, kern)
        assert _f_nl_defect(coeffs, basis_k2, kern, tensor) < 1.0


@pytest.mark.parametrize("entry", [(0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 1)])
def test_batch_f_nl_sees_one_perturbed_entry(basis_k2, delta_kernel,
                                             tensor_k2, entry):
    # negative control: one entry off by 1e-6 fails the quadrature match
    W = tensor_k2.entries.copy()
    W[entry] += 1e-6
    perturbed = gl.TwoBodyTensor(W, tensor_k2.parity)
    coeffs = _random_fields(16, 2, seed=5)
    assert _f_nl_defect(coeffs, basis_k2, delta_kernel, tensor_k2) < 1.0
    assert _f_nl_defect(coeffs, basis_k2, delta_kernel, perturbed) > 1.0


def test_reweight_zero_kernel_is_exact(basis_k2):
    ens = gl.sample_free(basis_k2, 1000, seed=1)
    rw = gl.reweight(ens, gl.interaction_elements(
        basis_k2, gl.InteractionKernel("delta", 0.0)))
    assert rw.z_r == 1.0 and rw.z_r_stderr == 0.0
    assert rw.reweighted and rw.ess == pytest.approx(1000)


def test_reweight_invariants(basis_k2, tensor_k2):
    ens = gl.sample_free(basis_k2, 5000, seed=2)
    rw = gl.reweight(ens, tensor_k2)
    assert np.all(rw.log_weights <= 0)
    assert 0 < rw.z_r <= 1
    assert rw.ess <= rw.n


def test_quartic_zr_matches_quadrature(unit_mode_basis, quartic_tensor):
    ens = gl.sample_free(unit_mode_basis, 100000, seed=21)
    rw = gl.reweight(ens, quartic_tensor)
    oracle = oracles.quartic_zr()
    assert abs(oracle - 0.5456) < 1e-4  # pre-build quadrature pin
    assert abs(rw.z_r - oracle) < 3 * rw.z_r_stderr


def test_moment_single_sample_is_rank_one(basis_k2):
    ens = gl.sample_free(basis_k2, 1, seed=3)
    m = gl.moment_matrix(ens, 1)
    alpha = ens.coeffs[0]
    assert np.allclose(m.entries, np.outer(alpha, alpha.conj()), atol=1e-14)


def test_moment_matrices_match_wick(basis_k3):
    ens = gl.sample_free(basis_k3, 100000, seed=6)
    lam = basis_k3.eigenvalues
    m1, se1 = gl.moment_matrix(ens, 1, with_stderr=True)
    assert np.all(np.abs(m1.entries - np.diag(1.0 / lam)) <= 5 * se1 + 1e-12)
    m2, se2 = gl.moment_matrix(ens, 2, with_stderr=True)
    # Wick oracle: E[conj(a_i a_j) a_k a_l] on the symmetric pair basis
    occs = m2.occupations
    pairs = [tuple(np.repeat(np.arange(3), row)) for row in occs]
    exact = np.zeros((len(pairs), len(pairs)))
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            norm = 1.0
            for row in (occs[a], occs[b]):
                norm *= math.sqrt(math.factorial(2)
                                  / np.prod([math.factorial(x) for x in row]))
            exact[a, b] = norm * oracles.wick_fourth_moment(lam, i, j, k, l)
    assert np.all(np.abs(m2.entries - exact) <= 5 * se2 + 1e-12)


def test_moment_diag_matches_free_closure(basis_k2):
    # diagonal of the k-th free moment is k! prod lambda_j^{-n_j}
    ens = gl.sample_free(basis_k2, 100000, seed=8)
    for k in (1, 2, 3):
        est, se = gl.moment_matrix(ens, k, with_stderr=True)
        exact = free_moments(basis_k2.eigenvalues, k)
        assert np.all(np.abs(est.entries - exact.entries) <= 5 * se + 1e-12)


def test_moment_matrix_is_hermitian_psd(basis_k2, tensor_k2):
    ens = gl.reweight(gl.sample_free(basis_k2, 3000, seed=9), tensor_k2)
    m = gl.moment_matrix(ens, 2)
    assert np.abs(m.entries - m.entries.conj().T).max() < 1e-14
    assert np.linalg.eigvalsh(m.entries).min() > -1e-12


def test_moment_budget_guard(basis_k3):
    ens = gl.sample_free(basis_k3, 10, seed=0)
    with pytest.raises(ValueError):
        gl.moment_matrix(ens, 150)  # Sym^150(C^3) is far over the budget


def test_moment_blocks_consistency(basis_k2, tensor_k2):
    ens = gl.reweight(gl.sample_free(basis_k2, 4000, seed=13), tensor_k2)
    bounds = np.linspace(0, ens.n, 9).astype(int)
    out = moment_matrix_blocks(ens, 2, n_blocks=8)
    assert sorted(out) == [1, 2]
    for k, (full, blocks) in out.items():
        assert len(blocks) == 8
        want = gl.moment_matrix(ens, k)
        assert full.k == k and np.array_equal(full.occupations,
                                              want.occupations)
        scale = np.abs(want.entries).max()
        assert np.abs(full.entries - want.entries).max() < 1e-12 * scale
        for lo, hi, got in zip(bounds[:-1], bounds[1:], blocks):
            part = dataclasses.replace(ens, coeffs=ens.coeffs[lo:hi],
                                       log_weights=ens.log_weights[lo:hi])
            assert np.array_equal(got, gl.moment_matrix(part, k).entries)


def _weighted_ensemble(K, n, seed):
    """Complex coefficients with unequal log-weights, no basis needed."""
    rng = np.random.default_rng(seed)
    coeffs = (rng.standard_normal((n, K))
              + 1j * rng.standard_normal((n, K))) / np.arange(1.0, K + 1.0)
    lw = -rng.exponential(size=n)
    return gl.WeightedEnsemble(coeffs=coeffs, log_weights=lw, z_r=1.0,
                               z_r_stderr=0.0, ess=float(n), reweighted=True)


@settings(max_examples=12, deadline=None)
@given(K=st.integers(1, 4), k_max=st.integers(1, 3),
       n=st.one_of(st.integers(8, 64),
                   st.integers(_CHUNK - 4, _CHUNK + 4),
                   st.integers(2 * _CHUNK, 3 * _CHUNK + 5)),
       n_blocks=st.integers(2, 8), seed=st.integers(0, 2**16))
def test_multi_order_moments_match_per_order(K, k_max, n, n_blocks, seed):
    ens = _weighted_ensemble(K, n, seed)
    out = moment_matrix_blocks(ens, k_max, n_blocks=n_blocks)
    assert sorted(out) == list(range(1, k_max + 1))
    whole = moment_matrices(ens, k_max)
    bounds = np.linspace(0, n, n_blocks + 1).astype(int)
    for k, (full, blocks) in out.items():
        want = gl.moment_matrix(ens, k)
        assert np.array_equal(whole[k].entries, want.entries)
        assert np.array_equal(full.occupations, want.occupations)
        scale = np.abs(want.entries).max()
        assert np.abs(full.entries - want.entries).max() < 1e-12 * scale
        for lo, hi, got in zip(bounds[:-1], bounds[1:], blocks):
            part = dataclasses.replace(ens, coeffs=ens.coeffs[lo:hi],
                                       log_weights=ens.log_weights[lo:hi])
            assert np.array_equal(got, gl.moment_matrix(part, k).entries)


def _assert_exactly_hermitian(entries):
    assert np.array_equal(entries, entries.conj().T)
    assert not np.any(entries.diagonal().imag)


def test_moments_are_exactly_hermitian():
    ens = _weighted_ensemble(4, 3 * _CHUNK + 7, seed=3)
    for k in (1, 2, 3):
        _assert_exactly_hermitian(gl.moment_matrix(ens, k).entries)
        _assert_exactly_hermitian(
            gl.moment_matrix(ens, k, with_stderr=True)[0].entries)
    for m in moment_matrices(ens, 3).values():
        _assert_exactly_hermitian(m.entries)
    for full, blocks in moment_matrix_blocks(ens, 3, n_blocks=5).values():
        _assert_exactly_hermitian(full.entries)
        for b in blocks:
            _assert_exactly_hermitian(b)


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
def test_moments_match_dense_weighted_sums(K):
    # the rank updates of sqrt(w) A_k, times k!, against sum_s w_s S_s S_s^H
    ens = _weighted_ensemble(K, 300, seed=40 + K)
    whole = moment_matrices(ens, 3)
    for k in (1, 2, 3):
        want, want_se = oracles.dense_moments(ens.coeffs, ens.log_weights, k)
        got, se = gl.moment_matrix(ens, k, with_stderr=True)
        assert np.array_equal(whole[k].entries, got.entries)
        scale = np.abs(want).max()
        assert np.abs(got.entries - want).max() <= 1e-13 * scale
        assert np.abs(se - want_se).max() <= 1e-13 * want_se.max()


@pytest.mark.parametrize("blocks", [False, True])
def test_moment_pass_peak_memory_is_bounded_by_one_chunk(blocks, monkeypatch):
    # the pass holds one amplitude chunk of the graded set 0..3 at K=5
    # (56 rows), reused and scaled in place, and temporaries far smaller;
    # the pooled block pass holds one such chunk per worker
    ens = _weighted_ensemble(5, 50_000, seed=8)
    chunk = 56 * _CHUNK * 16
    for workers in (1, 2):
        monkeypatch.setattr(gl.classical, "_workers", lambda: workers)
        tracemalloc.start()
        try:
            if blocks:
                moment_matrix_blocks(ens, 3, n_blocks=5)
            else:
                moment_matrices(ens, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= ((workers if blocks else 1) + 1.5) * chunk


@pytest.mark.parametrize("k_max", [0, 150])
def test_multi_order_refusal_precedes_amplitudes(basis_k3, monkeypatch,
                                                  k_max):
    def no_amplitudes(*args, **kwargs):
        raise AssertionError("amplitudes built before the order check")

    monkeypatch.setattr(gl.classical, "_products", no_amplitudes)
    ens = gl.sample_free(basis_k3, 10, seed=0)
    with pytest.raises(ValueError, match="moment order|too large"):
        moment_matrix_blocks(ens, k_max, n_blocks=2)
    with pytest.raises(ValueError, match="moment order|too large"):
        moment_matrices(ens, k_max)


def test_pool_size_does_not_change_the_bits(basis_k3, tensor_k3,
                                            monkeypatch):
    # the F_NL chunks keep their global cuts and the blocks their own
    # chunks, and the blocks are summed in order; three workers on a short
    # switch interval interleave them finely
    ens = gl.sample_free(basis_k3, 3 * _CHUNK + 5, seed=21)
    got = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 3):
            monkeypatch.setattr(gl.classical, "_workers", lambda: workers)
            threads = threading.active_count()
            weighted = gl.reweight(ens, tensor_k3)
            got[workers] = weighted, moment_matrix_blocks(weighted, 3,
                                                          n_blocks=7)
            assert threading.active_count() == threads
    finally:
        sys.setswitchinterval(interval)
    (one, blocks_one), (three, blocks_three) = got[1], got[3]
    assert one.log_weights.tobytes() == three.log_weights.tobytes()
    assert (one.z_r, one.z_r_stderr, one.ess) \
        == (three.z_r, three.z_r_stderr, three.ess)
    for k, (full, blocks) in blocks_one.items():
        full_three, blocks_k = blocks_three[k]
        assert full.entries.tobytes() == full_three.entries.tobytes()
        assert len(blocks) == len(blocks_k) == 7
        for a, b in zip(blocks, blocks_k):
            assert a.tobytes() == b.tobytes()


def _spy_on_public_functions(monkeypatch, modules, record):
    """Wrap every public function of modules, wherever a gibbslab module
    holds it, so each call runs record(name) first."""
    package = [m for n, m in sys.modules.items()
               if m is not None and n.startswith("gibbslab")]
    for mod in modules:
        for name in mod.__all__:
            fn = getattr(mod, name)
            if isinstance(fn, type):
                continue

            def spy(*args, _fn=fn, _name=f"{mod.__name__}.{name}",
                    **kwargs):
                record(_name)
                return _fn(*args, **kwargs)

            for m in package:
                for key in [k for k, v in vars(m).items() if v is fn]:
                    monkeypatch.setattr(m, key, spy)


def test_classical_side_calls_public_names_on_the_calling_thread(
        monkeypatch):
    # a tracer keeps one span stack, so the pool workers may call private
    # routes only; the spy on the private _products shows that the pool ran
    cfg = dataclasses.replace(parse_config(_SIDE_CONFIG), mc_samples=20_000)
    basis = gl.eigendecompose(gl.build_operator(cfg.spec), cfg.K)
    tensor = gl.interaction_elements(basis, cfg.kernel)
    monkeypatch.setattr(gl.classical, "_workers", lambda: 2)
    caller = threading.get_ident()
    public, private = set(), set()
    _spy_on_public_functions(
        monkeypatch, [gl.kernels, gl.classical],
        lambda name: public.add((name, threading.get_ident())))
    products = gl.classical._products

    def spy(*args):
        private.add(threading.get_ident())
        return products(*args)

    monkeypatch.setattr(gl.classical, "_products", spy)
    _classical_side(cfg, basis, tensor)
    assert ("gibbslab.classical.moment_matrix_blocks", caller) in public
    assert {thread for _, thread in public} == {caller}
    assert private and caller not in private


def _count_parents(monkeypatch):
    calls = []
    parents = gl.kernels._parents

    def counting(occs):
        calls.append(len(occs))
        return parents(occs)

    monkeypatch.setattr(gl.kernels, "_parents", counting)
    return calls


def test_one_parent_table_per_pass(monkeypatch, basis_k3, tensor_k3):
    ens = gl.sample_free(basis_k3, 3 * _CHUNK + 5, seed=2)
    calls = _count_parents(monkeypatch)
    weighted = gl.reweight(ens, tensor_k3)
    assert len(calls) == 1
    moment_matrix_blocks(weighted, 3, n_blocks=5)
    assert len(calls) == 2
    moment_matrices(weighted, 2)
    assert len(calls) == 3


@pytest.mark.parametrize("n", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                               3 * _CHUNK + 5])
def test_chunked_sampling_matches_one_shot_draw(basis_k3, n):
    got = gl.sample_free(basis_k3, n, seed=19).coeffs
    want = oracles.sample_free_one_shot(basis_k3, n, seed=19)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_sampling_peak_memory_is_one_ensemble(dirichlet_op):
    basis = gl.eigendecompose(dirichlet_op, 5)
    tracemalloc.start()
    try:
        ens = gl.sample_free(basis, 200_000, seed=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * ens.coeffs.nbytes


def test_mean_f_nl_single_mode(unit_mode_basis, quartic_tensor):
    res = gl.mean_F_NL_free(unit_mode_basis, quartic_tensor,
                            n_samples=50000, seed=5)
    w1111 = quartic_tensor.entries[0, 0, 0, 0]
    assert res.closed_form == pytest.approx(w1111 / 1.0**2, rel=1e-12)
    assert abs(res.mc_value - res.closed_form) < 3 * res.mc_stderr


def test_mean_f_nl_two_modes(basis_k2, tensor_k2):
    res = gl.mean_F_NL_free(basis_k2, tensor_k2, n_samples=50000, seed=7)
    assert abs(res.mc_value - res.closed_form) < 3 * res.mc_stderr


def test_mean_f_nl_zero_kernel(basis_k2):
    zero = gl.interaction_elements(basis_k2,
                                   gl.InteractionKernel("delta", 0.0))
    res = gl.mean_F_NL_free(basis_k2, zero, n_samples=100, seed=0)
    assert res.mc_value == 0.0 and res.closed_form == 0.0


def test_classical_free_energy_zero_kernel(basis_k2):
    zero = gl.interaction_elements(basis_k2,
                                   gl.InteractionKernel("delta", 0.0))
    rw = gl.reweight(gl.sample_free(basis_k2, 200, seed=1), zero)
    fe = gl.classical_relative_free_energy(rw)
    assert fe.value == 0.0
    assert fe.mean_interaction == 0.0


def test_classical_free_energy_quartic_value(unit_mode_basis, quartic_tensor):
    rw = gl.reweight(gl.sample_free(unit_mode_basis, 100000, seed=17),
                     quartic_tensor)
    fe = gl.classical_relative_free_energy(rw)
    target = -math.log(oracles.quartic_zr())
    assert abs(fe.value - target) < 3 * fe.stderr
    assert abs(fe.mean_interaction + fe.entropy_term - fe.value) < 3 * fe.stderr


def test_classical_free_energy_rejects_free_ensemble(basis_k2):
    ens = gl.sample_free(basis_k2, 10, seed=0)
    with pytest.raises(ValueError):
        gl.classical_relative_free_energy(ens)


def test_jensen_bound(basis_k2, tensor_k2):
    ens = gl.sample_free(basis_k2, 20000, seed=14)
    rw = gl.reweight(ens, tensor_k2)
    F = -rw.log_weights
    mc_mean = F.mean()
    mc_se = F.std(ddof=1) / math.sqrt(rw.n)
    assert -math.log(rw.z_r) <= mc_mean + 3 * mc_se


def test_defocusing_weights_shrink_occupancy(basis_k2, tensor_k2):
    ens = gl.sample_free(basis_k2, 50000, seed=15)
    rw = gl.reweight(ens, tensor_k2)
    h = np.sum(np.abs(ens.coeffs) ** 2, axis=1)
    wt = rw.normalized_weights()
    weighted = float(np.sum(wt * h))
    unweighted = float(h.mean())
    # batch-means error of the difference
    bounds = np.linspace(0, rw.n, 21).astype(int)
    diffs = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        wb = wt[lo:hi] / wt[lo:hi].sum()
        diffs.append(float(np.sum(wb * h[lo:hi]) - h[lo:hi].mean()))
    se = np.std(diffs, ddof=1) / math.sqrt(len(diffs))
    assert weighted <= unweighted + 3 * se


def test_free_moments_values():
    m = free_moments(np.array([2.0, 5.0]), 2)
    diag = np.real(np.diag(m.entries))
    # occupations (2,0), (1,1), (0,2) in colex order
    assert np.allclose(diag, [2 / 4, 2 / 10, 2 / 25])
    assert not np.any(m.entries - np.diag(diag))


def test_csv_exports(tmp_path, basis_k2, tensor_k2):
    ens = gl.reweight(gl.sample_free(basis_k2, 50, seed=2), tensor_k2)
    p1 = tmp_path / "ens.csv"
    ensemble_to_csv(ens, p1)
    lines = p1.read_text().splitlines()
    assert lines[0] == "sample,abs2_1,abs2_2,log_weight"
    assert len(lines) == 51
    m = gl.moment_matrix(ens, 2)
    p2 = tmp_path / "m.csv"
    moments_to_csv(m, p2)
    lines = p2.read_text().splitlines()
    assert lines[0] == "row_index,col_index,real,imag"
    assert len(lines) == 1 + m.dim**2
    assert lines[1].startswith("2|0,2|0,")
