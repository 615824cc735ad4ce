import dataclasses
import math
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gibbslab as gl
from gibbslab.classical import (_CHUNK, f_nl_batch, free_moments,
                                moment_matrix_blocks, moments_to_csv,
                                ensemble_to_csv)
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
    bounds = np.linspace(0, n, n_blocks + 1).astype(int)
    for k, (full, blocks) in out.items():
        want = gl.moment_matrix(ens, k)
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
    for full, blocks in moment_matrix_blocks(ens, 3, n_blocks=5).values():
        _assert_exactly_hermitian(full.entries)
        for b in blocks:
            _assert_exactly_hermitian(b)


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
def test_moments_match_dense_weighted_sums(K):
    # the rank updates of sqrt(w) A_k, times k!, against sum_s w_s S_s S_s^H
    ens = _weighted_ensemble(K, 300, seed=40 + K)
    for k in (1, 2, 3):
        want, want_se = oracles.dense_moments(ens.coeffs, ens.log_weights, k)
        got, se = gl.moment_matrix(ens, k, with_stderr=True)
        scale = np.abs(want).max()
        assert np.abs(got.entries - want).max() <= 1e-13 * scale
        assert np.abs(se - want_se).max() <= 1e-13 * want_se.max()


@pytest.mark.parametrize("blocks", [False, True])
def test_moment_pass_peak_memory_is_bounded_by_one_chunk(blocks):
    # the pass holds one amplitude chunk of the graded set 0..3 at K=5
    # (56 rows), reused and scaled in place, and temporaries far smaller;
    # the block pass runs its blocks in turn over that one chunk
    ens = _weighted_ensemble(5, 50_000, seed=8)
    chunk = 56 * _CHUNK * 16
    tracemalloc.start()
    try:
        if blocks:
            moment_matrix_blocks(ens, 3, n_blocks=5)
        else:
            gl.moment_matrix(ens, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * chunk


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
        gl.moment_matrix(ens, k_max)


def test_streamed_pass_takes_any_sample_count_its_chunks_hold(
        dirichlet_op, delta_kernel, monkeypatch):
    # the pass holds one chunk of amplitudes whatever the sample count, so
    # 12M samples at K=5 and k_max 3 (dim 35) pass the memory check; the
    # free stream raises before a single sample is drawn
    basis = gl.eigendecompose(dirichlet_op, 5)
    tensor = gl.interaction_elements(basis, delta_kernel)

    class Drawn(Exception):
        pass

    def no_stream(*args):
        raise Drawn

    monkeypatch.setattr(gl.classical, "_free_stream", no_stream)
    with pytest.raises(Drawn):
        gl.classical.sample_measure(basis, tensor, 12_000_000, 3, k_max=3,
                                    keep=0)
    with pytest.raises(ValueError, match="dim 5985 too large"):
        gl.classical.sample_measure(basis, tensor, 12_000_000, 3, k_max=17,
                                    keep=0)


def test_pool_size_does_not_change_the_bits(basis_k3, tensor_k3,
                                            monkeypatch):
    # each block is computed as on one thread and the blocks are summed in
    # order; 7 blocks of 3 _CHUNK + 5 rows put no block edge on a chunk
    # edge, and a short switch interval interleaves the two threads finely
    n, keep = 3 * _CHUNK + 5, 3600
    got = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 3):
            monkeypatch.setattr(gl.classical, "_workers", lambda: workers)
            threads = threading.active_count()
            got[workers] = gl.classical.sample_measure(
                basis_k3, tensor_k3, n, 21, k_max=3, keep=keep, n_blocks=7)
            assert threading.active_count() == threads
    finally:
        sys.setswitchinterval(interval)
    one, three = got[1], got[3]
    assert (one.z_r, one.z_r_stderr, one.ess) \
        == (three.z_r, three.z_r_stderr, three.ess)
    assert one.head.coeffs.tobytes() == three.head.coeffs.tobytes()
    assert one.head.log_weights.tobytes() == three.head.log_weights.tobytes()
    for k, (full, blocks) in one.moments.items():
        full_three, blocks_k = three.moments[k]
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
    assert ("gibbslab.classical.sample_measure", caller) in public
    assert {thread for _, thread in public} == {caller}
    assert private and caller not in private


def _count_tables(monkeypatch):
    """The (K, n) of every parent table the classical module builds, which
    it does through its own Recurrence name."""
    calls = []
    graded = gl.kernels.Recurrence.graded

    def counting(K, n):
        calls.append((K, n))
        return graded(K, n)

    monkeypatch.setattr(gl.classical, "Recurrence",
                        types.SimpleNamespace(graded=counting))
    return calls


def test_one_parent_table_per_pass(monkeypatch, basis_k3, tensor_k3):
    # every chunk, block and worker of a pass reads the one table the
    # calling thread built
    ens = gl.sample_free(basis_k3, 3 * _CHUNK + 5, seed=2)
    calls = _count_tables(monkeypatch)
    weighted = gl.reweight(ens, tensor_k3)
    assert calls == [(3, 2)]
    moment_matrix_blocks(weighted, 3, n_blocks=5)
    assert calls == [(3, 2), (3, 3)]
    # the streamed pass: one table for its moments, one for its F_NL
    del calls[:]
    gl.classical.sample_measure(basis_k3, tensor_k3, 3 * _CHUNK + 5, 2,
                                k_max=3, keep=4, n_blocks=5)
    assert calls == [(3, 3), (3, 2)]


def _plain_weights(coeffs, tensor):
    """F_NL of every row from the raw tensor entries, and the plain z_r,
    its standard error and the ESS of the weights exp(-F_NL)."""
    F = oracles.f_nl_entries(coeffs, tensor.entries)
    w = np.exp(-F)
    stats = (w.mean(), w.std(ddof=1) / math.sqrt(w.size),
             w.sum() ** 2 / np.sum(w**2))
    return F, stats


def test_streamed_pass_matches_the_held_ensemble(basis_k3, tensor_k3):
    # the held ensemble of one numpy draw, with F_NL, the weights and the
    # moments of every block from plain numpy (one einsum and dense outer
    # products); 7 blocks of 3 _CHUNK + 5 rows put no block edge on a chunk
    # edge, and the kept rows cross the first block edge
    n, keep = 3 * _CHUNK + 5, 3600
    coeffs = oracles.sample_free_one_shot(basis_k3, n, seed=23)
    F, stats = _plain_weights(coeffs, tensor_k3)
    got = gl.classical.sample_measure(basis_k3, tensor_k3, n, 23, k_max=3,
                                      keep=keep, n_blocks=7)
    assert np.allclose((got.z_r, got.z_r_stderr, got.ess), stats,
                       rtol=1e-12, atol=0.0)
    assert got.head.coeffs.tobytes() == coeffs[:keep].tobytes()
    assert np.abs(got.head.log_weights + F[:keep]).max() <= 1e-12 * F.max()
    assert sorted(got.moments) == [1, 2, 3]
    bounds = np.linspace(0, n, 8).astype(int)
    for k, (full, blocks) in got.moments.items():
        want, _ = oracles.dense_moments(coeffs, -F, k)
        scale = np.abs(want).max()
        assert np.abs(full.entries - want).max() <= 1e-12 * scale
        assert np.array_equal(full.occupations, oracles.colex_sector(3, k))
        assert len(blocks) == 7
        for lo, hi, got_block in zip(bounds[:-1], bounds[1:], blocks):
            part, _ = oracles.dense_moments(coeffs[lo:hi], -F[lo:hi], k)
            assert np.abs(got_block - part).max() <= 1e-12 * scale


def test_streamed_head_describes_its_own_rows(basis_k3, tensor_k3):
    got = gl.classical.sample_measure(basis_k3, tensor_k3, 2000, 5,
                                      k_max=0, keep=300)
    coeffs = oracles.sample_free_one_shot(basis_k3, 300, seed=5)
    F, stats = _plain_weights(coeffs, tensor_k3)
    assert got.moments == {}
    assert got.head.reweighted and got.head.n == 300
    assert got.head.coeffs.tobytes() == coeffs.tobytes()
    head = (got.head.z_r, got.head.z_r_stderr, got.head.ess)
    assert np.allclose(head, stats, rtol=1e-12, atol=0.0)
    assert not np.isclose(got.ess, stats[2], rtol=1e-6)
    assert gl.classical.sample_measure(basis_k3, tensor_k3, 200, 5, k_max=1,
                                       keep=0, n_blocks=2).head is None


def test_streamed_pass_refuses_a_negative_energy_at_its_block(
        basis_k3, tensor_k3, monkeypatch):
    # the refusal of reweight, raised when the first block is collected:
    # with at most two blocks in flight, no third block is drawn or gathered
    flipped = gl.TwoBodyTensor.with_parity(-tensor_k3.entries,
                                           tensor_k3.parity)
    with pytest.raises(ValueError, match="kernel is not defocusing"):
        gl.reweight(gl.sample_free(basis_k3, 100, seed=3), flipped)
    drawn, gathered = [], []
    stream, block = gl.classical._free_stream, gl.classical._measure_block

    def counting_stream(*args):
        fill = stream(*args)

        def counting_fill(out):
            drawn.append(out.shape[0])
            fill(out)
        return counting_fill

    def counting_block(*args):
        gathered.append(args[0].shape[0])
        return block(*args)

    monkeypatch.setattr(gl.classical, "_free_stream", counting_stream)
    monkeypatch.setattr(gl.classical, "_measure_block", counting_block)
    for workers in (1, 2):
        monkeypatch.setattr(gl.classical, "_workers", lambda: workers)
        del drawn[:], gathered[:]
        with pytest.raises(ValueError, match="^negative interaction energy: "
                           "kernel is not defocusing$"):
            gl.classical.sample_measure(basis_k3, flipped, 4000, 3, k_max=2,
                                        keep=10, n_blocks=10)
        assert 1 <= len(gathered) <= len(drawn) <= 2


def test_streamed_side_peak_memory_is_bounded_by_blocks_and_chunks(
        monkeypatch):
    # the sweep's classical side holds F_NL (8 B a sample), at most two
    # blocks of coefficients and one amplitude chunk of the graded set
    # 0..3 at K=5 (56 rows) per busy worker, never the (n, K) ensemble
    n = 400_000
    cfg = dataclasses.replace(parse_config(_SIDE_CONFIG), K=5, k_max=3,
                              mc_samples=n, trial_subsample=512)
    basis = gl.eigendecompose(gl.build_operator(cfg.spec), cfg.K)
    tensor = gl.interaction_elements(basis, cfg.kernel)
    chunk = 56 * _CHUNK * 16
    block = n // gl.classical.N_BLOCKS * cfg.K * 16
    for workers in (1, 2):
        monkeypatch.setattr(gl.classical, "_workers", lambda: workers)
        tracemalloc.start()
        try:
            _classical_side(cfg, basis, tensor)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n + (workers + 1.5) * chunk + 2 * block


def test_ess_reads_the_weights_scaled_to_a_largest_of_one():
    # z_r and its stderr are those of w = exp(-F); the ESS is that of w,
    # and stays so where every w^2 underflows (the plain sums read 0/0)
    F = np.random.default_rng(3).exponential(2.0, 5000)
    z, stderr, ess = gl.classical._weight_statistics(F)
    w = np.exp(-F)
    assert z == float(w.mean()) and stderr == float(w.std(ddof=1) / 5000**0.5)
    assert ess == pytest.approx(w.sum() ** 2 / np.sum(w**2), rel=1e-12)
    far = F + 400.0
    with np.errstate(invalid="ignore"):
        assert np.isnan(np.exp(-far).sum() ** 2 / np.sum(np.exp(-far) ** 2))
    z_far, _, ess_far = gl.classical._weight_statistics(far)
    assert 0.0 < z_far < 1e-162
    assert ess_far == pytest.approx(ess, rel=1e-12)


def _buffers(outs: list) -> list:
    """One array per distinct memory block the arrays outs were written in."""
    found = []
    for out in outs:
        if not any(np.shares_memory(out, b) for b in found):
            found.append(out)
    return found


def _recording_products(monkeypatch) -> list:
    """The out arrays of every classical._products call, in call order;
    holding them keeps each buffer alive, so no address is reused."""
    outs, products = [], gl.classical._products

    def recording(vs, rec, vacuum, out):
        outs.append(out)
        return products(vs, rec, vacuum, out)

    monkeypatch.setattr(gl.classical, "_products", recording)
    return outs


def test_streamed_pass_writes_every_chunk_into_one_buffer_per_thread(
        dirichlet_op, delta_kernel, monkeypatch):
    # K=5, k_max=3, 10 blocks of chunk + 100 rows: a full and a short chunk
    # per block, for the F_NL pass (21 rows) and the moment pass (56 rows),
    # all written into one buffer per pool thread (chunks of 1000 rows keep
    # the pass small)
    basis = gl.eigendecompose(dirichlet_op, 5)
    tensor = gl.interaction_elements(basis, delta_kernel)
    chunk = 1000
    monkeypatch.setattr(gl.classical, "_CHUNK", chunk)
    outs = _recording_products(monkeypatch)
    for workers in (1, 2):
        monkeypatch.setattr(gl.classical, "_workers", lambda: workers)
        del outs[:]
        gl.classical.sample_measure(basis, tensor, 10 * (chunk + 100), 3,
                                    k_max=3, keep=0, n_blocks=10)
        assert sorted(out.shape for out in outs) == sorted(10 * [
            (21, chunk), (21, 100), (56, chunk), (56, 100)])
        assert len(_buffers(outs)) == workers


def test_held_passes_write_every_chunk_into_one_buffer(monkeypatch,
                                                       tensor_k3):
    # two full chunks and a short one, or two blocks of a full chunk and a
    # short one each, in one buffer per call on the calling thread
    ens = _weighted_ensemble(3, 2 * _CHUNK + 5, seed=4)
    outs = _recording_products(monkeypatch)
    half = (2 * _CHUNK + 5) // 2 - _CHUNK
    for call, widths in (
            (lambda: gl.moment_matrix(ens, 3), [_CHUNK, _CHUNK, 5]),
            (lambda: gl.moment_matrix(ens, 2, with_stderr=True),
             [_CHUNK, _CHUNK, 5]),
            (lambda: f_nl_batch(ens.coeffs, tensor_k3), [_CHUNK, _CHUNK, 5]),
            (lambda: moment_matrix_blocks(ens, 3, n_blocks=2),
             [_CHUNK, half, _CHUNK, half + 1])):
        del outs[:]
        call()
        assert [out.shape[1] for out in outs] == widths
        assert len(_buffers(outs)) == 1


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
