import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gibbslab as gl

import oracles


def _orthonormality_defect(basis):
    U = basis.eigenvectors
    return float(np.abs((U * basis.grid.weights) @ U.T
                        - np.eye(basis.K)).max())


def _tensor_defects(tensor):
    """Max deviation from W[ijkl] = conj W[klij] and from W[ijkl] = W[jilk]."""
    W = tensor.entries
    return (float(np.abs(W - np.conj(W.transpose(2, 3, 0, 1))).max()),
            float(np.abs(W - W.transpose(1, 0, 3, 2)).max()))


def test_dirichlet_stencil():
    op = gl.build_operator(gl.OneBodySpec.interval("dirichlet", m=1.0,
                                                   grid_points=512))
    dx = op.grid.dx
    assert np.allclose(op.diag, 2.0 / dx**2 + 1.0)
    assert np.allclose(op.off, -1.0 / dx**2)
    assert op.wrap == 0.0
    H = op.dense()
    assert np.allclose(H, H.T)


def test_periodic_row_sums_equal_m():
    op = gl.build_operator(gl.OneBodySpec.interval("periodic", m=1.5,
                                                   grid_points=128))
    assert np.allclose(op.dense().sum(axis=1), 1.5)


def test_anharmonic_potential_on_nodes():
    spec = gl.OneBodySpec.anharmonic_line(a=4.0, half_width=6.0, m=0.0,
                                          grid_points=256)
    op = gl.build_operator(spec)
    dx = op.grid.dx
    assert np.allclose(op.diag - 2.0 / dx**2, np.abs(op.grid.nodes) ** 4)
    assert op.grid.nodes.max() < 6.0 and 6.0**4 == 1296


@pytest.mark.parametrize("bad", [
    dict(domain="anharmonic", m=0.0, grid_points=128, a=2.0, half_width=5.0),
    dict(domain="anharmonic", m=0.0, grid_points=128, a=1.5, half_width=5.0),
    dict(domain="interval", m=0.0, grid_points=128),
    dict(domain="interval", m=-1.0, grid_points=128),
    dict(domain="interval", m=1.0, grid_points=32),
])
def test_spec_validation(bad):
    with pytest.raises(ValueError):
        gl.OneBodySpec(**bad)


def test_dirichlet_eigenvalues_match_analytic():
    op = gl.build_operator(gl.OneBodySpec.interval("dirichlet", m=1.0,
                                                   grid_points=1024))
    basis = gl.eigendecompose(op, 8)
    exact = np.array([oracles.dirichlet_eigenvalue(j) for j in range(1, 9)])
    assert np.all(np.abs(basis.eigenvalues - exact) / exact < 1e-3)


def test_grid_refinement_second_order():
    exact = np.array([oracles.dirichlet_eigenvalue(j) for j in range(1, 5)])
    errs = []
    for n in (512, 1024):
        op = gl.build_operator(gl.OneBodySpec.interval("dirichlet", m=1.0,
                                                       grid_points=n))
        lam = gl.eigendecompose(op, 4).eigenvalues
        errs.append(np.abs(lam - exact))
    ratio = errs[0] / errs[1]
    assert np.all(ratio > 3.5) and np.all(ratio < 4.5)


def test_periodic_spectrum_constant_mode_and_degeneracy():
    op = gl.build_operator(gl.OneBodySpec.interval("periodic", m=1.0,
                                                   grid_points=512))
    basis = gl.eigendecompose(op, 5)
    lam = basis.eigenvalues
    assert abs(lam[0] - 1.0) < 1e-10          # constant mode
    assert abs(lam[1] - lam[2]) < 1e-8 * lam[1]
    assert abs(lam[3] - lam[4]) < 1e-8 * lam[3]
    assert abs(lam[1] - (math.pi**2 + 1.0)) / lam[1] < 1e-3
    # constant eigenvector, positive by the sign convention
    assert np.all(basis.eigenvectors[0] > 0)
    assert np.ptp(basis.eigenvectors[0]) < 1e-10


def test_degenerate_modes_are_deterministic():
    spec = gl.OneBodySpec.interval("periodic", m=1.0, grid_points=256)
    b1 = gl.eigendecompose(gl.build_operator(spec), 5)
    b2 = gl.eigendecompose(gl.build_operator(spec), 5)
    assert np.array_equal(b1.eigenvectors, b2.eigenvectors)
    defect = _orthonormality_defect(b1)
    assert defect < 1e-8


def test_neumann_spectrum():
    op = gl.build_operator(gl.OneBodySpec.interval("neumann", m=1.0,
                                                   grid_points=1024))
    lam = gl.eigendecompose(op, 4).eigenvalues
    exact = np.array([(k * math.pi / 2) ** 2 + 1.0 for k in range(4)])
    assert np.all(np.abs(lam - exact) / exact < 1e-3)


def test_anharmonic_ground_state_vs_numerov():
    oracle = oracles.numerov_ground_state(a=4.0, L=8.0, m=0.0,
                                          bracket=(0.8, 1.3))
    assert abs(oracle - 1.060362090) < 1e-6  # sanity pin for the oracle itself
    spec = gl.OneBodySpec.anharmonic_line(a=4.0, half_width=8.0, m=0.0,
                                          grid_points=2048)
    basis = gl.eigendecompose(gl.build_operator(spec), 1)
    assert abs(basis.eigenvalues[0] - oracle) / oracle < 1e-3


def test_basis_invariants(basis_k3, dirichlet_op):
    assert basis_k3.eigenvalues[0] > 0
    assert np.all(np.diff(basis_k3.eigenvalues) >= 0)
    assert _orthonormality_defect(basis_k3) < 1e-8
    res = [np.linalg.norm(dirichlet_op.apply(v) - lam * v)
           * math.sqrt(dirichlet_op.grid.dx)
           for lam, v in zip(basis_k3.eigenvalues, basis_k3.eigenvectors)]
    assert np.all(np.array(res) <= 1e-6 * basis_k3.eigenvalues)


def test_eigendecompose_rejects_large_K(dirichlet_op):
    with pytest.raises(ValueError):
        gl.eigendecompose(dirichlet_op, dirichlet_op.n // 2)


def test_schatten_trace_against_partial_sum_oracle(dirichlet_op):
    basis = gl.eigendecompose(dirichlet_op, 8)
    res = gl.schatten_trace(basis, p=1.0)
    assert not res.divergent
    js = np.arange(1, 200001)
    terms = 1.0 / ((js * math.pi / 2) ** 2 + 1.0)
    oracle = float(terms.sum()) + 4.0 / (math.pi**2 * js[-1])
    partial_oracle = float(terms[:8].sum())
    assert abs(res.partial_sum - partial_oracle) < 1e-3 * partial_oracle
    # the integral tail over-counts the remainder, never under-counts
    assert oracle - 1e-3 <= res.value <= 1.02 * oracle


def test_schatten_divergence_flags(basis_k2):
    assert gl.schatten_trace(basis_k2, p=0.0).divergent
    assert gl.schatten_trace(basis_k2, p=0.4).divergent
    assert gl.schatten_trace(basis_k2, p=0.6).divergent is False
    op = gl.build_operator(gl.OneBodySpec.interval("periodic", m=1.0,
                                                   grid_points=128))
    per = gl.eigendecompose(op, 5)
    assert gl.schatten_trace(per, p=0.4).divergent
    assert math.isinf(gl.schatten_trace(per, p=0.4).value)


def test_schatten_monotone_in_p(basis_k3):
    vals = [gl.schatten_trace(basis_k3, p).value for p in np.linspace(1, 3, 9)]
    assert np.all(np.diff(vals) < 0)


def test_delta_tensor_cos4(basis_k2, tensor_k2):
    # lowest Dirichlet mode is cos(pi x / 2); int cos^4 over [-1, 1] is 3/4
    assert abs(tensor_k2.entries[0, 0, 0, 0] - 0.75) < 1e-6
    assert max(_tensor_defects(tensor_k2)) < 1e-12


def test_zero_kernel_gives_zero_tensor(basis_k2):
    t = gl.interaction_elements(basis_k2, gl.InteractionKernel("delta", 0.0))
    assert not np.any(t.entries)


def test_constant_bounded_kernel_is_separable(basis_k3):
    c = 2.5
    t = gl.interaction_elements(basis_k3, gl.InteractionKernel("constant", c))
    K = basis_k3.K
    eye = np.eye(K)
    expected = c * np.einsum("ik,jl->ijkl", eye, eye)
    assert np.abs(t.entries - expected).max() < 1e-10


@settings(max_examples=15, deadline=None)
@given(st.floats(0.0, 3.0), st.floats(0.05, 0.8))
def test_bounded_kernel_tensor_symmetries(g, width):
    spec = gl.OneBodySpec.interval("dirichlet", m=1.0, grid_points=128)
    basis = gl.eigendecompose(gl.build_operator(spec), 2)
    kern = gl.InteractionKernel("gaussian", g=g, width=width)
    t = gl.interaction_elements(basis, kern)
    assert max(_tensor_defects(t)) < 1e-12
    assert np.isrealobj(t.entries)


@pytest.mark.parametrize("spec", [
    gl.OneBodySpec.interval("dirichlet", m=1.0, grid_points=256),
    gl.OneBodySpec.interval("neumann", m=1.0, grid_points=256),
    gl.OneBodySpec.anharmonic_line(a=4.0, half_width=6.0, grid_points=512),
], ids=["dirichlet", "neumann", "anharmonic"])
def test_modes_alternate_in_reflection_parity(spec):
    basis = gl.eigendecompose(gl.build_operator(spec), 5)
    assert basis.parity().tolist() == [0, 1, 0, 1, 0]
    n = spec.grid_points
    assert basis.grid.reflection().tolist() == list(range(n - 1, -1, -1))


def test_periodic_modes_reflect_through_node_zero():
    spec = gl.OneBodySpec.interval("periodic", m=1.0, grid_points=512)
    basis = gl.eigendecompose(gl.build_operator(spec), 5)
    # constant, then cos/sin pairs; the reflection maps node i to -i mod n
    assert basis.parity().tolist() == [0, 0, 1, 0, 1]
    # reversing the node order instead is a shifted reflection, under which
    # the cos/sin pair at lambda = pi^2 + 1 does not classify
    U, w = basis.eigenvectors, basis.grid.weights
    plain = (U * U[:, ::-1]) @ w
    assert abs(abs(plain[1]) - 1.0) > 1e-5


def test_interaction_elements_zero_only_forbidden_noise(basis_k3):
    U, dx = basis_k3.eigenvectors, basis_k3.grid.dx
    raw = np.einsum("ix,jx,kx,lx->ijkl", U, U, U, U * dx)
    t = gl.interaction_elements(basis_k3, gl.InteractionKernel("delta", 1.0))
    p = t.parity
    forbidden = np.add.outer(np.add.outer(p, p), np.add.outer(p, p)) % 2 == 1
    assert t.parity.tolist() == [0, 1, 0]
    assert forbidden.any() and not np.any(t.entries[forbidden])
    assert np.array_equal(t.entries[~forbidden], raw[~forbidden])
    assert np.abs(raw[forbidden]).max() <= 1e-10 * np.abs(raw).max()


def test_negative_kernel_rejected():
    for name in ("delta", "constant", "gaussian"):
        with pytest.raises(ValueError, match="nonnegative"):
            gl.InteractionKernel(name, -0.1,
                                 width=0.2 if name == "gaussian" else 0.0)


@pytest.mark.parametrize("name", ["delta", "constant"])
def test_width_off_the_gaussian_kernel_rejected(name):
    # a width no kernel reads would be ignored by the run and echoed
    with pytest.raises(ValueError) as info:
        gl.InteractionKernel(name, 1.0, width=0.5)
    assert str(info.value) == "only the gaussian kernel reads a width"
    assert gl.InteractionKernel(name, 1.0, width=0.0).width == 0.0


def test_operator_that_is_not_positive_definite_rejected():
    # m = -5 pulls the quartic well's lowest level to -3.94; the free state
    # needs lambda_1 > 0, so the basis is refused instead of sampled as NaN
    spec = gl.OneBodySpec.anharmonic_line(a=4.0, half_width=6.0, m=-5.0,
                                          grid_points=256)
    with pytest.raises(ValueError) as info:
        gl.eigendecompose(gl.build_operator(spec), 2)
    assert str(info.value) == \
        "h is not positive definite: lambda_1 = -3.9399"
    # a slightly negative m with lambda_1 > 0 stays accepted
    spec = gl.OneBodySpec.anharmonic_line(a=4.0, half_width=6.0, m=-0.5,
                                          grid_points=256)
    assert gl.eigendecompose(gl.build_operator(spec), 2).eigenvalues[0] > 0


@pytest.mark.parametrize("make", [
    lambda: gl.InteractionKernel("delta", math.inf),
    lambda: gl.InteractionKernel("delta", math.nan),
    lambda: gl.InteractionKernel("gaussian", 0.1, width=math.nan),
    lambda: gl.InteractionKernel("gaussian", 0.2, width=math.inf),
    lambda: gl.OneBodySpec.interval(m=math.inf),
    lambda: gl.OneBodySpec.anharmonic_line(a=math.nan, half_width=5.0),
    lambda: gl.OneBodySpec.anharmonic_line(a=4.0, half_width=math.inf),
    lambda: gl.OneBodySpec.anharmonic_line(a=4.0, half_width=5.0,
                                           m=math.nan),
], ids=["g-inf", "g-nan", "width-nan", "width-inf", "m-inf", "a-nan",
        "half_width-inf", "anharmonic-m-nan"])
def test_non_finite_parameters_rejected(make):
    with pytest.raises(ValueError, match="finite|inf"):
        make()


def test_complex_tensor_entries_rejected(tensor_k2):
    with pytest.raises(ValueError, match="must be real"):
        gl.TwoBodyTensor(tensor_k2.entries.astype(complex))
    with pytest.raises(ValueError, match="must be real"):
        gl.TwoBodyTensor.with_parity(tensor_k2.entries.astype(complex),
                                     tensor_k2.parity)


def test_basis_csv_dump(tmp_path, basis_k2):
    path = tmp_path / "spectrum.csv"
    gl.spectral.basis_to_csv(basis_k2, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("j,lambda_j,")
    assert len(lines) == 1 + basis_k2.K
    lam1 = float(lines[1].split(",")[1])
    assert lam1 == basis_k2.eigenvalues[0]


def test_pair_matrix_is_the_sym2_restriction(tensor_k3):
    # W_2[p, q] = <e_p|W|e_q>, |e_p> the normalized sum of the distinct
    # orderings of the pair p; the matrix is rebuilt on every call, so an
    # entry changed in place moves the next one
    W = tensor_k3.entries
    pairs = [(i, j) for j in range(3) for i in range(j + 1)]  # colex
    want = np.empty((6, 6))
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            P, Q = {(i, j), (j, i)}, {(k, l), (l, k)}
            want[a, b] = sum(W[x + y] for x in P for y in Q) \
                / math.sqrt(len(P) * len(Q))
    assert np.allclose(tensor_k3.pair_matrix(), want, rtol=1e-13, atol=1e-14)
    tensor = gl.TwoBodyTensor(W.copy())
    before = tensor.pair_matrix()
    tensor.entries[0, 0, 0, 0] += 1.0
    assert tensor.pair_matrix()[0, 0] == before[0, 0] + 1.0
