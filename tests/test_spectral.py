import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gibbslab as gl

import oracles


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
    defect = b1.orthonormality_defect()
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
    assert basis_k3.orthonormality_defect() < 1e-8
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
    assert tensor_k2.hermiticity_defect() < 1e-12
    assert tensor_k2.boson_symmetry_defect() < 1e-12


def test_zero_kernel_gives_zero_tensor(basis_k2):
    t = gl.interaction_elements(basis_k2, gl.InteractionKernel.delta(0.0))
    assert not np.any(t.entries)


def test_constant_bounded_kernel_is_separable(basis_k3):
    c = 2.5
    n = basis_k3.grid.n
    t = gl.interaction_elements(basis_k3, gl.InteractionKernel.bounded(
        np.full(n, c)))
    K = basis_k3.K
    eye = np.eye(K)
    expected = c * np.einsum("ik,jl->ijkl", eye, eye)
    assert np.abs(t.entries - expected).max() < 1e-10


@settings(max_examples=15, deadline=None)
@given(st.floats(0.0, 3.0), st.floats(0.05, 0.8))
def test_bounded_kernel_tensor_symmetries(g, width):
    spec = gl.OneBodySpec.interval("dirichlet", m=1.0, grid_points=128)
    basis = gl.eigendecompose(gl.build_operator(spec), 2)
    kern = gl.KernelSpec("gaussian", g=g, width=width).realize(basis.grid)
    t = gl.interaction_elements(basis, kern)
    assert t.hermiticity_defect() < 1e-12
    assert t.boson_symmetry_defect() < 1e-12
    assert np.isrealobj(t.entries)


def test_negative_kernel_rejected():
    with pytest.raises(ValueError):
        gl.InteractionKernel.delta(-1.0)
    with pytest.raises(ValueError):
        gl.InteractionKernel.bounded([-0.1, 0.2])


def test_basis_csv_dump(tmp_path, basis_k2):
    path = tmp_path / "spectrum.csv"
    gl.spectral.basis_to_csv(basis_k2, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("j,lambda_j,")
    assert len(lines) == 1 + basis_k2.K
    lam1 = float(lines[1].split(",")[1])
    assert lam1 == basis_k2.eigenvalues[0]
