import numpy as np
import pytest

import gibbslab as gl


@pytest.fixture(scope="session")
def dirichlet_op():
    return gl.build_operator(gl.OneBodySpec.interval("dirichlet", m=1.0,
                                                     grid_points=512))


@pytest.fixture(scope="session")
def basis_k2(dirichlet_op):
    return gl.eigendecompose(dirichlet_op, 2)


@pytest.fixture(scope="session")
def basis_k3(dirichlet_op):
    return gl.eigendecompose(dirichlet_op, 3)


@pytest.fixture(scope="session")
def delta_kernel():
    return gl.InteractionKernel("delta", 1.0)


@pytest.fixture(scope="session")
def tensor_k2(basis_k2, delta_kernel):
    return gl.interaction_elements(basis_k2, delta_kernel)


@pytest.fixture(scope="session")
def tensor_k3(basis_k3, delta_kernel):
    return gl.interaction_elements(basis_k3, delta_kernel)


@pytest.fixture(scope="session")
def unit_mode_basis(basis_k2):
    """Synthetic one-mode basis with lambda_1 = 1 and a flat eigenfunction."""
    grid = basis_k2.grid
    u = np.ones((1, grid.n)) / np.sqrt(grid.n * grid.dx)
    return gl.SpectralBasis(np.array([1.0]), u, grid, basis_k2.spec)


@pytest.fixture(scope="session")
def quartic_kernel(unit_mode_basis):
    """Delta coupling tuned so F_NL = |alpha|^4 on the synthetic mode."""
    basis = unit_mode_basis
    i4 = float(np.sum(basis.eigenvectors[0] ** 4) * basis.grid.dx)
    return gl.InteractionKernel("delta", 2.0 / i4)


@pytest.fixture(scope="session")
def quartic_tensor(unit_mode_basis, quartic_kernel):
    """Pair tensor of quartic_kernel on the synthetic mode: W_1111 = 2."""
    return gl.interaction_elements(unit_mode_basis, quartic_kernel)
