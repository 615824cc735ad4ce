"""Distances between Hermitian matrices."""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigvalsh

__all__ = ["trace_norm_distance", "hs_distance"]


def trace_norm_distance(A: np.ndarray, B: np.ndarray) -> float:
    """Sum of singular values of A - B (both Hermitian), via eigenvalues."""
    return float(np.sum(np.abs(eigvalsh(A - B))))


def hs_distance(A: np.ndarray, B: np.ndarray) -> float:
    """Frobenius (Hilbert-Schmidt) norm of A - B."""
    return float(np.linalg.norm(A - B))
