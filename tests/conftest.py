import numpy as np
import pytest


@pytest.fixture
def same_span():
    """Whether two subspaces have the same dimension and their orthogonal
    projectors differ by at most tol in every entry."""
    def same(a, b, tol=1e-8):
        return a.dim == b.dim and np.abs(a.projector() - b.projector()).max() <= tol
    return same
