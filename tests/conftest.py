import numpy as np
import pytest


@pytest.fixture
def same_span():
    """Whether two subspaces have the same dimension and their orthogonal
    projectors differ by at most tol in every entry."""
    def same(a, b, tol=1e-8):
        return a.dim == b.dim and np.abs(a.projector() - b.projector()).max() <= tol
    return same


@pytest.fixture
def e3_gauge():
    """An (h, 2, 2) stack of level maps onto E3(lam) carried by the canonical
    automorphism a_t(X) = [[1, X S_t], [0, 1]], S_t = 1 + lam + ... +
    lam^(t-1): each first row gains X S_t times the second.  X is read from
    level 1, where a_1(X) carries the first map onto `theta1`."""
    def carry(theta, theta1, lam):
        r2 = theta[0, 1]
        x = np.vdot(r2, theta1[0] - theta[0, 0]) / np.vdot(r2, r2)
        s = np.cumsum([lam ** j for j in range(len(theta))])
        out = theta.copy()
        out[:, 0] += (x * s)[:, None] * theta[:, 1]
        return out
    return carry
