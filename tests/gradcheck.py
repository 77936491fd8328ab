"""Finite-difference oracles shared by the gradient tests.

Central differences at h=1e-5 in double precision: truncation error is
O(h^2) and roundoff O(eps/h), both far below the 1e-4 tolerance the tests
assert, so the oracle stays independent of the tape it checks.  ``mul``
weights an op's output into a scalar loss on the tape.
"""

import numpy as np

from mlrf import autodiff as ad
from tests.conftest import as_tensor, unbroadcast

H = 1e-5


def numeric_grad(f, x: np.ndarray, h: float = H) -> np.ndarray:
    """Gradient of scalar-valued ``f`` at ``x`` by central differences."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f()
        flat[i] = orig - h
        down = f()
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * h)
    return g


def numeric_grad_at(f, x: np.ndarray, flat_index: int, h: float = H) -> float:
    """Central difference for a single scalar entry of ``x``."""
    flat = x.reshape(-1)
    orig = flat[flat_index]
    flat[flat_index] = orig + h
    up = f()
    flat[flat_index] = orig - h
    down = f()
    flat[flat_index] = orig
    return (up - down) / (2.0 * h)


def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-4) -> float:
    """Worst-case relative disagreement between two gradient arrays.

    Entries smaller than ``floor`` in both arrays are compared against the
    floor instead, which turns the check absolute where a true ratio would
    amplify finite-difference noise around zero.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def mul(a, b) -> ad.Tensor:
    """Elementwise product with numpy broadcasting, as a tape op."""
    a, b = as_tensor(a), as_tensor(b)

    def vjp(g):
        return (
            unbroadcast(g * b.data, a.shape),
            unbroadcast(g * a.data, b.shape),
        )

    return ad._make(a.data * b.data, (a, b), vjp)
