"""Dense reference builders: the weight matrix and its delay slices as n x n
arrays, the way `dtacopt` built them before it held the weights on the
graph's link arrays.

`column_stochastic_weights` scatters `w[src]` into a dense C and fills its
diagonal with `w`; `delay_slices` checks a delay map against C's
off-diagonal nonzeros with whole-array operations and raises the package's
domain error word for word.  `test_weight_arrays.py` requires the array forms
to match them bit for bit.
"""

from __future__ import annotations

import numpy as np

from dtacopt.graphs import is_strongly_connected


def column_stochastic_weights(g, require_strong: bool = True) -> np.ndarray:
    """C[i, j] = 1 / (1 + outdeg(j)) on each link j -> i and on the diagonal."""
    if g.n < 2:
        raise ValueError("weight design needs n >= 2")
    if require_strong and not is_strongly_connected(g):
        raise ValueError("weight design requires a strongly connected digraph")
    senders, receivers = g.src[g.links], g.dst[g.links]
    w = 1.0 / (1.0 + np.bincount(senders, np.ones(len(senders)), g.n))
    C = np.zeros((g.n, g.n))
    C[receivers, senders] = w[senders]
    np.fill_diagonal(C, w)
    return C


def delay_slices(M: np.ndarray, d) -> np.ndarray:
    """Move each off-diagonal nonzero of M into the slice of its link's
    delay, the diagonal into slice 0.  The map's links must lie inside M, be
    nonzeros of M, and be as many as M's off-diagonal nonzeros."""
    n = M.shape[0]
    try:
        at = np.ravel_multi_index((d.dst[d.links], d.src[d.links]), M.shape)
    except ValueError:  # a link outside 0..n-1
        raise domain_error(M, d) from None
    weights = M.ravel()[at]
    off_diagonal = np.count_nonzero(M) - np.count_nonzero(M.diagonal())
    if np.count_nonzero(weights) != len(at) or len(at) != off_diagonal:
        raise domain_error(M, d)
    slices = np.zeros((d.tau_max + 1, n, n))
    np.fill_diagonal(slices[0], M.diagonal())
    slices.reshape(d.tau_max + 1, -1)[d.delay[d.links], at] = weights
    return slices


def domain_error(M: np.ndarray, d) -> ValueError:
    pattern = {(j, i) for i, j in zip(*np.nonzero(M)) if i != j}
    mapped = {e for e in d.tau if e[0] != e[1]}
    missing = sorted(pattern - mapped)[:5]
    spurious = sorted(mapped - pattern)[:5]
    return ValueError(
        "delay map domain does not match the matrix pattern "
        f"(unmapped links {missing}, mapped non-links {spurious})"
    )
