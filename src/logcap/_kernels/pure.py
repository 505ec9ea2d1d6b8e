"""Pure numpy implementations of the hot numerical kernels.

These mirror the compiled versions in ``_native.pyx`` and are selected at
import time when the extension is unavailable (or when LOGCAP_PURE_PYTHON
is set).  Everything here is vectorized over the quadrature nodes, and the
cost of a call is mostly the fixed cost of each numpy call, so the kernels
keep that number small: ``gap_moment_sums`` takes a fixed handful of array
operations whatever the number of intervals and moments, with the
Chebyshev nodes cached per node count.
"""

from __future__ import annotations

import functools

import numpy as np


@functools.lru_cache(maxsize=16)
def _chebyshev_nodes(m: int) -> np.ndarray:
    """The m Chebyshev-Gauss nodes cos((2r - 1) pi / 2m), r = 1..m (shared, read-only)."""
    nodes = np.cos((2.0 * np.arange(1, m + 1) - 1.0) * np.pi / (2.0 * m))
    nodes.flags.writeable = False
    return nodes


def gap_moment_sums(endpoints: np.ndarray, gap: int, m: int, jmax: int) -> np.ndarray:
    """Chebyshev-Gauss sums of the gap moment integrals.

    For the gap (lo, hi) between components ``gap`` and ``gap + 1`` of the
    interval union with flat ``endpoints`` [a_1, b_1, ..., a_n, b_n], returns

        S_j = integral over (lo, hi) of t^j / sqrt(q(t)) dt,   j = 0..jmax,

    where q(t) is the product of (t - e) over all endpoints.  The two
    singular factors at lo and hi are absorbed into the Chebyshev weight;
    the m-node rule sums the remaining smooth part.  Row j of a
    (jmax + 1, m) table holds t^j / sqrt(w) at the nodes, built by one
    cumulative product down the rows and summed along each row.
    """
    endpoints = np.asarray(endpoints, dtype=float)
    lo_i, hi_i = 2 * gap + 1, 2 * gap + 2
    lo, hi = endpoints[lo_i], endpoints[hi_i]
    t = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _chebyshev_nodes(m)
    others = np.concatenate((endpoints[:lo_i], endpoints[hi_i + 1:]))
    # q(t) restricted to the non-singular factors is negative on the gap;
    # the factors multiply in endpoint order, node by node
    w = -np.multiply.reduce(t - others[:, None], axis=0)
    table = np.empty((jmax + 1, m))
    table[0] = 1.0 / np.sqrt(w)
    table[1:] = t
    np.multiply.accumulate(table, axis=0, out=table)
    out = np.add.reduce(table, axis=1)
    out *= np.pi / m
    return out


def poly_over_sqrt_q(endpoints: np.ndarray, coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Evaluate p(t)/sqrt(q(t)) elementwise for t where q > 0.

    ``coeffs`` holds the low-order coefficients c_0..c_{n-2} of the monic
    polynomial p(t) = t^{n-1} + c_{n-2} t^{n-2} + ... + c_0.
    """
    endpoints = np.asarray(endpoints, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    t = np.asarray(t, dtype=float)
    q = np.prod(t[..., None] - endpoints, axis=-1)
    p = np.ones_like(t)
    for c in coeffs[::-1]:
        p = p * t + c
    return p / np.sqrt(q)


def skip_product(endpoints: np.ndarray, skip: int, t: np.ndarray) -> np.ndarray:
    """Product of (t - e) over all endpoints except index ``skip``."""
    endpoints = np.asarray(endpoints, dtype=float)
    t = np.asarray(t, dtype=float)
    mask = np.ones(endpoints.shape[0], dtype=bool)
    mask[skip] = False
    return np.prod(t[..., None] - endpoints[mask], axis=-1)
