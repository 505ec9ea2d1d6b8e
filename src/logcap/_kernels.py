"""The numpy kernels of the Schwarz-Christoffel route's innermost loops.

``gap_moment_sums`` (the gap moment integrals) and ``skip_product`` (the
endpoint product of the Green-function edge integrand) live in their own
module so that callers reach them through the module attribute
(``_kernels.gap_moment_sums``): that attribute is where the benchmark's
tracer hooks in to count calls and nodes per gap.  Everything here is
vectorized over the quadrature nodes, and the cost of a call is mostly the
fixed cost of each numpy call, so the kernels keep that number small:
``gap_moment_sums`` takes a fixed handful of array operations whatever the
number of intervals and moments, with the Chebyshev nodes cached per node
count.
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


def skip_product(endpoints: np.ndarray, skip: int, t: np.ndarray) -> np.ndarray:
    """Product of (t - e) over all endpoints except index ``skip``."""
    endpoints = np.asarray(endpoints, dtype=float)
    t = np.asarray(t, dtype=float)
    mask = np.ones(endpoints.shape[0], dtype=bool)
    mask[skip] = False
    return np.prod(t[..., None] - endpoints[mask], axis=-1)
