"""The numpy kernel of the Schwarz-Christoffel route's innermost loop.

``gap_moment_sums`` (the gap moment integrals) lives in its own module so
that callers reach it through the module attribute
(``_kernels.gap_moment_sums``): that attribute is where the benchmark's
tracer hooks in to count calls and nodes per gap.  That is also why the
moment kernel is called once per gap and ladder level rather than once for
all gaps.  It is vectorized over the quadrature nodes, and the cost of a
call is mostly the fixed cost of each numpy call, so it keeps that number
small: it takes a fixed handful of array operations whatever the number
of intervals and moments, with the Chebyshev-Lobatto nodes cached per
interval count, and returns both the rule it was asked for and the nested
rule of half as many intervals, so one call gives the pair a convergence
test compares.
"""

from __future__ import annotations

import functools

import numpy as np


@functools.lru_cache(maxsize=16)
def _lobatto_nodes(m: int) -> np.ndarray:
    """The m + 1 Chebyshev-Lobatto nodes cos(k pi / m), k = 0..m (shared, read-only)."""
    nodes = np.cos(np.arange(m + 1) * np.pi / m)
    nodes.flags.writeable = False
    return nodes


def gap_moment_sums(endpoints: np.ndarray, gap: int, m: int, jmax: int) -> np.ndarray:
    """Chebyshev-Lobatto sums of the gap moment integrals, at m and m/2 intervals.

    For the gap (lo, hi) between components ``gap`` and ``gap + 1`` of the
    interval union with flat ``endpoints`` [a_1, b_1, ..., a_n, b_n], returns
    a (2, jmax + 1) array of sums of

        S_j = integral over (lo, hi) of t^j / sqrt(q(t)) dt,   j = 0..jmax,

    where q(t) is the product of (t - e) over all endpoints.  The two
    singular factors at lo and hi are absorbed into the Chebyshev weight;
    the rule sums the remaining smooth part at the m + 1 Lobatto nodes
    cos(k pi / m), with half weight at the two ends.  Row 0 is that m-interval
    rule, exact when the smooth part pulled back to [-1, 1] is a polynomial
    of degree < 2m; row 1 is the m/2-interval rule on the even-indexed nodes
    of the same table (m must be even), exact below degree m.  Row j of a
    (jmax + 1, m + 1) table holds t^j / sqrt(w) at the nodes, ends halved,
    built by one cumulative product down the rows and summed along each row.
    """
    endpoints = np.asarray(endpoints, dtype=float)
    lo_i, hi_i = 2 * gap + 1, 2 * gap + 2
    lo, hi = endpoints[lo_i], endpoints[hi_i]
    t = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _lobatto_nodes(m)
    others = np.concatenate((endpoints[:lo_i], endpoints[hi_i + 1:]))
    # q(t) restricted to the non-singular factors is negative on the gap;
    # the factors multiply in endpoint order, node by node
    w = -np.multiply.reduce(t - others[:, None], axis=0)
    table = np.empty((jmax + 1, m + 1))
    table[0] = 1.0 / np.sqrt(w)
    table[0, ::m] *= 0.5
    table[1:] = t
    np.multiply.accumulate(table, axis=0, out=table)
    out = np.empty((2, jmax + 1))
    np.add.reduce(table, axis=1, out=out[0])
    np.add.reduce(table[:, ::2], axis=1, out=out[1])
    out[0] *= np.pi / m
    out[1] *= 2.0 * np.pi / m
    return out

