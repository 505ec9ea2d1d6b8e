"""The numpy kernel of the Schwarz-Christoffel route's innermost loop.

``gap_moment_sums`` (the gap moment integrals) lives in its own module so
that callers reach it through the module attribute
(``_kernels.gap_moment_sums``), where the benchmark's tracer hooks in; its
leading positional arguments (endpoints, first gap, m) are what the tracer
reads, which is why a call covers a half-open range of gaps rather than an
arbitrary set of them.  One call evaluates every gap of the range at one
ladder level in a fixed handful of array operations plus one
multiplication per power, so the fixed cost of each numpy call is paid
once per range instead of once per gap.  The nodes are the
Chebyshev-Lobatto nodes that ``special._lobatto_nodes`` caches per
interval count, and each call returns both the rule it was asked for and
the nested rule of half as many intervals, the pair a convergence test
compares.
"""

from __future__ import annotations

import numpy as np

from .special import _lobatto_nodes


def gap_moment_sums(endpoints: np.ndarray, gap: int, m: int, jmax: int,
                    stop: int | None = None) -> np.ndarray:
    """Chebyshev-Lobatto sums of the gap moment integrals, at m and m/2 intervals.

    For each gap g in [gap, stop) (``stop`` defaults to gap + 1), the gap
    (lo, hi) between components g and g + 1 of the interval union with
    flat ``endpoints`` [a_1, b_1, ..., a_n, b_n], returns sums of

        S_j = integral over (lo, hi) of t^j / sqrt(q(t)) dt,   j = 0..jmax,

    where q(t) is the product of (t - e) over all endpoints, as a
    (2, stop - gap, jmax + 1) array: row 0 for the m-interval rule, row 1
    for the m/2-interval rule, a line per gap.  The two singular factors at
    lo and hi are absorbed into the Chebyshev weight; the rule sums the
    remaining smooth part at the m + 1 Lobatto nodes cos(k pi / m), with
    half weight at the two ends.  The m-interval rule is exact when the
    smooth part pulled back to [-1, 1] is a polynomial of degree < 2m; the
    m/2-interval rule uses the even-indexed nodes of the same table (m must
    be even) and is exact below degree m.  Every gap gets the roundings it
    would get alone: the endpoint factors multiply in endpoint order, power
    j + 1 is power j times t, and each sum runs along a contiguous row.
    """
    endpoints = np.asarray(endpoints, dtype=float)
    lo_i = 2 * np.arange(gap, gap + 1 if stop is None else stop) + 1
    lo, hi = endpoints[lo_i, None], endpoints[lo_i + 1, None]
    t = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _lobatto_nodes(m)
    # each gap's other endpoints, in order, a column per gap
    k = np.arange(endpoints.size - 2)[:, None]
    others = endpoints[k + 2 * (k >= lo_i)]
    # q(t) restricted to the non-singular factors is negative on the gap
    w = -np.multiply.reduce(t - others[:, :, None], axis=0)
    # one multiplication per power: an accumulate down axis 0 would run as a
    # short strided loop per node, several times slower
    table = np.empty((jmax + 1, *t.shape))
    table[0] = 1.0 / np.sqrt(w)
    table[0, :, ::m] *= 0.5
    for j in range(jmax):
        np.multiply(table[j], t, out=table[j + 1])
    out = np.empty((2, lo_i.size, jmax + 1))
    out[0] = np.add.reduce(table, axis=2).T
    out[1] = np.add.reduce(table[:, :, ::2], axis=2).T
    out[0] *= np.pi / m
    out[1] *= 2.0 * np.pi / m
    return out
