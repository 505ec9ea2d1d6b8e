"""The numpy kernel of the Schwarz-Christoffel route's innermost loop.

``gap_moment_sums`` (the gap moment integrals) lives in its own module so
that callers reach it through the module attribute
(``_kernels.gap_moment_sums``), where the benchmark's tracer hooks in; its
leading positional arguments (endpoints, first gap, m) are what the tracer
reads, which is why a call covers a half-open range of gaps rather than an
arbitrary set of them.  One call evaluates every gap of the range at one
ladder level in a fixed handful of array operations plus one
multiplication per power, so the fixed cost of each numpy call is paid
once per range instead of once per gap; at the first level of the ladder
one call covers every gap of a set of up to 129 intervals.  The nodes are
the Chebyshev-Lobatto nodes that ``special._lobatto_nodes`` caches per
interval count, and ``special._lobatto_weights`` caches the weights of
both rules beside them.  The gather indices of a call depend only on the
number of endpoints and the range, so ``_layout`` caches them per shape
the same way, read-only, and a call builds no index array; the gathered
values, and with them every rounding, are the same as if it did.  Each
call returns both the rule it was asked for and the nested rule of half
as many intervals, the pair a convergence test compares: one weighted dot
per row of the power table and rule, so the end-node halving and the
factors pi/m and 2 pi/m ride in the weights.  Its arrays, the
differences t - e (an endpoint by a node) and the power table (a power by
a node), grow with m; the moment ladder starts at m = 32, where nearly
every gap passes, so most calls build them at a quarter of the size they
would have at 128.  The differences are one contiguous (endpoint, gap,
node) array, filled with e along the node axis by a plain copy and then
subtracted from t in place: t - e with e broadcast along the nodes runs
one short arithmetic loop per (endpoint, gap), (2n - 2)(n - 1) of them on
n intervals, where the in-place subtraction runs one long loop per
endpoint.  Both give the same bits.
"""

from __future__ import annotations

import functools

import numpy as np

from .special import _lobatto_nodes, _lobatto_weights


@functools.lru_cache(maxsize=256)
def _layout(size: int, gap: int, stop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather indices of a call on ``size`` endpoints and gaps [gap, stop) (shared, read-only).

    The lo and hi endpoint of each gap as columns, and each gap's other
    endpoints, in order, as a column per gap.
    """
    lo_i = 2 * np.arange(gap, stop)[:, None] + 1
    k = np.arange(size - 2)[:, None]
    others = k + 2 * (k >= lo_i.T)
    layout = lo_i, lo_i + 1, others
    for a in layout:
        a.flags.writeable = False
    return layout


def gap_moment_sums(endpoints: np.ndarray, gap: int, m: int, jmax: int, stop: int) -> np.ndarray:
    """Chebyshev-Lobatto sums of the gap moment integrals, at m and m/2 intervals.

    For each gap g in [gap, stop), the gap (lo, hi) between components g
    and g + 1 of the interval union with flat ``endpoints``
    [a_1, b_1, ..., a_n, b_n], returns sums of

        S_j = integral over (lo, hi) of t^j / sqrt(q(t)) dt,   j = 0..jmax,

    where q(t) is the product of (t - e) over all endpoints, as a
    (2, stop - gap, jmax + 1) array: row 0 for the m-interval rule, row 1
    for the m/2-interval rule, a line per gap.  The two singular factors at
    lo and hi are absorbed into the Chebyshev weight; the rule sums the
    remaining smooth part at the m + 1 Lobatto nodes cos(k pi / m), with
    half weight at the two ends.  The m-interval rule is exact when the
    smooth part pulled back to [-1, 1] is a polynomial of degree < 2m; the
    m/2-interval rule weights the even-indexed nodes of the same table (m
    must be even) and is exact below degree m.  Every gap gets the
    roundings it would get alone: the endpoint factors multiply in endpoint
    order, power j + 1 is power j times t, and each sum is one dot of a
    contiguous row of the table with the rule's weights.
    """
    endpoints = np.asarray(endpoints, dtype=float)
    lo_i, hi_i, others_i = _layout(endpoints.size, gap, stop)
    lo, hi = endpoints[lo_i], endpoints[hi_i]
    t = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _lobatto_nodes(m)
    # the differences t - e: e copied along the node axis, then t subtracted
    # in place, one long loop per endpoint; t - e with e broadcast would run
    # a short arithmetic loop of m + 1 nodes per (endpoint, gap), slower
    diff = np.empty((others_i.shape[0], *t.shape))
    diff[...] = endpoints[others_i][:, :, None]
    np.subtract(t, diff, out=diff)
    # q(t) restricted to the non-singular factors is negative on the gap
    w = -np.multiply.reduce(diff, axis=0)
    # one multiplication per power: an accumulate down axis 0 would run as a
    # short strided loop per node, several times slower
    table = np.empty((jmax + 1, *t.shape))
    table[0] = 1.0 / np.sqrt(w)
    for j in range(jmax):
        np.multiply(table[j], t, out=table[j + 1])
    # one dot per (gap, power) row and rule; matmul would hand the batch to
    # BLAS gemm, whose roundings change with the number of gaps in a call
    return np.vecdot(table.transpose(1, 0, 2), _lobatto_weights(m)[:, None, None, :])
