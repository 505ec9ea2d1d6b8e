"""The former Chebyshev-Gauss gap moment ladder, kept as a test oracle.

Before the nested Chebyshev-Lobatto ladder, every gap's moments came from
m-node Chebyshev-Gauss rules, m = 64, 128, ..., each compared with the rule
before it.  These functions redo that computation bit for bit.
"""

import numpy as np

from logcap.exact import _MOMENT_CAP, _MOMENT_TOL


def gauss_gap_moment_sums(endpoints, gap, m, jmax):
    """The m-node Chebyshev-Gauss sums of the gap moments, one power at a time."""
    lo_i, hi_i = 2 * gap + 1, 2 * gap + 2
    lo, hi = endpoints[lo_i], endpoints[hi_i]
    nodes = np.cos((2.0 * np.arange(1, m + 1) - 1.0) * np.pi / (2.0 * m))
    t = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
    mask = np.ones(endpoints.shape[0], dtype=bool)
    mask[lo_i] = mask[hi_i] = False
    w = -np.prod(t[:, None] - endpoints[mask], axis=1)
    acc = 1.0 / np.sqrt(w)
    out = np.empty(jmax + 1)
    for j in range(jmax + 1):
        out[j] = acc.sum()
        acc *= t
    out *= np.pi / m
    return out


def gauss_moment_ladder(e):
    """Per-gap moments of the Gauss ladder, and the largest node count any gap reached."""
    ep = np.asarray(e.endpoints(), dtype=float)
    out = []
    worst = 64
    for gap in range(e.n - 1):
        m = 64
        prev = gauss_gap_moment_sums(ep, gap, m, e.n - 1)
        while m < _MOMENT_CAP:
            m *= 2
            cur = gauss_gap_moment_sums(ep, gap, m, e.n - 1)
            done = np.max(np.abs(cur - prev)) < _MOMENT_TOL * max(1.0, float(np.max(np.abs(cur))))
            prev = cur
            if done:
                break
        out.append(prev)
        worst = max(worst, m)
    return out, worst

