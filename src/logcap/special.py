"""Numerical kernels: elliptic integrals, Jacobi theta series, quadrature, linear solve.

Everything is plain float64.  The complete integrals use the
arithmetic-geometric mean, the incomplete integral of the first kind a
Carlson symmetric form, and the singular integrals a Chebyshev-Gauss rule
(inverse-square-root endpoint weight) plus an adaptive Gauss-Legendre
scheme for the half-line tail.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import _chebyshev_nodes
from .errors import ConvergenceError, DomainError, SingularMatrixError

_AGM_MAX_ITERS = 40
_THETA_TERM_TOL = 1e-16
_THETA_MAX_TERMS = 20000


@dataclass(frozen=True)
class EllipticParams:
    """Modulus bundle (k, k', nome q, angle omega) for the theta-quotient formula."""

    k: float
    k_prime: float
    q: float
    omega: float

    def __post_init__(self):
        if abs(self.k * self.k + self.k_prime * self.k_prime - 1.0) > 1e-14:
            raise DomainError("moduli must satisfy k^2 + k'^2 = 1")
        if not 0.0 <= self.q < 1.0:
            raise DomainError(f"nome must lie in [0, 1), got {self.q}")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    est_error: float
    nodes_used: int


def complete_K(k: float) -> float:
    """Complete elliptic integral of the first kind, by AGM iteration."""
    if not 0.0 <= k < 1.0:
        raise DomainError(f"modulus must lie in [0, 1), got {k}")
    a, g = 1.0, math.sqrt((1.0 - k) * (1.0 + k))
    for _ in range(_AGM_MAX_ITERS):
        if abs(a - g) < 1e-16 * a:
            break
        a, g = 0.5 * (a + g), math.sqrt(a * g)
    return math.pi / (2.0 * a)


def complete_E(k: float) -> float:
    """Complete elliptic integral of the second kind, by AGM with partial sums."""
    if not 0.0 <= k <= 1.0:
        raise DomainError(f"modulus must lie in [0, 1], got {k}")
    if k == 1.0:
        return 1.0
    a, g = 1.0, math.sqrt((1.0 - k) * (1.0 + k))
    s = 0.5 * k * k
    pw = 1.0
    for _ in range(_AGM_MAX_ITERS):
        c = 0.5 * (a - g)
        if c < 1e-17 * a:
            break
        s += pw * c * c
        a, g = 0.5 * (a + g), math.sqrt(a * g)
        pw *= 2.0
    return math.pi / (2.0 * a) * (1.0 - s)


def _carlson_rf(x: float, y: float, z: float) -> float:
    # duplication algorithm; args >= 0 with at most one zero
    for _ in range(200):
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        mu = (x + y + z) / 3.0
        dx, dy, dz = (mu - x) / mu, (mu - y) / mu, (mu - z) / mu
        if max(abs(dx), abs(dy), abs(dz)) < 1e-3:
            break
    e2 = dx * dy - dz * dz
    e3 = dx * dy * dz
    return (1.0 + (e2 / 24.0 - 0.1 - 3.0 * e3 / 44.0) * e2 + e3 / 14.0) / math.sqrt(mu)


def incomplete_F(lam: float, k: float) -> float:
    """Legendre incomplete integral of the first kind, F(arcsin(lam), k).

    The first argument is the *sine* of the amplitude, so
    incomplete_F(1, k) == complete_K(k).
    """
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"sine of amplitude must lie in [0, 1], got {lam}")
    if not 0.0 <= k < 1.0:
        raise DomainError(f"modulus must lie in [0, 1), got {k}")
    if lam == 0.0:
        return 0.0
    return lam * _carlson_rf((1.0 - lam) * (1.0 + lam), 1.0 - (k * lam) ** 2, 1.0)


def _check_nome(q: float) -> None:
    if not 0.0 <= q < 1.0:
        raise DomainError(f"nome must lie in [0, 1), got {q}")


def theta3(z: float, q: float) -> float:
    """Jacobi theta_3(z; q) = 1 + 2 sum_m q^(m^2) cos(2 m z)."""
    _check_nome(q)
    total = 1.0
    qm = q  # q^(m^2)
    qstep = q * q * q  # q^(2m+1)
    m = 1
    while 2.0 * qm >= _THETA_TERM_TOL:
        total += 2.0 * qm * math.cos(2.0 * m * z)
        qm *= qstep
        qstep *= q * q
        m += 1
        if m > _THETA_MAX_TERMS:
            raise ConvergenceError(f"theta series did not converge for q={q}")
    return total


def theta4(z: float, q: float) -> float:
    """Jacobi theta_4(z; q) = 1 + 2 sum_m (-1)^m q^(m^2) cos(2 m z)."""
    _check_nome(q)
    total = 1.0
    qm = q
    qstep = q * q * q
    m = 1
    sign = -1.0
    while 2.0 * qm >= _THETA_TERM_TOL:
        total += 2.0 * sign * qm * math.cos(2.0 * m * z)
        qm *= qstep
        qstep *= q * q
        sign = -sign
        m += 1
        if m > _THETA_MAX_TERMS:
            raise ConvergenceError(f"theta series did not converge for q={q}")
    return total


def _vectorized(f):
    """Wrap a scalar-or-vector callable so it always maps 1-D arrays to 1-D arrays."""

    def call(x: np.ndarray) -> np.ndarray:
        try:
            y = np.asarray(f(x), dtype=float)
        except (TypeError, ValueError):
            return np.array([float(f(xi)) for xi in x])
        if y.shape != x.shape:
            return np.array([float(f(xi)) for xi in x])
        return y

    return call


def chebyshev_gauss(g, a: float, b: float, m: int) -> float:
    """Integral of g(t) / sqrt((t - a)(b - t)) over (a, b) by the m-node Chebyshev rule.

    Exact (up to rounding) whenever g pulled back to [-1, 1] is a polynomial
    of degree < 2m.
    """
    if m < 1:
        raise DomainError(f"node count must be positive, got {m}")
    if not a < b:
        raise DomainError(f"need a < b, got ({a}, {b})")
    t = 0.5 * (a + b) + 0.5 * (b - a) * _chebyshev_nodes(m)
    vals = _vectorized(g)(t)
    return float(vals.sum()) * math.pi / m


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)


def _adaptive_gl(h, pieces, max_evals: int, what: str) -> tuple[list[tuple[float, float]], int]:
    """Adaptive 15-point Gauss-Legendre by bisection, on several pieces at once.

    Each piece ``(a, b, tol, to_t, weigh)`` stands for the integral over
    [a, b] of ``weigh(x, h(to_t(x)))``.  Starting from the whole of [a, b],
    a panel is split in two and accepted when the defect |left + right -
    panel| is at most ``tol * width / (b - a)`` (or ``1e-16 |left + right|``),
    or when the panel is no wider than ``1e-14 (b - a)``, provided left +
    right is finite; otherwise both halves are refined in turn.  The open
    panels of one bisection level, over all pieces, are evaluated together
    with one call of ``h``.  Each panel is decided on its own, so the panel
    tree is the one depth-first refinement builds, and the accepted panels
    are summed in depth-first order (right to left), so the sums agree with
    it bit for bit.

    Returns ``([(value, error_estimate), ...] per piece, evaluations)``; the
    estimate is the sum of the bisection defects of the accepted panels.
    Raises ConvergenceError, naming ``what``, when the next level would take
    the evaluations past ``max_evals``.  Its ``partial`` sums the accepted
    panels and the unrefined values of the open ones, leaving out non-finite
    panel values (an evaluation that rounds onto a singular endpoint), and
    its ``nodes_used`` counts the evaluations made plus those of the refused
    level.
    """
    hv = _vectorized(h)
    used = 0
    accepted: list[list[tuple[float, float, float]]] = [[] for _ in pieces]

    def spend(spans, pending) -> None:
        nonlocal used
        used += _GL_NODES.size * len(spans)
        if used > max_evals:
            values = [c for *_, c in pending] + [f for acc in accepted for _, f, _ in acc]
            partial = sum(v for v in values if math.isfinite(v))
            raise ConvergenceError(f"{what} used more than {max_evals} evaluations",
                                   partial=QuadratureResult(partial, math.inf, used))

    def evaluate(spans) -> list[float]:
        # values of the panels (piece, lo, hi); spans come grouped by piece
        mid = np.array([0.5 * (lo + hi) for _, lo, hi in spans])
        half = np.array([0.5 * (hi - lo) for _, lo, hi in spans])
        x = mid[:, None] + half[:, None] * _GL_NODES
        groups, start = [], 0
        for k, run in itertools.groupby(s[0] for s in spans):
            stop = start + sum(1 for _ in run)
            groups.append((pieces[k], x[start:stop]))
            start = stop
        ts = [to_t(xk).ravel() for (_, _, _, to_t, _), xk in groups]
        hx = hv(ts[0] if len(ts) == 1 else np.concatenate(ts))
        fx, start = [], 0
        for (*_, weigh), xk in groups:
            fx.append(weigh(xk, hx[start:start + xk.size].reshape(xk.shape)))
            start += xk.size
        f = fx[0] if len(fx) == 1 else np.concatenate(fx)
        # vecdot runs numpy's dot kernel row by row, as np.dot does on one
        # panel; a matrix-vector product may add in another order
        return (half * np.vecdot(f, _GL_WEIGHTS)).tolist()

    # a node that rounds onto a singular endpoint gives an inf or nan value;
    # a panel holding one is never accepted, only split until its nodes
    # move off the endpoint or the budget runs out, so numpy's warnings
    # about it add nothing
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        roots = [(k, p[0], p[1]) for k, p in enumerate(pieces)]
        spend(roots, ())
        panels = [(k, lo, hi, v) for (k, lo, hi), v in zip(roots, evaluate(roots))]
        while panels:
            children = []
            for k, lo, hi, _ in panels:
                mid = 0.5 * (lo + hi)
                children += ((k, lo, mid), (k, mid, hi))
            spend(children, panels)
            vals = evaluate(children)
            refine = []
            for i, (k, lo, hi, coarse) in enumerate(panels):
                a, b, tol = pieces[k][:3]
                total_width = b - a
                left, right = vals[2 * i], vals[2 * i + 1]
                fine = left + right
                delta = abs(fine - coarse)
                local_tol = tol * (hi - lo) / total_width
                # an infinite fine would pass the defect test as inf <= inf
                if math.isfinite(fine) and (delta <= max(local_tol, 1e-16 * abs(fine))
                                            or (hi - lo) <= 1e-14 * total_width):
                    accepted[k].append((lo, fine, delta))
                else:
                    mid = children[2 * i][2]
                    refine += ((k, lo, mid, left), (k, mid, hi, right))
            panels = refine
    sums = []
    for acc in accepted:
        value = err = 0.0
        for _, fine, delta in sorted(acc, reverse=True):
            value += fine
            err += delta
        sums.append((value, err))
    return sums, used


def tail_integral(h, b: float, tol: float, width: float = 2.0,
                  max_evals: int = 100000) -> QuadratureResult:
    """Integral of h over (b, infinity) for h = O(1/t^2) at infinity.

    An inverse-square-root singularity of h at t = b is allowed: the near
    part over (b, T], T = b + width, is computed after the substitution
    t = b + (T - b) u^2, which removes it; the far part uses s = 1/t.
    """
    if tol <= 0.0:
        raise DomainError("tolerance must be positive")
    if width <= 0.0:
        raise DomainError("split width must be positive")
    T = max(b + width, 0.5 * width)
    near = (0.0, 1.0, 0.5 * tol,
            lambda u: b + (T - b) * u * u,
            lambda u, hu: 2.0 * (T - b) * u * hu)
    far = (0.0, 1.0 / T, 0.5 * tol,
           lambda s: 1.0 / s,
           lambda s, hs: hs / (s * s))
    ((near_val, near_err), (far_val, far_err)), used = _adaptive_gl(
        h, (near, far), max_evals, "tail integral")
    return QuadratureResult(near_val + far_val, near_err + far_err, used)


def solve_dense(mat, rhs) -> np.ndarray:
    """Solve M x = rhs by Gaussian elimination with partial pivoting.

    Intended for the small (n-1) x (n-1) systems arising here; raises
    SingularMatrixError when a pivot falls below 1e-13 * max|M|.
    """
    m = np.array(mat, dtype=float)
    v = np.array(rhs, dtype=float).ravel()
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"matrix must be square, got shape {m.shape}")
    s = m.shape[0]
    if v.size != s:
        raise DomainError("right-hand side length does not match the matrix")
    if s == 0:
        return np.empty(0)
    scale = np.abs(m).max()
    pivot_floor = 1e-13 * (scale if scale > 0.0 else 1.0)
    for col in range(s):
        piv = col + int(np.argmax(np.abs(m[col:, col])))
        if abs(m[piv, col]) <= pivot_floor:
            raise SingularMatrixError(f"pivot {m[piv, col]:.3e} below threshold")
        if piv != col:
            m[[col, piv]] = m[[piv, col]]
            v[[col, piv]] = v[[piv, col]]
        factors = m[col + 1:, col] / m[col, col]
        m[col + 1:, col:] -= np.outer(factors, m[col, col:])
        v[col + 1:] -= factors * v[col]
    x = np.empty(s)
    for row in range(s - 1, -1, -1):
        x[row] = (v[row] - m[row, row + 1:] @ x[row + 1:]) / m[row, row]
    return x
