"""Numerical kernels: elliptic integrals, Jacobi theta series, quadrature, linear solve.

Everything is plain float64.  The complete integrals use the
arithmetic-geometric mean, the incomplete integral of the first kind a
Carlson symmetric form, and the singular integrals a Chebyshev-Gauss rule
(inverse-square-root endpoint weight) and a nested ladder of Fejer rules
for the half-line tail; dense systems go to LAPACK behind a
singular-value guard (sigma_min > 1e-13 sigma_max, else SingularMatrixError).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

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
    return _complete_K_of_kp(math.sqrt((1.0 - k) * (1.0 + k)))


def _complete_K_of_kp(kp: float) -> float:
    """K(k) = pi / (2 AGM(1, k')) from the complementary modulus k' in (0, 1].

    Taking k' directly keeps its digits when k is within rounding of 1.
    """
    a, g = 1.0, kp
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


def _theta(z: float, q: float, sign: float) -> float:
    # 1 + 2 sum_m sign^m q^(m^2) cos(2 m z); the +-1 factors are exact
    if not 0.0 <= q < 1.0:
        raise DomainError(f"nome must lie in [0, 1), got {q}")
    total = 1.0
    qm = q  # q^(m^2)
    qstep = q * q * q  # q^(2m+1)
    m = 1
    s = sign
    while 2.0 * qm >= _THETA_TERM_TOL:
        total += 2.0 * s * qm * math.cos(2.0 * m * z)
        qm *= qstep
        qstep *= q * q
        s *= sign
        m += 1
        if m > _THETA_MAX_TERMS:
            raise ConvergenceError(f"theta series did not converge for q={q}")
    return total


def theta3(z: float, q: float) -> float:
    """Jacobi theta_3(z; q) = 1 + 2 sum_m q^(m^2) cos(2 m z)."""
    return _theta(z, q, 1.0)


def theta4(z: float, q: float) -> float:
    """Jacobi theta_4(z; q) = 1 + 2 sum_m (-1)^m q^(m^2) cos(2 m z)."""
    return _theta(z, q, -1.0)


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


# the quadrature ladder: rules of m = 128, 256, ..., 4096 intervals on the
# Chebyshev-Lobatto nodes, each level accepted when it agrees with its
# nested m/2 rule.  The gap moments climb it with the Lobatto rule itself,
# the Robin tail and the Green edges with Fejer's rule on its interior nodes.
_LADDER = (128, 256, 512, 1024, 2048, 4096)


@functools.lru_cache(maxsize=16)
def _lobatto_nodes(m: int) -> np.ndarray:
    """The m + 1 Chebyshev-Lobatto nodes cos(k pi / m), k = 0..m (shared, read-only).

    The odd-indexed ones of the 2m-interval set are the m Chebyshev-Gauss
    nodes cos((2r - 1) pi / 2m), r = 1..m.
    """
    nodes = np.cos(np.arange(m + 1) * np.pi / m)
    nodes.flags.writeable = False
    return nodes


def chebyshev_gauss(g, a: float, b: float, m: int) -> float:
    """Integral of g(t) / sqrt((t - a)(b - t)) over (a, b) by the m-node Chebyshev rule.

    Exact (up to rounding) whenever g pulled back to [-1, 1] is a polynomial
    of degree < 2m.
    """
    if m < 1:
        raise DomainError(f"node count must be positive, got {m}")
    if not a < b:
        raise DomainError(f"need a < b, got ({a}, {b})")
    t = 0.5 * (a + b) + 0.5 * (b - a) * _lobatto_nodes(2 * m)[1::2]
    vals = _vectorized(g)(t)
    return float(vals.sum()) * math.pi / m


@functools.lru_cache(maxsize=8)
def _fejer_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Fejer's second rule on [-1, 1]: nodes cos(k pi / m), k = 1..m-1, and weights (shared, read-only).

    The nodes are the interior Chebyshev-Lobatto nodes, so the m/2 rule
    uses every other one (k even).  The weights come from one FFT
    (Waldvogel, BIT 46, 2006); the rule integrates polynomials of degree
    < m exactly.
    """
    odd = np.arange(1.0, m, 2.0)
    v = np.concatenate((2.0 / (odd * (odd - 2.0)), [1.0 / odd[-1]], np.zeros(m // 2)))
    weights = np.fft.ifft(-v[:-1] - v[:0:-1]).real[1:]
    weights.flags.writeable = False
    return _lobatto_nodes(m)[1:-1], weights


def _fejer_ladder(g, lo: float, hi: float, tol: float, what: str) -> QuadratureResult:
    """Integral of g over (lo, hi) by the nested ladder of Fejer rules, m = 128, ..., 4096.

    g maps a 1-D array of nodes to its values.  Each level calls it once, on
    the nodes the m/2 rule lacks, and is accepted when its value I_m is
    finite and |I_m - I_{m/2}| <= max(tol, floor), where the rounding floor
    is 1e-14 (hi - lo)/2 sum w_k |g_k|; ``est_error`` is the larger of the
    two, ``nodes_used`` the evaluations made (m - 1).  Raises
    ConvergenceError, naming ``what``, when the cap is reached; its
    ``partial`` sums the finite values of the last level.
    """
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    vals = np.empty(0)
    for m in _LADDER:
        nodes, weights = _fejer_rule(m)
        # a node that rounds onto a singular endpoint gives an inf or nan
        # value; a level holding one is never accepted
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            fresh = g(mid + half * (nodes[::2] if vals.size else nodes))
            if vals.size:
                both = np.empty(m - 1)
                both[::2], both[1::2] = fresh, vals
                fresh = both
            vals = fresh
            fine = half * np.dot(weights, vals)
            delta = abs(fine - half * np.dot(_fejer_rule(m // 2)[1], vals[1::2]))
            floor = 1e-14 * half * np.dot(weights, np.abs(vals))
        if math.isfinite(fine) and delta <= max(tol, floor):
            return QuadratureResult(float(fine), float(max(delta, floor)), vals.size)
    ok = np.isfinite(vals)
    partial = QuadratureResult(float(half * np.dot(weights[ok], vals[ok])), math.inf, vals.size)
    raise ConvergenceError(f"{what} did not converge with {vals.size} nodes", partial=partial)


def _half_line(f, b: float, x: float, tol: float, width: float, what: str) -> QuadratureResult:
    """Integral of f(t) / sqrt|t - b| from b towards x (x may be +-inf), for f regular at b.

    The map t = b +- w tan^2(theta), w = min(|x - b|, width), runs theta
    over (0, atan(sqrt(|x - b| / w))) and removes the singularity: its
    Jacobian over sqrt|t - b| is 2 sqrt(w)(1 + off/w), taken at the offset
    off = |t - b| of the node t as it rounds.  f maps a 1-D array of t to
    its values; the integral over theta goes to ``_fejer_ladder``.
    """
    span = abs(x - b)
    w = min(span, width)
    step = w if x > b else -w
    jac = 2.0 * math.sqrt(w)

    def g(theta):
        t = b + step * np.tan(theta) ** 2
        return f(t) * (jac * (1.0 + abs(t - b) / w))

    return _fejer_ladder(g, 0.0, math.atan(math.sqrt(span / w)), tol, what)


def tail_integral(h, b: float, tol: float, width: float = 2.0) -> QuadratureResult:
    """Integral of h over (b, infinity) for h = O(1/t^2) at infinity.

    An inverse-square-root singularity of h at t = b is allowed: the
    integral goes to ``_half_line`` as that of h(t) sqrt(t - b) / sqrt(t - b),
    over theta in (0, pi/2) with t = b + width tan^2(theta).
    """
    if tol <= 0.0:
        raise DomainError("tolerance must be positive")
    if width <= 0.0:
        raise DomainError("split width must be positive")
    hv = _vectorized(h)
    return _half_line(lambda t: hv(t) * np.sqrt(t - b), b, math.inf, tol, width, "tail integral")


def solve_dense(mat, rhs) -> np.ndarray:
    """Solve M x = rhs with LAPACK's partially pivoted LU (``np.linalg.solve``).

    Raises SingularMatrixError when sigma_min(M) <= 1e-13 sigma_max(M), a
    test independent of the scale of M, or when LAPACK meets a zero pivot.
    """
    m = np.array(mat, dtype=float)
    v = np.array(rhs, dtype=float).ravel()
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"matrix must be square, got shape {m.shape}")
    if v.size != m.shape[0]:
        raise DomainError("right-hand side length does not match the matrix")
    if v.size == 0:
        return np.empty(0)
    try:
        sigma = np.linalg.svd(m, compute_uv=False)
        if sigma[-1] > 1e-13 * sigma[0]:
            return np.linalg.solve(m, v)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"LAPACK: {exc}") from exc
    raise SingularMatrixError(f"singular values {sigma[-1]:.3e} <= 1e-13 x {sigma[0]:.3e}")
