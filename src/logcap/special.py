"""Numerical kernels: elliptic integrals, Jacobi theta series, quadrature.

Everything is plain float64.  The complete integrals use the
arithmetic-geometric mean, the incomplete integral of the first kind a
Carlson symmetric form, and the integrals with an inverse-square-root
endpoint singularity (the Robin tail, the Green edges) a nested ladder of
Fejer rules.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, _brief, _real

_AGM_MAX_ITERS = 40
_THETA_TERM_TOL = 1e-16
_THETA_MAX_TERMS = 20000


@dataclass(frozen=True, slots=True)
class EllipticParams:
    """Modulus bundle (k, k', nome q, angle omega) for the theta-quotient formula."""

    k: float
    k_prime: float
    q: float
    omega: float

    def __post_init__(self):
        k, kp = _real(self.k, "modulus"), _real(self.k_prime, "complementary modulus")
        if not abs(k * k + kp * kp - 1.0) <= 1e-14:
            raise DomainError("moduli must satisfy k^2 + k'^2 = 1")
        if not 0.0 <= _real(self.q, "nome") < 1.0:
            raise DomainError(f"nome must lie in [0, 1), got {_brief(self.q)}")
        if not math.isfinite(_real(self.omega, "angle")):
            raise DomainError(f"angle must be finite, got {_brief(self.omega)}")


@dataclass(frozen=True, slots=True)
class QuadratureResult:
    value: float
    est_error: float
    nodes_used: int


def complete_K(k: float) -> float:
    """Complete elliptic integral of the first kind, by AGM iteration."""
    kf = _real(k, "modulus")
    if not 0.0 <= kf < 1.0:
        raise DomainError(f"modulus must lie in [0, 1), got {_brief(k)}")
    return _complete_K_of_kp(math.sqrt((1.0 - kf) * (1.0 + kf)))


def _agm(kp: float, s: float = 0.0) -> tuple[float, float]:
    """AGM(1, k') and s + sum_j 2^(j-1) c_j^2, c_j = (a_{j-1} - g_{j-1}) / 2.

    Stops when a step leaves a unchanged; _AGM_MAX_ITERS is a safety cap.
    """
    a, g, pw = 1.0, kp, 1.0
    for _ in range(_AGM_MAX_ITERS):
        a_next = 0.5 * (a + g)
        if a_next == a:
            break
        c = 0.5 * (a - g)
        s += pw * c * c
        a, g = a_next, math.sqrt(a * g)
        pw *= 2.0
    return a, s


def _complete_K_of_kp(kp: float) -> float:
    """K(k) = pi / (2 AGM(1, k')) from the complementary modulus k' in (0, 1].

    Taking k' directly keeps its digits when k is within rounding of 1.
    """
    return math.pi / (2.0 * _agm(kp)[0])


def complete_E(k: float) -> float:
    """Complete elliptic integral of the second kind, by AGM with partial sums."""
    kf = _real(k, "modulus")
    if not 0.0 <= kf <= 1.0:
        raise DomainError(f"modulus must lie in [0, 1], got {_brief(k)}")
    if kf == 1.0:
        return 1.0
    a, s = _agm(math.sqrt((1.0 - kf) * (1.0 + kf)), 0.5 * kf * kf)
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
    sf, kf = _real(lam, "sine of amplitude"), _real(k, "modulus")
    if not 0.0 <= sf <= 1.0:
        raise DomainError(f"sine of amplitude must lie in [0, 1], got {_brief(lam)}")
    if not 0.0 <= kf < 1.0:
        raise DomainError(f"modulus must lie in [0, 1), got {_brief(k)}")
    if sf == 0.0:
        return 0.0
    return sf * _carlson_rf((1.0 - sf) * (1.0 + sf), 1.0 - (kf * sf) ** 2, 1.0)


def _theta(z: float, q: float, sign: float) -> float:
    # 1 + 2 sum_m sign^m q^(m^2) cos(2 m z); the +-1 factors are exact
    zf, qf = _real(z, "argument"), _real(q, "nome")
    if not 0.0 <= qf < 1.0:
        raise DomainError(f"nome must lie in [0, 1), got {_brief(q)}")
    if not math.isfinite(zf):
        raise DomainError(f"argument must be finite, got {_brief(z)}")
    total = 1.0
    qm = qf  # q^(m^2)
    qstep = qf * qf * qf  # q^(2m+1)
    m = 1
    s = sign
    while 2.0 * qm >= _THETA_TERM_TOL:
        total += 2.0 * s * qm * math.cos(2.0 * m * zf)
        qm *= qstep
        qstep *= qf * qf
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


# the quadrature ladder: rules of m = 32, 64, ..., 4096 intervals on the
# Chebyshev-Lobatto nodes, each level accepted when it agrees with its
# nested m/2 rule.  The gap moments climb all of it with the Lobatto rule
# itself.  The Robin tail and the Green edges climb it with Fejer's rule on
# its interior nodes from the 128 rung (_FEJER_FIRST) on.  Of the Robin
# tails of 400 random sets with n = 3..20, none passes its test at m = 32,
# and 166 pass at m = 64 with differences of up to 9e-11, which would become
# their est_error; all 400 pass at 128, with est_error below 1e-14.
_LADDER = (32, 64, 128, 256, 512, 1024, 2048, 4096)
_FEJER_FIRST = 128


@functools.lru_cache(maxsize=16)
def _lobatto_nodes(m: int) -> np.ndarray:
    """The m + 1 Chebyshev-Lobatto nodes cos(k pi / m), k = 0..m (shared, read-only)."""
    nodes = np.cos(np.arange(m + 1) * np.pi / m)
    nodes.flags.writeable = False
    return nodes


@functools.lru_cache(maxsize=16)
def _lobatto_weights(m: int) -> np.ndarray:
    """Weights of the m-interval Lobatto rule (row 0) and its nested m/2 rule (row 1) (shared, read-only).

    Row 0 is pi/m on every node, row 1 is 2 pi/m on the even nodes and 0
    on the odd ones; each has half weight at the two end nodes.
    """
    weights = np.zeros((2, m + 1))
    weights[0] = np.pi / m
    weights[1, ::2] = 2.0 * np.pi / m
    weights[:, ::m] *= 0.5
    weights.flags.writeable = False
    return weights


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


@functools.lru_cache(maxsize=16)
def _half_line_level(b: float, step: float, w: float, top: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t and Jacobian factors of ``_half_line``'s level m (shared, read-only).

    The level's theta nodes map Fejer's m rule onto (0, top): all m - 1 of
    them at the first level, m = ``_FEJER_FIRST``, and after that every
    other one, those the m/2 rule lacks.  Both depend only on the map and
    the level, not on the integrand.  The Robin tail runs on the image of
    the set with hull [-1, 1], so every tail makes the same map, b = 1 and
    w = 2, and reads them from here.
    """
    nodes = _fejer_rule(m)[0]
    theta = 0.5 * top + 0.5 * top * (nodes if m == _FEJER_FIRST else nodes[::2])
    t = b + step * np.tan(theta) ** 2
    jac = 2.0 * math.sqrt(w) * (1.0 + abs(t - b) / w)
    t.flags.writeable = jac.flags.writeable = False
    return t, jac


def _half_line(f, b: float, x: float, tol: float, width: float, what: str) -> QuadratureResult:
    """Integral of f(t) / sqrt|t - b| from b towards x (x may be +-inf), for f regular at b.

    The map t = b +- w tan^2(theta), w = min(|x - b|, width), runs theta
    over (0, top), top = atan(sqrt(|x - b| / w)), and removes the
    singularity: its Jacobian over sqrt|t - b| is 2 sqrt(w)(1 + off/w),
    taken at the offset off = |t - b| of the node t as it rounds.  The
    integral over theta climbs the nested ladder of Fejer rules, m = 128,
    ..., 4096; it starts at the ladder's 128 rung, not at ``_LADDER[0]``,
    and the comment beside ``_LADDER`` says why.  Each level calls f(t)
    once, on the level's new nodes t, which come read-only with the
    Jacobian factors from ``_half_line_level``, keyed by the map and the
    level, so f must not write to them.  A level is accepted when its
    value I_m is finite and |I_m - I_{m/2}| <= max(tol, floor), where the
    rounding floor is 1e-14 top/2 sum w_k |g_k|, g_k the value of f times
    the Jacobian at node k; a level holding an inf or nan value, as from a
    node that rounds onto a singular endpoint, is never accepted.
    ``est_error`` is the larger of the two, ``nodes_used`` the evaluations
    made (m - 1).  Raises ConvergenceError, naming ``what``, when the cap
    is reached; its ``partial`` sums the finite values of the last level.
    Raises DomainError, before any evaluation, unless tol > 0 and b and
    width are finite, width > 0.
    """
    given = tol, b, width
    tol, b, width = _real(tol, "tol"), _real(b, "b"), _real(width, "width")
    if not (tol > 0.0 and math.isfinite(b) and width > 0.0 and math.isfinite(width)):
        raise DomainError(f"need tol > 0, b finite and 0 < width < inf, got {', '.join(map(_brief, given))}")
    span = abs(x - b)
    w = min(span, width)
    step = w if x > b else -w
    top = math.atan(math.sqrt(span / w))
    half = 0.5 * top
    vals = np.empty(0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for m in _LADDER[_LADDER.index(_FEJER_FIRST):]:
            weights = _fejer_rule(m)[1]
            t, jac = _half_line_level(b, step, w, top, m)
            fresh = f(t) * jac
            if vals.size:
                # the m/2 rule's nodes are the odd-indexed ones of the m rule
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


def tail_integral(f, b: float, tol: float, width: float = 2.0) -> QuadratureResult:
    """Integral of f(t) / sqrt(t - b) over (b, infinity), for f regular at b.

    The integrand must be O(1/t^2) at infinity.  The integral goes to
    ``_half_line``, over theta in (0, pi/2) with t = b + width tan^2(theta),
    and climbs its Fejer ladder.  f is called once per level, on the
    level's new nodes as a shared read-only array, and must return an
    array of their values.  Raises ConvergenceError at the ladder's cap,
    and DomainError, before any evaluation, unless tol > 0 and b and width
    are finite, width > 0.
    """
    return _half_line(f, b, math.inf, tol, width, "tail integral")
