"""Anisotropy constants from |w . e|^p integrals over the unit sphere.

Two independent routes are kept side by side: a closed form in terms of
log-Gamma (the production path, overflow-safe for large p) and direct
sphere quadrature (the cross-check oracle).  Rules exist for n = 1
(the two-point sphere), n = 2 (midpoint trapezoid on the circle) and
n = 3 (Gauss-Legendre in the polar cosine, split at the equator, times
a uniform azimuth grid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quadrature import gauss_nodes

# math's log-Gamma, elementwise: importing vexs loads no scipy
_lgamma = np.vectorize(math.lgamma, otypes=[float])

_SURFACE = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}

# default node counts for the quadrature oracle; n=3 is (polar, azimuth)
_DEFAULT_N2 = 32768
_DEFAULT_N3 = (256, 512)


@dataclass(frozen=True)
class SphereRule:
    """Quadrature nodes and weights on S^{n-1}.

    Weights sum to the surface measure; nodes are unit vectors.  The
    reference axis (last coordinate for n = 3, first for n <= 2) is where
    the rule is most accurate for zonal integrands.
    """

    dimension: int
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]

    @property
    def axis(self) -> np.ndarray:
        e = np.zeros(self.dimension)
        e[-1 if self.dimension == 3 else 0] = 1.0
        return e

    def validate(self):
        total = float(np.sum(self.weights))
        surface = _SURFACE[self.dimension]
        if abs(total - surface) > 1e-12 * surface:
            raise DomainError(
                f"rule weights sum to {total}, expected {surface}")
        norms = np.linalg.norm(self.nodes, axis=1)
        if float(np.max(np.abs(norms - 1.0))) > 1e-14:
            raise DomainError("rule nodes are not unit vectors")
        return self


def default_rule(n: int, node_count=None) -> SphereRule:
    """The standard rule per dimension.

    n = 1: the exact two-point rule.  n = 2: midpoint trapezoid with
    `node_count` angles.  n = 3: equator-split Gauss-Legendre in
    cos(theta) times uniform azimuth; `node_count` is (polar, azimuth).
    """
    if n == 1:
        nodes = np.array([[1.0], [-1.0]])
        return SphereRule(1, nodes, np.ones(2)).validate()
    if n == 2:
        m = int(node_count or _DEFAULT_N2)
        theta = 2.0 * math.pi * (np.arange(m) + 0.5) / m
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        weights = np.full(m, 2.0 * math.pi / m)
        return SphereRule(2, nodes, weights).validate()
    if n == 3:
        nt, nphi = node_count or _DEFAULT_N3
        half = max(1, int(nt) // 2)
        xs, ws = gauss_nodes(half)
        t = np.concatenate([0.5 * (xs - 1.0), 0.5 * (xs + 1.0)])
        wt = np.concatenate([0.5 * ws, 0.5 * ws])
        phi = 2.0 * math.pi * (np.arange(int(nphi)) + 0.5) / int(nphi)
        st = np.sqrt(np.maximum(0.0, 1.0 - t * t))
        nodes = np.stack([
            np.outer(st, np.cos(phi)).ravel(),
            np.outer(st, np.sin(phi)).ravel(),
            np.repeat(t, int(nphi)),
        ], axis=1)
        weights = np.repeat(wt, int(nphi)) * (2.0 * math.pi / int(nphi))
        return SphereRule(3, nodes, weights).validate()
    raise DomainError(f"sphere rules exist for n in {{1, 2, 3}}, got {n}")


def abs_power_sphere_integral(n: int, p, rule: SphereRule | None = None,
                              e=None):
    """Integral over S^{n-1} of |w . e|^p (no 1/p factor).

    With rule=None the closed form p * k_np_values(n, p) is used; p may
    be an array.  With a rule, the quadrature sum is returned for the
    reference direction e (default: the rule's axis).  The result is
    independent of e up to the rule's resolution.
    """
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr < 1.0):
        raise DomainError("exponent p must be >= 1")
    if rule is None:
        val = p_arr * k_np_values(n, p_arr)
        return float(val) if p_arr.ndim == 0 else val
    if rule.dimension != n:
        raise DomainError("rule dimension mismatch")
    e = rule.axis if e is None else np.asarray(e, dtype=float)
    e = e / np.linalg.norm(e)
    proj = np.abs(rule.nodes @ e)
    if p_arr.ndim == 0:
        return float(np.sum(rule.weights * proj ** float(p_arr)))
    return np.array([float(np.sum(rule.weights * proj ** q)) for q in p_arr])


def k_np(n: int, p, rule: SphereRule | None = None):
    """The anisotropy constant: abs_power_sphere_integral(n, p) / p."""
    return abs_power_sphere_integral(n, p, rule) / np.asarray(p, dtype=float)


def k_np_values(n: int, p_values: np.ndarray) -> np.ndarray:
    """Vectorized closed-form K_{n, p(x)} for integrand evaluation:
    2 pi^{(n-1)/2} Gamma((p+1)/2) / (p Gamma((n+p)/2)), via log-Gamma
    (overflow-safe for large p)."""
    p_values = np.asarray(p_values, dtype=float)
    return (2.0 * math.pi ** ((n - 1) / 2.0) / p_values) * np.exp(
        _lgamma((p_values + 1.0) / 2.0) - _lgamma((n + p_values) / 2.0))


@dataclass
class IdentityCheck:
    lhs: float
    rhs: float

    @property
    def rel_residual(self) -> float:
        scale = max(abs(self.rhs), 1e-300)
        return abs(self.lhs - self.rhs) / scale


def directional_identity_check(n: int, p: float, V,
                               rule: SphereRule | None = None) -> IdentityCheck:
    """Check int_{S^{n-1}} |V . w|^p dH = p K_{n,p} |V|^p.

    lhs is |V|^p times the rule's sum of |w . e|^p about its own axis
    (the integral does not depend on V's direction, and about the axis
    the zonal kink sits on the rule's panel split); rhs is the closed
    form.
    """
    V = np.asarray(V, dtype=float)
    if not np.all(np.isfinite(V)):
        raise DomainError("V must be finite")
    rule = rule if rule is not None else default_rule(n)
    nv = float(np.linalg.norm(V))
    if nv == 0.0:
        return IdentityCheck(lhs=0.0, rhs=0.0)
    lhs = nv ** p * abs_power_sphere_integral(n, p, rule)
    rhs = p * k_np(n, p) * nv ** p
    return IdentityCheck(lhs=lhs, rhs=rhs)
