"""Reference values the benchmark checks vexs against.

Everything here is computed without vexs: closed forms where they exist,
otherwise scipy's QUADPACK on the plain one-dimensional integrand.  The
values are independent of the seed and of the code under test.
"""

from __future__ import annotations

import functools
import math

# local energies with closed forms (K_{1,2} = 1, K_{2,2} = pi / 2)
EPS_GAUSSIAN_TARGET = 2.0 * math.sqrt(math.pi / 2.0)
NGUYEN_2D_TARGET = math.pi ** 2 / 2.0
TENT_BBM_LIMIT = 2.0
COUNTEREXAMPLE_MODULAR = 3.0 * 2.0 ** (-1.0 / 3.0)


def _quad(f, a, b, points=None):
    from scipy import integrate     # imported here to stay out of set-up time
    val, _ = integrate.quad(f, a, b, points=points, limit=400,
                            epsabs=0.0, epsrel=1e-13)
    return val


@functools.cache
def varp_gaussian_local_energy() -> float:
    """Integral of K_{1,p(x)} |u'(x)|^{p(x)} for u = exp(-x^2) and
    p(x) = 2 + 1/(1 + x^2); in one dimension K_{1,p} = 2 / p."""
    def f(x):
        p = 2.0 + 1.0 / (1.0 + x * x)
        return (2.0 / p) * abs(2.0 * x * math.exp(-x * x)) ** p
    return 2.0 * (_quad(f, 0.0, 1.0) + _quad(f, 1.0, 12.0))


def tent_gagliardo(s: float) -> float:
    """Integral over R^2 of |u(x) - u(y)|^2 / |x - y|^{1 + 2s} for the
    tent u = max(0, 1 - |x|).

    Substituting y = x + h leaves 2 * integral over h > 0 of
    A(h) h^{-1-2s}, where A(h) = integral of (u(x+h) - u(x))^2 dx is
    2h^2 - h^3 on [0, 1], 4/3 - (2 - h)^3 / 3 on [1, 2] and 4/3 beyond;
    each piece integrates in closed form.
    """
    def power_integral(e):           # integral of h^e over [1, 2]
        if e == -1.0:
            return math.log(2.0)
        return (2.0 ** (e + 1.0) - 1.0) / (e + 1.0)

    near = 2.0 / (2.0 - 2.0 * s) - 1.0 / (3.0 - 2.0 * s)
    e = -1.0 - 2.0 * s
    middle = (-4.0 * power_integral(e) + 12.0 * power_integral(e + 1.0)
              - 6.0 * power_integral(e + 2.0) + power_integral(e + 3.0)) / 3.0
    far = (4.0 / 3.0) * 2.0 ** (-2.0 * s) / (2.0 * s)
    return 2.0 * (near + middle + far)


def tent_bbm(s: float) -> float:
    """(1 - s) times the p = 2 Gagliardo modular of the tent."""
    return (1.0 - s) * tent_gagliardo(s)


def tent_fracnorm(s: float) -> float:
    """With constant p = 2 the Luxemburg seminorm is the square root of
    the Gagliardo modular."""
    return math.sqrt(tent_gagliardo(s))


def lp_norm(profile, p: float, lo: float, hi: float, kinks=()) -> float:
    """(integral of |u|^p over [lo, hi])^{1/p} for a scalar profile."""
    pts = sorted(k for k in kinks if lo < k < hi)
    edges = [lo] + pts + [hi]
    total = sum(_quad(lambda x: abs(profile(x)) ** p, a, b)
                for a, b in zip(edges[:-1], edges[1:]))
    return total ** (1.0 / p)
