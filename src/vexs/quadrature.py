"""Deterministic 1D quadrature and root-isolation utilities.

Everything here is plumbing shared by the heavier modules: fixed
Gauss-Legendre rules on arbitrary pieces (`piece_nodes`, or its nodes
and weights apart) and on contiguous panels (`panel_nodes`), the
GL15/GL7 pair that every panel error estimate uses (`gl15_gl7_nodes`
for its 22 nodes, `gl15_gl7` for each panel's value and error), an
adaptive panel-splitting
integrator with a reproducible refinement order, a vectorized
safeguarded Illinois root step for batches of sign-change brackets
(`vector_bisect`), the sign-change sectioning of
sampled paths into signed pieces (`sign_pieces`, which serves the
superlevel rays, the layer-cake cells and the mean-oscillation balls),
the cutting of rows at sorted breakpoints into pieces (`row_pieces`,
which serves the ray panels and the maximal-function intervals), decade
breakpoints about centers (`decade_seeds`), scalar bisection of one
bracket by a predicate, and golden-section maximization of one bracket
or of many in lockstep.

Determinism contract: given identical inputs, every routine performs
the same floating-point operations in the same order, so repeated runs
are bit-identical.  Refinement decisions compare errors *relative* to
the running total, which keeps decisions invariant under a global
scaling of the integrand.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import DivergenceError


@lru_cache(maxsize=32)
def gauss_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def piece_nodes(lo: np.ndarray, hi: np.ndarray, n: int = 15
                ) -> tuple[np.ndarray, np.ndarray]:
    """GL nodes/weights on each piece [lo[i], hi[i]]; both of shape
    (k, n), one row per piece."""
    return piece_abscissae(lo, hi, n), piece_weights(lo, hi, n)


def piece_abscissae(lo: np.ndarray, hi: np.ndarray, n: int = 15
                    ) -> np.ndarray:
    """The nodes of piece_nodes alone, for a caller that makes the
    weights later: the floats of mid + half * x, in one (k, n) array."""
    half = 0.5 * (hi - lo)
    nodes = half[:, None] * gauss_nodes(n)[0]
    nodes += (lo + half)[:, None]
    return nodes


def piece_weights(lo: np.ndarray, hi: np.ndarray, n: int = 15
                  ) -> np.ndarray:
    """The weights of piece_nodes alone."""
    return (0.5 * (hi - lo))[:, None] * gauss_nodes(n)[1]


def panel_nodes(edges: np.ndarray, n: int = 15) -> tuple[np.ndarray, np.ndarray]:
    """Flattened GL nodes/weights for the composite rule over consecutive
    panels given by `edges` (shape (k+1,)).  Returns (nodes, weights) of
    length k*n, ordered panel by panel."""
    nodes, weights = piece_nodes(edges[:-1], edges[1:], n)
    return nodes.ravel(), weights.ravel()


@lru_cache(maxsize=1)
def gl15_gl7_nodes() -> tuple[np.ndarray, np.ndarray]:
    """The 22 nodes on [-1, 1] of the GL15/GL7 pair, GL15's then GL7's,
    and their weights in the same order."""
    (x15, w15), (x7, w7) = gauss_nodes(15), gauss_nodes(7)
    return np.concatenate([x15, x7]), np.concatenate([w15, w7])


def gl15_gl7(vals: np.ndarray, half) -> tuple[np.ndarray, np.ndarray]:
    """Per row of `vals` (shape (k, 22), the integrand at a panel's
    `gl15_gl7_nodes`): half * the GL15 sum, the panel's value, and
    |half * GL15 sum - half * GL7 sum|, its error; `half` is the panel's
    half-width (or any factor already taken into `vals`: then 1.0)."""
    w = gl15_gl7_nodes()[1]
    v15 = half * np.sum(vals[:, :15] * w[:15], axis=1)
    return v15, np.abs(v15 - half * np.sum(vals[:, 15:] * w[15:], axis=1))


@dataclass
class AdaptiveResult:
    value: float
    error: float
    n_evals: int
    n_panels: int
    edges: tuple


def adaptive_integrate(f: Callable[[np.ndarray], np.ndarray],
                       a: float, b: float, *,
                       rel_tol: float = 1e-9,
                       seeds: Sequence[float] = (),
                       max_panels: int = 4000,
                       min_width_frac: float = 1e-13) -> AdaptiveResult:
    """Adaptive composite Gauss integration of f over [a, b].

    Each panel is evaluated with GL15 and GL7; their difference is the
    panel error.  The worst panel (ties broken by creation index, so
    refinement order is reproducible) is split in half until the summed
    error drops below rel_tol times the running total.  `seeds` are
    interior breakpoints (kinks, support edges) used for the initial
    partition.  The final sum runs over panels sorted by left endpoint,
    whose edges the result returns as a tuple.  A panel no wider than
    min_width_frac times its largest |endpoint| is accepted unsplit, as
    in QUADPACK: its error leaves the stop test and stays in the result's.
    A running total that is not finite raises DivergenceError.

    f sees the nodes of the whole initial partition in one call and the
    nodes of both halves of a split in one call (QUADPACK's paired
    evaluation), so it runs 1 + (number of splits) times.  Each panel's
    sums run over its own 22 values, so an f whose value at a point does
    not depend on the rest of its batch gives the floats of one call per
    panel.
    """
    if not (np.isfinite(a) and np.isfinite(b)) or b <= a:
        raise ValueError(f"bad integration interval [{a}, {b}]")
    xall = gl15_gl7_nodes()[0]
    n_evals = 0

    def eval_panels(los, his) -> list[tuple[float, float]]:
        nonlocal n_evals
        los, his = np.asarray(los, dtype=float), np.asarray(his, dtype=float)
        mids, halves = 0.5 * (los + his), 0.5 * (his - los)
        vals = f((mids[:, None] + halves[:, None] * xall).ravel())
        vals = vals.reshape(mids.size, xall.size)
        n_evals += vals.size
        v15, err = gl15_gl7(vals, halves)
        return list(zip(v15.tolist(), err.tolist()))

    pts = [a, b] + [float(s) for s in seeds if a < s < b]
    pts = sorted(set(pts))
    heap: list[tuple[float, int, float, float, float]] = []
    total = 0.0
    total_err = 0.0
    for lo, hi, (v, e) in zip(pts[:-1], pts[1:],
                              eval_panels(pts[:-1], pts[1:])):
        heapq.heappush(heap, (-e, len(heap), lo, hi, v))
        total += v
        total_err += e
    counter = len(heap)

    accepted_err = 0.0
    while len(heap) < max_panels:
        if not math.isfinite(total):  # then no split would ever stop
            raise DivergenceError(f"integral over [{a:g}, {b:g}] is {total}")
        if total_err <= rel_tol * max(abs(total), 1e-300):
            break
        neg_e, _, lo, hi, v = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if (hi - lo <= min_width_frac * max(abs(lo), abs(hi))
                or mid <= lo or mid >= hi):
            # cannot refine further (a discontinuity, or a width at the
            # rounding scale of its endpoints): accept its estimate
            heapq.heappush(heap, (0.0, counter, lo, hi, v))
            counter += 1
            total_err += neg_e
            accepted_err -= neg_e
            continue
        (v1, e1), (v2, e2) = eval_panels((lo, mid), (mid, hi))
        total += (v1 + v2) - v
        total_err += (e1 + e2) - (-neg_e)
        heapq.heappush(heap, (-e1, counter, lo, mid, v1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, hi, v2))
        counter += 1

    panels = sorted(heap, key=lambda t: t[2])
    value = float(np.sum(np.array([p[4] for p in panels])))
    error = float(np.sum(np.array([abs(p[0]) for p in panels])))
    return AdaptiveResult(value=value, error=error + accepted_err,
                          n_evals=n_evals, n_panels=len(panels),
                          edges=tuple(t[2] for t in panels) + (b,))


_EPS = np.finfo(float).eps
# every _CHECK steps, a root bracket whose width has not halved since the
# last check takes a midpoint step
_CHECK = 5


def vector_bisect(g: Callable[[np.ndarray], Callable],
                  lo: np.ndarray, hi: np.ndarray,
                  g_lo: np.ndarray, g_hi: np.ndarray,
                  iters: int = 300) -> np.ndarray:
    """Roots of a batch of sign-change brackets [lo, hi], by a safeguarded
    Illinois (modified regula falsi) iteration.

    g(idx) returns the residual of the brackets idx (an index array) as a
    function of one abscissa per bracket; `g_lo` and `g_hi` are the
    residuals at the ends, one positive and the other not, and the root
    is where "residual > 0" flips.  Each step goes to the secant point,
    kept at least tol = 2 eps max(|lo|, |hi|) inside the bracket (Brent's
    nudge, so a one-sided approach ends by crossing the root), and halves
    the residual of an end kept twice in a row.  Every _CHECK steps, a
    bracket whose width has not halved since the last check takes a
    midpoint step (counted as halving it), so the width halves at least
    that often.  A bracket is done once its width is at most 2 tol
    (4 ulp; its midpoint is returned) or a residual is exactly 0 (that
    abscissa is returned), or after `iters` steps, enough for about 60
    halvings.  Only unfinished brackets are evaluated, and each performs
    the float operations of a scalar run on that bracket, whatever batch
    it is in.  The name is that of the bisection this replaced, which the
    benchmark's per-layer metrics bind.
    """
    x0, x1 = np.array(lo, dtype=float), np.array(hi, dtype=float)
    f0, f1 = np.array(g_lo, dtype=float), np.array(g_hi, dtype=float)
    # x0 is the end kept by the last step and x1 the last point, first lo
    # and hi; a zero residual collapses the bracket onto its abscissa
    x1 = np.where(f0 == 0.0, x0, x1)
    x0 = np.where(f1 == 0.0, x1, x0)
    root = np.empty(x0.size)
    act = np.arange(x0.size)
    ref = np.full(x0.size, np.inf)  # the width at the last check
    for it in range(iters + 1):
        d = x1 - x0
        w = np.abs(d)
        tol = 2.0 * _EPS * np.maximum(np.abs(x0), np.abs(x1))
        done = w <= 2.0 * tol
        if done.any():
            root[act[done]] = (x0 + 0.5 * d)[done]
            more = ~done
            act, x0, x1, f0, f1, ref, d, w, tol = (
                v[more] for v in (act, x0, x1, f0, f1, ref, d, w, tol))
        if not act.size or it == iters:
            break
        e = tol / w
        c = x1 - np.fmin(np.fmax(f1 / (f1 - f0), e), 1.0 - e) * d
        if it % _CHECK == 0:
            mid = w > 0.5 * ref
            np.copyto(c, x0 + 0.5 * d, where=mid)
            ref = np.where(mid, 0.5 * w, w)
        fc = g(act)(c)
        # c replaces x1 when their residuals agree in sign; x0 is then
        # kept again (after the first step, twice in a row: the step that
        # made x1 kept it too), so its residual is halved
        again = (fc > 0.0) == (f1 > 0.0)
        x0 = np.where(again, x0, x1)
        f0 = np.where(again, 0.5 * f0 if it else f0, f1)
        np.copyto(x0, c, where=fc == 0.0)
        x1, f1 = c, fc
    root[act] = x0 + 0.5 * (x1 - x0)
    return root


def sign_pieces(residual: Callable[[np.ndarray], Callable],
                samples: np.ndarray, values: np.ndarray, path=None):
    """Cut sampled paths into pieces of constant residual sign.

    Row k of `values` (shape (m, s)) holds the residual of path k at
    increasing abscissae: row k of `samples`, or row path[k] when paths
    share their abscissae (so no (m, s) copy is made).  `residual(rows)`
    returns the residual of those rows as a function of an abscissa per
    row.  Every flip of `values > 0` between adjacent samples is solved
    for its root, all in one `vector_bisect` call seeded with the sampled
    values (none when nothing flips).  Returns (row, lo, hi, is_pos) of
    the non-empty pieces, by row and by abscissa within each row, so
    np.add.at accumulates them in a fixed order.
    """
    pos = values > 0.0
    brows, bloc = np.divmod(np.flatnonzero(pos[:, :-1] != pos[:, 1:]),
                            pos.shape[1] - 1)
    path = np.arange(pos.shape[0]) if path is None else path
    roots = np.empty(0)
    if brows.size:
        bpath = path[brows]
        roots = vector_bisect(lambda idx: residual(brows[idx]),
                              samples[bpath, bloc], samples[bpath, bloc + 1],
                              values[brows, bloc], values[brows, bloc + 1])
    # brows is non-decreasing, so row k owns a contiguous run of
    # nseg[k] - 1 roots; its piece j sits at first[k] + j (roots of
    # earlier rows + k + j), and root i closes piece i + brows[i] and
    # opens the next; piece signs alternate from pos[k, 0]
    nseg = np.bincount(brows, minlength=pos.shape[0]) + 1
    first = np.cumsum(nseg) - nseg
    row = np.repeat(np.arange(pos.shape[0]), nseg)
    lo = np.empty(row.size)
    hi = np.empty(row.size)
    at = np.arange(brows.size) + brows
    hi[at] = roots
    lo[at + 1] = roots
    lo[first] = samples[path, 0]
    hi[first + nseg - 1] = samples[path, -1]
    odd = (np.arange(row.size) - first[row]) % 2 == 1
    is_pos = pos[row, 0] ^ odd
    keep = hi > lo
    return row[keep], lo[keep], hi[keep], is_pos[keep]


def row_pieces(row: np.ndarray, x: np.ndarray, mark=None, ends=None):
    """Cut rows at their breaks: (row[i], x[i]) are the breaks, in any
    order, and a piece runs from one break of a row to the next larger
    one.  With `mark`, a break opens (+1) or closes (-1) an excluded
    stretch, and pieces starting while one is open are dropped.  Returns
    (row, lo, hi) of the pieces, by row and by abscissa within a row;
    with `ends`, lo and hi are ends(row, x) of the sorted breaks, mapped
    once a break although a piece's hi is the next one's lo."""
    order = np.lexsort((x, row))
    row, x = row[order], x[order]
    keep = (row[1:] == row[:-1]) & (x[1:] > x[:-1])
    if mark is not None:
        keep &= np.cumsum(mark[order])[:-1] == 0
    if ends is not None:
        x = ends(row, x)
    return row[:-1][keep], x[:-1][keep], x[1:][keep]


def bisect_bracket(below: Callable[[float], bool], lo: float, hi: float,
                   iters: int, grow_to: float | None = None
                   ) -> tuple[float, float, int] | None:
    """Bisect one scalar bracket: lo moves to the midpoint where
    below(mid) holds, hi otherwise.  Stops after `iters` steps or after
    a step that moved neither end (adjacent floats: the bracket is then a
    fixed point, so stopping changes no result); returns (lo, hi, steps).

    With grow_to, hi first doubles while below(hi) holds, and the result
    is None once hi passes grow_to."""
    while grow_to is not None and below(hi):
        hi *= 2.0
        if hi > grow_to:
            return None
    steps = 0
    while steps < iters:
        mid = 0.5 * (lo + hi)
        steps += 1
        if below(mid):
            moved, lo = mid != lo, mid
        else:
            moved, hi = mid != hi, mid
        if not moved:
            break
    return lo, hi, steps


_INV_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def golden_max(f: Callable, a, b, iters: int = 60, flat: bool = False):
    """Golden-section maximization of unimodal-ish functions on [a, b].

    For numbers `a` and `b`, f maps an abscissa to its value.  Arrays of
    brackets step in lockstep, and f(idx) then returns the values of the
    brackets idx (an index array) as a function of one abscissa each, as
    in `vector_bisect`.  A bracket stops once it is within 4 ulp, with
    `flat` also once its two inner values are within 4 ulp of the larger,
    and after `iters` steps at the latest.  Only unfinished brackets are
    evaluated, and each performs the float operations of a scalar run on
    its own bracket, whatever batch it is in.  Returns (argmax, max) of
    the inner pair, scalars for scalar brackets."""
    shape = np.broadcast(a, b).shape
    rows = f if shape else (lambda idx: lambda x: np.atleast_1d(f(x[0])))
    a, b = (np.array(np.broadcast_to(v, shape), dtype=float).ravel()
            for v in (a, b))
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    act = np.arange(a.size)
    fc, fd = rows(act)(c), rows(act)(d)
    arg, top = np.empty(a.size), np.empty(a.size)
    for it in range(iters + 1):
        done = b - a <= 4.0 * np.spacing(np.maximum(np.abs(a), np.abs(b)))
        if flat:
            done |= np.abs(fc - fd) <= 4.0 * np.spacing(
                np.abs(np.maximum(fc, fd)))
        if it == iters:
            done[:] = True
        if done.any():
            left = fc > fd
            arg[act[done]] = np.where(left, c, d)[done]
            top[act[done]] = np.where(left, fc, fd)[done]
            more = ~done
            act, a, b, c, d, fc, fd = (
                v[more] for v in (act, a, b, c, d, fc, fd))
        if not act.size:
            break
        # keep [a, d] (left) or [c, b]; the kept inner point changes slot
        left = fc > fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        new = np.where(left, b - _INV_GOLDEN * (b - a),
                       a + _INV_GOLDEN * (b - a))
        f_new = rows(act)(new)
        c, d, fc, fd = (np.where(left, new, d), np.where(left, c, new),
                        np.where(left, f_new, fd), np.where(left, fc, f_new))
    return arg.reshape(shape)[()], top.reshape(shape)[()]


def decade_seeds(centers, lo: float, hi: float, j0: int = 0) -> np.ndarray:
    """The points c +- 10^j, j >= j0, of each center c that lie strictly
    inside (lo, hi): breakpoints grading panels by decades about c.

    Panels spanning many decades hide all their mass from any fixed-node
    rule (every node lands where the integrand already vanished), which
    defeats error estimation; decade seeds keep panel scale ratios sane.
    """
    c = np.atleast_1d(np.asarray(centers, dtype=float))
    far = np.max(np.maximum(np.abs(lo - c), np.abs(hi - c)), initial=1.0)
    d = 10.0 ** np.arange(j0, int(np.log10(far)) + 1)
    s = np.add.outer(c, np.concatenate([d, -d])).ravel()
    return s[(lo < s) & (s < hi)]
