"""Deterministic 1D quadrature and root-isolation utilities.

Everything here is plumbing shared by the heavier modules: fixed
Gauss-Legendre rules on arbitrary pieces (`piece_nodes`) and on
contiguous panels (`panel_nodes`), an adaptive panel-splitting
integrator with a reproducible refinement order, vectorized bisection
for batches of sign-change brackets, the sign-change sectioning of
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
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np


@lru_cache(maxsize=32)
def gauss_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def piece_nodes(lo: np.ndarray, hi: np.ndarray, n: int = 15
                ) -> tuple[np.ndarray, np.ndarray]:
    """GL nodes/weights on each piece [lo[i], hi[i]]; both of shape
    (k, n), one row per piece."""
    x, w = gauss_nodes(n)
    half = 0.5 * (hi - lo)
    mid = lo + half
    return mid[:, None] + half[:, None] * x[None, :], half[:, None] * w[None, :]


def panel_nodes(edges: np.ndarray, n: int = 15) -> tuple[np.ndarray, np.ndarray]:
    """Flattened GL nodes/weights for the composite rule over consecutive
    panels given by `edges` (shape (k+1,)).  Returns (nodes, weights) of
    length k*n, ordered panel by panel."""
    nodes, weights = piece_nodes(edges[:-1], edges[1:], n)
    return nodes.ravel(), weights.ravel()


@dataclass
class AdaptiveResult:
    value: float
    error: float
    n_evals: int
    n_panels: int


def adaptive_integrate(f: Callable[[np.ndarray], np.ndarray],
                       a: float, b: float, *,
                       rel_tol: float = 1e-9,
                       seeds: Sequence[float] = (),
                       max_panels: int = 4000,
                       min_width_frac: float = 1e-13) -> AdaptiveResult:
    """Adaptive composite Gauss integration of f over [a, b].

    Each panel is evaluated with GL15 and GL7 in a single batched call;
    their difference is the panel error.  The worst panel (ties broken
    by creation index, so refinement order is reproducible) is split in
    half until the summed error drops below rel_tol times the running
    total.  `seeds` are interior breakpoints (kinks, support edges) used
    for the initial partition.  The final sum runs over panels sorted by
    left endpoint.
    """
    if not (np.isfinite(a) and np.isfinite(b)) or b <= a:
        raise ValueError(f"bad integration interval [{a}, {b}]")
    x15, w15 = gauss_nodes(15)
    x7, w7 = gauss_nodes(7)
    xall = np.concatenate([x15, x7])

    n_evals = 0

    def eval_panel(lo: float, hi: float) -> tuple[float, float]:
        nonlocal n_evals
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        vals = f(mid + half * xall)
        n_evals += xall.size
        i15 = half * float(np.sum(w15 * vals[:15]))
        i7 = half * float(np.sum(w7 * vals[15:]))
        return i15, abs(i15 - i7)

    pts = [a, b] + [float(s) for s in seeds if a < s < b]
    pts = sorted(set(pts))
    heap: list[tuple[float, int, float, float, float]] = []
    counter = 0
    total = 0.0
    total_err = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        v, e = eval_panel(lo, hi)
        heapq.heappush(heap, (-e, counter, lo, hi, v))
        counter += 1
        total += v
        total_err += e

    min_width = min_width_frac * (b - a)
    while len(heap) < max_panels:
        if total_err <= rel_tol * max(abs(total), 1e-300):
            break
        neg_e, _, lo, hi, v = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if hi - lo <= min_width or mid <= lo or mid >= hi:
            # cannot refine further (discontinuity or sub-ulp width on a
            # huge domain); accept its estimate
            heapq.heappush(heap, (0.0, counter, lo, hi, v))
            counter += 1
            continue
        v1, e1 = eval_panel(lo, mid)
        v2, e2 = eval_panel(mid, hi)
        total += (v1 + v2) - v
        total_err += (e1 + e2) - (-neg_e)
        heapq.heappush(heap, (-e1, counter, lo, mid, v1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, hi, v2))
        counter += 1

    panels = sorted(heap, key=lambda t: t[2])
    value = float(np.sum(np.array([p[4] for p in panels])))
    error = float(np.sum(np.array([abs(p[0]) for p in panels])))
    return AdaptiveResult(value=value, error=error,
                          n_evals=n_evals, n_panels=len(panels))


def vector_bisect(g: Callable[[np.ndarray], np.ndarray],
                  lo: np.ndarray, hi: np.ndarray,
                  lo_positive: np.ndarray,
                  iters: int = 60) -> np.ndarray:
    """Bisect a batch of sign-change brackets simultaneously.

    g maps an array of abscissae to residual values; `lo_positive` gives
    the sign of g at each `lo`.  All brackets shrink in lockstep for at
    most `iters` calls of g, stopping early after a step that moved no
    bracket end (every bracket is then a fixed point, so stopping changes
    no result).
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        same = (g(mid) > 0.0) == lo_positive
        new_lo = np.where(same, mid, lo)
        new_hi = np.where(same, hi, mid)
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    return 0.5 * (lo + hi)


def sign_pieces(residual: Callable[[np.ndarray], Callable],
                samples: np.ndarray, pos: np.ndarray):
    """Cut sampled paths into pieces of constant residual sign.

    Row k of `samples` (shape (m, s)) holds increasing abscissae of one
    path and row k of `pos` whether the residual is positive there.
    `residual(rows)` returns the residual of those rows as a function of
    an abscissa per row.  Every sign flip between adjacent samples is
    bisected, all in one `vector_bisect` call (none when nothing flips).
    Returns (row, lo, hi, is_pos) of the non-empty pieces, by row and by
    abscissa within each row, so np.add.at accumulates them in a fixed
    order.
    """
    brows, bloc = np.divmod(np.flatnonzero(pos[:, :-1] != pos[:, 1:]),
                            pos.shape[1] - 1)
    roots = np.empty(0)
    if brows.size:
        roots = vector_bisect(residual(brows), samples[brows, bloc],
                              samples[brows, bloc + 1], pos[brows, bloc],
                              iters=60)
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
    lo[first] = samples[:, 0]
    hi[first + nseg - 1] = samples[:, -1]
    odd = (np.arange(row.size) - first[row]) % 2 == 1
    is_pos = pos[row, 0] ^ odd
    keep = hi > lo
    return row[keep], lo[keep], hi[keep], is_pos[keep]


def row_pieces(row: np.ndarray, x: np.ndarray, mark=None):
    """Cut rows at their breaks: (row[i], x[i]) are the breaks, in any
    order, and a piece runs from one break of a row to the next larger
    one.  With `mark`, a break opens (+1) or closes (-1) an excluded
    stretch, and pieces starting while one is open are dropped.  Returns
    (row, lo, hi) of the pieces, by row and by abscissa within a row."""
    order = np.lexsort((x, row))
    row, x = row[order], x[order]
    keep = (row[1:] == row[:-1]) & (x[1:] > x[:-1])
    if mark is not None:
        keep &= np.cumsum(mark[order])[:-1] == 0
    return row[:-1][keep], x[:-1][keep], x[1:][keep]


def bisect_bracket(below: Callable[[float], bool], lo: float, hi: float,
                   iters: int, rel_width: float = 0.0
                   ) -> tuple[float, float, int]:
    """Bisect one scalar bracket: lo moves to the midpoint where
    below(mid) holds, hi otherwise.  Stops after `iters` steps, once
    hi - lo <= rel_width * hi, or after a step that moved neither end
    (adjacent floats: the bracket is then a fixed point, so stopping
    changes no result); returns (lo, hi, steps)."""
    steps = 0
    while steps < iters and hi - lo > rel_width * hi:
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


def golden_max(f: Callable, a, b, iters: int = 60):
    """Golden-section maximization of unimodal-ish functions on [a, b].

    `a` and `b` are numbers or arrays of brackets, which then step in
    lockstep: f maps an array of abscissae, one per bracket, to their
    values, and each element performs the float operations of a scalar
    run on its own bracket.  Returns (argmax, max), scalars for scalar
    brackets."""
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        # keep [a, d] (left) or [c, b]; the kept inner point changes slot
        left = fc > fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        new = np.where(left, b - _INV_GOLDEN * (b - a),
                       a + _INV_GOLDEN * (b - a))
        f_new = f(new)
        c, d, fc, fd = (np.where(left, new, d), np.where(left, c, new),
                        np.where(left, f_new, fd), np.where(left, fc, f_new))
    return np.where(fc > fd, c, d)[()], np.where(fc > fd, fc, fd)[()]


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
