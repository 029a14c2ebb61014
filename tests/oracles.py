"""Test-only oracles: earlier, simpler forms of library routines, kept to
compare the current ones against bit for bit."""

import math
from fractions import Fraction

import warnings

import numpy as np

from lam.choice import _PIVOT_MIN, _dyadic


def dense_cholesky_solve(a: list[list[float]], b: list[float]) -> list[float] | None:
    """The solution of ``a x = b`` for symmetric positive definite ``a``.

    A plain Cholesky factorisation a = L L^T and two triangular solves,
    every sum taken by ``math.fsum`` in pure Python: no BLAS or LAPACK,
    so the result is the same on every CPU.  ``a`` and ``b`` must be
    finite.  Returns None when a pivot is not positive beyond
    ``_PIVOT_MIN`` of its diagonal entry, that is when ``a`` is indefinite
    or (numerically) singular.
    """
    m = len(b)
    low = [[0.0] * m for _ in range(m)]
    for j in range(m):
        d = math.fsum([a[j][j]] + [-low[j][k] ** 2 for k in range(j)])
        if not d > _PIVOT_MIN * abs(a[j][j]):
            return None
        low[j][j] = math.sqrt(d)
        for i in range(j + 1, m):
            s = math.fsum([a[i][j]] + [-low[i][k] * low[j][k] for k in range(j)])
            low[i][j] = s / low[j][j]
    y = [0.0] * m
    for i in range(m):
        y[i] = math.fsum([b[i]] + [-low[i][k] * y[k] for k in range(i)]) / low[i][i]
    x = [0.0] * m
    for i in reversed(range(m)):
        x[i] = math.fsum([y[i]] + [-low[k][i] * x[k] for k in range(i + 1, m)]) / low[i][i]
    return x


def mask_broadcast_utility(rho, anchor: str) -> dict:
    """``recover_luce_utility`` of a table that passes positivity and IIA, as
    it read the ratio graph before its edges came from the kernel's layout:
    each pair's shared menus from a menus x C(n, 2) mask, a walk that probes
    every alternative in index order, and a dense Laplacian built by dict
    probes and solved by :func:`dense_cholesky_solve`."""
    universe = rho.universe
    root = universe.index(anchor)
    view, n, exact = rho._dense, universe.size, rho.is_exact
    # the padded menus x universe arrays, rebuilt from the membership list
    mask = np.zeros((len(view.rows), n), bool)
    mask[view.row, view.col] = True
    e = np.zeros(mask.shape, view.values.dtype)
    e[view.row, view.col] = view.values
    step = {}
    xs, ys = np.triu_indices(n, 1)
    pair, menu = np.nonzero((mask[:, xs] & mask[:, ys]).T)
    linked, first, count = np.unique(pair, return_index=True, return_counts=True)
    if exact:
        menu = menu[first]
        xs, ys = xs[linked], ys[linked]
        for x, y, ex, ey in zip(xs.tolist(), ys.tolist(), e[menu, xs].tolist(), e[menu, ys].tolist()):
            step[x, y], step[y, x] = Fraction(ey, ex), Fraction(ex, ey)
    else:
        ex, ey = e[menu, xs[pair]], e[menu, ys[pair]]
        with np.errstate(over="ignore"):
            logs = list(map(math.log, (ey / ex).tolist()))
        if math.inf in logs:
            logs = [r if r < math.inf else math.log(b) - math.log(a)
                    for r, a, b in zip(logs, ex.tolist(), ey.tolist())]
        for x, y, lo, m in zip(xs[linked].tolist(), ys[linked].tolist(), first.tolist(), count.tolist()):
            step[x, y] = math.fsum(logs[lo : lo + m]) / m
            step[y, x] = -step[x, y]
    util = {root: Fraction(1)}
    frontier = [root]
    while frontier:
        here = frontier.pop()
        for nxt in range(n):
            if (here, nxt) in step and nxt not in util:
                util[nxt] = util[here] * step[here, nxt] if exact else None
                frontier.append(nxt)
    if not exact:
        free = [k for k in range(n) if k != root]
        degree = [sum((i, j) in step for j in range(n)) for i in range(n)]
        lap = [[float(degree[i]) if i == k else -float((i, k) in step) for k in free] for i in free]
        rhs = [math.fsum(step[j, k] for j in range(n) if (j, k) in step) for k in free]
        util = {root: 1.0}
        util.update((k, math.exp(x)) for k, x in zip(free, dense_cholesky_solve(lap, rhs)))
    return {a: util[k] for k, a in enumerate(universe.alternatives)}


def fraction_is_zero(poly, eff) -> bool:
    """``CubicPoly.is_zero`` of a float cubic with ``ints`` at the resolved
    tolerance ``eff``, as it read with three ``Fraction``s and the exponent
    from ``_dyadic`` of the cells."""
    den = 1 << -4 * _dyadic(poly.ab)[1]
    return Fraction(max(map(abs, poly.ints)), den) <= Fraction(eff) * Fraction(poly.scale)


# The EM kernels with one pass per Luce rule, as the fit ran them before it
# held (u, v) in one vector: ``view`` is a counts table's ``_dense`` view.


def _totals(view, x: np.ndarray) -> np.ndarray:
    """The total of ``x`` over each membership's menu, summed in member order."""
    return np.add.reduceat(x, view.start)[view.row]


def _by_alt(view, x: np.ndarray) -> np.ndarray:
    """Each alternative's total of ``x``, one value per membership, in menu order."""
    return np.bincount(view.col, x, view.bins)


def _luce(view, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Luce probabilities of utilities ``w`` at every membership, and its menu's total."""
    cells = w[view.col]
    totals = _totals(view, cells)
    return cells / totals, totals


def per_rule_e_step(view, u: np.ndarray, v: np.ndarray, a: float) -> tuple:
    """Both components' probabilities and menu totals per membership, and the mixture."""
    pu, su = _luce(view, u)
    pv, sv = _luce(view, v)
    return pu, su, pv, sv, a * pu + (1 - a) * pv


def _mm_step(view, w, weights, totals, anchor: int) -> np.ndarray:
    """One MM update of Luce utilities ``w`` on weighted counts."""
    wins = _by_alt(view, weights)
    denom = _by_alt(view, _totals(view, weights) / totals)
    new = np.divide(wins, denom, out=w.copy(), where=wins > 0)
    return new / new[anchor]


def per_rule_m_step(view, u, v, a: float, anchor: int, e: tuple) -> tuple:
    """The EM update of (u, v, alpha) from the E-step ``e`` at that point."""
    pu, su, pv, sv, mix = e
    if a <= 0.0 or a >= 1.0:
        warnings.warn(
            "alpha is at a boundary; freezing it and updating the active "
            "component only",
            RuntimeWarning,
            stacklevel=3,
        )
        if a >= 1.0:
            return _mm_step(view, u, view.values, su, anchor), v, a
        return u, _mm_step(view, v, view.values, sv, anchor), a
    wu = view.values * a * pu / mix
    return (
        _mm_step(view, u, wu, su, anchor),
        _mm_step(view, v, view.values - wu, sv, anchor),
        math.fsum(wu.tolist()) / float(view.values.sum()),
    )


def per_rule_gradient(view, e: tuple, a: float) -> tuple[np.ndarray, np.ndarray, float]:
    """The log-likelihood gradient at the E-step ``e`` of a point with weight ``a``:
    d/d log u and d/d log v for every alternative, and d/d logit alpha."""
    pu, _, pv, _, mix = e
    wu = view.values * a * pu / mix
    wv = view.values - wu
    d_u = _by_alt(view, wu - pu * _totals(view, wu))
    d_v = _by_alt(view, wv - pv * _totals(view, wv))
    return d_u, d_v, math.fsum((wu - a * view.values).tolist())


def per_rule_alpha_tilts(view, e: tuple, a: float) -> tuple[np.ndarray, np.ndarray]:
    """The Hessian's (log u, logit alpha) and (log v, logit alpha) entries
    of the alternatives but the anchor, index 0, at the E-step ``e``."""
    pu, _, pv, _, mix = e
    r = view.values / mix
    c = r / mix
    b = a * (1 - a)
    wu, wv = a * r * pu, (1 - a) * r * pv
    d = c * (pu - pv)

    def tilt(y, p):  # sum over memberships of y_k (e_k - p)
        return _by_alt(view, y - _totals(view, y) * p)[1:]

    return (tilt((1 - a) * wu - a * b * d * pu, pu),
            tilt(-a * wv - (1 - a) * b * d * pv, pv))
