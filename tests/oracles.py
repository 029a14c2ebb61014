"""Test-only oracles: earlier, simpler forms of library routines, kept to
compare the current ones against bit for bit."""

import math
from fractions import Fraction

import numpy as np

from lam.choice import _PIVOT_MIN


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
    e = view.entries
    step = {}
    xs, ys = np.triu_indices(n, 1)
    pair, menu = np.nonzero((view.mask[:, xs] & view.mask[:, ys]).T)
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
