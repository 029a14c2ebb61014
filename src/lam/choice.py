"""Forward choice models, instability measures, and Luce-rule utilities.

The Luce rule chooses x from S with probability u(x)/u(S) where
u(S) = sum of u over S.  The mixture model evaluated here is

    rho(x, S) = alpha * u(x)/u(S) + (1 - alpha) * v(x)/v(S).

Deviations from the Luce rule's IIA property are quantified by three
instability measures indexed by a tuple (x, y, S, T) with x, y in both
menus:

    own        D(t | rho)        = rho(x,S) rho(y,T) - rho(y,S) rho(x,T)
    cross      G(t | rho, rho')  = rho(x,S) rho'(y,T) - rho(y,S) rho'(x,T)
    composite  P(t | rho, rho')  = G(t | rho, rho') + G(t | rho', rho)

Own instability vanishes everywhere iff the function is a Luce rule;
composite instability vanishes everywhere iff the two rules share one
utility up to scale.  These measures carry all the identifying power of
IIA violations and are consumed by the lab and field identification
pipelines.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, compress, groupby, permutations
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .types import (
    InstabilityTuple,
    InsufficientDataError,
    InvalidParameterError,
    LamParams,
    Menu,
    NotLuceError,
    ROW_SUM_TOL,
    RegimeReport,
    Scalar,
    StochasticChoice,
    Universe,
    UtilityRangeError,
    _floats,
    _incidence,
    _rows,
    is_exact_scalar,
    resolve_tol,
    sup_distance,
)

__all__ = [
    "luce_choice",
    "lam_choice",
    "luce_table",
    "lam_table",
    "own_instability",
    "cross_instability",
    "composite_instability",
    "instability_tuples",
    "iia_violations",
    "satisfies_iia",
    "recover_luce_utility",
    "classify_regime",
]


# ---------------------------------------------------------------------------
# Forward models
# ---------------------------------------------------------------------------


def luce_choice(weights: Mapping[str, Scalar], menu: Iterable[str]) -> dict[str, Scalar]:
    """Luce choice probabilities u(x)/u(menu) for each member of the menu.

    Members are summed in the order of ``weights``, so a float total does
    not depend on the hash seed.
    """
    members = frozenset(menu)
    if not members:
        raise InvalidParameterError("menus must be non-empty")
    order = [a for a in weights if a in members]
    for a in order + sorted(members.difference(weights)):
        w = weights.get(a, math.nan)  # a Fraction is finite: test its numerator
        if not (w.numerator > 0 if type(w) is Fraction else 0 < w < math.inf):  # rejects NaN
            raise InvalidParameterError(
                f"utility for {a!r} must be positive and finite to form a Luce rule"
            )
    total = sum(weights[a] for a in order)
    if isinstance(total, int) and all(is_exact_scalar(weights[a]) for a in order):
        total = Fraction(total)  # keep integer weights on the exact path
    return {a: weights[a] / total for a in order}


def lam_choice(params: LamParams, menu: Iterable[str]) -> dict[str, Scalar]:
    """Mixture choice probabilities alpha*Luce(u) + (1-alpha)*Luce(v)."""
    pu = luce_choice(params.u, menu)
    pv = luce_choice(params.v, menu)
    a, b = params.alpha, 1 - params.alpha
    return {x: a * pu[x] + b * pv[x] for x in pu}


def luce_table(
    universe: Universe, weights: Mapping[str, Scalar], menus: Iterable[Iterable[str]]
) -> StochasticChoice:
    """Tabulate a Luce rule over the given menus."""
    return StochasticChoice(
        universe, {universe.menu(m): luce_choice(weights, m) for m in menus}
    )


def lam_table(params: LamParams, menus: Iterable[Iterable[str]]) -> StochasticChoice:
    """Tabulate the mixture model over the given menus."""
    u = params.universe
    return StochasticChoice(u, {u.menu(m): lam_choice(params, m) for m in menus})


def _mixture(params: LamParams, mask: np.ndarray):
    """:func:`lam_choice` at the cells (r, x) of a menus x universe ``mask``,
    row by row, as (r, x, num, den), or None unless the parameters are all
    Fractions or all floats.  Fraction parameters give int arrays, a cell
    being num/den; float parameters give float64 cells as ``num`` (den
    None) with the operands and rounding of ``lam_choice``, each rule's
    row totalled by ``sum`` in universe order.
    """
    a = params.alpha
    kinds = {type(s) for s in (a, *params.u.values(), *params.v.values())}
    if kinds != {Fraction} and kinds != {float}:
        return None
    exact, rows = kinds == {Fraction}, mask.tolist()
    r, x = np.nonzero(mask)
    cells = []
    for w in (list(params.u.values()), list(params.v.values())):  # universe order
        if exact:  # ints over the rule's lcm
            lcm = math.lcm(*(p.denominator for p in w))
            w = [p.numerator * (lcm // p.denominator) for p in w]
        totals = np.array([sum(compress(w, m)) for m in rows], dtype=object if exact else float)
        cells.append((np.array(w, dtype=object)[x], totals[r]) if exact else np.array(w)[x] / totals[r])
    if not exact:
        return r, x, a * cells[0] + (1 - a) * cells[1], None
    (u, us), (v, vs) = cells
    return r, x, a.numerator * u * vs + (a.denominator - a.numerator) * v * us, a.denominator * us * vs


def _residual(params: LamParams, rho: StochasticChoice) -> Scalar:
    """``sup_distance(lam_table(params, rho.domain), rho)``, from rho's dense view.

    With :func:`_mixture`'s cells, Fraction parameters give each predicted
    cell as N/D in ints, differenced in ints from exact data and taken as
    float(N/D) against float data; with float parameters a predicted row that
    the validating :class:`StochasticChoice` would reject raises its error.
    Parameters that mix Fractions and floats take the table path itself.
    """
    view = rho._dense
    cells = _mixture(params, view.mask)
    if cells is None:
        return sup_distance(lam_table(params, rho.domain), rho)
    r, x, pred, den = cells
    if den is not None and rho.is_exact:
        diff = view.scale[r] * pred - view.entries[r, x] * den
        miss = diff != 0
        if not miss.any():
            return 0
        return max(map(Fraction, np.abs(diff[miss]).tolist(), (view.scale[r] * den)[miss].tolist()))
    pred = pred if den is None else (pred / den).astype(float)  # int / int rounds correctly
    # screen for rows with a cell off [0, 1] or a sum off 1, with a margin
    # that covers the summation order; the table path validates the
    # flagged rows in domain order, raising on the first bad one
    inside = (pred >= -ROW_SUM_TOL) & (pred <= 1 + ROW_SUM_TOL)
    sums = np.bincount(r, np.where(inside, pred, np.nan))
    for i in np.flatnonzero(~(np.abs(sums - 1) <= ROW_SUM_TOL / 2)).tolist():
        lam_table(params, [rho.domain[i]])
    worst = max(np.abs(pred - _floats(view.entries, view.scale)[view.mask]).tolist())
    return worst if worst > 0 else 0


# ---------------------------------------------------------------------------
# Instability measures
# ---------------------------------------------------------------------------


def own_instability(rho: StochasticChoice, t: InstabilityTuple) -> Scalar:
    """rho(x,S) rho(y,T) - rho(y,S) rho(x,T); zero for every Luce rule."""
    return rho.prob(t.x, t.menu_s) * rho.prob(t.y, t.menu_t) - rho.prob(
        t.y, t.menu_s
    ) * rho.prob(t.x, t.menu_t)


def cross_instability(
    rho: StochasticChoice, other: StochasticChoice, t: InstabilityTuple
) -> Scalar:
    """rho(x,S) rho'(y,T) - rho(y,S) rho'(x,T); not symmetric in its arguments."""
    return rho.prob(t.x, t.menu_s) * other.prob(t.y, t.menu_t) - rho.prob(
        t.y, t.menu_s
    ) * other.prob(t.x, t.menu_t)


def composite_instability(
    rho: StochasticChoice, other: StochasticChoice, t: InstabilityTuple
) -> Scalar:
    """Symmetrized cross instability: G(rho, rho') + G(rho', rho)."""
    return cross_instability(rho, other, t) + cross_instability(other, rho, t)


def instability_tuples(
    universe: Universe,
    menus: Iterable[Menu],
    canonical: bool = False,
) -> Iterator[InstabilityTuple]:
    """All tuples (x, y, S, T), S != T, with x, y in S and T, in lexicographic order.

    With ``canonical=True`` only one representative of each sign-equivalent
    family is produced (x before y in universe order, S before T in menu
    order): a quarter of the full set, since swapping x and y or S and T
    flips the sign of every instability measure.  The library's own scans
    walk this canonical order without building tuple objects.
    """
    pick = combinations if canonical else permutations
    menus = sorted({frozenset(m) for m in menus}, key=universe.menu_key)
    for x, y in pick(universe.alternatives, 2):
        holding = [m for m in menus if x in m and y in m]
        for s, t in pick(holding, 2):
            yield InstabilityTuple(x, y, s, t)


def _floor_scaled(eff: Scalar, scale):
    """floor(eff * scale) for ``eff`` >= 0 and ints ``scale`` >= 0, an int or
    an object array of them.

    For an int x and real E >= 0, x > E iff x > floor(E) and x < -E iff
    x < -floor(E), so an exact value x / scale is tested against ``eff``
    in ints, a float ``eff`` taken at its exact binary value, whose
    denominator 2**k a right shift by k divides by as ``//`` does.
    """
    r = Fraction(eff)
    k = r.denominator.bit_length() - 1
    return scale * r.numerator >> k if r.denominator == 1 << k else scale * r.numerator // r.denominator


def _row_bound(eff: Scalar, scale: np.ndarray | None):
    """``eff`` against rows from :func:`types._rows`: as it is for float
    rows (``scale`` None), and floor(eff c_S) as a column for rows of ints
    over ``scale`` = c_S."""
    return eff if scale is None else _floor_scaled(eff, scale)[:, None]


def _dyadic(x: np.ndarray) -> tuple[np.ndarray, int]:
    """Float64 values as object ints m and one exponent b <= 0 with
    x = m 2**b exactly: a float64 is f 2**e with 2**53 f an int."""
    frac, exp = np.frexp(x)
    b = int(exp.min(initial=53)) - 53
    return np.ldexp(frac, 53).astype(np.int64).astype(object) << (exp - 53 - b).astype(object), b


@lru_cache(maxsize=64)
def _triangle(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the S < T triangle of ``m`` menus, row by row."""
    return np.triu_indices(m, 1)


#: Tuples one array pass covers at most, which bounds the memory of a pass.
_PASS_TUPLES = 1 << 12


@lru_cache(maxsize=8)
def _layout(universe: Universe, menus: tuple[Menu, ...]):
    """Runs of the pairs sharing menus, and the runs' offsets in the tuple order.

    A run ``(xs, ys, held)`` is consecutive pairs x before y holding equally
    many menus, at least two, with those menus' rows in ``held``, a row per
    pair, and at most ``_PASS_TUPLES`` tuples unless one pair has more.
    """
    inc = _incidence(universe, menus)
    pairs = []
    for x, y in combinations(range(universe.size), 2):
        held = np.flatnonzero(inc[:, x] & inc[:, y])
        if len(held) > 1:
            pairs.append((x, y, held))
    runs, sizes = [], [0]
    for h, group in groupby(pairs, key=lambda pair: len(pair[2])):
        group, tuples = list(group), h * (h - 1) // 2
        step = max(1, _PASS_TUPLES // tuples)
        for i in range(0, len(group), step):
            xs, ys, held = zip(*group[i : i + step])
            runs.append((np.array(xs), np.array(ys), np.stack(held)))
            sizes.append(len(xs) * tuples)
    return runs, np.cumsum(sizes)


class _Kernel:
    """Own and composite instability of every canonical tuple, run by run.

    Fix alternatives x before y and let a, b be rho(x, .), rho(y, .) over
    the menus holding both, in canonical order, with primes for ``other``.
    The pair's tuples are the triangle S < T, where own instability is
    a_S b_T - b_S a_T = det(a, b) and composite instability is
    det(a, b') + det(a', b).  :meth:`arrays` evaluates them a run of pairs
    per array pass, in the order of ``instability_tuples(canonical=True)``;
    :meth:`sums` gets their exact sums from inner products.

    The rows and their ``mask`` come from :func:`types._rows`.  Float rows
    keep the operand order of :func:`own_instability` and
    :func:`composite_instability`, so they agree bit for bit.  Exact rows
    are ints over each menu's joint lcm c_S, and the tuple (S, T) carries d
    and p times ``k`` = c_S c_T.  Sign and ratio tests do not see the
    scale, and :meth:`scaled` puts a tolerance on it.
    """

    def __init__(
        self, rho: StochasticChoice, menus: Sequence[Menu], other: StochasticChoice | None = None
    ):
        self.universe = rho.universe
        self.menus = tuple(menus)
        tables = [rho] if other is None else [rho, other]
        self.mask, self.c, (self.mine, *theirs) = _rows(tables, self.menus)
        self.exact = self.c is not None
        self.theirs = theirs[0] if theirs else None
        self.runs, self.starts = _layout(self.universe, self.menus)

    def tuple_at(self, i: int) -> InstabilityTuple:
        """The i-th canonical tuple."""
        r = int(np.searchsorted(self.starts, i, side="right")) - 1
        xs, ys, held = self.runs[r]
        s, t = _triangle(held.shape[1])
        q, j = divmod(int(i - self.starts[r]), len(s))
        alts, menus = self.universe.alternatives, self.menus
        return InstabilityTuple(alts[xs[q]], alts[ys[q]], menus[held[q, s[j]]], menus[held[q, t[j]]])

    def value(self, v: np.ndarray, i: int) -> Scalar:
        """The true value of tuple i's entry of a d or p array from :meth:`arrays`."""
        return Fraction(v[i], self.k[i]) if self.exact else float(v[i])

    def _passes(self, mine: np.ndarray, theirs: np.ndarray | None, among=None):
        """Per run: ``ends``, ``held``, d and p (None without ``theirs``) of its
        tuples, or of those ``among`` flags; ``ends`` maps per-menu values
        shaped as ``held`` to their values at S and at T of those tuples."""
        for (xs, ys, held), lo in zip(self.runs, self.starts):
            s, t = _triangle(held.shape[1])
            if among is None:
                def ends(v):
                    return v.take(s, axis=1).ravel(), v.take(t, axis=1).ravel()
            else:
                q, j = np.divmod(np.flatnonzero(among[lo : lo + len(xs) * len(s)]), len(s))
                if not len(q):
                    continue

                def ends(v):
                    return v[q, s[j]], v[q, t[j]]
            sx, tx = ends(mine[held, xs[:, None]])
            sy, ty = ends(mine[held, ys[:, None]])
            d, p = sx * ty - sy * tx, None
            if theirs is not None:
                (sx2, tx2), (sy2, ty2) = (ends(theirs[held, zs[:, None]]) for zs in (xs, ys))
                p = (sx * ty2 - sy * tx2) + (sx2 * ty - sy2 * tx)
            yield ends, held, d, p

    def arrays(self) -> tuple[np.ndarray, np.ndarray | None]:
        """(d, p) over all canonical tuples, one run per array pass.

        p is None without ``other``.  Sets ``k``, the tuples' scale, which
        is None in float mode.
        """
        empty = np.zeros(0, self.mine.dtype)  # for a layout with no pairs
        ds, ps, ks = [empty], [empty], [empty]
        for ends, held, d, p in self._passes(self.mine, self.theirs):
            ds.append(d)
            ps.append(p)
            if self.exact:
                cs, ct = ends(self.c[held])
                ks.append(cs * ct)
        self.k = np.concatenate(ks) if self.exact else None
        return np.concatenate(ds), None if self.theirs is None else np.concatenate(ps)

    def parallel(self) -> Iterator[bool]:
        """Per pair, in order, whether all its own instabilities vanish (exact mode).

        By Lagrange's identity they do iff |a|^2 |b|^2 = (a.b)^2, that is,
        iff a and b are parallel, which the menu scales do not change.
        """
        for xs, ys, held in self.runs:
            a, b = self.mine[held, xs[:, None]], self.mine[held, ys[:, None]]
            yield from (a * a).sum(1) * (b * b).sum(1) == (a * b).sum(1) ** 2

    @cached_property
    def ints(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows of ``rho`` and ``other`` side by side as ints, and per menu
        the weight that puts a product of two of its entries on a scale B**2:
        exact rows weighted (B / c_S)**2 for B the lcm of the c_S, and float
        rows as ints over B = 2**(53 - min e), a float64 being f 2**e with
        2**53 f an int, weighted 1."""
        rows = np.concatenate([self.mine, self.theirs], axis=1)
        if self.exact:
            return rows, (math.lcm(*self.c) // self.c) ** 2
        return _dyadic(rows)[0], np.ones(len(rows), dtype=object)

    def sums(self) -> tuple[int, int, int]:
        """Exact sums of d*d, d*p and p*p over every canonical tuple, times
        B**4 for the scale B of :attr:`ints`.  By Binet-Cauchy the sum over
        S < T of det(u, v) det(w, z) is (u.w)(v.z) - (u.z)(v.w): a pair
        costs the Gram matrix of a, b, a', b', a run one stacked product.
        """
        n, (rows, weight) = self.universe.size, self.ints
        dd = dp = pp = 0
        for xs, ys, held in self.runs:
            g = rows[held[:, :, None], np.stack([xs, ys, n + xs, n + ys], axis=1)[:, None, :]]
            gram = np.matmul((g * weight[held][:, :, None]).transpose(0, 2, 1), g)
            for (aa, ab, aa2, ab2), (_, bb, ba2, bb2), (*_, a2a2, a2b2), (*_, b2b2) in gram.tolist():
                dd += aa * bb - ab * ab
                dp += aa * bb2 - ab2 * ab + aa2 * bb - ab * ba2
                pp += aa * b2b2 - ab2 * ab2 + 2 * (aa2 * bb2 - ab * a2b2) + a2a2 * bb - ba2 * ba2
        return dd, dp, pp

    def terms(self, among: np.ndarray) -> tuple[int, int]:
        """Exact sums of d*p and p*p over the tuples ``among`` flags, as :meth:`sums`."""
        n, (rows, weight) = self.universe.size, self.ints
        dp = pp = 0
        for ends, held, d, p in self._passes(rows[:, :n], rows[:, n:], among):
            ws, wt = ends(weight[held])
            wp = ws * wt * p
            dp += d.dot(wp)
            pp += p.dot(wp)
        return dp, pp

    def scaled(self, eff: Scalar, power: int = 1, ref: int | None = None):
        """``eff`` on the scale of each tuple's values to ``power``, or of
        their products with tuple ``ref``'s values, floored as
        :func:`_floor_scaled` does, so that integer tests against it agree
        with the tests of the true values against ``eff``.
        """
        if not self.exact:
            return eff
        if eff == 0:
            return 0
        return _floor_scaled(eff, self.k**power if ref is None else self.k * self.k[ref])


def _first_true(mask: np.ndarray) -> int | None:
    return int(np.argmax(mask)) if mask.any() else None


def _running_max(
    num: np.ndarray, den: np.ndarray | None = None, among: np.ndarray | None = None
) -> int | None:
    """Where a scan's running maximum of num/den ends among the flagged tuples.

    The scan keeps the first flagged tuple (all are flagged by default)
    and moves from the kept b to a later flagged k only when
    num[k] * den[b] > num[b] * den[k], or num[k] > num[b] without ``den``,
    evaluated as the per-tuple checks do: rounded in float mode, where the
    test need not be transitive.  Each step tests a growing window after b
    at once, so the cost is one pass over the arrays plus a few calls per
    move.
    """
    b = _first_true(among) if among is not None else 0 if len(num) else None
    if b is None:
        return None
    lo, width = b + 1, 256
    while lo < len(num):
        hi = min(lo + width, len(num))
        if den is None:
            beats = num[lo:hi] > num[b]
        else:
            beats = num[lo:hi] * den[b] > num[b] * den[lo:hi]
        j = _first_true(beats if among is None else beats & among[lo:hi])
        if j is None:
            lo, width = hi, 2 * width
        else:
            b, lo, width = lo + j, lo + j + 1, 256
    return b


def _own_violations(rho: StochasticChoice, eff: Scalar) -> tuple[_Kernel, np.ndarray | None]:
    """The kernel of ``rho``, and the mask of canonical tuples whose own
    instability exceeds ``eff`` in magnitude, or None when none does; at
    tol 0 on exact data the tuples are evaluated only when some pair is not
    parallel."""
    kernel = _Kernel(rho, rho.domain)
    if kernel.exact and eff == 0 and all(kernel.parallel()):
        return kernel, None
    d, _ = kernel.arrays()
    bad = np.abs(d) > kernel.scaled(eff)
    return kernel, bad if bad.any() else None


def _first_nonpositive(rho: StochasticChoice, eff: Scalar) -> tuple[Menu, str] | None:
    """The first (menu, alternative), in canonical order, with probability <= ``eff``;
    exact rows are tested in ints, over their lcm c_S, against floor(eff c_S)."""
    view = rho._dense
    i = _first_true(view.mask & ~(view.entries > _row_bound(eff, view.scale)))
    if i is None:
        return None
    row, col = divmod(i, rho.universe.size)
    return rho.domain[row], rho.universe.alternatives[col]


def iia_violations(rho: StochasticChoice, tol: Scalar | None = None) -> list[InstabilityTuple]:
    """Every tuple whose own instability exceeds ``tol`` in magnitude.

    An empty list means the function satisfies IIA at that tolerance.
    Enumeration order is deterministic (lexicographic in (x, y, S, T)).
    The scan is :func:`satisfies_iia`'s: each canonical violation stands for
    its four sign-equivalent tuples, of equal |own instability| bit for bit.
    """
    kernel, bad = _own_violations(rho, resolve_tol(tol, rho.is_exact))
    found = () if bad is None else map(kernel.tuple_at, np.flatnonzero(bad).tolist())
    full = [InstabilityTuple(x, y, s, t) for c in found for x, y in ((c.x, c.y), (c.y, c.x))
            for s, t in ((c.menu_s, c.menu_t), (c.menu_t, c.menu_s))]
    index, key = rho.universe.index, rho.universe.menu_key
    return sorted(full, key=lambda t: (index(t.x), index(t.y), key(t.menu_s), key(t.menu_t)))


def satisfies_iia(rho: StochasticChoice, tol: Scalar | None = None) -> bool:
    """IIA test; ``not iia_violations(rho, tol)``, from the same canonical scan."""
    return _own_violations(rho, resolve_tol(tol, rho.is_exact))[1] is None


# ---------------------------------------------------------------------------
# Luce utility recovery
# ---------------------------------------------------------------------------


#: The smallest Cholesky pivot :func:`_cholesky_solve` accepts, relative to
#: its diagonal entry.
_PIVOT_MIN = 1e-12


def _cholesky_solve(a: list[list[float]], b: list[float]) -> list[float] | None:
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


def recover_luce_utility(
    rho: StochasticChoice, anchor: str, tol: Scalar | None = None
) -> dict[str, Scalar]:
    """Recover the utility of a Luce rule, normalized to 1 at the anchor.

    For any menu S containing both a and b, IIA makes rho(b,S)/rho(a,S)
    menu-independent, so utilities follow by chaining these ratios from the
    anchor.  Exact mode reads each ratio off the first menu holding both, in
    ints, and chains them.  Float mode gives each linked pair (a, b) the
    mean of log rho(b,S)/rho(a,S) over its shared menus and fits log u to
    all of them at once by least squares with log u(anchor) = 0: the
    normal equations are the ratio graph's Laplacian without the anchor's
    row and column, solved by :func:`_cholesky_solve` (HodgeRank; Jiang,
    Lim, Yao & Ye 2011), with every sum taken by ``math.fsum``.

    Raises :class:`NotLuceError` if positivity fails or IIA is violated
    beyond ``tol``, :class:`InsufficientDataError` if some alternative
    cannot be chained back to the anchor through shared menus, and in
    float mode :class:`UtilityRangeError` if a utility relative to the
    anchor's overflows float64 or underflows to 0.
    """
    universe = rho.universe
    root = universe.index(anchor)
    eff = resolve_tol(tol, rho.is_exact)

    zero = _first_nonpositive(rho, eff)
    if zero is not None:
        raise NotLuceError(
            f"positivity fails: probability of {zero[1]!r} in "
            f"{universe.sorted_members(zero[0])} is not above {eff!r}"
        )
    kernel, bad = _own_violations(rho, eff)
    if bad is not None:
        # each canonical violation stands for four sign-equivalent tuples,
        # and the first in lexicographic order is the canonical one
        raise NotLuceError(
            f"IIA violated at tolerance {eff!r} for {4 * int(bad.sum())} tuples, e.g. "
            + kernel.tuple_at(_first_true(bad)).describe(universe)
        )

    # one edge per pair of alternatives sharing menus, both ways: step[x, y]
    # is u(y)/u(x) from the first shared menu in exact mode, and the mean of
    # log u(y)/u(x) over the shared menus in float mode
    view, n, exact = rho._dense, universe.size, rho.is_exact
    e = view.entries  # ints over each row's lcm when exact
    step: dict[tuple[int, int], Scalar] = {}
    # a ratio over a subnormal entry may overflow; its log is then taken as
    # log e_y - log e_x, which stays in range
    with np.errstate(over="ignore"):
        for x, y in combinations(range(n), 2):
            held = view.mask[:, x] & view.mask[:, y]
            if not held.any():
                continue
            if exact:
                i = _first_true(held)
                step[x, y], step[y, x] = Fraction(e[i, y], e[i, x]), Fraction(e[i, x], e[i, y])
                continue
            ex, ey = e[held, x], e[held, y]
            logs = list(map(math.log, (ey / ex).tolist()))
            if math.inf in logs:
                logs = [
                    r if r < math.inf else math.log(b) - math.log(a)
                    for r, a, b in zip(logs, ex.tolist(), ey.tolist())
                ]
            step[x, y] = math.fsum(logs) / len(logs)
            step[y, x] = -step[x, y]

    # float mode reads only which alternatives the walk reaches
    util: dict[int, Scalar] = {root: Fraction(1)}
    frontier = [root]
    while frontier:
        here = frontier.pop()
        for nxt in range(n):
            if (here, nxt) in step and nxt not in util:
                util[nxt] = util[here] * step[here, nxt] if exact else None
                frontier.append(nxt)

    missing = [a for k, a in enumerate(universe.alternatives) if k not in util]
    if missing:
        raise InsufficientDataError(
            "ratio graph is disconnected: no menu chain links "
            f"{missing} to the anchor {anchor!r}"
        )

    if not exact:
        # minimise the sum over edges of (l_y - l_x - step[x, y])^2 in
        # l = log u: the Laplacian's diagonal holds the degrees, with -1
        # per edge, and row k's right-hand side sums step[j, k] over k's
        # neighbours j
        free = [k for k in range(n) if k != root]
        degree = [sum((i, j) in step for j in range(n)) for i in range(n)]
        lap = [[float(degree[i]) if i == k else -float((i, k) in step) for k in free] for i in free]
        rhs = [math.fsum(step[j, k] for j in range(n) if (j, k) in step) for k in free]
        logs = _cholesky_solve(lap, rhs)
        util = {root: 1.0}
        for k, x in zip(free, logs):
            try:
                util[k] = math.exp(x)
            except OverflowError:
                util[k] = math.inf
            if not 0.0 < util[k] < math.inf:
                raise UtilityRangeError(
                    f"utility of {universe.alternatives[k]!r} against the anchor "
                    f"{anchor!r} is exp({x!r}), outside float64's range"
                )
    return {a: util[k] for k, a in enumerate(universe.alternatives)}


# ---------------------------------------------------------------------------
# Regime classification
# ---------------------------------------------------------------------------


def classify_regime(params: LamParams, tol: Scalar | None = None) -> RegimeReport:
    """Label the behavioral regime of a parameter tuple.

    On the canonical scale (anchor values 1): aligned when v = u within
    tol, compliant when alpha >= 1 - tol, autonomous when alpha <= tol,
    adversarial when v(a) * u(a) = 1 for all a within tol (v is the
    reciprocal utility), misaligned otherwise.  Precedence follows that
    order; ties at tolerance boundaries take the earlier label.
    """
    eff = resolve_tol(tol, params.is_exact)
    u, v = params.u, params.v
    alts = params.universe.alternatives
    ratio = params.ratio()

    if all(abs(v[a] - u[a]) <= eff for a in alts):
        regime = "aligned"
    elif params.alpha >= 1 - eff:
        regime = "compliant"
    elif params.alpha <= eff:
        regime = "autonomous"
    elif all(abs(u[a] * v[a] - 1) <= eff for a in alts):
        regime = "adversarial"
    else:
        regime = "misaligned"
    return RegimeReport(regime=regime, ratio=ratio, tol=eff)
