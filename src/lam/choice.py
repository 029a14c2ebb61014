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
from itertools import combinations, compress, groupby, permutations, repeat
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
    _member_pairs,
    _rows,
    _show,
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
        # the largest num / den: its float (int / int rounds correctly, never lower for a
        # larger ratio), then the cells tied there by cross-multiplication; one Fraction
        num, den = np.abs(diff[miss]), (view.scale[r] * den)[miss]
        est, best = (num / den).astype(float), None
        for j in np.flatnonzero(est == est.max()).tolist():
            if best is None or num[j] * den[best] > num[best] * den[j]:
                best = j
        return Fraction(num[best], den[best])
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
    """``eff`` >= 0 against values held as ints over ``scale``: floor(eff *
    scale) for ints ``scale`` >= 0, an int or an object array of them, and
    ``eff`` itself against floats (``scale`` None).

    For an int x and real E >= 0, x > E iff x > floor(E) and x < -E iff
    x < -floor(E), so an exact value x / scale is tested against ``eff``
    in ints, a float ``eff`` taken at its exact binary value, whose
    denominator 2**k a right shift by k divides by as ``//`` does.
    """
    if scale is None:
        return eff
    r = Fraction(eff)
    k = r.denominator.bit_length() - 1
    return scale * r.numerator >> k if r.denominator == 1 << k else scale * r.numerator // r.denominator


def _dyadic(x: np.ndarray, b: int | None = None) -> tuple[np.ndarray, int]:
    """Float64 values as object ints m and one exponent b <= 0, or the given
    one below it, with x = m 2**b exactly: a float64 is f 2**e with 2**53 f an int."""
    frac, exp = np.frexp(x)
    b = int(exp.min(initial=53)) - 53 if b is None else b
    return np.ldexp(frac, 53).astype(np.int64).astype(object) << (exp - 53 - b).astype(object), b


def _compare_tol(x, y, eff: Scalar, scale, below: bool = False) -> np.ndarray:
    """x <= y + eff, or x < y - eff when ``below``, for arrays x and y of
    values held as ints over ``scale``, or floats (``scale`` None).

    A float ``eff`` against exact values keeps the float rounding of the
    sum, fl(fl(y) +- eff), and x is tested against it in ints, from its
    mantissa and exponent; any other ``eff`` enters by :func:`_floor_scaled`.
    """
    if scale is not None and isinstance(eff, float):
        bound, b = _dyadic((y / scale).astype(float) + (-eff if below else eff))
        x, y = x << -b, bound * scale
    else:
        t = _floor_scaled(eff, scale)
        y = y - t if below else y + t
    return x < y if below else x <= y


@lru_cache(maxsize=64)
def _triangle(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the S < T triangle of ``m`` menus, row by row."""
    return np.triu_indices(m, 1)


#: Tuples one array pass covers at most, which bounds the memory of a pass.
_PASS_TUPLES = 1 << 12

#: The 10 distinct entries (i, j), i <= j, of a 4 x 4 Gram matrix.
_GRAM = np.triu_indices(4)


@lru_cache(maxsize=8)
def _antidiagonals(limbs: tuple[int, ...]) -> tuple[list[int], np.ndarray]:
    """The gaps between the distinct sums k + k' of two ``limbs`` (0 among
    them), and the 0/1 matrix that sums a flattened block of (k, k') over each."""
    sums = np.add.outer(limbs, limbs).ravel()
    diag = sorted(set(sums.tolist()))  # not np.unique, which imports numpy.ma
    return np.diff(diag).tolist(), (sums[:, None] == diag).astype(np.int64)


def _binet_cauchy(grams: Iterable[Sequence[int]], lifts: Iterable[int]) -> tuple[int, int, int]:
    """The sums of d*d, d*p and p*p over the pairs with the 10 Gram entries
    ``grams`` (:data:`_GRAM`) of their a, b, a', b', each pair's times its lift."""
    dd = dp = pp = 0
    for (aa, ab, aa2, ab2, bb, ba2, bb2, a2a2, a2b2, b2b2), up in zip(grams, lifts):
        dd += (aa * bb - ab * ab) * up
        dp += (aa * bb2 - ab2 * ab + aa2 * bb - ab * ba2) * up
        pp += (aa * b2b2 - ab2 * ab2 + 2 * (aa2 * bb2 - ab * a2b2) + a2a2 * bb - ba2 * ba2) * up
    return dd, dp, pp


#: float64's unit roundoff u = 2**-53, and the error radius per unit of a
#: float d or p's sum of absolute products, 8u.
_U = 2.0**-53
_RADIUS = 8 * _U

#: A tuple with a nonzero factor below this is left to the integer
#: evaluation: products of two such factors could leave float64's normal range.
_TINY = 2.0**-500


def _det_bound(a: np.ndarray, b: np.ndarray, e: float = 0.0) -> np.ndarray:
    """Per row, 2 (max |a| + e)(C + (1 + |r|) e), a bound on every |u_S v_T - v_S u_T|
    for real rows u, v within ``e`` of the float rows ``a``, ``b`` (Shewchuk 1997):
    det(u, v) = det(u, v - r u) for r = fl(b_k / a_k) at k = argmax |a|, and with
    t = fl(r a), c~ = fl(b - t), |b - r a| <= C = (1 + 2u) max |c~| + 2u max |t|.
    Callers add margins for its own rounding.  Zero rows give NaN."""
    with np.errstate(all="ignore"):
        i, k = np.arange(len(a)), np.abs(a).argmax(1)
        ak = a[i, k]
        r = b[i, k] / ak
        t = r[:, None] * a
        c = np.abs(b - t).max(1) * (1 + 2 * _U) + 2 * _U * np.abs(t).max(1)
        return 2 * (np.abs(ak) + e) * (c + (1 + np.abs(r)) * e)


def _products(f: list) -> tuple[tuple, tuple | None]:
    """The products that d and p of tuples with factors ``f`` (from
    :meth:`_Kernel._factors`) difference: d = a - b and p = (c0 - c1) + (c2 -
    c3), the operands of :func:`own_instability` and
    :func:`composite_instability`; c is None without the second table."""
    sx, tx, sy, ty, *theirs = f
    own = sx * ty, sy * tx
    if not theirs:
        return own, None
    sx2, tx2, sy2, ty2 = theirs
    return own, (sx * ty2, sy * tx2, sx2 * ty, sy2 * tx)


@lru_cache(maxsize=8)
def _layout(universe: Universe, menus: tuple[Menu, ...]):
    """Runs of the pairs sharing menus, the runs' offsets in the tuple order,
    per held count the flat indices of x's and of y's cells in a menus x
    universe array, then in a second one after it, a row per pair: an array
    shaped (4, pairs, menus held), and the ratio graph's ``edges``.

    A run ``(xs, ys, held)`` is consecutive pairs x before y holding equally
    many menus, at least two, with those menus' rows in ``held``, a row per
    pair, and at most ``_PASS_TUPLES`` tuples unless one pair has more.
    ``edges`` is ``(xs, ys, lo, menu)``: each pair x before y sharing a menu
    (:func:`types._member_pairs`), and its menus ``menu[lo[j] : lo[j + 1]]``.
    """
    n = universe.size
    row, col, _, (k, l) = _member_pairs(_incidence(universe, menus))
    k, l = k[k < l], l[k < l]  # x before y, as each menu's members are in order
    key = col[k] * n + col[l]
    order = np.argsort(key, kind="stable")  # by (x, y), each pair's menus in order
    key, menu = key[order], row[k[order]]
    lo = np.append(np.flatnonzero(np.diff(key, prepend=-1)), len(key))
    (px, py), count = np.divmod(key[lo[:-1]], n), np.diff(lo)
    runs, sizes, cells = [], [0], []
    for h, group in groupby(np.flatnonzero(count > 1).tolist(), key=count.tolist().__getitem__):
        group = np.array(list(group))
        xs, ys, held = px[group], py[group], menu[lo[group, None] + np.arange(h)]
        x, y = held * n + xs[:, None], held * n + ys[:, None]
        cells.append(np.array([x, y, x + len(menus) * n, y + len(menus) * n]))
        tuples = h * (h - 1) // 2
        step = max(1, _PASS_TUPLES // tuples)
        for i in range(0, len(xs), step):
            runs.append((xs[i : i + step], ys[i : i + step], held[i : i + step]))
            sizes.append(len(runs[-1][0]) * tuples)
    return runs, np.cumsum(sizes), cells, (px, py, lo, menu)


class _Kernel:
    """Own and composite instability of every canonical tuple, run by run,
    and the per-tuple tests on them at tolerance ``eff``.

    Fix alternatives x before y and let a, b be rho(x, .), rho(y, .) over
    the menus holding both, in canonical order, with primes for ``other``.
    The pair's tuples are the triangle S < T, where own instability is
    a_S b_T - b_S a_T = det(a, b) and composite instability is
    det(a, b') + det(a', b).  :meth:`tested` streams them a run of pairs
    at a time (:func:`_layout`), in the order of
    ``instability_tuples(canonical=True)``, so no array outlives its run;
    callers fold each run into the counts, first indices, maxima
    (:class:`_Top`) and sums they need.  :meth:`sums` gives exact sums
    from inner products.

    The rows and their ``mask`` come from :func:`types._rows`.  Float rows
    keep the operand order of :func:`own_instability` and
    :func:`composite_instability`, so they agree bit for bit.  Exact rows
    are ints over each menu's joint lcm c_S, and the tuple (S, T) carries d
    and p times ``k`` = c_S c_T.  Sign and ratio tests do not see the
    scale, and :func:`_floor_scaled` puts a tolerance on it.

    A float kernel's tests read d and p in float64, the tables' arithmetic.
    An exact kernel is filtered in floats with an integer fallback
    (Shewchuk 1997; Fortune & Van Wyk 1993): each run's tests are decided
    on its float estimates wherever their error radii decide them, and
    only the undecided tuples, the band, and the candidates of a maximum
    are evaluated in ints, in canonical order.  Every outcome, ties and
    first-maximum rule included, is that of the integer tests on every
    tuple.  A witness's d and p (:meth:`raw`) are read from its cells, and
    :meth:`evaluate` gives those of listed tuples.
    """

    def __init__(
        self, rho: StochasticChoice, menus: Sequence[Menu], other: StochasticChoice | None = None,
        eff: Scalar = 0,
    ):
        self.universe = rho.universe
        self.menus = tuple(menus)
        tables = [rho] if other is None else [rho, other]
        self.mask, self.c, (self.mine, *theirs) = _rows(tables, self.menus)
        self.exact = self.c is not None
        self.theirs = theirs[0] if theirs else None
        self.runs, self.starts, self.cells, self.edges = _layout(self.universe, self.menus)
        self.eff = eff
        # |d| <= 1, |p| <= 2 and the gaps are at most 4: a larger
        # tolerance decides every test as 8 does, and has no float
        self.e = float(min(eff, 8))

    def _cells(self, i: int) -> tuple[int, int, int, int]:
        """The columns x, y and the rows S, T of the i-th canonical tuple."""
        r = int(np.searchsorted(self.starts, i, side="right")) - 1
        xs, ys, held = self.runs[r]
        s, t = _triangle(held.shape[1])
        q, j = divmod(int(i - self.starts[r]), len(s))
        return int(xs[q]), int(ys[q]), int(held[q, s[j]]), int(held[q, t[j]])

    def tuple_at(self, i: int) -> InstabilityTuple:
        """The i-th canonical tuple."""
        x, y, s, t = self._cells(i)
        alts, menus = self.universe.alternatives, self.menus
        return InstabilityTuple(alts[x], alts[y], menus[s], menus[t])

    def coincide(self) -> bool:
        """Whether ``rho`` and ``other`` are within ``eff`` of each other on
        every menu; off a menu both rows read 0."""
        c = None if self.c is None else self.c[:, None]
        return not (np.abs(self.mine - self.theirs) > _floor_scaled(self.eff, c)).any()

    @staticmethod
    def _factors(run, tables, sel: np.ndarray | None = None, cast=None):
        """``ends`` and the factors of a run's tuples, or of those at the
        positions ``sel`` in it: the entries (sx, tx, sy, ty) of x and y at S
        and T in each of ``tables``, mapped by ``cast``.  ``ends`` maps
        per-menu values shaped as the run's ``held`` to their values at S and
        at T of those tuples."""
        xs, ys, held = run
        s, t = _triangle(held.shape[1])
        if sel is None:
            def ends(v):
                return v.take(s, axis=1).ravel(), v.take(t, axis=1).ravel()
        else:
            q, j = np.divmod(sel, len(s))

            def ends(v):
                return v[q, s[j]], v[q, t[j]]
        cells = [r[held, zs[:, None]] for r in tables for zs in (xs, ys)]
        return ends, [e for v in (cells if cast is None else map(cast, cells)) for e in ends(v)]

    def _values(self, run, sel: np.ndarray | None = None, cast=None):
        """d, p (None without ``other``) and k (None in float mode) of a run's
        tuples, or of those at the positions ``sel``, in the tables'
        arithmetic, or in that of the run's cells mapped by ``cast``: a float
        kernel's tests, and an exact kernel's integer fallback."""
        ends, f = self._factors(run, (self.mine,) if self.theirs is None else (self.mine, self.theirs), sel, cast)
        (a, b), c = _products(f)
        p = None if c is None else (c[0] - c[1]) + (c[2] - c[3])
        return a - b, p, None if self.c is None else np.multiply(*ends(self.c[run[2]]))

    @cached_property
    def _approx(self):
        """The correctly rounded float64 rows (:func:`types._floats`) of an
        exact kernel's tables, and the mask of their nonzero cells below
        ``_TINY``, or None if there is none."""
        tables = [t for t in (self.mine, self.theirs) if t is not None]
        rows, tiny = [_floats(t, self.c) for t in tables], None
        for f, t in zip(rows, tables):
            low = f < _TINY
            if low.any():
                low &= t != 0  # an exact zero is a float zero
                tiny = low if tiny is None else tiny | low
        return rows, tiny

    def _estimates(self, run, sel: np.ndarray | None = None):
        """d, p and their error radii over a run's tuples, or those at the
        positions ``sel``, in float64 (exact mode).

        d and p are formed as in float mode from the correctly rounded rows:
        each product term of d or p carries at most five roundings, two
        factors, the product and two sums, so |d~ - d| is at most about 5u
        times the sum of its absolute products, for u = 2**-53.  The radius
        is 8u times that sum as computed, which leaves room for the rounding
        of the tests built on it.  A tuple with a nonzero factor below
        ``_TINY`` gets radius inf, as a product of its factors could underflow.
        """
        rows, tiny = self._approx
        (a, b), c = _products(self._factors(run, rows, sel)[1])
        d, p, rd, rp = a - b, None, _RADIUS * (a + b), None
        if c:
            p, rp = (c[0] - c[1]) + (c[2] - c[3]), _RADIUS * ((c[0] + c[1]) + (c[2] + c[3]))
        if tiny is not None:
            low = np.logical_or.reduce(self._factors(run, [tiny], sel)[1])
            rd[low] = np.inf
            if rp is not None:
                rp[low] = np.inf
        return d, p, rd, rp

    def _gather(self, part, among: np.ndarray):
        """``part`` (:meth:`_values` or :meth:`_estimates`) of the tuples at
        the sorted canonical indices ``among``, run by run, joined."""
        cuts, none = np.searchsorted(among, self.starts), np.zeros(0, int)
        got = [part(run, among[a:b] - lo) for run, lo, a, b in zip(self.runs, self.starts, cuts, cuts[1:]) if a < b]
        got = got or [part((none, none, np.zeros((0, 2), int)), none)]  # typed empty arrays
        return tuple(None if v[0] is None else np.concatenate(v) for v in zip(*got))

    def evaluate(self, among: np.ndarray):
        """:meth:`_values` of the tuples at the sorted canonical indices ``among``."""
        return self._gather(self._values, among)

    def tested(self, names: Sequence[str], keep: np.ndarray | None = None):
        """Per run, or per run's pairs that the per-pair mask ``keep`` flags
        (a run with none is skipped), in order: the canonical indices of its
        tuples, their scan (d, p, rd, rp) as the tests read them, the masks
        of the tests ``names`` of :func:`_tests`, and the run restricted to
        those pairs.  A float kernel's scan is its d and p, radii None; an
        exact kernel's is its float estimates with their radii, and its masks
        are decided on them, the band evaluated in ints."""
        first = 0
        for (xs, ys, held), lo in zip(self.runs, self.starts):
            tuples = len(_triangle(held.shape[1])[0])
            q = np.arange(len(xs)) if keep is None else np.flatnonzero(keep[first : first + len(xs)])
            first += len(xs)
            if not len(q):
                continue
            ids, run = (lo + q[:, None] * tuples + np.arange(tuples)).ravel(), (xs[q], ys[q], held[q])
            if not self.exact:
                d, p, _ = self._values(run)
                yield ids, (d, p, None, None), _tests(d, p, None, self.eff, names), run
                continue
            scan = self._estimates(run)
            with np.errstate(invalid="ignore"):  # inf * 0 in a radius: NaN, undecided
                tris = [self._filter(name, scan) for name in names]
            band = np.flatnonzero(np.logical_or.reduce([~(yes | no) for yes, no in tris])) if tris else ()
            masks = [yes for yes, _ in tris]
            if len(band):
                for mask, exact in zip(masks, _tests(*self._values(run, band), self.eff, names)):
                    mask[band] = exact
            yield ids, scan, masks, run

    def quiet(self) -> Iterator[bool]:
        """Per pair, in order, whether a certificate shows that none of its
        own instabilities exceeds ``eff``, as the tests compute them.

        Exact pairs: by Lagrange's identity all vanish iff |a|^2 |b|^2 =
        (a.b)^2, that is, iff a and b are parallel, which the menu scales
        do not change.  Float pairs: with D the :func:`_det_bound` of a and
        b, A = max a and B = max b (rows are >= 0), every float d satisfies
        |fl d| <= (D + 2u A B)(1 + 16u) + 2**-1000, which covers the
        roundings, the bound's own and underflow.  A NaN or inf bound is
        not quiet, nor is any pair at ``eff`` 0.
        """
        if self.exact:  # run by run: the first failing run stops the caller
            for xs, ys, held in self.runs:
                a, b = self.mine[held, xs[:, None]], self.mine[held, ys[:, None]]
                yield from (a * a).sum(1) * (b * b).sum(1) == (a * b).sum(1) ** 2
            return
        mine = self.mine.ravel()
        for x, y, _, _ in self.cells:  # one gather per held count
            a, b = mine[x], mine[y]
            bound = _det_bound(a, b) + 2 * _U * a.max(1) * b.max(1)
            with np.errstate(invalid="ignore"):  # a NaN bound is not quiet
                yield from bound * (1 + 16 * _U) + 2.0**-1000 <= self.eff

    def sums(self, lifted: bool = True, out: Iterable[np.ndarray] | None = None) -> tuple[int, ...]:
        """Exact sums of d*d, d*p and p*p over every canonical tuple, and
        given ``out``, a mask per run, of d*p and p*p over the tuples it flags,
        times B**4 for B the common scale of the rows of ``rho`` and ``other``
        as ints: the lcm of the c_S, or the float rows' power of two
        (:func:`_dyadic`).  ``out`` is read a run at a time, in step with the
        sums, so a caller can fold its own pass into this one.
        By Binet-Cauchy the sum over S < T of det(u, v) det(w, z) is
        (u.w)(v.z) - (u.z)(v.w): a pair costs the 10 distinct entries of the
        Gram matrix of a, b, a', b', and its flagged tuples their own d and
        p.  Exact pairs take both on their own scale, the lcm B_xy of the
        c_S of the menus holding both: a menu's products weighted (B_xy /
        c_S)**2, a flagged tuple's (B_xy / c_S)**2 (B_xy / c_T)**2, and the
        pair's sums are lifted once, times (B / B_xy)**4.

        Exact rows not ``lifted`` take no weights: the sums are those of the
        ints D = k d and P = k p, each tuple on its own scale k = c_S c_T.

        Float rows take their Gram entries from w-bit limbs of each cell's int
        (:meth:`_float_grams`; Ozaki et al. 2012), w the largest width with
        h (2**w - 1)**2 < 2**53 for h the most menus a pair holds: a limb Gram
        entry sums at most h products of ints in [0, 2**w), so every partial
        sum is an int below 2**53, exact on any BLAS kernel.  Flagged tuples
        are taken by :meth:`left_out`.
        """
        if not self.exact:
            return _binet_cauchy(self._float_grams(), repeat(1)) + (() if out is None else self.left_out(out))
        n, scale = self.universe.size, self.c
        rows = np.concatenate([self.mine, self.theirs], axis=1)
        if lifted:
            top = math.lcm(*scale.tolist())
        dd = dp = pp = out_dp = out_pp = 0
        for (xs, ys, held), flags in zip(self.runs, repeat(None) if out is None else out):
            g = rows[held[:, :, None], np.stack([xs, ys, n + xs, n + ys], axis=1)[:, None, :]]
            wg, lift = g, repeat(1)
            if lifted:
                pair = np.array([math.lcm(*row) for row in scale[held].tolist()], dtype=object)
                w = (pair[:, None] // scale[held]) ** 2
                wg = g * w[:, :, None]
                lift = (top // pair) ** 4
            gram = (wg[:, :, _GRAM[0]] * g[:, :, _GRAM[1]]).sum(axis=1)
            dd, dp, pp = (x + y for x, y in zip((dd, dp, pp), _binet_cauchy(gram.tolist(), lift)))
            if flags is None or not flags.any():
                continue
            s, t = _triangle(held.shape[1])
            q, j = np.divmod(np.flatnonzero(flags), len(s))
            (a, b), c = _products([g[q, m[j], z] for z in range(4) for m in (s, t)])
            p = (c[0] - c[1]) + (c[2] - c[3])
            tdp, tpp = (a - b) * p, p * p
            if lifted:  # (B_xy / c_T)**2 per tuple, summed per row S, then (B_xy / c_S)**2 and the lift
                heads = np.flatnonzero(np.diff(q * held.shape[1] + s[j], prepend=-1))
                up = w[q[heads], s[j[heads]]] * lift[q[heads]]
                tdp, tpp = (np.add.reduceat(v * w[q, t[j]], heads) * up for v in (tdp, tpp))
            out_dp += tdp.sum()
            out_pp += tpp.sum()
        return (dd, dp, pp) if out is None else (dd, dp, pp, out_dp, out_pp)

    @cached_property
    def _frexp(self) -> tuple[np.ndarray, np.ndarray, int]:
        """np.frexp of a float kernel's rows, flat, and their :func:`_dyadic` exponent."""
        frac, exp = np.frexp(np.concatenate([self.mine, self.theirs], axis=None))
        return frac, exp, int(exp.min(initial=53)) - 53

    def _float_grams(self) -> Iterator[tuple[int, ...]]:
        """Per pair, the 10 Gram entries (:data:`_GRAM`) of a float kernel's
        a, b, a', b' as :func:`_dyadic` ints (:meth:`sums`): one matmul per
        held count forms the limb Gram blocks, and each entry is their sum
        over the anti-diagonals k + k', in int64, shifted by w (k + k')."""
        frac, exp, b = self._frexp
        h = max((cells.shape[2] for cells in self.cells), default=1)
        w = (math.isqrt((2**53 - 1) // h) + 1).bit_length() - 1  # h (2**w - 1)**2 < 2**53
        k = np.arange(-(-(int(exp.max()) - b) // w), dtype=np.int32)  # every int is below 2**(max exp - b)
        # limb k of m = 2**(e - b) f is floor(2**(e - b - w k) f) mod 2**w, 0 once e - b - w k >= 53 + w
        t = np.ldexp(frac, np.minimum(exp - (b + w * k)[:, None], 53 + w))
        limbs = np.floor(t - np.floor(t * 2.0**-w) * 2.0**w)
        k = np.flatnonzero(limbs.any(axis=1) | (k == 0))  # limbs 0 on every cell drop out
        steps, fold = _antidiagonals(tuple(k.tolist()))
        limbs = limbs[k]
        for cells in self.cells:
            pairs, held = cells.shape[1:]
            g = np.take(limbs, cells, axis=1).transpose(2, 0, 1, 3).reshape(pairs, -1, held)  # (limb, column) rows
            blocks = (g @ g.transpose(0, 2, 1)).reshape(pairs, len(k), 4, len(k), 4)[:, :, _GRAM[0], :, _GRAM[1]]
            folds = (blocks.reshape(10, pairs, -1).astype(np.int64) @ fold).T.reshape(len(steps) + 1, -1).tolist()
            acc = folds.pop()
            for step, diag in zip(reversed(steps), reversed(folds)):
                acc = [(v << step * w) + f for v, f in zip(acc, diag)]
            yield from zip(*[iter(acc)] * 10)

    def left_out(self, out: Iterable[np.ndarray]) -> tuple[int, int]:
        """A float kernel's sums of d*p and p*p over the tuples that ``out``
        flags, a mask per run read in step with the caller's pass, on the
        scale of :meth:`sums`; only a run with flags turns its cells into ints."""
        dp = pp = 0
        for run, flags in zip(self.runs, out):
            if flags.any():
                d, p, _ = self._values(run, np.flatnonzero(flags), lambda v: _dyadic(v, self._frexp[2])[0])
                dp, pp = dp + (d * p).sum(), pp + (p * p).sum()
        return dp, pp

    @cached_property
    def slope(self) -> Fraction | float | None:
        """lambda with d = lambda p on every tuple, or None (exact mode): D = k d
        and P = k p share each tuple's k, and are parallel iff (DP)**2 = DD PP in
        the unlifted :meth:`sums` (Cauchy-Schwarz); DP/PP, or 0 or inf when PP = 0."""
        dd, dp, pp = self.sums(lifted=False)
        if dp * dp != dd * pp:
            return None
        return Fraction(dp, pp) if pp else math.inf if dd else Fraction(0)

    @cached_property
    def first_usable(self) -> int | None:
        """The first tuple with |p| > eff: tuple 0 from its cells, then run by run."""
        if self.starts[-1]:
            _, p, k = self.raw(0)
            if abs(p) > _floor_scaled(self.eff, k):
                return 0
        return next((int(ids[usable][0]) for ids, _, (usable,), _ in self.tested(["usable"]) if usable.any()), None)

    def certified(self) -> bool:
        """Whether per-pair certificates show with no tuple pass that every tuple
        passes proportionality and bounded instability, with no vanishing p under
        a big d, and in float mode bounded divergence too (README: the margins)."""
        if self.exact:
            lam, top = self.slope, max(self.c.tolist())
            return lam is not None and (lam == 0 or 0 < lam <= 1 - Fraction(2**1022 + top * top, 2**1075))
        e, mine, theirs = self.eff, self.mine.ravel(), self.theirs.ravel()
        if not (e <= 1 and max(mine.max(), theirs.max()) <= 1) or self.first_usable is None:
            return False
        lam, bounds = max(0.0, float(np.divide(*self.raw(self.first_usable)[:2]))), []  # any lambda bounds
        for x, y, _, _ in self.cells:  # fl(a - lambda a') is within 3u of it: cells, lambda <= 1
            with np.errstate(invalid="ignore"):  # 0 * inf: NaN, not certified
                bound = _det_bound(mine[x] - lam * theirs[x], mine[y] - lam * theirs[y], 3 * _U)
                if not 5 * bound.max() < 1.000001 * e:  # surely too large, or NaN from a row of zeros
                    return False
                bounds.append(bound + lam * lam * _det_bound(theirs[x], theirs[y], 3 * _U))
        delta = np.concatenate(bounds).max() * (1 + 64 * _U) + 16 * _U + 2.0**-1000
        if not 5 * delta < 1.000001 * e:
            return False
        low = (self.mine - lam * self.theirs).min()  # cells off a menu read 0 - 0, within the margin
        lam, delta, e, low, u = map(Fraction, (lam, delta, e, low, _U))
        return 5 * delta <= e and lam <= 1 - u - delta / e and 2 * (low - 3 * u) >= 2 * delta - e

    def _filter(self, name: str, scan: tuple):
        """The float filter of test ``name`` of :func:`_tests` on a run's
        ``scan``; each margin adds 4u or 8u of the operands to the radii for
        the rounding of the test's own arithmetic and of ``eff``."""
        (d, p, rd, rp), e = scan, self.e
        ad = np.abs(d)
        big = _sure(ad - e, rd + 4 * _U * (ad + e))
        if name == "big":
            return big
        ap = np.abs(p)
        if name == "usable":
            return _sure(ap - e, rp + 4 * _U * (ap + e))
        q = d * p
        aq, rq = np.abs(q), rd * ap + rp * ad + rd * rp
        sign = _and(_sure(q + e, rq + 4 * _U * (aq + e)), _or(_not(big), _sure(q, rq + 4 * _U * aq)))
        # where decided, |d| < |p| and |d| <= |p| agree: eff 0's strict test is the same filter
        size = _not(_sure(ad - ap - e, rd + rp + 8 * _U * (ad + ap + e)))
        return _and(sign, size)

    def first_gap(self, ref: int) -> int | None:
        """The first tuple whose proportionality gap with tuple ``ref``,
        d p_ref - d_ref p, exceeds ``eff`` in magnitude, run by run up to it."""
        d_ref, p_ref, k_ref = self.raw(ref)
        if self.exact:
            dr, pr = d_ref / k_ref, p_ref / k_ref  # int / int rounds correctly
        for ids, (d, p, rd, rp), _, run in self.tested(()):
            if not self.exact:
                gap = d * p_ref
                gap -= d_ref * p
                i = _first_true(np.abs(gap) > self.eff)
            else:
                left, right = d * pr, dr * p
                with np.errstate(invalid="ignore"):
                    r = rd * abs(pr) + rp * abs(dr) + 8 * _U * (np.abs(left) + np.abs(right) + self.e)
                    yes, no = _sure(np.abs(left - right) - self.e, r)
                band, i = ~(yes | no), _first_true(yes)
                if i is not None:  # only the band before the first sure hit can move it
                    band[i:] = False
                sel = np.flatnonzero(band)
                if len(sel):
                    d, p, k = self._values(run, sel)
                    yes[sel] = np.abs(d * p_ref - d_ref * p) > _floor_scaled(self.eff, k * k_ref)
                    i = _first_true(yes)
            if i is not None:
                return int(ids[i])
        return None

    def raw(self, i: int):
        """d, p and k of tuple i as :meth:`evaluate` gives them, from its
        cells: ints over k = c_S c_T, or floats and None."""
        x, y, s, t = self._cells(i)
        tables = (self.mine,) if self.theirs is None else (self.mine, self.theirs)
        (a, b), c = _products([r[m, z] for r in tables for z in (x, y) for m in (s, t)])
        p = None if c is None else (c[0] - c[1]) + (c[2] - c[3])
        return a - b, p, None if self.c is None else self.c[s] * self.c[t]

    def value(self, i: int) -> tuple[Scalar, Scalar]:
        """The true d and p of tuple i: Fractions in exact mode, floats otherwise."""
        d, p, k = self.raw(i)
        return (float(d), float(p)) if k is None else (Fraction(d, k), Fraction(p, k))


class _Top:
    """The first flagged tuple with the largest |p|, or with ``ratio`` the
    largest |d|/|p|, folded run by run from the scans of :meth:`_Kernel.tested`.

    A float kernel moves a running maximum as :func:`_running_max` does,
    carried across runs.  An exact kernel keeps as candidates the flagged
    tuples whose upper bound on the key reaches the largest lower bound so
    far; at the end it drops those below the final one and compares the
    rest in ints, in canonical order, as the integer tests on every tuple
    would.
    """

    def __init__(self, kernel: _Kernel, ratio: bool = False):
        self.kernel, self.ratio, self.best, self.kept, self.floor, self.cands = kernel, ratio, None, None, -math.inf, []

    def add(self, ids: np.ndarray, scan: tuple, flag: np.ndarray) -> None:
        (d, p, rd, rp), exact = scan, self.kernel.exact
        if not flag.any():
            return
        ad, ap = np.abs(d), np.abs(p)
        if self.ratio and not exact:
            j = _running_max(ad, ap, flag, self.kept)
            if j is not None:
                self.best, self.kept = int(ids[j]), (ad[j], ap[j])
        elif not exact:  # float > is transitive, so the first maximum is the argmax
            ap[~flag] = -1.0  # below every |p|
            j = int(np.argmax(ap))
            if self.best is None or ap[j] > self.kept:
                self.best, self.kept = int(ids[j]), ap[j]
        else:
            lo, hi = ap - rp, ap + rp
            if self.ratio:
                with np.errstate(divide="ignore", invalid="ignore"):
                    hi = np.where(lo > 0, (ad + rd) / lo, np.inf) * (1 + 8 * _U)
                    lo = np.maximum(ad - rd, 0) / (ap + rp) * (1 - 8 * _U)
            self.floor = np.maximum(self.floor, lo[flag].max())
            keep = flag & ~(hi < self.floor)
            self.cands.append((ids[keep], hi[keep]))

    def result(self) -> int | None:
        if not self.cands:
            return self.best
        ids, hi = map(np.concatenate, zip(*self.cands))
        d, p, k = self.kernel.evaluate(ids := ids[~(hi < self.floor)])
        return int(ids[_running_max(*((np.abs(d), np.abs(p)) if self.ratio else (np.abs(p), k)))])


def _first_true(mask: np.ndarray) -> int | None:
    return int(np.argmax(mask)) if mask.any() else None


def _running_max(num: np.ndarray, den: np.ndarray, among: np.ndarray | None = None, kept=None) -> int | None:
    """Where a scan's running maximum of num/den ends among the flagged tuples,
    or None if it stays at ``kept``, the (num, den) it holds from earlier runs.

    The scan keeps the first flagged tuple (all are flagged by default)
    and moves from the kept b to a later flagged k only when
    num[k] * den[b] > num[b] * den[k], evaluated as the per-tuple checks
    do: rounded in float mode, where the test need not be transitive.
    Each step tests a growing window after b at once, so the cost is one
    pass over the arrays plus a few calls per move.
    """
    b, lo, width = None, 0, 256
    if kept is None:
        b = _first_true(among) if among is not None else 0 if len(num) else None
        if b is None:
            return None
        kept, lo = (num[b], den[b]), b + 1
    while lo < len(num):
        hi = min(lo + width, len(num))
        beats = num[lo:hi] * kept[1] > kept[0] * den[lo:hi]
        j = _first_true(beats if among is None else beats & among[lo:hi])
        if j is None:
            lo, width = hi, 2 * width
        else:
            b = lo + j
            kept, lo, width = (num[b], den[b]), b + 1, 256
    return b


def _tests(d: np.ndarray, p: np.ndarray | None, k, eff: Scalar, names: Sequence[str]) -> list:
    """The per-tuple tests ``names`` on own and composite instabilities d
    and p, float arrays or (exact mode) ints over ``k``:

        big        |d| > eff
        usable     |p| > eff
        dominated  bounded instability: d p >= -eff and |d| <= |p| + eff,
                   with d p > 0 when |d| > eff, and then |d| < |p| at eff 0

    ``eff`` meets exact values as :func:`_floor_scaled` floors it, and the
    size test is :func:`_compare_tol`'s, rounded as float |p| + eff would be.
    """
    e1, ad = _floor_scaled(eff, k), np.abs(d)
    big = ad > e1
    out = {"big": big}
    if "usable" in names or "dominated" in names:
        ap = np.abs(p)
        out["usable"] = ap > e1
    if "dominated" in names:
        dp = d * p
        sign_ok = (dp >= -_floor_scaled(eff, None if k is None else k * k)) & (~big | (dp > 0))
        size_ok = _compare_tol(ad, ap, eff, k)
        if eff == 0:
            size_ok &= ~big | (ad < ap)
        out["dominated"] = sign_ok & size_ok
    return [out[name] for name in names]


# A test as a float filter leaves it: masks (yes, no) of the tuples where
# it surely holds and where it surely fails; elsewhere it is undecided.


def _sure(x: np.ndarray, r: np.ndarray):
    """Whether x > 0, for x computed within ``r`` of its true value; a NaN decides nothing."""
    return x > r, x < -r


def _not(a):
    return a[1], a[0]


def _and(a, b):
    return a[0] & b[0], a[1] | b[1]


def _or(a, b):
    return _not(_and(_not(a), _not(b)))


def _own_violations(rho: StochasticChoice, eff: Scalar) -> tuple[_Kernel, Iterator[np.ndarray]]:
    """The kernel of ``rho``, and run by run over its open pairs, those not
    :meth:`_Kernel.quiet`, the canonical indices of the tuples whose own
    instability exceeds ``eff`` in magnitude: a certified pair has none."""
    kernel = _Kernel(rho, rho.domain, eff=eff)
    keep = ~np.fromiter(kernel.quiet(), bool)
    return kernel, (ids[big] for ids, _, (big,), _ in kernel.tested(["big"], keep))


def _first_nonpositive(rho: StochasticChoice, eff: Scalar) -> tuple[Menu, str] | None:
    """The first (menu, alternative), in canonical order, with probability <= ``eff``;
    exact rows are tested in ints, over their lcm c_S, against floor(eff c_S)."""
    view = rho._dense
    c = None if view.scale is None else view.scale[:, None]
    i = _first_true(view.mask & ~(view.entries > _floor_scaled(eff, c)))
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
    found = map(kernel.tuple_at, [i for ids in bad for i in ids.tolist()])
    full = [InstabilityTuple(x, y, s, t) for c in found for x, y in ((c.x, c.y), (c.y, c.x))
            for s, t in ((c.menu_s, c.menu_t), (c.menu_t, c.menu_s))]
    index, key = rho.universe.index, rho.universe.menu_key
    return sorted(full, key=lambda t: (index(t.x), index(t.y), key(t.menu_s), key(t.menu_t)))


def satisfies_iia(rho: StochasticChoice, tol: Scalar | None = None) -> bool:
    """IIA test; ``not iia_violations(rho, tol)``, from the same canonical scan,
    which stops at its first violating run.  An exact table at tol 0 needs no
    scan: a pair that is not quiet has rows that are not parallel, so some own
    instability is nonzero (Lagrange's identity)."""
    eff = resolve_tol(tol, rho.is_exact)
    if rho.is_exact and eff == 0:
        return all(_Kernel(rho, rho.domain).quiet())
    return not any(len(ids) for ids in _own_violations(rho, eff)[1])


# ---------------------------------------------------------------------------
# Luce utility recovery
# ---------------------------------------------------------------------------


#: The smallest Cholesky pivot :func:`_cholesky_solve` accepts, relative to
#: its diagonal entry.
_PIVOT_MIN = 1e-12


def _cholesky_solve(a: list[list[float]], b: list[float]) -> list[float] | None:
    """The solution of ``a x = b`` for symmetric positive definite ``a``.

    A Cholesky factorisation a = L L^T, row by row within the envelope of
    ``a`` (George & Liu 1981), and two triangular solves, every sum taken
    by ``math.fsum`` in pure Python: no BLAS or LAPACK, so the result is
    the same on every CPU.  Row i of L is zero left of ``first[i]``, row
    i's first nonzero in ``a``, and its sums skip those columns: the
    skipped terms are exact zeros, and fsum rounds the exact sum once
    (+0.0 when it is zero), so every bit, and which pivot fails, is that
    of the dense factorisation.  ``a`` and ``b`` must be finite.  Returns
    None when a pivot is not positive beyond ``_PIVOT_MIN`` of its
    diagonal entry, that is when ``a`` is indefinite or (numerically)
    singular.
    """
    m = len(b)
    first = [0 if row[0] else next(compress(range(i), row), i) for i, row in enumerate(a)]  # no search on dense rows
    low = []
    for i, (ai, fi) in enumerate(zip(a, first)):
        li = [0.0] * m
        for j in range(fi, i):
            lj = low[j]
            li[j] = math.fsum([ai[j]] + [-li[k] * lj[k] for k in range(fi, j)]) / lj[j]
        d = math.fsum([ai[i]] + [-v ** 2 for v in li[fi:i]])
        if not d > _PIVOT_MIN * abs(ai[i]):
            return None
        li[i] = math.sqrt(d)
        low.append(li)
    y = []
    for i, (li, fi) in enumerate(zip(low, first)):
        y.append(math.fsum([b[i]] + [-li[k] * y[k] for k in range(fi, i)]) / li[i])
    x = [0.0] * m
    for i in reversed(range(m)):
        x[i] = math.fsum([y[i]] + [-low[k][i] * x[k] for k in range(i + 1, m) if first[k] <= i]) / low[i][i]
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
            f"{universe.sorted_members(zero[0])} is not above {_show(eff)}"
        )
    kernel, bad = _own_violations(rho, eff)
    bad = [ids for ids in bad if len(ids)]
    if bad:
        # each canonical violation stands for four sign-equivalent tuples,
        # and the first in lexicographic order is the canonical one
        raise NotLuceError(
            f"IIA violated at tolerance {_show(eff)} for {4 * sum(map(len, bad))} tuples, e.g. "
            + kernel.tuple_at(int(bad[0][0])).describe(universe)
        )

    # one edge per pair x before y sharing menus (the kernel's layout): u(y)/u(x)
    # from the first shared menu when exact, else the mean log u(y)/u(x) over them
    e, n, exact = rho._dense.entries, universe.size, rho.is_exact  # ints over each row's lcm when exact
    xs, ys, lo, menu = kernel.edges
    if exact:
        at = menu[lo[:-1]]
        links = list(map(Fraction, e[at, ys].tolist(), e[at, xs].tolist()))
    else:
        count = np.diff(lo)
        ex, ey = e[menu, np.repeat(xs, count)], e[menu, np.repeat(ys, count)]
        # a ratio over a subnormal entry may overflow; its log is then taken
        # as log e_y - log e_x, which stays in range
        with np.errstate(over="ignore"):
            logs = list(map(math.log, (ey / ex).tolist()))
        if math.inf in logs:
            logs = [r if r < math.inf else math.log(b) - math.log(a)
                    for r, a, b in zip(logs, ex.tolist(), ey.tolist())]
        links = [math.fsum(logs[i:j]) / (j - i) for i, j in zip(lo.tolist(), lo[1:].tolist())]
    near = [[] for _ in range(n)]  # each alternative's neighbours in index order, and the links
    for x, y, link in zip(xs.tolist(), ys.tolist(), links):
        near[x].append((y, link))
        near[y].append((x, 1 / link if exact else -link))

    # float mode reads only which alternatives the walk reaches
    util: dict[int, Scalar] = {root: Fraction(1)}
    frontier = [root]
    while frontier:
        here = frontier.pop()
        for nxt, link in near[here]:
            if nxt not in util:
                util[nxt] = util[here] * link if exact else None
                frontier.append(nxt)

    missing = [a for k, a in enumerate(universe.alternatives) if k not in util]
    if missing:
        raise InsufficientDataError(
            "ratio graph is disconnected: no menu chain links "
            f"{missing} to the anchor {anchor!r}"
        )

    if not exact:
        # minimise the sum over edges of (l_y - l_x - log u(y)/u(x))^2 in
        # l = log u: the Laplacian's diagonal holds the degrees, with -1
        # per edge, and row k's right-hand side sums log u(k)/u(j) over k's
        # neighbours j
        free = [k for k in range(n) if k != root]
        lap = [[0.0] * len(free) for _ in free]
        for row, k in zip(lap, free):
            row[k - (k > root)] = float(len(near[k]))
            for j, _ in near[k]:
                if j != root:
                    row[j - (j > root)] = -1.0
        logs = _cholesky_solve(lap, [math.fsum(-link for _, link in near[k]) for k in free])
        util = {root: 1.0}
        for k, x in zip(free, logs):
            try:
                util[k] = math.exp(x)
            except OverflowError:
                util[k] = math.inf
            if not 0.0 < util[k] < math.inf:
                raise UtilityRangeError(
                    f"utility of {universe.alternatives[k]!r} against the anchor "
                    f"{anchor!r} is exp({_show(x)}), outside float64's range"
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
