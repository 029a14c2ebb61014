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
from itertools import combinations, permutations
from typing import Iterable, Iterator, Mapping

from .types import (
    InstabilityTuple,
    InsufficientDataError,
    InvalidParameterError,
    LamParams,
    Menu,
    NotLuceError,
    RegimeReport,
    Scalar,
    StochasticChoice,
    Universe,
    is_exact_scalar,
    resolve_tol,
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
    """Luce choice probabilities u(x)/u(menu) for each member of the menu."""
    members = frozenset(menu)
    if not members:
        raise InvalidParameterError("menus must be non-empty")
    for a in members:
        if a not in weights or not weights[a] > 0:
            raise InvalidParameterError(
                f"utility for {a!r} must be positive to form a Luce rule"
            )
    total = sum(weights[a] for a in members)
    if all(is_exact_scalar(weights[a]) for a in members):
        total = Fraction(total)  # keep integer weights on the exact path
    return {a: weights[a] / total for a in members}


def lam_choice(params: LamParams, menu: Iterable[str]) -> dict[str, Scalar]:
    """Mixture choice probabilities alpha*Luce(u) + (1-alpha)*Luce(v)."""
    pu = luce_choice(params.u, menu)
    pv = luce_choice(params.v, menu)
    a = params.alpha
    return {x: a * pu[x] + (1 - a) * pv[x] for x in pu}


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


def _instability_scan(
    rho: StochasticChoice, menus: list[Menu], other: StochasticChoice | None = None
) -> Iterator[tuple[str, str, Menu, Menu, Scalar, Scalar | None]]:
    """Plain ``(x, y, S, T, d, p)`` rows in ``instability_tuples(canonical=True)`` order.

    ``menus`` is in canonical order and recorded by both functions.  ``d`` is
    the own instability of ``rho`` and ``p`` the composite instability with
    ``other`` (None without it), each evaluated as :func:`own_instability`
    and :func:`composite_instability` do, so float results agree bit for
    bit.  Each probability is read once per pair of alternatives.
    """
    alts = rho.universe.alternatives
    mine = [rho.table[m] for m in menus]
    theirs = mine if other is None else [other.table[m] for m in menus]
    for x, y in combinations(alts, 2):
        held = [
            (m, r.get(x, 0), r.get(y, 0), o.get(x, 0), o.get(y, 0))
            for m, r, o in zip(menus, mine, theirs)
            if x in m and y in m
        ]
        for (s, sx, sy, sx2, sy2), (t, tx, ty, tx2, ty2) in combinations(held, 2):
            d = sx * ty - sy * tx
            p = None if other is None else (sx * ty2 - sy * tx2) + (sx2 * ty - sy2 * tx)
            yield x, y, s, t, d, p


def _first_nonpositive(rho: StochasticChoice, eff: Scalar) -> tuple[Menu, str] | None:
    """The first (menu, alternative), in canonical order, with probability <= ``eff``."""
    for menu in rho.domain:
        for alt in rho.universe.sorted_members(menu):
            if not rho.table[menu].get(alt, 0) > eff:
                return menu, alt
    return None


def _first_iia_violation(rho: StochasticChoice, eff: Scalar) -> InstabilityTuple | None:
    """The first canonical IIA violation, which ``iia_violations`` also lists first."""
    row = next((r for r in _instability_scan(rho, rho.domain) if abs(r[4]) > eff), None)
    return None if row is None else InstabilityTuple(*row[:4])


def iia_violations(rho: StochasticChoice, tol: Scalar | None = None) -> list[InstabilityTuple]:
    """Every tuple whose own instability exceeds ``tol`` in magnitude.

    An empty list means the function satisfies IIA at that tolerance.
    Enumeration order is deterministic (lexicographic in (x, y, S, T)).
    """
    eff = resolve_tol(tol, rho.is_exact)
    return [
        t
        for t in instability_tuples(rho.universe, rho.domain)
        if abs(own_instability(rho, t)) > eff
    ]


def satisfies_iia(rho: StochasticChoice, tol: Scalar | None = None) -> bool:
    """IIA test with early exit; equivalent to ``not iia_violations(rho, tol)``."""
    return _first_iia_violation(rho, resolve_tol(tol, rho.is_exact)) is None


# ---------------------------------------------------------------------------
# Luce utility recovery
# ---------------------------------------------------------------------------


def recover_luce_utility(
    rho: StochasticChoice, anchor: str, tol: Scalar | None = None
) -> dict[str, Scalar]:
    """Recover the utility of a Luce rule, normalized to 1 at the anchor.

    For any menu S containing both a and b, IIA makes rho(b,S)/rho(a,S)
    menu-independent, so utilities follow by chaining these ratios from the
    anchor.  Ratio estimates are aggregated across menus by geometric mean
    and, in float mode, reconciled across paths by a log-space least-squares
    fit over the whole ratio graph.

    Raises :class:`NotLuceError` if positivity fails or IIA is violated
    beyond ``tol``, and :class:`InsufficientDataError` if some alternative
    cannot be chained back to the anchor through shared menus.
    """
    universe = rho.universe
    universe.index(anchor)
    eff = resolve_tol(tol, rho.is_exact)

    zero = _first_nonpositive(rho, eff)
    if zero is not None:
        raise NotLuceError(
            f"positivity fails: probability of {zero[1]!r} in "
            f"{universe.sorted_members(zero[0])} is not above {eff!r}"
        )
    bad = (r for r in _instability_scan(rho, rho.domain) if abs(r[4]) > eff)
    first = next(bad, None)
    if first is not None:
        # each canonical violation stands for four sign-equivalent tuples,
        # and the first in lexicographic order is the canonical one
        n_bad = 4 * (1 + sum(1 for _ in bad))
        raise NotLuceError(
            f"IIA violated at tolerance {eff!r} for {n_bad} tuples, e.g. "
            + InstabilityTuple(*first[:4]).describe(universe)
        )

    # one ratio sample per shared menu, keyed by the (a, b) edge
    samples: dict[tuple[str, str], list[Scalar]] = {}
    for menu in rho.domain:
        row = rho.table[menu]
        for a, b in combinations(universe.sorted_members(menu), 2):
            samples.setdefault((a, b), []).append(row[b] / row[a])

    exact = rho.is_exact
    edges: dict[tuple[str, str], Scalar] = {}
    for (a, b), vals in samples.items():
        if exact:
            edges[(a, b)] = vals[0]  # IIA held exactly, so all samples agree
        else:
            edges[(a, b)] = math.exp(math.fsum(math.log(r) for r in vals) / len(vals))

    adjacency: dict[str, list[str]] = {}
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)

    util: dict[str, Scalar] = {anchor: Fraction(1) if exact else 1.0}
    frontier = [anchor]
    while frontier:
        here = frontier.pop()
        for nxt in sorted(adjacency.get(here, []), key=universe.index):
            if nxt in util:
                continue
            key = (here, nxt)
            ratio = edges[key] if key in edges else 1 / edges[(nxt, here)]
            util[nxt] = util[here] * ratio
            frontier.append(nxt)

    missing = [a for a in universe.alternatives if a not in util]
    if missing:
        raise InsufficientDataError(
            "ratio graph is disconnected: no menu chain links "
            f"{missing} to the anchor {anchor!r}"
        )

    if not exact:
        util = _log_least_squares(universe, anchor, edges)
    return {a: util[a] for a in universe.alternatives}


def _log_least_squares(
    universe: Universe, anchor: str, edges: Mapping[tuple[str, str], float]
) -> dict[str, float]:
    """Reconcile log-utility differences over all edges at once.

    Solves min sum over edges (a,b) of (log u(b) - log u(a) - log r_ab)^2
    with log u(anchor) fixed at 0, which averages every ratio path instead
    of committing to a single spanning tree.
    """
    import numpy as np

    free = [a for a in universe.alternatives if a != anchor]
    col = {a: i for i, a in enumerate(free)}
    rows = []
    rhs = []
    for (a, b), r in sorted(edges.items()):
        row = [0.0] * len(free)
        if b != anchor:
            row[col[b]] = 1.0
        if a != anchor:
            row[col[a]] = -1.0
        rows.append(row)
        rhs.append(math.log(r))
    sol, *_ = np.linalg.lstsq(np.asarray(rows), np.asarray(rhs), rcond=None)
    out = {anchor: 1.0}
    for a in free:
        out[a] = math.exp(sol[col[a]])
    return out


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
