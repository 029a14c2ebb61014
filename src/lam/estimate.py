"""Finite-sample layer: simulation and maximum-likelihood fitting.

The identification machinery works on exact choice probabilities; real
data arrives as counts.  This module provides the bridge: a seeded
multinomial sampler for the forward model, the multinomial
log-likelihood, and an EM fitter for the two-component Luce mixture.

EM here is the standard mixture recipe.  The E-step attributes each
observation to the human-utility component with responsibility
alpha * Luce_u / mixture; the M-step re-estimates alpha as the mean
responsibility and takes one minorize-maximize (MM) step per component
on its responsibility-weighted counts.  One MM step already raises the
weighted Luce likelihood (Hunter 2004), so this is a generalised EM
(ECM, Meng & Rubin 1993) whose likelihood never decreases.  Estimation
is double-precision throughout; exact inputs are converted on entry.
It runs as array operations on one dense layout of the counts (menus in
``data.domain`` order x alternatives in universe order), so every float
reduction has a fixed order and no result depends on ``PYTHONHASHSEED``.

Randomness comes from numpy's default generator (PCG64), seeded
explicitly: identical seeds give identical draws on any platform.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Literal, Mapping

import numpy as np

from .types import (
    InvalidParameterError,
    LamParams,
    Menu,
    MissingDataError,
    StochasticChoice,
    Universe,
    _Dense,
)

__all__ = [
    "ChoiceCounts",
    "FitResult",
    "simulate_counts",
    "log_likelihood",
    "log_likelihood_gradient",
    "em_step",
    "fit_mle",
]


@dataclass(frozen=True)
class ChoiceCounts:
    """Observed choice counts per (menu, alternative)."""

    universe: Universe
    counts: Mapping[Menu, Mapping[str, int]]

    def __post_init__(self):
        norm: dict[Menu, dict[str, int]] = {}
        for raw_menu, row in self.counts.items():
            menu = self.universe.menu(raw_menu)
            clean: dict[str, int] = {}
            for alt, n in row.items():
                if alt not in menu:
                    raise InvalidParameterError(
                        f"count recorded for {alt!r} outside its menu"
                    )
                if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
                    raise InvalidParameterError(
                        f"count for {alt!r} must be a non-negative integer, got {n!r}"
                    )
                clean[alt] = int(n)
            if sum(clean.values()) <= 0:
                raise InvalidParameterError(
                    f"menu {self.universe.sorted_members(menu)} has no observations"
                )
            norm[menu] = clean
        if not norm:
            raise InvalidParameterError("choice counts need at least one menu")
        object.__setattr__(self, "counts", norm)

    @cached_property
    def domain(self) -> tuple[Menu, ...]:
        return tuple(sorted(self.counts, key=self.universe.menu_key))

    @cached_property
    def _dense(self) -> _Dense:
        """The counts as one dense float64 view, built once on first use."""
        return _Dense.build(self.universe, self.domain, self.counts, exact=False)

    def trials(self, menu: Iterable[str]) -> int:
        m = self.universe.menu(menu)
        if m not in self.counts:
            raise MissingDataError(
                f"menu {self.universe.sorted_members(m)} has no counts in the data"
            )
        return sum(self.counts[m].values())

    def total(self) -> int:
        return sum(self.trials(m) for m in self.counts)

    def to_frequencies(self) -> StochasticChoice:
        """Empirical choice frequencies, suitable for the identification routines."""
        table = {}
        for menu, row in self.counts.items():
            n = sum(row.values())
            table[menu] = {alt: c / n for alt, c in row.items()}
        return StochasticChoice(self.universe, table)


def simulate_counts(
    params: LamParams,
    menus: Iterable[Iterable[str]],
    n_per_menu: int,
    seed: int,
) -> ChoiceCounts:
    """Draw ``n_per_menu`` i.i.d. mixture choices from each menu.

    Sampling is multinomial per menu with PCG64 randomness; the same seed
    reproduces the same counts exactly.  Mixture probabilities are summed
    in universe order (exactly, for exact params).
    """
    if n_per_menu < 1:
        raise InvalidParameterError("n_per_menu must be at least 1")
    universe = params.universe
    u, v, a = params.u, params.v, params.alpha
    rng = np.random.default_rng(seed)
    counts: dict[Menu, dict[str, int]] = {}
    for raw in sorted((universe.menu(m) for m in menus), key=universe.menu_key):
        members = universe.sorted_members(raw)
        su = sum(u[x] for x in members)
        sv = sum(v[x] for x in members)
        p = np.array([float(a * (u[x] / su) + (1 - a) * (v[x] / sv)) for x in members])
        p = p / p.sum()
        draw = rng.multinomial(n_per_menu, p)
        counts[raw] = {x: int(c) for x, c in zip(members, draw)}
    return ChoiceCounts(universe, counts)


# ---------------------------------------------------------------------------
# Dense layout: likelihood, gradient and EM as array operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Layout:
    """Counts as menus (``data.domain`` order) x alternatives (universe order).

    ``off`` is 1 off the menus, where it pads the mixture so that logs and
    quotients there stay finite (and vanish against the zero counts).
    """

    inc: np.ndarray
    off: np.ndarray
    counts: np.ndarray
    total: float


def _layout(data: ChoiceCounts) -> _Layout:
    view = data._dense
    inc = view.mask.astype(float)
    return _Layout(inc, 1.0 - inc, view.entries, float(view.entries.sum()))


def _vectors(params: LamParams) -> tuple[np.ndarray, np.ndarray, float]:
    p = params.as_float()
    return np.array(p.u_vector()), np.array(p.v_vector()), p.alpha


def _luce(lay: _Layout, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Luce probabilities of utilities ``w`` on every menu, and the menu totals."""
    cells = lay.inc * w
    totals = cells.sum(axis=1)
    return cells / totals[:, None], totals


def _e_step(lay: _Layout, u: np.ndarray, v: np.ndarray, a: float) -> tuple:
    """Both components' probabilities and menu totals, and the mixture."""
    pu, su = _luce(lay, u)
    pv, sv = _luce(lay, v)
    return pu, su, pv, sv, a * pu + (1 - a) * pv + lay.off


def _loglik(lay: _Layout, mix: np.ndarray) -> float:
    return float((lay.counts * np.log(mix)).sum())


def _mm_step(lay: _Layout, w, weights, totals, anchor: int) -> np.ndarray:
    """One MM update of Luce utilities ``w`` on weighted counts.

    Sets w(k) <- W(k) / sum over menus S containing k of N(S)/w(S), where
    W(k) are k's weighted wins and N(S) the menu's weighted total.  The
    update increases the weighted likelihood; alternatives with no
    weighted wins keep their current value (their likelihood term is
    flat at zero weight).
    """
    wins = weights.sum(axis=0)
    denom = (lay.inc * (weights.sum(axis=1) / totals)[:, None]).sum(axis=0)
    new = np.divide(wins, denom, out=w.copy(), where=wins > 0)
    return new / new[anchor]


def _m_step(lay: _Layout, u, v, a: float, anchor: int, e: tuple) -> tuple:
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
            return _mm_step(lay, u, lay.counts, su, anchor), v, a
        return u, _mm_step(lay, v, lay.counts, sv, anchor), a
    wu = lay.counts * a * pu / mix
    return (
        _mm_step(lay, u, wu, su, anchor),
        _mm_step(lay, v, lay.counts - wu, sv, anchor),
        float(wu.sum() / lay.total),
    )


def log_likelihood(params: LamParams, data: ChoiceCounts) -> float:
    """Multinomial log-likelihood of the counts under the mixture model."""
    lay = _layout(data)
    return _loglik(lay, _e_step(lay, *_vectors(params))[-1])


def log_likelihood_gradient(
    params: LamParams, data: ChoiceCounts
) -> dict[tuple[str, str], float]:
    """Analytic gradient in unconstrained coordinates.

    Coordinates are log u(a) and log v(a) for every non-anchor a (the
    anchor is pinned at log 1 = 0) and the log-odds of alpha.  Keys are
    ("log_u", a), ("log_v", a), and ("logit_alpha", "").
    """
    u, v, a = _vectors(params)
    if not 0 < a < 1:
        raise InvalidParameterError("gradient needs interior alpha")
    lay = _layout(data)
    pu, _, pv, _, mix = _e_step(lay, u, v, a)
    wu = lay.counts * a * pu / mix
    wv = lay.counts - wu
    d_u = wu.sum(axis=0) - (pu * wu.sum(axis=1)[:, None]).sum(axis=0)
    d_v = wv.sum(axis=0) - (pv * wv.sum(axis=1)[:, None]).sum(axis=0)
    grad: dict[tuple[str, str], float] = {}
    for i, alt in enumerate(params.universe.alternatives):
        if alt != params.anchor:
            grad[("log_u", alt)] = float(d_u[i])
            grad[("log_v", alt)] = float(d_v[i])
    d_alpha = float((lay.counts * (pu - pv) / mix).sum())
    grad[("logit_alpha", "")] = a * (1 - a) * d_alpha
    return grad


def em_step(params: LamParams, data: ChoiceCounts) -> LamParams:
    """One EM update of (u, v, alpha); never decreases the likelihood.

    At a boundary alpha (0 or 1) the responsibilities degenerate, so the
    mixture weight is frozen, only the active component is refit, and a
    warning is emitted.
    """
    universe = params.universe
    lay = _layout(data)
    u, v, a = _vectors(params)
    u, v, a = _m_step(lay, u, v, a, universe.index(params.anchor), _e_step(lay, u, v, a))
    alts = universe.alternatives
    return LamParams(
        universe, dict(zip(alts, u.tolist())), dict(zip(alts, v.tolist())), a, params.anchor
    )


@dataclass(frozen=True)
class FitResult:
    """Best fit over the EM starts.

    ``ll_trace`` is the likelihood path of the winning start and
    ``monotone`` certifies that no step of any start decreased the
    likelihood beyond 1e-10.  ``status`` is ``degenerate-fit`` when every
    start collapsed to a boundary mixture weight.
    """

    params: LamParams
    log_likelihood: float
    iterations: int
    converged: bool
    empirical_rho: StochasticChoice
    ll_trace: tuple[float, ...]
    monotone: bool
    status: Literal["ok", "degenerate-fit"]
    n_starts: int
    seed: int


def fit_mle(
    data: ChoiceCounts,
    inits: int = 10,
    seed: int = 0,
    tol_ll: float = 1e-10,
    max_iter: int = 2000,
) -> FitResult:
    """Multi-start EM for the mixture model; deterministic given the seed.

    The first start is symmetric (u = v = 1, weight 1/2): equal components
    are EM-invariant, so on effectively single-rule data this start
    converges to the exact aligned optimum that random starts only crawl
    toward.  Remaining starts draw log-utilities from a standard normal
    (anchor pinned) and a uniform interior mixture weight.  Each start runs
    EM to relative likelihood convergence ``tol_ll`` or ``max_iter``, and
    the best final likelihood wins (ties keep the earlier start).  Starts
    whose mixture weight collapses to a boundary are marked degenerate and
    only win if every start degenerates.
    """
    if inits < 1:
        raise InvalidParameterError("need at least one start")
    if max_iter < 0:
        raise InvalidParameterError(f"max_iter must be non-negative, got {max_iter}")
    universe = data.universe
    alts = universe.alternatives
    anchor = alts[0]
    lay = _layout(data)
    rng = np.random.default_rng(seed)

    best = None  # (degenerate, -ll) minimizing tuple, (u, v, alpha), trace, iters, converged
    monotone = True
    for start in range(inits):
        u = np.ones(universe.size)
        v = np.ones(universe.size)
        alpha = 0.5
        if start > 0:
            for i in range(1, universe.size):  # the anchor, index 0, stays at 1
                u[i] = math.exp(rng.normal())
                v[i] = math.exp(rng.normal())
            alpha = float(rng.uniform(0.1, 0.9))

        e = _e_step(lay, u, v, alpha)
        trace = [_loglik(lay, e[-1])]
        converged = False
        for _ in range(max_iter):
            u, v, alpha = _m_step(lay, u, v, alpha, 0, e)
            e = _e_step(lay, u, v, alpha)
            trace.append(_loglik(lay, e[-1]))
            rel = (trace[-1] - trace[-2]) / max(1.0, abs(trace[-2]))
            if abs(rel) < tol_ll:
                converged = True
                break
        monotone = monotone and all(
            b - a >= -1e-10 for a, b in zip(trace, trace[1:])
        )
        degenerate = not (1e-12 < alpha < 1 - 1e-12)
        key = (degenerate, -trace[-1])
        if best is None or key < best[0]:
            best = (key, (u, v, alpha), tuple(trace), len(trace) - 1, converged)

    _, (u, v, alpha), trace, iters, converged = best
    params = LamParams(
        universe, dict(zip(alts, u.tolist())), dict(zip(alts, v.tolist())), alpha, anchor
    )
    return FitResult(
        params=params,
        log_likelihood=trace[-1],
        iterations=iters,
        converged=converged,
        empirical_rho=data.to_frequencies(),
        ll_trace=trace,
        monotone=monotone,
        status="degenerate-fit" if best[0][0] else "ok",
        n_starts=inits,
        seed=seed,
    )
