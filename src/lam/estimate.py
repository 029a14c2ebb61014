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
(ECM, Meng & Rubin 1993) whose likelihood never decreases.  ``fit_mle``
accelerates that map with SQUAREM (Varadhan & Roland 2008) in
(log u, log v, logit alpha), keeps an extrapolated point only if it does
not lower the likelihood (else it backtracks, then takes the plain double
EM step), and stops a start on the gradient, not on the likelihood
change, or where even the plain step reads lower: EM's gain is then
below the rounding of the likelihood.  Estimation is double-precision
throughout; exact inputs are converted on entry.
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
            if menu in norm:
                raise InvalidParameterError(
                    f"duplicate menu {self.universe.sorted_members(menu)}"
                )
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


def _rng(seed: int) -> np.random.Generator:
    """numpy's PCG64 generator, seeded by a non-negative integer."""
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise InvalidParameterError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.default_rng(seed)


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
    rng = _rng(seed)
    counts: dict[Menu, dict[str, int]] = {}
    for raw in sorted((universe.menu(m) for m in menus), key=universe.menu_key):
        members = universe.sorted_members(raw)
        if raw in counts:
            raise InvalidParameterError(f"duplicate menu {members}")
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


def _gradient(lay: _Layout, e: tuple, a: float) -> tuple[np.ndarray, np.ndarray, float]:
    """The log-likelihood gradient at the E-step ``e`` of a point with weight ``a``.

    Returns d/d log u and d/d log v for every alternative (the anchor's
    entries included) and d/d logit alpha.  The last is a(1 - a) times
    sum N (pu - pv) / mix, which the responsibilities reduce to
    sum wu - a * total.
    """
    pu, _, pv, _, mix = e
    wu = lay.counts * a * pu / mix
    wv = lay.counts - wu
    d_u = wu.sum(axis=0) - (pu * wu.sum(axis=1)[:, None]).sum(axis=0)
    d_v = wv.sum(axis=0) - (pv * wv.sum(axis=1)[:, None]).sum(axis=0)
    return d_u, d_v, float(wu.sum()) - a * lay.total


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
    d_u, d_v, d_logit = _gradient(lay, _e_step(lay, u, v, a), a)
    grad: dict[tuple[str, str], float] = {}
    for i, alt in enumerate(params.universe.alternatives):
        if alt != params.anchor:
            grad[("log_u", alt)] = float(d_u[i])
            grad[("log_v", alt)] = float(d_v[i])
    grad[("logit_alpha", "")] = d_logit
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


# SQUAREM extrapolates in (log u, log v, logit alpha).  A coordinate past
# 709 overflows exp (math.exp(710) raises), so such a point is refused.
_LOG_MAX = 709.0
# A steplength backtracked this close to -1 is taken as the double EM step.
_ST_NEAR_EM = -1.01
# The largest decrease of ll that ``monotone`` tolerates in an accepted step.
_LL_DROP = 1e-10


def _coords(u: np.ndarray, v: np.ndarray, a) -> np.ndarray:
    """A point as (log u, log v, logit alpha); the anchor's entries stay 0."""
    return np.concatenate((np.log(u), np.log(v), [np.log(a) - np.log1p(-a)]))


def _point(x: np.ndarray) -> tuple | None:
    """(u, v, alpha) at coordinates ``x``, or None where exp would overflow
    or alpha rounds to 0 or 1."""
    if not (np.abs(x) < _LOG_MAX).all():
        return None
    a = 1.0 / (1.0 + math.exp(-x[-1]))
    if not 0.0 < a < 1.0:
        return None
    w = np.exp(x[:-1])
    return w[: len(w) // 2], w[len(w) // 2 :], a


def _em_start(lay: _Layout, point: tuple, tol_ll: float, max_iter: int) -> tuple:
    """One start of SQUAREM-accelerated EM from ``point`` = (u, v, alpha).

    Each cycle takes two EM maps x1 = F(x0), x2 = F(x1), extrapolates to
    x0 - 2 st r + st^2 v with r = x1 - x0, v = x2 - 2 x1 + x0 and the S3
    steplength st = min(-1, -|r|/|v|) (Varadhan & Roland 2008), and
    stabilises that point with one more map.  It is accepted only if its
    log-likelihood is finite and at least the last accepted one; otherwise
    st backtracks to (st - 1)/2, and the plain double step x2 is taken once
    st is near -1, or at once when the point fails a guard (an overflowing
    exp, alpha rounding to 0 or 1).  The start stops when max |gradient| in
    the unconstrained coordinates is at most ``tol_ll * max(1, |ll|)``,
    after ``max_iter`` EM maps, backtracking maps included, or when the
    plain EM step it falls back to lowers ll by more than ``_LL_DROP``; it
    then keeps its last accepted point, so no accepted step fails
    ``monotone``.

    Returns the final point, the log-likelihood of every accepted point,
    the EM maps spent, whether the gradient test passed, and the final
    max |gradient|.
    """

    def em_map(p, e):
        q = _m_step(lay, *p, 0, e)
        eq = _e_step(lay, *q)
        return q, eq, _loglik(lay, eq[-1])

    e = _e_step(lay, *point)
    trace = [_loglik(lay, e[-1])]
    maps = 0
    while True:
        d_u, d_v, d_logit = _gradient(lay, e, point[2])
        grad = float(np.abs(np.concatenate((d_u[1:], d_v[1:], [d_logit]))).max())
        converged = grad <= tol_ll * max(1.0, abs(trace[-1]))
        if converged or maps == max_iter:
            return point, trace, maps, converged, grad
        new = first = em_map(point, e)
        maps += 1
        if maps < max_iter:
            new = em_map(*first[:2])
            maps += 1
        if maps < max_iter:
            # an extrapolated point may overflow or divide by zero anywhere;
            # the guards below catch what that leaves non-finite
            with np.errstate(all="ignore"):
                x0, x1, x2 = _coords(*point), _coords(*first[0]), _coords(*new[0])
                r, v = x1 - x0, x2 - 2 * x1 + x0
                # summed in a fixed order (no BLAS), so fits repeat across processes
                nr, nv = np.sqrt((r * r).sum()), np.sqrt((v * v).sum())
                st = min(-1.0, -nr / nv) if nv > 0 else -1.0
                while st < _ST_NEAR_EM and maps < max_iter:
                    q = _point(x0 - 2 * st * r + st * st * v)
                    if q is None:
                        break
                    q, eq, llq = em_map(q, _e_step(lay, *q))
                    maps += 1
                    if not (0.0 < q[2] < 1.0 and math.isfinite(llq)):
                        break
                    if llq >= trace[-1]:
                        new = q, eq, llq
                        break
                    st = (st - 1) / 2
        # EM raises ll in exact arithmetic, but near a stationary point the
        # gain falls below ll's rounding (one ulp is 1.2e-10 at |ll| = 1e6),
        # so even the plain step can read lower: the start ends there
        if new[2] - trace[-1] < -_LL_DROP:
            return point, trace, maps, False, grad
        point, e = new[0], new[1]
        trace.append(new[2])


@dataclass(frozen=True)
class FitResult:
    """Best fit over the EM starts.

    ``iterations`` is the winning start's number of EM maps and
    ``start_iterations`` that number for every start.  ``ll_trace`` is the
    log-likelihood of the winning start at its first point and after each
    accepted SQUAREM cycle (one entry per cycle, not per map).
    ``converged`` means that the winning start stopped on the gradient
    test: ``grad_max``, its final max |gradient| in the unconstrained
    coordinates (log u, log v, logit alpha), is at most
    ``tol_ll * max(1, |log_likelihood|)``.  That certifies a stationary
    point, which need not be a maximum.  ``monotone`` certifies that no
    accepted step of any start decreased the likelihood beyond 1e-10.  A
    start ends unconverged when its next step would break that: from
    |ll| = 2**19 one ulp of ll exceeds 1e-10, so on large data a start can
    end where EM's gain is below ll's rounding, before the gradient test.
    ``status`` is ``degenerate-fit`` when every start collapsed to a
    boundary mixture weight.
    """

    params: LamParams
    log_likelihood: float
    iterations: int
    converged: bool
    grad_max: float
    start_iterations: tuple[int, ...]
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
    are EM-invariant, so this start ends at the aligned stationary point
    u = v, which is the optimum on effectively single-rule data and may be
    a saddle otherwise.  Remaining starts draw log-utilities from a
    standard normal (anchor pinned) and a uniform interior mixture weight.
    Each start runs SQUAREM-accelerated EM (see ``_em_start``) until max
    |gradient| is at most ``tol_ll * max(1, |ll|)``, it has spent
    ``max_iter`` EM maps, or its next step would lower the likelihood by
    more than 1e-10, and the best final likelihood wins (ties keep the
    earlier start).  Starts whose mixture weight collapses to a boundary
    are marked degenerate and only win if every start degenerates.
    """
    if inits < 1:
        raise InvalidParameterError("need at least one start")
    if max_iter < 0:
        raise InvalidParameterError(f"max_iter must be non-negative, got {max_iter}")
    universe = data.universe
    alts = universe.alternatives
    anchor = alts[0]
    lay = _layout(data)
    rng = _rng(seed)

    best = None  # (degenerate, -ll) minimizing tuple, then _em_start's results
    monotone = True
    start_iterations = []
    for start in range(inits):
        u = np.ones(universe.size)
        v = np.ones(universe.size)
        alpha = 0.5
        if start > 0:
            for i in range(1, universe.size):  # the anchor, index 0, stays at 1
                u[i] = math.exp(rng.normal())
                v[i] = math.exp(rng.normal())
            alpha = float(rng.uniform(0.1, 0.9))

        point, trace, maps, converged, grad = _em_start(lay, (u, v, alpha), tol_ll, max_iter)
        start_iterations.append(maps)
        monotone = monotone and all(
            b - a >= -_LL_DROP for a, b in zip(trace, trace[1:])
        )
        alpha = point[2]
        degenerate = not (1e-12 < alpha < 1 - 1e-12)
        key = (degenerate, -trace[-1])
        if best is None or key < best[0]:
            best = (key, point, tuple(trace), maps, converged, grad)

    _, (u, v, alpha), trace, iters, converged, grad = best
    params = LamParams(
        universe, dict(zip(alts, u.tolist())), dict(zip(alts, v.tolist())), alpha, anchor
    )
    return FitResult(
        params=params,
        log_likelihood=trace[-1],
        iterations=iters,
        converged=converged,
        grad_max=grad,
        start_iterations=tuple(start_iterations),
        empirical_rho=data.to_frequencies(),
        ll_trace=trace,
        monotone=monotone,
        status="degenerate-fit" if best[0][0] else "ok",
        n_starts=inits,
        seed=seed,
    )
