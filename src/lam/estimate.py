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
EM step), and finishes with Newton steps (Louis 1982; Jamshidian &
Jennrich 1997) on the negated analytic Hessian (the observed
information), factored by a pure-Python Cholesky; where it is
indefinite its diagonal is shifted until it factors (Levenberg 1944,
Marquardt 1963).  A Newton step is kept on its gain summed term by term,
which resolves changes below one ulp of the likelihood, and the gradient
is summed term by term too.  A start stops on the gradient, not on the
likelihood change, or where a step can no longer gain: EM's gain is then
below the rounding of the likelihood.  Estimation is double-precision
throughout; exact inputs are converted on entry.
It holds (u, v) as one vector w and runs as array operations on the
counts' membership list, ``data._dense``, or on its ``both``, that list
for each rule end to end, never reading a cell off a menu: menu totals
by ``np.add.reduceat``, per-alternative sums by ``np.bincount``, scalar
totals by ``math.fsum``, so every float reduction has a fixed order and
no result depends on ``PYTHONHASHSEED``.

Randomness comes from numpy's default generator (PCG64), seeded
explicitly: identical seeds give identical draws on any platform.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

from .choice import _cholesky_solve, _mixture, lam_choice
from .types import (
    ChoiceCounts,
    InvalidParameterError,
    LamParams,
    Menu,
    StochasticChoice,
    _Dense,
    _integer,
    _memberships,
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


def _rng(seed: int) -> np.random.Generator:
    """numpy's PCG64 generator, seeded by a non-negative integer."""
    return np.random.default_rng(_integer("seed", seed, "a non-negative integer", 0))


def simulate_counts(
    params: LamParams,
    menus: Iterable[Iterable[str]],
    n_per_menu: int,
    seed: int,
) -> ChoiceCounts:
    """Draw ``n_per_menu`` i.i.d. mixture choices from each menu.

    Sampling is multinomial per menu with PCG64 randomness; the same seed
    reproduces the same counts exactly.  Each menu's probabilities are
    :func:`lam_choice`'s, rounded to float, and for Fraction parameters
    computed in ints: int / int division rounds as ``float`` of a Fraction.
    """
    # numpy's multinomial draws take an int64 count
    n_per_menu = _integer("n_per_menu", n_per_menu, "an integer from 1 to 2**63 - 1", 1, 2**63)
    universe = params.universe
    rng = _rng(seed)
    menus = sorted((universe.menu(m) for m in menus), key=universe.menu_key)
    row, col, start, _ = _memberships(universe, menus)
    cells = _mixture(params, row, col, start)
    if cells is None:  # mixed scalar types
        probs = [np.array([float(q) for q in lam_choice(params, m).values()]) for m in menus]
    else:
        num, den = cells
        probs = np.split(num if den is None else (num / den).astype(float), start[1:])
    counts: dict[Menu, dict[str, int]] = {}
    for m, p in zip(menus, probs):
        if m in counts:
            raise InvalidParameterError(f"duplicate menu {universe.sorted_members(m)}")
        draw = rng.multinomial(n_per_menu, p / p.sum())
        counts[m] = dict(zip(universe.sorted_members(m), draw.tolist()))
    return ChoiceCounts(universe, counts)


# ---------------------------------------------------------------------------
# Likelihood, gradient and EM as array operations on the membership list
# ---------------------------------------------------------------------------


def _vectors(params: LamParams) -> tuple[np.ndarray, float]:
    """w = (u, v), each in universe order, and alpha, each value as ``float`` of it."""
    return np.array(params.u_vector() + params.v_vector(), dtype=float), float(params.alpha)


def _totals(at, x: np.ndarray) -> np.ndarray:
    """The total of ``x`` over each membership's menu, summed in member order.
    ``at`` indexes ``x``: the view for one rule, ``view.both`` for both."""
    return np.add.reduceat(x, at.start)[at.row]


def _by_alt(at, x: np.ndarray) -> np.ndarray:
    """Each alternative's total of ``x`` (per rule, for both rules), summed in menu order."""
    return np.bincount(at.col, x, at.bins)


def _e_step(view: _Dense, w: np.ndarray, a: float) -> tuple:
    """Both rules' Luce probabilities of utilities ``w`` = (u, v) and their
    menu totals, per membership and end to end, and the mixture."""
    cells = w[view.both.col]
    totals = _totals(view.both, cells)
    p = cells / totals
    half = len(view.row)
    return p, totals, a * p[:half] + (1 - a) * p[half:]


def _loglik(view: _Dense, mix: np.ndarray) -> float:
    return math.fsum((view.values * np.log(mix)).tolist())


def _m_step(view: _Dense, w: np.ndarray, a: float, anchor: int, e: tuple) -> tuple:
    """The EM update of (w, alpha) from the E-step ``e`` at that point.

    Each rule takes one MM step on its responsibility-weighted counts,
    w(k) <- W(k) / sum over menus S containing k of N(S)/w(S) with W(k) k's
    weighted wins and N(S) the menu's weighted total, and is rescaled to 1
    at the anchor.  That raises the weighted likelihood (Hunter 2004); an
    alternative with no weighted wins keeps its value (its term is flat at
    zero weight).  At a boundary alpha the frozen rule keeps its half of ``w``.
    """
    p, totals, mix = e
    counted = view.values
    frozen = a <= 0.0 or a >= 1.0
    if frozen:
        warnings.warn("alpha is at a boundary; freezing it and updating the active component only",
                      RuntimeWarning, stacklevel=3)
        wu = counted if a >= 1.0 else 0.0 * counted
    else:
        wu = counted * a * p[: len(counted)] / mix
    weights = np.concatenate((wu, counted - wu))
    wins = _by_alt(view.both, weights)
    denom = _by_alt(view.both, _totals(view.both, weights) / totals)
    new = np.divide(wins, denom, out=w.copy(), where=wins > 0).reshape(2, -1)
    new /= new[:, anchor, None]
    if frozen:
        new[int(a >= 1.0)] = w.reshape(2, -1)[int(a >= 1.0)]
    return new.ravel(), a if frozen else math.fsum(wu.tolist()) / view.both.total


def log_likelihood(params: LamParams, data: ChoiceCounts) -> float:
    """Multinomial log-likelihood of the counts under the mixture model."""
    view = data._dense
    return _loglik(view, _e_step(view, *_vectors(params))[-1])


def _gradient(view: _Dense, e: tuple, a: float) -> np.ndarray:
    """The log-likelihood gradient at the E-step ``e`` of a point with weight ``a``.

    Returns (d/d log u, d/d log v, d/d logit alpha), the first two for every
    alternative (the anchor's included).  The last is a(1 - a) times
    sum N (pu - pv) / mix, which the responsibilities reduce to
    sum wu - a * total.  Each entry sums one residual per membership, wu - pu W
    for d/d log u with W the menu's total wu (likewise for v), and
    wu - a N for alpha: the residuals vanish together at a stationary
    point, where the difference of two sums of the counts' size would
    read one ulp of those sums instead of the gradient.
    """
    p, _, mix = e
    counted = view.values
    wu = counted * a * p[: len(counted)] / mix
    w = np.concatenate((wu, counted - wu))
    d = _by_alt(view.both, w - p * _totals(view.both, w))
    return np.concatenate((d, [math.fsum((wu - a * counted).tolist())]))


def log_likelihood_gradient(
    params: LamParams, data: ChoiceCounts
) -> dict[tuple[str, str], float]:
    """Analytic gradient in unconstrained coordinates.

    Coordinates are log u(a) and log v(a) for every non-anchor a (the
    anchor is pinned at log 1 = 0) and the log-odds of alpha.  Keys are
    ("log_u", a), ("log_v", a), and ("logit_alpha", "").
    """
    w, a = _vectors(params)
    if not 0 < a < 1:
        raise InvalidParameterError("gradient needs interior alpha")
    view = data._dense
    d, n = _gradient(view, _e_step(view, w, a), a).tolist(), params.universe.size
    grad: dict[tuple[str, str], float] = {}
    for i, alt in enumerate(params.universe.alternatives):
        if alt != params.anchor:
            grad[("log_u", alt)], grad[("log_v", alt)] = d[i], d[n + i]
    grad[("logit_alpha", "")] = d[-1]
    return grad


def em_step(params: LamParams, data: ChoiceCounts) -> LamParams:
    """One EM update of (u, v, alpha); never decreases the likelihood.

    At a boundary alpha (0 or 1) the responsibilities degenerate, so the
    mixture weight is frozen, only the active component is refit, and a
    warning is emitted.
    """
    view, (w, a) = data._dense, _vectors(params)
    w, a = _m_step(view, w, a, params.universe.index(params.anchor), _e_step(view, w, a))
    return _params(params.universe, w, a, params.anchor)


def _params(universe, w: np.ndarray, a: float, anchor: str) -> LamParams:
    """The parameters at (w, alpha), w = (u, v) in universe order."""
    w, alts = w.tolist(), universe.alternatives
    return LamParams(universe, dict(zip(alts, w)), dict(zip(alts, w[len(alts):])), a, anchor)


# SQUAREM extrapolates in (log u, log v, logit alpha).  A coordinate past
# 709 overflows exp (math.exp(710) raises), so such a point is refused.
_LOG_MAX = 709.0
# A steplength backtracked this close to -1 is taken as the double EM step.
_ST_NEAR_EM = -1.01
# The largest decrease of ll that ``monotone`` tolerates in an accepted step.
_LL_DROP = 1e-10
# Newton finish: the EM maps before the first try (the wait doubles after
# each refused try) and the most halvings of a step before the try is
# refused.
_NEWTON_WAIT = 20
_NEWTON_HALVINGS = 8
# The Levenberg-Marquardt ladder: -H, then -H + mu * max|diag(-H)| * I for
# each mu in turn, until one factors.
_NEWTON_SHIFTS = (0.0, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)


def _coords(w: np.ndarray, a) -> np.ndarray:
    """A point as (log u, log v, logit alpha); the anchor's entries stay 0."""
    return np.concatenate((np.log(w), [np.log(a) - np.log1p(-a)]))


def _free(n: int) -> np.ndarray:
    """The free coordinates of (log u, log v, logit alpha): all but 0 and n, the anchor's."""
    return np.array([*range(1, n), *range(n + 1, 2 * n + 1)])


def _point(x: np.ndarray) -> tuple | None:
    """(w, alpha) at coordinates ``x``, or None where exp would overflow
    or alpha rounds to 0 or 1."""
    if not (np.abs(x) < _LOG_MAX).all():
        return None
    a = 1.0 / (1.0 + math.exp(-x[-1]))
    return (np.exp(x[:-1]), a) if 0.0 < a < 1.0 else None


def _gain(view: _Dense, mix_p: np.ndarray, mix_q: np.ndarray) -> float:
    """ll(q) - ll(p) from the two mixtures, as sum N log1p((mix_q - mix_p)/mix_p).

    Each membership's term is small where q is near p, so the sum keeps the
    gain's digits where the difference of two ll readings, each rounded
    at the scale of |ll|, would lose them.
    """
    return math.fsum((view.values * np.log1p((mix_q - mix_p) / mix_p)).tolist())


def _hessian(view: _Dense, e: tuple, a: float) -> np.ndarray:
    """The log-likelihood Hessian in the free coordinates (log u and log v
    of every alternative but the anchor, index 0, then logit alpha) at the
    E-step ``e`` of a point with weight ``a``.

    The Hessian of sum N log mix is sum N (mix'' / mix - mix' mix'^T / mix^2)
    with mix = a pu + (1 - a) pv.  With Luce's pu' = pu (e_k - pu) in
    log u, and with r = N / mix, c = r / mix and wu = a r pu, each block
    is a sum over menus S of rank-one terms, taken as one term per member
    pair (k, l) of S; the mixed (log u, log v) block has no mix'' part.
    The alpha row reuses the gradient's pieces: sum wu (e_k - pu) is
    d/d log u.
    """
    p, _, mix = e
    pu, pv = p[: len(mix)], p[len(mix) :]
    col, (i, j), n = view.col, view.pairs, view.bins
    r = view.values / mix
    c = r / mix
    b = a * (1 - a)
    wu, wv = a * r * pu, (1 - a) * r * pv
    d = c * (pu - pv)
    cell = col[i] * n + col[j]

    def block(diag, y, t, p, q):
        # diag(sum of diag) + sum over member pairs (k, l) of S of
        # -y_k q_l - p_k y_l + t_S p_k q_l
        h = np.bincount(cell, (t * p - y)[i] * q[j] - p[i] * y[j], n * n)
        h[:: n + 1] += _by_alt(view, diag)
        return h.reshape(n, n)[1:, 1:]

    yu, yv, yuv = wu - a * a * c * pu * pu, wv - (1 - a) ** 2 * c * pv * pv, b * c * pu * pv
    su, sv = _totals(view, wu), _totals(view, wv)
    k = n - 1
    h = np.empty((2 * k + 1, 2 * k + 1))
    h[:k, :k] = block(yu - su * pu, yu, _totals(view, yu) + su, pu, pu)
    h[k:-1, k:-1] = block(yv - sv * pv, yv, _totals(view, yv) + sv, pv, pv)
    h[:k, k:-1] = block(-yuv, -yuv, -_totals(view, yuv), pu, pv)
    h[k:-1, :k] = h[:k, k:-1].T
    # the alpha tilts, both rules at once: sum over memberships of y_k (e_k - p)
    y = np.concatenate(((1 - a) * wu - a * b * d * pu, -a * wv - (1 - a) * b * d * pv))
    h[:-1, -1] = h[-1, :-1] = _by_alt(view.both, y - _totals(view.both, y) * p)[_free(n)[:-1]]
    h[-1, -1] = (1 - 2 * a) * b * (r * (pu - pv)).sum() - b * b * (d * (pu - pv)).sum()
    return h


def _newton_step(view: _Dense, point: tuple, e: tuple, grad: np.ndarray) -> tuple | None:
    """A safeguarded Newton step from ``point`` in the free coordinates.

    The step is (-H + mu s I)^-1 grad, with H the analytic Hessian
    (``_hessian``) in the m = 2n - 1 free coordinates and s = max |diag H|.
    mu climbs ``_NEWTON_SHIFTS`` (0, then 1e-4 up to 1) until the shifted
    matrix factors (``_cholesky_solve``): the plain Newton step where -H
    is positive definite, a Levenberg-Marquardt step, between Newton and
    scaled gradient ascent, where it is not (Levenberg 1944, Marquardt
    1963).  Either is an ascent direction, halved up to
    ``_NEWTON_HALVINGS`` times until the new point passes ``_point``'s
    guards and its gain (``_gain``) is at least ``-_LL_DROP``.  Returns
    the new point, its E-step and the gain, or None when no shift factors
    or no halving is accepted.
    """
    free = _free(len(point[0]) // 2)
    x = _coords(*point)
    # a step may overflow anywhere; what that leaves non-finite fails the
    # guards below
    with np.errstate(all="ignore"):
        neg = -_hessian(view, e, point[1])
        if not np.isfinite(neg).all():
            return None
        rows, b, diag = neg.tolist(), grad.tolist(), np.diag(neg).tolist()
        shift = max(map(abs, diag))
        for mu in _NEWTON_SHIFTS:  # each rung sets the diagonal of the same rows
            for i, d in enumerate(diag):
                rows[i][i] = d + mu * shift
            step = _cholesky_solve(rows, b)
            if step is not None:
                break
        else:
            return None
        step = np.array(step)
        for _ in range(_NEWTON_HALVINGS + 1):
            y = x.copy()
            y[free] += step
            q = _point(y)
            if q is not None:
                eq = _e_step(view, *q)
                gain = _gain(view, e[-1], eq[-1])
                if gain >= -_LL_DROP:  # false for a NaN gain
                    return q, eq, gain
            step /= 2
    return None


def _em_start(view: _Dense, point: tuple, tol_ll: float, max_iter: int) -> tuple:
    """One start of SQUAREM-accelerated EM from ``point`` = (w, alpha),
    finished by Newton steps.

    Each cycle takes two EM maps x1 = F(x0), x2 = F(x1), extrapolates to
    x0 - 2 st r + st^2 v with r = x1 - x0, v = x2 - 2 x1 + x0 and the S3
    steplength st = min(-1, -|r|/|v|) (Varadhan & Roland 2008), and
    stabilises that point with one more map.  It is accepted only if its
    log-likelihood is finite and at least the last accepted one; otherwise
    st backtracks to (st - 1)/2, and the plain double step x2 is taken once
    st is near -1, or at once when the point fails a guard (an overflowing
    exp, alpha rounding to 0 or 1).

    Once ``_NEWTON_WAIT`` maps are spent the start tries a Newton step
    (``_newton_step``; Louis 1982, Jamshidian & Jennrich 1997) in place of
    a cycle, with -H's diagonal shifted up a fixed ladder where it does
    not factor, so an indefinite Hessian still gives a step.  A try counts
    as one map.  Each refused try (no shift factors, or no halving is
    accepted) doubles the maps before the next (tries from 20, 40, 80 ...
    maps on); after an accepted step the next try comes at once.  A Newton
    step is accepted on its gain, the sum of per-membership log-ratio terms, not
    on the difference of two ll readings: at |ll| near 1e6 one ulp of ll
    exceeds ``_LL_DROP``, so a step that takes max |gradient| from 1e-3 to
    1e-9 can read one ulp lower.

    The start stops when max |gradient| in the free coordinates is at most
    ``tol_ll * max(1, |ll|)``, after ``max_iter`` maps (backtracking maps
    and Newton tries included), when an accepted Newton step gained at
    most ``_LL_DROP`` and did not lower max |gradient| (the rounding
    floor), or when the plain EM step that a cycle falls back to lowers ll
    by more than ``_LL_DROP``; in the last case it keeps its last accepted
    point, so no accepted step fails ``monotone``.

    Returns the final point, the log-likelihood of every accepted point,
    every accepted step's gain (the difference of readings for a cycle,
    ``_gain`` for a Newton step), the maps spent, whether the gradient
    test passed, and the final max |gradient|.
    """

    def em_map(p, e):
        q = _m_step(view, *p, 0, e)
        eq = _e_step(view, *q)
        return q, eq, _loglik(view, eq[-1])

    free = _free(len(point[0]) // 2)
    e = _e_step(view, *point)
    trace = [_loglik(view, e[-1])]
    gains, maps, wait = [], 0, _NEWTON_WAIT
    newton_from = math.inf  # max |gradient| before an accepted Newton step
    while True:
        g = _gradient(view, e, point[1])[free]
        grad = float(np.abs(g).max())
        converged = grad <= tol_ll * max(1.0, abs(trace[-1]))
        # a Newton step that neither lowered max |gradient| nor gained more
        # than ll's rounding: the start is at the rounding floor
        floor = grad >= newton_from and gains[-1] <= _LL_DROP
        if converged or maps == max_iter or floor:
            return point, trace, gains, maps, converged, grad
        if maps >= wait or newton_from < math.inf:
            maps += 1
            step = _newton_step(view, point, e, g)
            if step is None:
                wait *= 2
                newton_from = math.inf
            else:
                point, e, gain = step
                trace.append(_loglik(view, e[-1]))
                gains.append(gain)
                newton_from = grad
            continue
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
                    q, eq, llq = em_map(q, _e_step(view, *q))
                    maps += 1
                    if not (0.0 < q[1] < 1.0 and math.isfinite(llq)):
                        break
                    if llq >= trace[-1]:
                        new = q, eq, llq
                        break
                    st = (st - 1) / 2
        # EM raises ll in exact arithmetic, but near a stationary point the
        # gain falls below ll's rounding (one ulp is 1.2e-10 at |ll| = 1e6),
        # so even the plain step can read lower: the start ends there
        if new[2] - trace[-1] < -_LL_DROP:
            return point, trace, gains, maps, False, grad
        point, e = new[0], new[1]
        gains.append(new[2] - trace[-1])
        trace.append(new[2])


@dataclass(frozen=True)
class FitResult:
    """Best fit over the EM starts.

    ``iterations`` is the winning start's number of EM maps, each Newton
    try counted as one, and ``start_iterations`` that number for every
    start.  ``ll_trace`` is the log-likelihood of the winning start at its
    first point and after each accepted SQUAREM cycle or Newton step (one
    entry per step, not per map).  ``converged`` means that the winning
    start stopped on the gradient test: ``grad_max``, its final max
    |gradient| in the unconstrained coordinates (log u, log v, logit
    alpha), is at most ``tol_ll * max(1, |log_likelihood|)``.  That
    certifies a stationary point, which need not be a maximum; ``maximum``
    certifies a strict local maximum: -H at the returned point factors by
    an unshifted Cholesky.  ``monotone`` certifies that no accepted step of any start
    decreased the likelihood beyond 1e-10: a SQUAREM cycle by the
    difference of the two ll readings, a Newton step (shifted
    Levenberg-Marquardt style where the Hessian is indefinite) by its gain
    summed membership by membership, which resolves changes well below one
    ulp of ll (1.2e-10 at |ll| = 1e6).  So ``ll_trace`` can read one ulp
    lower after a Newton step.  The gradient behind ``grad_max`` is summed
    membership by membership as well, so at the optimum it reads the
    gradient rather than one ulp of sums of the counts' size.  ``status``
    is ``degenerate-fit`` when every start collapsed to a boundary mixture
    weight.
    """

    params: LamParams
    log_likelihood: float
    iterations: int
    converged: bool
    maximum: bool
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
    Each start runs SQUAREM-accelerated EM with a Newton finish, whose
    Hessian is shifted up a fixed Levenberg-Marquardt ladder where it is
    indefinite (see ``_em_start``), until max |gradient|, summed membership
    by membership, is at most ``tol_ll * max(1, |ll|)``, it has spent ``max_iter``
    EM maps (a Newton try counts as one), an accepted Newton step gained at
    most 1e-10 and did not lower max |gradient|, or its next EM step would
    lower the likelihood by more than 1e-10, and the best final likelihood
    wins (ties keep the earlier start).  Starts whose mixture weight
    collapses to a boundary are marked degenerate and only win if every
    start degenerates.
    """
    inits = _integer("inits", inits, "a positive integer", 1)
    max_iter = _integer("max_iter", max_iter, "a non-negative integer", 0)
    universe, view, rng = data.universe, data._dense, _rng(seed)
    n = universe.size

    best = None  # (degenerate, -ll) minimizing tuple, then _em_start's results
    monotone = True
    start_iterations = []
    for start in range(inits):
        w, alpha = np.ones(2 * n), 0.5
        if start > 0:
            # u(i) and v(i) in turn for each i but the anchor, index 0, which stays at 1
            z = rng.normal(size=2 * n - 2).tolist()
            w[1:] = [*map(math.exp, z[::2]), 1.0, *map(math.exp, z[1::2])]
            alpha = float(rng.uniform(0.1, 0.9))
        point, trace, gains, maps, converged, grad = _em_start(view, (w, alpha), tol_ll, max_iter)
        start_iterations.append(maps)
        monotone = monotone and all(g >= -_LL_DROP for g in gains)
        key = (not 1e-12 < point[1] < 1 - 1e-12, -trace[-1])  # degenerate starts last
        if best is None or key < best[0]:
            best = (key, point, tuple(trace), maps, converged, grad)

    _, (w, alpha), trace, iters, converged, grad = best
    with np.errstate(all="ignore"):
        neg = -_hessian(view, _e_step(view, w, alpha), alpha)
    maximum = bool(np.isfinite(neg).all()) and _cholesky_solve(neg.tolist(), [0.0] * len(neg)) is not None
    return FitResult(
        params=_params(universe, w, alpha, universe.alternatives[0]),
        log_likelihood=trace[-1],
        iterations=iters,
        converged=converged,
        maximum=maximum,
        grad_max=grad,
        start_iterations=tuple(start_iterations),
        empirical_rho=data.to_frequencies(),
        ll_trace=trace,
        monotone=monotone,
        status="degenerate-fit" if best[0][0] else "ok",
        n_starts=inits,
        seed=seed,
    )
