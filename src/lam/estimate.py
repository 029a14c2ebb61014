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
It runs as array operations on the counts' membership list,
``data._dense.members``, never reading a cell off a menu: menu totals by
``np.add.reduceat``, per-alternative sums by ``np.bincount``, scalar
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
    _incidence,
    _integer,
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
    mask = _incidence(universe, menus)
    cells = _mixture(params, mask)
    if cells is None:  # mixed scalar types
        probs = [np.array([float(q) for q in lam_choice(params, m).values()]) for m in menus]
    else:
        _, _, num, den = cells
        probs = np.split(num if den is None else (num / den).astype(float), np.cumsum(mask.sum(1))[:-1])
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


def _vectors(params: LamParams) -> tuple[np.ndarray, np.ndarray, float]:
    """u and v in universe order and alpha, each value as ``float`` of it."""
    return (np.array(params.u_vector(), dtype=float), np.array(params.v_vector(), dtype=float),
            float(params.alpha))


def _totals(view: _Dense, x: np.ndarray) -> np.ndarray:
    """The total of ``x`` over each membership's menu, summed in member order."""
    return np.add.reduceat(x, view.members.start)[view.members.row]


def _by_alt(view: _Dense, x: np.ndarray) -> np.ndarray:
    """Each alternative's total of ``x``, one value per membership, in menu order."""
    return np.bincount(view.members.col, x, view.mask.shape[1])


def _luce(view: _Dense, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Luce probabilities of utilities ``w`` at every membership, and its menu's total."""
    cells = w[view.members.col]
    totals = _totals(view, cells)
    return cells / totals, totals


def _e_step(view: _Dense, u: np.ndarray, v: np.ndarray, a: float) -> tuple:
    """Both components' probabilities and menu totals per membership, and the mixture."""
    pu, su = _luce(view, u)
    pv, sv = _luce(view, v)
    return pu, su, pv, sv, a * pu + (1 - a) * pv


def _loglik(view: _Dense, mix: np.ndarray) -> float:
    return math.fsum((view.members.values * np.log(mix)).tolist())


def _mm_step(view: _Dense, w, weights, totals, anchor: int) -> np.ndarray:
    """One MM update of Luce utilities ``w`` on weighted counts.

    Sets w(k) <- W(k) / sum over menus S containing k of N(S)/w(S), where
    W(k) are k's weighted wins and N(S) the menu's weighted total.  The
    update increases the weighted likelihood; alternatives with no
    weighted wins keep their current value (their likelihood term is
    flat at zero weight).
    """
    wins = _by_alt(view, weights)
    denom = _by_alt(view, _totals(view, weights) / totals)
    new = np.divide(wins, denom, out=w.copy(), where=wins > 0)
    return new / new[anchor]


def _m_step(view: _Dense, u, v, a: float, anchor: int, e: tuple) -> tuple:
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
            return _mm_step(view, u, view.members.values, su, anchor), v, a
        return u, _mm_step(view, v, view.members.values, sv, anchor), a
    wu = view.members.values * a * pu / mix
    return (
        _mm_step(view, u, wu, su, anchor),
        _mm_step(view, v, view.members.values - wu, sv, anchor),
        math.fsum(wu.tolist()) / float(view.members.values.sum()),
    )


def log_likelihood(params: LamParams, data: ChoiceCounts) -> float:
    """Multinomial log-likelihood of the counts under the mixture model."""
    view = data._dense
    return _loglik(view, _e_step(view, *_vectors(params))[-1])


def _gradient(view: _Dense, e: tuple, a: float) -> tuple[np.ndarray, np.ndarray, float]:
    """The log-likelihood gradient at the E-step ``e`` of a point with weight ``a``.

    Returns d/d log u and d/d log v for every alternative (the anchor's
    entries included) and d/d logit alpha.  The last is a(1 - a) times
    sum N (pu - pv) / mix, which the responsibilities reduce to
    sum wu - a * total.  Each entry sums one residual per membership, wu - pu W
    for d/d log u with W the menu's total wu (likewise for v), and
    wu - a N for alpha: the residuals vanish together at a stationary
    point, where the difference of two sums of the counts' size would
    read one ulp of those sums instead of the gradient.
    """
    pu, _, pv, _, mix = e
    wu = view.members.values * a * pu / mix
    wv = view.members.values - wu
    d_u = _by_alt(view, wu - pu * _totals(view, wu))
    d_v = _by_alt(view, wv - pv * _totals(view, wv))
    return d_u, d_v, math.fsum((wu - a * view.members.values).tolist())


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
    view = data._dense
    d_u, d_v, d_logit = _gradient(view, _e_step(view, u, v, a), a)
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
    view = data._dense
    u, v, a = _vectors(params)
    u, v, a = _m_step(view, u, v, a, universe.index(params.anchor), _e_step(view, u, v, a))
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
# Newton finish: the EM maps before the first try (the wait doubles after
# each refused try) and the most halvings of a step before the try is
# refused.
_NEWTON_WAIT = 20
_NEWTON_HALVINGS = 8
# The Levenberg-Marquardt ladder: -H, then -H + mu * max|diag(-H)| * I for
# each mu in turn, until one factors.
_NEWTON_SHIFTS = (0.0, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)


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


def _gain(view: _Dense, mix_p: np.ndarray, mix_q: np.ndarray) -> float:
    """ll(q) - ll(p) from the two mixtures, as sum N log1p((mix_q - mix_p)/mix_p).

    Each membership's term is small where q is near p, so the sum keeps the
    gain's digits where the difference of two ll readings, each rounded
    at the scale of |ll|, would lose them.
    """
    return math.fsum((view.members.values * np.log1p((mix_q - mix_p) / mix_p)).tolist())


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
    pu, _, pv, _, mix = e
    col, (i, j) = view.members.col, view.members.pairs
    n = view.mask.shape[1]
    r = view.members.values / mix
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

    def tilt(y, p):  # sum over memberships of y_k (e_k - p)
        return _by_alt(view, y - _totals(view, y) * p)[1:]

    yu, yv, yuv = wu - a * a * c * pu * pu, wv - (1 - a) ** 2 * c * pv * pv, b * c * pu * pv
    su, sv = _totals(view, wu), _totals(view, wv)
    k = n - 1
    h = np.empty((2 * k + 1, 2 * k + 1))
    h[:k, :k] = block(yu - su * pu, yu, _totals(view, yu) + su, pu, pu)
    h[k:-1, k:-1] = block(yv - sv * pv, yv, _totals(view, yv) + sv, pv, pv)
    h[:k, k:-1] = block(-yuv, -yuv, -_totals(view, yuv), pu, pv)
    h[k:-1, :k] = h[:k, k:-1].T
    h[:k, -1] = h[-1, :k] = tilt((1 - a) * wu - a * b * d * pu, pu)
    h[k:-1, -1] = h[-1, k:-1] = tilt(-a * wv - (1 - a) * b * d * pv, pv)
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
    n = len(point[0])
    free = [*range(1, n), *range(n + 1, 2 * n + 1)]
    x = _coords(*point)
    # a step may overflow anywhere; what that leaves non-finite fails the
    # guards below
    with np.errstate(all="ignore"):
        neg = -_hessian(view, e, point[2])
        if not np.isfinite(neg).all():
            return None
        diag = np.diag(neg).copy()
        shift = np.abs(diag).max()
        for mu in _NEWTON_SHIFTS:
            np.fill_diagonal(neg, diag + mu * shift)
            step = _cholesky_solve(neg.tolist(), grad.tolist())
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
    """One start of SQUAREM-accelerated EM from ``point`` = (u, v, alpha),
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

    e = _e_step(view, *point)
    trace = [_loglik(view, e[-1])]
    gains = []
    maps = 0
    wait = _NEWTON_WAIT
    newton_from = math.inf  # max |gradient| before an accepted Newton step
    while True:
        d_u, d_v, d_logit = _gradient(view, e, point[2])
        g = np.concatenate((d_u[1:], d_v[1:], [d_logit]))  # the free coordinates
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
    universe = data.universe
    alts = universe.alternatives
    anchor = alts[0]
    view = data._dense
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

        point, trace, gains, maps, converged, grad = _em_start(
            view, (u, v, alpha), tol_ll, max_iter
        )
        start_iterations.append(maps)
        monotone = monotone and all(g >= -_LL_DROP for g in gains)
        alpha = point[2]
        degenerate = not (1e-12 < alpha < 1 - 1e-12)
        key = (degenerate, -trace[-1])
        if best is None or key < best[0]:
            best = (key, point, tuple(trace), maps, converged, grad)

    _, (u, v, alpha), trace, iters, converged, grad = best
    with np.errstate(all="ignore"):
        neg = -_hessian(view, _e_step(view, u, v, alpha), alpha)
    maximum = bool(np.isfinite(neg).all()) and _cholesky_solve(neg.tolist(), [0.0] * len(neg)) is not None
    params = LamParams(
        universe, dict(zip(alts, u.tolist())), dict(zip(alts, v.tolist())), alpha, anchor
    )
    return FitResult(
        params=params,
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
