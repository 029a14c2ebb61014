"""Laboratory-setting identification: recover (u, v, alpha) from both agents.

With the human's choices observed alongside the AI's, identification runs
in three steps: read u off the human's Luce rule, read compliance off the
ratio of the AI's own instability to the composite instability of the pair
(the two are proportional with slope alpha across every tuple), then peel
the human component out of the AI data and read v off the remaining Luce
rule.  The whole pipeline collapses into three explicit degenerate cases:
identical AI and human data, or AI data violating IIA only with menus the
human data lacks (alpha and v not separately identified), an
IIA-satisfying AI that differs from the human (compliance must be zero),
and data admitting no mixture representation at all (inconsistent).

``check_axioms`` tests the five behavioral conditions that characterize
consistency with the mixture model, reporting a concrete witness for every
failure.
"""

from __future__ import annotations

import numbers
import operator
from collections import deque
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Literal, Mapping, get_args

import numpy as np

from .choice import (
    _compare_tol,
    _first_nonpositive,
    _first_true,
    _Kernel,
    _own_violations,
    _Top,
    _residual,
    recover_luce_utility,
    satisfies_iia,
)
from .types import (
    DegenerateDivisionError,
    InconsistentInputsError,
    InstabilityTuple,
    InvalidParameterError,
    LamParams,
    NotIdentifiedError,
    NotLuceError,
    PartiallyIdentifiedError,
    Scalar,
    StochasticChoice,
    _floats,
    _join,
    _same_universe,
    _shared,
    _show,
    resolve_tol,
)

__all__ = [
    "AlphaEstimate",
    "LabResult",
    "AxiomVerdict",
    "AxiomReport",
    "estimate_alpha",
    "recover_autonomous",
    "identify_lab",
    "check_axioms",
]

AlphaStrategy = Literal["single-tuple", "least-squares"]
_DISJOINT = "the AI and human data share no menus"


def _check_strategy(strategy: str) -> None:
    if strategy not in get_args(AlphaStrategy):
        raise InvalidParameterError(f"unknown alpha strategy {strategy!r}")


# ---------------------------------------------------------------------------
# Compliance estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlphaEstimate:
    """Compliance estimate with fit diagnostics.

    ``n_tuples`` counts the canonical tuples with a usable composite term
    (magnitude above tol), and ``best`` is the one with the largest
    composite instability.  ``r_squared`` measures how well the
    proportionality law fits over all canonical tuples (1 means exact),
    which is the model-fit diagnostic for noisy data.  ``alpha`` is
    clamped to [0, 1] in float mode; ``raw`` is the unclamped value.  In
    float mode the least-squares ``raw`` and ``r_squared`` are the
    correctly rounded values of their exact counterparts over the float64
    entries, so no summation order or Python version moves them.
    """

    alpha: Scalar
    raw: Scalar
    strategy: AlphaStrategy
    best: InstabilityTuple
    r_squared: Scalar
    n_tuples: int


def estimate_alpha(
    rho_ai: StochasticChoice,
    rho_h: StochasticChoice,
    strategy: AlphaStrategy = "least-squares",
    tol: Scalar | None = None,
) -> AlphaEstimate:
    """Estimate compliance from the instability proportionality law.

    single-tuple picks the canonical tuple with the largest composite
    instability and returns the ratio own/composite there; least-squares
    returns the slope of own-on-composite over the tuples with composite
    magnitude above tol.  The two agree exactly on noiseless mixture data.
    ``r_squared`` compares the residuals over every tuple with the sum of
    squared own instabilities.

    The sums are exact in both modes: per-pair inner products of integer
    rows (:meth:`_Kernel.sums`), over every tuple, of the entries' true
    values, a float64 being a dyadic rational.  Float rows take them from
    limbs whose every partial sum is an int below 2**53, once the pass has
    found a big tuple and the best usable one.  The slope subtracts the
    tuples with |p| <= tol again, exactly, read in step with the pass, an
    exact pair's on its own scale before its one lift.  ``r_squared`` uses
    the reported ``raw``, and float mode rounds each of the two once.  An
    exact pair whose d and p are parallel (:attr:`_Kernel.slope`, from the
    unweighted sums) skips them: d = raw p on every tuple, so the slope of
    every usable subset is the ratio at ``best``, and ``r_squared`` is 1.
    The tests against tol, ``best`` and the single-tuple ratio use d and p
    as evaluated in the tables' arithmetic.

    Raises, in this order, :class:`InvalidParameterError` for an unknown
    strategy or tables over different universes,
    :class:`InsufficientDataError` when the data share no menus,
    :class:`PartiallyIdentifiedError` when they coincide there,
    :class:`NotIdentifiedError` when the AI data has no IIA violation there
    (compliance could be 0 or 1, or the utilities aligned), and
    :class:`InconsistentInputsError` when every composite term vanishes.
    """
    _check_strategy(strategy)
    exact = rho_ai.is_exact and rho_h.is_exact
    eff = resolve_tol(tol, exact)
    kernel = _Kernel(rho_ai, _shared(rho_ai, rho_h, _DISJOINT), rho_h, eff)
    if kernel.coincide():
        raise PartiallyIdentifiedError(
            "AI and human choices coincide; alpha and v are not separately identified"
        )

    top, tally = _Top(kernel), [0, 0]

    def unusable():  # per run: the big and usable tuples, the largest usable |p|
        for ids, scan, (big, usable), _ in kernel.tested(["big", "usable"]):
            tally[0] += int(np.count_nonzero(big))
            tally[1] += int(np.count_nonzero(usable))
            top.add(ids, scan, usable)
            yield ~usable

    parallel = exact and kernel.slope is not None
    # the sums cover every tuple: the pass takes the unusable ones out again
    if exact:
        sums = deque(unusable(), maxlen=0) if parallel else kernel.sums(out=unusable())
    else:  # the Gram entries wait for the checks below
        left = kernel.left_out(unusable())
    if not tally[0]:
        raise NotIdentifiedError(
            "AI data satisfies IIA: compliance is 0 or 1, or the utilities "
            "are aligned; it cannot be point-identified",
            possible_regimes=("autonomous", "compliant", "aligned"),
        )
    best = top.result()  # first usable tuple with the largest |p|
    if best is None:
        raise InconsistentInputsError(
            "AI data violates IIA while every composite instability vanishes; "
            "no mixture representation exists"
        )

    div = Fraction if exact else operator.truediv  # int / int rounds correctly
    if parallel:  # every usable subset's slope, and ss_res = 0
        raw, r_squared = kernel.slope, Fraction(1)
    else:
        dd, dp, pp, out_dp, out_pp = sums if exact else kernel.sums() + left
        if strategy == "single-tuple":
            d_best, p_best = kernel.value(best)
            raw = d_best / p_best
        else:
            raw = div(dp - out_dp, pp - out_pp)
        # 1 - ss_res / ss_tot, with ss_tot = dd and ss_res = dd - 2 raw dp + raw^2 pp
        num, den = raw.as_integer_ratio()
        r_squared = div(num * (2 * den * dp - num * pp), den * den * dd)

    alpha = raw if exact else min(max(raw, 0.0), 1.0)
    return AlphaEstimate(
        alpha=alpha,
        raw=raw,
        strategy=strategy,
        best=kernel.tuple_at(best),
        r_squared=r_squared,
        n_tuples=tally[1],
    )


# ---------------------------------------------------------------------------
# Autonomous-rule recovery and the full pipeline
# ---------------------------------------------------------------------------


def recover_autonomous(
    rho_ai: StochasticChoice,
    rho_h: StochasticChoice,
    alpha: Scalar,
    tol: Scalar | None = None,
) -> StochasticChoice:
    """Peel the human component out of the AI data.

    Returns the table (rho_ai - alpha * rho_h) / (1 - alpha) over the
    common menus.  Entries below -tol mean the pair admits no mixture with
    this alpha and raise :class:`InconsistentInputsError`; entries in
    [-tol, 0) are clamped to zero, and a row that the clamping leaves
    invalid (off [0, 1], or its sum off 1) raises it too.

    Exact tables and a rational alpha = an/ad peel in ints: with A and H
    the rows over their joint lcm c_S, each entry is (ad A - an H) /
    ((ad - an) c_S), tested in ints by :func:`choice._compare_tol` as
    entry < 0 - tol, where a float tol is exact: fl(0 - tol) = -tol.
    Any other alpha peels the float64 rows, whose values are the entries'
    ``float(entry)``, as arithmetic on the Fractions with a float does;
    a clamped entry of exact tables is ``Fraction(0)``.  The peeled arrays
    become the table's dense view as they are, and its ``table`` dict is
    built on first read (see :meth:`StochasticChoice._from_rows`).
    """
    exact = rho_ai.is_exact and rho_h.is_exact
    eff = resolve_tol(tol, exact)
    if not alpha < 1 - eff:
        raise DegenerateDivisionError("alpha = 1 leaves no autonomous component to recover")
    universe = rho_ai.universe
    menus, mask, c, (a, h) = _join(rho_ai, rho_h, _DISJOINT)
    rows, cols = np.nonzero(mask)  # the members, in canonical order
    if c is not None and isinstance(alpha, numbers.Rational):
        an, ad = int(alpha.numerator), int(alpha.denominator)
        entries, scale = ad * a - an * h, (ad - an) * c
        num, den = entries[mask], scale[rows]
        low = _first_true(_compare_tol(num, 0, eff, den, below=True))
        value = None if low is None else Fraction(num[low], den[low])
    else:
        a, h = _floats(a, c), _floats(h, c)
        auto = (a[mask] - alpha * h[mask]) / (1 - alpha)
        low, scale = _first_true(auto < -eff), None
        value = None if low is None else float(auto[low])
        entries = np.zeros(mask.shape)
        entries[mask] = auto
    if low is not None:
        raise InconsistentInputsError(
            f"autonomous probability of {universe.alternatives[cols[low]]!r} in "
            f"{universe.sorted_members(menus[rows[low]])} is {_show(value)}; the pair "
            f"admits no mixture with alpha = {_show(alpha)}"
        )
    try:  # entries within tol below 0 read as 0
        return StochasticChoice._from_rows(
            universe, menus, mask, entries, scale, max(rho_ai.eps_sum, 1e-9),
            Fraction(0) if exact else 0.0,
        )
    except InvalidParameterError as e:
        raise InconsistentInputsError(str(e)) from None


@dataclass(frozen=True)
class LabResult:
    """Outcome of laboratory identification.

    point-identified: ``params`` holds (u, v, alpha) and reproduces the AI
    data on its domain within ``tol``; partially-identified: only
    ``human_utility`` is pinned down, because the AI and human data
    coincide or because the AI violates IIA only with menus the human data
    lacks (see ``reason``); inconsistent: the pair admits no mixture
    representation (see ``reason``).
    """

    status: Literal["point-identified", "partially-identified", "inconsistent"]
    human_utility: Mapping[str, Scalar] | None
    params: LamParams | None
    alpha_diagnostics: AlphaEstimate | None
    recovered_autonomous: StochasticChoice | None
    tol: Scalar
    reason: str = ""


def identify_lab(
    rho_ai: StochasticChoice,
    rho_h: StochasticChoice,
    anchor: str,
    strategy: AlphaStrategy = "least-squares",
    tol: Scalar | None = None,
) -> LabResult:
    """Run the three-step laboratory identification pipeline.

    Recovers u from the human data, estimates compliance, reconstructs the
    autonomous rule and recovers v from it.  The degenerate cases come from
    :func:`estimate_alpha`'s errors: identical data, or no AI IIA violation
    on the shared menus, where IIA on the AI's whole domain forces alpha = 0
    and otherwise leaves compliance and v unidentified.  Any step that fails
    marks the pair inconsistent rather than raising; an unknown strategy,
    an invalid tolerance or tables over different universes raise
    :class:`InvalidParameterError`, and data sharing no menus
    :class:`InsufficientDataError`.
    """
    _check_strategy(strategy)
    exact = rho_ai.is_exact and rho_h.is_exact
    eff = resolve_tol(tol, exact)
    _same_universe(rho_ai, rho_h)

    def result(status, reason="", u=None, params=None, est=None, auto=None) -> LabResult:
        return LabResult(status, u, params, est, auto, eff, reason)

    try:
        u = recover_luce_utility(rho_h, anchor, tol=eff)
    except NotLuceError as e:
        return result("inconsistent", f"human data is not a Luce rule: {e}")

    try:
        est = estimate_alpha(rho_ai, rho_h, strategy=strategy, tol=eff)
    except PartiallyIdentifiedError:
        return result(
            "partially-identified",
            "AI and human choices coincide: the AI is perfectly compliant "
            "or perfectly aligned, and alpha and v cannot be separated",
            u,
        )
    except InconsistentInputsError as e:
        return result("inconsistent", str(e))
    except NotIdentifiedError:
        if not satisfies_iia(rho_ai, eff):
            menus = map(rho_ai.universe.sorted_members, _shared(rho_ai, rho_h, _DISJOINT))
            shared = " ".join("{" + ",".join(m) + "}" for m in menus)
            return result(
                "partially-identified",
                "AI data violates IIA only with menus the human data lacks; on the "
                f"shared menus ({shared}) compliance and v are not identified",
                u,
            )
        # different data without IIA violations forces alpha = 0
        try:
            v = recover_luce_utility(rho_ai, anchor, tol=eff)
        except NotLuceError as e:
            return result("inconsistent", f"AI data satisfies IIA but is not a Luce rule: {e}")
        params = LamParams(rho_ai.universe, u, v, 0 if exact else 0.0, anchor)
        return result("point-identified", u=u, params=params, auto=rho_ai)

    if est.raw < -eff or est.raw > 1 + eff:
        return result("inconsistent", f"estimated compliance {_show(est.raw)} falls outside [0, 1]")

    try:
        rho_a = recover_autonomous(rho_ai, rho_h, est.alpha, tol=eff)
        v = recover_luce_utility(rho_a, anchor, tol=eff)
    except (DegenerateDivisionError, InconsistentInputsError, NotLuceError) as e:
        return result("inconsistent", f"autonomous component is not a Luce rule: {e}")

    params = LamParams(rho_ai.universe, u, v, est.alpha, anchor)
    residual = _residual(params, rho_ai)
    if residual > eff:
        return result("inconsistent", f"recovered parameters miss the AI data by {_show(residual)}")
    return result("point-identified", u=u, params=params, est=est, auto=rho_a)


# ---------------------------------------------------------------------------
# Axiomatic consistency check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomVerdict:
    passed: bool
    witness: tuple | None = None
    note: str = ""


@dataclass(frozen=True)
class AxiomReport:
    """Verdicts for the five conditions characterizing mixture consistency.

    positivity            every recorded probability is strictly positive
    h_iia                 the human data satisfies IIA
    proportionality       own and composite instabilities are proportional
                          across tuples (checked by cross-products)
    bounded_instability   own and composite instabilities share signs and
                          own never exceeds composite (strictly, when the
                          own term is non-zero)
    bounded_divergence    AI choice probabilities dominate the human's
                          scaled by the instability ratio

    The pair is consistent with the mixture model iff all five hold.
    """

    positivity: AxiomVerdict
    h_iia: AxiomVerdict
    proportionality: AxiomVerdict
    bounded_instability: AxiomVerdict
    bounded_divergence: AxiomVerdict
    tol: Scalar

    @property
    def overall(self) -> bool:
        return all(v.passed for v in self.verdicts().values())

    def verdicts(self) -> dict[str, AxiomVerdict]:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "tol"}


def check_axioms(
    rho_ai: StochasticChoice,
    rho_h: StochasticChoice,
    tol: Scalar | None = None,
) -> AxiomReport:
    """Test the five behavioral conditions, producing witnesses for failures.

    Human IIA reports the first canonical violation.  The other conditions
    come from the canonical tuples of the common menus, tested as
    :class:`choice._Kernel` tests them (in floats with an integer fallback
    on exact data), with proportionality and bounded divergence in
    slope form: against the tuples with the largest composite instability
    and the largest own-to-composite ratio, which is equivalent to comparing
    every pair of tuples and testing every tuple's ratio.

    Per-pair certificates (:meth:`choice._Kernel.certified`) decide those three
    first, with no tuple pass, else the passes run.
    """
    eff = resolve_tol(tol, rho_ai.is_exact and rho_h.is_exact)
    universe = rho_ai.universe
    kernel = _Kernel(rho_ai, _shared(rho_ai, rho_h, _DISJOINT), rho_h, eff)

    # positivity, over each function's own recorded domain
    positivity = AxiomVerdict(True)
    for name, rho in (("ai", rho_ai), ("human", rho_h)):
        zero = _first_nonpositive(rho, eff)
        if zero is not None:
            positivity = AxiomVerdict(
                False,
                witness=(name, universe.sorted_members(zero[0]), zero[1]),
                note=f"{name} probability of {zero[1]!r} is not positive",
            )
            break

    h_kernel, violations = _own_violations(rho_h, eff)
    first = next((int(ids[0]) for ids in violations if len(ids)), None)
    h_iia = AxiomVerdict(True)
    if first is not None:
        t = h_kernel.tuple_at(first)
        h_iia = AxiomVerdict(
            False, witness=(t,), note="human data violates IIA at " + t.describe(universe)
        )

    if kernel.certified():
        note = "" if kernel.starts[-1] else "no tuples to compare"
        verdicts = (AxiomVerdict(True, note=note), AxiomVerdict(True),
                    _bounded_divergence(kernel, kernel.first_usable))
    else:
        verdicts = _pair_verdicts(kernel)
    return AxiomReport(positivity, h_iia, *verdicts, tol=eff)


def _pair_verdicts(kernel: _Kernel) -> tuple[AxiomVerdict, AxiomVerdict, AxiomVerdict]:
    """Proportionality, bounded instability and bounded divergence from tuple passes."""
    universe = kernel.universe
    # The tuples the checks refer to: the first own term not dominated by
    # its composite, the first vanishing composite under a non-vanishing own
    # term, the largest composite term (proportionality reference) and the
    # largest own-to-composite ratio, folded run by run, and then the first
    # proportionality gap against the reference.  Where exact d and p are
    # parallel (_Kernel.slope), every gap vanishes and the first usable tuple binds.
    parallel = kernel.exact and kernel.slope is not None
    undominated = vanishing = None
    top, top_ratio = _Top(kernel), _Top(kernel, ratio=True)

    def first(found, ids, mask):
        i = None if found is not None else _first_true(mask)
        return found if i is None else int(ids[i])

    for ids, scan, (big, usable, dominated), _ in kernel.tested(["big", "usable", "dominated"]):
        undominated = first(undominated, ids, ~dominated)
        vanishing = first(vanishing, ids, big & ~usable)
        if not parallel:
            top.add(ids, scan, np.ones(len(ids), bool))
            top_ratio.add(ids, scan, usable)
    if parallel:
        bad, binding = None, kernel.first_usable
    else:
        ref, binding = top.result(), top_ratio.result()
        bad = None if ref is None else kernel.first_gap(ref)

    def row(i: int):
        return kernel.tuple_at(i), *kernel.value(i)

    proportionality = AxiomVerdict(True, note="" if kernel.starts[-1] else "no tuples to compare")
    if bad is not None:
        t, t_ref = kernel.tuple_at(bad), kernel.tuple_at(ref)
        proportionality = AxiomVerdict(
            False,
            witness=(t, t_ref),
            note=f"instability ratios differ between {t.describe(universe)} "
            f"and {t_ref.describe(universe)}",
        )

    bounded_instability = AxiomVerdict(True)
    if undominated is not None:
        t, d_t, p_t = row(undominated)
        bounded_instability = AxiomVerdict(
            False,
            witness=(t, d_t, p_t),
            note=f"own instability {_show(d_t)} is not dominated by composite {_show(p_t)} at "
            + t.describe(universe),
        )

    # slope form: a tuple with vanishing composite but non-vanishing own
    # term fails outright (no probability can compensate a zero left-hand
    # side); otherwise the binding tuple is the one with the largest |d|/|p|
    if vanishing is not None:
        t, d_t, p_t = row(vanishing)
        bounded_divergence = AxiomVerdict(
            False,
            witness=(t, d_t, p_t),
            note="composite instability vanishes while own does not at "
            + t.describe(universe),
        )
    else:
        bounded_divergence = _bounded_divergence(kernel, binding)
    return proportionality, bounded_instability, bounded_divergence


def _bounded_divergence(kernel: _Kernel, binding: int | None) -> AxiomVerdict:
    """Bounded divergence at the binding tuple, None when no tuple is
    usable; the witness is the first failing cell.

    Each member's test is lhs < rhs - eff, or lhs <= rhs when eff = 0 and
    d != 0, for lhs = rho_ai |p| and rhs = rho_h |d| in true values.  In
    exact mode the cells are kernel ints A and H over c_S, and d, p are
    ints D, P over k: lhs and rhs are A |P| and H |D| over c_S k, tested
    against eff by :func:`choice._compare_tol`.
    """
    if binding is None:
        return AxiomVerdict(True, note="no tuples to compare")
    mask, eff = kernel.mask, kernel.eff
    d, p, k = kernel.raw(binding)
    lhs, rhs = kernel.mine[mask] * abs(p), kernel.theirs[mask] * abs(d)  # canonical order
    if eff == 0 and d != 0:
        fails = lhs <= rhs
    else:
        scale = None if k is None else kernel.c[np.nonzero(mask)[0]] * k  # c_S k per member
        fails = _compare_tol(lhs, rhs, eff, scale, below=True)
    bad = _first_true(fails)
    if bad is None:
        return AxiomVerdict(True)
    t = kernel.tuple_at(binding)
    universe, menus = kernel.universe, kernel.menus
    i, j = (k[bad] for k in np.nonzero(mask))
    members, z = universe.sorted_members(menus[i]), universe.alternatives[j]
    return AxiomVerdict(
        False,
        witness=(t, members, z),
        note=f"AI probability of {z!r} in {members} is too small for the "
        "instability ratio at " + t.describe(universe),
    )
