"""Laboratory-setting identification: recover (u, v, alpha) from both agents.

With the human's choices observed alongside the AI's, identification runs
in three steps: read u off the human's Luce rule, read compliance off the
ratio of the AI's own instability to the composite instability of the pair
(the two are proportional with slope alpha across every tuple), then peel
the human component out of the AI data and read v off the remaining Luce
rule.  The whole pipeline collapses into three explicit degenerate cases:
identical AI and human data (alpha and v not separately identified), an
IIA-satisfying AI that differs from the human (compliance must be zero),
and data admitting no mixture representation at all (inconsistent).

``check_axioms`` tests the five behavioral conditions that characterize
consistency with the mixture model, reporting a concrete witness for every
failure.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import islice
from typing import Literal, Mapping, get_args

from .choice import (
    _first_iia_violation,
    _first_nonpositive,
    _instability_scan,
    lam_table,
    recover_luce_utility,
    satisfies_iia,
)
from .types import (
    DegenerateDivisionError,
    InconsistentInputsError,
    InstabilityTuple,
    InsufficientDataError,
    InvalidParameterError,
    LamParams,
    Menu,
    NotIdentifiedError,
    NotLuceError,
    PartiallyIdentifiedError,
    Scalar,
    StochasticChoice,
    resolve_tol,
    sup_distance,
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


def _check_strategy(strategy: str) -> None:
    if strategy not in get_args(AlphaStrategy):
        raise InvalidParameterError(f"unknown alpha strategy {strategy!r}")


def _common_menus(a: StochasticChoice, b: StochasticChoice) -> list[Menu]:
    menus = [m for m in a.domain if b.has_menu(m)]
    if not menus:
        raise InsufficientDataError("the AI and human data share no menus")
    return menus


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
    clamped to [0, 1] in float mode; ``raw`` is the unclamped value.
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

    One pass over the canonical tuples of the common menus gives each
    tuple's own and composite instability.  single-tuple picks the tuple
    with the largest composite instability and returns the ratio
    own/composite there; least-squares returns the slope of
    own-on-composite over all tuples with composite magnitude above tol.
    The two agree exactly on noiseless mixture data.

    Raises :class:`InvalidParameterError` for an unknown strategy,
    :class:`PartiallyIdentifiedError` when the AI and human data
    coincide, and :class:`NotIdentifiedError` when the AI data has no IIA
    violation (compliance could be 0 or 1, or the utilities aligned).
    """
    _check_strategy(strategy)
    exact = rho_ai.is_exact and rho_h.is_exact
    eff = resolve_tol(tol, exact)
    menus = _common_menus(rho_ai, rho_h)

    if sup_distance(rho_ai, rho_h) <= eff:
        raise PartiallyIdentifiedError(
            "AI and human choices coincide; alpha and v are not separately identified"
        )

    ds: list[Scalar] = []
    ps: list[Scalar] = []
    best = None  # first usable tuple with the largest composite term
    for row in _instability_scan(rho_ai, menus, rho_h):
        d, p = row[4], row[5]
        ds.append(d)
        ps.append(p)
        if abs(p) > eff and (best is None or abs(p) > abs(best[5])):
            best = row
    if not any(abs(d) > eff for d in ds):
        raise NotIdentifiedError(
            "AI data satisfies IIA: compliance is 0 or 1, or the utilities "
            "are aligned; it cannot be point-identified",
            possible_regimes=("autonomous", "compliant", "aligned"),
        )
    if best is None:
        raise InconsistentInputsError(
            "AI data violates IIA while every composite instability vanishes; "
            "no mixture representation exists"
        )

    if strategy == "single-tuple":
        raw = best[4] / best[5]
    else:
        raw = sum(d * p for d, p in zip(ds, ps) if abs(p) > eff) / sum(
            p * p for p in ps if abs(p) > eff
        )

    ss_tot = sum(d * d for d in ds)
    ss_res = sum((d - raw * p) ** 2 for d, p in zip(ds, ps))
    r_squared = 1 - ss_res / ss_tot if ss_tot > 0 else 1

    alpha = raw if exact else min(max(raw, 0.0), 1.0)
    return AlphaEstimate(
        alpha=alpha,
        raw=raw,
        strategy=strategy,
        best=InstabilityTuple(*best[:4]),
        r_squared=r_squared,
        n_tuples=sum(1 for p in ps if abs(p) > eff),
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
    [-tol, 0) are clamped to zero.
    """
    exact = rho_ai.is_exact and rho_h.is_exact
    eff = resolve_tol(tol, exact)
    if not alpha < 1 - eff:
        raise DegenerateDivisionError("alpha = 1 leaves no autonomous component to recover")
    menus = _common_menus(rho_ai, rho_h)
    table: dict[Menu, dict[str, Scalar]] = {}
    for menu in menus:
        row: dict[str, Scalar] = {}
        row_ai, row_h = rho_ai.table[menu], rho_h.table[menu]
        for alt in rho_ai.universe.sorted_members(menu):
            p = (row_ai.get(alt, 0) - alpha * row_h.get(alt, 0)) / (1 - alpha)
            if p < -eff:
                raise InconsistentInputsError(
                    f"autonomous probability of {alt!r} in "
                    f"{rho_ai.universe.sorted_members(menu)} is {p!r}; the pair "
                    f"admits no mixture with alpha = {alpha!r}"
                )
            row[alt] = max(p, 0) if exact else max(p, 0.0)
        table[menu] = row
    return StochasticChoice(rho_ai.universe, table, eps_sum=max(rho_ai.eps_sum, 1e-9))


@dataclass(frozen=True)
class LabResult:
    """Outcome of laboratory identification.

    point-identified: ``params`` holds (u, v, alpha) and reproduces the AI
    data on its domain within ``tol``; partially-identified: the AI and
    human data coincide, only ``human_utility`` is pinned down;
    inconsistent: the pair admits no mixture representation (see
    ``reason``).
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

    Recovers u from the human data, branches on the degenerate cases
    (identical data; IIA-satisfying AI data), and otherwise estimates
    compliance, reconstructs the autonomous rule, and recovers v from it.
    Any step that fails marks the pair inconsistent rather than raising;
    an unknown strategy raises :class:`InvalidParameterError`.
    """
    _check_strategy(strategy)
    exact = rho_ai.is_exact and rho_h.is_exact
    eff = resolve_tol(tol, exact)

    def inconsistent(reason: str) -> LabResult:
        return LabResult(
            status="inconsistent",
            human_utility=None,
            params=None,
            alpha_diagnostics=None,
            recovered_autonomous=None,
            tol=eff,
            reason=reason,
        )

    try:
        u = recover_luce_utility(rho_h, anchor, tol=eff)
    except NotLuceError as e:
        return inconsistent(f"human data is not a Luce rule: {e}")

    if sup_distance(rho_ai, rho_h) <= eff:
        return LabResult(
            status="partially-identified",
            human_utility=u,
            params=None,
            alpha_diagnostics=None,
            recovered_autonomous=None,
            tol=eff,
            reason="AI and human choices coincide: the AI is perfectly compliant "
            "or perfectly aligned, and alpha and v cannot be separated",
        )

    if satisfies_iia(rho_ai, eff):
        # different data without IIA violations forces alpha = 0
        try:
            v = recover_luce_utility(rho_ai, anchor, tol=eff)
        except NotLuceError as e:
            return inconsistent(f"AI data satisfies IIA but is not a Luce rule: {e}")
        params = LamParams(rho_ai.universe, u, v, 0 if exact else 0.0, anchor)
        return LabResult(
            status="point-identified",
            human_utility=u,
            params=params,
            alpha_diagnostics=None,
            recovered_autonomous=rho_ai,
            tol=eff,
        )

    try:
        est = estimate_alpha(rho_ai, rho_h, strategy=strategy, tol=eff)
    except InconsistentInputsError as e:
        return inconsistent(str(e))

    if est.raw < -eff or est.raw > 1 + eff:
        return inconsistent(f"estimated compliance {est.raw!r} falls outside [0, 1]")
    alpha = est.alpha

    try:
        rho_a = recover_autonomous(rho_ai, rho_h, alpha, tol=eff)
        v = recover_luce_utility(rho_a, anchor, tol=eff)
    except (DegenerateDivisionError, InconsistentInputsError, NotLuceError) as e:
        return inconsistent(f"autonomous component is not a Luce rule: {e}")

    params = LamParams(rho_ai.universe, u, v, alpha, anchor)
    residual = sup_distance(lam_table(params, rho_ai.domain), rho_ai)
    if residual > eff:
        return inconsistent(f"recovered parameters miss the AI data by {residual!r}")
    return LabResult(
        status="point-identified",
        human_utility=u,
        params=params,
        alpha_diagnostics=est,
        recovered_autonomous=rho_a,
        tol=eff,
    )


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
    come from one pass over the canonical tuples of the common menus, with
    proportionality and bounded divergence in slope form: against the tuples
    with the largest composite instability and the largest own-to-composite
    ratio, which is equivalent to comparing every pair of tuples and
    testing every tuple's ratio.
    """
    exact = rho_ai.is_exact and rho_h.is_exact
    eff = resolve_tol(tol, exact)
    universe = rho_ai.universe
    menus = _common_menus(rho_ai, rho_h)

    def at(row) -> InstabilityTuple:
        return InstabilityTuple(*row[:4])

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

    t = _first_iia_violation(rho_h, eff)
    h_iia = AxiomVerdict(True)
    if t is not None:
        h_iia = AxiomVerdict(
            False, witness=(t,), note="human data violates IIA at " + t.describe(universe)
        )

    # One pass keeps the scan rows the checks refer to: the largest
    # composite term (proportionality reference), the first own term not
    # dominated by its composite, the first vanishing composite under a
    # non-vanishing own term, and the largest own-to-composite ratio.
    ds: list[Scalar] = []
    ps: list[Scalar] = []
    ref = undominated = vanishing = binding = None
    for row in _instability_scan(rho_ai, menus, rho_h):
        d, p = row[4], row[5]
        ds.append(d)
        ps.append(p)
        if ref is None or abs(p) > abs(ref[5]):
            ref = row
        if undominated is None and not _dominated(d, p, eff):
            undominated = row
        if abs(p) <= eff:
            if vanishing is None and abs(d) > eff:
                vanishing = row
        elif binding is None or abs(d) * abs(binding[5]) > abs(binding[4]) * abs(p):
            binding = row

    proportionality = AxiomVerdict(True, note="no tuples to compare" if ref is None else "")
    if ref is not None:
        d_ref, p_ref = ref[4], ref[5]
        k = next(
            (k for k, (d, p) in enumerate(zip(ds, ps)) if abs(d * p_ref - d_ref * p) > eff),
            None,
        )
        if k is not None:
            # rebuild the k-th tuple by walking the scan up to it
            t = at(next(islice(_instability_scan(rho_ai, menus, rho_h), k, None)))
            proportionality = AxiomVerdict(
                False,
                witness=(t, at(ref)),
                note=f"instability ratios differ between {t.describe(universe)} "
                f"and {at(ref).describe(universe)}",
            )

    bounded_instability = AxiomVerdict(True)
    if undominated is not None:
        t, (d, p) = at(undominated), undominated[4:]
        bounded_instability = AxiomVerdict(
            False,
            witness=(t, d, p),
            note=f"own instability {d!r} is not dominated by composite {p!r} at "
            + t.describe(universe),
        )

    # slope form: a tuple with vanishing composite but non-vanishing own
    # term fails outright (no probability can compensate a zero left-hand
    # side); otherwise the binding tuple is the one with the largest |d|/|p|
    if vanishing is not None:
        t = at(vanishing)
        bounded_divergence = AxiomVerdict(
            False,
            witness=(t, *vanishing[4:]),
            note="composite instability vanishes while own does not at "
            + t.describe(universe),
        )
    elif binding is None:
        bounded_divergence = AxiomVerdict(True, note="no tuples to compare")
    else:
        bounded_divergence = _bounded_divergence(universe, rho_ai, rho_h, menus, binding, eff)

    return AxiomReport(
        positivity=positivity,
        h_iia=h_iia,
        proportionality=proportionality,
        bounded_instability=bounded_instability,
        bounded_divergence=bounded_divergence,
        tol=eff,
    )


def _dominated(d, p, eff) -> bool:
    """Own instability ``d`` shares the sign of ``p`` and does not exceed it."""
    sign_ok = d * p >= -eff
    size_ok = abs(d) <= abs(p) + eff
    if abs(d) > eff:
        sign_ok = sign_ok and d * p > 0
        if eff == 0:
            size_ok = size_ok and abs(d) < abs(p)
    return sign_ok and size_ok


def _bounded_divergence(universe, rho_ai, rho_h, menus, binding, eff) -> AxiomVerdict:
    """Bounded divergence at the binding tuple, menu by menu."""
    d, p = binding[4], binding[5]
    strict = eff == 0 and abs(d) > eff
    for menu in menus:
        row_ai, row_h = rho_ai.table[menu], rho_h.table[menu]
        for z in universe.sorted_members(menu):
            lhs = row_ai.get(z, 0) * abs(p)
            rhs = row_h.get(z, 0) * abs(d)
            if lhs <= rhs if strict else lhs < rhs - eff:
                t = InstabilityTuple(*binding[:4])
                return AxiomVerdict(
                    False,
                    witness=(t, universe.sorted_members(menu), z),
                    note=f"AI probability of {z!r} in "
                    f"{universe.sorted_members(menu)} is too small for the "
                    "instability ratio at " + t.describe(universe),
                )
    return AxiomVerdict(True)
