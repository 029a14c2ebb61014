"""Field-setting identification: recover the swap class from AI data alone.

Without human data the mixture representation carries an unavoidable
ambiguity: (u, v, alpha) and (v, u, 1 - alpha) generate identical choice
data, so everything is identified only up to that label swap.  With at
least four alternatives the swap class itself is generically pinned down
by a constructive procedure:

1. Fix an anchor x with u(x) = v(x) = 1.  For each other alternative y
   and each reference pair (z, t), the four menus {x,y,z,t}, {x,y,z},
   {x,y,t} and {x,y} yield a rational equation in a single unknown k
   (a candidate utility value for y),

       1/(a_S k - b_S) + 1/(a_T k - b_T)
           = 1/(a_{S-t} k - b_{S-t}) + 1/(a_{S-z} k - b_{S-z}),

   with a_M = rho(x, M) and b_M = rho(y, M).  Cross-multiplying gives a
   cubic whose roots include both u(y) and v(y); the third root is
   spurious.  Roots are screened for positivity, for distance from the
   denominator zeros b_M / a_M (where the original equation is
   undefined), and for residual of the original equation.

2. Spurious roots typically differ across reference pairs, so with five
   or more alternatives intersecting the admissible sets isolates the
   true pair.  With exactly four alternatives every unordered pair of
   surviving roots implies a compliance value up to reflection about
   1/2; only the true pairs agree on it across alternatives.  An aligned
   alternative (u(y) = v(y)) is a pool of one candidate: its cubic
   vanishes identically and leaves the binary odds as the lone root, or
   its true root sits on a pole.  When no root survives the intersection,
   the menu-independent odds against the anchor, if constant, are that
   one candidate.

3. Fixing the branch with compliance >= 1/2 and assigning each
   alternative's pair member by consistency with that branch assembles u
   and v; the assembled parameters are verified against the data before
   the swap class is returned.

Configurations where this reasoning degenerates (compliance in
{0, 1/2, 1}, coincidental root or compliance collisions, utility pairs
sitting on denominator zeros) are reported as ``non-generic-failure``
with full diagnostics instead of guessing.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Literal, Mapping

from .choice import _residual, satisfies_iia
from .types import (
    GapUndefinedError,
    InsufficientDataError,
    InvalidParameterError,
    LamParams,
    Menu,
    Scalar,
    StochasticChoice,
    is_exact_scalar,
    resolve_tol,
)

__all__ = [
    "CubicPoly",
    "RejectedRoot",
    "CandidateSet",
    "ImpliedAlpha",
    "ConsistencyRow",
    "FieldResult",
    "identification_polynomial",
    "candidate_utilities",
    "implied_alpha",
    "identify_field",
    "deception_gap",
]

#: Relative tolerance at which nearly equal roots merge (float mode).
ROOT_MERGE_RTOL = 1e-8


# ---------------------------------------------------------------------------
# The identification cubic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CubicPoly:
    """Cubic in the candidate utility k, with its provenance.

    ``menus`` lists (S, T, S minus t, S minus z) and ``ab`` the matching
    (a_M, b_M) probability pairs.  ``scale`` is the largest absolute
    product of three input probabilities, the natural magnitude against
    which coefficients are compared when testing for the identically-zero
    polynomial.
    """

    c3: Scalar
    c2: Scalar
    c1: Scalar
    c0: Scalar
    target: str
    anchor: str
    reference: tuple[str, str]
    menus: tuple[Menu, Menu, Menu, Menu]
    ab: tuple[tuple[Scalar, Scalar], ...]
    scale: Scalar

    def coefficients(self) -> tuple[Scalar, Scalar, Scalar, Scalar]:
        return (self.c3, self.c2, self.c1, self.c0)

    @property
    def is_exact(self) -> bool:
        return all(is_exact_scalar(c) for c in self.coefficients())

    def is_zero(self, tol: Scalar | None = None) -> bool:
        eff = resolve_tol(tol, self.is_exact)
        return max(abs(c) for c in self.coefficients()) <= eff * self.scale

    def evaluate(self, k: Scalar) -> Scalar:
        return _poly_eval([self.c0, self.c1, self.c2, self.c3], k)

    def pole_values(self) -> tuple[Scalar, ...]:
        """Zeros of the four linear denominators, where the equation is undefined."""
        zeros = []
        for a, b in self.ab:
            if a != 0:
                zeros.append(b / a)
        return tuple(sorted(set(zeros)))

    def equation_residual(self, k: Scalar) -> Scalar:
        """Value of the original rational equation (left minus right) at k."""
        d_s, d_t, d_1, d_2 = (a * k - b for a, b in self.ab)
        return 1 / d_s + 1 / d_t - 1 / d_1 - 1 / d_2

    def equation_slope(self, k: Scalar) -> Scalar:
        terms = []
        for sign, (a, b) in zip((-1, -1, 1, 1), self.ab):
            d = a * k - b
            terms.append(sign * a / (d * d))
        return sum(terms)


def identification_polynomial(
    rho_ai: StochasticChoice, x: str, y: str, z: str, t: str
) -> CubicPoly:
    """Build the cubic for target y with anchor x and reference pair (z, t).

    The expansion is done symbolically in the scalar type of the data, so
    exact inputs give exact coefficients.  Raises
    :class:`InsufficientDataError` if any of the four required menus is
    unobserved.
    """
    universe = rho_ai.universe
    if len({x, y, z, t}) != 4:
        raise InvalidParameterError("anchor, target, and reference alternatives must be distinct")
    for alt in (x, y, z, t):
        universe.index(alt)
    menus = (
        frozenset({x, y, z, t}),
        frozenset({x, y}),
        frozenset({x, y, z}),
        frozenset({x, y, t}),
    )
    missing = [m for m in menus if not rho_ai.has_menu(m)]
    if missing:
        names = [universe.sorted_members(m) for m in missing]
        raise InsufficientDataError(
            f"identification for {y!r} with reference ({z!r}, {t!r}) needs "
            f"unobserved menus {names}"
        )
    ab = tuple((rho_ai.prob(x, m), rho_ai.prob(y, m)) for m in menus)
    lin = [(-b, a) for a, b in ab]  # ascending coefficients of a k - b

    def mul(p, q):
        out = [0] * (len(p) + len(q) - 1)
        for i, pi in enumerate(p):
            for j, qj in enumerate(q):
                out[i + j] += pi * qj
        return out

    d_s, d_t, d_1, d_2 = lin
    coeffs = [0, 0, 0, 0]
    for sign, term in (
        (1, mul(mul(d_t, d_1), d_2)),
        (1, mul(mul(d_s, d_1), d_2)),
        (-1, mul(mul(d_s, d_t), d_2)),
        (-1, mul(mul(d_s, d_t), d_1)),
    ):
        for i, c in enumerate(term):
            coeffs[i] += sign * c
    scale = max(max(a, b) for a, b in ab) ** 3
    return CubicPoly(
        c3=coeffs[3],
        c2=coeffs[2],
        c1=coeffs[1],
        c0=coeffs[0],
        target=y,
        anchor=x,
        reference=(z, t),
        menus=menus,
        ab=ab,
        scale=scale,
    )


# ---------------------------------------------------------------------------
# Root solving
# ---------------------------------------------------------------------------


def _trim(coeffs: list[Scalar]) -> list[Scalar]:
    """Drop zero leading coefficients (ascending order: last entries)."""
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _poly_eval(coeffs: list[Scalar], x: Scalar) -> Scalar:
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def _deflate(coeffs: list[Scalar], root: Scalar) -> list[Scalar]:
    """Exact synthetic division by (k - root); assumes root is exact."""
    out = [0] * (len(coeffs) - 1)
    carry = coeffs[-1]
    for i in range(len(coeffs) - 2, -1, -1):
        out[i] = carry
        carry = coeffs[i] + carry * root
    return out


def _exact_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _float_real_roots(coeffs: list[float]) -> list[float]:
    """Real roots of an ascending-coefficient polynomial via the companion matrix."""
    import numpy as np

    biggest = max(abs(c) for c in coeffs)
    if biggest == 0:
        return []
    work = [c for c in coeffs]
    while len(work) > 1 and abs(work[-1]) <= 1e-14 * biggest:
        work.pop()
    if len(work) <= 1:
        return []
    roots = np.roots(list(reversed(work)))
    return sorted(
        float(z.real) for z in roots if abs(z.imag) <= 1e-8 * (1 + abs(z))
    )


def _snap_rational_root(coeffs: list[Scalar], seed: float) -> Fraction | None:
    """Reconstruct an exact rational root from a float approximation.

    Runs exact Newton steps from the seed (rounding iterates to keep
    denominators bounded) and tries snapping to small-denominator
    rationals after each step, verifying candidates exactly.
    """
    ladder = (10**4, 10**6, 10**9, 10**12, 10**15)
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    x = Fraction(seed).limit_denominator(10**15)
    for _ in range(6):
        for cap in ladder:
            cand = x.limit_denominator(cap)
            if _poly_eval(coeffs, cand) == 0:
                return cand
        fx = _poly_eval(coeffs, x)
        if fx == 0:
            return x
        dfx = _poly_eval(deriv, x)
        if dfx == 0:
            return None
        x = (x - fx / dfx).limit_denominator(10**40)
    return None


def _exact_roots(
    coeffs: list[Scalar], hints: list[Fraction]
) -> tuple[list[Fraction], list[float]]:
    """All rational roots of a degree <= 3 polynomial, plus float stand-ins
    for any remaining irrational real roots.

    ``hints`` are cheap-to-test candidates (denominator zeros, the paired
    binary-menu ratio); they matter for multiple roots, where float seeds
    are too smeared for reliable reconstruction.
    """
    work = _trim([Fraction(c) for c in coeffs])
    roots: list[Fraction] = []
    for h in hints:
        while len(work) > 1 and _poly_eval(work, h) == 0:
            roots.append(h)
            work = _deflate(work, h)
    while len(work) > 1:
        degree = len(work) - 1
        if degree == 1:
            roots.append(-work[0] / work[1])
            work = [work[1]]
        elif degree == 2:
            c0, c1, c2 = work
            disc = c1 * c1 - 4 * c2 * c0
            if disc < 0:
                return roots, []  # conjugate complex pair
            s = _exact_sqrt(disc)
            if s is None:
                fs = math.sqrt(float(disc))
                return roots, [
                    float((-c1 - fs) / (2 * c2)),
                    float((-c1 + fs) / (2 * c2)),
                ]
            roots.extend([(-c1 - s) / (2 * c2), (-c1 + s) / (2 * c2)])
            work = [work[2]]
        else:
            seeds = _float_real_roots([float(c) for c in work])
            snapped = None
            for seed in seeds:
                snapped = _snap_rational_root(work, seed)
                if snapped is not None:
                    break
            if snapped is None:
                return roots, seeds
            roots.append(snapped)
            work = _deflate(work, snapped)
    return roots, []


# ---------------------------------------------------------------------------
# Candidate utilities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RejectedRoot:
    value: Scalar
    reason: str


@dataclass(frozen=True)
class CandidateSet:
    """Screened roots of one identification cubic for one alternative."""

    alternative: str
    reference: tuple[str, str]
    admissible: tuple[Scalar, ...]
    rejected: tuple[RejectedRoot, ...]
    case2: bool
    poly: CubicPoly


def candidate_utilities(
    poly: CubicPoly, rho_ai: StochasticChoice, tol: Scalar | None = None
) -> CandidateSet:
    """Solve the identification cubic and screen its roots.

    An identically-zero polynomial means the target's choice odds against
    the anchor are menu-independent, so both utility values equal that
    constant odds ratio: the cubic has no roots to screen, and the binary
    odds are the lone admissible candidate (flagged ``case2``).  Otherwise
    roots are kept only when real, strictly positive, farther than ``tol``
    from every denominator zero, and exact (to within ``tol``) solutions of
    the original rational equation.  Both scalar modes run one screen.
    """
    exact = poly.is_exact and rho_ai.is_exact
    eff = resolve_tol(tol, exact)
    case2 = poly.is_zero(eff)
    if case2 or exact:  # the binary odds: case 2's candidate, an exact root hint
        menu_xy = poly.menus[1]
        k0 = rho_ai.prob(poly.target, menu_xy) / rho_ai.prob(poly.anchor, menu_xy)
    coeffs = [poly.c0, poly.c1, poly.c2, poly.c3]
    poles = poly.pole_values()
    admissible: list[Scalar] = []
    rejected: list[RejectedRoot] = []
    roots: list[Scalar] = []
    irrational: list[float] = []
    if case2:
        admissible.append(k0)
    elif exact:
        found, irrational = _exact_roots(coeffs, [Fraction(h) for h in (*poles, k0)])
        roots = sorted(set(found))
    else:
        raw = _float_real_roots([float(c) for c in coeffs])
        for r in sorted(_polish_on_equation(poly, r) for r in raw):
            if not (roots and _same_root(r, roots[-1])):
                roots.append(r)
    for r in roots:
        if not r > 0:
            reason = "non-positive"
        elif any(
            r == p if exact else abs(r - float(p)) <= max(eff, ROOT_MERGE_RTOL * (1 + abs(float(p))))
            for p in poles
        ):
            reason = "denominator-vanishing"
        elif not exact and abs(poly.equation_residual(r)) > max(eff, 1e-10) * (
            1 + sum(abs(1 / (a * r - b)) for a, b in poly.ab)
        ):
            reason = "fails original equation"
        else:
            admissible.append(r)
            continue
        rejected.append(RejectedRoot(r, reason))
    rejected.extend(RejectedRoot(r, "irrational (exact mode)") for r in sorted(set(irrational)))
    return CandidateSet(
        alternative=poly.target,
        reference=poly.reference,
        admissible=tuple(sorted(admissible)),
        rejected=tuple(rejected),
        case2=case2,
        poly=poly,
    )


def _same_root(r: float, s: float) -> bool:
    """Whether two float roots merge, at relative tolerance ``ROOT_MERGE_RTOL``."""
    return abs(r - s) <= ROOT_MERGE_RTOL * max(1.0, abs(r))


def _polish_on_equation(poly: CubicPoly, r: float) -> float:
    """Damped Newton refinement of a root against the original equation."""
    x = r
    fx = poly.equation_residual(x)
    for _ in range(12):
        if fx == 0:
            break
        slope = poly.equation_slope(x)
        if slope == 0 or not math.isfinite(slope):
            break
        step = fx / slope
        accepted = False
        for _ in range(5):
            cand = x - step
            fc = poly.equation_residual(cand)
            if math.isfinite(fc) and abs(fc) < abs(fx):
                x, fx = cand, fc
                accepted = True
                break
            step /= 2
        if not accepted or abs(step) <= 1e-16 * (1 + abs(x)):
            break
    return x


# ---------------------------------------------------------------------------
# Implied compliance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImpliedAlpha:
    """Compliance implied by a candidate utility pair, up to reflection.

    ``values`` is the unordered pair {a, 1-a} stored as (low, high);
    ``alpha_for_first`` is the compliance weight attached to the first
    member of the pair as passed (used for branch assignment).  A pair of
    equal candidates either pins nothing down (``full_interval``) or is
    infeasible outright.
    """

    values: tuple[Scalar, Scalar] | None
    alpha_for_first: Scalar | None
    feasible: bool
    full_interval: bool = False


def implied_alpha(
    rho_ai: StochasticChoice,
    anchor: str,
    y: str,
    pair: tuple[Scalar, Scalar],
    tol: Scalar | None = None,
) -> ImpliedAlpha:
    """Solve rho(x,{x,y}) = a/(1+k1) + (1-a)/(1+k2) for the compliance a.

    Returns the unordered pair {a, 1-a}; infeasible when a falls outside
    [0, 1] beyond ``tol``, full-interval when k1 = k2 happens to satisfy
    the equation for every a.
    """
    k1, k2 = (
        Fraction(k) if is_exact_scalar(k) and not isinstance(k, Fraction) else k
        for k in pair
    )
    if not (k1 > 0 and k2 > 0):
        raise InvalidParameterError("candidate utilities must be positive")
    eff = resolve_tol(tol, rho_ai.is_exact and is_exact_scalar(k1) and is_exact_scalar(k2))
    p = rho_ai.prob(anchor, frozenset({anchor, y}))
    r1 = 1 / (1 + k1)
    r2 = 1 / (1 + k2)
    if abs(r1 - r2) <= eff:
        if abs(p - r1) <= eff:
            return ImpliedAlpha(values=None, alpha_for_first=None, feasible=True, full_interval=True)
        return ImpliedAlpha(values=None, alpha_for_first=None, feasible=False)
    a = (p - r2) / (r1 - r2)
    lo, hi = (a, 1 - a) if a <= 1 - a else (1 - a, a)
    feasible = lo >= -eff and hi <= 1 + eff
    return ImpliedAlpha(values=(lo, hi), alpha_for_first=a, feasible=feasible)


# ---------------------------------------------------------------------------
# The full field pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConsistencyRow:
    """One row of the per-alternative compliance consistency table."""

    alternative: str
    pair: tuple[Scalar, Scalar]
    implied: ImpliedAlpha


@dataclass(frozen=True)
class FieldResult:
    """Outcome of field identification.

    When identified, ``primary`` is the swap-class member with compliance
    >= 1/2 and ``swapped`` the reflected member; both reproduce the data.
    ``candidates`` holds every screened root set and ``consistency`` the
    implied-compliance table that selected the class.  On
    ``non-generic-failure``, ``alpha_pair_candidates`` lists any
    compliance pairs that survived cross-alternative consistency.
    """

    status: Literal["identified-up-to-swap", "degenerate-iia", "non-generic-failure"]
    primary: LamParams | None
    swapped: LamParams | None
    alpha_pair: tuple[Scalar, Scalar] | None
    candidates: Mapping[str, tuple[CandidateSet, ...]]
    consistency: Mapping[str, tuple[ConsistencyRow, ...]]
    tol: Scalar
    reason: str = ""
    alpha_pair_candidates: tuple[tuple[Scalar, Scalar], ...] = ()

    @property
    def class_members(self) -> tuple[LamParams, LamParams]:
        if self.primary is None or self.swapped is None:
            raise GapUndefinedError(f"field result is {self.status}; no class recovered")
        return (self.primary, self.swapped)


def _constant_odds(
    rho_ai: StochasticChoice, anchor: str, y: str, eff: Scalar
) -> Scalar | None:
    """The menu-independent odds of y against the anchor, if they are constant."""
    ratios = []
    for menu in rho_ai.domain:
        if anchor in menu and y in menu:
            px = rho_ai.prob(anchor, menu)
            if not px > 0:
                return None
            ratios.append(rho_ai.prob(y, menu) / px)
    if not ratios:
        return None
    spread = max(ratios) - min(ratios)
    if spread <= eff * (1 + max(abs(r) for r in ratios)):
        return ratios[0]
    return None


def _match(a: Scalar, b: Scalar, eff: Scalar) -> bool:
    return abs(a - b) <= eff


def identify_field(
    rho_ai: StochasticChoice, anchor: str, tol: Scalar | None = None
) -> FieldResult:
    """Run the three-step field identification pipeline.

    Needs at least four alternatives and, for each non-anchor alternative,
    at least one reference pair whose four menus are all observed.  IIA-
    satisfying data short-circuits to ``degenerate-iia`` (any compliance
    with aligned utilities, or boundary compliance, explains it).  All
    recognizably non-generic configurations return ``non-generic-failure``
    with diagnostics.
    """
    universe = rho_ai.universe
    universe.index(anchor)
    if universe.size < 4:
        raise InsufficientDataError(
            "field identification needs at least 4 alternatives"
        )
    exact = rho_ai.is_exact
    eff = resolve_tol(tol, exact)
    one: Scalar = Fraction(1) if exact else 1.0

    candidates: dict[str, tuple[CandidateSet, ...]] = {}
    consistency: dict[str, tuple[ConsistencyRow, ...]] = {}

    def fail(reason: str, pairs: tuple = (), status: str = "non-generic-failure") -> FieldResult:
        return FieldResult(
            status=status,
            primary=None,
            swapped=None,
            alpha_pair=None,
            candidates=candidates,
            consistency=consistency,
            tol=eff,
            reason=reason,
            alpha_pair_candidates=pairs,
        )

    if satisfies_iia(rho_ai, eff):
        return fail(
            "AI data satisfies IIA: the utilities are aligned or compliance "
            "sits at 0 or 1, and neither case is further identified",
            status="degenerate-iia",
        )

    targets = [a for a in universe.alternatives if a != anchor]
    same = operator.eq if exact else _same_root

    # Step 1: candidate utility values per alternative.  An aligned
    # alternative ends up with one candidate: the binary odds of its case-2
    # cubics, or its constant odds when no root survives the screen.
    pools: dict[str, list[Scalar]] = {}
    for y in targets:
        others = [a for a in targets if a != y]
        sets: list[CandidateSet] = []
        for z, t in combinations(others, 2):
            try:
                poly = identification_polynomial(rho_ai, anchor, y, z, t)
            except InsufficientDataError:  # a required menu is unobserved
                continue
            sets.append(candidate_utilities(poly, rho_ai, tol=eff))
        if not sets:
            raise InsufficientDataError(
                f"no reference pair for {y!r} has all four required menus "
                f"(quadruple, its two embedded triples, and the anchor pair) observed"
            )
        candidates[y] = tuple(sets)
        surviving = list(sets[0].admissible)
        for cs in sets[1:]:
            surviving = [r for r in surviving if any(same(r, s) for s in cs.admissible)]
        if surviving:
            pools[y] = sorted(surviving)
            continue
        k0 = _constant_odds(rho_ai, anchor, y, eff)
        if k0 is None:
            return fail(
                f"no admissible candidate utility for {y!r} survives screening "
                "across reference pairs"
            )
        pools[y] = [k0]

    # Step 2: implied compliance per candidate pair, and the shared value.
    for y in targets:
        rows: list[ConsistencyRow] = []
        cands = pools[y]
        pairs = (
            [(cands[0], cands[0])]
            if len(cands) == 1
            else list(combinations(cands, 2))
        )
        for pair in pairs:
            rows.append(
                ConsistencyRow(y, pair, implied_alpha(rho_ai, anchor, y, pair, tol=eff))
            )
        consistency[y] = tuple(rows)

    def fits(row: ConsistencyRow, value: tuple[Scalar, Scalar]) -> bool:
        """Whether a row supports the compliance pair ``value``: it must be
        feasible, and a full-interval row supports every value."""
        imp = row.implied
        return imp.feasible and (
            imp.full_interval
            or (_match(imp.values[0], value[0], eff) and _match(imp.values[1], value[1], eff))
        )

    distinct: list[tuple[Scalar, Scalar]] = []
    for rows in consistency.values():
        for row in rows:
            if (
                row.implied.feasible
                and not row.implied.full_interval
                and not any(fits(row, seen) for seen in distinct)
            ):
                distinct.append(row.implied.values)

    supported = [
        value
        for value in distinct
        if all(any(fits(row, value) for row in consistency[y]) for y in targets)
    ]
    if not supported:
        return fail(
            "no compliance pair is consistent across all alternatives",
            tuple(distinct),
        )
    if len(supported) > 1:
        return fail(
            "multiple compliance pairs are consistent across all alternatives; "
            "the configuration is not generic",
            tuple(supported),
        )
    a_lo, a_hi = supported[0]
    if a_hi - a_lo <= eff:
        return fail(
            "compliance indistinguishable from 1/2; branch assignment is "
            "undetermined",
            tuple(supported),
        )
    if a_lo <= eff or a_hi >= 1 - eff:
        return fail(
            "compliance indistinguishable from a boundary value despite IIA "
            "violations",
            tuple(supported),
        )

    # Step 3: assign pair members to u or v by consistency with the high branch.
    u_map: dict[str, Scalar] = {anchor: one}
    v_map: dict[str, Scalar] = {anchor: one}
    for y in targets:
        rows = [row for row in consistency[y] if fits(row, supported[0])]
        regular = [r for r in rows if not r.implied.full_interval]
        if not regular:
            # a lone equal-value pair (an aligned alternative) constrains
            # nothing; assign it directly
            flat = [r for r in rows if r.pair[0] == r.pair[1]]
            if len(flat) == 1:
                u_map[y] = v_map[y] = flat[0].pair[0]
                continue
            return fail(
                f"no candidate pair for {y!r} matches the shared compliance "
                "value; the configuration is not generic",
                tuple(supported),
            )
        if len(regular) > 1:
            return fail(
                f"{len(regular)} candidate pairs for {y!r} match the shared "
                "compliance value; the configuration is not generic",
                tuple(supported),
            )
        row = regular[0]
        k1, k2 = row.pair
        a_first = row.implied.alpha_for_first
        if _match(a_first, a_hi, eff):
            u_map[y], v_map[y] = k1, k2
        elif _match(1 - a_first, a_hi, eff):
            u_map[y], v_map[y] = k2, k1
        else:
            return fail(
                f"branch assignment for {y!r} matches neither reflection of the "
                "shared compliance value",
                tuple(supported),
            )

    primary = LamParams(universe, u_map, v_map, a_hi, anchor)
    residual = _residual(primary, rho_ai)
    if residual > eff:
        return fail(
            f"assembled swap class misses the data by {residual!r}",
            tuple(supported),
        )
    return FieldResult(
        status="identified-up-to-swap",
        primary=primary,
        swapped=primary.swapped(),
        alpha_pair=(a_hi, a_lo),
        candidates=candidates,
        consistency=consistency,
        tol=eff,
    )


def deception_gap(lab_alpha: Scalar, field_result: FieldResult) -> Scalar:
    """Reflection-invariant distance between lab and field compliance.

    The field pair {a, 1-a} cannot distinguish its members, so the gap is
    the distance from the lab estimate to the nearer one.  Zero means the
    two settings agree; large values flag behavior that changes between
    monitored and unmonitored choice.
    """
    if field_result.status != "identified-up-to-swap" or field_result.alpha_pair is None:
        raise GapUndefinedError(
            f"field result is {field_result.status}; the deception gap is undefined"
        )
    return _gap(lab_alpha, field_result.alpha_pair)


def _gap(lab_alpha: Scalar, alpha_pair: tuple[Scalar, Scalar]) -> Scalar:
    """The deception gap of a lab compliance and a field pair, each in [0, 1]."""
    for name, a in zip(("lab", "field", "field"), (lab_alpha, *alpha_pair)):
        if not 0 <= a <= 1:
            raise InvalidParameterError(f"{name} compliance {a!r} outside [0, 1]")
    return min(abs(lab_alpha - a) for a in alpha_pair)
