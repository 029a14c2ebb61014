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
   spurious.  The cubic is formed and solved in integers in both scalar
   modes, so every real root off the denominator zeros b_M / a_M solves
   the equation; roots are screened for positivity and for distance from
   those zeros (where the original equation is undefined).

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
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Literal, Mapping

from .choice import _dyadic, _residual, satisfies_iia
from .types import (
    GapUndefinedError,
    InsufficientDataError,
    InvalidParameterError,
    LamParams,
    Menu,
    Scalar,
    StochasticChoice,
    _show,
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
    polynomial.  ``ints``, ascending, is a positive multiple of the exact
    cubic that float coefficients round; None means c0..c3 themselves.
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
    ints: tuple[int, int, int, int] | None = field(default=None, compare=False, repr=False)

    def coefficients(self) -> tuple[Scalar, Scalar, Scalar, Scalar]:
        return (self.c3, self.c2, self.c1, self.c0)

    @property
    def is_exact(self) -> bool:
        return all(is_exact_scalar(c) for c in self.coefficients())

    def is_zero(self, tol: Scalar | None = None) -> bool:
        """Whether every coefficient is within tol * scale of 0 (case 2); float ones
        exactly, as ``ints`` over :func:`identification_polynomial`'s c_S c_T c_1 c_2."""
        eff = resolve_tol(tol, self.is_exact)
        if self.ints is None or self.is_exact:
            return max(abs(c) for c in self.coefficients()) <= eff * self.scale
        den = 1 << -4 * _dyadic(self.ab)[1]
        return Fraction(max(map(abs, self.ints)), den) <= Fraction(eff) * Fraction(self.scale)

    def evaluate(self, k: Scalar) -> Scalar:
        return _poly_eval([self.c0, self.c1, self.c2, self.c3], k)

    def pole_values(self) -> tuple[Scalar, ...]:
        """Zeros of the four linear denominators, where the equation is undefined."""
        zeros = []
        for a, b in self.ab:
            if a != 0:
                zeros.append(b / a)
        return tuple(sorted(set(zeros)))


def identification_polynomial(
    rho_ai: StochasticChoice, x: str, y: str, z: str, t: str
) -> CubicPoly:
    """Build the cubic for target y with anchor x and reference pair (z, t).

    Menu M gives a_M = A_M / c_M, b_M = B_M / c_M from the dense view: ints
    over the row's lcm c_M on exact data, and on float data the cells'
    mantissas over one power of two c_M (:func:`~lam.choice._dyadic`).
    With D_M = A_M k - B_M, the cubic is (c_S D_T + c_T D_S) D_1 D_2 -
    (c_1 D_2 + c_2 D_1) D_S D_T over the product of the c_M, formed in ints
    (``ints``); float coefficients are its correctly rounded values.  Raises
    :class:`InsufficientDataError` if any of the four menus is unobserved.
    """
    universe = rho_ai.universe
    if len({x, y, z, t}) != 4:
        raise InvalidParameterError("anchor, target, and reference alternatives must be distinct")
    for alt in (x, y, z, t):
        universe.index(alt)
    menus = (frozenset({x, y, z, t}), frozenset({x, y}), frozenset({x, y, z}), frozenset({x, y, t}))
    missing = [m for m in menus if not rho_ai.has_menu(m)]
    if missing:
        names = [universe.sorted_members(m) for m in missing]
        raise InsufficientDataError(
            f"identification for {y!r} with reference ({z!r}, {t!r}) needs "
            f"unobserved menus {names}"
        )
    view = rho_ai._dense
    at = [view.rows[m] for m in menus]
    cells = view.entries[at][:, [universe.index(x), universe.index(y)]]
    if view.scale is None:  # float rows: ints over one power of two, exactly
        pairs, e = _dyadic(cells)
        cs = [1 << -e] * 4
        ab = tuple(map(tuple, cells.tolist()))
    else:
        pairs, cs = cells, view.scale[at].tolist()
        ab = tuple((Fraction(a, c), Fraction(b, c)) for (a, b), c in zip(cells.tolist(), cs))
    d_s, d_t, d_1, d_2 = ([-b, a] for a, b in pairs.tolist())  # ascending coefficients of A k - B
    c_s, c_t, c_1, c_2 = cs
    left = _mul([c_s * q + c_t * p for p, q in zip(d_s, d_t)], _mul(d_1, d_2))
    right = _mul([c_1 * q + c_2 * p for p, q in zip(d_1, d_2)], _mul(d_s, d_t))
    ints = tuple(p - q for p, q in zip(left, right))
    den = c_s * c_t * c_1 * c_2  # int true division rounds correctly
    coeffs = [c / den if view.scale is None else Fraction(c, den) for c in ints]
    scale = max(max(a, b) for a, b in ab) ** 3
    return CubicPoly(*reversed(coeffs), y, x, (z, t), menus, ab, scale, ints)


def _mul(p: list[int], q: list[int]) -> list[int]:
    """The product of two polynomials, ascending coefficients."""
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    return out


# ---------------------------------------------------------------------------
# Root solving
# ---------------------------------------------------------------------------


def _poly_eval(coeffs: list[Scalar], x: Scalar) -> Scalar:
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def _hom_eval(coeffs: list[int], p: int, q: int) -> int:
    """q**d P(p/q) for the ascending int coefficients of a degree-d P, by
    Horner's rule in ints; zero iff p/q is a root (q > 0)."""
    acc, qk = coeffs[-1], 1
    for c in reversed(coeffs[:-1]):
        qk *= q
        acc = acc * p + c * qk
    return acc


def _deflate(coeffs: list[int], p: int, q: int) -> list[int]:
    """Exact division of an int polynomial by (q k - p) for a root p/q in
    lowest terms; by Gauss's lemma the quotient has int coefficients."""
    out = [0] * (len(coeffs) - 1)
    carry = coeffs[-1]
    for i in range(len(coeffs) - 2, -1, -1):
        out[i] = carry // q
        carry = coeffs[i] + out[i] * p
    return out


def _ratio(p: int, q: int) -> float:
    """p / q correctly rounded, as int true division is; +-inf past float range."""
    try:
        return p / q
    except OverflowError:
        return math.inf if (p < 0) == (q < 0) else -math.inf


def _bound(coeffs: list[int]) -> int:
    """An e with every root of the int polynomial ``coeffs`` (ascending, both
    ends nonzero) below 2**e in modulus: Fujiwara's bound, as each
    |c_i / c_n| < 2**((e - 1)(n - i))."""
    n, top = len(coeffs) - 1, abs(coeffs[-1]).bit_length()
    return 1 + max(-((top - c.bit_length() - 1) // (n - i)) for i, c in enumerate(coeffs[:-1]) if c)


def _quadratic_stand_ins(c0: int, c1: int, c2: int, disc: int) -> list[float]:
    """The correctly rounded irrational roots q / c2 and c0 / q of an int
    quadratic, with q = -(c1 + sgn(c1) sqrt(disc)) / 2 free of cancellation.
    sqrt(disc) 2**m lies strictly between s = isqrt(disc 4**m) and s + 1;
    m doubles from 64 until both ends of each root's bracket round alike."""
    m, sign = 64, 1 if c1 >= 0 else -1
    while True:
        s = math.isqrt(disc << 2 * m)
        ends = {(_ratio(q, c2 << m + 1), _ratio(c0 << m + 1, q))  # q 2**(m + 1) for q
                for q in (-(c1 << m) - sign * s, -(c1 << m) - sign * (s + 1))}
        if len(ends) == 1:
            return list(ends.pop())
        m *= 2


def _cubic_root(work: list[int], rational: bool = True) -> tuple[Fraction | None, list[float]]:
    """A rational root of the int cubic ``work`` (ascending, c0 nonzero), or
    None and the correctly rounded floats of its real roots, all irrational
    unless ``rational`` is False: then :func:`_rounded_root` tries first.

    Sturm's chain P, P', a k + b, s3 is built in closed form.  A repeated
    root is rational: -c2 / (3 c3), or -b / a where s3 = 0.  Otherwise the
    chain's sign changes V count the roots, all between 2**-e0 and 2**e in
    modulus (Fujiwara's bound on P and on its reversal), from V at -inf, 0
    and inf.  Those bounds and dyadic roundings of the roots of P' isolate
    the roots, the grid refined until they do.  ``_refine_root`` refines
    each by quadratic interval refinement, one integer test on c3 r in Z
    deciding whether it is rational: the middle one of three last, as on
    mixture data it is mostly the spurious root, with the largest
    denominator.
    """
    c0, c1, c2, c3 = work
    deriv, sg = [c1, 2 * c2, 3 * c3], 1 if c3 > 0 else -1
    a, b = sg * (2 * c2 * c2 - 6 * c1 * c3), sg * (c1 * c2 - 9 * c0 * c3)
    s3 = -(3 * c3 * b * b - 2 * c2 * a * b + c1 * a * a)  # -P'(-b / a) a**2
    if not s3:
        return (Fraction(-b, a) if a else Fraction(-c2, 3 * c3)), []

    def changes(*values: int) -> int:
        values = [v for v in values if v]
        return sum((u > 0) != (v > 0) for u, v in zip(values, values[1:]))

    top, bottom = changes(sg, sg, a or b, s3), changes(-sg, sg, -a or b, s3)
    zero = changes(c0, c1, b, s3)
    e, e0, d = _bound(work), _bound(work[::-1]), c2 * c2 - 3 * c3 * c1  # d: P''s discriminant / 4
    m = max(0, -e, e0, abs(c3).bit_length() - d.bit_length() // 2 + 4)
    while True:
        points = {-1 << e + m: bottom, -1 << m - e0: zero, 1 << m - e0: zero, 1 << e + m: top}
        if bottom - top == 3:
            r = math.isqrt(d << 2 * m)
            for x in ((t - (c2 << m)) // (3 * c3) for t in (-r, r)):
                p = _hom_eval(work, x, 1 << m)
                if not p:
                    return Fraction(x, 1 << m), []
                points[x] = changes(p, _hom_eval(deriv, x, 1 << m), a * x + (b << m), s3)
        ends = sorted(points.items())
        isolated = [(lo, hi) for (lo, u), (hi, v) in zip(ends, ends[1:]) if u > v]
        if len(isolated) == bottom - top:
            break
        m = 2 * m + 1
    stand_ins = []
    for lo, hi in isolated[::2] + isolated[1::2]:
        root = None if rational else _rounded_root(work, lo, hi, m)
        root = _refine_root(work, lo, hi, m) if root is None else root
        if isinstance(root, Fraction):
            return root, []
        stand_ins.append(root)
    return None, stand_ins


def _rounded_root(work: list[int], lo: int, hi: int, m: int) -> Fraction | float | None:
    """The correctly rounded float of the root of the int cubic ``work``
    isolated in (lo, hi) / 2**m, or the root if it lies midway between two
    floats; None if three guesses miss.  The first guess is bracketed
    Newton in floats, to about 40 bits.  A float x rounds the root iff P
    changes sign between the midpoints of x and its two neighbours, both
    inside (lo, hi); otherwise the secant through those exact values,
    correctly rounded, is the next guess.
    """
    side = _hom_eval(work, lo, 1 << m) > 0
    a, b = _ratio(lo, 1 << m), _ratio(hi, 1 << m)
    shift = max(0, max(c.bit_length() for c in work) - 64)
    f0, f1, f2, f3 = (_ratio(c, 1 << shift) for c in work)
    x = a + (b - a) / 2
    for _ in range(64):
        px = ((f3 * x + f2) * x + f1) * x + f0
        dp = (3 * f3 * x + 2 * f2) * x + f1
        y = x - px / dp if dp else math.nan
        if abs(y - x) <= 2.0**-40 * abs(x):
            x = y
            break
        a, b = (x, b) if (px > 0) == side else (a, x)
        x = y if a < y < b else a + (b - a) / 2
    for _ in range(3):
        near = (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))
        if not all(map(math.isfinite, near)):
            return None
        (p, q), (r, t), (s, w) = (z.as_integer_ratio() for z in near)
        k = max(q, t, w)  # the midpoints are u / 2k and v / 2k
        u, v = p * (k // q) + r * (k // t), r * (k // t) + s * (k // w)
        if not (lo * 2 * k < u << m and v << m < hi * 2 * k):
            return None
        pu, pv = _hom_eval(work, u, 2 * k), _hom_eval(work, v, 2 * k)
        if not pu or not pv:
            return Fraction(v if pu else u, 2 * k)
        if (pu > 0) == side != (pv > 0):
            return x
        x = _ratio(u * pv - v * pu, 2 * k * (pv - pu)) if pv != pu else math.nan
    return None


def _refine_root(work: list[int], lo: int, hi: int, m: int) -> Fraction | float:
    """The root of the int cubic ``work`` isolated in (lo, hi) / 2**m: a
    Fraction if it is rational, else its correctly rounded float.

    Quadratic interval refinement (Abbott 2006) on a dyadic grid.  Ends of
    one sign a factor 4 apart split in bits.  Otherwise the secant point,
    snapped to a grid of 2**j subintervals, is probed with its neighbour
    toward the root: a bracket left one grid step wide doubles j, any
    other halves it (down to 1).  A step costs at most two evaluations.

    A rational root p/q has q | c3, so c3 p/q is an integer: once the
    bracket is narrower than 1 / |c3| it holds at most one K / |c3|, and
    one evaluation there decides.  Then an irrational root is refined
    until both ends of the bracket round to one float.
    """
    c3 = abs(work[3])
    flo, fhi = _hom_eval(work, lo, 1 << m), _hom_eval(work, hi, 1 << m)  # P 8**m at the ends
    j, rational = 1, True  # rational: a rational root not yet ruled out
    while True:
        if rational and c3 * (hi - lo) < 1 << m:
            rational, k = False, (lo * c3 >> m) + 1  # the first K / |c3| past lo
            if k << m < hi * c3 and not _hom_eval(work, k, c3):
                return Fraction(k, c3)
        if not rational and (f := _ratio(lo, 1 << m)) == _ratio(hi, 1 << m):
            return f
        if 0 < 4 * lo < hi or hi < 0 and lo < 4 * hi:
            t = 1 << (abs(lo).bit_length() + abs(hi).bit_length() - 1) // 2
            t, w = (t if lo > 0 else -t), hi - lo
        else:
            s = max(0, j + 1 - ((hi - lo) & (lo - hi)).bit_length())  # so that 2**j | hi - lo
            lo, hi, m, flo, fhi = lo << s, hi << s, m + s, flo << 3 * s, fhi << 3 * s
            w, d = (hi - lo) >> j, flo - fhi
            t = lo + w * min(max(((flo << j + 1) + d) // (2 * d), 1), (1 << j) - 1)
        for _ in range(2):  # t, then its neighbour toward the root
            if not lo < t < hi:
                break
            if not (ft := _hom_eval(work, t, 1 << m)):
                return Fraction(t, 1 << m)
            if (ft > 0) == (flo > 0):
                lo, flo, t = t, ft, t + w
            else:
                hi, fhi, t = t, ft, t - w
        j = 2 * j if hi - lo == w else max(1, j // 2)


def _exact_roots(coeffs: list[Scalar], rational: bool = True) -> tuple[list[Fraction], list[float]]:
    """All rational roots of a degree <= 3 rational polynomial, plus the
    correctly rounded floats of its irrational real roots, in ints alone:
    the coefficients over their lcm and gcd.  A root at 0 is divided out
    first, a cubic's rational root from ``_cubic_root`` next, and a
    quadratic's roots are rational iff its discriminant is a square.
    Unless ``rational``, a cubic's rational roots may come as floats too.
    """
    den = math.lcm(*(c.denominator for c in coeffs))
    work = [c.numerator * (den // c.denominator) for c in coeffs]
    while len(work) > 1 and work[-1] == 0:  # a zero leading coefficient
        work.pop()
    g = math.gcd(*work) or 1
    work = [c // g for c in work]
    roots: list[Fraction] = []
    while len(work) > 1 and work[0] == 0:
        roots.append(Fraction(0))
        work = work[1:]
    if len(work) == 4:
        root, stand_ins = _cubic_root(work, rational)
        if root is None:
            return roots, stand_ins
        roots.append(root)
        work = _deflate(work, root.numerator, root.denominator)
    if len(work) == 3:
        c0, c1, c2 = work
        disc = c1 * c1 - 4 * c2 * c0
        if disc < 0:
            return roots, []  # conjugate complex pair
        s = math.isqrt(disc)
        if s * s != disc:
            return roots, _quadratic_stand_ins(c0, c1, c2, disc)
        roots.extend([Fraction(-c1 - s, 2 * c2), Fraction(-c1 + s, 2 * c2)])
    elif len(work) == 2:
        roots.append(Fraction(-work[0], work[1]))
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
    roots are kept only when real, strictly positive and farther than
    ``tol`` from every denominator zero, off which they solve the original
    equation.  Both scalar modes solve the exact cubic (``poly.ints``):
    exact mode keeps its rational roots, float mode the correctly rounded
    floats of all its real roots, nearly equal ones merged.
    """
    exact = poly.is_exact and rho_ai.is_exact
    eff = resolve_tol(tol, exact)
    case2 = poly.is_zero(eff)
    # the denominator zeros b/a as (b, a), exact ones as ints: p/q is one iff p a == q b
    poles = [(b.numerator * a.denominator, a.numerator * b.denominator) if exact else (b, a)
             for a, b in poly.ab if a != 0]
    admissible: list[Scalar] = []
    rejected: list[RejectedRoot] = []
    roots: list[Scalar] = []
    irrational: list[float] = []
    if case2:  # the binary odds, unless the anchor is never chosen from {x, y}
        base, target = poly.ab[1]  # rho(x, {x, y}) and rho(y, {x, y})
        if base > 0:
            admissible.append(target / base)
    else:
        found, irrational = _exact_roots(list(poly.ints or map(Fraction, poly.coefficients()[::-1])), exact)
        if not exact:  # every real root, correctly rounded
            found, irrational = [_ratio(r.numerator, r.denominator) for r in found] + irrational, []
        same = operator.eq if exact else _same_root
        for r in sorted(found):
            if not (roots and same(r, roots[-1])):
                roots.append(r)
    for r in roots:
        if not r > 0:
            reason = "non-positive"
        elif any(
            r.numerator * a == r.denominator * b
            if exact
            else abs(r - b / a) <= max(eff, ROOT_MERGE_RTOL * (1 + abs(b / a)))
            for b, a in poles
        ) or not exact and any(a * r == b for a, b in poly.ab):  # also a = b = 0, at any r
            reason = "denominator-vanishing"
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


def _constant_odds(rho_ai: StochasticChoice, anchor: str, y: str, eff: Scalar) -> Scalar | None:
    """The menu-independent odds of y against the anchor, if they are constant,
    from the dense view's rows holding both, in canonical order."""
    view, index = rho_ai._dense, rho_ai.universe.index
    x, j = index(anchor), index(y)
    held = view.mask[:, x] & view.mask[:, j]
    px, py = view.entries[held, x].tolist(), view.entries[held, j].tolist()
    if not all(p > 0 for p in px):
        return None
    ratios = [b / a if view.scale is None else Fraction(b, a) for a, b in zip(px, py)]
    spread, top = max(ratios) - min(ratios), 1 + max(abs(r) for r in ratios)
    # exact odds meet a float tol at its exact value, past float range too
    if spread <= (eff if view.scale is None else Fraction(eff)) * top:
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
            menus = ({anchor, y}, {anchor, y, z}, {anchor, y, t}, {anchor, y, z, t})
            if all(map(rho_ai.has_menu, menus)):  # else a required menu is unobserved
                poly = identification_polynomial(rho_ai, anchor, y, z, t)
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
        # the row fits a_hi with its high value, a_first or 1 - a_first
        if _match(a_first, a_hi, eff):
            u_map[y], v_map[y] = k1, k2
        else:
            u_map[y], v_map[y] = k2, k1

    primary = LamParams(universe, u_map, v_map, a_hi, anchor)
    residual = _residual(primary, rho_ai)
    if residual > eff:
        return fail(
            f"assembled swap class misses the data by {_show(residual)}",
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
            raise InvalidParameterError(f"{name} compliance {_show(a)} outside [0, 1]")
    return min(abs(lab_alpha - a) for a in alpha_pair)
