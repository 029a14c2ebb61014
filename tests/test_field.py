"""Field identification: cubic construction, root screening, the swap class."""

import math
import random
import re
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

import pytest

import gen
from lam import (
    CubicPoly,
    FieldResult,
    GapUndefinedError,
    InstabilityTuple,
    InsufficientDataError,
    InvalidParameterError,
    LamParams,
    RejectedRoot,
    StochasticChoice,
    Universe,
    candidate_utilities,
    cross_instability,
    deception_gap,
    identification_polynomial,
    identify_field,
    implied_alpha,
    lam_table,
    luce_table,
    simulate_counts,
    sup_distance,
)
from lam.dataio import parse_dataset, parse_params

DATA = Path(__file__).parent / "data"

Y_ROOTS = (F(4, 5), F(263, 196), F(2))
Z_ROOTS = (F(2, 5), F(481, 244), F(4))


# ---------------------------------------------------------------------------
# identification_polynomial and candidate_utilities
# ---------------------------------------------------------------------------


def test_cubic_roots_for_y(ex_b_ai):
    poly = identification_polynomial(ex_b_ai, "x", "y", "z", "t")
    cs = candidate_utilities(poly, ex_b_ai)
    assert cs.admissible == Y_ROOTS
    assert cs.rejected == ()
    assert not cs.case2
    assert all(poly.evaluate(r) == 0 for r in Y_ROOTS)


def test_cubic_roots_for_z(ex_b_ai):
    poly = identification_polynomial(ex_b_ai, "x", "z", "y", "t")
    cs = candidate_utilities(poly, ex_b_ai)
    assert cs.admissible == Z_ROOTS


def test_cubic_roots_for_t_with_pole_rejection(ex_b_ai):
    poly = identification_polynomial(ex_b_ai, "x", "t", "y", "z")
    cs = candidate_utilities(poly, ex_b_ai)
    assert cs.admissible == (F(1, 5), F(5))
    assert len(cs.rejected) == 1
    assert cs.rejected[0].value == F(2)
    assert cs.rejected[0].reason == "denominator-vanishing"
    # 2 really is a root of the cubic, and really is a denominator zero
    assert poly.evaluate(F(2)) == 0
    assert F(2) in poly.pole_values()


def _abcd_table(u, v, alpha):
    uni = Universe(tuple("abcd"))
    params = LamParams.normalized(
        uni, dict(zip("abcd", map(F, u))), dict(zip("abcd", map(F, v))), F(alpha)
    )
    return lam_table(params, uni.all_menus(2))


def test_cubic_rejects_non_positive_root():
    rho = _abcd_table((9, 3, 7, 6), (1, 9, 4, 5), F(1, 2))
    cs = candidate_utilities(identification_polynomial(rho, "a", "d", "b", "c"), rho)
    assert cs.admissible == (F(2, 3), F(5))
    assert [(r.reason, r.value) for r in cs.rejected] == [("non-positive", F(-415, 112))]


def test_cubic_float_rejects_root_failing_original_equation():
    rho = _abcd_table((8, 8, 6, 8), (5, 5, 8, 7), F(1, 4)).as_float()
    cs = candidate_utilities(identification_polynomial(rho, "a", "b", "c", "d"), rho)
    assert cs.admissible == ()
    # a and b share their utilities: the exact cubic of the float cells has
    # the triple root 1, as the exact table's has, and 1 is a denominator zero
    assert [(r.reason, r.value) for r in cs.rejected] == [("denominator-vanishing", 1.0)]


def test_cubic_exact_rejects_irrational_root():
    rho = _abcd_table((1, F(9, 4), F(3, 4), F(3, 2)), (1, F(1, 4), F(1, 8), 1), F(9, 20))
    table = {m: dict(rho.table[m]) for m in rho.domain}
    full = frozenset("abcd")
    table[full]["a"] += F(1, 50)
    table[full]["b"] -= F(1, 50)
    moved = StochasticChoice(rho.universe, table)
    cs = candidate_utilities(identification_polynomial(moved, "a", "b", "c", "d"), moved)
    assert cs.admissible == ()
    assert [r.reason for r in cs.rejected] == ["irrational (exact mode)"]
    assert abs(cs.rejected[0].value - (-1.26867102597)) < 1e-9


def test_cubic_float_mode_matches_exact(ex_b_ai):
    poly = identification_polynomial(ex_b_ai.as_float(), "x", "y", "z", "t")
    cs = candidate_utilities(poly, ex_b_ai.as_float())
    assert len(cs.admissible) == 3
    for got, want in zip(cs.admissible, Y_ROOTS):
        assert abs(got - float(want)) < 1e-9


def test_cubic_identically_zero_for_aligned_data(uni4):
    params = LamParams.normalized(
        uni4, {"x": 1, "y": 2, "z": 3, "t": 4},
        {"x": 2, "y": 4, "z": 6, "t": 8}, F(1, 3)
    )
    rho = lam_table(params, uni4.all_menus(2))
    poly = identification_polynomial(rho, "x", "y", "z", "t")
    assert poly.is_zero()
    cs = candidate_utilities(poly, rho)
    assert cs.case2
    assert cs.admissible == (F(2),)


def test_case2_candidate_is_binary_odds(uni4):
    # identically-zero polynomial short-circuits to the {x,y} odds ratio
    params = LamParams.normalized(
        uni4, {"x": 1, "y": 3, "z": 2, "t": 5},
        {"x": 1, "y": 3, "z": 2, "t": 5}, F(1, 2)
    )
    rho = lam_table(params, uni4.all_menus(2))
    poly = identification_polynomial(rho, "x", "y", "z", "t")
    cs = candidate_utilities(poly, rho)
    assert cs.case2 and cs.admissible == (F(3),)


def test_polynomial_needs_menus(ex_b_ai, uni4):
    table = {m: ex_b_ai.table[m] for m in ex_b_ai.domain if m != frozenset("xyzt")}
    partial = StochasticChoice(uni4, table)
    with pytest.raises(InsufficientDataError):
        identification_polynomial(partial, "x", "y", "z", "t")
    with pytest.raises(InvalidParameterError, match="must be distinct"):
        identification_polynomial(ex_b_ai, "x", "y", "z", "y")


def test_root_containment_exact():
    """On noiseless mixture data both utility values are admissible roots of
    every identification cubic built for their alternative, whenever the
    cubic is non-degenerate and they avoid its denominator zeros."""
    rng = random.Random(17)
    checked = 0
    for _ in range(15):
        params = gen.random_params(rng, rng.choice([4, 5]))
        if not 0 < params.alpha < 1:
            continue
        rho = lam_table(params, params.universe.all_menus(2))
        anchor = params.anchor
        targets = [a for a in params.universe.alternatives if a != anchor]
        for y in targets:
            for z, t in combinations([a for a in targets if a != y], 2):
                poly = identification_polynomial(rho, anchor, y, z, t)
                if poly.is_zero():
                    continue
                cs = candidate_utilities(poly, rho)
                for w in (params.u[y], params.v[y]):
                    assert poly.evaluate(w) == 0
                    if all(w != p for p in poly.pole_values()):
                        assert w in cs.admissible
                        checked += 1
    assert checked > 20


def expanded_cubic(rho, x, y, z, t):
    """The cubic as the library formerly expanded it, the reference for the
    int builder: four triple products of the 2-term lists a k - b, summed
    with signs, in Fractions, the float cells read exactly and the
    coefficients then correctly rounded."""
    menus = (frozenset({x, y, z, t}), frozenset({x, y}), frozenset({x, y, z}), frozenset({x, y, t}))
    ab = tuple((rho.prob(x, m), rho.prob(y, m)) for m in menus)
    lin = [(-F(b), F(a)) for a, b in ab]

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
    if not rho.is_exact:
        coeffs = [float(c) for c in coeffs]
    return CubicPoly(*reversed(coeffs), y, x, (z, t), menus, ab, scale)


def _anchor_never_chosen(rho, menu, recorded):
    """``rho`` with the anchor's mass in ``menu`` moved to another member;
    the anchor is kept as a recorded 0 or left out of the row."""
    table = {m: dict(rho.table[m]) for m in rho.domain}
    row = table[menu]
    anchor = rho.universe.alternatives[0]
    other = next(a for a in rho.universe.sorted_members(menu) if a != anchor)
    row[other] += row[anchor]
    if recorded:
        row[anchor] = 0 * row[anchor]
    else:
        del row[anchor]
    return StochasticChoice(rho.universe, table)


def test_cubic_builder_matches_the_expansion():
    rng = random.Random(41)
    built = 0
    for n in (4, 5, 6):
        for k in range(3):
            params = gen.random_params(rng, n)
            rho = lam_table(params, params.universe.all_menus(2))
            anchor, *targets = params.universe.alternatives
            if k:  # rho(x, M) = 0 for one triple: no pole from that menu
                y, z = targets[:2]
                rho = _anchor_never_chosen(rho, frozenset({anchor, y, z}), recorded=k == 1)
            for table in (rho, rho.as_float()):
                for y in targets:
                    for z, t in combinations([a for a in targets if a != y], 2):
                        poly = identification_polynomial(table, anchor, y, z, t)
                        want = expanded_cubic(table, anchor, y, z, t)
                        assert poly == want
                        assert [type(c) for c in poly.coefficients()] == [
                            F if table.is_exact else float
                        ] * 4
                        if not table.is_exact:  # bit for bit, each correctly rounded
                            assert [float(c).hex() for c in poly.coefficients()] == [
                                float(c).hex() for c in want.coefficients()
                            ]
                        zero = [b for a, b in poly.ab if a == 0]
                        assert len(poly.pole_values()) == len({b / a for a, b in poly.ab if a != 0})
                        built += bool(zero)
    assert built >= 12  # cubics that read a menu with rho(x, M) = 0


# ---------------------------------------------------------------------------
# implied_alpha
# ---------------------------------------------------------------------------


def test_implied_alpha_golden_tables(ex_b_ai):
    cases = [
        ("y", (F(2), F(4, 5)), (F(1, 4), F(3, 4)), True),
        ("y", (F(2), F(263, 196)), (F(35, 86), F(51, 86)), True),
        ("y", (F(4, 5), F(263, 196)), (F(-35, 118), F(153, 118)), False),
        ("z", (F(4), F(2, 5)), (F(1, 4), F(3, 4)), True),
        ("z", (F(4), F(481, 244)), (F(9, 154), F(145, 154)), True),
        ("z", (F(2, 5), F(481, 244)), (F(-3, 142), F(145, 142)), False),
        ("t", (F(5), F(1, 5)), (F(1, 4), F(3, 4)), True),
    ]
    for y, pair, values, feasible in cases:
        got = implied_alpha(ex_b_ai, "x", y, pair)
        assert got.values == values
        assert got.feasible is feasible


def test_implied_alpha_directional(ex_b_ai):
    got = implied_alpha(ex_b_ai, "x", "y", (F(2), F(4, 5)))
    assert got.alpha_for_first == F(3, 4)  # u(y) = 2 carries the 3/4 weight
    flipped = implied_alpha(ex_b_ai, "x", "y", (F(4, 5), F(2)))
    assert flipped.alpha_for_first == F(1, 4)


def test_implied_alpha_full_interval(uni3):
    rho = luce_table(uni3, {"x": F(1), "y": F(3), "z": F(1)}, uni3.all_menus(2))
    got = implied_alpha(rho, "x", "y", (F(3), F(3)))
    assert got.full_interval and got.feasible


def test_implied_alpha_equal_pair_unsatisfied(uni3):
    rho = luce_table(uni3, {"x": F(1), "y": F(3), "z": F(1)}, uni3.all_menus(2))
    got = implied_alpha(rho, "x", "y", (F(5), F(5)))
    assert not got.feasible and not got.full_interval


@pytest.mark.parametrize("pair", [(F(0), F(2)), (F(2), F(-1)), (0.0, 2.0)])
def test_implied_alpha_rejects_non_positive_candidates(ex_b_ai, pair):
    with pytest.raises(InvalidParameterError, match="^candidate utilities must be positive$"):
        implied_alpha(ex_b_ai, "x", "y", pair)


# ---------------------------------------------------------------------------
# identify_field
# ---------------------------------------------------------------------------


def test_identify_field_example_b(ex_b_ai, ex_b_params):
    result = identify_field(ex_b_ai, "x")
    assert result.status == "identified-up-to-swap"
    assert result.alpha_pair == (F(3, 4), F(1, 4))
    assert result.primary == ex_b_params
    assert result.swapped == ex_b_params.swapped()
    assert result.primary.u_vector() == (F(1), F(2), F(4), F(5))
    assert result.primary.v_vector() == (F(1), F(4, 5), F(2, 5), F(1, 5))


def test_identify_field_consistency_tables_match(ex_b_ai):
    result = identify_field(ex_b_ai, "x")
    tables = {
        "y": {
            (frozenset({F(2), F(4, 5)}), (F(1, 4), F(3, 4)), True),
            (frozenset({F(2), F(263, 196)}), (F(35, 86), F(51, 86)), True),
            (frozenset({F(4, 5), F(263, 196)}), (F(-35, 118), F(153, 118)), False),
        },
        "z": {
            (frozenset({F(4), F(2, 5)}), (F(1, 4), F(3, 4)), True),
            (frozenset({F(4), F(481, 244)}), (F(9, 154), F(145, 154)), True),
            (frozenset({F(2, 5), F(481, 244)}), (F(-3, 142), F(145, 142)), False),
        },
        "t": {
            (frozenset({F(5), F(1, 5)}), (F(1, 4), F(3, 4)), True),
        },
    }
    for alt, want in tables.items():
        got = {
            (frozenset(row.pair), row.implied.values, row.implied.feasible)
            for row in result.consistency[alt]
        }
        assert got == want


def test_identify_field_swap_closure(ex_b_ai):
    result = identify_field(ex_b_ai, "x")
    for member in result.class_members:
        assert sup_distance(lam_table(member, ex_b_ai.domain), ex_b_ai) == 0
    assert result.primary.swapped() == result.swapped
    assert result.swapped.swapped() == result.primary
    assert result.primary.alpha >= F(1, 2)


def test_identify_field_luce_input_degenerate(uni4):
    rho = luce_table(uni4, {"x": F(1), "y": F(2), "z": F(3), "t": F(4)}, uni4.all_menus(2))
    result = identify_field(rho, "x")
    assert result.status == "degenerate-iia"
    with pytest.raises(GapUndefinedError, match="field result is degenerate-iia; no class recovered"):
        result.class_members


def test_identify_field_needs_four_alternatives(uni3):
    rho = luce_table(uni3, {"x": F(1), "y": F(2), "z": F(3)}, uni3.all_menus(2))
    with pytest.raises(InsufficientDataError):
        identify_field(rho, "x")


def test_identify_field_half_compliance_non_generic(uni4):
    params = LamParams.normalized(
        uni4, {"x": 1, "y": 2, "z": 4, "t": 5},
        {"x": 1, "y": 5, "z": 2, "t": 3}, F(1, 2)
    )
    rho = lam_table(params, uni4.all_menus(2))
    result = identify_field(rho, "x")
    assert result.status == "non-generic-failure"


def test_identify_field_equal_coordinate_recovers(uni4):
    # one alternative with matching utilities exercises the constant-odds path
    params = LamParams.normalized(
        uni4, {"x": 1, "y": 3, "z": 4, "t": 5},
        {"x": 1, "y": 3, "z": F(2, 5), "t": F(1, 5)}, F(7, 10)
    )
    rho = lam_table(params, uni4.all_menus(2))
    result = identify_field(rho, "x")
    assert result.status == "identified-up-to-swap"
    assert result.primary == params


def test_identify_field_equal_coordinate_float(uni4):
    params = LamParams.normalized(
        uni4, {"x": 1, "y": 3, "z": 4, "t": 5},
        {"x": 1, "y": 3, "z": F(2, 5), "t": F(1, 5)}, F(7, 10)
    ).as_float()
    rho = lam_table(params, uni4.all_menus(2))
    result = identify_field(rho, "x")
    assert result.status == "identified-up-to-swap"
    assert max(abs(result.primary.u[a] - params.u[a]) for a in "xyzt") < 1e-9


def test_identify_field_round_trip_batch():
    rng = random.Random(59)
    done = 0
    for _ in range(30):
        alpha = gen.random_alpha_generic(rng)
        params = gen.random_params(rng, rng.choice([4, 5]), alpha=alpha)
        rho = lam_table(params, params.universe.all_menus(2))
        result = identify_field(rho, params.anchor)
        if result.status != "identified-up-to-swap":
            # tolerated only for genuinely non-generic draws
            assert any(params.u[a] == params.v[a] for a in params.universe.alternatives)
            continue
        assert params in (result.primary, result.swapped)
        done += 1
    assert done >= 28


def test_identify_field_low_compliance_canonicalization():
    # generating alpha below 1/2: the primary member still carries the high branch
    rng = random.Random(61)
    params = gen.random_params(rng, 4, alpha=F(3, 10))
    rho = lam_table(params, params.universe.all_menus(2))
    result = identify_field(rho, params.anchor)
    assert result.status == "identified-up-to-swap"
    assert result.primary.alpha == F(7, 10)
    assert result.swapped == params
    assert result.alpha_pair == (F(7, 10), F(3, 10))


def test_identify_field_minimal_menu_domain():
    # the quadruple, the three embedded triples, and the anchor pairs suffice
    rng = random.Random(5)
    params = gen.random_params(rng, 4, alpha=F(7, 10))
    x, y, z, t = params.universe.alternatives
    needed = [{x, y, z, t}, {x, y, z}, {x, y, t}, {x, z, t}, {x, y}, {x, z}, {x, t}]
    rho = lam_table(params, needed)
    result = identify_field(rho, x)
    assert result.status == "identified-up-to-swap"
    assert params in (result.primary, result.swapped)


@pytest.mark.parametrize(
    "to_float, miss",
    [(False, "Fraction(59, 480)"), (True, "0.12291666666666701")],
)
def test_identify_field_residual_failure_message(to_float, miss):
    ai, _ = gen.residual_miss_pair()
    result = identify_field(ai.as_float() if to_float else ai, "a")
    assert result.status == "non-generic-failure"
    assert result.reason == f"assembled swap class misses the data by {miss}"


def test_identify_field_missing_menu_raises():
    rng = random.Random(5)
    params = gen.random_params(rng, 4, alpha=F(7, 10))
    x, y, z, t = params.universe.alternatives
    menus = [{x, y, z, t}, {x, y, z}, {x, y, t}, {x, y}, {x, z}, {x, t}]
    rho = lam_table(params, menus)  # {x,z,t} absent: no reference pair for z or t
    with pytest.raises(InsufficientDataError):
        identify_field(rho, x)


def test_identify_field_builds_cubics_only_for_observed_reference_pairs(monkeypatch):
    import lam.field as field

    # the linear design on n = 10: for each alternative o_i after the anchor,
    # indices mod 9, the menus {x, o_i}, {x, o_i, o_i+1}, {x, o_i, o_i+2} and
    # {x, o_i, o_i+1, o_i+2}.  Each target has 3 reference pairs with all
    # four menus observed, and only their cubics are built, not 9 C(8, 2)
    params = gen.random_params(random.Random(7), 10, alpha=F(3, 10))
    x, *o = params.universe.alternatives
    menus = [{x, *(o[(i + j) % 9] for j in js)} for i in range(9)
             for js in ((0,), (0, 1), (0, 2), (0, 1, 2))]
    calls = []
    cubic = field.identification_polynomial
    monkeypatch.setattr(field, "identification_polynomial", lambda *args: calls.append(1) or cubic(*args))
    result = identify_field(lam_table(params, menus).as_float(), x)
    assert result.status == "identified-up-to-swap"
    assert len(calls) == sum(map(len, result.candidates.values())) == 27


def test_identify_field_six_alternatives():
    rng = random.Random(5)
    params = gen.random_params(rng, 6, alpha=F(7, 10))
    rho = lam_table(params, params.universe.all_menus(2))
    result = identify_field(rho, params.anchor)
    assert result.status == "identified-up-to-swap"
    assert params in (result.primary, result.swapped)


def _assert_rounded(coeffs, stand_ins, splits=()):
    """Each stand-in is the correctly rounded float of a root of
    ``coeffs``, whose real roots they all stand in for: a float x taken k
    times has k roots between the midpoints to its float neighbours, so
    the sign changes k times along them and the ``splits`` between.
    Summed over the stand-ins, the changes then account for every root."""
    from lam.field import _poly_eval

    for x in set(stand_ins):
        below, above = (F(x) + (F(math.nextafter(x, to)) - F(x)) / 2 for to in (-math.inf, math.inf))
        points = [below, *sorted(t for t in splits if below < t < above), above]
        signs = [_poly_eval(coeffs, t) > 0 for t in points]
        assert sum(a != b for a, b in zip(signs, signs[1:])) == stand_ins.count(x), x


def test_exact_cubic_solver_stress():
    from lam.field import _exact_roots, _poly_eval

    rng = random.Random(123)

    def poly_from_roots(roots, lead):
        coeffs = [lead]
        for r in roots:
            new = [F(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                new[i + 1] += c
                new[i] -= c * r
            coeffs = new
        return coeffs

    for trial in range(300):
        kind = rng.randrange(4)
        lead = F(rng.randint(1, 50), rng.randint(1, 50)) * rng.choice([1, -1])
        if kind == 0:
            roots = [
                F(rng.randint(1, 40), rng.randint(1, 40)) * rng.choice([1, -1])
                for _ in range(3)
            ]
        elif kind == 1:
            r = F(rng.randint(1, 30), rng.randint(1, 30))
            roots = [r, r, F(rng.randint(1, 30), rng.randint(1, 30))]
        elif kind == 2:
            r = F(rng.randint(1, 30), rng.randint(1, 30))
            roots = [r, r, r]
        else:
            roots = [F(rng.randint(1, 10**6), rng.randint(1, 10**6)) for _ in range(3)]
        coeffs = poly_from_roots(roots, lead)
        got, leftovers = _exact_roots(list(coeffs))
        assert sorted(set(got)) == sorted(set(roots)), (trial, kind)
        assert not leftovers
        assert all(_poly_eval(coeffs, g) == 0 for g in got)

    # edges of the integer test c3 r in Z, all with a negative leading
    # coefficient: a negative root -p/q whose q is |c3|, times (k - a)(k -
    # b) or times k^2 - c with c no square; and a rational root r within
    # 2^-200 of an irrational one, s - sqrt(2) 2^-205 with s = r + 2^-200,
    # which the refinement must split off before its one test
    for trial in range(120):
        q = rng.randint(2, 10 ** rng.randint(1, 20))
        p = rng.randint(1, 3 * q)
        while math.gcd(p, q) != 1:
            p += 1
        if trial % 3 == 0:
            a, b = rng.sample([x for x in range(-30, 31) if x], 2)
            coeffs, quad, want = poly_from_roots([F(-p, q), F(a), F(b)], F(-q)), None, {F(-p, q), F(a), F(b)}
        elif trial % 3 == 1:
            c = rng.choice([x for x in range(2, 60) if math.isqrt(x) ** 2 != x])
            coeffs, quad, want = [F(p * c), F(q * c), F(-p), F(-q)], [F(-c), F(0), F(1)], {F(-p, q)}
        else:
            r = F(rng.randint(1, 10**6), rng.randint(1, 10**6)) * rng.choice([1, -1])
            s = r + F(1, 2**200)
            quad, want = [s * s - F(2, 4**205), -2 * s, F(1)], {r}
            coeffs = [r * quad[0], r * quad[1] - quad[0], r * quad[2] - quad[1], -quad[2]]  # (r - k) quad
        got, leftovers = _exact_roots(list(coeffs))
        assert coeffs[-1] < 0 and set(got) == want, (trial, coeffs)
        assert all(_poly_eval(coeffs, g) == 0 for g in got)
        assert len(leftovers) == (2 if quad else 0)
        if quad:
            _assert_rounded(quad, leftovers, [-quad[1] / 2])

    # one rational root plus an irrational pair: k(k^2 - 2)
    got, leftovers = _exact_roots([F(0), F(-2), F(0), F(1)])
    assert got == [F(0)] or set(got) == {F(0)}
    assert len(leftovers) == 2  # the +-sqrt(2) pair, reported approximately

    # one rational root plus a complex pair: (k - 1)(k^2 + 1)
    got, leftovers = _exact_roots([F(-1), F(1), F(-1), F(1)])
    assert set(got) == {F(1)} and not leftovers

    # irrational roots only, each stand-in correctly rounded: the exact
    # polynomial changes sign between the points half an ulp either side.
    # k^3 - 3k + 1: the critical points +-1 are dyadic split points, where
    # a Newton step meets P'(x) = 0.  (k - M)^2 - 3 2^-200, M = 1 + 2^-53:
    # both roots lie within 2^-99 of the rounding midpoint M.  k^2 - (t^2 +
    # 1), t = 2^70 + 2^17: sqrt(t^2 + 1) lies within 2^-71 of the midpoint
    # t, so the quadratic's stand-ins take m past 64
    M, t = 1 + F(1, 2**53), 2**70 + 2**17
    for coeffs, want in (
        ([F(1), F(-3), F(0), F(1)], None),
        ([M * M - 3 * F(1, 2**200), -2 * M, F(1)], [1.0, 1.0000000000000002]),
        ([F(-t * t - 1), F(0), F(1)], [-float(2**70 + 2**18), float(2**70 + 2**18)]),
    ):
        got, leftovers = _exact_roots(coeffs)
        assert not got and len(leftovers) == len(coeffs) - 1
        assert want is None or sorted(leftovers) == want
        _assert_rounded(coeffs, leftovers)


def test_refined_root_is_the_brackets_own_root():
    from lam.field import _refine_root

    # 63 10^20 (k - 1/3)(k - 1/3 - 10^-20)(k + 4/7): the bracket (lo, hi) /
    # 2^80 starts just past 1/3 and holds only 1/3 + 10^-20, a rational
    # root whose denominator 3 10^20 is |c3| / 21
    work = [400000000000000000012, -1700000000000000000015, -600000000000000000063, 6300000000000000000000]
    root = _refine_root(work, (1 << 80) // 3 + 1, 1 << 79, 80)
    assert root == F(1, 3) + F(1, 10**20)
    # (70 k - 99)(k^2 - 2): the rational root 99/70 lies 7.2e-5 past sqrt(2),
    # within 1/|c3|, and just past the bracket's upper end
    root = _refine_root([198, -140, -99, 70], int(1.4142 * 2**20), int(1.41425 * 2**20), 20)
    assert root == math.sqrt(2)


@pytest.mark.parametrize("g", [400, 800])
def test_close_root_pair_is_refined_in_few_evaluations(monkeypatch, g):
    import lam.field as field

    # (k + 1)((k - M)^2 - 3 4^-g) + 4^-3g: two irrational roots about
    # sqrt(3) 2^-g either side of M = 2 10^300 + 10^288, far from the third
    M = 2 * 10**300 + 10**288
    coeffs = [M * M - 3 * F(1, 4**g) + F(1, 4 ** (3 * g)), M * M - 2 * M - 3 * F(1, 4**g), 1 - 2 * M, F(1)]
    calls = []
    hom_eval = field._hom_eval
    monkeypatch.setattr(field, "_hom_eval", lambda *args: calls.append(1) or hom_eval(*args))
    got, leftovers = field._exact_roots(coeffs)
    assert not got and sorted(leftovers) == [-1.0, float(M), float(M)]
    _assert_rounded(coeffs, leftovers, [M])
    assert len(calls) <= 400


def test_exact_roots_hint_at_a_double_root():
    from lam.field import _exact_roots, _poly_eval

    # -7/2 (k - 3/7)^2 (k + 5/2): Sturm's chain gives the double root in
    # closed form, and the quadratic left has a square discriminant
    coeffs = [F(-45, 28), F(48, 7), F(-23, 4), F(-7, 2)]
    got, leftovers = _exact_roots(coeffs)
    assert got == [F(3, 7), F(3, 7), F(-5, 2)] and not leftovers
    assert all(_poly_eval(coeffs, g) == 0 for g in got)


def test_exact_roots_quadratic_with_a_huge_square_discriminant():
    from lam.field import _exact_roots, _poly_eval

    # (k - 2/3) times a quadratic with rational roots of 40-digit terms:
    # once a rational root deflates, the discriminant is a perfect square
    # far beyond float precision
    r1 = F(10**40 + 1, 10**20 + 7)
    r2 = F(-(3 * 10**35 + 11), 10**25 + 3)
    lead = F(10**30 + 9, 17)
    quad = [lead * r1 * r2, -lead * (r1 + r2), lead]
    h = F(2, 3)
    coeffs = [-h * quad[0], quad[0] - h * quad[1], quad[1] - h * quad[2], quad[2]]
    got, leftovers = _exact_roots(coeffs)
    assert sorted(got) == sorted([h, r1, r2]) and not leftovers
    assert all(_poly_eval(coeffs, g) == 0 for g in got)
    c0, c1, c2 = (c * (r1.denominator * r2.denominator * 17) for c in quad)
    assert math.isqrt((c1 * c1 - 4 * c2 * c0).numerator) > 2**200


def test_identify_field_float_example_b(ex_b_ai, ex_b_params):
    result = identify_field(ex_b_ai.as_float(), "x")
    assert result.status == "identified-up-to-swap"
    assert abs(result.alpha_pair[0] - 0.75) < 1e-9
    target = ex_b_params.as_float()
    err = max(
        abs(result.primary.u[a] - target.u[a]) for a in target.universe.alternatives
    )
    assert err < 1e-8


def test_identify_field_float_root_on_a_denominator_zero():
    # as floats, the raw root 55.435... of y's cubic is a denominator zero
    # of y's equation, where the equation divides by zero: it is rejected
    # unevaluated, and the float table identifies the class as the exact one
    uni = Universe(("x", "y", "z", "t"))
    params = LamParams(
        uni,
        dict(zip(uni.alternatives, (F(1), F(1, 1000), F(3), F(3)))),
        dict(zip(uni.alternatives, (F(1), F(100), F(3), F(3)))),
        F(3, 100),
        "x",
    )
    rho = lam_table(params, uni.all_menus(2))
    for data in (rho, rho.as_float()):
        result = identify_field(data, "x")
        assert result.status == "identified-up-to-swap"
        assert result.alpha_pair == pytest.approx((0.97, 0.03), abs=1e-9)
        (y_set,) = result.candidates["y"]
        assert [r.reason for r in y_set.rejected] == ["denominator-vanishing"]
        assert y_set.rejected[0].value == pytest.approx(F(38810012, 700097), rel=1e-12)


def test_identify_field_mixed_table_reads_float_odds(uni4):
    # y is aligned and its candidate is its constant odds, read off the
    # dense view: floats on a table whose rows mix Fractions and floats
    params = LamParams(
        uni4, {"x": F(1), "y": F(2), "z": F(4), "t": F(5)},
        {"x": F(1), "y": F(2), "z": F(2, 5), "t": F(1, 5)}, F(3, 4), "x",
    )
    rho = lam_table(params, uni4.all_menus(2))
    table = {m: {a: float(p) for a, p in row.items()} if len(m) == 4 else row
             for m, row in rho.table.items()}
    result = identify_field(StochasticChoice(uni4, table), "x")
    assert result.status == "identified-up-to-swap"
    (row,) = result.consistency["y"]
    assert row.pair == (2.0, 2.0) and type(row.pair[0]) is float


def test_identify_field_float_menu_that_never_picks_anchor_or_target(ex_b_ai):
    # rho(x, S) = rho(y, S) = 0 on S = {x, y, z, t}: S's denominator a k - b
    # vanishes at every k, so no root of y's cubic can be evaluated
    table = {m: {a: float(p) for a, p in row.items()} for m, row in ex_b_ai.table.items()}
    table[frozenset("xyzt")] = {"x": 0.0, "y": 0.0, "z": 0.5, "t": 0.5}
    result = identify_field(StochasticChoice(ex_b_ai.universe, table), "x")
    assert result.status == "non-generic-failure"
    (y_set,) = result.candidates["y"]
    assert y_set.rejected and {r.reason for r in y_set.rejected} <= {
        "non-positive", "denominator-vanishing"
    }


#: Cells of extreme exact tables: 10**-300 and 7 * 10**-300 near the bottom
#: of float's normal range, 2**-1060 below its subnormal range.
EXTREME = {"1": F(1), "2": F(2), "3": F(3), "E": F(1, 10**300), "7E": F(7, 10**300),
           "B": F(1, 2**1060)}


def extreme_table(spec):
    """An exact table on a-d from rows like "abc:B,3,1", normalised per row."""
    table = {}
    for item in spec.split():
        menu, cells = item.split(":")
        row = dict(zip(menu, (EXTREME[c] for c in cells.split(","))))
        table[tuple(menu)] = {a: p / sum(row.values()) for a, p in row.items()}
    return StochasticChoice(Universe(tuple("abcd")), table)


# b's quadratic after deflating its pole: the float stand-ins of its
# irrational roots, scaled as the rational polynomial, lead with 0.0
IRRATIONAL_PAST_FLOAT_RANGE = (
    "ab:B,2 abc:B,2,E abcd:7E,7E,1,2 abd:E,1,B ac:B,7E acd:7E,2,B ad:E,2 bc:B,E bcd:B,2,B bd:1,B cd:2,2"
)
# b's odds against a reach about 10**319: a float tol times 1 + max odds
# left float range
ODDS_PAST_FLOAT_RANGE = (
    "ab:7E,3 abc:B,3,B abcd:B,B,7E,1 abd:E,2,B ac:1,2 acd:1,3,E ad:2,E bc:7E,1 bcd:7E,2,1 bd:B,2 cd:E,3"
)
# every float coefficient of b's cubic underflows to 0
CUBIC_UNDER_FLOAT_RANGE = (
    "ab:3,1 abc:B,7E,2 abcd:7E,E,1,7E abd:E,E,2 ac:1,1 acd:B,7E,7E ad:B,3 bc:B,3 bcd:B,3,1 bd:1,1 cd:3,2"
)


@pytest.mark.parametrize("tol", [None, 1e-9])
@pytest.mark.parametrize(
    "spec", [IRRATIONAL_PAST_FLOAT_RANGE, ODDS_PAST_FLOAT_RANGE, CUBIC_UNDER_FLOAT_RANGE]
)
def test_identify_field_exact_cells_past_float_range(spec, tol):
    # each raised ZeroDivisionError or OverflowError before: no float
    # conversion may leave float range
    result = identify_field(extreme_table(spec), "a", tol)
    assert result.status == "non-generic-failure"
    assert result.reason.startswith("no admissible candidate utility for ")


def test_irrational_stand_ins_past_float_range():
    (b_set,) = identify_field(extreme_table(IRRATIONAL_PAST_FLOAT_RANGE), "a").candidates["b"]
    stand_ins = [r.value for r in b_set.rejected if r.reason == "irrational (exact mode)"]
    low, high = stand_ins
    assert high == math.inf and -1e300 < low < -1e299
    # a root of the cubic lies within a relative 1e-12 of the finite stand-in
    signs = {b_set.poly.evaluate(F(low) * (1 + s * F(1, 10**12))) > 0 for s in (-1, 1)}
    assert signs == {True, False}


@pytest.mark.parametrize("spec", [ODDS_PAST_FLOAT_RANGE, CUBIC_UNDER_FLOAT_RANGE])
def test_cubic_whose_float_coefficients_lose_its_degree_names_its_roots(spec):
    # b's exact cubic has degree 3, but its float coefficients underflow:
    # the seeds come from the cubic in k / 2**s, and each finite stand-in
    # lies within a relative 1e-10 of a root
    (b_set,) = identify_field(extreme_table(spec), "a").candidates["b"]
    assert not b_set.case2 and b_set.poly.c3 != 0
    assert [float(c) for c in b_set.poly.coefficients()][0] == 0
    assert b_set.admissible or b_set.rejected
    for r in b_set.rejected:
        if math.isfinite(r.value) and r.value:
            signs = {b_set.poly.evaluate(F(r.value) * (1 + s * F(1, 10**10))) > 0 for s in (-1, 1)}
            assert signs == {True, False}


def test_float_cubic_whose_coefficients_underflow_is_not_case_2_at_tol_0():
    # b's float coefficients all underflow to 0.0, but its exact cubic is
    # nonzero: case 2 is decided on the ints, so at tol 0 b is not aligned;
    # at 1e-9 the exact coefficients, below 2**-1980, are within tol * scale
    table = extreme_table(CUBIC_UNDER_FLOAT_RANGE).as_float()
    (b_set,) = identify_field(table, "a", 0).candidates["b"]
    assert b_set.poly.coefficients() == (0.0, 0.0, 0.0, 0.0)
    assert not b_set.case2 and not b_set.poly.is_zero(0)
    assert b_set.poly.is_zero(1e-9)


def test_float_cubics_that_vanish_or_have_a_root_on_a_pole(ex_b_ai):
    def poly(coeffs, ab):
        return CubicPoly(*coeffs, "y", "x", ("z", "t"), (frozenset(),) * 4, ab, 1.0)

    rho = ex_b_ai.as_float()
    # an all-zero float cubic is case 2 at any tol: the binary odds 2 / 1.5
    ab = ((3.0, 2.0), (1.5, 2.0), (1.0, 2.0), (2.0, 1.5))
    for tol in (None, 0.0):
        cs = candidate_utilities(poly((0.0, 0.0, 0.0, 0.0), ab), rho, tol)
        assert cs.case2 and cs.admissible == (2.0 / 1.5,) and cs.rejected == ()
    # S and S minus z share (a, b): the cubic is -3/4 (k / 4 - 3/4)**2, whose
    # double root 3 is their denominator zero, rejected once, not evaluated
    ab = ((0.25, 0.75), (1.0, 0.25), (1.0, 1.0), (0.25, 0.75))
    cs = candidate_utilities(poly((0.0, -0.046875, 0.28125, -0.421875), ab), rho)
    assert cs.admissible == () and not cs.case2
    assert cs.rejected == (RejectedRoot(3.0, "denominator-vanishing"),)


FIFTY = 10**50


def test_identify_field_fifty_digit_utilities():
    # the rational roots of b's cubic have 50-digit denominators
    uni = Universe(tuple("abcd"))
    u = (F(1), F(FIFTY + 151, FIFTY + 7), F(3), F(1, 2))
    v = (F(1), F(2 * FIFTY + 3, FIFTY + 11), F(1, 5), F(7))
    params = LamParams(uni, dict(zip(uni.alternatives, u)), dict(zip(uni.alternatives, v)),
                       F(3, 10), "a")
    ai, _ = gen.forward_pair(params)
    result = identify_field(ai, "a")
    assert result.status == "identified-up-to-swap"
    assert params in (result.primary, result.swapped)
    # the committed input of the console-script check in CI
    assert parse_dataset((DATA / "field_fifty_digit_exact.csv").read_text(), exact=True).table == ai.table


def test_exact_roots_rational_root_with_a_fifty_digit_denominator():
    from lam.field import _exact_roots

    r = F(FIFTY + 151, FIFTY + 7)  # (k - r)(k**2 + 2)
    assert _exact_roots([-2 * r, F(2), -r, F(1)]) == ([r], [])


def cubic_from_roots(roots, lead):
    """Ascending coefficients of lead times the product of (k - r)."""
    coeffs = [lead]
    for r in roots:
        coeffs = [-r * coeffs[0], *(c - r * d for c, d in zip(coeffs, coeffs[1:])), coeffs[-1]]
    return coeffs


def test_exact_roots_without_hints_find_every_root():
    from lam.field import _exact_roots

    rng = random.Random(26)

    def huge():  # in (-3, 3), with a denominator of 40 to 60 digits
        q = rng.randint(10**40, 10**60)
        return F(rng.randint(-3 * q, 3 * q), q)

    for trial in range(60):
        r = huge() if trial % 2 else F(rng.randint(-30, 30), rng.randint(1, 30))
        roots = ([huge(), huge(), huge()], [r, r, huge()], [r, r, r])[trial % 3]
        lead = F(rng.randint(1, 10**6), rng.randint(1, 10**6)) * rng.choice([1, -1])
        got, stand_ins = _exact_roots(cubic_from_roots(roots, lead))
        assert sorted(got) == sorted(roots) and not stand_ins, trial


def irrational_stand_ins(rho, anchor):
    """(cubic, stand-in) for every finite irrational stand-in of the table's cubics."""
    targets = [a for a in rho.universe.alternatives if a != anchor]
    for y in targets:
        for z, t in combinations([a for a in targets if a != y], 2):
            cs = candidate_utilities(identification_polynomial(rho, anchor, y, z, t), rho)
            for r in cs.rejected:
                if r.reason == "irrational (exact mode)" and math.isfinite(r.value):
                    yield cs.poly, r.value


def test_irrational_stand_ins_are_correctly_rounded():
    # the counts of `lam simulate --params field_params.csv --menus all
    # --n 1000 --seed 1`, read as exact frequencies
    params = parse_params((DATA / "field_params.csv").read_text(), exact=True)
    counts = simulate_counts(params, params.universe.all_menus(2), 1000, 1).counts
    table = {m: {a: F(n, sum(row.values())) for a, n in row.items()} for m, row in counts.items()}
    checked = 0
    for rho, anchor in ((StochasticChoice(params.universe, table), "x"),
                        (extreme_table(ODDS_PAST_FLOAT_RANGE), "a"),
                        (extreme_table(CUBIC_UNDER_FLOAT_RANGE), "a")):
        for poly, x in irrational_stand_ins(rho, anchor):
            # the exact cubic changes sign between the points half an ulp either side
            below, above = (F(x) + (F(math.nextafter(x, to)) - F(x)) / 2 for to in (-math.inf, math.inf))
            assert (poly.evaluate(below) > 0) != (poly.evaluate(above) > 0), (poly.target, x)
            checked += 1
    assert checked > 20


def test_identify_field_float_subnormal_slope():
    # (a k - b)**2 underflows to 0 near the root of b's cubic: the report
    # is a failure, not a ZeroDivisionError
    rho = parse_dataset((DATA / "field_subnormal_float.csv").read_text())
    result = identify_field(rho, "a")
    assert result.status == "non-generic-failure"
    assert result.reason == (
        "no admissible candidate utility for 'c' survives screening across reference pairs"
    )


def near_aligned_draws():
    """300 draws of ``gen.random_params`` from Random(2026), n in {4, 5, 6};
    every third moves one non-anchor v(y) to u(y) (1 +- k/1000), k in {1,
    3, 10, 30}, so that y is nearly aligned."""
    rng = random.Random(2026)
    for i in range(300):
        params = gen.random_params(rng, rng.choice([4, 5, 6]))
        if i % 3 == 0:
            y = rng.choice(params.universe.alternatives[1:])
            k, sign = rng.choice([1, 3, 10, 30]), rng.choice([1, -1])
            v = dict(params.v, **{y: params.u[y] * (1 + sign * F(k, 1000))})
            params = LamParams(params.universe, params.u, v, params.alpha, params.anchor)
        yield i, params


def test_near_aligned_float_draws_identify():
    # near-aligned draws of the batch whose float tables identify only from
    # the correctly rounded real roots of the exact cubics of their cells
    tols = {72: (None,), 84: (None, 1e-6), 204: (None, 1e-6), 285: (None,)}
    for i, params in near_aligned_draws():
        for tol in tols.get(i, ()):
            rho = lam_table(params, params.universe.all_menus(2)).as_float()
            result = identify_field(rho, params.anchor, tol)
            assert result.status == "identified-up-to-swap", (i, tol, result.reason)
            truth = [params.alpha, *params.u_vector(), *params.v_vector()]
            assert min(
                max(abs(got - want) for got, want in zip([m.alpha, *m.u_vector(), *m.v_vector()], truth))
                for m in result.class_members
            ) <= 1e-9, (i, tol)


# ---------------------------------------------------------------------------
# closed forms used by the field construction
# ---------------------------------------------------------------------------


def test_mixture_cross_instability_closed_form():
    """G(S,T | mixture, Luce(u)) = (1-alpha) [u(y)v(x) - u(x)v(y)] / (u(T) v(S))."""
    rng = random.Random(71)
    for _ in range(10):
        params = gen.random_params(rng, 4).as_float()
        uni = params.universe
        menus = uni.all_menus(2)
        rho = lam_table(params, menus)
        rho_h = luce_table(uni, params.u, menus)
        u, v, a = params.u, params.v, params.alpha
        for t in list(gen_tuples(uni, menus))[:40]:
            got = cross_instability(rho, rho_h, t)
            u_t = sum(u[i] for i in t.menu_t)
            v_s = sum(v[i] for i in t.menu_s)
            want = (1 - a) * (u[t.y] * v[t.x] - u[t.x] * v[t.y]) / (u_t * v_s)
            assert abs(got - want) <= 1e-12


def gen_tuples(universe, menus):
    from lam import instability_tuples

    return instability_tuples(universe, menus, canonical=True)


def test_reciprocal_sum_identity():
    """1/G(S,T) + 1/G(T,T) = 1/G(S-t,T) + 1/G(S-z,T) for the mixture against
    either component rule, off the degenerate set."""
    rng = random.Random(83)
    checked = 0
    for _ in range(12):
        params = gen.random_params(rng, 4).as_float()
        if not 0.05 < params.alpha < 0.95:
            continue
        uni = params.universe
        x, y, z, t = uni.alternatives
        menus = uni.all_menus(2)
        rho = lam_table(params, menus)
        for comp_util in (params.u, params.v):
            comp = luce_table(uni, comp_util, menus)
            big = frozenset({x, y, z, t})
            pair = frozenset({x, y})
            gam = {
                m: cross_instability(rho, comp, InstabilityTuple(x, y, m, pair))
                for m in (
                    big,
                    pair,
                    frozenset({x, y, z}),
                    frozenset({x, y, t}),
                )
            }
            if any(abs(g) < 1e-9 for g in gam.values()):
                continue
            lhs = 1 / gam[big] + 1 / gam[pair]
            rhs = 1 / gam[frozenset({x, y, z})] + 1 / gam[frozenset({x, y, t})]
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)
            checked += 1
    assert checked >= 10


# ---------------------------------------------------------------------------
# deception gap
# ---------------------------------------------------------------------------


def test_deception_gap_matching(ex_b_ai):
    result = identify_field(ex_b_ai, "x")
    assert deception_gap(F(3, 4), result) == 0
    assert deception_gap(F(1, 4), result) == 0


def test_deception_gap_arithmetic(ex_b_ai):
    result = identify_field(ex_b_ai, "x")
    # pair is {3/4, 1/4}; lab alpha 0.9 is 0.15 from the nearer member
    assert abs(deception_gap(0.9, result) - 0.15) < 1e-12
    assert deception_gap(F(1, 2), result) == F(1, 4)


def test_deception_gap_reported_pair():
    shell = FieldResult(
        status="identified-up-to-swap",
        primary=None,
        swapped=None,
        alpha_pair=(0.7, 0.3),
        candidates={},
        consistency={},
        tol=0,
    )
    assert deception_gap(0.9, shell) == pytest.approx(0.2)


def test_deception_gap_reflection(ex_b_ai):
    result = identify_field(ex_b_ai, "x")
    rng = random.Random(2)
    for _ in range(20):
        a = rng.random()
        assert abs(deception_gap(a, result) - deception_gap(1 - a, result)) < 1e-15


def test_deception_gap_undefined_for_degenerate(uni4):
    rho = luce_table(uni4, {"x": F(1), "y": F(2), "z": F(3), "t": F(4)}, uni4.all_menus(2))
    result = identify_field(rho, "x")
    with pytest.raises(GapUndefinedError):
        deception_gap(F(1, 2), result)


def test_deception_gap_rejects_compliance_outside_unit_interval():
    def field(pair):
        return FieldResult(
            status="identified-up-to-swap",
            primary=None,
            swapped=None,
            alpha_pair=pair,
            candidates={},
            consistency={},
            tol=0,
        )

    for lab, pair, bad in ((F(1, 2), (F(3), F(-2)), "field compliance Fraction(3, 1)"),
                           (0.5, (float("nan"), 0.25), "field compliance nan"),
                           (1.5, (0.75, 0.25), "lab compliance 1.5")):
        with pytest.raises(InvalidParameterError, match=re.escape(bad)):
            deception_gap(lab, field(pair))


def _mixture(u, v, alpha, to_float=False):
    """The mixture table on every menu of x, y, z, t, anchored at x."""
    uni = Universe(("x", "y", "z", "t"))
    params = LamParams(uni, dict(zip("xyzt", map(F, u))), dict(zip("xyzt", map(F, v))), alpha, "x")
    rho = lam_table(params, uni.all_menus(2))
    return rho.as_float() if to_float else rho


# Each configuration below is non-generic in one way; z and t are aligned
# (u = v) in the first, and the last two need a tolerance of their own.
@pytest.mark.parametrize(
    "u, v, alpha, tol, reason, pairs",
    [
        (
            (1, 4, F(1, 3), F(3, 2)), (1, F(1, 3), F(1, 3), F(3, 2)), F(17, 20), None,
            "multiple compliance pairs are consistent across all alternatives; "
            "the configuration is not generic",
            ((F(121, 2700), F(2579, 2700)), (F(3, 20), F(17, 20))),
        ),
        (
            (1, 5, 5, 1), (1, F(1, 3), 5, 1), F(7, 20), None,
            "2 candidate pairs for 'y' match the shared compliance value; "
            "the configuration is not generic",
            ((F(7, 20), F(13, 20)),),
        ),
        (
            (1, F(1, 100), 3, 3), (1, 1000, 100, 3), F(49, 50), 0.01,
            "compliance indistinguishable from a boundary value despite IIA violations",
            None,
        ),
        (
            (1, 5000, 5000, 20000), (1, 100, 2, 5000), F(1, 25), 0.001,
            "no candidate pair for 't' matches the shared compliance value; "
            "the configuration is not generic",
            None,
        ),
    ],
)
def test_identify_field_non_generic_assembly(u, v, alpha, tol, reason, pairs):
    result = identify_field(_mixture(u, v, alpha, to_float=tol is not None), "x", tol=tol)
    assert (result.status, result.reason) == ("non-generic-failure", reason)
    assert result.primary is None
    if pairs is not None:
        assert result.alpha_pair_candidates == pairs
    else:  # one float pair survives; the failure is in its assignment
        assert len(result.alpha_pair_candidates) == 1
