"""Field identification: cubic construction, root screening, the swap class."""

import random
import re
from fractions import Fraction as F
from itertools import combinations

import pytest

import gen
from lam import (
    FieldResult,
    GapUndefinedError,
    InstabilityTuple,
    InsufficientDataError,
    InvalidParameterError,
    LamParams,
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
    sup_distance,
)

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
    assert [r.reason for r in cs.rejected] == ["fails original equation"]
    assert abs(cs.rejected[0].value - 1.02547311548732) < 1e-9


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
    [(False, "Fraction(59, 480)"), (True, "0.12291666666666719")],
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


def test_identify_field_six_alternatives():
    rng = random.Random(5)
    params = gen.random_params(rng, 6, alpha=F(7, 10))
    rho = lam_table(params, params.universe.all_menus(2))
    result = identify_field(rho, params.anchor)
    assert result.status == "identified-up-to-swap"
    assert params in (result.primary, result.swapped)


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
        hints = [roots[0]] if kind == 2 else []  # triple roots need their hint
        got, leftovers = _exact_roots(list(coeffs), hints=hints)
        assert sorted(set(got)) == sorted(set(roots)), (trial, kind)
        assert not leftovers
        assert all(_poly_eval(coeffs, g) == 0 for g in got)

    # one rational root plus an irrational pair: k(k^2 - 2)
    got, leftovers = _exact_roots([F(0), F(-2), F(0), F(1)], hints=[])
    assert got == [F(0)] or set(got) == {F(0)}
    assert len(leftovers) == 2  # the +-sqrt(2) pair, reported approximately

    # one rational root plus a complex pair: (k - 1)(k^2 + 1)
    got, leftovers = _exact_roots([F(-1), F(1), F(-1), F(1)], hints=[])
    assert set(got) == {F(1)} and not leftovers


def test_identify_field_float_example_b(ex_b_ai, ex_b_params):
    result = identify_field(ex_b_ai.as_float(), "x")
    assert result.status == "identified-up-to-swap"
    assert abs(result.alpha_pair[0] - 0.75) < 1e-9
    target = ex_b_params.as_float()
    err = max(
        abs(result.primary.u[a] - target.u[a]) for a in target.universe.alternatives
    )
    assert err < 1e-8


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
