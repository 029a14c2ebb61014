"""Laboratory identification, compliance estimation, the axiom checker."""

import random
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gen
from lam import (
    DegenerateDivisionError,
    InconsistentInputsError,
    InsufficientDataError,
    InvalidParameterError,
    LamError,
    LamParams,
    NotIdentifiedError,
    NotLuceError,
    PartiallyIdentifiedError,
    StochasticChoice,
    Universe,
    check_axioms,
    composite_instability,
    estimate_alpha,
    iia_violations,
    identify_lab,
    instability_tuples,
    lam_table,
    luce_table,
    own_instability,
    recover_autonomous,
    recover_luce_utility,
    satisfies_iia,
    sup_distance,
)
from lam.choice import _Kernel, _Top, _triangle, luce_choice
from lam.lab import _DISJOINT, AlphaEstimate, _pair_verdicts
from lam.types import _shared, resolve_tol
from test_kernel import canon, oracle_check_axioms


def instability_rows(ai, human, menus=None):
    """(tuple, own, composite) at every canonical tuple, one call per measure."""
    menus = ai.domain if menus is None else menus
    return [
        (t, own_instability(ai, t), composite_instability(ai, human, t))
        for t in instability_tuples(ai.universe, menus, canonical=True)
    ]


# ---------------------------------------------------------------------------
# estimate_alpha
# ---------------------------------------------------------------------------


def test_alpha_golden_single_tuple(ex_a_ai, ex_a_human):
    est = estimate_alpha(ex_a_ai, ex_a_human, strategy="single-tuple")
    assert est.raw == F(1, 2)
    assert est.alpha == F(1, 2)
    assert est.r_squared == 1
    # (x,y) and (y,z) tie for the largest composite term; the first wins
    assert est.best.describe(ex_a_ai.universe) == "(x,y,{x,y},{x,y,z})"


def test_alpha_golden_least_squares(ex_a_ai, ex_a_human):
    est = estimate_alpha(ex_a_ai, ex_a_human, strategy="least-squares")
    assert est.raw == F(1, 2)
    assert est.n_tuples > 0
    usable = [(d, p) for _, d, p in instability_rows(ex_a_ai, ex_a_human) if p != 0]
    assert len(usable) == est.n_tuples
    assert all(d == F(1, 2) * p for d, p in usable)


def test_alpha_round_trip_both_strategies():
    rng = random.Random(11)
    for _ in range(10):
        params = gen.random_params(rng, 4, alpha=F(3, 10))
        ai, human = gen.forward_pair(params)
        for strategy in ("single-tuple", "least-squares"):
            est = estimate_alpha(ai, human, strategy=strategy)
            assert est.raw == F(3, 10)


def test_unknown_strategy_rejected_on_entry(uni3):
    # IIA-satisfying AI data: the scan alone would raise NotIdentifiedError
    # or point-identify with alpha = 0, so the strategy must be checked first
    human = luce_table(uni3, {"x": F(1), "y": F(2), "z": F(3)}, uni3.all_menus(2))
    ai = luce_table(uni3, {"x": F(3), "y": F(2), "z": F(1)}, uni3.all_menus(2))
    with pytest.raises(InvalidParameterError, match="bogus"):
        estimate_alpha(ai, human, strategy="bogus")
    with pytest.raises(InvalidParameterError, match="bogus"):
        identify_lab(ai, human, "x", strategy="bogus")


def test_alpha_identical_data_partially_identified(ex_a_human):
    with pytest.raises(PartiallyIdentifiedError):
        estimate_alpha(ex_a_human, ex_a_human)


def test_alpha_no_violation_not_identified(uni3):
    # AI follows a different Luce rule outright: alpha could only be 0
    human = luce_table(uni3, {"x": F(1), "y": F(2), "z": F(3)}, uni3.all_menus(2))
    ai = luce_table(uni3, {"x": F(3), "y": F(2), "z": F(1)}, uni3.all_menus(2))
    with pytest.raises(NotIdentifiedError) as err:
        estimate_alpha(ai, human)
    assert set(err.value.possible_regimes) == {"autonomous", "compliant", "aligned"}


def test_float_iia_ai_raises_before_any_gram(monkeypatch):
    # the pass alone decides that a float AI table satisfying IIA is not
    # identified: no compliance sum is formed, and the error reads as in exact mode
    params = gen.random_params(random.Random(23), 6)
    ai, human = (luce_table(params.universe, w, params.universe.all_menus(2)) for w in (params.u, params.v))
    with pytest.raises(NotIdentifiedError) as exact:
        estimate_alpha(ai, human)

    def spy(*args, **kwargs):
        raise AssertionError("a Gram entry was formed")

    monkeypatch.setattr(_Kernel, "sums", spy)
    monkeypatch.setattr(_Kernel, "_float_grams", spy)
    with pytest.raises(NotIdentifiedError) as err:
        estimate_alpha(ai.as_float(), human.as_float())
    assert str(err.value) == str(exact.value) == (
        "AI data satisfies IIA: compliance is 0 or 1, or the utilities are aligned; "
        "it cannot be point-identified"
    )


# ---------------------------------------------------------------------------
# recover_autonomous
# ---------------------------------------------------------------------------


def test_recover_autonomous_golden(ex_a_ai, ex_a_human, ex_a_autonomous):
    rho_a = recover_autonomous(ex_a_ai, ex_a_human, F(1, 2))
    assert rho_a.table == ex_a_autonomous.table
    assert rho_a.prob("z", frozenset({"x", "z"})) == F(3, 4)


def test_recover_autonomous_alpha_zero_is_identity(ex_a_ai, ex_a_human):
    rho_a = recover_autonomous(ex_a_ai, ex_a_human, F(0))
    assert rho_a.table == ex_a_ai.table


def test_recover_autonomous_alpha_one_degenerate(ex_a_ai, ex_a_human):
    with pytest.raises(DegenerateDivisionError):
        recover_autonomous(ex_a_ai, ex_a_human, F(1))


def test_recover_autonomous_negative_entry_inconsistent(ex_a_ai, ex_a_human):
    # compliance far above its true value drives some entry negative
    with pytest.raises(InconsistentInputsError):
        recover_autonomous(ex_a_ai, ex_a_human, F(9, 10))


@pytest.mark.parametrize(
    "scalar, alpha, tol, value",
    [(float, 0.4, 0.01, "1.0008333333333335"), (F, F(2, 5), F(1, 100), "Fraction(1201, 1200)")],
)
def test_recover_autonomous_clamped_row_is_inconsistent(uni3, scalar, alpha, tol, value):
    # x's entry, -1/1200, is within tol and clamped to 0, which leaves y above 1
    ai = StochasticChoice(uni3, {("x", "y"): {"x": scalar("0.1995"), "y": scalar("0.8005")}})
    human = StochasticChoice(uni3, {("x", "y"): {"x": scalar("0.5"), "y": scalar("0.5")}})
    with pytest.raises(InconsistentInputsError) as err:
        recover_autonomous(ai, human, alpha, tol=tol)
    assert str(err.value) == f"probability {value} for 'y' in menu ('x', 'y') outside [0, 1]"


def noisy_lab_pair():
    """A float AI table of three-decimal frequencies near a mixture with
    u = (9, 16, 10) and compliance 11/20, and the human's Luce(u) table."""
    uni = Universe(("a", "b", "c"))
    ai = StochasticChoice(uni, {
        ("a", "b"): {"a": 0.232, "b": 0.768},
        ("a", "b", "c"): {"a": 0.138, "b": 0.316, "c": 0.546},
        ("a", "c"): {"a": 0.265, "c": 0.735},
        ("b", "c"): {"b": 0.402, "c": 0.598},
    })
    return ai, luce_table(uni, {"a": 9.0, "b": 16.0, "c": 10.0}, ai.domain)


def test_identify_lab_loose_tol_reports_a_clamped_peel_inconsistent():
    # the peel clamps entries within tol of 0, and the clamped row sums off 1
    ai, human = noisy_lab_pair()
    result = identify_lab(ai, human, "a", tol=0.01)
    assert result.status == "inconsistent"
    assert result.reason == (
        "autonomous component is not a Luce rule: row for menu ('a', 'b', 'c') "
        "sums to 1.0069187516666054, not 1"
    )


def test_recover_autonomous_round_trip_satisfies_iia():
    rng = random.Random(23)
    for _ in range(10):
        params = gen.random_params(rng, rng.choice([3, 4]))
        if not 0 < params.alpha < 1:
            continue
        ai, human = gen.forward_pair(params)
        rho_a = recover_autonomous(ai, human, params.alpha)
        assert iia_violations(rho_a) == []


# ---------------------------------------------------------------------------
# identify_lab
# ---------------------------------------------------------------------------


def test_identify_lab_example_a(ex_a_ai, ex_a_human, ex_a_params, ex_a_autonomous):
    result = identify_lab(ex_a_ai, ex_a_human, "x")
    assert result.status == "point-identified"
    assert result.params == ex_a_params
    assert result.recovered_autonomous.table == ex_a_autonomous.table
    assert result.alpha_diagnostics.raw == F(1, 2)


def test_identify_lab_identical_data_partial(ex_a_human):
    result = identify_lab(ex_a_human, ex_a_human, "x")
    assert result.status == "partially-identified"
    assert result.human_utility == {"x": F(1), "y": F(2, 3), "z": F(1, 3)}
    assert result.params is None


def test_identify_lab_autonomous_case(uni3):
    menus = uni3.all_menus(2)
    human = luce_table(uni3, {"x": F(1), "y": F(2), "z": F(3)}, menus)
    ai = luce_table(uni3, {"x": F(3), "y": F(2), "z": F(1)}, menus)
    result = identify_lab(ai, human, "x")
    assert result.status == "point-identified"
    assert result.params.alpha == 0
    assert result.params.v == {"x": F(1), "y": F(2, 3), "z": F(1, 3)}


def test_identify_lab_inconsistent_when_human_violates_iia(ex_a_ai):
    result = identify_lab(ex_a_ai, ex_a_ai, "x")
    assert result.status == "inconsistent"
    assert "Luce" in result.reason


def test_identify_lab_inconsistent_on_perturbed_pair(ex_a_ai, ex_a_human):
    rng = random.Random(5)
    result = identify_lab(
        gen.perturb_entry(ex_a_ai.as_float(), rng), ex_a_human.as_float(), "x"
    )
    assert result.status == "inconsistent"


def test_identify_lab_exact_round_trip_batch():
    rng = random.Random(37)
    for _ in range(25):
        params = gen.random_params(rng, rng.choice([3, 4, 5]))
        if not 0 < params.alpha < 1:
            continue
        ai, human = gen.forward_pair(params)
        result = identify_lab(ai, human, params.anchor)
        assert result.status == "point-identified"
        assert result.params == params


def test_identify_lab_float_round_trip_batch():
    rng = random.Random(41)
    for _ in range(15):
        params = gen.random_params(rng, rng.choice([3, 4])).as_float()
        if not 0.01 < params.alpha < 0.99:
            continue
        ai, human = gen.forward_pair(params)
        result = identify_lab(ai, human, params.anchor)
        assert result.status == "point-identified"
        got = result.params
        err = max(
            abs(got.alpha - params.alpha),
            max(abs(got.u[a] - params.u[a]) for a in params.universe.alternatives),
            max(abs(got.v[a] - params.v[a]) for a in params.universe.alternatives),
        )
        assert err < 1e-8


@pytest.mark.parametrize(
    "to_float, miss",
    [(False, "Fraction(59, 480)"), (True, "0.12291666666666667")],
)
def test_identify_lab_residual_failure_message(to_float, miss):
    ai, human = gen.residual_miss_pair()
    if to_float:
        ai, human = ai.as_float(), human.as_float()
    result = identify_lab(ai, human, "a")
    assert result.status == "inconsistent"
    assert result.reason == f"recovered parameters miss the AI data by {miss}"


def test_identify_lab_reproduces_data(ex_a_ai, ex_a_human):
    result = identify_lab(ex_a_ai, ex_a_human, "x")
    assert sup_distance(lam_table(result.params, ex_a_ai.domain), ex_a_ai) == 0


def test_identify_lab_on_sampled_counts(ex_b_params, uni4):
    # empirical frequencies with a loose tolerance recover the truth closely
    from lam import LamParams, simulate_counts

    human_params = LamParams(uni4, ex_b_params.u, ex_b_params.u, F(1), "x")
    menus = uni4.all_menus(2)
    ai = simulate_counts(ex_b_params, menus, 200_000, seed=101).to_frequencies()
    human = simulate_counts(human_params, menus, 200_000, seed=202).to_frequencies()
    result = identify_lab(ai, human, "x", tol=0.01)
    assert result.status == "point-identified"
    truth = ex_b_params.as_float()
    err = max(
        abs(result.params.alpha - truth.alpha),
        max(abs(result.params.u[a] - truth.u[a]) for a in "xyzt"),
        max(abs(result.params.v[a] - truth.v[a]) for a in "xyzt"),
    )
    assert err < 0.05
    assert 0 < result.alpha_diagnostics.r_squared <= 1


def test_identify_lab_violations_only_off_shared_menus(uni3):
    # The AI violates IIA only between {x,y} and {x,y,z}, a menu the human
    # data lacks: on the shared binary menus compliance is not identified.
    half = {"x": F(1, 2), "y": F(1, 2), "z": F(1, 2)}
    binary = {(a, b): {a: half[a], b: half[b]} for a, b in (("x", "y"), ("x", "z"), ("y", "z"))}
    human = StochasticChoice(uni3, binary)
    ai_rows = dict(binary)
    ai_rows[("x", "y")] = {"x": F(2, 3), "y": F(1, 3)}
    ai_rows[("x", "y", "z")] = {a: F(1, 3) for a in "xyz"}
    ai = StochasticChoice(uni3, ai_rows)
    assert not satisfies_iia(ai)
    for a, h in ((ai, human), (ai.as_float(), human.as_float())):
        result = identify_lab(a, h, "x")
        assert result.status == "partially-identified"
        assert result.params is None and result.alpha_diagnostics is None
        assert result.human_utility == {"x": 1, "y": 1, "z": 1}
        assert result.reason.endswith(
            "on the shared menus ({x,y} {x,z} {y,z}) compliance and v are not identified"
        )


def test_disjoint_menus_are_insufficient_data(uni3):
    ai = luce_table(uni3, {"x": F(1), "y": F(2), "z": F(3)}, [("x", "y"), ("x", "y", "z")])
    human = luce_table(uni3, {"x": F(1), "y": F(2), "z": F(3)}, [("x", "z"), ("y", "z")])
    lab = "the AI and human data share no menus"
    for call, message in [
        (lambda: identify_lab(ai, human, "x"), lab),
        (lambda: estimate_alpha(ai, human), lab),
        (lambda: recover_autonomous(ai, human, F(1, 2)), lab),
        (lambda: check_axioms(ai, human), lab),
        (lambda: sup_distance(ai, human), "the two choice functions share no menus"),
    ]:
        with pytest.raises(InsufficientDataError) as err:
            call()
        assert str(err.value) == message


def _pair_passes(monkeypatch, exact: bool) -> list[bool]:
    """Per evaluate call of identify_lab on a mixture pair, whether it was
    the pair's kernel (not a one-table IIA kernel)."""
    calls = []
    values = _Kernel._values

    def counted(self, *args, **kwargs):
        calls.append(self.theirs is not None)
        return values(self, *args, **kwargs)

    monkeypatch.setattr(_Kernel, "_values", counted)
    ai, human = gen.forward_pair(gen.random_params(random.Random(3), 5))
    if not exact:
        ai, human = ai.as_float(), human.as_float()
    assert identify_lab(ai, human, "a").status == "point-identified"
    return calls


def test_identify_lab_evaluates_each_table_once(monkeypatch):
    # the human's and the autonomous rule's IIA tests are certified per
    # pair without a pass (Kernel.quiet): only the pair for compliance,
    # which also tests the AI's IIA, evaluates its tuples, in one pass
    assert _pair_passes(monkeypatch, exact=False) == [True]


def test_identify_lab_evaluates_each_table_once_exact(monkeypatch):
    # exact: the IIA tests take Lagrange's identity, and the pair's one
    # integer evaluation is of the candidates for the largest |p|
    assert _pair_passes(monkeypatch, exact=True) == [True]


def test_lab_passes_stream_in_bounded_memory():
    # n = 10 over every menu, 1.47 million canonical tuples, in floats: the
    # passes fold run by run and hold no whole-tuple array, on a mixture
    # pair and with one human entry moved (about 50 and 86 MB with them)
    rng = random.Random(10)
    params = gen.random_params(rng, 10)
    ai, human = (t.as_float() for t in gen.forward_pair(params))
    for h, status in ((human, "point-identified"), (gen.perturb_entry(human, rng), "inconsistent")):
        tracemalloc.start()
        try:
            result, report = identify_lab(ai, h, params.anchor), check_axioms(ai, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (result.status, report.overall) == (status, status == "point-identified")
        assert peak < 16 * 2**20, peak


def test_lab_scales_with_the_menus_it_reads():
    # the float linear design at n = 512, 2,044 menus: the IIA scans, the
    # ratio graph and its Laplacian read the menus' member pairs, and the
    # envelope Cholesky skips the band's zeros, so neither call works
    # through all C(n, 2) pairs or an O(n**3) dense factor
    params = gen.random_params(random.Random(512), 512)
    uni, menus = gen.linear_design(512)
    ai = lam_table(params, menus).as_float()
    human = luce_table(uni, params.u, menus).as_float()
    for call, check in ((lambda: identify_lab(ai, human, params.anchor).status, "point-identified"),
                        (lambda: check_axioms(ai, human).overall, True)):
        started = time.perf_counter()
        assert call() == check
        assert time.perf_counter() - started < 5.0


def test_identify_lab_partial_domain():
    # two overlapping menus are enough when they carry a violation
    rng = random.Random(51)
    for _ in range(5):
        params = gen.random_params(rng, 3, alpha=F(2, 5))
        menus = [frozenset(params.universe.alternatives), frozenset(params.universe.alternatives[:2])]
        ai = lam_table(params, menus)
        human = luce_table(params.universe, params.u, menus)
        result = identify_lab(ai, human, params.anchor)
        assert result.status == "point-identified"
        assert result.params == params


# ---------------------------------------------------------------------------
# check_axioms
# ---------------------------------------------------------------------------


def test_axioms_pass_on_example_a(ex_a_ai, ex_a_human):
    report = check_axioms(ex_a_ai, ex_a_human)
    assert report.overall
    assert all(v.passed for v in report.verdicts().values())


def test_axioms_fail_on_perturbed_ai(ex_a_ai, ex_a_human):
    rng = random.Random(9)
    for _ in range(5):
        perturbed = gen.perturb_entry(ex_a_ai.as_float(), rng)
        report = check_axioms(perturbed, ex_a_human.as_float())
        assert not report.overall
        failed = [v for v in report.verdicts().values() if not v.passed]
        assert failed and all(v.witness is not None for v in failed)


def test_axioms_positivity_failure(uni3):
    human = StochasticChoice(
        uni3,
        {
            ("x", "y"): {"x": F(1)},  # y never chosen
            ("x", "z"): {"x": F(1, 2), "z": F(1, 2)},
            ("y", "z"): {"y": F(1, 2), "z": F(1, 2)},
        },
    )
    ai = luce_table(uni3, {a: F(1) for a in uni3.alternatives}, human.domain)
    report = check_axioms(ai, human)
    assert not report.positivity.passed
    assert report.positivity.witness is not None
    assert not report.overall


def test_axioms_h_iia_failure(ex_a_ai, ex_a_human):
    report = check_axioms(ex_a_ai, ex_a_ai)
    assert report.positivity.passed
    assert not report.h_iia.passed


def exhaustive_axioms(rho_ai, rho_h, tol=None):
    """Oracle for ``check_axioms``: pass/fail of each of the five conditions.

    Proportionality compares every pair of tuples and bounded divergence
    tests every tuple's instability ratio, the quadratic-size scans that
    the library's slope form replaces.
    """
    exact = rho_ai.is_exact and rho_h.is_exact
    eff = resolve_tol(tol, exact)
    universe = rho_ai.universe
    menus = [m for m in rho_ai.domain if rho_h.has_menu(m)]
    rows = instability_rows(rho_ai, rho_h, menus)

    positivity = all(
        rho.prob(a, m) > eff for rho in (rho_ai, rho_h) for m in rho.domain for a in m
    )
    h_iia = not iia_violations(rho_h, eff)

    bounded_instability = True
    for t, d, p in rows:
        sign_ok = d * p >= -eff
        size_ok = abs(d) <= abs(p) + eff
        if abs(d) > eff:
            sign_ok = sign_ok and d * p > 0
            if eff == 0:
                size_ok = size_ok and abs(d) < abs(p)
        if not (sign_ok and size_ok):
            bounded_instability = False
            break

    proportionality = True
    for i, (t1, d1, p1) in enumerate(rows):
        for t2, d2, p2 in rows[i + 1 :]:
            if abs(d1 * p2 - d2 * p1) > eff:
                proportionality = False
                break
        if not proportionality:
            break

    def entry_ok(t, d, p) -> bool:
        strict = abs(d) > eff
        for menu in menus:
            for z in universe.sorted_members(menu):
                lhs = rho_ai.prob(z, menu) * abs(p)
                rhs = rho_h.prob(z, menu) * abs(d)
                if strict and eff == 0:
                    fail = lhs <= rhs
                else:
                    fail = lhs < rhs - eff
                if fail:
                    return False
        return True

    bounded_divergence = all(entry_ok(t, d, p) for t, d, p in rows)
    return {
        "positivity": positivity,
        "h_iia": h_iia,
        "proportionality": proportionality,
        "bounded_instability": bounded_instability,
        "bounded_divergence": bounded_divergence,
    }


def test_axioms_slope_matches_exhaustive():
    rng = random.Random(3)
    for _ in range(8):
        params = gen.random_params(rng, rng.choice([3, 4]))
        ai, human = gen.forward_pair(params)
        fast = check_axioms(ai, human)
        slow = exhaustive_axioms(ai, human)
        assert fast.overall == all(slow.values())
        assert {k: v.passed for k, v in fast.verdicts().items()} == slow
        ai_f, human_f = ai.as_float(), human.as_float()
        bad = gen.perturb_entry(ai_f, rng)
        fast = check_axioms(bad, human_f)
        slow = exhaustive_axioms(bad, human_f)
        assert fast.overall == all(slow.values()) is False
        assert {k: v.passed for k, v in fast.verdicts().items()} == slow


def test_axioms_proportionality_reference_is_first_largest(uni3):
    # two tuples tie for the largest composite term; the first in canonical
    # order is the reference that the witness names second
    params = LamParams.normalized(
        uni3, {"x": 1, "y": 1, "z": 1}, {"x": 1, "y": 2, "z": 3}, F(1, 3)
    )
    ai = lam_table(params, uni3.all_menus(2))
    human = luce_table(uni3, {"x": F(1), "y": F(1), "z": F(3)}, uni3.all_menus(2))
    t, ref = check_axioms(ai, human).proportionality.witness
    assert t.describe(uni3) == "(x,z,{x,y,z},{x,z})"
    assert ref.describe(uni3) == "(x,y,{x,y},{x,y,z})"


def test_axioms_agree_with_identification():
    rng = random.Random(99)
    for i in range(30):
        params = gen.random_params(rng, rng.choice([3, 4]))
        ai, human = gen.forward_pair(params)
        ai, human = ai.as_float(), human.as_float()
        if i % 2:
            if rng.random() < 0.5:
                ai = gen.perturb_entry(ai, rng)
            else:
                human = gen.perturb_entry(human, rng)
        report = check_axioms(ai, human)
        result = identify_lab(ai, human, params.anchor)
        assert report.overall == (result.status != "inconsistent")


# ---------------------------------------------------------------------------
# The instability kernel against per-tuple measure calls
# ---------------------------------------------------------------------------


def perturb_exact(rho, rng, shift=F(1, 50)):
    """Move one probability by ``shift`` and renormalize its row, exactly."""
    menus = [m for m in rho.domain if len(m) >= 2]
    menu = menus[rng.randrange(len(menus))]
    alt = rho.universe.sorted_members(menu)[rng.randrange(len(menu))]
    table = {m: dict(row) for m, row in rho.table.items()}
    table[menu][alt] += shift
    total = sum(table[menu].values())
    table[menu] = {a: p / total for a, p in table[menu].items()}
    return StochasticChoice(rho.universe, table)


class AsFractions:
    """A table whose entries read as the rationals they equal: a float64
    entry is a dyadic rational, so per-tuple sums of these are exact."""

    def __init__(self, rho):
        self.rho = rho

    def prob(self, alt, menu):
        return F(self.rho.prob(alt, menu))


def true_sums(ai, human, rows, among):
    """Exact sums of d*p and p*p over the ``among`` rows, and of d*d, d*p
    and p*p over all, from the entries' true values."""
    fa, fh = AsFractions(ai), AsFractions(human)
    true = [(own_instability(fa, t), composite_instability(fa, fh, t)) for t, _, _ in rows]
    kept = [dp for dp, row in zip(true, rows) if among(row)]
    return (
        sum(d * p for d, p in kept), sum(p * p for _, p in kept),
        sum(d * d for d, _ in true), sum(d * p for d, p in true), sum(p * p for _, p in true),
    )


def brute_force_alpha(ai, human, strategy):
    """``estimate_alpha``'s (raw, r_squared, n_tuples, best), or its error type.

    Tests and the tuple choice use the instabilities as evaluated on the
    entries; the slope and the fit use exact per-tuple sums, rounded once
    in float mode.
    """
    exact = ai.is_exact and human.is_exact
    eff = resolve_tol(None, exact)
    if sup_distance(ai, human) <= eff:
        return PartiallyIdentifiedError
    rows = instability_rows(ai, human, [m for m in ai.domain if human.has_menu(m)])
    if not any(abs(d) > eff for _, d, _ in rows):
        return NotIdentifiedError
    usable = [r for r in rows if abs(r[2]) > eff]
    if not usable:
        return InconsistentInputsError
    best = max(usable, key=lambda r: abs(r[2]))
    kept_dp, kept_pp, dd, dp, pp = true_sums(ai, human, rows, lambda r: abs(r[2]) > eff)
    raw = best[1] / best[2] if strategy == "single-tuple" else kept_dp / kept_pp
    r_squared = 1 - (dd - 2 * F(raw) * dp + F(raw) ** 2 * pp) / dd if dd > 0 else 1
    if not exact:
        raw, r_squared = float(raw), float(r_squared)
    return raw, r_squared, len(usable), best[0]


def test_float_slope_is_the_rounded_exact_slope():
    # On float mixture data the slope is that of the float64 entries taken
    # exactly, rounded once; summing rounded per-tuple terms in tuple
    # order missed it by a few ulps on most of these pairs.
    for seed in range(1, 6):
        params = gen.random_params(random.Random(seed), 5)
        ai, human = (table.as_float() for table in gen.forward_pair(params))
        rows = instability_rows(ai, human)
        kept_dp, kept_pp, *_ = true_sums(ai, human, rows, lambda r: abs(r[2]) > 1e-9)
        assert estimate_alpha(ai, human).raw == float(kept_dp / kept_pp)


def test_shared_scan_matches_brute_force():
    rng = random.Random(41)
    for n in (3, 4, 5):
        for exact in (True, False):
            for perturbed in (None, "ai", "human"):
                params = gen.random_params(rng, n)
                ai, human = gen.forward_pair(params)
                if not exact:
                    ai, human = ai.as_float(), human.as_float()
                bump = perturb_exact if exact else gen.perturb_entry
                if perturbed == "ai":
                    ai = bump(ai, rng)
                elif perturbed == "human":
                    human = bump(human, rng)
                assert ai.is_exact == human.is_exact == exact

                for rho in (ai, human):
                    eff = resolve_tol(None, exact)
                    full = [
                        t
                        for t in instability_tuples(rho.universe, rho.domain)
                        if abs(own_instability(rho, t)) > eff
                    ]
                    canonical = [
                        t
                        for t in instability_tuples(rho.universe, rho.domain, canonical=True)
                        if abs(own_instability(rho, t)) > eff
                    ]
                    assert satisfies_iia(rho) == (not full)
                    assert iia_violations(rho) == full
                    assert len(full) == 4 * len(canonical)
                    if not full:
                        recover_luce_utility(rho, params.anchor)
                        continue
                    assert full[0] == canonical[0]
                    with pytest.raises(NotLuceError) as err:
                        recover_luce_utility(rho, params.anchor)
                    assert str(err.value) == (
                        f"IIA violated at tolerance {eff!r} for {len(full)} tuples, "
                        f"e.g. {full[0].describe(rho.universe)}"
                    )

                for strategy in ("least-squares", "single-tuple"):
                    want = brute_force_alpha(ai, human, strategy)
                    try:
                        est = estimate_alpha(ai, human, strategy=strategy)
                    except LamError as e:
                        assert type(e) is want
                        continue
                    assert (est.raw, est.r_squared, est.n_tuples, est.best) == want


# ---------------------------------------------------------------------------
# Exact per-cell outcomes against Fraction oracles
# ---------------------------------------------------------------------------

PINNED_TOLS = (None, 0, 1e-9, 1e-3, F(1, 100))


def exact_pairs():
    """Exact (AI, human, params) triples, n = 3-5, compliance 0, 1/2, 1 or
    random: mixture pairs, the same with one AI or human row moved by
    1/1000, 1/200 or 1/20, and pairs on partial domains.  Every other
    pair cubes its utilities, which spreads them and brings small
    probabilities, near the tolerances, into the tables."""
    rng = random.Random(77)
    out = []
    for i in range(36):
        params = gen.random_params(rng, 3 + i % 3, alpha=(F(0), F(1, 2), F(1), None)[i % 4])
        uni = params.universe
        if i % 2:
            u, v = ({a: x**3 for a, x in w.items()} for w in (params.u, params.v))
            params = LamParams(uni, u, v, params.alpha, params.anchor)
        ai_menus = human_menus = uni.all_menus()
        if i % 3 == 2:
            ai_menus = sorted(rng.sample(ai_menus, rng.randint(2, len(ai_menus))), key=uni.menu_key)
            human_menus = rng.sample(ai_menus, rng.randint(1, len(ai_menus))) + [
                m for m in uni.all_menus() if m not in ai_menus and rng.random() < 0.5
            ]
        ai, human = lam_table(params, ai_menus), luce_table(uni, params.u, human_menus)
        if i % 3 == 1:
            shift = rng.choice([F(1, 1000), F(1, 200), F(1, 20)])
            if rng.random() < 0.5:
                ai = perturb_exact(ai, rng, shift)
            else:
                human = perturb_exact(human, rng, shift)
        assert ai.is_exact and human.is_exact
        out.append((ai, human, params))
    return out


def shared_cells(ai, human):
    """(menu, members, z) over the shared menus, in canonical order."""
    members = ai.universe.sorted_members
    return [(m, members(m), z) for m in ai.domain if human.has_menu(m) for z in members(m)]


def oracle_nonpositive(rho, eff):
    return next(
        ((m, a) for m in rho.domain for a in rho.universe.sorted_members(m)
         if not rho.prob(a, m) > eff),
        None,
    )


def oracle_peel(ai, human, alpha, eff):
    """What ``recover_autonomous`` returns or says: the table, or a message."""
    if not alpha < 1 - eff:
        return DegenerateDivisionError
    table = {}
    for m, members, z in shared_cells(ai, human):
        p = (ai.prob(z, m) - alpha * human.prob(z, m)) / (1 - alpha)
        if p < -eff:
            return (
                f"autonomous probability of {z!r} in {members} is {p!r}; the pair "
                f"admits no mixture with alpha = {alpha!r}"
            )
        table.setdefault(m, {})[z] = max(p, F(0))
    for m, row in table.items():
        members = ai.universe.sorted_members(m)
        for z, p in row.items():
            if not 0 <= p <= 1:
                return f"probability {p!r} for {z!r} in menu {members} outside [0, 1]"
        if sum(row.values()) != 1:
            return f"row for menu {members} sums to {sum(row.values())!r}, not 1"
    return table


def oracle_binding(ai, human, eff):
    """The first tuple whose composite term vanishes under a non-vanishing
    own term, flagged True, or else the first usable tuple with the largest
    own-to-composite ratio, flagged False, as (flag, t, d, p); or None."""
    rows = instability_rows(ai, human, [m for m in ai.domain if human.has_menu(m)])
    for t, d, p in rows:
        if abs(p) <= eff and abs(d) > eff:
            return True, t, d, p
    binding = None
    for t, d, p in rows:
        if abs(p) > eff and (binding is None or abs(d) * abs(binding[3]) > abs(binding[2]) * abs(p)):
            binding = (False, t, d, p)
    return binding


def oracle_divergence(ai, human, eff, exact_difference=False):
    """The bounded-divergence (passed, witness), per tuple and per cell.

    A float ``eff`` makes rhs - eff a float, and the test keeps that
    rounding unless ``exact_difference`` asks for the exact rhs - eff."""
    binding = oracle_binding(ai, human, eff)
    if binding is None:
        return True, None
    vanishing, t, d, p = binding
    if vanishing:
        return False, (t, d, p)
    strict = eff == 0 and abs(d) > eff
    for m, members, z in shared_cells(ai, human):
        lhs, rhs = ai.prob(z, m) * abs(p), human.prob(z, m) * abs(d)
        if (lhs <= rhs) if strict else (lhs < rhs - (F(eff) if exact_difference else eff)):
            return False, (t, members, z)
    return True, None


@pytest.mark.parametrize("tol", PINNED_TOLS, ids=repr)
def test_exact_positivity_and_coincidence_match_fraction_oracles(tol):
    for ai, human, params in exact_pairs():
        eff = resolve_tol(tol, True)
        want = None
        for name, rho in (("ai", ai), ("human", human)):
            zero = oracle_nonpositive(rho, eff)
            if zero is not None and want is None:
                want = (name, rho.universe.sorted_members(zero[0]), zero[1])
        assert check_axioms(ai, human, tol=tol).positivity.witness == want
        zero = oracle_nonpositive(human, eff)
        if zero is not None:
            with pytest.raises(NotLuceError, match="positivity fails") as err:
                recover_luce_utility(human, params.anchor, tol=tol)
            assert str(err.value) == (
                f"positivity fails: probability of {zero[1]!r} in "
                f"{human.universe.sorted_members(zero[0])} is not above {eff!r}"
            )
        cells = shared_cells(ai, human)
        if not cells:
            continue
        coincide = all(abs(ai.prob(z, m) - human.prob(z, m)) <= eff for m, _, z in cells)
        try:
            estimate_alpha(ai, human, tol=tol)
            got = False
        except LamError as e:
            got = isinstance(e, PartiallyIdentifiedError)
        assert got == coincide


@pytest.mark.parametrize("tol", PINNED_TOLS, ids=repr)
def test_exact_peel_matches_fraction_oracle(tol):
    for ai, human, params in exact_pairs():
        if not shared_cells(ai, human):
            continue
        eff = resolve_tol(tol, True)
        # just above the true compliance, the peel leaves entries just below 0
        for alpha in sorted({F(0), F(1, 2), F(1), params.alpha, params.alpha + F(1, 1000)}):
            want = oracle_peel(ai, human, alpha, eff)
            try:
                got = recover_autonomous(ai, human, alpha, tol=tol).table
            except DegenerateDivisionError:
                got = DegenerateDivisionError
            except LamError as e:
                got = str(e)
            assert got == want
            if isinstance(got, dict):
                assert all(type(p) is F for row in got.values() for p in row.values())


@pytest.mark.parametrize("tol", PINNED_TOLS, ids=repr)
def test_exact_bounded_divergence_matches_fraction_oracle(tol):
    for ai, human, _ in exact_pairs():
        if not shared_cells(ai, human):
            continue
        verdict = check_axioms(ai, human, tol=tol).bounded_divergence
        assert (verdict.passed, verdict.witness) == oracle_divergence(ai, human, resolve_tol(tol, True))


@pytest.mark.parametrize("seed", [0, 6])
def test_exact_bounded_divergence_keeps_the_float_tol_rounding(seed):
    # With exact tables and a float tol, the test is lhs < fl(fl(rhs) - tol).
    # At a tol that rounds the largest gap rhs - lhs of the binding tuple,
    # it differs from the exact lhs < rhs - tol: seed 0 fails a cell that
    # the exact difference passes, seed 6 passes a cell that it fails.
    rng = random.Random(seed)
    params = gen.random_params(rng, 3)
    menus = params.universe.all_menus()
    ai = perturb_exact(lam_table(params, menus), rng)
    human = luce_table(params.universe, params.u, menus)
    _, _, d, p = oracle_binding(ai, human, 0)
    tol = float(max(
        human.prob(z, m) * abs(d) - ai.prob(z, m) * abs(p) for m, _, z in shared_cells(ai, human)
    ))
    verdict = check_axioms(ai, human, tol=tol).bounded_divergence
    want = oracle_divergence(ai, human, tol)
    assert (verdict.passed, verdict.witness) == want
    assert want != oracle_divergence(ai, human, tol, exact_difference=True)
    assert want[0] is (seed == 6)


def lifted_alpha(ai, human, strategy, tol):
    """``estimate_alpha`` on an exact pair from the lifted sums and terms,
    each tuple weighted to the common scale, as every exact pair took it
    before parallel pairs used their unlifted sums."""
    kernel = _Kernel(ai, [m for m in ai.domain if human.has_menu(m)], human, resolve_tol(tol, True))
    passes = list(kernel.tested(["usable"]))
    usable = [mask for _, _, (mask,), _ in passes]
    top = _Top(kernel)
    for (ids, scan, _, _), mask in zip(passes, usable):
        top.add(ids, scan, mask)
    best = top.result()
    dd, dp, pp = kernel.sums()
    if strategy == "single-tuple":
        d_best, p_best = kernel.value(best)
        raw = d_best / p_best
    else:
        out_dp, out_pp = kernel.sums(out=[~mask for mask in usable])[3:]
        raw = F(dp - out_dp, pp - out_pp)
    num, den = raw.as_integer_ratio()
    r_squared = F(num * (2 * den * dp - num * pp), den * den * dd)
    return AlphaEstimate(raw, raw, strategy, kernel.tuple_at(best), r_squared, int(sum(map(np.sum, usable))))


@pytest.mark.parametrize("strategy", ["least-squares", "single-tuple"])
@pytest.mark.parametrize("tol", [0, F(1, 1000), 1e-9], ids=repr)
def test_parallel_exact_pairs_match_the_lifted_sums(strategy, tol):
    # mixture pairs at n = 3-7, two each
    rng = random.Random(97)
    for n in (3, 4, 5, 6, 7):
        for _ in range(2):
            params = gen.random_params(rng, n)
            ai, human = gen.forward_pair(params)
            kernel = _Kernel(ai, ai.domain, human)
            assert kernel.slope is not None
            got = estimate_alpha(ai, human, strategy, tol)
            assert repr(got) == repr(lifted_alpha(ai, human, strategy, tol))
            assert got.raw == params.alpha and got.r_squared == 1


def assert_rebuilds(got):
    """``got`` holds what ``StochasticChoice`` builds from its own table."""
    want = StochasticChoice(got.universe, got.table, got.eps_sum)
    assert repr(got.table) == repr(want.table)
    assert (got.is_exact, got.is_positive, got.domain) == (want.is_exact, want.is_positive, want.domain)
    g, w = got._dense, want._dense
    assert g.rows == w.rows and np.array_equal(g.mask, w.mask)
    assert g.entries.dtype == w.entries.dtype and repr(g.entries.tolist()) == repr(w.entries.tolist())
    assert repr(None if g.scale is None else g.scale.tolist()) == repr(
        None if w.scale is None else w.scale.tolist()
    )
    assert not (g.mask.flags.writeable or g.entries.flags.writeable)


def clamped_peel(ai, human, alpha, zero):
    """The peeled cells over the shared menus, cell by cell, those below 0
    set to ``zero``: in Fractions for exact tables and a rational alpha,
    else on the entries as floats."""
    exact = ai.is_exact and human.is_exact and not isinstance(alpha, float)
    table, low = {}, 0
    for m, _, z in shared_cells(ai, human):
        a, h = ai.prob(z, m), human.prob(z, m)
        p = (a - alpha * h) / (1 - alpha) if exact else (float(a) - alpha * float(h)) / (1 - alpha)
        low += p < 0
        table.setdefault(m, {})[z] = zero if p < 0 else p
    return table, low


def test_recover_autonomous_equals_its_table_rebuilt(uni3):
    # exact and float pairs, exact pairs with a float alpha, and tolerances
    # loose enough that cells just below 0 are clamped: to an exact 0 in
    # exact tables, also under a float alpha, and to 0.0 in float tables.
    # A clamped exact row sums above 1 and fails, as does a float row
    # clamped by more than eps_sum: with the message the rebuilt table gives
    pairs = [(ai, human, params.alpha) for ai, human, params in exact_pairs()]
    pairs.append((
        StochasticChoice(uni3, {("x", "y"): {"x": F(1, 4) - F(1, 10**10), "y": F(3, 4) + F(1, 10**10)}}),
        StochasticChoice(uni3, {("x", "y"): {"x": F(1, 2), "y": F(1, 2)}}),
        F(1, 2),
    ))
    kept, failed = {"exact": 0, "float alpha": 0, "float": 0}, {"exact": 0, "float alpha": 0, "float": 0}
    for ai, human, alpha in pairs:
        if not any(human.has_menu(m) for m in ai.domain):
            continue
        runs = [(ai, human, a, kind) for a, kind in (
            (alpha, "exact"), (alpha + F(1, 1000), "exact"), (F(1, 3), "exact"),
            (float(alpha), "float alpha"), (float(alpha) + 1e-3, "float alpha"),
        )]
        runs += [(ai.as_float(), human.as_float(), a, "float") for a in (float(alpha), float(alpha) + 1e-3)]
        for a_tab, h_tab, a, kind in runs:
            eps = max(a_tab.eps_sum, 1e-9)
            for tol in (None, F(1, 100), 0.05):
                try:
                    got = recover_autonomous(a_tab, h_tab, a, tol)
                except DegenerateDivisionError:
                    continue
                except InconsistentInputsError as e:
                    if str(e).startswith("autonomous probability"):
                        continue  # below -tol: no table to build
                    table, low = clamped_peel(a_tab, h_tab, a, 0.0 if kind == "float" else F(0))
                    with pytest.raises(InvalidParameterError) as want:
                        StochasticChoice(a_tab.universe, table, eps)
                    assert str(e) == str(want.value)
                    failed[kind] += low
                    continue
                assert_rebuilds(got)
                table, low = clamped_peel(a_tab, h_tab, a, 0.0 if kind == "float" else F(0))
                assert repr(got.table) == repr(table) and got.eps_sum == eps
                kept[kind] += low
    assert failed["exact"] and failed["float alpha"] and failed["float"], failed
    assert kept["float alpha"] and kept["float"] and not kept["exact"], kept


# ---------------------------------------------------------------------------
# Exact tables read as floats: a float alpha, and mixed exact/float pairs
# ---------------------------------------------------------------------------


def test_recover_autonomous_float_alpha_on_exact_tables(ex_a_ai, ex_a_human):
    # a float alpha peels float(entry) values: the float tables' result
    got = recover_autonomous(ex_a_ai, ex_a_human, 0.5)
    want = recover_autonomous(ex_a_ai.as_float(), ex_a_human.as_float(), 0.5)
    assert repr(got.table) == repr(want.table)
    assert got.prob("x", frozenset("xy")) == 0.33333333333333337
    assert not got.is_exact


def test_recover_autonomous_float_alpha_on_exact_tables_clamps_and_fails(uni3):
    # x's peeled entry is (1/4 - 10**-10 - 1/4) / (1/2), about -2e-10
    ai = StochasticChoice(uni3, {("x", "y"): {"x": F(1, 4) - F(1, 10**10), "y": F(3, 4) + F(1, 10**10)}})
    human = StochasticChoice(uni3, {("x", "y"): {"x": F(1, 2), "y": F(1, 2)}})
    for tol in (1e-9, F(1, 10**9)):  # within tol: clamped to an exact 0
        got = recover_autonomous(ai, human, 0.5, tol=tol)
        assert repr(got.table[frozenset("xy")]) == "{'x': Fraction(0, 1), 'y': 1.0000000002}"
        assert not got.is_exact and not got.is_positive
    for tol in (1e-11, F(1, 10**11)):  # below -tol
        with pytest.raises(InconsistentInputsError) as err:
            recover_autonomous(ai, human, 0.5, tol=tol)
        assert str(err.value) == (
            "autonomous probability of 'x' in ('x', 'y') is -2.000000165480742e-10; "
            "the pair admits no mixture with alpha = 0.5"
        )


@pytest.mark.parametrize("exact_side", ["ai", "human"])
def test_mixed_pair_reads_the_exact_table_as_floats(ex_a_ai, ex_a_human, exact_side):
    ai, human = ex_a_ai.as_float(), ex_a_human.as_float()
    mixed = (ex_a_ai, human) if exact_side == "ai" else (ai, ex_a_human)
    got, want = identify_lab(*mixed, "x"), identify_lab(ai, human, "x")
    assert got.status == "point-identified" and got.tol == 1e-9
    assert repr(got.alpha_diagnostics) == repr(want.alpha_diagnostics)
    assert repr(got.params.alpha) == "0.49999999999999983"
    assert repr(got.params.v) == repr(want.params.v)
    assert repr(got.recovered_autonomous.table) == repr(want.recovered_autonomous.table)
    # u comes from the human table alone, in its own mode
    if exact_side == "human":
        assert got.params.u == {"x": 1, "y": F(2, 3), "z": F(1, 3)}
    else:
        assert repr(got.params.u) == repr(want.params.u)
    assert repr(check_axioms(*mixed)) == repr(check_axioms(ai, human))
    assert check_axioms(*mixed).overall


def test_each_lab_entry_point_reads_the_pair_rows_once(monkeypatch, ex_a_ai, ex_a_human):
    from lam import choice, types

    calls, rows = [], types._rows

    def counted(tables, menus):
        calls.append(len(tables))
        return rows(tables, menus)

    for module in (types, choice):
        monkeypatch.setattr(module, "_rows", counted)
    for call in (estimate_alpha, check_axioms, lambda a, h: recover_autonomous(a, h, F(1, 2))):
        calls.clear()
        call(ex_a_ai, ex_a_human)
        assert calls.count(2) == 1


def _rows(uni, rows):
    """A table from rows given as {'xy': (p_x, p_y), ...}, members in universe order."""
    return StochasticChoice(uni, {frozenset(m): dict(zip(m, ps)) for m, ps in rows.items()})


def test_identify_lab_reports_vanishing_composite_instability(uni3):
    # against a uniform human rule every composite term is
    # |S| (a_S - b_S) - |T| (a_T - b_T) over |S| |T|, and this AI table keeps
    # |S| (a_S - b_S) fixed per pair while violating IIA
    human = _rows(uni3, {"xy": (F(1, 2),) * 2, "xz": (F(1, 2),) * 2, "yz": (F(1, 2),) * 2,
                         "xyz": (F(1, 3),) * 3})
    ai = _rows(uni3, {"xy": (F(5, 8), F(3, 8)), "xz": (F(3, 4), F(1, 4)),
                      "yz": (F(5, 8), F(3, 8)), "xyz": (F(1, 2), F(1, 3), F(1, 6))})
    result = identify_lab(ai, human, "x")
    assert (result.status, result.reason) == (
        "inconsistent",
        "AI data violates IIA while every composite instability vanishes; "
        "no mixture representation exists",
    )


@pytest.mark.parametrize("to_float, eff", [(False, "0"), (True, "1e-09")])
def test_identify_lab_reports_an_ai_rule_that_is_not_positive(uni3, to_float, eff):
    # z is never chosen: every instability vanishes, but no Luce rule has a zero
    human = luce_table(uni3, {"x": F(1), "y": F(1), "z": F(1)}, uni3.all_menus(2))
    ai = _rows(uni3, {"xy": (F(1, 3), F(2, 3)), "xz": (F(1), F(0)), "yz": (F(1), F(0)),
                      "xyz": (F(1, 3), F(2, 3), F(0))})
    if to_float:
        human, ai = human.as_float(), ai.as_float()
    result = identify_lab(ai, human, "x")
    assert (result.status, result.reason) == (
        "inconsistent",
        "AI data satisfies IIA but is not a Luce rule: positivity fails: "
        f"probability of 'z' in ('x', 'y', 'z') is not above {eff}",
    )


def test_tables_over_reordered_universes_raise():
    # one Luce table over ("x", "y", "z") and over ("y", "x", "z"): the
    # kernels index rows by universe order, so the second must not pass as
    # the first (it read sup distance 1/3, and the mixture against it was
    # inconsistent and failed the axioms)
    uni, turned = Universe(("x", "y", "z")), Universe(("y", "x", "z"))
    params = LamParams.normalized(uni, {"x": 1, "y": 2, "z": 3}, {"x": 1, "y": 5, "z": F(1, 2)}, F(1, 3))
    menus = uni.all_menus(2)
    ai, human = lam_table(params, menus), luce_table(uni, params.u, menus)
    other = StochasticChoice(turned, human.table)
    assert identify_lab(ai, human, "x").status == "point-identified"
    assert check_axioms(ai, human).overall
    assert sup_distance(human, human) == 0
    message = "the tables are over different universes, ('x', 'y', 'z') and ('y', 'x', 'z')"
    for call in (lambda: sup_distance(human, other), lambda: identify_lab(ai, other, "x"),
                 lambda: check_axioms(ai, other), lambda: estimate_alpha(ai, other),
                 lambda: recover_autonomous(ai, other, F(1, 3))):
        with pytest.raises(InvalidParameterError) as err:
            call()
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# check_axioms: per-pair certificates against the tuple passes
# ---------------------------------------------------------------------------

PAIR_VERDICTS = ("proportionality", "bounded_instability", "bounded_divergence")


def pass_path(ai, human, tol=None):
    """``check_axioms``'s report with its three pair verdicts from the tuple
    passes, and whether the per-pair certificate holds."""
    report = check_axioms(ai, human, tol)
    kernel = _Kernel(ai, _shared(ai, human, _DISJOINT), human, report.tol)
    return replace(report, **dict(zip(PAIR_VERDICTS, _pair_verdicts(kernel)))), kernel.certified()


EXACT_TOLS = (None, 0, 1e-12, 1e-9, 1e-3, 0.1, F(1, 10**9), F(1, 1000), F(1, 10))
FLOAT_TOLS = (None, 0, 1e-12, 1e-9, 1e-3, 0.1)


@st.composite
def lab_cases(draw):
    """A mixture pair at n = 3-7, in either mode, at one tolerance, or the
    same with one AI or human cell moved by k tol (k/1000 at tol 0) and
    its row renormalized, exactly before any float conversion."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n, exact = draw(st.integers(3, 7)), draw(st.booleans())
    tol = draw(st.sampled_from(EXACT_TOLS if exact else FLOAT_TOLS))
    alpha = draw(st.sampled_from((F(1, 40), F(39, 40), None)))
    ai, human = gen.forward_pair(gen.random_params(rng, n, alpha=alpha))
    moved = draw(st.sampled_from((None, "ai", "human")))
    if moved:
        k = draw(st.sampled_from((F(1, 10), F(1, 2), 1, 2, 10)))
        shift = k * (F(resolve_tol(tol, exact)) or F(1, 1000))
        if moved == "ai":
            ai = perturb_exact(ai, rng, shift)
        else:
            human = perturb_exact(human, rng, shift)
    if not exact:
        ai, human = ai.as_float(), human.as_float()
    return ai, human, tol


@settings(derandomize=True, deadline=None, max_examples=200, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(lab_cases())
def test_certified_check_axioms_matches_the_tuple_passes(case):
    # verdicts, witnesses and notes, field by field and with their scalar types
    ai, human, tol = case
    assert repr(check_axioms(ai, human, tol)) == repr(pass_path(ai, human, tol)[0])


def lambda_cases(uni):
    """Exact pairs named by lambda, with d = lambda p on every tuple, or
    p = 0 on every tuple while d is not (inf)."""
    menus = uni.all_menus(2)
    u = {"x": F(1), "y": F(2), "z": F(3)}
    far, near = {"x": F(1), "y": F(5), "z": F(1, 2)}, {"x": F(1), "y": F(21, 10), "z": F(3)}
    human = luce_table(uni, u, menus)

    def mix(alpha, v):  # alpha Luce(u) + (1 - alpha) Luce(v); alpha off [0, 1] as well
        return StochasticChoice(uni, {m: {a: alpha * pu + (1 - alpha) * luce_choice(v, m)[a]
                                          for a, pu in luce_choice(u, m).items()} for m in menus})

    # lambda = 1: the human rule plus cells that move x against y by f on
    # {x,y} and {x,y,z}, whose columns are parallel: d = p
    moved = {m: dict(row) for m, row in human.table.items()}
    for m, f in ((frozenset("xy"), F(1, 20)), (frozenset("xyz"), F(1, 30))):
        moved[m]["x"] += f
        moved[m]["y"] -= f
    # lambda = 4/5 against a rule w with a negative weight: A = (4 H + W)/5
    # is a table, d = 4/5 p, and A falls below 4/5 H at z in {x,z}
    w = {"x": F(1), "y": F(2), "z": F(-1, 2)}
    signed = StochasticChoice(uni, {m: {a: (4 * h + w[a] / sum(w[b] for b in m)) / 5
                                        for a, h in human.table[m].items()} for m in menus})
    uniform = _rows(uni, {"xy": (F(1, 2),) * 2, "xz": (F(1, 2),) * 2, "yz": (F(1, 2),) * 2,
                          "xyz": (F(1, 3),) * 3})
    vanishing = _rows(uni, {"xy": (F(5, 8), F(3, 8)), "xz": (F(3, 4), F(1, 4)),
                            "yz": (F(5, 8), F(3, 8)), "xyz": (F(1, 2), F(1, 3), F(1, 6))})
    return {
        0: (luce_table(uni, far, menus), human),
        F(1, 3): (mix(F(1, 3), far), human),
        F(4, 5): (signed, human),
        1 - F(1, 2**60): (mix(1 - F(1, 2**60), far), human),
        1: (StochasticChoice(uni, moved), human),
        2: (mix(2, near), human),
        -1: (mix(-1, near), human),
        float("inf"): (vanishing, uniform),
    }


@pytest.mark.parametrize("tol", [None, 0, 0.0, 1e-9, F(1, 1000), 0.05, F(1, 5)], ids=repr)
def test_lambda_cases_match_the_passes_and_the_fraction_oracle(uni3, tol):
    # the exact certificate holds at lambda = 0 and 0 < lambda < 1 - u; at
    # 1 - 2**-60 and tol 0.0 the rounded |p| + tol fails bounded
    # instability.  The float one holds on the two mixtures (4/5 has cells
    # A < 4/5 H) at tolerances in (0, 1/5), which leave a usable tuple.
    # Every report is the passes' and, on exact tables, the oracle's
    for lam, (ai, human) in lambda_cases(uni3).items():
        kernel = _Kernel(ai, ai.domain, human, resolve_tol(tol, True))
        assert kernel.slope == lam
        report = check_axioms(ai, human, tol)
        want, certified = pass_path(ai, human, tol)
        assert certified == (0 <= lam < 1 - F(1, 2**53))
        assert repr(report) == repr(want)
        assert canon(report) == canon(oracle_check_axioms(ai, human, tol))
        ai, human = ai.as_float(), human.as_float()
        want, certified = pass_path(ai, human, tol)
        assert certified == (lam in (0, F(1, 3)) and 0 < resolve_tol(tol, False) < F(1, 5))
        assert repr(check_axioms(ai, human, tol)) == repr(want)


@pytest.mark.parametrize("tol", [None, 1e-9, 1e-3], ids=repr)
def test_mixture_over_a_human_table_that_violates_iia_takes_the_passes(uni4, tol):
    # AI = H/3 + 2/3 Luce(v) over a human table H with one moved cell, off
    # the menus of tuple 0, the probe: d - p/3 = -det(a', b')/9, which only
    # the certificate's human term bounds
    menus = uni4.all_menus(2)
    u = {"x": F(1), "y": F(2), "z": F(3), "t": F(5)}
    v = {"x": F(1), "y": F(5), "z": F(1, 2), "t": F(2)}
    rows = {m: dict(row) for m, row in luce_table(uni4, u, menus).table.items()}
    moved = rows[frozenset("yzt")]
    moved["z"] += F(1, 50)
    rows[frozenset("yzt")] = {a: q / sum(moved.values()) for a, q in moved.items()}
    human = StochasticChoice(uni4, rows)
    ai = StochasticChoice(uni4, {m: {a: h / 3 + 2 * luce_choice(v, m)[a] / 3 for a, h in human.table[m].items()}
                                 for m in menus})
    for a, h in ((ai, human), (ai.as_float(), human.as_float())):
        want, certified = pass_path(a, h, tol)
        assert not certified and want.proportionality.passed == (tol == 1e-3)
        assert repr(check_axioms(a, h, tol)) == repr(want)


@pytest.mark.parametrize("exact", [True, False])
def test_check_axioms_on_mixture_pairs_makes_no_tuple_pass(monkeypatch, exact):
    # the certificates decide: no kernel's evaluations, nor its float
    # estimates, cover every tuple, in one run or over several
    rng = random.Random(f"no-pass-{exact}")
    pairs = [gen.forward_pair(gen.random_params(rng, n)) for n in (6, 7, 8)]

    def guard(name):
        part = getattr(_Kernel, name)

        def guarded(self, run, sel=None):
            tuples = len(run[0]) * len(_triangle(run[2].shape[1])[0]) if sel is None else len(sel)
            key = "covered" + name  # not ``name``: it would shadow the method
            covered = self.__dict__[key] = self.__dict__.get(key, 0) + tuples
            assert covered < self.starts[-1], f"{name} over every tuple"
            return part(self, run, sel)
        monkeypatch.setattr(_Kernel, name, guarded)

    guard("_values")
    guard("_estimates")
    for ai, human in pairs:
        if not exact:
            ai, human = ai.as_float(), human.as_float()
        assert check_axioms(ai, human).overall
