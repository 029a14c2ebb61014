"""Forward models, instability measures, IIA testing, recovery, regimes."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gen
import oracles
from lam import (
    InstabilityTuple,
    InsufficientDataError,
    InvalidParameterError,
    LamParams,
    MissingDataError,
    NotLuceError,
    StochasticChoice,
    Universe,
    UtilityRangeError,
    classify_regime,
    composite_instability,
    cross_instability,
    iia_violations,
    instability_tuples,
    lam_choice,
    lam_table,
    luce_choice,
    luce_table,
    own_instability,
    recover_luce_utility,
    satisfies_iia,
    sup_distance,
)
from lam import choice as choice_module
from lam.choice import _residual

XYZ = frozenset({"x", "y", "z"})
XY = frozenset({"x", "y"})
T_GOLD = InstabilityTuple("x", "y", XYZ, XY)


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------


@st.composite
def rational_params(draw, n_min=3, n_max=4, misaligned=False):
    n = draw(st.integers(n_min, n_max))
    uni = Universe(gen.ALT_NAMES[:n])
    small = st.integers(1, 12)

    def vec():
        return {a: F(draw(small), draw(small)) for a in uni.alternatives}

    u, v = vec(), vec()
    alpha = F(draw(st.integers(0, 16)), 16)
    params = LamParams.normalized(uni, u, v, alpha)
    if misaligned and len(set(params.ratio().values())) == 1:
        bump = {a: val for a, val in params.v.items()}
        bump[uni.alternatives[1]] += F(1, 2)
        params = LamParams.normalized(uni, params.u, bump, alpha)
    return params


@st.composite
def params_and_tuple(draw, **kwargs):
    params = draw(rational_params(**kwargs))
    menus = params.universe.all_menus(2)
    tuples = list(instability_tuples(params.universe, menus))
    return params, menus, tuples[draw(st.integers(0, len(tuples) - 1))]


# ---------------------------------------------------------------------------
# Luce and mixture forward models
# ---------------------------------------------------------------------------


def test_luce_choice_human_triple():
    probs = luce_choice({"x": F(1), "y": F(2, 3), "z": F(1, 3)}, XYZ)
    assert probs == {"x": F(1, 2), "y": F(1, 3), "z": F(1, 6)}


def test_luce_choice_uniform_on_constant_utility():
    probs = luce_choice({"x": 5, "y": 5, "z": 5}, XYZ)
    assert probs == {"x": F(1, 3), "y": F(1, 3), "z": F(1, 3)}


def test_luce_choice_autonomous_pair():
    probs = luce_choice({"x": F(1), "y": F(2), "z": F(3)}, frozenset({"x", "z"}))
    assert probs == {"x": F(1, 4), "z": F(3, 4)}


def test_luce_choice_rejects_nonpositive_utility():
    with pytest.raises(InvalidParameterError):
        luce_choice({"x": F(0), "y": F(1)}, XY)
    with pytest.raises(InvalidParameterError):
        luce_choice({"x": -1.0, "y": 1.0}, XY)
    with pytest.raises(InvalidParameterError, match="^menus must be non-empty$"):
        luce_choice({"x": F(1), "y": F(1)}, [])


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_luce_choice_rejects_non_finite_utility(uni3, bad):
    weights = {"x": 1.0, "y": bad, "z": 1.0}
    message = r"^utility for 'y' must be positive and finite to form a Luce rule$"
    with pytest.raises(InvalidParameterError, match=message):
        luce_choice(weights, XY)
    with pytest.raises(InvalidParameterError, match=message):
        luce_table(uni3, weights, [XY])


def test_lam_choice_field_pair(ex_b_params):
    probs = lam_choice(ex_b_params, XY)
    assert probs["x"] == F(7, 18)
    assert probs["y"] == F(11, 18)


def test_lam_choice_alpha_one_is_luce(ex_a_params):
    full = LamParams(
        ex_a_params.universe, ex_a_params.u, ex_a_params.v, F(1), "x"
    )
    assert lam_choice(full, XYZ) == luce_choice(ex_a_params.u, XYZ)


def test_lam_choice_example_a_triple(ex_a_params):
    assert lam_choice(ex_a_params, XYZ) == {
        "x": F(1, 3), "y": F(1, 3), "z": F(1, 3)
    }


def test_lam_table_matches_example_a(ex_a_params, ex_a_ai):
    assert lam_table(ex_a_params, ex_a_ai.domain).table == ex_a_ai.table


def test_lam_table_matches_example_b(ex_b_params, ex_b_ai):
    assert lam_table(ex_b_params, ex_b_ai.domain).table == ex_b_ai.table


@given(params_and_tuple())
def test_mixture_is_probability_vector(case):
    params, menus, _ = case
    for menu in menus:
        row = lam_choice(params, menu)
        assert all(p >= 0 for p in row.values())
        assert sum(row.values()) == 1


@given(rational_params())
def test_swap_symmetry(params):
    swapped = params.swapped()
    for menu in params.universe.all_menus(2):
        assert lam_choice(params, menu) == lam_choice(swapped, menu)


@given(rational_params(), st.integers(1, 9), st.integers(1, 9))
def test_luce_scale_invariance_exact(params, num, den):
    lam_scale = F(num, den)
    scaled = {a: lam_scale * val for a, val in params.u.items()}
    for menu in params.universe.all_menus(2):
        assert luce_choice(scaled, menu) == luce_choice(params.u, menu)


def test_luce_scale_invariance_float():
    u = {"x": 1.0, "y": 0.37, "z": 2.9}
    scaled = {a: 7.3 * val for a, val in u.items()}
    for menu in Universe(("x", "y", "z")).all_menus(2):
        base = luce_choice(u, menu)
        other = luce_choice(scaled, menu)
        assert all(abs(base[a] - other[a]) <= 1e-14 for a in base)


# ---------------------------------------------------------------------------
# Instability measures
# ---------------------------------------------------------------------------


def test_own_instability_golden(ex_a_ai):
    assert own_instability(ex_a_ai, T_GOLD) == F(1, 45)


def test_own_instability_same_menu_is_zero(ex_a_ai):
    t = InstabilityTuple("x", "y", XYZ, XYZ)
    assert own_instability(ex_a_ai, t) == 0


def test_own_instability_luce_is_zero(ex_a_human):
    assert own_instability(ex_a_human, T_GOLD) == 0


def test_cross_instability_golden(ex_a_ai, ex_a_human):
    # direct arithmetic on the table: 1/3 * 2/5 - 1/3 * 3/5
    assert cross_instability(ex_a_ai, ex_a_human, T_GOLD) == F(-1, 15)


def test_cross_instability_same_args_same_menu(ex_a_ai):
    t = InstabilityTuple("x", "y", XY, XY)
    assert cross_instability(ex_a_ai, ex_a_ai, t) == 0


def test_cross_instability_antisymmetric_in_alternatives(ex_a_ai, ex_a_human):
    flipped = InstabilityTuple("y", "x", XYZ, XY)
    assert cross_instability(ex_a_ai, ex_a_human, flipped) == -cross_instability(
        ex_a_ai, ex_a_human, T_GOLD
    )


def test_composite_instability_golden(ex_a_ai, ex_a_human):
    assert composite_instability(ex_a_ai, ex_a_human, T_GOLD) == F(2, 45)


def test_composite_of_rho_with_itself(ex_a_ai):
    assert composite_instability(ex_a_ai, ex_a_ai, T_GOLD) == 2 * own_instability(
        ex_a_ai, T_GOLD
    )


def test_composite_symmetric_in_functions(ex_a_ai, ex_a_human):
    assert composite_instability(ex_a_ai, ex_a_human, T_GOLD) == composite_instability(
        ex_a_human, ex_a_ai, T_GOLD
    )


@given(params_and_tuple(misaligned=True))
def test_antisymmetries(case):
    params, menus, t = case
    rho = lam_table(params, menus)
    rho_h = luce_table(params.universe, params.u, menus)
    t_alt = InstabilityTuple(t.y, t.x, t.menu_s, t.menu_t)
    t_menus = InstabilityTuple(t.x, t.y, t.menu_t, t.menu_s)
    assert own_instability(rho, t_alt) == -own_instability(rho, t)
    assert own_instability(rho, t_menus) == -own_instability(rho, t)
    assert cross_instability(rho, rho_h, t_alt) == -cross_instability(rho, rho_h, t)
    assert composite_instability(rho, rho_h, t) == composite_instability(rho_h, rho, t)
    assert composite_instability(rho, rho_h, t_alt) == -composite_instability(
        rho, rho_h, t
    )


@given(params_and_tuple())
def test_luce_rule_has_zero_instability_everywhere(case):
    params, menus, t = case
    rho_h = luce_table(params.universe, params.u, menus)
    assert own_instability(rho_h, t) == 0


@given(params_and_tuple())
def test_cross_instability_closed_form(case):
    """For two Luce rules: G = [u(x)v(y) - u(y)v(x)] / (u(S) v(T))."""
    params, menus, t = case
    u, v = params.u, params.v
    rho_u = luce_table(params.universe, u, menus).as_float()
    rho_v = luce_table(params.universe, v, menus).as_float()
    got = cross_instability(rho_u, rho_v, t)
    u_s = sum(float(u[a]) for a in t.menu_s)
    v_t = sum(float(v[a]) for a in t.menu_t)
    want = (float(u[t.x]) * float(v[t.y]) - float(u[t.y]) * float(v[t.x])) / (u_s * v_t)
    assert abs(got - want) <= 1e-12


@given(params_and_tuple(misaligned=True))
def test_proportionality_law(case):
    """Own instability of the mixture is alpha times its composite with Luce(u)."""
    params, menus, t = case
    rho = lam_table(params, menus)
    rho_h = luce_table(params.universe, params.u, menus)
    lhs = own_instability(rho, t)
    rhs = params.alpha * composite_instability(rho, rho_h, t)
    assert lhs == rhs  # exact rationals
    fl = abs(
        own_instability(rho.as_float(), t)
        - float(params.alpha)
        * composite_instability(rho.as_float(), rho_h.as_float(), t)
    )
    assert fl <= 1e-12


# ---------------------------------------------------------------------------
# IIA testing
# ---------------------------------------------------------------------------


def test_iia_violations_example_a(ex_a_ai):
    found = iia_violations(ex_a_ai)
    assert T_GOLD in found
    bad = InstabilityTuple("x", "z", XYZ, frozenset({"x", "z"}))
    assert bad not in found
    assert not satisfies_iia(ex_a_ai)


def test_iia_violations_luce_is_empty(ex_a_human):
    assert iia_violations(ex_a_human) == []
    assert satisfies_iia(ex_a_human)


def test_iia_violations_deterministic_order(ex_a_ai):
    found = iia_violations(ex_a_ai)
    uni = ex_a_ai.universe
    keys = [
        (uni.index(t.x), uni.index(t.y), uni.menu_key(t.menu_s), uni.menu_key(t.menu_t))
        for t in found
    ]
    assert keys == sorted(keys)
    assert found == iia_violations(ex_a_ai)


def test_instability_tuples_reject_unknown_alternatives(uni3):
    with pytest.raises(MissingDataError, match="unknown alternative 'q'"):
        list(instability_tuples(uni3, [{"x", "y"}, {"x", "q"}]))


def test_half_mixture_of_distinct_rules_violates_iia():
    rng = random.Random(4)
    for _ in range(10):
        params = gen.random_params(rng, 4, alpha=F(1, 2))
        rho = lam_table(params, params.universe.all_menus(2))
        assert iia_violations(rho)


def test_iia_dichotomy_both_directions():
    """Forward-generated data is IIA-free exactly when the mixture weight is
    at a boundary or the two utilities are proportional."""
    rng = random.Random(12)
    for _ in range(8):
        base = gen.random_params(rng, rng.choice([3, 4]))
        menus = base.universe.all_menus(2)
        for boundary in (F(0), F(1)):
            at_edge = LamParams(base.universe, base.u, base.v, boundary, base.anchor)
            assert satisfies_iia(lam_table(at_edge, menus))
        aligned = LamParams(base.universe, base.u, dict(base.u), base.alpha, base.anchor)
        assert satisfies_iia(lam_table(aligned, menus))
        if 0 < base.alpha < 1:
            assert not satisfies_iia(lam_table(base, menus))


# ---------------------------------------------------------------------------
# Utility recovery
# ---------------------------------------------------------------------------


def test_recover_human_utility(ex_a_human):
    util = recover_luce_utility(ex_a_human, "x")
    assert util == {"x": F(1), "y": F(2, 3), "z": F(1, 3)}


def test_recover_chains_ratios_back_to_a_later_anchor(ex_a_human):
    # from the last alternative every ratio is followed against its edge
    assert recover_luce_utility(ex_a_human, "z") == {"x": F(3), "y": F(2), "z": F(1)}


def test_recover_autonomous_utility(ex_a_autonomous):
    util = recover_luce_utility(ex_a_autonomous, "x")
    assert util == {"x": F(1), "y": F(2), "z": F(3)}


def test_recover_uniform_gives_ones(uni3):
    menus = uni3.all_menus(2)
    rho = luce_table(uni3, {a: F(4) for a in uni3.alternatives}, menus)
    assert recover_luce_utility(rho, "y") == {a: F(1) for a in uni3.alternatives}


def test_recover_rejects_iia_violation(ex_a_ai):
    with pytest.raises(NotLuceError):
        recover_luce_utility(ex_a_ai, "x")


def test_recover_rejects_zero_probability(uni3):
    rho = StochasticChoice(
        uni3, {("x", "y"): {"x": F(1)}, ("x", "z"): {"x": F(1, 2), "z": F(1, 2)}}
    )
    with pytest.raises(NotLuceError):
        recover_luce_utility(rho, "x")


POSITIVITY_CASE = """
from fractions import Fraction as F
from lam import NotLuceError, StochasticChoice, Universe, recover_luce_utility
uni = Universe(("x", "y", "z", "t"))
rho = StochasticChoice(uni, {("x", "y", "z", "t"): {"x": F(1), "y": F(0), "z": F(0), "t": F(0)}})
try:
    recover_luce_utility(rho, "x")
except NotLuceError as e:
    print(e)
"""


def test_recover_positivity_message_independent_of_hash_seed(run_python):
    messages = set()
    for seed in range(6):
        proc = run_python("-c", POSITIVITY_CASE, env={"PYTHONHASHSEED": str(seed)})
        assert proc.returncode == 0, proc.stderr
        messages.add(proc.stdout)
    assert messages == {
        "positivity fails: probability of 'y' in ('x', 'y', 'z', 't') is not above 0\n"
    }


FLOAT_LAM_TABLES = """
import hashlib, random
from lam import LamParams, Universe, lam_table
uni = Universe(tuple("abcdefgh"))
rng = random.Random(3)
digest = hashlib.md5()
for _ in range(20):
    u = {a: rng.uniform(0.1, 10) for a in uni.alternatives}
    v = {a: rng.uniform(0.1, 10) for a in uni.alternatives}
    rho = lam_table(LamParams.normalized(uni, u, v, rng.random()), uni.all_menus(2))
    for m in rho.domain:
        digest.update(repr([(a, rho.table[m][a]) for a in uni.sorted_members(m)]).encode())
print(digest.hexdigest())
"""


def test_float_lam_table_independent_of_hash_seed(run_python):
    digests = set()
    for seed in (0, 1):
        proc = run_python("-c", FLOAT_LAM_TABLES, env={"PYTHONHASHSEED": str(seed)})
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout)
    assert len(digests) == 1


def test_luce_choice_sums_in_weights_order():
    weights = {"a": 0.1, "b": 0.2, "c": 0.3, "d": 0.4}
    got = luce_choice(weights, ["d", "b", "c", "a"])
    total = ((0.1 + 0.2) + 0.3) + 0.4
    assert list(got) == ["a", "b", "c", "d"]
    assert got == {a: w / total for a, w in weights.items()}


def _floats(vec):
    return {a: float(x) for a, x in vec.items()}


RESIDUAL_PARAMS = {
    "exact": lambda p: p,
    "float": lambda p: p.as_float(),
    "exact u, float v and alpha": lambda p: LamParams(
        p.universe, p.u, _floats(p.v), float(p.alpha), p.anchor
    ),
    "float u, exact v and alpha": lambda p: LamParams(
        p.universe, _floats(p.u), p.v, p.alpha, p.anchor
    ),
    "float alpha": lambda p: LamParams(p.universe, p.u, p.v, float(p.alpha), p.anchor),
}


def test_residual_matches_table_oracle(monkeypatch):
    # _residual computes exact params and float params on any data itself;
    # the mixed kinds above must take the table path, which the count of
    # lam_table calls checks
    calls = []
    monkeypatch.setattr(
        choice_module, "lam_table", lambda *args: calls.append(args) or lam_table(*args)
    )
    rng = random.Random(2024)
    kinds, nonzero = set(), 0
    for _ in range(1000):
        n = rng.randint(3, 6)
        truth = gen.random_params(rng, n)
        menus = truth.universe.all_menus(rng.choice([1, 2]))
        if rng.random() < 0.4:  # a partial domain
            menus = [m for m in menus if rng.random() < 0.6] or menus[-1:]
        rho = lam_table(truth, menus)
        data = rng.choice(["exact", "float", "perturbed"])
        if data == "float":
            rho = rho.as_float()
        elif data == "perturbed" and any(len(m) > 1 for m in menus):
            rho = gen.perturb_entry(rho.as_float(), rng)
        near = truth if rng.random() < 0.2 else gen.random_params(rng, n)
        kind = rng.choice(sorted(RESIDUAL_PARAMS))
        params = RESIDUAL_PARAMS[kind](near)
        want = sup_distance(lam_table(params, rho.domain), rho)
        calls.clear()
        got = _residual(params, rho)
        assert (type(got), repr(got)) == (type(want), repr(want)), (kind, data, params)
        computed = kind in ("float", "exact")
        assert len(calls) == (0 if computed else 1), (kind, data)
        kinds.add((kind, rho.is_exact))
        nonzero += want != 0
    assert len(kinds) == 2 * len(RESIDUAL_PARAMS)
    assert nonzero > 800


def test_residual_on_exact_pairs_matches_the_fraction_oracle():
    # exact params on exact data: the largest miss is picked by a float
    # filter and cross-multiplication in ints; the oracle is the maximum of
    # one Fraction per cell.  Two-member menus miss equally in both cells,
    # so the top often ties
    rng = random.Random(4242)
    ties = moved = 0
    for _ in range(150):
        n = rng.randint(3, 6)
        truth = gen.random_params(rng, n)
        rho = lam_table(truth, truth.universe.all_menus())
        if rng.random() < 0.5:  # one cell moved, its row renormalized
            table = {m: dict(row) for m, row in rho.table.items()}
            menu = rng.choice(rho.domain)
            table[menu][rng.choice(sorted(menu))] += rng.choice([F(1, 1000), F(1, 7)])
            table[menu] = {a: p / sum(table[menu].values()) for a, p in table[menu].items()}
            rho, moved = StochasticChoice(rho.universe, table), moved + 1
        params = rng.choice([
            truth,
            LamParams(truth.universe, truth.u, truth.v, truth.alpha + F(1, 1000), truth.anchor),
            gen.random_params(rng, n),
        ])
        pred = lam_table(params, rho.domain)
        cells = [abs(pred.prob(a, m) - rho.prob(a, m)) for m in rho.domain for a in sorted(m)]
        want = max(cells)
        want = want if want > 0 else 0
        got = _residual(params, rho)
        assert (type(got), repr(got)) == (type(want), repr(want)), params
        ties += want != 0 and cells.count(want) > 1
    assert ties > 20 and moved > 50, (ties, moved)
    # misses 1/10 and 1/10 + 10**-40 round to one float: the ints pick the second
    uni, e = Universe(("x", "y", "z")), F(1, 10)
    rho = StochasticChoice(uni, {
        ("x", "y"): {"x": F(1, 2) + e, "y": F(1, 2) - e},
        ("x", "z"): {"x": F(1, 2) + e + F(1, 10**40), "z": F(1, 2) - e - F(1, 10**40)},
    })
    ones = dict.fromkeys(uni.alternatives, F(1))
    assert _residual(LamParams(uni, ones, ones, F(1, 3), "x"), rho) == e + F(1, 10**40)


def test_residual_keeps_the_predicted_row_check():
    # u(S) overflows to inf on {a,b,c} and {b,c}, so Luce(u) there is all 0
    uni = Universe(("a", "b", "c"))
    v = {"a": 1.0, "b": 2.0, "c": 3.0}
    rho = lam_table(LamParams(uni, v, v, 0.3, "a"), uni.all_menus())
    params = LamParams(uni, {"a": 1.0, "b": 1e308, "c": 1e308}, v, 0.3, "a")
    message = r"^row for menu \('a', 'b', 'c'\) sums to 0.7, not 1$"
    with pytest.raises(InvalidParameterError, match=message):
        lam_table(params, rho.domain)
    with pytest.raises(InvalidParameterError, match=message):
        _residual(params, rho)


def test_recover_disconnected_graph():
    uni = Universe(("a", "b", "c", "d"))
    rho = StochasticChoice(
        uni,
        {
            ("a", "b"): {"a": F(1, 2), "b": F(1, 2)},
            ("c", "d"): {"c": F(1, 3), "d": F(2, 3)},
        },
    )
    with pytest.raises(InsufficientDataError):
        recover_luce_utility(rho, "a")


def test_recover_names_a_utility_past_float_range():
    # u(b)/u(a) = 1/5e-324 is past float64's largest value, and so is the
    # ratio of the two probabilities, which must not warn
    rows = {("a", "b"): {"a": 5e-324, "b": 1.0}, ("b", "c"): {"b": 0.5, "c": 0.5}}
    rho = StochasticChoice(Universe(("a", "b", "c")), rows)
    with pytest.raises(UtilityRangeError, match=r"utility of 'b' against the anchor 'a'"):
        recover_luce_utility(rho, "a", tol=0)
    # against b, the same rows put u(a) at the smallest subnormal, in range
    assert recover_luce_utility(rho, "b", tol=0) == {"a": 5e-324, "b": 1.0, "c": 1.0}


def test_recover_names_a_utility_that_underflows():
    rows = {("a", "b"): {"a": 1.0, "b": 5e-324}, ("b", "c"): {"b": 1.0, "c": 5e-324}}
    rho = StochasticChoice(Universe(("a", "b", "c")), rows)
    with pytest.raises(UtilityRangeError, match=r"utility of 'c' against the anchor 'a'"):
        recover_luce_utility(rho, "a", tol=0)


def test_recover_float_least_squares_accuracy():
    # float Luce tables on every menu and on partial designs: the ratio
    # graph's least-squares fit stays within a few ulps of the truth
    rng = random.Random(17)
    checked = {False: 0, True: 0}
    for k in range(80):
        params = gen.random_params(rng, 4 + k % 5, require_misaligned=False)
        menus, partial = params.universe.all_menus(2), k % 2 == 1
        if partial:
            menus = [m for m in menus if rng.random() < 0.3]
        rho = luce_table(params.universe, params.u, menus).as_float()
        try:
            util = recover_luce_utility(rho, params.anchor)
        except InsufficientDataError:
            continue
        for a, want in params.u.items():
            assert abs(F(util[a]) - want) <= 1e-14 * want, (params, a)
        checked[partial] += 1
    assert min(checked.values()) >= 35
    # on a path the fit leaves every edge exact: it chains the ratios
    uni = Universe(tuple("abcd"))
    rho = luce_table(uni, {"a": 1, "b": 7, "c": 3, "d": 5}, [("a", "b"), ("b", "c"), ("c", "d")])
    rho = rho.as_float()
    chained = [1.0]
    for x, y in zip("abc", "bcd"):
        menu = frozenset({x, y})
        chained.append(chained[-1] * rho.prob(y, menu) / rho.prob(x, menu))
    util = recover_luce_utility(rho, "a")
    assert [util[a] for a in "abcd"] == pytest.approx(chained, rel=1e-15)


def test_recover_matches_the_mask_broadcast_oracle():
    # the ratio graph from the kernel's pair list, the walk over adjacency
    # lists and the envelope Cholesky give the utilities, bit for bit, of
    # a menus x pairs mask, probes of every alternative and the dense solve
    rng = random.Random(38)
    for uni, menus in (gen.linear_design(40), gen.star_design(12)):
        rho = luce_table(uni, gen.random_utility(rng, uni.alternatives), menus).as_float()
        for anchor in (uni.alternatives[0], uni.alternatives[-1]):
            got = recover_luce_utility(rho, anchor)
            want = oracles.mask_broadcast_utility(rho, anchor)
            assert [x.hex() for x in got.values()] == [x.hex() for x in want.values()]
    # exact mode on a table a little off Luce, within tol: the odds differ
    # by menu, so the chain's value depends on the path the walk takes
    uni, menus = gen.linear_design(12)
    u = gen.random_utility(rng, uni.alternatives)
    rows = {m: luce_choice(u, m) for m in menus}
    for m in menus[1::3]:
        x, y = uni.sorted_members(m)[-2:]
        moved = rows[m][y] / rng.randint(200, 400)
        rows[m][x], rows[m][y] = rows[m][x] + moved, rows[m][y] - moved
    rho = StochasticChoice(uni, rows)
    for anchor in (uni.alternatives[0], uni.alternatives[5], uni.alternatives[-1]):
        got = recover_luce_utility(rho, anchor, tol=F(1, 100))
        assert got == oracles.mask_broadcast_utility(rho, anchor)
        assert got != {a: w / u[anchor] for a, w in u.items()}


@given(rational_params())
def test_recover_round_trip(params):
    menus = params.universe.all_menus(2)
    rho = luce_table(params.universe, params.u, menus)
    assert recover_luce_utility(rho, params.anchor) == dict(params.u)


# ---------------------------------------------------------------------------
# Regime classification
# ---------------------------------------------------------------------------


def test_classify_aligned(uni3):
    params = LamParams.normalized(
        uni3, {"x": 1, "y": 2, "z": 3}, {"x": 2, "y": 4, "z": 6}, F(3, 10)
    )
    assert classify_regime(params).regime == "aligned"


def test_classify_adversarial(uni3):
    params = LamParams.normalized(
        uni3, {"x": F(1), "y": F(2), "z": F(3)},
        {"x": F(1), "y": F(1, 2), "z": F(1, 3)}, F(3, 10)
    )
    report = classify_regime(params)
    assert report.regime == "adversarial"
    assert report.ratio["y"] == F(4)


def test_classify_misaligned_example_a(ex_a_params):
    # reciprocal of u = (1, 3/2, 3) is not proportional to v = (1, 2, 3)
    assert classify_regime(ex_a_params).regime == "misaligned"


def test_classify_compliant_and_autonomous(uni3):
    u = {"x": F(1), "y": F(2), "z": F(3)}
    v = {"x": F(1), "y": F(1), "z": F(1)}
    assert classify_regime(LamParams(uni3, u, v, F(1), "x")).regime == "compliant"
    assert classify_regime(LamParams(uni3, u, v, F(0), "x")).regime == "autonomous"


def test_classify_precedence_aligned_beats_compliant(uni3):
    u = {"x": F(1), "y": F(2), "z": F(3)}
    params = LamParams(uni3, u, dict(u), F(1), "x")
    assert classify_regime(params).regime == "aligned"


def test_classify_float_tolerance(uni3):
    u = {"x": 1.0, "y": 2.0, "z": 3.0}
    v = {"x": 1.0, "y": 2.0 + 5e-10, "z": 3.0}
    params = LamParams(uni3, u, v, 0.4, "x")
    assert classify_regime(params).regime == "aligned"  # within 1e-9
    assert classify_regime(params, tol=1e-12).regime == "misaligned"
