"""Domain-type construction and validation."""

from fractions import Fraction as F

import pytest

from lam import (
    ChoiceCounts,
    InstabilityTuple,
    InvalidParameterError,
    LamParams,
    MissingDataError,
    RegimeReport,
    StochasticChoice,
    Universe,
    sup_distance,
)


def test_universe_needs_three_distinct_names():
    with pytest.raises(InvalidParameterError):
        Universe(("x", "y"))
    with pytest.raises(InvalidParameterError):
        Universe(("x", "y", "y"))
    with pytest.raises(InvalidParameterError):
        Universe(("x", "y", ""))
    with pytest.raises(InvalidParameterError):
        Universe(("x", "y", "a;b"))  # would be ambiguous in dataset files
    with pytest.raises(InvalidParameterError):
        Universe(("x", "y", "a b"))


def test_universe_menus_and_order(uni3):
    assert uni3.size == 3
    assert uni3.index("z") == 2
    assert uni3.sorted_members(frozenset({"z", "x"})) == ("x", "z")
    menus = uni3.all_menus(2)
    assert frozenset({"x", "y", "z"}) in menus
    assert len(menus) == 4
    with pytest.raises(MissingDataError):
        uni3.index("w")
    with pytest.raises(InvalidParameterError):
        uni3.menu([])


def test_unknown_menu_member_is_named_in_sort_order(uni3):
    # frozenset order depends on the hash seed; the named member does not
    for members in (["x", "r", "q"], ["q", "x", "r"], {"r", "q", "x"}):
        with pytest.raises(MissingDataError) as err:
            uni3.menu(members)
        assert str(err.value) == "unknown alternative 'q'"


def test_choice_table_validation(uni3):
    with pytest.raises(InvalidParameterError, match="sums"):
        StochasticChoice(uni3, {("x", "y"): {"x": F(1, 2), "y": F(1, 3)}})
    with pytest.raises(InvalidParameterError, match="outside"):
        StochasticChoice(uni3, {("x", "y"): {"x": F(1, 2), "z": F(1, 2)}})
    rho = StochasticChoice(uni3, {("x", "y"): {"x": F(1, 2), "y": F(1, 2)}})
    assert rho.is_exact and rho.is_positive
    assert rho.prob("z", frozenset({"x", "y"})) == 0
    with pytest.raises(MissingDataError):
        rho.prob("x", frozenset({"x", "z"}))


def test_choice_table_rejects_non_finite_entries(uni3):
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(InvalidParameterError, match=r"for 'y' in menu \('x', 'y'\) outside"):
            StochasticChoice(uni3, {("y", "x"): {"y": bad, "x": 0.5}})


@pytest.mark.parametrize(
    "row, message",
    [
        ({"x": F(1, 2), "y": F(1, 3)}, "row for menu ('x', 'y') sums to Fraction(5, 6), not 1"),
        ({}, "row for menu ('x', 'y') sums to 0, not 1"),
        ({"y": F(-1, 2), "x": F(3, 2)}, "probability Fraction(-1, 2) for 'y' in menu ('x', 'y') outside [0, 1]"),
        ({"x": 1.5, "y": 0.4}, "probability 1.5 for 'x' in menu ('x', 'y') outside [0, 1]"),
        ({"x": 0.5, "y": 0.4}, "row for menu ('x', 'y') sums to 0.9, not 1"),
        ({"x": F(1, 2), "z": F(1, 2)}, "alternative 'z' recorded outside its menu"),
    ],
)
def test_choice_table_validation_messages(uni3, row, message):
    with pytest.raises(InvalidParameterError) as err:
        StochasticChoice(uni3, {("y", "x"): row})
    assert str(err.value) == message


def test_choice_table_range_before_later_rows(uni3):
    # the first failing row wins, and within a row the range before the sum
    table = {("x", "z"): {"x": 2.0, "z": 0.5}, ("x", "y"): {"x": 0.5, "y": 0.4}}
    with pytest.raises(InvalidParameterError, match=r"^probability 2.0 for 'x'"):
        StochasticChoice(uni3, table)


def test_choice_table_implicit_zero_clears_positivity(uni3):
    rho = StochasticChoice(uni3, {("x", "y"): {"x": F(1)}})
    assert not rho.is_positive
    assert rho.prob("y", frozenset({"x", "y"})) == 0


def test_float_row_sum_tolerance(uni3):
    StochasticChoice(uni3, {("x", "y"): {"x": 0.5 + 4e-10, "y": 0.5}})
    with pytest.raises(InvalidParameterError):
        StochasticChoice(uni3, {("x", "y"): {"x": 0.51, "y": 0.5}})


def test_params_normalization_and_swap(uni3):
    params = LamParams.normalized(
        uni3, {"x": 4, "y": 2, "z": 1}, {"x": F(1, 2), "y": 1, "z": 2}, F(1, 4)
    )
    assert params.u_vector() == (F(1), F(1, 2), F(1, 4))
    assert params.v_vector() == (F(1), F(2), F(4))
    assert params.is_exact
    swapped = params.swapped()
    assert swapped.u == params.v and swapped.alpha == F(3, 4)
    assert swapped.swapped() == params


def test_params_validation(uni3):
    with pytest.raises(InvalidParameterError, match="positive"):
        LamParams(uni3, {"x": 1, "y": 0, "z": 1}, {"x": 1, "y": 1, "z": 1}, F(1, 2), "x")
    with pytest.raises(InvalidParameterError, match="alpha"):
        LamParams(uni3, {"x": 1, "y": 1, "z": 1}, {"x": 1, "y": 1, "z": 1}, F(3, 2), "x")
    with pytest.raises(InvalidParameterError, match="canonical"):
        LamParams(uni3, {"x": 2, "y": 1, "z": 1}, {"x": 1, "y": 1, "z": 1}, F(1, 2), "x")
    with pytest.raises(InvalidParameterError, match="missing"):
        LamParams(uni3, {"x": 1, "y": 1}, {"x": 1, "y": 1, "z": 1}, F(1, 2), "x")
    for name, u, v in (
        ("u", {"x": 0, "y": 1, "z": 1}, {"x": 1, "y": 1, "z": 1}),
        ("v", {"x": 1, "y": 1, "z": 1}, {"x": -1.0, "y": 1.0, "z": 1.0}),
        ("u", {"y": 1, "z": 1}, {"x": 1, "y": 1, "z": 1}),
    ):
        with pytest.raises(InvalidParameterError, match=f"^{name} needs a positive anchor value$"):
            LamParams.normalized(uni3, u, v, F(1, 2))


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_params_reject_utilities_outside_the_positive_reals(uni3, bad):
    with pytest.raises(InvalidParameterError, match="utilities must be positive and finite"):
        LamParams(uni3, {"x": 1.0, "y": bad, "z": 2.0}, {"x": 1.0, "y": 2.0, "z": 3.0}, 0.5, "x")


def test_unobserved_menu_is_named_in_universe_order():
    # on universe (z, y, x) string order would name the menu ('x', 'z')
    uni = Universe(("z", "y", "x"))
    rho = StochasticChoice(uni, {("z", "y"): {"z": F(1, 2), "y": F(1, 2)}})
    for lookup in (lambda: rho.prob("x", {"x", "z"}), lambda: rho.row(iter("xz"))):
        with pytest.raises(MissingDataError) as err:
            lookup()
        assert str(err.value) == "menu ('z', 'x') not in the observed domain"


def test_row_lists_every_member_in_universe_order():
    uni = Universe(("z", "y", "x"))
    rho = StochasticChoice(uni, {("x", "z", "y"): {"x": F(1, 4), "z": F(3, 4)}})
    row = rho.row(iter("xyz"))
    assert row == {"z": F(3, 4), "y": 0, "x": F(1, 4)}
    assert list(row) == ["z", "y", "x"]


XY = ("x", "y")


@pytest.mark.parametrize(
    "table, message",
    [
        # every member of a row is checked before any probability's range
        ({XY: {"x": F(3, 2), "z": F(0)}}, "alternative 'z' recorded outside its menu"),
        ({XY: {"x": 1.5, "z": 0.0}}, "alternative 'z' recorded outside its menu"),
        # the range before the row sum, and rows in input order
        (
            {XY: {"x": F(3, 2), "y": F(1, 4)}},
            "probability Fraction(3, 2) for 'x' in menu ('x', 'y') outside [0, 1]",
        ),
        ({XY: {"x": F(1, 4)}, ("y", "x"): {"q": 1}}, "row for menu ('x', 'y') sums to Fraction(1, 4), not 1"),
        ({XY: {"x": 1}, ("y", "x"): {"q": 1}}, "duplicate menu ('x', 'y')"),
        ({("x", "q"): {"z": 1}}, "unknown alternative 'q'"),
        ({}, "a stochastic choice function needs data"),
    ],
)
def test_choice_table_checks_a_row_in_order(uni3, table, message):
    with pytest.raises((InvalidParameterError, MissingDataError)) as err:
        StochasticChoice(uni3, table)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "counts, message",
    [
        # member, then count, cell by cell
        ({XY: {"x": -1, "z": 1}}, "count for 'x' must be a non-negative integer, got -1"),
        ({XY: {"x": 1, "z": -1}}, "count recorded for 'z' outside its menu"),
        ({XY: {"x": 1.0, "y": 2}}, "count for 'x' must be a non-negative integer, got 1.0"),
        # the row's total once its cells pass, and rows in input order
        ({XY: {"x": 0, "y": 0}, ("y", "x"): {"q": 1}}, "menu ('x', 'y') has no observations"),
        ({XY: {"x": 1}, ("y", "x"): {"q": 1}}, "duplicate menu ('x', 'y')"),
        ({}, "choice counts need at least one menu"),
    ],
)
def test_choice_counts_check_a_row_in_order(uni3, counts, message):
    with pytest.raises(InvalidParameterError) as err:
        ChoiceCounts(uni3, counts)
    assert str(err.value) == message


def test_instability_tuple_validation():
    menu = frozenset({"x", "y", "z"})
    with pytest.raises(InvalidParameterError):
        InstabilityTuple("x", "x", menu, menu)
    with pytest.raises(InvalidParameterError):
        InstabilityTuple("x", "w", menu, menu)
    t = InstabilityTuple("x", "y", {"x", "y"}, menu)
    assert t.menu_s == frozenset({"x", "y"})


def test_sup_distance(ex_a_ai, ex_a_human):
    assert sup_distance(ex_a_ai, ex_a_ai) == 0
    # identical tables are at distance int 0, float tables included
    assert repr(sup_distance(ex_a_ai.as_float(), ex_a_ai.as_float())) == "0"
    d = sup_distance(ex_a_ai, ex_a_human)
    assert d == F(1, 4)  # attained at (x, {x, z}): 1/2 vs 3/4


def test_sup_distance_repr_by_scalar_mode(ex_a_ai, uni3):
    # 7/15 - 1/3 = 2/15: exact as a Fraction, and the difference of the two
    # float(entry) values, not float(2/15), as soon as one table is float
    other = StochasticChoice(uni3, {
        ("x", "y"): {"x": F(1, 3), "y": F(2, 3)},
        ("x", "z"): {"x": F(1, 2), "z": F(1, 2)},
    })
    assert repr(sup_distance(ex_a_ai, other)) == "Fraction(2, 15)"
    assert repr(float(F(2, 15))) == "0.13333333333333333"
    for a, b in ((ex_a_ai.as_float(), other.as_float()), (ex_a_ai, other.as_float()),
                 (ex_a_ai.as_float(), other)):
        assert repr(sup_distance(a, b)) == "0.13333333333333336"
    assert repr(sup_distance(ex_a_ai, ex_a_ai.as_float())) == "0"


def test_regime_report_rejects_an_unknown_regime():
    with pytest.raises(InvalidParameterError, match="unknown regime 'reckless'"):
        RegimeReport("reckless", {}, 0)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_peeled_table_builds_its_dict_on_first_read(exact):
    # a peeled table keeps its dense view and builds ``table`` when first
    # read; until then and after, it equals, hashes, pickles, copies,
    # prints and reads rows as the table built from the same dict does
    import copy
    import pickle

    from lam import lam_table, luce_table, recover_autonomous

    uni = Universe(("x", "y", "z", "w"))
    u = {"x": F(1), "y": F(3, 2), "z": F(1, 5), "w": F(7)}
    v = {"x": F(1), "y": F(1, 9), "z": F(4), "w": F(2, 3)}
    params = LamParams(uni, u, v, F(2, 7), "x")
    menus = uni.all_menus()
    ai, human = lam_table(params, menus), luce_table(uni, u, menus)
    alpha = params.alpha
    if not exact:
        ai, human, alpha = ai.as_float(), human.as_float(), float(alpha)

    def fresh():
        got = recover_autonomous(ai, human, alpha)
        assert "table" not in vars(got)
        return got

    # the dict a caller would build: the peeled cells in universe order
    want = StochasticChoice(uni, {
        m: {a: (ai.prob(a, m) - alpha * human.prob(a, m)) / (1 - alpha) for a in uni.sorted_members(m)}
        for m in ai.domain
    }, max(ai.eps_sum, 1e-9))
    assert fresh() == want and want == fresh()
    for got in (fresh(), pickle.loads(pickle.dumps(fresh()))):
        with pytest.raises(TypeError, match="unhashable"):
            hash(got)
    # pickling and deep copies rebuild the menus, whose iteration order may
    # change with the hash seed: compare with the same copy of ``want``
    for make in (lambda t: pickle.loads(pickle.dumps(t)), copy.copy, copy.deepcopy):
        got = make(fresh())
        assert "table" not in vars(got)
        assert got == want and repr(got) == repr(make(want))
    got = fresh()
    assert [got.row(m) for m in menus] == [want.row(m) for m in menus]
    assert repr(got) == repr(want) and "table" in vars(got)
    assert repr(got.table) == repr(want.table) and got.table is got.table
    assert (got.is_exact, got.is_positive) == (want.is_exact, want.is_positive) == (exact, True)
    with pytest.raises(AttributeError, match="no attribute 'tables'"):
        got.tables


def test_membership_list_of_a_thinned_design():
    # rows in canonical menu order ({a, b}, {a, d}, {b, c, d}), members in
    # universe order, and every ordered pair of each menu's members
    uni = Universe(("a", "b", "c", "d"))
    counts = ChoiceCounts(
        uni, {("b", "c", "d"): {"b": 3, "c": 4, "d": 5}, ("d", "a"): {"a": 6, "d": 7},
              ("a", "b"): {"a": 1, "b": 2}},
    )
    members = counts._dense.members
    assert members.row.tolist() == [0, 0, 1, 1, 2, 2, 2]
    assert members.col.tolist() == [0, 1, 0, 3, 1, 2, 3]
    assert members.start.tolist() == [0, 2, 4]
    assert members.values.tolist() == [1.0, 2.0, 6.0, 7.0, 3.0, 4.0, 5.0]
    want = [(s + k, s + l) for s, size in ((0, 2), (2, 2), (4, 3))
            for k in range(size) for l in range(size)]
    assert list(zip(*members.pairs.tolist())) == want
    assert counts._dense.members is members  # built once per view
