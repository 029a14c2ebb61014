"""Crash-free pipelines on extreme tables: every call returns or raises a LamError.

Tables on three or four alternatives draw their cells from zeros,
subnormals, values near 1e-300 and 2**-1060, and entries that round to
within an ulp of 1, over full and partial menu designs.  Each pair goes
through the lab, axiom, IIA and field entry points in both scalar modes,
at several tolerances.

Mixture pairs on three or four alternatives draw their parameters from
the edges of the model: utilities from 1e-300 to 1e300, compliance
within 1e-12 of 0, 1/2 and 1, aligned and near-aligned alternatives, and
rows that omit a member.  Each pair goes through the lab, axiom and field
entry points in both scalar modes, and its parameters through simulation
and a short EM fit.  In exact mode every identification cubic of odd
degree that is not identically zero names a root.

The extreme tables also go through the CLI as written files, the AI
table also as counts (its entries over each row's scale): each command
exits with 0, 1 or 2 and lets no exception escape.
"""

import io
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lam import (
    ChoiceCounts,
    LamError,
    LamParams,
    StochasticChoice,
    Universe,
    check_axioms,
    fit_mle,
    identify_field,
    identify_lab,
    iia_violations,
    lam_table,
    luce_table,
    simulate_counts,
)
from lam.cli import main
from lam.dataio import serialize_dataset

#: Row weights before normalisation: 0, the smallest subnormal, a value
#: below float's subnormal range, values near 1e-300, a weight that leaves
#: its partners within an ulp of 1, and plain ones.
WEIGHTS = (0, F(1, 2**1074), F(1, 2**1060), F(1, 10**300), F(7, 10**300), F(1, 2**53), 1, 2, 3)

TOLS = (None, 0, 1e-12, 0.01)


@st.composite
def pairs(draw):
    """An (AI, human) pair of exact tables over a full or partial design of menus."""
    n = draw(st.sampled_from((3, 4)))
    universe = Universe(tuple("abcd"[:n]))
    menus = universe.all_menus(2)
    chosen = menus
    if draw(st.booleans()):  # a partial design; field identification needs the full one
        design = draw(st.lists(st.booleans(), min_size=len(menus), max_size=len(menus)))
        chosen = [m for m, keep in zip(menus, design) if keep] or menus[:1]

    def table():
        rows = {}
        for menu in chosen:
            members = universe.sorted_members(menu)
            weights = [F(draw(st.sampled_from(WEIGHTS))) for _ in members]
            if not any(weights):
                weights[0] = F(1)
            rows[menu] = {a: w / sum(weights) for a, w in zip(members, weights)}
        return StochasticChoice(universe, rows)

    return table(), table()


def calls(ai, human, tol):
    yield lambda: identify_lab(ai, human, "a", tol=tol)
    yield lambda: check_axioms(ai, human, tol)
    yield lambda: iia_violations(ai, tol)
    yield lambda: identify_field(ai, "a", tol)


@settings(derandomize=True, deadline=None, max_examples=50, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(pairs())
def test_extreme_tables_return_or_raise_a_lam_error(pair):
    ai, human = pair
    for a, h in ((ai, human), (ai.as_float(), human.as_float())):
        for tol in TOLS:
            for call in calls(a, h, tol):
                try:
                    call()
                except LamError:
                    pass


@settings(derandomize=True, deadline=None, max_examples=40, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(pairs())
def test_cli_on_written_extreme_tables_exits_0_1_or_2(tmp_path_factory, pair):
    work = tmp_path_factory.mktemp("tables")
    ai, human = work / "ai.csv", work / "human.csv"
    ai.write_text(serialize_dataset(pair[0]))
    human.write_text(serialize_dataset(pair[1]))
    tables = ["--ai", str(ai), "--human", str(human)]
    runs = [(argv, flags) for argv in (["identify-lab", *tables, "--anchor", "a"], ["check-axioms", *tables],
                                       ["identify-field", "--ai", str(ai), "--anchor", "a"])
            for flags in ([], ["--exact"], ["--tol", "0.01"], ["--exact", "--tol", "0.01"])]
    # the AI table as counts: its entries over each row's scale, as integers
    counts, rho, view = work / "counts.csv", pair[0], pair[0]._dense
    counts.write_text(serialize_dataset(ChoiceCounts(rho.universe, {
        m: {a: view.values[view.find(view.rows[m], rho.universe.index(a))[0]] for a in row}
        for m, row in rho.table.items()
    })))
    runs += [(["fit", "--data", str(counts), "--starts", "1", "--seed", "1", "--max-iter", "20"], []),
             (["identify-lab", "--ai", str(counts), "--human", str(human), "--anchor", "a", "--exact"], [])]
    for argv, flags in runs:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(argv + flags)
        assert code in (0, 1, 2), argv + flags


#: Utility mantissas and powers of ten: 1e-300 to 1e300.
MANTISSAS = (1, 2, 3, 7)
EXPONENTS = (-300, -150, -20, -1, 0, 1, 20, 150, 300)

#: Offsets of compliance from 0, 1/2 and 1: 1e-12 and far below it.
OFFSETS = (F(0), F(1, 10**12), F(1, 10**15), F(1, 10**40))


@st.composite
def mixtures(draw):
    """Mixture parameters and the (AI, human) pair they give over every menu,
    as ``gen.forward_pair`` builds it, with some rows then omitting a member."""
    n = draw(st.sampled_from((3, 4)))
    universe = Universe(tuple("abcd"[:n]))

    def utility():
        return draw(st.sampled_from(MANTISSAS)) * F(10) ** draw(st.sampled_from(EXPONENTS))

    u, v = {"a": F(1)}, {"a": F(1)}
    for alt in universe.alternatives[1:]:
        u[alt] = utility()
        kind = draw(st.sampled_from(("free", "aligned", "near")))
        v[alt] = utility() if kind == "free" else u[alt] * (1 + (kind == "near") * F(1, 10**12))
    center = draw(st.sampled_from((F(0), F(1, 2), F(1))))
    offset = draw(st.sampled_from(OFFSETS))
    alpha = center + offset if center < 1 else center - offset
    if center == F(1, 2) and draw(st.booleans()):
        alpha = center - offset
    params = LamParams(universe, u, v, alpha, "a")
    menus = universe.all_menus(2)
    ai, human = lam_table(params, menus), luce_table(universe, u, menus)

    def omit(rho):
        """Leave one member out of some rows of three or more, renormalised."""
        table = {m: dict(row) for m, row in rho.table.items()}
        for menu in menus:
            if len(menu) >= 3 and draw(st.integers(0, 3)) == 0:
                del table[menu][draw(st.sampled_from(universe.sorted_members(menu)))]
                total = sum(table[menu].values())
                table[menu] = {a: p / total for a, p in table[menu].items()}
        return StochasticChoice(universe, table)

    return params, omit(ai), omit(human)


def named_roots(result) -> None:
    """Every candidate set of an exact field result whose cubic is not
    identically zero at tol and has odd degree names a root."""
    for sets in result.candidates.values():
        for cs in sets:
            degree = max((i for i, c in enumerate(cs.poly.coefficients()[::-1]) if c), default=0)
            if not cs.case2 and degree % 2:
                assert cs.admissible or cs.rejected, cs


def returns_or_raises(call, exact: bool) -> None:
    """``call`` returns or raises a LamError; the only warning it may issue
    is the EM step's at a boundary compliance."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
        except LamError:
            result = None
    for w in caught:
        assert w.category is RuntimeWarning and str(w.message).startswith(
            "alpha is at a boundary"), w
    if exact and hasattr(result, "candidates"):
        named_roots(result)


@settings(derandomize=True, deadline=None, max_examples=100, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mixtures())
def test_extreme_mixtures_return_or_raise_a_lam_error(case):
    params, ai, human = case
    for a, h, exact in ((ai, human, True), (ai.as_float(), human.as_float(), False)):
        returns_or_raises(lambda: identify_lab(a, h, "a"), exact)
        returns_or_raises(lambda: check_axioms(a, h), exact)
        returns_or_raises(lambda: identify_field(a, "a"), exact)
    counts = simulate_counts(params, params.universe.all_menus(2), 50, 0)
    returns_or_raises(lambda: fit_mle(counts, inits=2, max_iter=5), False)


def test_lab_message_past_the_int_digit_limit():
    # compliance 1e-12 on utilities near 1e-300 with one near-aligned
    # alternative, and an AI row that omits b: the peeled cell the
    # least-squares alpha rejects has over 4300 digits, so the reason shows
    # it to 17 significant digits
    universe, tiny = Universe(tuple("abcd")), F(1, 10**300)
    u = {"a": F(1), "b": tiny, "c": tiny, "d": tiny}
    v = {**u, "d": tiny * (1 + F(1, 10**12))}
    params = LamParams(universe, u, v, F(1, 10**12), "a")
    menus = universe.all_menus(2)
    ai, human = lam_table(params, menus), luce_table(universe, u, menus)
    table = {m: dict(row) for m, row in ai.table.items()}
    row = table[frozenset("abc")]
    del row["b"]
    table[frozenset("abc")] = {a: p / (row["a"] + row["c"]) for a, p in row.items()}
    result = identify_lab(StochasticChoice(universe, table), human, "a")
    assert result.status == "inconsistent"
    assert "('a', 'b', 'c') is ~-1.0000000000010000E-312;" in result.reason
