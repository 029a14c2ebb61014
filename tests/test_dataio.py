"""Dataset and parameter file parsing, serialization, validation."""

from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lam import ChoiceCounts, DatasetFormatError, StochasticChoice, Universe
from lam.dataio import (
    format_scalar,
    parse_dataset,
    parse_params,
    parse_report,
    parse_scalar,
    serialize_dataset,
    serialize_params,
)

DATA = Path(__file__).parent / "data"


def test_scalar_formats():
    assert format_scalar(F(7, 15)) == "7/15"
    assert format_scalar(F(3)) == "3"
    assert format_scalar(0.25) == "0.25"
    assert parse_scalar("7/15", exact=True) == F(7, 15)
    assert parse_scalar("7/15", exact=False) == pytest.approx(7 / 15)
    assert parse_scalar("0.5", exact=False) == 0.5
    assert parse_scalar("3", exact=True) == F(3)


def test_exact_mode_rejects_decimals():
    with pytest.raises(DatasetFormatError):
        parse_scalar("0.5", exact=True)


def test_scalars_past_the_int_digit_limit():
    # the interpreter's default limit on int-string conversion is 4,300
    # digits; exact values past it still format and parse, in plain digits
    x = F(10**5000 + 1, 3)
    text = format_scalar(x)
    assert text.endswith("/3") and len(text) == 5003 and set(text[1:5000]) == {"0"}
    assert parse_scalar(text, True) == x
    assert parse_scalar(format_scalar(-x), True) == -x
    assert parse_scalar(format_scalar(F(-(10**5000) - 1)), True) == -(10**5000) - 1
    assert parse_scalar("+" + format_scalar(F(10**4999 + 1, 2 * 10**4999)), False) == 0.5
    # a long token that is not a plain signed digit string is still rejected
    digits = "9" * 5000
    for tok in (digits + ".5", "1e" + digits, digits + "e5", "NaN", "1.5", "1e5"):
        with pytest.raises(DatasetFormatError):
            parse_scalar(tok, exact=True)
    with pytest.raises(DatasetFormatError, match="bad numeric value"):
        parse_scalar(f"{digits}.5/3", exact=True)


def test_parse_golden_lab_dataset(ex_a_ai):
    rho = parse_dataset((DATA / "lab_ai.csv").read_text(), exact=True)
    assert isinstance(rho, StochasticChoice)
    assert rho.prob("x", frozenset({"x", "y", "z"})) == F(1, 3)
    assert rho.table == ex_a_ai.table


def test_parse_golden_field_dataset(ex_b_ai):
    rho = parse_dataset((DATA / "field_ai.csv").read_text(), exact=True)
    assert rho.table == ex_b_ai.table


def test_dataset_round_trip(ex_a_ai, ex_a_human, ex_b_ai):
    for rho in (ex_a_ai, ex_a_human, ex_b_ai):
        text = serialize_dataset(rho)
        again = parse_dataset(text, exact=True)
        assert again.table == rho.table
        assert serialize_dataset(again) == text


def test_counts_round_trip(uni3):
    counts = ChoiceCounts(
        uni3, {("x", "y"): {"x": 3, "y": 9}, ("x", "y", "z"): {"x": 1, "y": 2, "z": 0}}
    )
    text = serialize_dataset(counts)
    again = parse_dataset(text)
    assert isinstance(again, ChoiceCounts)
    assert again.counts == counts.counts


def test_row_sum_violation_names_menu():
    text = "\n".join(
        [
            "mode,probabilities",
            "universe,x;y;z",
            "menu,alternative,value",
            "x;y,x,0.5",
            "x;y,y,0.4",
        ]
    )
    with pytest.raises(DatasetFormatError, match="x;y"):
        parse_dataset(text)


def test_counts_reject_fractional_value():
    text = "\n".join(
        [
            "mode,counts",
            "universe,x;y;z",
            "menu,alternative,value",
            "x;y,x,12.5",
            "x;y,y,3",
        ]
    )
    with pytest.raises(DatasetFormatError, match="line 4"):
        parse_dataset(text)


def test_non_finite_probability_rejected():
    for bad in ("nan", "inf", "-inf"):
        text = "\n".join(
            [
                "mode,probabilities",
                "universe,x;y;z",
                "menu,alternative,value",
                "x;y,x,0.5",
                "x;y,y,0.5",
                f"x;y;z,x,{bad}",
                "x;y;z,y,0.5",
                "x;y;z,z,0.5",
            ]
        )
        with pytest.raises(DatasetFormatError, match=f"line 6: probability '{bad}' is not finite"):
            parse_dataset(text)


def test_rational_too_large_for_a_float_rejected():
    huge = "1" + "0" * 400 + "/3"
    with pytest.raises(DatasetFormatError, match="line 4: bad numeric value"):
        parse_dataset(f"mode,probabilities\nuniverse,x;y;z\nmenu,alternative,value\nx;y,x,{huge}\n")


def test_duplicate_row_rejected():
    text = "\n".join(
        [
            "mode,probabilities",
            "universe,x;y;z",
            "menu,alternative,value",
            "x;y,x,1/2",
            "x;y,x,1/2",
        ]
    )
    with pytest.raises(DatasetFormatError, match="line 5.*duplicate"):
        parse_dataset(text)


def test_unknown_alternative_rejected():
    text = "\n".join(
        [
            "mode,probabilities",
            "universe,x;y;z",
            "menu,alternative,value",
            "x;w,x,1/2",
        ]
    )
    with pytest.raises(DatasetFormatError, match="line 4.*unknown"):
        parse_dataset(text)


def test_alternative_outside_menu_rejected():
    text = "\n".join(
        [
            "mode,probabilities",
            "universe,x;y;z",
            "menu,alternative,value",
            "x;y,z,1/2",
        ]
    )
    with pytest.raises(DatasetFormatError, match="line 4"):
        parse_dataset(text)


def test_comments_and_blank_lines_ignored():
    text = "\n".join(
        [
            "# golden pair data",
            "mode,probabilities",
            "",
            "universe,x;y;z",
            "menu,alternative,value",
            "x;y,x,3/5",
            "x;y,y,2/5",
        ]
    )
    rho = parse_dataset(text, exact=True)
    assert rho.prob("x", frozenset({"x", "y"})) == F(3, 5)


def test_params_round_trip(ex_b_params):
    text = serialize_params(ex_b_params)
    again = parse_params(text, exact=True)
    assert again == ex_b_params
    assert serialize_params(again) == text


def test_params_golden_file(ex_b_params):
    params = parse_params((DATA / "field_params.csv").read_text(), exact=True)
    assert params == ex_b_params


def test_params_file_validation():
    with pytest.raises(DatasetFormatError, match="alpha"):
        parse_params("universe,x;y;z\nanchor,x\nu,x,1\nv,x,1")


def test_parse_report_rows():
    rows = parse_report("report,identify-lab\n# comment\nalpha,1/2\n")
    assert ["report", "identify-lab"] in rows
    assert ["alpha", "1/2"] in rows


@st.composite
def random_exact_table(draw):
    n = draw(st.integers(3, 4))
    alts = tuple("wxyz"[:n])
    universe = Universe(alts)
    menus = universe.all_menus(2)
    chosen = draw(st.lists(st.sampled_from(menus), min_size=1, max_size=4, unique=True))
    table = {}
    for menu in chosen:
        weights = {a: draw(st.integers(1, 9)) for a in menu}
        total = sum(weights.values())
        table[menu] = {a: F(w, total) for a, w in weights.items()}
    return StochasticChoice(universe, table)


@given(random_exact_table())
def test_dataset_round_trip_property(rho):
    text = serialize_dataset(rho)
    again = parse_dataset(text, exact=True)
    assert again.table == rho.table
    assert serialize_dataset(again) == text


_PROBS = "mode,probabilities\nuniverse,x;y;z\nmenu,alternative,value\n"
_COUNTS = "mode,counts\nuniverse,x;y;z\nmenu,alternative,value\n"


@pytest.mark.parametrize(
    "text, exact, message",
    [
        # row sums: the menu in universe order, the total as a file value
        (_PROBS + "y;x,x,1/2\ny;x,y,1/3\n", True, "probabilities for menu 'x;y' sum to 5/6, not 1"),
        (_PROBS + "y;x,x,0.5\ny;x,y,0.4\n", False, "probabilities for menu 'x;y' sum to 0.9, not 1"),
        # ranges: the first entry out of range, in row order
        (
            _PROBS + "x;y,x,3/2\nx;y,y,-1/2\n",
            True,
            "probability Fraction(3, 2) for 'x' in menu ('x', 'y') outside [0, 1]",
        ),
        (
            _PROBS + "x;y,x,0.5\nx;y,y,0.5\nx;z,x,1.5\nx;z,z,-0.5\n",
            False,
            "probability 1.5 for 'x' in menu ('x', 'z') outside [0, 1]",
        ),
        # negatives within the tolerance: the given values sum to 1, but the
        # row is summed again once they are clamped to 0
        (
            "mode,probabilities\nuniverse,w;x;y;z\nmenu,alternative,value\n"
            "w;x;y;z,w,-0.000001\nw;x;y;z,x,-0.000001\nw;x;y;z,y,0.500001\nw;x;y;z,z,0.500001\n",
            False,
            "row for menu ('w', 'x', 'y', 'z') sums to 1.000002, not 1",
        ),
        # ... and the given values are summed before the clamp lifts the row
        # back into the tolerance: dyadic values, so that every sum is exact
        # whether or not sum() compensates (1 - 3 * 2**-21 as written,
        # 1 - 2**-20 once clamped)
        (
            _PROBS + "x;y;z,x,0.5\nx;y;z,y,0.49999904632568359375\nx;y;z,z,-0.000000476837158203125\n",
            False,
            "probabilities for menu 'x;y;z' sum to 0.9999985694885254, not 1",
        ),
        # a broken sum wins over a broken range, in either row order and in one row
        (
            _PROBS + "x;z,x,1.5\nx;z,z,-0.5\nx;y,x,0.5\nx;y,y,0.4\n",
            False,
            "probabilities for menu 'x;y' sum to 0.9, not 1",
        ),
        (
            _PROBS + "x;y,x,0.5\nx;y,y,0.4\nx;z,x,1.5\nx;z,z,-0.5\n",
            False,
            "probabilities for menu 'x;y' sum to 0.9, not 1",
        ),
        (
            _PROBS + "x;z,x,3/2\nx;z,z,-1/2\nx;y,x,1/2\nx;y,y,1/3\n",
            True,
            "probabilities for menu 'x;y' sum to 5/6, not 1",
        ),
        (_PROBS + "x;y,x,1.5\nx;y,y,0.4\n", False, "probabilities for menu 'x;y' sum to 1.9, not 1"),
        # counts: a menu without observations, a negative count, and the
        # negative count's line wins in either row order
        (_COUNTS + "y;x,x,0\ny;x,y,0\n", False, "menu ('x', 'y') has no observations"),
        (_COUNTS + "x;y,x,3\nx;y,y,-1\n", False, "line 5: counts must be non-negative, got '-1'"),
        (
            _COUNTS + "x;y,x,0\nx;y,y,0\nx;z,x,2\nx;z,z,-1\n",
            False,
            "line 7: counts must be non-negative, got '-1'",
        ),
        (
            _COUNTS + "x;z,x,2\nx;z,z,-1\nx;y,x,0\nx;y,y,0\n",
            False,
            "line 5: counts must be non-negative, got '-1'",
        ),
    ],
)
def test_file_validation_messages(text, exact, message):
    with pytest.raises(DatasetFormatError) as err:
        parse_dataset(text, exact=exact)
    assert str(err.value) == message


def test_repeated_menu_tokens_share_one_row():
    text = _PROBS + "x;y,x,1/4\ny;x,y,3/4\nx;y;z,z,1\n"
    rho = parse_dataset(text, exact=True)
    assert rho.table == {frozenset("xy"): {"x": F(1, 4), "y": F(3, 4)}, frozenset("xyz"): {"z": F(1)}}
    assert rho.is_exact and not rho.is_positive


@pytest.mark.parametrize(
    "text, message",
    [
        (_PROBS, "dataset needs a header and at least one row"),
        ("mode,odds\nuniverse,x;y;z\nmenu,alternative,value\nx;y,x,1\n",
         "line 1: first row must be 'mode,probabilities' or 'mode,counts'"),
        ("mode,probabilities\nalts,x;y;z\nmenu,alternative,value\nx;y,x,1\n",
         "line 2: second row must be 'universe,<id;id;...>'"),
        ("mode,probabilities\nuniverse,x;x;z\nmenu,alternative,value\nx;y,x,1\n",
         "line 2: alternative identifiers must be unique"),
        ("mode,probabilities\nuniverse,x;y;z\nmenu,alt,value\nx;y,x,1\n",
         "line 3: third row must be 'menu,alternative,value'"),
        (_PROBS + ";,x,1\n", "line 4: empty menu"),
        (_PROBS + "x;y;x,x,1\n", "line 4: menu 'x;y;x' repeats an alternative"),
        (_PROBS + "x;y,w,1\n", "line 4: unknown alternative 'w'"),
        (_PROBS + "x;y,x\n", "line 4: expected 'menu,alternative,value', got 2 fields"),
        (_PROBS + "x;y,x,1/2,1/2\n", "line 4: expected 'menu,alternative,value', got 4 fields"),
    ],
)
def test_dataset_header_and_menu_messages(text, message):
    with pytest.raises(DatasetFormatError) as err:
        parse_dataset(text, exact=True)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("universe,x;y;z\nanchor,x\nbeta,1/2\n", "line 3: unrecognized row ['beta', '1/2']"),
        ("universe,x;y;z\nu,x\n", "line 2: unrecognized row ['u', 'x']"),
        ("universe,x;y\nanchor,x\n", "line 1: a universe needs at least 3 alternatives"),
    ],
)
def test_params_row_and_universe_messages(text, message):
    with pytest.raises(DatasetFormatError) as err:
        parse_params(text, exact=True)
    assert str(err.value) == message


_PARAMS = "universe,x;y;z\nanchor,x\nalpha,1/2\nu,x,1\nu,y,2\nu,z,3\nv,x,1\nv,y,1\nv,z,1\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (_PARAMS + "alpha,3/4\n", "line 10: duplicate row for 'alpha'"),
        (_PARAMS + "u,y,5\n", "line 10: duplicate row for ('u', 'y')"),
        (_PARAMS + "universe,x;y;z\n", "line 10: duplicate row for 'universe'"),
        (_PARAMS + "anchor,y\n", "line 10: duplicate row for 'anchor'"),
        (_PARAMS + "u,q,7\n", "line 10: unknown alternative 'q'"),
        # the universe may come after the rows that name its alternatives
        ("v,w,2\n" + _PARAMS, "line 1: unknown alternative 'w'"),
    ],
)
def test_params_reject_repeated_rows_and_unknown_alternatives(text, message):
    with pytest.raises(DatasetFormatError) as err:
        parse_params(text, exact=True)
    assert str(err.value) == message
    assert parse_params(_PARAMS, exact=True).u["y"] == 2
