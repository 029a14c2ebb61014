"""Dataset and parameter file parsing, serialization, validation."""

import copy
import math
import pickle
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lam import ChoiceCounts, DatasetFormatError, LamError, StochasticChoice, Universe
from lam.dataio import (
    FILE_ROW_SUM_TOL,
    _menu_token,
    _parse_menu_token,
    format_scalar,
    parse_dataset,
    parse_params,
    parse_report,
    parse_scalar,
    serialize_dataset,
    serialize_params,
)
from test_extremes import pairs as extreme_pairs

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
    # born as its dense view, which membership reads; copies and pickles
    # build the dict on first read too
    assert rho.has_menu("yx") and not rho.has_menu("xz") and "table" not in vars(rho)
    for got in (pickle.loads(pickle.dumps(rho)), copy.deepcopy(rho)):
        assert "table" not in vars(got) and got == rho
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


def line_by_line_parse(text: str, exact: bool = False):
    """The oracle: the dataset parser before the column-wise one, which
    built the dict of each row line by line and then ran the dict
    constructors' validation."""
    rows = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append((i, [f.strip() for f in line.split(",")]))
    if len(rows) < 4:
        raise DatasetFormatError("dataset needs a header and at least one row")
    (l1, r1), (l2, r2), (l3, r3), *data_rows = rows
    if len(r1) != 2 or r1[0] != "mode" or r1[1] not in ("probabilities", "counts"):
        raise DatasetFormatError("first row must be 'mode,probabilities' or 'mode,counts'", l1)
    mode = r1[1]
    if len(r2) != 2 or r2[0] != "universe":
        raise DatasetFormatError("second row must be 'universe,<id;id;...>'", l2)
    alternatives = [a for a in r2[1].split(";") if a]
    try:
        universe = Universe(tuple(alternatives))
    except LamError as e:
        raise DatasetFormatError(str(e), l2) from None
    if r3 != ["menu", "alternative", "value"]:
        raise DatasetFormatError("third row must be 'menu,alternative,value'", l3)

    table = {}
    menus = {}  # each menu token is parsed once per file
    for line, fields in data_rows:
        if len(fields) != 3:
            raise DatasetFormatError(
                f"expected 'menu,alternative,value', got {len(fields)} fields", line
            )
        menu_tok, alt, value_tok = fields
        menu = menus.get(menu_tok)
        if menu is None:
            menu = menus[menu_tok] = _parse_menu_token(universe, menu_tok, line)
        if alt not in menu:
            if alt not in universe.alternatives:
                raise DatasetFormatError(f"unknown alternative {alt!r}", line)
            raise DatasetFormatError(f"alternative {alt!r} is not in menu {menu_tok!r}", line)
        if mode == "counts":
            try:
                value = int(value_tok)
            except ValueError:
                raise DatasetFormatError(
                    f"counts must be integers, got {value_tok!r}", line
                ) from None
            if value < 0:
                raise DatasetFormatError(f"counts must be non-negative, got {value_tok!r}", line)
        else:
            value = parse_scalar(value_tok, exact, line)
            if not exact and not math.isfinite(value):
                raise DatasetFormatError(f"probability {value_tok!r} is not finite", line)
        row = table.setdefault(menu, {})
        if alt in row:
            raise DatasetFormatError(
                f"duplicate row for ({menu_tok!r}, {alt!r})", line
            )
        row[alt] = value

    if mode != "counts":
        for menu, row in table.items():
            if exact:
                scale = math.lcm(*(p.denominator for p in row.values()))
                off = sum(p.numerator * (scale // p.denominator) for p in row.values()) != scale
            else:
                off = abs(sum(row.values()) - 1) > FILE_ROW_SUM_TOL
            if off:
                raise DatasetFormatError(
                    f"probabilities for menu {_menu_token(universe, menu)!r} sum to "
                    f"{format_scalar(sum(row.values()))}, not 1"
                )
    try:
        if mode == "counts":
            return ChoiceCounts(universe, table)
        return StochasticChoice(universe, table, eps_sum=FILE_ROW_SUM_TOL)
    except LamError as e:
        raise DatasetFormatError(str(e)) from None


#: One mutation of a written file each, by name; "none" leaves it as written.
MUTATIONS = (
    "none", "drop-field", "unknown-alternative", "duplicate", "bad-number", "non-finite",
    "denominator", "past-digit-limit", "off-range", "clamped-sum", "off-sum", "no-observations",
)


def written(x: F, form: str, k: int = 1) -> str:
    """``x`` as a value of a file written in ``form``; an exact value as a
    ratio of ints ``k`` times its reduced ones, when ``k`` is not 1."""
    if form == "exact":
        x = F(x)
        return format_scalar(x) if k == 1 else f"{format_scalar(F(x.numerator * k))}/{format_scalar(F(x.denominator * k))}"
    return repr(float(x)) if form == "float" else str(math.floor(x))


@st.composite
def dataset_files(draw):
    """A written ``pairs()`` AI table, as exact or float probabilities or as
    counts (its entries over each row's scale), with its lines shuffled,
    menu tokens in other member orders, members omitted, spaces, comments
    and blank lines mixed in, and one mutation; and the mode to parse it in."""
    ai, _ = draw(extreme_pairs())
    universe, view = ai.universe, ai._dense
    form = draw(st.sampled_from(("exact", "float", "counts")))
    k = draw(st.sampled_from((1, 1, 2, 6)))  # unreduced exact ratios
    lines = []
    for menu in ai.domain:
        i = view.rows[menu]
        for a in universe.sorted_members(menu):
            p = ai.table[menu][a]
            value = written(view.entries[i, universe.index(a)] if form == "counts" else p, form, k)
            # a member omitted where the row still sums to 1 within the tolerance
            omittable = form == "counts" or p == 0 or form == "float" and p < 1e-9
            if not (omittable and draw(st.integers(0, 2)) == 0):
                lines.append([list(universe.sorted_members(menu)), a, value])
    lines = draw(st.permutations(lines))
    for fields in lines:
        fields[0] = ";".join(draw(st.permutations(fields[0])))
    mutation = draw(st.sampled_from(MUTATIONS)) if lines else "none"  # no lines: no data rows
    target = lines[draw(st.integers(0, len(lines) - 1))] if lines else None
    if mutation == "drop-field":
        del target[draw(st.integers(0, 2))]
    elif mutation == "unknown-alternative":
        target[draw(st.integers(0, 1))] += "q" if draw(st.booleans()) else ";q"
    elif mutation == "duplicate":  # a bad value on the duplicate names the value
        lines.insert(draw(st.integers(0, len(lines))), target[:2] + [draw(st.sampled_from((target[2], "abc")))])
    elif mutation == "bad-number":
        target[2] = draw(st.sampled_from(("abc", "1/2/3", "/3", "1/", "", "0.5/2", "1e5", "0x10")))
    elif mutation == "non-finite":
        target[2] = draw(st.sampled_from(("nan", "inf", "-inf", "1e400")))
    elif mutation == "denominator":
        target[2] = draw(st.sampled_from(("1/0", "0/0", "1/-2", "-1/-2", "-0/-3")))
    elif mutation == "past-digit-limit":
        pad = "0" * 4400
        num, _, den = target[2].partition("/")
        target[2] = f"{num}{pad}/{den or 1}{pad}" if draw(st.booleans()) else "7" * 4400
    elif mutation == "off-range" and form == "counts":
        target[2] = "-" + target[2]
    elif mutation == "off-range":  # mass moved within the row: off [0, 1], or clamped off 1
        shift = draw(st.sampled_from((F(1, 2), F(-1, 2), F(1, 10**5), F(9, 10**7))))
        row = [f for f in lines if set(f[0].split(";")) == set(target[0].split(";"))]
        values = [F(f[2]) - shift for f in row]
        values[0] = values[0] + shift * len(row) if len(row) > 1 else -shift
        for fields, value in zip(row, values):
            fields[2] = written(value, form)
    elif mutation == "clamped-sum":  # the longest row: two negatives within the tolerance
        members = max((set(f[0].split(";")) for f in lines), key=len)
        row = [f for f in lines if set(f[0].split(";")) == members]
        s = F(9, 10**7)
        for fields, value in zip(row, [F(1, 2) + s, F(1, 2) + s, -s, -s] + [F(0)] * len(row)):
            fields[2] = written(value, form)
    elif mutation == "off-sum":
        target[2] = draw(st.sampled_from(("0", "1", "1/3", "0.999", "5")))
    elif mutation == "no-observations":
        for fields in lines:
            if set(fields[0].split(";")) == set(target[0].split(";")):
                fields[2] = "0"
    text = [
        "mode," + ("counts" if form == "counts" else "probabilities"),
        "universe," + ";".join(universe.alternatives),
        "menu,alternative,value",
    ]
    for fields in lines:
        pad = draw(st.sampled_from(("", " ", "\t")))
        text.append(f"{pad},{pad}".join(fields) + pad)
    for _ in range(draw(st.integers(0, 3))):
        text.insert(draw(st.integers(0, len(text))), draw(st.sampled_from(("", "# a comment", "  ", "#,x,1"))))
    exact = (form == "exact") != (draw(st.integers(0, 3)) == 0)
    return "\n".join(text) + "\n", exact


def parsed(text: str, exact: bool, parse):
    """What ``parse`` makes of a file: its error, or everything observable,
    each value with its type and each float by its bits."""
    try:
        data = parse(text, exact)
    except LamError as e:
        return type(e), str(e)

    def cell(v):
        return type(v), v.hex() if isinstance(v, float) else v

    rows = data.counts if isinstance(data, ChoiceCounts) else data.table
    try:
        view = data._dense
        arrays = [(a.dtype, a.shape, a.tobytes() if a.dtype != object else list(map(cell, a.ravel())))
                  for a in (view.mask, view.entries, view.scale) if a is not None]
        arrays.append(list(view.rows.items()))
    except LamError as e:
        arrays = (type(e), str(e))
    flags = (data.is_exact, data.is_positive, data.eps_sum) if hasattr(data, "is_exact") else ()
    return (type(data), data.universe, data.domain,
            [(m, [(a, *cell(v)) for a, v in row.items()]) for m, row in rows.items()], arrays, flags)


@settings(derandomize=True, deadline=None, max_examples=250, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(dataset_files())
# a float row sum as written, in file order: 0.3 + 0.2 + 0.1 is 0.6, and
# 0.1 + 0.2 + 0.3 is 0.6000000000000001
@example(("mode,probabilities\nuniverse,a;b;c\nmenu,alternative,value\n"
          "a;b;c,c,0.3\na;b;c,b,0.2\na;b;c,a,0.1\n", False))
# an exact row over the lcm of its reduced denominators, 2 here
@example(("mode,probabilities\nuniverse,a;b;c\nmenu,alternative,value\n"
          "a;b,a,2/4\na;b,b,3/6\nc;a,c,1\n", True))
def test_parse_agrees_with_the_line_by_line_parser(case):
    text, exact = case
    assert parsed(text, exact, parse_dataset) == parsed(text, exact, line_by_line_parse)
