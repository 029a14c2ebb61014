"""Plain-text dataset and parameter files.

Dataset files are comma-delimited with a two-line header and a column
header row::

    mode,probabilities            (or: mode,counts)
    universe,x;y;z
    menu,alternative,value
    x;y,x,7/15
    x;y,y,8/15
    ...

Menus are ';'-joined alternative identifiers (canonically in universe
order).  Values may be rational literals ``p/q`` (or integers) or decimal
floats; exact mode accepts rational literals only, so nothing is lost to
rounding.  Counts files take non-negative integers.  Probability rows for
each menu must sum to 1 within 1e-6 (exactly, in exact mode).

Parameter files hold one value per row::

    universe,x;y;z;t
    anchor,x
    alpha,3/4
    u,x,1
    u,y,2
    ...
    v,t,1/5

Blank lines and lines starting with '#' are ignored everywhere.
"""

from __future__ import annotations

import decimal
import math
import re
from fractions import Fraction
from typing import Union

from .types import (
    ChoiceCounts,
    DatasetFormatError,
    LamError,
    LamParams,
    Menu,
    Scalar,
    StochasticChoice,
    Universe,
)

__all__ = [
    "format_scalar",
    "parse_scalar",
    "parse_dataset",
    "serialize_dataset",
    "parse_params",
    "serialize_params",
    "parse_report",
]

#: Row-sum tolerance for probability dataset files (float mode).
FILE_ROW_SUM_TOL = 1e-6

Dataset = Union[StochasticChoice, ChoiceCounts]

#: The tokens read past the interpreter's limit on int-string digits
#: (sys.get_int_max_str_digits): plain signed digit strings.
_DIGITS = re.compile(r"[+-]?[0-9]+")


def _str(n: int) -> str:
    """str(n), by an exact Decimal conversion past the digit limit."""
    try:
        return str(n)
    except ValueError:
        return str(decimal.Decimal(n))


def _int(tok: str) -> int:
    """int(tok), by an exact Decimal conversion past the digit limit."""
    try:
        return int(tok)
    except ValueError:
        if not _DIGITS.fullmatch(tok.strip()):
            raise
        return int(decimal.Decimal(tok))


def format_scalar(x: Scalar) -> str:
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return _str(x.numerator)
        return f"{_str(x.numerator)}/{_str(x.denominator)}"
    if isinstance(x, int):
        return _str(x)
    return repr(float(x))


def parse_scalar(token: str, exact: bool, line: int | None = None) -> Scalar:
    """Parse 'p/q', integer, or decimal literals; exact mode forbids decimals."""
    tok = token.strip()
    try:
        if "/" in tok:
            num, den = tok.split("/")
            value = Fraction(_int(num), _int(den))
            return value if exact else float(value)
        if exact:
            try:
                return Fraction(_int(tok))
            except ValueError:
                raise DatasetFormatError(
                    f"exact mode requires rational literals, got {tok!r}", line
                ) from None
        return float(tok)
    except (ValueError, ZeroDivisionError, OverflowError) as e:
        raise DatasetFormatError(f"bad numeric value {tok!r}: {e}", line) from None


def _content_rows(text: str) -> list[tuple[int, list[str]]]:
    """Each line that is neither blank nor a comment, with its number, as stripped fields."""
    lines = enumerate(map(str.strip, text.splitlines()), start=1)
    return [(i, [*map(str.strip, line.split(","))]) for i, line in lines if line and line[0] != "#"]


def _parse_menu_token(universe: Universe, token: str, line: int | None) -> Menu:
    members = [m for m in token.split(";") if m]
    if not members:
        raise DatasetFormatError("empty menu", line)
    for m in members:
        if m not in universe._index:
            raise DatasetFormatError(f"unknown alternative {m!r}", line)
    if len(set(members)) != len(members):
        raise DatasetFormatError(f"menu {token!r} repeats an alternative", line)
    return frozenset(members)


def _menu_token(universe: Universe, menu: Menu) -> str:
    return ";".join(universe.sorted_members(menu))


def parse_dataset(text: str, exact: bool = False) -> Dataset:
    """Parse a dataset file into choice probabilities or counts: one pass
    files each line's value under its menu's row, and the first failing line raises."""
    rows = _content_rows(text)
    if len(rows) < 4:
        raise DatasetFormatError("dataset needs a header and at least one row")
    (l1, r1), (l2, r2), (l3, r3), *data_rows = rows
    if len(r1) != 2 or r1[0] != "mode" or r1[1] not in ("probabilities", "counts"):
        raise DatasetFormatError("first row must be 'mode,probabilities' or 'mode,counts'", l1)
    counts = r1[1] == "counts"
    if len(r2) != 2 or r2[0] != "universe":
        raise DatasetFormatError("second row must be 'universe,<id;id;...>'", l2)
    alternatives = [a for a in r2[1].split(";") if a]
    try:
        universe = Universe(tuple(alternatives))
    except LamError as e:
        raise DatasetFormatError(str(e), l2) from None
    if r3 != ["menu", "alternative", "value"]:
        raise DatasetFormatError("third row must be 'menu,alternative,value'", l3)

    table: dict[Menu, dict[str, Scalar | tuple[int, int]]] = {}  # (numerator, denominator) in exact mode
    menus: dict[str, tuple[Menu, dict]] = {}  # each menu token's menu and row
    for line, fields in data_rows:
        if len(fields) != 3:
            raise DatasetFormatError(
                f"expected 'menu,alternative,value', got {len(fields)} fields", line
            )
        menu_tok, alt, value_tok = fields
        if menu_tok not in menus:
            menu = _parse_menu_token(universe, menu_tok, line)
            menus[menu_tok] = menu, table.setdefault(menu, {})
        menu, row = menus[menu_tok]
        if alt not in menu:
            if alt not in universe.alternatives:
                raise DatasetFormatError(f"unknown alternative {alt!r}", line)
            raise DatasetFormatError(f"alternative {alt!r} is not in menu {menu_tok!r}", line)
        if counts:
            try:
                value = int(value_tok)
            except ValueError:
                raise DatasetFormatError(
                    f"counts must be integers, got {value_tok!r}", line
                ) from None
            if value < 0:
                raise DatasetFormatError(f"counts must be non-negative, got {value_tok!r}", line)
        elif exact:
            num, slash, den = value_tok.partition("/")
            try:
                value = int(num), int(den) if slash else 1
                if value[1] <= 0:
                    raise ValueError
            except ValueError:  # past the digit limit, a signed denominator, or not a rational
                value = parse_scalar(value_tok, True, line).as_integer_ratio()
        else:
            value = parse_scalar(value_tok, False, line)
            if not math.isfinite(value):
                raise DatasetFormatError(f"probability {value_tok!r} is not finite", line)
        if alt in row:
            raise DatasetFormatError(
                f"duplicate row for ({menu_tok!r}, {alt!r})", line
            )
        row[alt] = value
    try:
        return _dataset(universe, table, counts, exact)
    except LamError as e:
        raise DatasetFormatError(str(e)) from None


def _dataset(universe: Universe, rows: dict, counts: bool, exact: bool) -> Dataset:
    """The dataset of a file's ``rows``, tested in file order: the file's row
    sums as written, then :meth:`StochasticChoice._check_row` on each row with
    an entry below 0, the only rows it can fail once the sums hold."""
    if counts:
        for menu, row in rows.items():
            if not any(row.values()):
                ChoiceCounts(universe, {menu: row})  # raises: no observations
        data = object.__new__(ChoiceCounts)
        data.__dict__.update(universe=universe, counts=rows)
        return data
    scale = dict.fromkeys(rows, 1)
    for menu, row in rows.items():
        if exact:  # ints over the lcm of the row's reduced denominators
            c = scale[menu] = math.lcm(*(q // math.gcd(p, q) for p, q in row.values()))
            row = rows[menu] = {a: p * c // q for a, (p, q) in row.items()}
        total = sum(row.values())
        if total != scale[menu] if exact else abs(total - 1) > FILE_ROW_SUM_TOL:
            raise DatasetFormatError(
                f"probabilities for menu {_menu_token(universe, menu)!r} sum to "
                f"{format_scalar(Fraction(total, scale[menu]) if exact else total)}, not 1"
            )
    data = object.__new__(StochasticChoice)
    data.__dict__.update(universe=universe, eps_sum=FILE_ROW_SUM_TOL, is_exact=exact)
    for menu, row in rows.items():
        if min(row.values()) < 0:  # an exact row raises; a float one may be clamped
            data._check_row(menu, {a: Fraction(p, scale[menu]) for a, p in row.items()} if exact else row, exact)
    data.__dict__["is_positive"] = all(len(row) == len(m) and min(row.values()) > 0 for m, row in rows.items())
    # an exact table's domain, dense view and dict are built from its ints when first read
    data.__dict__.update({"_ints": (rows, scale)} if exact else {"table": rows})
    return data


def serialize_dataset(data: Dataset) -> str:
    """Canonical dataset text: menus sorted, members in universe order."""
    universe = data.universe
    if isinstance(data, ChoiceCounts):
        mode, table = "counts", data.counts
    else:
        mode, table = "probabilities", data.table
    lines = [
        f"mode,{mode}",
        "universe," + ";".join(universe.alternatives),
        "menu,alternative,value",
    ]
    for menu in data.domain:
        tok = _menu_token(universe, menu)
        row = table[menu]
        for alt in universe.sorted_members(menu):
            if alt in row:
                lines.append(f"{tok},{alt},{format_scalar(row[alt])}")
    return "\n".join(lines) + "\n"


def parse_params(text: str, exact: bool = False) -> LamParams:
    """Parse a parameter file (universe, anchor, alpha, u and v rows)."""
    values: dict = {}  # each row's value by its key: 'alpha', or ('u', 'y') for u(y)
    lines: dict = {}
    for line, fields in _content_rows(text):
        key = fields[0]
        if key == "universe" and len(fields) == 2:
            try:
                value = Universe(tuple(a for a in fields[1].split(";") if a))
            except LamError as e:
                raise DatasetFormatError(str(e), line) from None
        elif key == "anchor" and len(fields) == 2:
            value = fields[1]
        elif key == "alpha" and len(fields) == 2 or key in ("u", "v") and len(fields) == 3:
            value = parse_scalar(fields[-1], exact, line)
        else:
            raise DatasetFormatError(f"unrecognized row {fields!r}", line)
        name = key if len(fields) == 2 else (key, fields[1])
        if name in values:
            raise DatasetFormatError(f"duplicate row for {name!r}", line)
        values[name], lines[name] = value, line
    for name in ("universe", "anchor", "alpha"):
        if name not in values:
            raise DatasetFormatError(f"params file is missing {name!r}")
    universe, vectors = values["universe"], {"u": {}, "v": {}}
    for name, value in values.items():
        if isinstance(name, tuple):
            if name[1] not in universe.alternatives:
                raise DatasetFormatError(f"unknown alternative {name[1]!r}", lines[name])
            vectors[name[0]][name[1]] = value
    try:
        return LamParams(universe, vectors["u"], vectors["v"], values["alpha"], values["anchor"])
    except LamError as e:
        raise DatasetFormatError(str(e)) from None


def serialize_params(params: LamParams) -> str:
    lines = [
        "universe," + ";".join(params.universe.alternatives),
        f"anchor,{params.anchor}",
        f"alpha,{format_scalar(params.alpha)}",
    ]
    for name, vec in (("u", params.u), ("v", params.v)):
        for alt in params.universe.alternatives:
            lines.append(f"{name},{alt},{format_scalar(vec[alt])}")
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> list[list[str]]:
    """Rows of a structured report, for downstream commands that read one."""
    return [fields for _, fields in _content_rows(text)]
