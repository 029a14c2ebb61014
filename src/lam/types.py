"""Core domain types for stochastic-choice alignment analysis.

The observable primitive is a stochastic choice function: a map from
(menu, alternative) to choice probability.  An AI agent choosing on
behalf of a human principal is modeled as a mixture of two Luce rules,
one driven by the human's utility ``u`` and one by the AI's intrinsic
utility ``v``, mixed with a compliance weight ``alpha`` (the probability
that the AI defers to the human).

Every quantity in this package is generic over two scalar modes:

* exact mode  -- values are :class:`fractions.Fraction` (or int); all
  comparisons are exact and tolerances default to zero,
* float mode  -- values are doubles; tolerances default to 1e-9.

Types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cached_property
from itertools import combinations, islice
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np

Scalar = Union[int, Fraction, float]

#: Default absolute tolerance for float-mode zero tests and comparisons.
FLOAT_TOL = 1e-9

#: Default tolerance for row sums of a stochastic choice table (float mode).
ROW_SUM_TOL = 1e-9


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


class LamError(Exception):
    """Base error for this package."""


class InvalidParameterError(LamError, ValueError):
    """A parameter violates its contract (non-positive utility, bad alpha, ...)."""


class MissingDataError(LamError):
    """A menu or alternative required by an operation is not in the data."""


class InsufficientDataError(LamError):
    """The observed domain does not support the requested procedure."""


class NotLuceError(LamError):
    """Data that must be a Luce rule (positive + IIA) is not one."""


class UtilityRangeError(LamError):
    """A recovered utility, relative to the anchor's, lies outside float64's range."""


class NotIdentifiedError(LamError):
    """Compliance cannot be identified from the data.

    Raised when the AI data exhibits no IIA violation, in which case the
    behavior is consistent with several regimes at once.  The ambiguous
    regimes are listed in :attr:`possible_regimes`.
    """

    def __init__(self, message: str, possible_regimes: tuple[str, ...] = ()):
        super().__init__(message)
        self.possible_regimes = possible_regimes


class PartiallyIdentifiedError(LamError):
    """AI and human choices coincide: alpha and v are not separately identified."""


class DegenerateDivisionError(LamError):
    """An operation requires alpha < 1 but alpha = 1 was supplied."""


class InconsistentInputsError(LamError):
    """Inputs are jointly incompatible with any valid representation."""


class GapUndefinedError(LamError):
    """Deception gap requested for a field result that is not identified."""


class DatasetFormatError(LamError):
    """A dataset or params file is malformed; carries the offending line."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


# ---------------------------------------------------------------------------
# Scalar-mode helpers
# ---------------------------------------------------------------------------


def is_exact_scalar(x: Scalar) -> bool:
    """True when ``x`` participates in exact rational arithmetic."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _show(x: Scalar) -> str:
    """repr(x) for a message, or 17 significant digits of a rational whose
    numerator or denominator is past Python's int-to-str digit limit."""
    try:
        return repr(x)
    except ValueError:
        with localcontext() as ctx:
            ctx.prec = 17
            return f"~{Decimal(x.numerator) / Decimal(x.denominator)}"


def _integer(name: str, x, what: str, low: int, high: float = math.inf) -> int:
    """``x`` as an int if it is an int or numpy integer (not a bool) in
    [low, high); else :class:`InvalidParameterError`: ``name`` must be ``what``."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or not low <= x < high:
        raise InvalidParameterError(f"{name} must be {what}, got {_show(x)}")
    return int(x)


def resolve_tol(tol: Scalar | None, exact: bool) -> Scalar:
    """Pick the effective tolerance: explicit (finite, >= 0) > exact-zero > float default."""
    if tol is None:
        return 0 if exact else FLOAT_TOL
    if not 0 <= tol < math.inf:
        raise InvalidParameterError(f"tolerance {_show(tol)} must be finite and non-negative")
    return tol


# ---------------------------------------------------------------------------
# Universe and menus
# ---------------------------------------------------------------------------

Menu = frozenset  # menus are frozensets of alternative identifiers


@dataclass(frozen=True)
class Universe:
    """Ordered finite set of at least three distinct alternative identifiers."""

    alternatives: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        alts = tuple(self.alternatives)
        object.__setattr__(self, "alternatives", alts)
        if len(alts) < 3:
            raise InvalidParameterError("a universe needs at least 3 alternatives")
        if len(set(alts)) != len(alts):
            raise InvalidParameterError("alternative identifiers must be unique")
        if any(not isinstance(a, str) or not a for a in alts):
            raise InvalidParameterError("alternative identifiers must be non-empty strings")
        forbidden = set(",;#") | set(" \t\r\n")
        if any(forbidden & set(a) for a in alts):
            raise InvalidParameterError(
                "alternative identifiers may not contain separators "
                "(',', ';', '#') or whitespace"
            )
        object.__setattr__(self, "_index", {a: i for i, a in enumerate(alts)})

    @property
    def size(self) -> int:
        return len(self.alternatives)

    def index(self, alt: str) -> int:
        try:
            return self._index[alt]
        except KeyError:
            raise MissingDataError(f"unknown alternative {alt!r}") from None

    def menu(self, members: Iterable[str]) -> Menu:
        """Validate and normalize a menu: non-empty subset of the universe.

        An unknown member is named by sort order, not by the hash order of
        the menu, so the message does not depend on ``PYTHONHASHSEED``.
        """
        m = frozenset(members)
        if not m:
            raise InvalidParameterError("menus must be non-empty")
        if not m <= self._index.keys():
            self.index(min((a for a in m if a not in self._index), key=str))  # raises
        return m

    def menu_key(self, menu: Iterable[str]) -> tuple[int, ...]:
        """Sort key giving the canonical (lexicographic) order on menus."""
        return tuple(sorted(map(self.index, menu)))

    def sorted_members(self, menu: Iterable[str]) -> tuple[str, ...]:
        return tuple(sorted(menu, key=self.index))

    def all_menus(self, min_size: int = 2) -> list[Menu]:
        """All menus of at least ``min_size`` alternatives, in canonical order."""
        out = []
        for r in range(min_size, self.size + 1):
            for combo in combinations(self.alternatives, r):
                out.append(frozenset(combo))
        return sorted(out, key=self.menu_key)


# ---------------------------------------------------------------------------
# Stochastic choice functions
# ---------------------------------------------------------------------------


def _memberships(universe: Universe, menus: Sequence[Menu], rows: Iterable[Mapping] = ()):
    """Each member of each menu as its menu's position ``row`` and its ``col``,
    menus in order and members in universe order, each menu's ``start``, and
    each one's value in ``rows``, a dict per menu, 0 where a row records nothing."""
    n, index, names = universe.size, universe._index, universe.alternatives
    keys = sorted(i * n + index[a] for i, m in enumerate(menus) for a in m)  # row * n + col
    row, col = np.divmod(np.array(keys, dtype=np.intp), n)
    size, cols = np.bincount(row, minlength=len(menus)), iter(col.tolist())
    values = [r.get(names[j], 0) for r, m in zip(rows, menus) for j in islice(cols, len(m))]
    return row, col, np.cumsum(size) - size, values


def _offsets(start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """start[i], start[i] + 1, ... start[i] + size[i] - 1 for each i in turn."""
    return np.repeat(start - np.cumsum(size) + size, size) + np.arange(int(size.sum()))


def _member_pairs(row: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Each menu's ordered member pairs (k, l), k = l included, as two rows
    of membership offsets, in canonical order: O(sum of squared menu sizes)."""
    reps = np.bincount(row, minlength=len(start))[row]  # k pairs with each of its menu's members
    return np.stack((np.repeat(np.arange(len(row)), reps), _offsets(start[row], reps)))


@dataclass(frozen=True, eq=False)
class _Dense:
    """A table's memberships as read-only arrays, menus in ``domain`` order and
    each menu's members in universe order: each one's menu ``row`` and ``col``,
    each menu's ``start`` and its row in ``rows``, and the universe's size
    ``bins``.  ``values`` holds one value per membership, 0 where a row records
    nothing: float64, or for an exact table ints over each row's lcm of
    denominators, with the lcms in ``scale`` (None for a float table).
    """

    rows: Mapping[Menu, int]
    row: np.ndarray
    col: np.ndarray
    start: np.ndarray
    values: np.ndarray
    scale: np.ndarray | None
    bins: int

    @cached_property
    def pairs(self) -> np.ndarray:
        """:func:`_member_pairs` of the memberships, built once per view."""
        return _member_pairs(self.row, self.start)

    @cached_property
    def both(self) -> _Both:
        """The memberships and a copy offset by the width, the membership and
        the menu count: the index of one value per membership and rule of a
        two-rule mixture.  ``total`` is the values' float sum.  Built once per view."""
        row, col, start, n = self.row, self.col, self.start, self.bins
        return _Both(np.concatenate((row, row + len(self.rows))), np.concatenate((col, col + n)),
                     np.concatenate((start, start + len(row))), 2 * n, float(self.values.sum()))

    @cached_property
    def keys(self) -> np.ndarray:
        """row * bins + col of each membership, ascending: :meth:`find` searches them."""
        return self.row * self.bins + self.col

    def find(self, rows, cols) -> tuple[np.ndarray, np.ndarray]:
        """The offsets of the cells (row, col) for each of ``rows`` and each of
        ``cols``, and whether each cell is a membership."""
        want = np.add.outer(np.asarray(rows) * self.bins, cols)
        at = np.searchsorted(self.keys, want).clip(max=len(self.keys) - 1)
        return at, self.keys[at] == want


_Both = namedtuple("_Both", "row col start bins total")


def _floats(values: np.ndarray, scale: np.ndarray | None, row: np.ndarray) -> np.ndarray:
    """Values of ints over a per-menu ``scale``, each in menu ``row``, as float64,
    float values as they are: int / int rounds correctly, to ``float(value)``."""
    return values if scale is None else (values / scale[row]).astype(float)


def _rows(tables: Sequence["StochasticChoice"], menus: Sequence[Menu]):
    """The memberships of ``menus``, a subsequence of every table's domain, as
    each one's ``row`` in ``menus`` and ``col``, and the tables' values there:
    ints over each menu's joint lcm c_S of the tables' denominators, and c_S,
    when every table is exact; float64 (:func:`_floats`) and None otherwise."""
    views = [t._dense for t in tables]
    at = [slice(None) if len(menus) == len(v.rows) else [v.rows[m] for m in menus] for v in views]
    size = np.bincount(views[0].row, minlength=len(views[0].rows))[at[0]]  # each menu's members
    take = [i if isinstance(i, slice) else _offsets(v.start[i], size) for v, i in zip(views, at)]
    row, col = np.repeat(np.arange(len(menus)), size), views[0].col[take[0]]
    if any(v.scale is None for v in views):
        return row, col, None, [_floats(v.values[k], v.scale, v.row[k]) for v, k in zip(views, take)]
    scales = [v.scale[i] for v, i in zip(views, at)]
    c = np.array([math.lcm(*cs) for cs in zip(*scales)], dtype=object)
    return row, col, c, [v.values[k] * (c // s)[row] for v, k, s in zip(views, take, scales)]


def _normalised_rows(table: "_MenuRows", outside: str, empty: str, cell: Callable):
    """Each row of ``table`` as (menu, {member: cell(member, value)}), in input
    order, once its menu is valid and new and its members lie in it (else
    ``outside``, formatted with the member).  The caller checks each row as it
    comes; then the normalised rows replace the raw ones.  None raise ``empty``."""
    universe, norm = table.universe, {}
    for raw_menu, raw_row in getattr(table, table._field).items():
        menu = universe.menu(raw_menu)
        if menu in norm:
            raise InvalidParameterError(f"duplicate menu {universe.sorted_members(menu)}")
        row = norm[menu] = {}
        for alt, value in raw_row.items():
            if alt not in menu:
                raise InvalidParameterError(outside.format(alt))
            row[alt] = cell(alt, value)
        yield menu, row
    if not norm:
        raise InvalidParameterError(empty)
    object.__setattr__(table, table._field, norm)


class _MenuRows:
    """What a choice table and its counts share: rows keyed by menu in the
    field named ``_field``, their canonical order and their dense view."""

    @cached_property
    def domain(self) -> tuple[Menu, ...]:
        """Observed menus in canonical order, sorted once per table."""
        index = self.universe._index.__getitem__  # :meth:`Universe.menu_key` on validated menus
        rows = self._ints[0] if "_ints" in self.__dict__ else getattr(self, self._field)
        return tuple(sorted(rows, key=lambda menu: sorted(map(index, menu))))

    @cached_property
    def _dense(self) -> _Dense:
        """The rows as one membership list, built once per table on first use."""
        universe, domain = self.universe, self.domain
        table, lcms = self.__dict__.get("_ints") or (getattr(self, self._field), None)
        # exact values for an exact table; counts have no is_exact and are float64
        exact = getattr(self, "is_exact", False)
        rows, scale = [table[m] for m in domain], None
        row, col, start, cells = _memberships(universe, domain, rows)
        if exact:  # ints over each row's lcm, which a parsed file's ``_ints`` hold already
            if lcms is None:
                lcms = {m: math.lcm(*(p.denominator for p in r.values())) for m, r in zip(domain, rows)}
                cells = [p.numerator * (lcms[domain[i]] // p.denominator) for i, p in zip(row.tolist(), cells)]
            scale = np.array([lcms[m] for m in domain], dtype=object)
        try:
            values = np.array(cells, dtype=object if exact else float)
        except OverflowError:  # a count past float64's range
            raise InvalidParameterError("counts past float64's range have no float view") from None
        for x in (row, col, start, values) + (() if scale is None else (scale,)):
            x.flags.writeable = False
        return _Dense({m: i for i, m in enumerate(domain)}, row, col, start, values, scale, universe.size)


@dataclass(frozen=True)
class StochasticChoice(_MenuRows):
    """A stochastic choice function over an observed set of menus.

    ``table`` maps each observed menu to a row of choice probabilities for
    its members.  Rows must sum to one (exactly in exact mode, within
    ``eps_sum`` in float mode).  Members missing from a row have implicit
    probability zero, which clears row validation but marks the function as
    not strictly positive.
    """

    universe: Universe
    table: Mapping[Menu, Mapping[str, Scalar]]
    eps_sum: float = ROW_SUM_TOL
    is_exact: bool = field(init=False, compare=False)
    is_positive: bool = field(init=False, compare=False)

    _field = "table"

    def __post_init__(self):
        exact = positive = True
        rows = _normalised_rows(  # an int probability joins the exact path as a Fraction
            self, "alternative {!r} recorded outside its menu",
            "a stochastic choice function needs data",
            lambda alt, p: Fraction(p) if isinstance(p, int) and not isinstance(p, bool) else p,
        )
        for menu, row in rows:
            # an exact row is positive iff its numerators are
            row_exact = all(isinstance(p, Fraction) for p in row.values())
            self._check_row(menu, row, row_exact)
            positive = positive and len(row) == len(menu) and all(
                (p.numerator if row_exact else p) > 0 for p in row.values()
            )
            exact = exact and row_exact
        object.__setattr__(self, "is_exact", exact)
        object.__setattr__(self, "is_positive", positive)

    def _check_row(self, menu: Menu, row: dict, row_exact: bool) -> None:
        """Raise :class:`InvalidParameterError` at the first entry of ``row``
        off [0, 1], else when the row sums to other than 1.  An exact row is
        tested in integers, over its lcm of denominators, where no entry is
        below 0; a float entry below 0 within ``eps_sum`` becomes 0.0."""
        eff = 0 if row_exact else self.eps_sum
        for alt, p in row.items():
            if not (0 <= p.numerator <= p.denominator if row_exact else -eff <= p <= 1 + eff):
                raise InvalidParameterError(  # the float test also rejects NaN
                    f"probability {_show(p)} for {alt!r} in menu "
                    f"{self.universe.sorted_members(menu)} outside [0, 1]"
                )
            if not row_exact and p < 0:
                row[alt] = 0.0
        if row_exact:  # in ints, over the row's lcm of denominators
            c = math.lcm(*(p.denominator for p in row.values()))
            off = sum(p.numerator * (c // p.denominator) for p in row.values()) != c
        else:
            off = abs(sum(row.values()) - 1) > eff
        if off:
            raise InvalidParameterError(
                f"row for menu {self.universe.sorted_members(menu)} sums to "
                f"{_show(sum(row.values()))}, not 1"
            )

    @classmethod
    def _from_rows(
        cls, universe: Universe, menus: Sequence[Menu], row: np.ndarray, col: np.ndarray,
        values: np.ndarray, scale: np.ndarray | None, eps_sum: float, zero: Scalar,
    ) -> StochasticChoice:
        """The table of ``values`` at the memberships (``row``, ``col``) of
        ``menus``, distinct and in canonical order (:func:`_memberships`):
        ints over each menu's ``scale``, or float64 (``scale`` None).  A value
        below 0, which the caller has held to its tolerance, reads as 0: in
        float rows as ``zero``, 0.0 or ``Fraction(0)``.

        Each row gets the verdicts of :meth:`_check_row`, taken on the
        arrays, and the first failing row raises through it.  The membership
        list is the arrays themselves, an exact row divided by its gcd with
        its scale: the lcm of its entries' reduced denominators.  ``table``
        is built from it on first read (:meth:`__getattr__`) and then kept.
        """
        low, exact = values < 0, scale is not None
        size = np.bincount(row, minlength=len(menus))
        start = np.cumsum(size) - size
        if exact:
            values = np.where(low, 0, values)
            off = np.logical_or.reduceat(values > scale[row], start) | (np.add.reduceat(values, start) != scale)
            g = np.gcd(np.gcd.reduceat(values, start), scale)
            values, scale = values // g[row], scale // g
        else:
            values = np.where(low, 0.0, values)
            with np.errstate(invalid="ignore"):  # NaN is off [0, 1] as well
                off = np.logical_or.reduceat(~((values >= -eps_sum) & (values <= 1 + eps_sum)), start)
            # each row summed as __post_init__ sums it, in member order; a
            # clamped cell adds 0 as ``zero`` would
            cells, ends = values.tolist(), np.cumsum(size).tolist()
            off |= [abs(sum(cells[i:j]) - 1) > eps_sum for i, j in zip([0] + ends, ends)]
        self = object.__new__(cls)
        for name, value in (("universe", universe), ("eps_sum", eps_sum), ("is_exact", exact)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "is_positive", bool((values > 0).all()))
        for x in (row, col, start, values) + (() if scale is None else (scale,)):
            x.flags.writeable = False
        self.__dict__["domain"] = tuple(menus)
        self.__dict__["_dense"] = _Dense(
            {m: i for i, m in enumerate(menus)}, row, col, start, values, scale, universe.size)
        self.__dict__["_clamped"] = None if exact else (low, zero)
        for i in np.flatnonzero(off)[:1]:
            self._check_row(menus[i], self.table[menus[i]], exact)  # raises
        return self

    def __getattr__(self, name: str):
        """``table`` of a table made by :meth:`_from_rows`, built from its
        membership list on first read and kept, or of a parsed exact file,
        from its ``_ints`` in file order; no other attribute is found here."""
        if name != "table" or "_clamped" not in self.__dict__ and "_ints" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        if "_ints" in self.__dict__:
            rows, scale = self._ints
            self.__dict__["table"] = {m: {a: Fraction(p, scale[m]) for a, p in row.items()} for m, row in rows.items()}
            return self.table
        view, clamped = self._dense, self._clamped
        if clamped is None:
            cells = map(Fraction, view.values.tolist(), view.scale[view.row].tolist())
        else:
            cells = view.values.astype(object)
            cells[clamped[0]] = clamped[1]
            cells = cells.tolist()
        names, cells = self.universe.alternatives, zip(view.col.tolist(), cells)
        table = self.__dict__["table"] = {
            m: {names[j]: p for j, p in islice(cells, len(m))} for m in self.domain
        }
        return table

    def has_menu(self, menu: Iterable[str]) -> bool:
        return frozenset(menu) in self._dense.rows

    def _recorded(self, menu: Iterable[str]) -> tuple[Menu, Mapping[str, Scalar]]:
        m = frozenset(menu)
        if m not in self.table:
            members = self.universe.sorted_members(m)
            raise MissingDataError(f"menu {members} not in the observed domain")
        return m, self.table[m]

    def prob(self, alt: str, menu: Iterable[str]) -> Scalar:
        """Choice probability of ``alt`` from ``menu``; zero off the menu."""
        _, row = self._recorded(menu)
        self.universe.index(alt)
        return row.get(alt, 0)  # a row records only its menu's members

    def row(self, menu: Iterable[str]) -> dict[str, Scalar]:
        m, row = self._recorded(menu)
        return {a: row.get(a, 0) for a in self.universe.sorted_members(m)}

    def as_float(self) -> "StochasticChoice":
        return StochasticChoice(
            self.universe,
            {m: {a: float(p) for a, p in row.items()} for m, row in self.table.items()},
            eps_sum=max(self.eps_sum, ROW_SUM_TOL),
        )


@dataclass(frozen=True)
class ChoiceCounts(_MenuRows):
    """Observed choice counts per (menu, alternative)."""

    universe: Universe
    counts: Mapping[Menu, Mapping[str, int]]

    _field = "counts"

    def __post_init__(self):
        rows = _normalised_rows(
            self, "count recorded for {!r} outside its menu",
            "choice counts need at least one menu",
            lambda alt, n: _integer(f"count for {alt!r}", n, "a non-negative integer", 0),
        )
        for menu, row in rows:
            if sum(row.values()) <= 0:
                raise InvalidParameterError(
                    f"menu {self.universe.sorted_members(menu)} has no observations"
                )

    def trials(self, menu: Iterable[str]) -> int:
        m = self.universe.menu(menu)
        if m not in self.counts:
            members = self.universe.sorted_members(m)
            raise MissingDataError(f"menu {members} has no counts in the data")
        return sum(self.counts[m].values())

    def total(self) -> int:
        return sum(self.trials(m) for m in self.counts)

    def to_frequencies(self) -> StochasticChoice:
        """Empirical choice frequencies, suitable for the identification routines:
        each count over its menu's total, int / int, correctly rounded.  Below
        2**53 the dense view's float quotients are those values, so where every
        row records each member the table is built from them; else cell by cell."""
        rows = self.counts.values()
        if max(sum(r.values()) for r in rows) < 2**53 and sum(map(len, rows)) == len(self._dense.values):
            view = self._dense
            freqs = view.values / np.add.reduceat(view.values, view.start)[view.row]
            return StochasticChoice._from_rows(
                self.universe, self.domain, view.row, view.col, freqs, None, ROW_SUM_TOL, 0.0)
        totals = {m: sum(row.values()) for m, row in self.counts.items()}
        table = {m: {a: c / totals[m] for a, c in row.items()} for m, row in self.counts.items()}
        return StochasticChoice(self.universe, table)

    def _exact_frequencies(self) -> StochasticChoice:
        """:meth:`to_frequencies` in exact arithmetic, through the same
        ``_from_rows``: each count an int over its menu's total (a member a
        row omits counts 0), with no ``Fraction`` per cell."""
        menus = self.domain
        row, col, start, counts = _memberships(self.universe, menus, map(self.counts.__getitem__, menus))
        counts = np.array(counts, dtype=object)
        return StochasticChoice._from_rows(
            self.universe, menus, row, col, counts, np.add.reduceat(counts, start), ROW_SUM_TOL, 0.0)


def _same_universe(a: StochasticChoice, b: StochasticChoice) -> None:
    """:class:`InvalidParameterError` unless ``a`` and ``b`` are over one
    universe, its alternatives in one order: the kernels index rows by it."""
    if a.universe != b.universe:
        u, v = a.universe.alternatives, b.universe.alternatives
        raise InvalidParameterError(f"the tables are over different universes, {u!r} and {v!r}")


def _shared(a: StochasticChoice, b: StochasticChoice, message: str) -> list[Menu]:
    """:func:`_same_universe`, then the menus ``a`` and ``b`` share, in ``a``'s
    domain order, or :class:`InsufficientDataError` with ``message``."""
    _same_universe(a, b)
    menus = [m for m in a.domain if m in b._dense.rows]
    if not menus:
        raise InsufficientDataError(message)
    return menus


def _join(a: StochasticChoice, b: StochasticChoice, message: str):
    """The :func:`_shared` menus, then the memberships, c_S or None, and values of :func:`_rows`."""
    menus = _shared(a, b, message)
    return (menus, *_rows((a, b), menus))


def sup_distance(a: StochasticChoice, b: StochasticChoice) -> Scalar:
    """Sup-norm distance between two choice functions on their common menus."""
    _, row, _, c, (rows_a, rows_b) = _join(a, b, "the two choice functions share no menus")
    gaps = np.abs(rows_a - rows_b).tolist()
    worst = max(gaps if c is None else map(Fraction, gaps, c[row].tolist()))
    return worst if worst > 0 else 0


# ---------------------------------------------------------------------------
# Model parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LamParams:
    """A mixture representation: utilities ``u``, ``v`` > 0 and compliance.

    Utilities are kept on the canonical scale u(anchor) = v(anchor) = 1,
    which pins down the otherwise arbitrary scale factor of each Luce rule.
    Use :meth:`normalized` to build parameters from unscaled utilities.
    """

    universe: Universe
    u: Mapping[str, Scalar]
    v: Mapping[str, Scalar]
    alpha: Scalar
    anchor: str
    is_exact: bool = field(init=False, compare=False)

    def __post_init__(self):
        self.universe.index(self.anchor)
        exact = is_exact_scalar(self.alpha)
        if isinstance(self.alpha, int) and not isinstance(self.alpha, bool):
            object.__setattr__(self, "alpha", Fraction(self.alpha))
        for name, vec in (("u", self.u), ("v", self.v)):
            clean: dict[str, Scalar] = {}
            for alt in self.universe.alternatives:
                if alt not in vec:
                    raise InvalidParameterError(f"{name} missing value for {alt!r}")
                val = vec[alt]
                if isinstance(val, int) and not isinstance(val, bool):
                    val = Fraction(val)  # ints join the exact path
                if not 0 < val < math.inf:
                    raise InvalidParameterError(
                        f"{name}({alt!r}) = {_show(val)}; utilities must be positive and finite"
                    )
                exact = exact and is_exact_scalar(val)
                clean[alt] = val
            anchor_val = clean[self.anchor]
            slack = 0 if is_exact_scalar(anchor_val) else 1e-12
            if abs(anchor_val - 1) > slack:
                raise InvalidParameterError(
                    f"{name}({self.anchor!r}) must equal 1 on the canonical scale; "
                    "use LamParams.normalized"
                )
            object.__setattr__(self, name, clean)
        if not (0 <= self.alpha <= 1):
            raise InvalidParameterError(f"alpha = {_show(self.alpha)} outside [0, 1]")
        object.__setattr__(self, "is_exact", exact)

    @classmethod
    def normalized(
        cls,
        universe: Universe,
        u: Mapping[str, Scalar],
        v: Mapping[str, Scalar],
        alpha: Scalar,
        anchor: str | None = None,
    ) -> "LamParams":
        """Build params from unscaled positive utilities, dividing by the anchor."""
        anchor = universe.alternatives[0] if anchor is None else anchor
        scales = {}
        for name, vec in (("u", u), ("v", v)):
            if anchor not in vec or not vec[anchor] > 0:
                raise InvalidParameterError(f"{name} needs a positive anchor value")
            base = vec[anchor]
            scales[name] = Fraction(base) if is_exact_scalar(base) else base
        return cls(
            universe=universe,
            u={a: u[a] / scales["u"] for a in universe.alternatives},
            v={a: v[a] / scales["v"] for a in universe.alternatives},
            alpha=alpha,
            anchor=anchor,
        )

    def swapped(self) -> "LamParams":
        """The observationally equivalent representation (v, u, 1 - alpha)."""
        return LamParams(self.universe, dict(self.v), dict(self.u), 1 - self.alpha, self.anchor)

    def ratio(self) -> dict[str, Scalar]:
        """Per-alternative ratio u(a)/v(a); constant iff perfectly aligned."""
        return {a: self.u[a] / self.v[a] for a in self.universe.alternatives}

    def as_float(self) -> "LamParams":
        return LamParams(
            self.universe,
            {a: float(x) for a, x in self.u.items()},
            {a: float(x) for a, x in self.v.items()},
            float(self.alpha),
            self.anchor,
        )

    def u_vector(self) -> tuple[Scalar, ...]:
        return tuple(self.u[a] for a in self.universe.alternatives)

    def v_vector(self) -> tuple[Scalar, ...]:
        return tuple(self.v[a] for a in self.universe.alternatives)


# ---------------------------------------------------------------------------
# Instability tuples and regime reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InstabilityTuple:
    """Index (x, y, S, T) at which instability measures are evaluated."""

    x: str
    y: str
    menu_s: Menu
    menu_t: Menu

    def __post_init__(self):
        object.__setattr__(self, "menu_s", frozenset(self.menu_s))
        object.__setattr__(self, "menu_t", frozenset(self.menu_t))
        if self.x == self.y:
            raise InvalidParameterError("instability tuples need two distinct alternatives")
        for alt in (self.x, self.y):
            if alt not in self.menu_s or alt not in self.menu_t:
                raise InvalidParameterError(
                    f"{alt!r} must belong to both menus of the tuple"
                )

    def describe(self, universe: Universe) -> str:
        s = ",".join(universe.sorted_members(self.menu_s))
        t = ",".join(universe.sorted_members(self.menu_t))
        return f"({self.x},{self.y},{{{s}}},{{{t}}})"


REGIMES = ("aligned", "compliant", "autonomous", "adversarial", "misaligned")


@dataclass(frozen=True)
class RegimeReport:
    """Behavioral regime of a parameter tuple plus the ratio diagnostic."""

    regime: str
    ratio: Mapping[str, Scalar]
    tol: Scalar

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise InvalidParameterError(f"unknown regime {self.regime!r}")
