"""Seeded instance generator owned by the benchmark.

Parameters, choice tables, perturbed pairs and the text of dataset and
parameter files are computed here with the standard library alone, from
a ``random.Random`` seeded by the workload seed.  Nothing iterates a set
or a dict of strings in hash order, so one seed gives the same inputs in
every process and under every ``PYTHONHASHSEED``.  The library receives
only the finished inputs, and edits to the test suite's generators
cannot shift them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as F
from itertools import combinations

ALT_NAMES = tuple("abcdefghijkl")

Menu = tuple  # alternatives in universe order
Table = dict  # Menu -> {alternative: probability}


@dataclass(frozen=True)
class Truth:
    """Mixture parameters on the canonical scale: u and v are 1 at ``alts[0]``."""

    alts: tuple[str, ...]
    u: dict
    v: dict
    alpha: F

    @property
    def anchor(self) -> str:
        return self.alts[0]


def draw_truth(rng: random.Random, n: int, margin: F = F(1, 20)) -> Truth:
    """Random rational parameters, misaligned, with alpha at least ``margin``
    away from 0, 1/2 and 1 (the generic compliance values)."""
    alts = ALT_NAMES[:n]
    while True:
        alpha = F(rng.randint(1, 39), 40)
        if min(alpha, 1 - alpha, abs(alpha - F(1, 2))) < margin:
            continue
        u = [F(rng.randint(1, 20), rng.randint(1, 20)) for _ in alts]
        v = [F(rng.randint(1, 20), rng.randint(1, 20)) for _ in alts]
        u_map = {a: x / u[0] for a, x in zip(alts, u)}
        v_map = {a: x / v[0] for a, x in zip(alts, v)}
        if len({u_map[a] / v_map[a] for a in alts}) > 1:
            return Truth(alts, u_map, v_map, alpha)


def all_menus(alts: tuple[str, ...], min_size: int = 2) -> list[Menu]:
    """Every menu of at least ``min_size`` alternatives, in canonical order."""
    out = []
    for r in range(min_size, len(alts) + 1):
        out.extend(combinations(alts, r))
    index = {a: i for i, a in enumerate(alts)}
    return sorted(out, key=lambda m: tuple(index[a] for a in m))


def luce_row(w: dict, menu: Menu) -> dict:
    total = sum(w[a] for a in menu)
    return {a: w[a] / total for a in menu}


def mixture_row(t: Truth, menu: Menu) -> dict:
    pu = luce_row(t.u, menu)
    pv = luce_row(t.v, menu)
    return {a: t.alpha * pu[a] + (1 - t.alpha) * pv[a] for a in menu}


def lab_pair(t: Truth, exact: bool) -> tuple[Table, Table]:
    """(AI, human) tables over all menus of two or more alternatives.

    Entries are computed exactly; float tables hold the correctly rounded
    doubles of the exact values."""
    menus = all_menus(t.alts)
    ai = {m: mixture_row(t, m) for m in menus}
    human = {m: luce_row(t.u, m) for m in menus}
    if not exact:
        ai, human = to_float(ai), to_float(human)
    return ai, human


def to_float(table: Table) -> Table:
    return {m: {a: float(p) for a, p in row.items()} for m, row in table.items()}


def perturb_entry(table: Table, shift: float = 1e-4) -> Table:
    """Float copy with the largest probability of the largest menu moved up
    by ``shift`` and that row renormalized.

    The shift is small, so the compliance estimated from an AI table
    perturbed this way stays close to the truth and the autonomous rule
    peeled off with it stays positive: on every seed identification takes
    the same path, a full IIA scan, to ``inconsistent``."""
    menu = max(table, key=len)
    out = to_float(table)
    row = out[menu]
    alt = max(menu, key=lambda a: row[a])
    row[alt] += shift
    total = sum(row[a] for a in menu)
    out[menu] = {a: row[a] / total for a in menu}
    return out


def _value(p, exact: bool) -> str:
    if exact:
        return str(p.numerator) if p.denominator == 1 else f"{p.numerator}/{p.denominator}"
    return repr(float(p))


def dataset_text(alts: tuple[str, ...], table: Table, exact: bool) -> str:
    """A probabilities dataset file in the library's documented format."""
    lines = ["mode,probabilities", "universe," + ";".join(alts), "menu,alternative,value"]
    for menu in all_menus(alts):
        if menu in table:
            tok = ";".join(menu)
            for a in menu:
                lines.append(f"{tok},{a},{_value(table[menu][a], exact)}")
    return "\n".join(lines) + "\n"


def params_text(t: Truth) -> str:
    """A parameter file in the library's documented format (exact literals)."""
    lines = [
        "universe," + ";".join(t.alts),
        f"anchor,{t.anchor}",
        f"alpha,{_value(t.alpha, True)}",
    ]
    for name, vec in (("u", t.u), ("v", t.v)):
        for a in t.alts:
            lines.append(f"{name},{a},{_value(vec[a], True)}")
    return "\n".join(lines) + "\n"
