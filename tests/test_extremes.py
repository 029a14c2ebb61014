"""Crash-free pipelines on extreme tables: every call returns or raises a LamError.

Tables on three or four alternatives draw their cells from zeros,
subnormals, values near 1e-300 and 2**-1060, and entries that round to
within an ulp of 1, over full and partial menu designs.  Each pair goes
through the lab, axiom, IIA and field entry points in both scalar modes,
at several tolerances, and with the exact lab kernel both evaluated
outright and filtered in floats.
"""

from contextlib import nullcontext
from fractions import Fraction as F
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lam import (
    LamError,
    StochasticChoice,
    Universe,
    check_axioms,
    identify_field,
    identify_lab,
    iia_violations,
)
from lam import choice

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
    runs = [(ai, human, nullcontext()), (ai, human, mock.patch.object(choice, "_SCREEN_MIN", 0)),
            (ai.as_float(), human.as_float(), nullcontext())]
    for a, h, screen in runs:
        with screen:
            for tol in TOLS:
                for call in calls(a, h, tol):
                    try:
                        call()
                    except LamError:
                        pass
