"""Seeded random-instance generators used across the test suite."""

import random
from fractions import Fraction as F

from lam import LamParams, StochasticChoice, Universe, lam_table, luce_table

ALT_NAMES = tuple("abcdefghij")


def random_utility(rng: random.Random, alts, max_int: int = 20):
    return {a: F(rng.randint(1, max_int), rng.randint(1, max_int)) for a in alts}


def random_params(
    rng: random.Random,
    n_alts: int,
    alpha=None,
    require_misaligned: bool = True,
) -> LamParams:
    """Random rational parameters, anchored at the first alternative."""
    uni = Universe(ALT_NAMES[:n_alts])
    while True:
        u = random_utility(rng, uni.alternatives)
        v = random_utility(rng, uni.alternatives)
        a = F(rng.randint(1, 19), 20) if alpha is None else alpha
        params = LamParams.normalized(uni, u, v, a)
        if not require_misaligned or len(set(params.ratio().values())) > 1:
            return params


def random_alpha_generic(rng: random.Random, margin=F(1, 20)) -> F:
    """Rational compliance at least ``margin`` away from 0, 1/2, and 1."""
    while True:
        a = F(rng.randint(1, 39), 40)
        if min(a, 1 - a, abs(a - F(1, 2))) >= margin:
            return a


def forward_pair(params: LamParams, min_size: int = 2):
    """(AI, human) tables over all menus of at least ``min_size`` members."""
    menus = params.universe.all_menus(min_size)
    return (
        lam_table(params, menus),
        luce_table(params.universe, params.u, menus),
    )


def perturb_entry(
    rho: StochasticChoice, rng: random.Random, shift: float = 0.05
) -> StochasticChoice:
    """Shift one probability by ``shift`` and renormalize its row (float output)."""
    universe = rho.universe
    menus = [m for m in rho.domain if len(m) >= 2]
    menu = menus[rng.randrange(len(menus))]
    members = universe.sorted_members(menu)
    alt = members[rng.randrange(len(members))]
    table = {
        m: {a: float(p) for a, p in rho.table[m].items()} for m in rho.domain
    }
    row = table[menu]
    old = row[alt]
    moved = old + shift if old + shift < 0.99 else old - shift
    row[alt] = moved
    total = sum(row.values())
    table[menu] = {a: p / total for a, p in row.items()}
    return StochasticChoice(universe, table, eps_sum=1e-6)


def residual_miss_pair():
    """(AI, human) tables whose assembled mixture misses the AI data.

    The AI table is the mixture of u = (1, 2, 3, 5, 7), v = (4, 1, 6, 2, 3),
    alpha = 3/10 over every menu of a-e, except that the full menu's row is
    uniform; the human table is Luce(u) on the menus of at most 4 members.
    Both pipelines recover parameters from the intact menus, and the
    residual check then sees the altered row.
    """
    uni = Universe(tuple("abcde"))
    params = LamParams.normalized(
        uni,
        dict(zip(uni.alternatives, map(F, (1, 2, 3, 5, 7)))),
        dict(zip(uni.alternatives, map(F, (4, 1, 6, 2, 3)))),
        F(3, 10),
    )
    menus = uni.all_menus()
    table = dict(lam_table(params, menus).table)
    table[frozenset(uni.alternatives)] = {a: F(1, 5) for a in uni.alternatives}
    human = luce_table(uni, params.u, [m for m in menus if len(m) <= 4])
    return StochasticChoice(uni, table), human
