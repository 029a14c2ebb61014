"""Seeded random-instance generators used across the test suite."""

import random
from fractions import Fraction as F
from itertools import combinations

from lam import LamParams, StochasticChoice, Universe, lam_table, luce_table

ALT_NAMES = tuple("abcdefghij")


def names(n: int) -> tuple[str, ...]:
    """The first ``n`` alternative names: ``ALT_NAMES``, then z0, z1, ..."""
    return (ALT_NAMES + tuple(f"z{i}" for i in range(n - len(ALT_NAMES))))[:n]


def random_utility(rng: random.Random, alts, max_int: int = 20):
    return {a: F(rng.randint(1, max_int), rng.randint(1, max_int)) for a in alts}


def random_params(
    rng: random.Random,
    n_alts: int,
    alpha=None,
    require_misaligned: bool = True,
) -> LamParams:
    """Random rational parameters, anchored at the first alternative."""
    uni = Universe(names(n_alts))
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


def linear_design(n: int) -> tuple[Universe, list]:
    """A universe of ``n`` names and its linear design: for each y other than
    the anchor a (the first name), the menus {a,y}, {a,y,z}, {a,y,t} and
    {a,y,z,t}, with z and t the two names after y in a cycle over the other
    names, each menu once: 4(n - 1) menus from n = 6 on.  The ratio graph
    is a band of width 2 plus the anchor's star, with the cycle's wrap in
    its last rows."""
    uni = Universe(names(n))
    a, rest = uni.alternatives[0], uni.alternatives[1:]
    menus = {}
    for i, y in enumerate(rest):
        z, t = rest[(i + 1) % len(rest)], rest[(i + 2) % len(rest)]
        menus.update(dict.fromkeys(map(frozenset, ({a, y}, {a, y, z}, {a, y, t}, {a, y, z, t}))))
    return uni, list(menus)


def star_design(n: int) -> tuple[Universe, list]:
    """A universe of ``n`` names and every menu of 2-4 members that holds the
    anchor (the first name)."""
    uni = Universe(names(n))
    a, rest = uni.alternatives[0], uni.alternatives[1:]
    return uni, [frozenset((a, *others)) for r in (1, 2, 3) for others in combinations(rest, r)]


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
