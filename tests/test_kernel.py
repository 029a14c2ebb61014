"""The array instability kernel against the per-tuple scans it replaced.

The oracle below is the library's former per-tuple code: one canonical
row per tuple, compliance sums and axiom trackers kept tuple by tuple.
Its compliance sums add the entries' true values, a float64 entry taken
as the rational it equals, and float mode rounds the slope and the fit
once.  Every output visible through the public API must match it
exactly, in both scalar modes, down to the witness values, the
tie-breaks and the error messages.
"""

import math
import random
from fractions import Fraction as F
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gen
from lam import (
    InconsistentInputsError,
    InstabilityTuple,
    LamError,
    LamParams,
    NotIdentifiedError,
    NotLuceError,
    PartiallyIdentifiedError,
    StochasticChoice,
    Universe,
    check_axioms,
    composite_instability,
    estimate_alpha,
    identify_field,
    identify_lab,
    iia_violations,
    instability_tuples,
    lam_table,
    luce_table,
    own_instability,
    recover_luce_utility,
    satisfies_iia,
    sup_distance,
)
from lam import choice
from lam.choice import _first_nonpositive, _Kernel
from lam.lab import AlphaEstimate, AxiomReport, AxiomVerdict
from lam.types import _join, resolve_tol
from test_extremes import pairs as extreme_pairs

# ---------------------------------------------------------------------------
# Oracle: the per-tuple computations
# ---------------------------------------------------------------------------


def common_menus(ai, human):
    return _join(ai, human, "the AI and human data share no menus")[0]


def every(kernel):
    """The kernel's d, p and k over every canonical tuple."""
    return kernel.evaluate(np.arange(kernel.starts[-1]))


def scan_rows(rho, menus, other=None, scalar=None):
    """Plain ``(x, y, S, T, d, p)`` rows in canonical order, one tuple at a time,
    on the entries as recorded or as ``scalar`` maps them."""
    alts = rho.universe.alternatives

    def rows(table):
        return [
            table[m] if scalar is None else {a: scalar(v) for a, v in table[m].items()}
            for m in menus
        ]

    mine = rows(rho.table)
    theirs = mine if other is None else rows(other.table)
    for x, y in combinations(alts, 2):
        held = [
            (m, r.get(x, 0), r.get(y, 0), o.get(x, 0), o.get(y, 0))
            for m, r, o in zip(menus, mine, theirs)
            if x in m and y in m
        ]
        for (s, sx, sy, sx2, sy2), (t, tx, ty, tx2, ty2) in combinations(held, 2):
            d = sx * ty - sy * tx
            p = None if other is None else (sx * ty2 - sy * tx2) + (sx2 * ty - sy2 * tx)
            yield x, y, s, t, d, p


def oracle_first_violation(rho, eff):
    row = next((r for r in scan_rows(rho, rho.domain) if abs(r[4]) > eff), None)
    return None if row is None else InstabilityTuple(*row[:4])


def oracle_satisfies_iia(rho, tol=None):
    return oracle_first_violation(rho, resolve_tol(tol, rho.is_exact)) is None


def oracle_iia_violations(rho, tol=None):
    """Every tuple, in lexicographic order, whose own instability exceeds tol."""
    eff = resolve_tol(tol, rho.is_exact)
    return [t for t in instability_tuples(rho.universe, rho.domain) if abs(own_instability(rho, t)) > eff]


def oracle_luce_error(rho, tol=None):
    """The NotLuceError message ``recover_luce_utility`` must raise, or None."""
    universe = rho.universe
    eff = resolve_tol(tol, rho.is_exact)
    zero = _first_nonpositive(rho, eff)
    if zero is not None:
        return (
            f"positivity fails: probability of {zero[1]!r} in "
            f"{universe.sorted_members(zero[0])} is not above {eff!r}"
        )
    bad = [r for r in scan_rows(rho, rho.domain) if abs(r[4]) > eff]
    if bad:
        return (
            f"IIA violated at tolerance {eff!r} for {4 * len(bad)} tuples, e.g. "
            + InstabilityTuple(*bad[0][:4]).describe(universe)
        )
    return None


def exact_value(v):
    """An entry as the rational it equals; a float64 entry is a dyadic rational."""
    return F(float(v))


def oracle_estimate_alpha(rho_ai, rho_h, strategy="least-squares", tol=None):
    """Tests and the tuple choice on the entries as the library evaluates
    them; slope and fit from per-tuple sums of the true values of the
    entries, rounded once in float mode."""
    exact = rho_ai.is_exact and rho_h.is_exact
    eff = resolve_tol(tol, exact)
    menus = common_menus(rho_ai, rho_h)
    if sup_distance(rho_ai, rho_h) <= eff:
        raise PartiallyIdentifiedError(
            "AI and human choices coincide; alpha and v are not separately identified"
        )
    rows = list(scan_rows(rho_ai, menus, rho_h))
    true = rows if exact else list(scan_rows(rho_ai, menus, rho_h, exact_value))
    usable = [abs(row[5]) > eff for row in rows]
    best = None
    for row, ok in zip(rows, usable):
        if ok and (best is None or abs(row[5]) > abs(best[5])):
            best = row
    if not any(abs(row[4]) > eff for row in rows):
        raise NotIdentifiedError(
            "AI data satisfies IIA: compliance is 0 or 1, or the utilities "
            "are aligned; it cannot be point-identified",
            possible_regimes=("autonomous", "compliant", "aligned"),
        )
    if best is None:
        raise InconsistentInputsError(
            "AI data violates IIA while every composite instability vanishes; "
            "no mixture representation exists"
        )
    if strategy == "single-tuple":
        raw = best[4] / best[5]
    else:
        kept = [row for row, ok in zip(true, usable) if ok]
        raw = sum(r[4] * r[5] for r in kept) / sum(r[5] * r[5] for r in kept)
    ss_tot = sum(r[4] * r[4] for r in true)
    ss_res = sum((r[4] - F(raw) * r[5]) ** 2 for r in true)
    r_squared = 1 - ss_res / ss_tot if ss_tot > 0 else 1
    if not exact:
        raw, r_squared = float(raw), float(r_squared)
    alpha = raw if exact else min(max(raw, 0.0), 1.0)
    return AlphaEstimate(
        alpha=alpha,
        raw=raw,
        strategy=strategy,
        best=InstabilityTuple(*best[:4]),
        r_squared=r_squared,
        n_tuples=sum(usable),
    )


def _dominated(d, p, eff):
    sign_ok = d * p >= -eff
    size_ok = abs(d) <= abs(p) + eff
    if abs(d) > eff:
        sign_ok = sign_ok and d * p > 0
        if eff == 0:
            size_ok = size_ok and abs(d) < abs(p)
    return sign_ok and size_ok


def _bounded_divergence(universe, rho_ai, rho_h, menus, binding, eff):
    d, p = binding[4], binding[5]
    strict = eff == 0 and abs(d) > eff
    for menu in menus:
        row_ai, row_h = rho_ai.table[menu], rho_h.table[menu]
        for z in universe.sorted_members(menu):
            lhs = row_ai.get(z, 0) * abs(p)
            rhs = row_h.get(z, 0) * abs(d)
            if lhs <= rhs if strict else lhs < rhs - eff:
                t = InstabilityTuple(*binding[:4])
                return AxiomVerdict(
                    False,
                    witness=(t, universe.sorted_members(menu), z),
                    note=f"AI probability of {z!r} in "
                    f"{universe.sorted_members(menu)} is too small for the "
                    "instability ratio at " + t.describe(universe),
                )
    return AxiomVerdict(True)


def oracle_check_axioms(rho_ai, rho_h, tol=None):
    exact = rho_ai.is_exact and rho_h.is_exact
    eff = resolve_tol(tol, exact)
    universe = rho_ai.universe
    menus = common_menus(rho_ai, rho_h)

    def at(row):
        return InstabilityTuple(*row[:4])

    positivity = AxiomVerdict(True)
    for name, rho in (("ai", rho_ai), ("human", rho_h)):
        zero = _first_nonpositive(rho, eff)
        if zero is not None:
            positivity = AxiomVerdict(
                False,
                witness=(name, universe.sorted_members(zero[0]), zero[1]),
                note=f"{name} probability of {zero[1]!r} is not positive",
            )
            break

    t = oracle_first_violation(rho_h, eff)
    h_iia = AxiomVerdict(True)
    if t is not None:
        h_iia = AxiomVerdict(
            False, witness=(t,), note="human data violates IIA at " + t.describe(universe)
        )

    rows = list(scan_rows(rho_ai, menus, rho_h))
    ref = undominated = vanishing = binding = None
    for row in rows:
        d, p = row[4], row[5]
        if ref is None or abs(p) > abs(ref[5]):
            ref = row
        if undominated is None and not _dominated(d, p, eff):
            undominated = row
        if abs(p) <= eff:
            if vanishing is None and abs(d) > eff:
                vanishing = row
        elif binding is None or abs(d) * abs(binding[5]) > abs(binding[4]) * abs(p):
            binding = row

    proportionality = AxiomVerdict(True, note="no tuples to compare" if ref is None else "")
    if ref is not None:
        d_ref, p_ref = ref[4], ref[5]
        bad = next((r for r in rows if abs(r[4] * p_ref - d_ref * r[5]) > eff), None)
        if bad is not None:
            proportionality = AxiomVerdict(
                False,
                witness=(at(bad), at(ref)),
                note=f"instability ratios differ between {at(bad).describe(universe)} "
                f"and {at(ref).describe(universe)}",
            )

    bounded_instability = AxiomVerdict(True)
    if undominated is not None:
        t, (d, p) = at(undominated), undominated[4:]
        bounded_instability = AxiomVerdict(
            False,
            witness=(t, d, p),
            note=f"own instability {d!r} is not dominated by composite {p!r} at "
            + t.describe(universe),
        )

    if vanishing is not None:
        t = at(vanishing)
        bounded_divergence = AxiomVerdict(
            False,
            witness=(t, *vanishing[4:]),
            note="composite instability vanishes while own does not at "
            + t.describe(universe),
        )
    elif binding is None:
        bounded_divergence = AxiomVerdict(True, note="no tuples to compare")
    else:
        bounded_divergence = _bounded_divergence(universe, rho_ai, rho_h, menus, binding, eff)

    return AxiomReport(
        positivity=positivity,
        h_iia=h_iia,
        proportionality=proportionality,
        bounded_instability=bounded_instability,
        bounded_divergence=bounded_divergence,
        tol=eff,
    )


# ---------------------------------------------------------------------------
# Random cases
# ---------------------------------------------------------------------------


def canon(obj):
    """A comparable form that keeps scalar types: 1/2 and 0.5 must not match."""
    if isinstance(obj, InstabilityTuple):
        return ("tuple", obj.x, obj.y, obj.menu_s, obj.menu_t)
    if isinstance(obj, (AlphaEstimate, AxiomReport, AxiomVerdict)):
        return (type(obj).__name__,) + tuple(canon(v) for v in vars(obj).values())
    if isinstance(obj, (tuple, list)):
        return tuple(canon(v) for v in obj)
    if isinstance(obj, dict):
        return tuple((k, canon(v)) for k, v in obj.items())
    if isinstance(obj, LamError):
        return (type(obj).__name__, str(obj))
    return (type(obj).__name__, obj)


def outcome(f, *args, **kwargs):
    try:
        return canon(f(*args, **kwargs))
    except LamError as e:
        return canon(e)


def perturb_exact(rho, rng, shift=F(1, 50)):
    """Move one probability by ``shift`` and renormalize its row, exactly."""
    menus = [m for m in rho.domain if len(m) >= 2]
    menu = menus[rng.randrange(len(menus))]
    alt = rho.universe.sorted_members(menu)[rng.randrange(len(menu))]
    table = {m: dict(row) for m, row in rho.table.items()}
    table[menu][alt] += shift
    total = sum(table[menu].values())
    table[menu] = {a: p / total for a, p in table[menu].items()}
    return StochasticChoice(rho.universe, table)


def move_largest(rho, rng, shift):
    """Move one probability of the largest menu by ``shift`` and renormalize
    its row: only the pairs holding the moved alternative violate IIA."""
    table = {m: dict(row) for m, row in rho.table.items()}
    menu = max(rho.domain, key=len)
    alt = rho.universe.sorted_members(menu)[rng.randrange(len(menu))]
    table[menu][alt] += shift
    total = sum(table[menu].values())
    table[menu] = {a: p / total for a, p in table[menu].items()}
    return StochasticChoice(rho.universe, table)


def drop_entry(rho, rng):
    """Leave one alternative out of a menu of three or more (a zero entry)."""
    menus = [m for m in rho.domain if len(m) >= 3]
    menu = menus[rng.randrange(len(menus))]
    alt = rho.universe.sorted_members(menu)[rng.randrange(len(menu))]
    table = {m: dict(row) for m, row in rho.table.items()}
    del table[menu][alt]
    total = sum(table[menu][a] for a in sorted(table[menu]))
    table[menu] = {a: p / total for a, p in table[menu].items()}
    return StochasticChoice(rho.universe, table, eps_sum=1e-6)


def tied_params(rng, n):
    """Utilities from {1, 2} make many instabilities equal in size."""
    uni = Universe(gen.ALT_NAMES[:n])
    while True:
        u = {a: F(rng.choice([1, 2])) for a in uni.alternatives}
        v = {a: F(rng.choice([1, 2])) for a in uni.alternatives}
        params = LamParams.normalized(uni, u, v, F(rng.choice([1, 1, 2]), 3))
        if len(set(params.ratio().values())) > 1:
            return params


VARIANTS = ("clean", "human", "ai", "partial", "zeros", "tol", "ties", "open")


def random_case(rng, n, exact, variant):
    """(AI, human, anchor, tol) for one variant."""
    params = tied_params(rng, n) if variant == "ties" else gen.random_params(rng, n)
    menus = params.universe.all_menus(2)
    if variant == "partial":
        menus = [m for m in menus if rng.random() < 0.5] or menus
    ai, human = lam_table(params, menus), luce_table(params.universe, params.u, menus)
    if not exact:
        ai, human = ai.as_float(), human.as_float()
    bump = perturb_exact if exact else gen.perturb_entry
    tol = None
    if variant == "human":
        human = bump(human, rng)
    elif variant == "ai":
        ai = bump(ai, rng)
    elif variant == "zeros":
        ai = drop_entry(ai, rng)
        if rng.random() < 0.5:
            human = drop_entry(human, rng)
    elif variant == "tol":
        ai = bump(ai, rng)
        tol = rng.choice([F(1, 300), F(1, 40), 0.004, 0.02]) if exact else rng.choice([1e-3, 0.02])
    elif variant == "open":
        human = move_largest(human, rng, F(1, 50) if exact else 0.05)
    return ai, human, params.anchor, tol


CASES = [(n, exact, v) for n in (3, 4, 5, 6) for exact in (True, False) for v in VARIANTS]


def assert_matches_oracle(ai, human, anchor, tol):
    for strategy in ("least-squares", "single-tuple"):
        assert outcome(estimate_alpha, ai, human, strategy, tol) == outcome(
            oracle_estimate_alpha, ai, human, strategy, tol
        )
    assert canon(check_axioms(ai, human, tol)) == canon(oracle_check_axioms(ai, human, tol))
    for rho in (ai, human):
        assert satisfies_iia(rho, tol) == oracle_satisfies_iia(rho, tol)
        assert iia_violations(rho, tol) == oracle_iia_violations(rho, tol)
        got = outcome(recover_luce_utility, rho, anchor, tol)
        want = oracle_luce_error(rho, tol)
        if want is None:
            assert got[0] != "NotLuceError"  # a result, or a disconnected ratio graph
        else:
            assert got == ("NotLuceError", want)


@pytest.mark.parametrize("n, exact, variant", CASES)
def test_kernel_matches_per_tuple_oracle(n, exact, variant):
    rng = random.Random(f"{n}-{exact}-{variant}")
    for _ in range(3 if n < 6 else 1):
        assert_matches_oracle(*random_case(rng, n, exact, variant))


def test_kernel_matches_oracle_across_passes(monkeypatch):
    # One array pass covers a run of pairs holding equally many menus, cut
    # at _PASS_TUPLES tuples; tables up to n = 6 take one pass per run at
    # the default.  A small bound cuts the runs below into several passes.
    monkeypatch.setattr(choice, "_PASS_TUPLES", 256)
    choice._layout.cache_clear()
    try:
        rng, widths = random.Random(64), set()
        for n, exact, variant in [
            (5, True, "ai"), (5, False, "human"), (5, False, "zeros"),
            (6, True, "tol"), (6, True, "partial"), (6, False, "ai"), (6, False, "ties"),
        ]:
            ai, human, anchor, tol = random_case(rng, n, exact, variant)
            runs = _Kernel(ai, common_menus(ai, human), human).runs
            assert len(runs) > 1
            widths.update(len(xs) for xs, *_ in runs)
            assert_matches_oracle(ai, human, anchor, tol)
        assert max(widths) > 1
    finally:
        choice._layout.cache_clear()


@pytest.mark.parametrize("perturbed", [False, True])
def test_kernel_matches_oracle_at_seven_alternatives(perturbed):
    # n = 7, the size of the benchmark's exact pairs, on a random half of
    # the menus (the oracle takes 3-5 s on all of them): a mixture pair and
    # one with a perturbed AI cell
    rng = random.Random(f"7-{perturbed}")
    params = gen.random_params(rng, 7)
    menus = [m for m in params.universe.all_menus(2) if rng.random() < 0.5]
    ai, human = lam_table(params, menus), luce_table(params.universe, params.u, menus)
    if perturbed:
        ai = perturb_exact(ai, rng)
    assert_matches_oracle(ai, human, params.anchor, None)


@pytest.mark.parametrize("n, variant", [(n, v) for n in (4, 5) for v in VARIANTS])
def test_filtered_screen_matches_oracle(n, variant):
    assert_matches_oracle(*random_case(random.Random(f"filtered-{n}-{variant}"), n, True, variant))


def band_case(name, rng):
    """An exact (AI, human, anchor, tol) on n = 4 whose float evaluation
    leaves tuples undecided: tied maxima of |p|, a pair of aligned
    alternatives (d and p vanish on its tuples) under a rational tol far
    below float resolution, one cell moved by 2**-60, or two aligned
    alternatives with entries below 2**-500."""
    params, tol = tied_params(rng, 4) if name == "ties" else gen.random_params(rng, 4), None
    u, v = dict(params.u), dict(params.v)
    if name == "aligned":
        x, y = params.universe.alternatives[1:3]
        v[y] = v[x] * u[y] / u[x]
        tol = F(1, 10**20)
    elif name == "tiny":
        # d vanishes on (y, z), whose float products are subnormal
        y, z = params.universe.alternatives[-2:]
        u[y], u[z], v[y] = u[y] / 2**530, u[z] / 2**530, v[y] / 2**530
        v[z] = v[y] * u[z] / u[y]
    params = LamParams.normalized(params.universe, u, v, params.alpha)
    ai, human = gen.forward_pair(params)
    if name == "hair":
        ai = perturb_exact(ai, rng, F(1, 2**60))
    return ai, human, params.anchor, tol


@pytest.mark.parametrize("name", ["ties", "aligned", "hair", "tiny"])
def test_band_tuples_take_the_integer_fallback(monkeypatch, name):
    # the outputs match the oracle, and the integer fallback evaluated more
    # than the single tuple of a decided maximum: trusting the float filter
    # on these tuples would skip it
    flagged, values = [], _Kernel._values

    def spy(self, run, sel=None):
        if sel is not None:
            flagged.append(len(sel))
        return values(self, run, sel)

    monkeypatch.setattr(_Kernel, "_values", spy)
    assert_matches_oracle(*band_case(name, random.Random(name)))
    assert max(flagged, default=0) > 1


@pytest.mark.parametrize("n", [3, 4, 5])
def test_exact_kernels_evaluate_only_flagged_tuples(monkeypatch, n):
    # an exact kernel decides its tests on the float estimates: the integer
    # evaluation sees the band and the candidates of a maximum, never a
    # whole run
    flags, values = [], _Kernel._values

    def spy(self, run, sel=None):
        if self.exact:
            flags.append(sel)
        return values(self, run, sel)

    monkeypatch.setattr(_Kernel, "_values", spy)
    rng = random.Random(f"flagged-{n}")
    params = gen.random_params(rng, n)
    ai, human = gen.forward_pair(params)
    for a, h in ((ai, human), (perturb_exact(ai, rng), human), (ai, perturb_exact(human, rng))):
        identify_lab(a, h, params.anchor)
        check_axioms(a, h)
        iia_violations(a)
        if n > 3:
            identify_field(a, params.anchor)
    assert flags and all(among is not None for among in flags)


@pytest.mark.parametrize("variant", ["clean", "ai", "zeros", "partial"])
def test_witness_reads_make_no_evaluate_call(monkeypatch, variant):
    # raw and value read a tuple's own cells: a fresh exact kernel answers
    # every tuple with no pass, and with the values and scale the pass gives
    rng = random.Random(f"witness-{variant}")
    for n in (3, 4, 5):
        ai, human, _, _ = random_case(rng, n, True, variant)
        menus = common_menus(ai, human)
        want = every(_Kernel(ai, menus, human))
        calls, values = [], _Kernel._values

        def spy(self, run, sel=None):
            calls.append(sel)
            return values(self, run, sel)

        monkeypatch.setattr(_Kernel, "_values", spy)
        kernel = _Kernel(ai, menus, human)
        raws = [kernel.raw(i) for i in range(kernel.starts[-1])]
        values = [kernel.value(i) for i in range(kernel.starts[-1])]
        monkeypatch.undo()
        assert calls == []
        assert raws == list(zip(*(a.tolist() for a in want)))
        assert values == [(F(d, k), F(p, k)) for d, p, k in raws]


def test_proportional_makes_no_estimates_call(monkeypatch):
    # the Cauchy-Schwarz certificate of the unlifted sums decides alone:
    # no float estimates are formed for it, parallel or not
    calls, estimates = [], _Kernel._estimates

    def spy(self, run, sel=None):
        calls.append(self)
        return estimates(self, run, sel)

    monkeypatch.setattr(_Kernel, "_estimates", spy)
    rng = random.Random("certificate")
    verdicts = []
    for variant in ("clean", "human", "ai"):
        ai, human, _, _ = random_case(rng, 4, True, variant)
        verdicts.append(_Kernel(ai, common_menus(ai, human), human).slope is not None)
    assert calls == [] and verdicts == [True, False, False]


def test_filtered_kernel_with_no_usable_tuple():
    # a tolerance of 1 is above every |p| of this perturbed pair, whose d and
    # p are not parallel: the filtered ratio maximum has no tuple to pick
    ai, human, _, _ = random_case(random.Random("no-usable"), 4, True, "ai")
    assert _Kernel(ai, common_menus(ai, human), human).slope is None
    report = check_axioms(ai, human, F(1))
    assert report.bounded_divergence == AxiomVerdict(True, note="no tuples to compare")
    assert canon(report) == canon(oracle_check_axioms(ai, human, F(1)))


def test_estimates_are_within_their_radii():
    # |d~ - d| <= rd and |p~ - p| <= rp on every tuple, in exact arithmetic;
    # a tuple with an entry below 2**-500 has infinite radii
    rng = random.Random(83)
    cases = [random_case(rng, n, True, v) for n in (4, 5) for v in VARIANTS]
    cases.append(band_case("tiny", rng))
    for ai, human, _, _ in cases:
        kernel = _Kernel(ai, common_menus(ai, human), human)
        d, p, k = every(kernel)
        estimates = kernel._gather(kernel._estimates, np.arange(kernel.starts[-1]))
        low = ai.universe.alternatives[-2:] if ai is cases[-1][0] else ()
        tiny = [t.x in low or t.y in low for t in map(kernel.tuple_at, range(len(d)))]
        for est, radius, exact in ((estimates[0], estimates[2], d), (estimates[1], estimates[3], p)):
            assert np.isinf(radius).tolist() == tiny
            for e, r, v, s in zip(est.tolist(), radius.tolist(), exact.tolist(), k.tolist()):
                assert r == math.inf or abs(F(e) - F(v, s)) <= F(r)


def test_mixed_pair_is_evaluated_as_the_float_pair():
    # An exact table against a float one takes every product on
    # float(entry): witnesses and notes show floats, as for two float tables.
    rng = random.Random(37)
    ai, human = gen.forward_pair(gen.random_params(rng, 4))
    ai, human = perturb_exact(ai, rng, F(1, 5)), human.as_float()
    report = check_axioms(ai, human)
    assert canon(report) == canon(check_axioms(ai.as_float(), human))
    t, d, p = report.bounded_instability.witness
    assert type(d) is float and d == own_instability(ai.as_float(), t)
    assert type(p) is float and p == composite_instability(ai.as_float(), human, t)
    assert report.bounded_instability.note.startswith(f"own instability {d!r} ")
    for strategy in ("least-squares", "single-tuple"):
        est = estimate_alpha(ai, human, strategy)
        assert canon(est) == canon(estimate_alpha(ai.as_float(), human, strategy))
        assert type(est.raw) is float


def test_kernel_float_ties_are_broken_as_the_scan_did():
    # on float mixture data every own/composite ratio equals alpha up to
    # rounding, so the binding tuple rests on rounded cross products
    rng = random.Random(7)
    for _ in range(6):
        ai, human = gen.forward_pair(gen.random_params(rng, 5))
        ai, human = ai.as_float(), human.as_float()
        assert canon(check_axioms(ai, human)) == canon(oracle_check_axioms(ai, human))


def one_tuple_pair(ai_t, human_t):
    """Exact tables on {x,y} and {x,y,z}: one canonical tuple, (x,y,{x,y},{x,y,z}).

    Both {x,y} rows are uniform, so d = (b_T - a_T)/2 and
    p = (b'_T - a'_T)/2 + d for the {x,y,z} rows given.
    """
    uni = Universe(("x", "y", "z"))
    half = {"x": F(1, 2), "y": F(1, 2)}

    def table(row):
        return StochasticChoice(uni, {("x", "y"): half, ("x", "y", "z"): dict(zip("xyz", row))})

    return table(ai_t), table(human_t)


def test_kernel_boundary_cases():
    # |d| = |p| at tol 0: strictly dominated fails
    ai, human = one_tuple_pair((F(1, 5), F(3, 5), F(1, 5)), (F(2, 5), F(2, 5), F(1, 5)))
    cases = [(ai, human, None), (ai.as_float(), human.as_float(), 0)]
    # d = 1/5 + 2^-57 and p = 1/10 under a float tol of 0.1: |p| + 0.1 rounds
    # to a float just above d, while the exact sum lies just below it
    eps = F(1, 2**56)
    ai, human = one_tuple_pair(
        (F(1, 5), F(3, 5) + eps, F(1, 5) - eps), (F(1, 2), F(3, 10) - eps, F(1, 5) + eps)
    )
    assert oracle_check_axioms(ai, human, 0.1).bounded_instability.passed
    assert not oracle_check_axioms(ai, human, F(1, 10)).bounded_instability.passed
    cases += [(ai, human, 0.1), (ai, human, F(1, 10))]
    # no two menus share a pair of alternatives: no tuples at all
    uni = Universe(("x", "y", "z"))
    apart = {("x", "y"): {"x": F(1, 4), "y": F(3, 4)}, ("y", "z"): {"y": F(1, 3), "z": F(2, 3)}}
    ai = StochasticChoice(uni, apart)
    human = luce_table(uni, {"x": F(1), "y": F(2), "z": F(3)}, ai.domain)
    cases += [(ai, human, None), (ai.as_float(), human.as_float(), None)]
    # tolerances a hair below a tuple's own |d| or |p|, where the scaled
    # tolerance must be rounded down, not up
    rng = random.Random(43)
    for _ in range(4):
        ai, human = gen.forward_pair(gen.random_params(rng, 4))
        ai = perturb_exact(ai, rng)
        rows = list(scan_rows(ai, ai.domain, human))
        _, _, _, _, d, p = rows[rng.randrange(len(rows))]
        for value in (abs(d), abs(p)):
            if value:
                cases.append((ai, human, value - F(1, 10**40)))
    for ai, human, tol in cases:
        assert canon(check_axioms(ai, human, tol)) == canon(oracle_check_axioms(ai, human, tol))
        for strategy in ("least-squares", "single-tuple"):
            assert outcome(estimate_alpha, ai, human, strategy, tol) == outcome(
                oracle_estimate_alpha, ai, human, strategy, tol
            )
        assert satisfies_iia(ai, tol) == oracle_satisfies_iia(ai, tol)


# ---------------------------------------------------------------------------
# The identities behind the kernel
# ---------------------------------------------------------------------------


def det(u, v, s, t):
    return u[s] * v[t] - v[s] * u[t]


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def test_binet_cauchy_on_random_vectors():
    rng = random.Random(17)
    for m in range(2, 9):
        u, v, w, z = ([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m)] for _ in "uvwz")
        brute = sum(det(u, v, s, t) * det(w, z, s, t) for s, t in combinations(range(m), 2))
        assert brute == dot(u, w) * dot(v, z) - dot(u, z) * dot(v, w)
        # Lagrange's identity: the own instabilities of one pair vanish iff u, v are parallel
        assert sum(det(u, v, s, t) ** 2 for s, t in combinations(range(m), 2)) == (
            dot(u, u) * dot(v, v) - dot(u, v) ** 2
        )


@pytest.mark.parametrize("variant", ["clean", "human", "ai", "partial", "zeros"])
def test_kernel_sums_equal_brute_force(variant):
    rng = random.Random(variant)
    for n in (3, 4, 5):
        for exact in (True, False):
            ai, human, _, _ = random_case(rng, n, exact, variant)
            menus = common_menus(ai, human)
            rows = list(scan_rows(ai, menus, human))
            true = rows if exact else list(scan_rows(ai, menus, human, exact_value))
            kernel = _Kernel(ai, menus, human)
            # the sums and the flagged tuples' sums share one unstated positive scale
            got = kernel.sums()
            want = [sum(r[i] * r[j] for r in true) for i, j in ((4, 4), (4, 5), (5, 5))]
            scale = F(got[0] + got[2]) / (want[0] + want[2]) if want[0] + want[2] else 1
            assert scale > 0 and list(got) == [scale * w for w in want]
            flags = np.array([rng.random() < 0.5 for _ in rows], dtype=bool)
            kept = [r for r, flag in zip(true, flags) if flag]
            assert kernel.sums(out=np.split(flags, kernel.starts[1:-1]))[3:] == (
                scale * sum(r[4] * r[5] for r in kept),
                scale * sum(r[5] * r[5] for r in kept),
            )
            values = [kernel.value(i) for i in range(kernel.starts[-1])]
            assert [d for d, _ in values] == [r[4] for r in rows]
            assert [p for _, p in values] == [r[5] for r in rows]
            assert [kernel.tuple_at(i) for i in range(len(values))] == [
                InstabilityTuple(*r[:4]) for r in rows
            ]


def padded(kernel):
    """A float kernel's two tables side by side as menus x 2n rows, 0 off each menu."""
    n = kernel.universe.size
    rows = np.zeros((len(kernel.menus), 2 * n))
    rows[kernel.row, kernel.col], rows[kernel.row, n + kernel.col] = kernel.mine, kernel.theirs
    return rows


def dyadic_sums(kernel, flags):
    """A float kernel's sums in object ints: its rows as one set of
    ``_dyadic`` ints, each pair's sums from Python dot products by
    Binet-Cauchy, and the tuples that the flat canonical mask ``flags``
    marks one by one."""
    rows = choice._dyadic(padded(kernel))[0].tolist()
    n, alts = kernel.universe.size, kernel.universe.alternatives
    sums, first = [0] * 5, 0

    def bc(u, v, w, z):  # the sum over S < T of det(u, v) det(w, z)
        return dot(u, w) * dot(v, z) - dot(u, z) * dot(v, w)

    for x, y in combinations(range(n), 2):
        held = [r for r, m in zip(rows, kernel.menus) if alts[x] in m and alts[y] in m]
        if len(held) < 2:
            continue
        a, b, a2, b2 = ([r[c] for r in held] for c in (x, y, n + x, n + y))
        sums[0] += bc(a, b, a, b)
        sums[1] += bc(a, b, a, b2) + bc(a, b, a2, b)
        sums[2] += bc(a, b2, a, b2) + 2 * bc(a, b2, a2, b) + bc(a2, b, a2, b)
        s, t = np.triu_indices(len(held), 1)
        for j in np.flatnonzero(flags[first : first + len(s)]).tolist():
            d = det(a, b, s[j], t[j])
            p = det(a, b2, s[j], t[j]) + det(a2, b, s[j], t[j])
            sums[3] += d * p
            sums[4] += p * p
        first += len(s)
    return tuple(sums)


def assert_float_sums(ai, human, flags):
    """The float kernel's sums, with ``flags`` as its per-run ``out`` masks,
    are the object ints of :func:`dyadic_sums`, on the same scale."""
    kernel = _Kernel(ai, common_menus(ai, human), human)
    want = dyadic_sums(kernel, flags)
    assert kernel.sums() == want[:3]
    assert kernel.sums(out=np.split(flags, kernel.starts[1:-1])) == want
    return kernel, want


@settings(derandomize=True, deadline=None, max_examples=40, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(extreme_pairs(), st.integers(0, 2**32 - 1))
def test_float_sums_on_extreme_tables(pair, seed):
    # zeros, subnormals, 2**-1060, 1e-300 and entries within an ulp of 1 in
    # one table: limbs over more than 1,100 bits, most of them zero
    ai, human = (table.as_float() for table in pair)
    menus = common_menus(ai, human)
    total = _Kernel(ai, menus, human).starts[-1]
    flags = np.random.default_rng(seed).random(total) < 0.5
    kernel, want = assert_float_sums(ai, human, flags)
    # and the oracle is the tuples' true values times 2**(-4 b), for b the rows' exponent
    true = list(scan_rows(ai, menus, human, exact_value))
    scale = F(2) ** -(4 * choice._dyadic(padded(kernel))[1])
    kept = [r for r, flag in zip(true, flags) if flag]
    assert want == tuple(scale * sum(r[i] * r[j] for r in rows) for rows, (i, j) in zip(
        (true, true, true, kept, kept), ((4, 4), (4, 5), (5, 5), (4, 5), (5, 5))
    ))


def test_float_sums_at_ten_alternatives(monkeypatch):
    # every pair holds 256 menus, which narrows the limbs to 22 bits; one
    # pair's 32,640 tuples fill a run, so flags in one late run must meet
    # that run's tuples
    ai, human = (table.as_float() for table in gen.forward_pair(gen.random_params(random.Random(101), 10)))
    kernel, _ = assert_float_sums(ai, human, np.random.default_rng(5).random(1_468_800) < 0.001)
    assert kernel.starts[-1] == 1_468_800 and max(cells.shape[2] for cells in kernel.cells) == 256
    late = np.zeros(kernel.starts[-1], bool)
    late[kernel.starts[40] : kernel.starts[41]] = np.random.default_rng(6).random(32_640) < 0.01
    assert_float_sums(ai, human, late)

    def no_objects(*args):
        raise AssertionError("object ints built")

    # without flagged tuples no cell becomes an object int
    monkeypatch.setattr(choice, "_dyadic", no_objects)
    kernel = _Kernel(ai, common_menus(ai, human), human)
    unflagged = [np.zeros(hi - lo, bool) for lo, hi in zip(kernel.starts, kernel.starts[1:])]
    assert kernel.sums(out=unflagged) == kernel.sums() + (0, 0)


def wide_scale_pairs():
    """Exact n = 4 pairs whose menus' scales c_S span more than 40 orders of
    magnitude: d's utilities have denominators near 10**40, so every menu
    holding d has a huge c_S and the others small ones.  The mixture, and
    the same with one AI cell moved by 1/1000."""
    uni = Universe(tuple("abcd"))
    u = {"a": F(1), "b": F(2), "c": F(3), "d": F(5) + F(1, 10**40)}
    v = {"a": F(4), "b": F(1), "c": F(6), "d": F(2) - F(1, 10**41)}
    ai, human = gen.forward_pair(LamParams.normalized(uni, u, v, F(3, 10)))
    return [(ai, human), (perturb_exact(ai, random.Random(61), F(1, 1000)), human)]


def brute_parallel(rows) -> bool:
    """Whether d_i p_j = d_j p_i for every two tuples i, j."""
    return all(d * q == e * p for (*_, d, p), (*_, e, q) in combinations(rows, 2))


@pytest.mark.parametrize("variant", ["clean", "human", "ai", "partial", "zeros", "wide", "tiny"])
def test_proportional_equals_brute_force(variant):
    # d and p are parallel iff the unweighted ints D = k d and P = k p are,
    # whatever the spread of the tuples' scales k = c_S c_T; float pairs are
    # judged on the true values of their entries.  An exact kernel first
    # looks for a gap its float estimates decide, also on entries below 2**-500
    rng = random.Random(variant)
    if variant == "wide":
        cases = wide_scale_pairs()
    elif variant == "tiny":
        cases = [band_case("tiny", rng)[:2] for _ in range(3)]
        cases.append((perturb_exact(cases[0][0], rng, F(1, 2**600)), cases[0][1]))
    else:
        cases = [random_case(rng, n, exact, variant)[:2] for n in (3, 4, 5) for exact in (True, False)]
    verdicts = []
    for ai, human in cases:
        menus = common_menus(ai, human)
        true = list(scan_rows(ai, menus, human, None if ai.is_exact else exact_value))
        kernel = _Kernel(ai, menus, human)
        verdicts.append(kernel.slope is not None)
        assert verdicts[-1] == brute_parallel(true)
        if kernel.exact:  # the unlifted sums are those of D and P
            k = every(kernel)[2]
            ints = [(r[4] * c, r[5] * c) for r, c in zip(true, k.tolist())]
            assert all(d.denominator == p.denominator == 1 for d, p in ints)
            assert kernel.sums(lifted=False) == tuple(
                sum(x * y for x, y in pairs) for pairs in (
                    [(d, d) for d, _ in ints], [(d, p) for d, p in ints], [(p, p) for _, p in ints]
                )
            )
    if variant == "wide":
        ai, human = cases[0]
        scales = _Kernel(ai, common_menus(ai, human), human).c
        assert max(scales) > 10**40 * min(scales)
        assert verdicts == [True, False]
    elif variant == "clean":
        assert verdicts == [True, False] * 3  # float mixtures are not parallel in true values
    elif variant == "ai":
        assert not any(verdicts)
    elif variant == "tiny":
        assert verdicts == [True, True, True, False]


def test_exact_iia_test_agrees_with_scan():
    rng = random.Random(29)
    for n in (3, 4, 5, 6):
        for _ in range(4):
            params = gen.random_params(rng, n)
            human = luce_table(params.universe, params.u, params.universe.all_menus(2))
            assert satisfies_iia(human) and oracle_satisfies_iia(human)
            bad = perturb_exact(human, rng)
            assert satisfies_iia(bad) == oracle_satisfies_iia(bad)
            assert not satisfies_iia(bad)
            full = [
                t
                for t in instability_tuples(bad.universe, bad.domain)
                if own_instability(bad, t) != 0
            ]
            assert iia_violations(bad) == full
            with pytest.raises(NotLuceError, match=f"for {len(full)} tuples"):
                recover_luce_utility(bad, params.anchor)


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("n", [5, 6])
def test_one_table_passes_visit_only_open_pairs(monkeypatch, n, exact):
    # a Luce table with one entry of its largest menu moved: the n - 1 pairs
    # holding the moved alternative fail the certificate, and the one-table
    # passes scan their tuples alone, with the oracle's violations, count
    # and witness
    rng = random.Random(f"open-{n}-{exact}")
    params = gen.random_params(rng, n)
    rho = luce_table(params.universe, params.u, params.universe.all_menus(2))
    rho = move_largest(rho if exact else rho.as_float(), rng, F(1, 50) if exact else 0.05)
    pairs = list(combinations(rho.universe.alternatives, 2))
    opened = {pair for pair, quiet in zip(pairs, _Kernel(rho, rho.domain, eff=resolve_tol(None, exact)).quiet())
              if not quiet}
    assert len(opened) == n - 1
    scanned, parts = [], {name: getattr(_Kernel, name) for name in ("_values", "_estimates")}

    def spy(name):
        def counted(self, run, sel=None):
            if sel is None:
                scanned.extend(zip(run[0].tolist(), run[1].tolist()))
            return parts[name](self, run, sel)
        return counted

    for name in parts:
        monkeypatch.setattr(_Kernel, name, spy(name))
    assert iia_violations(rho) == oracle_iia_violations(rho)
    names = rho.universe.alternatives
    assert {(names[x], names[y]) for x, y in scanned} == opened and len(scanned) == len(opened)
    assert outcome(recover_luce_utility, rho, params.anchor) == ("NotLuceError", oracle_luce_error(rho))
    ai = lam_table(params, rho.domain)
    assert check_axioms(ai if exact else ai.as_float(), rho).h_iia.witness == (oracle_first_violation(rho, resolve_tol(None, exact)),)


def test_kernel_values_agree_with_public_measures():
    rng = random.Random(31)
    ai, human = gen.forward_pair(gen.random_params(rng, 4))
    bad = gen.perturb_entry(ai.as_float(), rng)
    for a, h in ((ai, human), (bad, human.as_float())):
        kernel = _Kernel(a, a.domain, h)
        for i, t in enumerate(instability_tuples(a.universe, a.domain, canonical=True)):
            assert kernel.tuple_at(i) == t
            d, p = kernel.value(i)
            assert d == own_instability(a, t)
            assert p == composite_instability(a, h, t)
            assert type(d) is type(own_instability(a, t))


@pytest.mark.parametrize("eff", [0, 0.0, 5e-324, 1e-9, 0.01, 1e-6, F(7, 3), F(1, 1024), 3])
def test_floor_scaled_equals_the_floor_of_the_exact_product(eff):
    # a float's denominator is a power of two, taken by a right shift;
    # other denominators keep the floor division
    from lam.choice import _floor_scaled

    rng = random.Random(37)
    scales = [0, 1, 7, 2**64 + 3, 10**30] + [rng.randrange(1, 10**rng.randint(1, 60)) for _ in range(40)]
    for s in scales:
        got = _floor_scaled(eff, s)
        assert type(got) is int and got == math.floor(F(eff) * s), s
    arr = np.array(scales, dtype=object)
    got = _floor_scaled(eff, arr)
    assert got.dtype == object
    assert got.tolist() == [math.floor(F(eff) * s) for s in scales]


# ---------------------------------------------------------------------------
# The per-pair IIA certificate (_Kernel.quiet) against a direct pass
# ---------------------------------------------------------------------------


def masks_oracle(rho, eff):
    """``satisfies_iia``, ``iia_violations`` and the IIA text of the
    NotLuceError of ``recover_luce_utility`` (None without one), from the
    masks of a pass over every tuple, with no certificate."""
    kernel = _Kernel(rho, rho.domain, eff=eff)
    bad = np.concatenate([big for _, _, (big,), _ in kernel.tested(["big"])])
    found = [kernel.tuple_at(i) for i in np.flatnonzero(bad).tolist()]
    uni = rho.universe
    full = sorted(
        (InstabilityTuple(x, y, s, t) for c in found for x, y in ((c.x, c.y), (c.y, c.x))
         for s, t in ((c.menu_s, c.menu_t), (c.menu_t, c.menu_s))),
        key=lambda t: (uni.index(t.x), uni.index(t.y), uni.menu_key(t.menu_s), uni.menu_key(t.menu_t)),
    )
    message = None
    if found and _first_nonpositive(rho, eff) is None:
        message = f"IIA violated at tolerance {eff!r} for {4 * len(found)} tuples, e.g. "
        message += found[0].describe(uni)
    return not found, full, message


def screened(rho, eff):
    """What the public calls report, through the certificate."""
    try:
        recover_luce_utility(rho, rho.universe.alternatives[0], eff)
        message = None
    except NotLuceError as e:
        message = None if str(e).startswith("positivity") else str(e)
    except LamError:  # a utility out of float range: after the IIA test
        message = None
    return satisfies_iia(rho, eff), iia_violations(rho, eff), message


def noisy_luce(uni, w, rng, noise):
    """A float Luce table of weights ``w`` over every menu, each cell
    scaled by 1 + U(-noise, noise), floored at 0, and its row renormalized."""
    table = {}
    for m in uni.all_menus():
        members = uni.sorted_members(m)
        total = sum(w[a] for a in members)
        row = [max(w[a] / total * (1 + noise * rng.uniform(-1, 1)), 0.0) for a in members]
        total = sum(row)
        table[m] = {a: p / total for a, p in zip(members, row)}
    return StochasticChoice(uni, table)


def test_iia_screen_matches_a_direct_pass():
    # Luce tables with noise of 0.1-10x tol, cells near 2**-500 and
    # subnormal cells, at tolerances from 0 to 0.1 and a Fraction: every
    # verdict, violation list and message equals the direct pass's
    rng = random.Random(83)
    uni = Universe(("a", "b", "c", "d"))
    weights = [
        (1.0, 3.0, 5.0, 7.0),
        (1.0, 2.0**-500, 3.0, 5.0),
        (1.0, 2.0**-500, 3 * 2.0**-500, 5.0),
        (1.0, 2.0**-1060, 3.0, 5.0),
        (1.0, 2.0**-540, 2.0**-541, 5.0),
    ]
    certified = fell_through = 0
    for w in weights:
        w = dict(zip(uni.alternatives, w))
        for eff in (0, 1e-300, 1e-9, 0.1, F(1, 10**9)):
            for scale in (0.1, 1.0, 10.0):
                rho = noisy_luce(uni, w, rng, min(scale * float(eff), 1.0))
                assert screened(rho, eff) == masks_oracle(rho, eff), (w, eff, scale)
                quiet = all(_Kernel(rho, rho.domain, eff=eff).quiet())
                certified += quiet
                fell_through += not quiet and not satisfies_iia(rho, eff)
    assert certified >= 10 and fell_through >= 10, (certified, fell_through)


def near_tol_tables():
    uni = Universe(("a", "b", "c", "d"))
    # one menu's row moved: only the pair (a, b) falls through to the pass
    w = dict(zip(uni.alternatives, (1.0, 3.0, 5.0, 7.0)))
    table = {m: dict(row) for m, row in noisy_luce(uni, w, random.Random(0), 0.0).table.items()}
    ab = frozenset("ab")
    table[ab] = {"a": table[ab]["a"] + 1e-7, "b": table[ab]["b"] - 1e-7}
    yield StochasticChoice(uni, table)
    # a pair at its bound: a = 0.4 wherever both are held and c = b - a is 0
    # at argmax a, then +-1e-7, so the largest |d| is 2 A max|c|
    yield StochasticChoice(uni, {
        ("a", "b", "c"): {"a": 0.4, "b": 0.4, "c": 0.2},
        ("a", "b", "c", "d"): {"a": 0.4, "b": 0.4 + 1e-7, "c": 0.1 - 1e-7, "d": 0.1},
        ("a", "b", "d"): {"a": 0.4, "b": 0.4 - 1e-7, "d": 0.2 + 1e-7},
    })


@pytest.mark.parametrize("table", [0, 1], ids=["moved-row", "tight-bound"])
def test_iia_screen_at_a_violation_within_two_ulps_of_tol(table):
    # tol steps over a violating tuple's |fl d| ulp by ulp, for the largest
    # |d| and a middle one; the pair (a, b) falls through each time, and on
    # the moved row it is the only one
    rho = list(near_tol_tables())[table]
    kernel = _Kernel(rho, rho.domain)
    d = every(kernel)[0]
    ab = [i for i in range(len(d)) if (kernel.tuple_at(i).x, kernel.tuple_at(i).y) == ("a", "b")]
    sizes = np.unique(np.abs(d[ab]))
    sizes = sizes[sizes > 1e-9]  # the pair's violations, above rounding noise
    for top in (sizes[-1], sizes[len(sizes) // 2]):
        for k in range(-2, 3):
            eff = float(top)
            for _ in range(abs(k)):
                eff = float(np.nextafter(eff, math.inf if k > 0 else 0.0))
            quiet = list(_Kernel(rho, rho.domain, eff=eff).quiet())
            assert not quiet[0] and (table == 1 or all(quiet[1:]))
            got = screened(rho, eff)
            assert got == masks_oracle(rho, eff), (top, k)
            if top == sizes[-1] and table == 0:
                assert got[0] == (k >= 0)
