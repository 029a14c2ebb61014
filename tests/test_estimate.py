"""Simulation, likelihood, EM ascent, gradient checks, MLE fitting."""

import itertools
import math
import random
import warnings
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import gen
import oracles
from lam import (
    ChoiceCounts,
    InvalidParameterError,
    LamParams,
    MissingDataError,
    StochasticChoice,
    classify_regime,
    em_step,
    fit_mle,
    lam_choice,
    log_likelihood,
    log_likelihood_gradient,
    luce_choice,
    simulate_counts,
)
from lam import choice, estimate
from lam.cli import main
from lam.dataio import serialize_dataset
from lam.types import _memberships


def _perturbed(params, rng, radius=0.1):
    u = {
        a: val * (1 + rng.uniform(-radius, radius))
        for a, val in params.u.items()
    }
    v = {
        a: val * (1 + rng.uniform(-radius, radius))
        for a, val in params.v.items()
    }
    alpha = min(max(params.alpha + rng.uniform(-radius, radius), 0.0), 1.0)
    return LamParams.normalized(params.universe, u, v, alpha)


# ---------------------------------------------------------------------------
# simulate_counts
# ---------------------------------------------------------------------------


def test_simulate_deterministic(ex_b_params, uni4):
    menus = uni4.all_menus(2)
    first = simulate_counts(ex_b_params, menus, 500, seed=13)
    second = simulate_counts(ex_b_params, menus, 500, seed=13)
    assert first == second
    third = simulate_counts(ex_b_params, menus, 500, seed=14)
    assert first != third


def test_simulate_rejects_a_repeated_menu(ex_b_params):
    menus = [("x", "y"), ("x", "z"), ("y", "x")]
    with pytest.raises(InvalidParameterError, match=r"^duplicate menu \('x', 'y'\)$"):
        simulate_counts(ex_b_params, menus, 10, seed=1)


def draw_through_lam_choice(params, menus, n_per_menu, seed):
    """simulate_counts' draws, each menu's probabilities taken as
    ``float`` of :func:`lam_choice`'s values."""
    universe, rng = params.universe, np.random.default_rng(seed)
    out = {}
    for menu in sorted(map(frozenset, menus), key=universe.menu_key):
        probs = lam_choice(params, menu)
        p = np.array([float(q) for q in probs.values()])
        out[menu] = dict(zip(probs, rng.multinomial(n_per_menu, p / p.sum()).tolist()))
    return out


@pytest.mark.parametrize("kind", ["exact", "float", "mixed"])
def test_simulate_counts_equal_a_draw_through_lam_choice(kind):
    # utilities from 1e-8 to 1e8 with large denominators, where the
    # float of each int probability must be correctly rounded
    rng = random.Random(43)
    for trial in range(12):
        universe = gen.random_params(rng, 3 + trial % 4).universe
        u, v = (
            {a: F(rng.randint(1, 10**12), rng.randint(1, 10**12)) * F(10) ** rng.randint(-8, 8)
             for a in universe.alternatives}
            for _ in range(2)
        )
        alpha = F(rng.randint(0, 10**9), 10**9)
        params = LamParams.normalized(universe, u, v, alpha)
        if kind == "float":
            params = params.as_float()
        elif kind == "mixed":
            params = LamParams(universe, params.u, params.as_float().v, alpha, params.anchor)
        menus = universe.all_menus(1 + trial % 2)
        counts = simulate_counts(params, menus, 10**6, seed=trial)
        assert counts.counts == draw_through_lam_choice(params, menus, 10**6, trial)
        if kind != "mixed":  # the probabilities themselves, bit for bit
            num, den = choice._mixture(params, *_memberships(universe, menus)[:3])
            got = (num / den).astype(float) if kind == "exact" else num
            want = [float(q) for m in menus for q in lam_choice(params, m).values()]
            assert [float(g).hex() for g in got] == [w.hex() for w in want]


def test_simulate_uniform_band(uni3):
    params = LamParams(uni3, {a: F(1) for a in "xyz"}, {a: F(1) for a in "xyz"}, F(1), "x")
    counts = simulate_counts(params, [frozenset("xyz")], 300, seed=0)
    row = counts.counts[frozenset("xyz")]
    # 99.9% multinomial band around 100: z = 3.29, sd = sqrt(300 * 1/3 * 2/3)
    band = 3.29 * math.sqrt(300 / 9 * 2)
    assert all(abs(c - 100) <= band for c in row.values())
    assert counts.trials(frozenset("xyz")) == 300


def test_simulate_matches_forward_probability(ex_b_params):
    menu = frozenset({"x", "y"})
    n = 10**6
    counts = simulate_counts(ex_b_params, [menu], n, seed=99)
    freq = counts.counts[menu]["x"] / n
    assert abs(freq - 7 / 18) < 0.002


def test_simulate_frequencies_shrink_like_root_n(ex_a_params):
    menu = frozenset({"x", "y", "z"})
    p = {a: float(v) for a, v in lam_choice(ex_a_params, menu).items()}
    for n in (10**3, 10**4, 10**5):
        counts = simulate_counts(ex_a_params, [menu], n, seed=7)
        for alt, c in counts.counts[menu].items():
            sd = math.sqrt(p[alt] * (1 - p[alt]) / n)
            assert abs(c / n - p[alt]) <= 5 * sd


def test_counts_validation(uni3):
    with pytest.raises(InvalidParameterError):
        ChoiceCounts(uni3, {("x", "y"): {"x": 3, "z": 1}})
    with pytest.raises(InvalidParameterError):
        ChoiceCounts(uni3, {("x", "y"): {"x": 1.5, "y": 1}})
    with pytest.raises(InvalidParameterError):
        ChoiceCounts(uni3, {("x", "y"): {"x": 0, "y": 0}})


def test_counts_reject_a_repeated_menu(uni3):
    rows = {("x", "y"): {"x": 3, "y": 1}, ("y", "x"): {"x": 1, "y": 9}}
    with pytest.raises(InvalidParameterError, match=r"^duplicate menu \('x', 'y'\)$"):
        ChoiceCounts(uni3, rows)


def test_counts_to_frequencies(uni3):
    counts = ChoiceCounts(uni3, {("x", "y"): {"x": 30, "y": 10}})
    rho = counts.to_frequencies()
    assert rho.prob("x", frozenset({"x", "y"})) == 0.75


def dict_frequencies(counts):
    """Each count over its menu's total, int / int, through the dict constructor."""
    return StochasticChoice(counts.universe, {
        m: {a: c / sum(row.values()) for a, c in row.items()} for m, row in counts.counts.items()
    })


def test_to_frequencies_equals_the_dict_table_bit_for_bit(uni3):
    # simulated counts with zeros, rows that omit a member, and rows whose
    # totals pass 2**53, where float sums of the counts would round
    rng = random.Random(37)
    cases = [random_counts(rng, n, partial) for n in (3, 4, 5, 6) for partial in (False, True)]
    cases.append(ChoiceCounts(uni3, {("x", "y"): {"x": 3}, ("x", "y", "z"): {"x": 1, "y": 0, "z": 2}}))
    big = {("x", "y"): {"x": 2**53 - 1, "y": 2}, ("x", "z"): {"x": 3, "z": 2**60 + 1},
           ("x", "y", "z"): {"x": 2**52, "y": 2**52 - 1, "z": 0}}
    cases.append(ChoiceCounts(uni3, big))
    cases.append(ChoiceCounts(uni3, {("x", "y", "z"): {"x": 10**400, "y": 1, "z": 0}}))
    for counts in cases:
        got, want = counts.to_frequencies(), dict_frequencies(counts)
        # from the dense view, with no second row check, where it is exact
        complete = all(len(row) == len(m) and sum(row.values()) < 2**53 for m, row in counts.counts.items())
        assert ("_clamped" in got.__dict__) == complete
        assert got == want
        assert (got.is_exact, got.is_positive, got.eps_sum) == (want.is_exact, want.is_positive, want.eps_sum)
        for m, row in want.table.items():
            assert [got.table[m][a].hex() for a in row] == [p.hex() for p in row.values()]
        assert got.domain == want.domain
        g, w = got._dense, want._dense
        assert all(np.array_equal(getattr(g, k), getattr(w, k)) for k in ("row", "col", "start"))
        assert g.values.tobytes() == w.values.tobytes()


# ---------------------------------------------------------------------------
# log-likelihood and gradient
# ---------------------------------------------------------------------------


def test_log_likelihood_certain_choice(uni3):
    params = LamParams(uni3, {a: F(1) for a in "xyz"}, {a: F(1) for a in "xyz"}, F(1, 2), "x")
    data = ChoiceCounts(uni3, {("x",): {"x": 1}})
    assert log_likelihood(params, data) == 0.0


def test_log_likelihood_symmetric_pair(uni3):
    params = LamParams(uni3, {a: F(1) for a in "xyz"}, {a: F(1) for a in "xyz"}, F(2, 7), "x")
    data = ChoiceCounts(uni3, {("x", "y"): {"x": 1}})
    assert log_likelihood(params, data) == pytest.approx(math.log(0.5), abs=1e-15)


def test_truth_beats_perturbations(ex_a_params, uni3):
    counts = simulate_counts(ex_a_params, uni3.all_menus(2), 10**5, seed=21)
    base = log_likelihood(ex_a_params, counts)
    rng = random.Random(22)
    for _ in range(100):
        other = _perturbed(ex_a_params.as_float(), rng)
        assert log_likelihood(other, counts) < base


def test_swap_invariance_of_likelihood(ex_b_params, uni4):
    counts = simulate_counts(ex_b_params, uni4.all_menus(2), 1000, seed=5)
    assert log_likelihood(ex_b_params, counts) == log_likelihood(
        ex_b_params.swapped(), counts
    )


def test_gradient_matches_finite_differences(uni4, ex_b_params):
    counts = simulate_counts(ex_b_params, uni4.all_menus(2), 2000, seed=8)
    rng = random.Random(1)
    step = 1e-5
    for _ in range(50):
        u = {a: (1.0 if a == "x" else math.exp(rng.uniform(-1, 1))) for a in "xyzt"}
        v = {a: (1.0 if a == "x" else math.exp(rng.uniform(-1, 1))) for a in "xyzt"}
        params = LamParams(uni4, u, v, rng.uniform(0.1, 0.9), "x")
        grad = log_likelihood_gradient(params, counts)

        def moved(key, dh):
            uu, vv, aa = dict(params.u), dict(params.v), params.alpha
            kind, alt = key
            if kind == "log_u":
                uu[alt] *= math.exp(dh)
            elif kind == "log_v":
                vv[alt] *= math.exp(dh)
            else:
                aa = 1 / (1 + math.exp(-(math.log(aa / (1 - aa)) + dh)))
            return LamParams(uni4, uu, vv, aa, "x")

        for key, got in grad.items():
            fd = (
                log_likelihood(moved(key, step), counts)
                - log_likelihood(moved(key, -step), counts)
            ) / (2 * step)
            assert abs(fd - got) <= 1e-6 * max(1.0, abs(got))


def test_gradient_requires_interior_alpha(uni3, ex_a_params):
    counts = simulate_counts(ex_a_params, uni3.all_menus(2), 100, seed=0)
    boundary = LamParams(uni3, dict(ex_a_params.u), dict(ex_a_params.v), F(1), "x")
    with pytest.raises(InvalidParameterError):
        log_likelihood_gradient(boundary, counts)


# ---------------------------------------------------------------------------
# EM
# ---------------------------------------------------------------------------


def test_em_alpha_stationary_when_components_equal(uni3):
    u = {"x": 1.0, "y": 0.4, "z": 2.2}
    params = LamParams(uni3, u, dict(u), 0.3141, "x")
    counts = simulate_counts(params, uni3.all_menus(2), 5000, seed=2)
    stepped = em_step(params, counts)
    assert stepped.alpha == pytest.approx(0.3141, abs=1e-12)


def test_em_never_decreases_likelihood():
    rng = random.Random(31)
    for _ in range(5):
        true = gen.random_params(rng, rng.choice([3, 4])).as_float()
        counts = simulate_counts(
            true, true.universe.all_menus(2), 2000, seed=rng.randrange(10**6)
        )
        params = gen.random_params(rng, true.universe.size).as_float()
        ll = log_likelihood(params, counts)
        for _ in range(60):
            params = em_step(params, counts)
            nxt = log_likelihood(params, counts)
            assert nxt >= ll - 1e-10
            ll = nxt


def test_em_boundary_freezes_alpha_with_warning(uni3, ex_a_params):
    counts = simulate_counts(ex_a_params, uni3.all_menus(2), 1000, seed=4)
    boundary = LamParams(uni3, dict(ex_a_params.u), dict(ex_a_params.v), F(1), "x")
    with pytest.warns(RuntimeWarning):
        stepped = em_step(boundary, counts)
    assert stepped.alpha == 1
    assert stepped.v == boundary.as_float().v  # inactive component untouched

    floor = LamParams(uni3, dict(ex_a_params.u), dict(ex_a_params.v), F(0), "x")
    with pytest.warns(RuntimeWarning):
        stepped = em_step(floor, counts)
    assert stepped.alpha == 0
    assert stepped.u == floor.as_float().u


def test_em_statistical_recovery(uni4, ex_b_params):
    counts = simulate_counts(ex_b_params, uni4.all_menus(2), 10**5, seed=33)
    rng = np.random.default_rng(11)
    v0 = {a: (1.0 if a == "x" else float(np.exp(rng.normal(0, 0.5)))) for a in "xyzt"}
    params = LamParams(uni4, {a: 1.0 for a in "xyzt"}, v0, 0.5, "x")
    ll = log_likelihood(params, counts)
    for _ in range(40000):
        params = em_step(params, counts)
        nxt = log_likelihood(params, counts)
        if abs(nxt - ll) < 1e-13 * max(1.0, abs(ll)):
            break
        ll = nxt
    target = ex_b_params.as_float()
    errs = []
    for cand in (params, params.swapped()):
        errs.append(
            max(
                abs(cand.alpha - target.alpha),
                max(abs(cand.u[a] - target.u[a]) for a in "xyzt"),
                max(abs(cand.v[a] - target.v[a]) for a in "xyzt"),
            )
        )
    assert min(errs) < 0.05


# ---------------------------------------------------------------------------
# fit_mle
# ---------------------------------------------------------------------------


def test_fit_deterministic(uni3, ex_a_params):
    counts = simulate_counts(ex_a_params, uni3.all_menus(2), 400, seed=6)
    first = fit_mle(counts, inits=3, seed=17, max_iter=300)
    second = fit_mle(counts, inits=3, seed=17, max_iter=300)
    assert first == second


def test_fit_luce_counts_is_aligned(uni3):
    # exact multiples of Luce probabilities for u = (1, 2, 3)
    counts = ChoiceCounts(
        uni3,
        {
            ("x", "y"): {"x": 200, "y": 400},
            ("x", "z"): {"x": 150, "z": 450},
            ("y", "z"): {"y": 240, "z": 360},
            ("x", "y", "z"): {"x": 100, "y": 200, "z": 300},
        },
    )
    fit = fit_mle(counts, inits=6, seed=2, max_iter=4000)
    assert fit.status == "ok"
    assert fit.converged
    assert classify_regime(fit.params, tol=0.02).regime == "aligned"
    assert all(abs(fit.params.u[a] - fit.params.v[a]) < 0.02 for a in "xyz")
    # and the common utility is the Luce rule behind the counts
    assert abs(fit.params.u["y"] - 2) < 0.01 and abs(fit.params.u["z"] - 3) < 0.01


def test_fit_monotone_trace(uni3, ex_a_params):
    counts = simulate_counts(ex_a_params, uni3.all_menus(2), 2000, seed=12)
    fit = fit_mle(counts, inits=4, seed=9, max_iter=3000)
    assert fit.monotone
    assert all(b - a >= -1e-10 for a, b in zip(fit.ll_trace, fit.ll_trace[1:]))
    assert fit.empirical_rho.prob("x", frozenset({"x", "y"})) == pytest.approx(
        counts.counts[frozenset({"x", "y"})]["x"] / 2000
    )


def test_fit_rejects_negative_max_iter(uni3, ex_a_params):
    counts = simulate_counts(ex_a_params, uni3.all_menus(2), 100, seed=0)
    with pytest.raises(InvalidParameterError):
        fit_mle(counts, inits=2, seed=1, max_iter=-3)
    assert fit_mle(counts, inits=2, seed=1, max_iter=0).iterations == 0


@pytest.mark.parametrize("seed", [-2, 1.5, True])
def test_seed_must_be_a_non_negative_integer(uni3, ex_a_params, seed):
    message = rf"^seed must be a non-negative integer, got {seed!r}$"
    with pytest.raises(InvalidParameterError, match=message):
        simulate_counts(ex_a_params, uni3.all_menus(2), 10, seed=seed)
    counts = simulate_counts(ex_a_params, uni3.all_menus(2), 10, seed=0)
    with pytest.raises(InvalidParameterError, match=message):
        fit_mle(counts, inits=2, seed=seed, max_iter=5)


def test_fit_converged_means_stationary(uni4, ex_b_params):
    counts = simulate_counts(ex_b_params, uni4.all_menus(2), 3000, seed=19)
    fit = fit_mle(counts, inits=3, seed=5, tol_ll=1e-12, max_iter=20000)
    grad = max(abs(g) for g in log_likelihood_gradient(fit.params, counts).values())
    assert fit.converged
    assert grad <= 1e-12 * max(1.0, abs(fit.log_likelihood))
    assert fit.grad_max == grad
    assert fit.iterations in fit.start_iterations


def test_fit_ends_a_start_where_em_reads_lower(uni4, ex_b_params):
    # at |ll| ~ 9.6e5 one ulp of ll exceeds 1e-10; on these counts, near the
    # aligned stationary point, the plain EM step reads lower after 20 maps,
    # before the gradient test passes, and the start ends there instead of
    # accepting it
    counts = simulate_counts(ex_b_params, uni4.all_menus(2), 10**5, seed=18)
    fit = fit_mle(counts, inits=1, seed=7, tol_ll=1e-13, max_iter=1000)
    assert fit.iterations < 1000
    assert not fit.converged
    assert fit.grad_max > 1e-13 * abs(fit.log_likelihood)
    assert fit.monotone
    assert all(b >= a for a, b in zip(fit.ll_trace, fit.ll_trace[1:]))


def test_criterion_7_fit_converges(uni4, ex_b_params):
    # the Newton finish certifies the fit that EM alone leaves at |grad| ~ 1e-4;
    # with -H unshifted, refused tries on an indefinite Hessian cost one
    # start 324 maps and the fit 440
    counts = simulate_counts(ex_b_params, uni4.all_menus(2), 10**5, seed=33)
    fit = fit_mle(counts, inits=4, seed=7, tol_ll=1e-13, max_iter=60000)
    assert fit.converged
    assert fit.grad_max <= 1e-13 * abs(fit.log_likelihood)
    assert fit.monotone
    assert fit.maximum
    assert sum(fit.start_iterations) <= 150


def test_fit_at_the_aligned_saddle_is_no_maximum(uni4, ex_b_params):
    # the one symmetric start ends at the aligned stationary point u = v,
    # where -H has a negative eigenvalue: stationary, but no maximum
    counts = simulate_counts(ex_b_params, uni4.all_menus(2), 10**5, seed=33)
    fit = fit_mle(counts, inits=1, seed=7, tol_ll=1e-13, max_iter=60000)
    assert fit.converged
    assert fit.params.u == fit.params.v
    assert not fit.maximum


def _criterion7_start(uni4, ex_b_params):
    """Criterion 7's first random start after 20 EM maps: the counts' view,
    the point, its E-step, gradient and -H, which has an eigenvalue near -746."""
    counts = simulate_counts(ex_b_params, uni4.all_menus(2), 10**5, seed=33)
    view = counts._dense
    rng = estimate._rng(7)  # fit_mle's draw for its second start, seed 7
    w = np.ones(8)
    for i in range(1, 4):
        w[i], w[4 + i] = math.exp(rng.normal()), math.exp(rng.normal())
    point = estimate._em_start(view, (w, float(rng.uniform(0.1, 0.9))), 1e-13, 20)[0]
    e = estimate._e_step(view, *point)
    grad = estimate._gradient(view, e, point[1])[estimate._free(4)]
    return view, point, e, grad, -estimate._hessian(view, e, point[1])


def test_newton_step_shifts_an_indefinite_hessian(uni4, ex_b_params):
    # at criterion 7's start the Cholesky of -H fails, a shifted one does not
    view, point, e, grad, neg = _criterion7_start(uni4, ex_b_params)
    assert estimate._cholesky_solve(neg.tolist(), grad.tolist()) is None
    step = estimate._newton_step(view, point, e, grad)
    assert step is not None
    assert step[2] >= -1e-10


def test_newton_step_refuses_a_non_finite_hessian(uni4, ex_b_params):
    # y's utility is 1e-600 of z's, which rounds y's probability on {y, z}
    # to 0 in both rules: its count over the mixture there is infinite
    view = simulate_counts(ex_b_params, uni4.all_menus(2), 100, seed=1)._dense
    w = np.array([1.0, 1e-300, 1e300, 1.0])
    point = (np.concatenate((w, w)), 0.5)
    e = estimate._e_step(view, *point)
    assert (e[-1] == 0).any()
    assert estimate._newton_step(view, point, e, np.ones(7)) is None


def test_newton_step_refuses_a_step_that_no_halving_makes_ascend(uni4, ex_b_params):
    # given the negated gradient, the step descends however far it is halved
    view = simulate_counts(ex_b_params, uni4.all_menus(2), 1000, seed=1)._dense
    point = (np.array([1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 3.0, 4.0]), 0.5)
    e = estimate._e_step(view, *point)
    grad = estimate._gradient(view, e, point[1])[estimate._free(4)]
    assert np.abs(grad).max() > 1.0
    assert estimate._newton_step(view, point, e, grad) is not None
    assert estimate._newton_step(view, point, e, -grad) is None


def test_refused_newton_tries_double_the_wait(monkeypatch, uni4, ex_b_params):
    # with no shift to try, no Newton step factors: every try is refused,
    # a start's k-th try comes once 20 * 2**k maps are spent, and SQUAREM
    # cycles carry the fit in between
    counts = simulate_counts(ex_b_params, uni4.all_menus(2), 10**5, seed=33)
    starts = []  # per start: its EM maps and the maps spent before each try
    em_start, m_step, newton_step = estimate._em_start, estimate._m_step, estimate._newton_step

    def counted_em_start(*args):
        starts.append({"em": 0, "tries": []})
        return em_start(*args)

    def counted_m_step(*args):  # one per EM map
        starts[-1]["em"] += 1
        return m_step(*args)

    def counted_newton_step(*args):  # a try is one map too
        starts[-1]["tries"].append(starts[-1]["em"] + len(starts[-1]["tries"]))
        step = newton_step(*args)
        assert step is None
        return step

    monkeypatch.setattr(estimate, "_NEWTON_SHIFTS", ())
    monkeypatch.setattr(estimate, "_em_start", counted_em_start)
    monkeypatch.setattr(estimate, "_m_step", counted_m_step)
    monkeypatch.setattr(estimate, "_newton_step", counted_newton_step)
    fit = fit_mle(counts, inits=3, seed=7, tol_ll=1e-13, max_iter=700)
    assert fit.start_iterations == tuple(s["em"] + len(s["tries"]) for s in starts)
    assert max(len(s["tries"]) for s in starts) >= 4
    for s in starts:
        assert all(20 * 2**k <= at < 20 * 2 ** (k + 1) for k, at in enumerate(s["tries"]))
    assert fit.monotone and fit.status == "ok"
    assert len(fit.ll_trace) > 10


def test_default_fit_converges_on_small_data():
    # an n=4 truth at 1000 draws per menu; EM alone spends max_iter here
    truth = gen.random_params(random.Random(2), 4)
    counts = simulate_counts(truth, truth.universe.all_menus(2), 1000, seed=2)
    fit = fit_mle(counts, inits=4)
    assert fit.status == "ok"
    assert fit.converged


@pytest.mark.parametrize("seed", range(10))
def test_default_fit_stops_below_max_iter(seed):
    # n=4 truths at 1000 draws per menu: without the shifted Newton step some
    # starts here spend all of max_iter
    truth = gen.random_params(random.Random(seed), 4)
    counts = simulate_counts(truth, truth.universe.all_menus(2), 1000, seed=seed)
    fit = fit_mle(counts, inits=4)
    assert max(fit.start_iterations) < 2000
    assert fit.monotone


def test_gradient_matches_a_per_cell_fsum_oracle(uni4, ex_b_params):
    # at the fitted criterion-7 point the gradient is near 4e-11, below one
    # ulp of the count sums (about 1e5) that a difference of sums would read
    counts = simulate_counts(ex_b_params, uni4.all_menus(2), 10**5, seed=33)
    fit = fit_mle(counts, inits=4, seed=7, tol_ll=1e-13, max_iter=60000)
    view = counts._dense
    row, col, counted = view.row, view.col, view.values
    w, a = estimate._vectors(fit.params)
    e = estimate._e_step(view, w, a)
    p, _, mix = e
    pu, pv = p[: len(mix)], p[len(mix) :]
    wu = counted * a * pu / mix
    wv = counted - wu

    def oracle(w, p):  # the same float64 memberships, summed exactly
        total = {s: w[row == s].sum() for s in set(row.tolist())}
        return [math.fsum(w[i] - p[i] * total[row[i]] for i in np.flatnonzero(col == k))
                for k in range(4)]

    d_alpha = math.fsum((wu - a * counted).tolist())
    want = np.array(oracle(wu, pu) + oracle(wv, pv) + [d_alpha])
    assert np.abs(estimate._gradient(view, e, a) - want).max() <= 1e-11


def test_fit_ends_every_start_at_zero_tolerance(uni4, ex_b_params):
    # no point passes a gradient test of 0; each start must still end, on a
    # Newton step that gains nothing or on the plain EM step reading lower
    counts = simulate_counts(ex_b_params, uni4.all_menus(2), 10**5, seed=33)
    fit = fit_mle(counts, inits=4, seed=7, tol_ll=0.0, max_iter=60000)
    assert max(fit.start_iterations) < 60000
    assert fit.monotone


def test_cholesky_solve_matches_a_known_system():
    # a = L L^T with L = [[2, 0, 0], [1, 3, 0], [-1, 2, 1]] and x = (1, -2, 3)
    a = [[4.0, 2.0, -2.0], [2.0, 10.0, 5.0], [-2.0, 5.0, 6.0]]
    x = [1.0, -2.0, 3.0]
    b = [math.fsum(r * c for r, c in zip(row, x)) for row in a]
    got = estimate._cholesky_solve(a, b)
    assert got == pytest.approx(x, abs=1e-14)


NOT_POSITIVE_DEFINITE = [
    [[1.0, 2.0], [2.0, 1.0]],  # eigenvalues 3 and -1
    [[-1.0, 0.0], [0.0, 2.0]],
    [[1.0, 1.0], [1.0, 1.0]],  # singular
    [[2.0, 1.0, 3.0], [1.0, 2.0, 3.0], [3.0, 3.0, 6.0]],  # row 3 = row 1 + row 2
    [[0.0, 0.0], [0.0, 0.0]],
]


@pytest.mark.parametrize("a", NOT_POSITIVE_DEFINITE)
def test_cholesky_solve_refuses_indefinite_and_singular(a):
    assert estimate._cholesky_solve(a, [1.0] * len(a)) is None


def _design_laplacian(design) -> np.ndarray:
    """The ratio graph's Laplacian of a (universe, menus) design without the
    anchor's row and column, the anchor being the first name."""
    uni, menus = design
    lap = np.zeros((uni.size, uni.size))
    for menu in menus:
        for x, y in itertools.combinations(sorted(map(uni.index, menu)), 2):
            lap[x, y] = lap[y, x] = -1.0
    lap -= np.diag(lap.sum(axis=1))
    return lap[1:, 1:]


def test_cholesky_solve_matches_the_dense_oracle(uni4, ex_b_params):
    # the envelope Cholesky drops only exact zeros: its solutions and its
    # None verdicts are the dense factorisation's, bit for bit, with the
    # sign of every zero, on full, banded and arrow matrices, the linear
    # design's Laplacian (its cyclic wrap fills the last rows; off the
    # edges the Laplacian once held -0.0), -H of criterion 7's start
    # (indefinite) and -H shifted, and the matrices that are not definite
    rng = np.random.default_rng(38)
    systems = []
    for m in (1, 2, 3, 5, 8, 13):
        g = rng.normal(size=(m, m))
        arrow = np.diag(rng.uniform(m, 2 * m, m))
        arrow[0, 1:] = arrow[1:, 0] = rng.uniform(-1, 1, m - 1)
        band = np.diag(rng.uniform(2, 4, m)) - np.eye(m, k=1) - np.eye(m, k=-1)
        systems += [g @ g.T + m * np.eye(m), band, arrow, arrow[::-1, ::-1]]
    for n in (8, 40):
        lap = _design_laplacian(gen.linear_design(n))
        systems += [lap, np.where(lap == 0, -0.0, lap)]
    neg = _criterion7_start(uni4, ex_b_params)[-1]
    systems += [neg, neg + 1000 * np.eye(len(neg))]
    verdicts = []
    for a in [s.tolist() for s in systems] + NOT_POSITIVE_DEFINITE:
        for b in (rng.normal(size=len(a)).tolist(), [0.0] * len(a)):
            got, want = estimate._cholesky_solve(a, b), oracles.dense_cholesky_solve(a, b)
            assert (got is None) == (want is None)
            if got is not None:
                assert [x.hex() for x in got] == [x.hex() for x in want]
            verdicts.append(got is None)
    assert sum(verdicts) == 2 * (1 + len(NOT_POSITIVE_DEFINITE))


def test_gain_equals_the_likelihood_difference():
    rng = random.Random(45)
    for _ in range(10):
        counts = random_counts(rng, rng.randint(3, 5), partial=rng.random() < 0.5)
        view = counts._dense
        p, q = (gen.random_params(rng, counts.universe.size).as_float() for _ in range(2))
        mix_p, mix_q = (estimate._e_step(view, *estimate._vectors(x))[-1] for x in (p, q))
        want = log_likelihood(q, counts) - log_likelihood(p, counts)
        assert abs(estimate._gain(view, mix_p, mix_q) - want) <= 1e-9


def test_hessian_matches_finite_differences():
    # the analytic Hessian against central differences of the analytic
    # gradient, both in the free coordinates (the anchor, index 0, pinned)
    rng = random.Random(46)
    for _ in range(8):
        counts = random_counts(rng, rng.randint(3, 5), partial=rng.random() < 0.5)
        view = counts._dense
        n = counts.universe.size
        point = estimate._vectors(gen.random_params(rng, n).as_float())
        hess = estimate._hessian(view, estimate._e_step(view, *point), point[1])
        x, h = estimate._coords(*point), 1e-5
        free = estimate._free(n)
        for col, i in enumerate(free):
            ends = []
            for dx in (h, -h):
                y = x.copy()
                y[i] += dx
                p = estimate._point(y)
                ends.append(estimate._gradient(view, estimate._e_step(view, *p), p[1])[free])
            fd = (ends[0] - ends[1]) / (2 * h)
            assert np.abs(fd - hess[:, col]).max() <= 1e-6 * np.abs(hess).max()


def dense_hessian(counts, point):
    """The log-likelihood Hessian in the free coordinates, from einsums over
    the dense menus x alternatives view (every cell off a menu 0 in the
    Luce probabilities and counts, 1 in the mixture), at ``point``."""
    (u, v), a = np.split(point[0], 2), point[1]
    view = counts._dense  # the padded menus x universe arrays
    mask = np.zeros((len(view.rows), view.bins), bool)
    mask[view.row, view.col] = True
    entries = np.zeros(mask.shape)
    entries[view.row, view.col] = view.values

    def luce(w):
        cells = mask * w
        return cells / cells.sum(axis=1)[:, None]

    pu, pv = luce(u), luce(v)
    mix = a * pu + (1 - a) * pv + ~mask
    r = entries / mix
    c = r / mix
    b = a * (1 - a)
    wu, wv = a * r * pu, (1 - a) * r * pv
    d = c * (pu - pv)

    def outer(y, p, q):  # sum over cells of y_k (e_k - p)(e_k - q)^T
        return (
            np.diag(y.sum(axis=0))
            - np.einsum("sk,sl->kl", y, q)
            - np.einsum("sk,sl->kl", p, y)
            + np.einsum("s,sk,sl->kl", y.sum(axis=1), p, q)
        )

    def curv(w, p):  # sum over menus of W (diag p - p p^T), W the menu's total w
        ws = w.sum(axis=1)
        return np.diag((ws[:, None] * p).sum(axis=0)) - np.einsum("s,sk,sl->kl", ws, p, p)

    def tilt(y, p):  # sum over cells of y_k (e_k - p)
        return y.sum(axis=0) - (y.sum(axis=1)[:, None] * p).sum(axis=0)

    uu = outer(wu - a * a * c * pu * pu, pu, pu) - curv(wu, pu)
    vv = outer(wv - (1 - a) ** 2 * c * pv * pv, pv, pv) - curv(wv, pv)
    uv = -outer(b * c * pu * pv, pu, pv)
    ua = (1 - a) * tilt(wu, pu) - a * b * tilt(d * pu, pu)
    va = -a * tilt(wv, pv) - (1 - a) * b * tilt(d * pv, pv)
    aa = (1 - 2 * a) * b * (r * (pu - pv)).sum() - b * b * (d * (pu - pv)).sum()
    full = np.block(
        [[uu, uv, ua[:, None]], [uv.T, vv, va[:, None]], [ua[None], va[None], np.array([[aa]])]]
    )
    n = len(u)
    free = [*range(1, n), *range(n + 1, 2 * n + 1)]
    return full[np.ix_(free, free)]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_hessian_matches_the_dense_einsum_oracle(n):
    # on all menus and on thinned designs, zero counts included
    rng = random.Random(47 + n)
    for partial, zero_wins in ((False, None), (True, None), (False, gen.ALT_NAMES[1]),
                               (True, gen.ALT_NAMES[n - 1])):
        counts = random_counts(rng, n, partial, zero_wins)
        for _ in range(3):
            point = estimate._vectors(gen.random_params(rng, n).as_float())
            got = estimate._hessian(counts._dense, estimate._e_step(counts._dense, *point), point[1])
            want = dense_hessian(counts, point)
            assert got.shape == want.shape == (2 * n - 1, 2 * n - 1)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_library_calls_no_lapack():
    # the one linear solver, behind the EM Newton step and the float Luce
    # utilities, is pure Python, and the field cubics are solved in ints in
    # both modes, so nothing depends on a LAPACK build
    modules = sorted(Path(estimate.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    assert [m.name for m in modules if "linalg" in m.read_text() or "np.roots" in m.read_text()] == []


@pytest.mark.parametrize("max_iter", [1, 2, 3, 7])
def test_fit_spends_at_most_max_iter_maps(uni4, ex_b_params, max_iter):
    counts = simulate_counts(ex_b_params, uni4.all_menus(2), 3000, seed=19)
    fit = fit_mle(counts, inits=3, seed=5, max_iter=max_iter)
    # no start reaches the gradient test this early, so each spends its budget
    assert fit.start_iterations == (max_iter,) * 3
    assert fit.iterations == max_iter
    assert not fit.converged
    assert 2 <= len(fit.ll_trace) <= max_iter + 1


def test_fit_raises_no_warning(uni3, uni4, ex_b_params):
    # y never beats x, so there is no interior MLE: utilities run off, and
    # extrapolated points overflow exp or round alpha to 1 unless guarded
    dominated = ChoiceCounts(
        uni3,
        {
            ("x", "y"): {"x": 100, "y": 0},
            ("x", "z"): {"x": 50, "z": 50},
            ("y", "z"): {"y": 30, "z": 70},
            ("x", "y", "z"): {"x": 60, "y": 0, "z": 40},
        },
    )
    field = simulate_counts(ex_b_params, uni4.all_menus(2), 2000, seed=3)
    for counts in (dominated, field):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_mle(counts, inits=4, seed=3, max_iter=1000)
        assert fit.monotone
        assert math.isfinite(fit.log_likelihood) and math.isfinite(fit.grad_max)


def test_cli_fit_rejects_negative_max_iter(capsys, tmp_path, ex_a_params, uni3):
    path = tmp_path / "counts.csv"
    path.write_text(serialize_dataset(simulate_counts(ex_a_params, uni3.all_menus(2), 100, seed=0)))
    code = main(["fit", "--data", str(path), "--starts", "2", "--seed", "1", "--max-iter", "-3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error:") and "max_iter" in captured.err


def test_trials_of_menu_without_data(uni4):
    counts = ChoiceCounts(uni4, {("x", "y"): {"x": 3, "y": 1}})
    assert counts.trials(["y", "x"]) == 4
    with pytest.raises(MissingDataError, match=r"\('x', 'z'\)"):
        counts.trials(["z", "x"])
    with pytest.raises(MissingDataError):
        counts.trials(["x", "q"])  # not in the universe


# ---------------------------------------------------------------------------
# The dense EM step against a dict-based reference
# ---------------------------------------------------------------------------


def reference_em_step(params, data):
    """One EM step written out over dicts: E-step, alpha, one MM step per component."""
    p = params.as_float()
    uni, a = p.universe, p.alpha

    def mm(w, table):
        wins = {x: 0.0 for x in uni.alternatives}
        denom = dict(wins)
        for menu, row in table.items():
            size = sum(w[x] for x in menu)
            for x in menu:
                denom[x] += sum(row.values()) / size
            for x, c in row.items():
                wins[x] += c
        new = {x: wins[x] / denom[x] if wins[x] > 0 else w[x] for x in uni.alternatives}
        return {x: val / new[p.anchor] for x, val in new.items()}

    raw = {m: {x: float(c) for x, c in row.items()} for m, row in data.counts.items()}
    if a >= 1:
        return LamParams(uni, mm(p.u, raw), p.v, a, p.anchor)
    if a <= 0:
        return LamParams(uni, p.u, mm(p.v, raw), a, p.anchor)
    wu, wv = {}, {}
    for menu, row in raw.items():
        pu, pv = luce_choice(p.u, menu), luce_choice(p.v, menu)
        wu[menu] = {x: c * a * pu[x] / (a * pu[x] + (1 - a) * pv[x]) for x, c in row.items()}
        wv[menu] = {x: c - wu[menu][x] for x, c in row.items()}
    alpha = sum(sum(row.values()) for row in wu.values()) / data.total()
    return LamParams(uni, mm(p.u, wu), mm(p.v, wv), alpha, p.anchor)


def assert_params_close(got, want, tol=1e-12):
    assert abs(got.alpha - want.alpha) <= tol
    for a in want.universe.alternatives:
        for g, w in ((got.u[a], want.u[a]), (got.v[a], want.v[a])):
            assert math.isfinite(g) and abs(g - w) <= tol * max(1.0, abs(w))


def random_counts(rng, n, partial=False, zero_wins=None):
    """Float data at n alternatives on all menus of 2+ or a random part of them."""
    truth = gen.random_params(rng, n).as_float()
    menus = truth.universe.all_menus(2)
    if partial:
        menus = rng.sample(menus, rng.randint(2, len(menus) - 1))
    counts = simulate_counts(truth, menus, 500, seed=rng.randrange(10**6))
    if zero_wins is not None:
        counts = ChoiceCounts(
            truth.universe,
            {m: {x: 0 if x == zero_wins else c for x, c in row.items()}
             for m, row in counts.counts.items()},
        )
    return counts


@pytest.mark.parametrize("partial", [False, True])
def test_em_step_matches_dict_reference(partial):
    rng = random.Random(41 + partial)
    for _ in range(12):
        counts = random_counts(rng, rng.randint(3, 5), partial)
        params = gen.random_params(rng, counts.universe.size).as_float()
        for _ in range(3):
            stepped = em_step(params, counts)
            assert_params_close(stepped, reference_em_step(params, counts))
            params = stepped


def test_em_step_zero_wins_without_nan_or_warning():
    rng = random.Random(43)
    for n in (3, 4, 5):
        idle = gen.ALT_NAMES[n - 1]
        counts = random_counts(rng, n, zero_wins=idle)
        params = gen.random_params(rng, n).as_float()
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            stepped = em_step(params, counts)
        assert_params_close(stepped, reference_em_step(params, counts))


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_em_step_boundary_matches_dict_reference(alpha):
    rng = random.Random(44)
    for _ in range(4):
        counts = random_counts(rng, rng.randint(3, 5), partial=rng.random() < 0.5)
        free = gen.random_params(rng, counts.universe.size).as_float()
        params = LamParams(counts.universe, free.u, free.v, alpha, free.anchor)
        with pytest.warns(RuntimeWarning, match="boundary"):
            stepped = em_step(params, counts)
        assert stepped.alpha == alpha
        frozen = stepped.v if alpha == 1.0 else stepped.u
        assert frozen == (params.v if alpha == 1.0 else params.u)
        assert_params_close(stepped, reference_em_step(params, counts))


def bits(*arrays) -> bytes:
    """The float64 bytes of arrays and floats end to end: equal iff every
    value and the sign of every zero are."""
    return b"".join(np.asarray(x, dtype=float).tobytes() for x in arrays)


@pytest.mark.parametrize("n", range(3, 11))
def test_one_vector_kernels_match_the_per_rule_oracles(n):
    # E-step, MM update (interior and both boundaries), gradient and the
    # Hessian's alpha tilts on (u, v) end to end against the per-rule
    # kernels, bit for bit, on all menus and on menus of 2-3 members, at
    # 3 draws per menu (many zero counts) and at 10**4
    rng = random.Random(39 + n)
    nrng = np.random.default_rng(n)
    truth = gen.random_params(rng, n).as_float()
    menus = truth.universe.all_menus(2)
    for design in (menus, [m for m in menus if len(m) <= 3]):
        for per_menu in (3, 10**4):
            view = simulate_counts(truth, design, per_menu, seed=rng.randrange(10**6))._dense
            assert (view.values == 0).any() or per_menu > 3
            for _ in range(3):
                u, v = (np.exp(nrng.normal(scale=3, size=n)) for _ in range(2))
                u, v = u / u[0], v / v[0]
                w, a = np.concatenate((u, v)), float(nrng.uniform(0.01, 0.99))
                e, old = estimate._e_step(view, w, a), oracles.per_rule_e_step(view, u, v, a)
                assert bits(*e) == bits(old[0], old[2], old[1], old[3], old[4])
                got, want = estimate._m_step(view, w, a, 0, e), oracles.per_rule_m_step(view, u, v, a, 0, old)
                assert bits(*got) == bits(*want)
                got, want = estimate._gradient(view, e, a), oracles.per_rule_gradient(view, old, a)
                assert bits(got) == bits(*want)
                h = estimate._hessian(view, e, a)
                tilts = oracles.per_rule_alpha_tilts(view, old, a)
                assert bits(h[:-1, -1], h[-1, :-1]) == bits(*tilts, *tilts)
                for edge in (0.0, 1.0):
                    e, old = estimate._e_step(view, w, edge), oracles.per_rule_e_step(view, u, v, edge)
                    with pytest.warns(RuntimeWarning, match="boundary"):
                        got = estimate._m_step(view, w, edge, 0, e)
                    with pytest.warns(RuntimeWarning, match="boundary"):
                        want = oracles.per_rule_m_step(view, u, v, edge, 0, old)
                    assert bits(*got) == bits(*want)


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_em_step_at_a_boundary_keeps_the_frozen_rule_bit_for_bit(uni3, ex_a_params, alpha):
    # the frozen rule's anchor reads 1 + 1e-13, which LamParams accepts: an
    # MM step of zero weight on it would divide its utilities by that value
    counts = simulate_counts(ex_a_params, uni3.all_menus(2), 1000, seed=4)
    u = {a: float(x) for a, x in ex_a_params.u.items()}
    v = {a: float(x) for a, x in ex_a_params.v.items()}
    frozen = v if alpha == 1.0 else u
    frozen["x"] = 1 + 1e-13
    params = LamParams(uni3, u, v, alpha, "x")
    with pytest.warns(RuntimeWarning, match="boundary"):
        stepped = em_step(params, counts)
    assert stepped.alpha == alpha
    kept = stepped.v if alpha == 1.0 else stepped.u
    assert [x.hex() for x in kept.values()] == [x.hex() for x in frozen.values()]
    active = stepped.u if alpha == 1.0 else stepped.v
    assert active["x"] == 1.0


# ---------------------------------------------------------------------------
# Independence from PYTHONHASHSEED
# ---------------------------------------------------------------------------

def hashed_output(run_python, hash_seed, script, cwd):
    """The output of ``python -c script`` under a given PYTHONHASHSEED; it must exit 0."""
    proc = run_python("-c", script, env={"PYTHONHASHSEED": str(hash_seed)}, cwd=cwd, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


FLOAT_PARAMS = """universe,a;b;c;d;e
anchor,a
alpha,0.3719
u,a,1
u,b,0.5123
u,c,2.7183
u,d,1.4142
u,e,0.1357
v,a,1
v,b,3.1416
v,c,0.2718
v,d,0.7071
v,e,1.6180
"""

SIM_THEN_FIT = """
import sys
from lam.cli import main
for argv in (
    ["simulate", "--params", "params.csv", "--menus", "all", "--n", "3000", "--seed", "5",
     "--out", "sim.csv"],
    ["fit", "--data", "sim.csv", "--starts", "2", "--seed", "7", "--max-iter", "300"],
):
    if main(argv) != 0:
        sys.exit(1)
sys.stdout.write(open("sim.csv").read())
"""


def test_float_simulate_and_fit_independent_of_hash_seed(run_python, tmp_path):
    outputs = set()
    for hash_seed in (0, 1, 2):
        work = tmp_path / str(hash_seed)
        work.mkdir()
        (work / "params.csv").write_text(FLOAT_PARAMS)
        outputs.add(hashed_output(run_python, hash_seed, SIM_THEN_FIT, work))
    assert len(outputs) == 1


CRITERION_7_CUT = """
from lam import dataio, fit_mle, simulate_counts
truth = dataio.parse_params(open("tests/data/field_params.csv").read(), exact=True)
counts = simulate_counts(truth, truth.universe.all_menus(2), 10**5, seed=33)
fit = fit_mle(counts, inits=4, seed=7, tol_ll=1e-13, max_iter=300)
p = fit.params
print(repr((fit.iterations, fit.log_likelihood, p.alpha, p.u_vector(), p.v_vector())))
print(repr((fit.converged, fit.grad_max, fit.start_iterations)))
"""


def test_criterion_7_cut_independent_of_hash_seed(run_python):
    root = Path(__file__).parent.parent
    first, second = (hashed_output(run_python, s, CRITERION_7_CUT, root) for s in (0, 5))
    assert first == second


@pytest.mark.parametrize("n", [2.5, True, 0, -1, 2**63, "10"])
def test_simulate_counts_rejects_a_non_integer_count(uni4, ex_b_params, n):
    with pytest.raises(InvalidParameterError, match=r"^n_per_menu must be an integer from 1"):
        simulate_counts(ex_b_params, uni4.all_menus(2), n, seed=1)
    draws = simulate_counts(ex_b_params, uni4.all_menus(2), np.int64(3), seed=1)
    assert draws == simulate_counts(ex_b_params, uni4.all_menus(2), 3, seed=1)
    assert draws.total() == 3 * 11


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"inits": 2.5}, "inits must be a positive integer, got 2.5"),
        ({"inits": True}, "inits must be a positive integer, got True"),
        ({"inits": 0}, "inits must be a positive integer, got 0"),
        ({"max_iter": 2.5}, "max_iter must be a non-negative integer, got 2.5"),
        ({"max_iter": False}, "max_iter must be a non-negative integer, got False"),
        ({"max_iter": -3}, "max_iter must be a non-negative integer, got -3"),
    ],
)
def test_fit_rejects_non_integer_starts_and_caps(uni4, ex_b_params, kwargs, message):
    counts = simulate_counts(ex_b_params, uni4.all_menus(2), 200, seed=1)
    with pytest.raises(InvalidParameterError) as err:
        fit_mle(counts, **{"inits": 2, "seed": 1, "max_iter": 5, **kwargs})
    assert str(err.value) == message
    fit = fit_mle(counts, inits=np.int64(2), seed=1, max_iter=np.int64(2))
    assert fit.n_starts == 2 and type(fit.n_starts) is int
    assert max(fit.start_iterations) <= 2
