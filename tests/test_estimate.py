"""Simulation, likelihood, EM ascent, gradient checks, MLE fitting."""

import math
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import gen
from lam import (
    ChoiceCounts,
    InvalidParameterError,
    LamParams,
    MissingDataError,
    classify_regime,
    em_step,
    fit_mle,
    lam_choice,
    log_likelihood,
    log_likelihood_gradient,
    luce_choice,
    simulate_counts,
)
from lam.cli import main
from lam.dataio import serialize_dataset


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
    # at |ll| ~ 9.6e5 one ulp of ll exceeds 1e-10; near the aligned
    # stationary point the plain EM step reads lower before the gradient
    # test passes, and the start ends there instead of accepting it
    counts = simulate_counts(ex_b_params, uni4.all_menus(2), 10**5, seed=33)
    fit = fit_mle(counts, inits=1, seed=7, tol_ll=1e-13, max_iter=1000)
    assert fit.iterations < 1000
    assert not fit.converged
    assert fit.grad_max > 1e-13 * abs(fit.log_likelihood)
    assert fit.monotone
    assert all(b >= a for a, b in zip(fit.ll_trace, fit.ll_trace[1:]))


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


# ---------------------------------------------------------------------------
# Independence from PYTHONHASHSEED
# ---------------------------------------------------------------------------

SRC = str(Path(__file__).parent.parent / "src")


def run_hashed(hash_seed, args, cwd=None):
    """Run ``python <args>`` with ``lam`` importable under a given PYTHONHASHSEED."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, env=env, cwd=cwd, timeout=300
    )
    assert proc.returncode == 0, proc.stderr.decode()
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


def test_float_simulate_and_fit_independent_of_hash_seed(tmp_path):
    outputs = set()
    for hash_seed in (0, 1, 2):
        work = tmp_path / str(hash_seed)
        work.mkdir()
        (work / "params.csv").write_text(FLOAT_PARAMS)
        outputs.add(run_hashed(hash_seed, ["-c", SIM_THEN_FIT], cwd=work))
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


def test_criterion_7_cut_independent_of_hash_seed():
    root = Path(__file__).parent.parent
    first, second = (run_hashed(s, ["-c", CRITERION_7_CUT], cwd=root) for s in (0, 5))
    assert first == second
