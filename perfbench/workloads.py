"""The three workloads: lab-large, em-fit and cli-batch.

Each workload builds its inputs in ``setup`` and hands the harness a
cycle of rounds; a round is a list of ops and the harness stops only
between rounds.  An op calls the public functions of ``lam``, looked up
on their module at call time so that the traced run sees them.
Its ``check`` compares the output with the truth the generator knows and
returns a message when the output is wrong.  ``hash_ops`` is the fixed
subset that the divergence check re-runs under a second hash seed.

Why these workloads:

* lab-large: lab identification and the five-axiom check on every menu
  at n=8 (float; half mixture pairs, half pairs with one human entry
  perturbed) and n=7 (exact).  The O(n^2 4^n) instability scans and
  ``prob`` lookups do nearly all the work; estimate, field and dataio
  do none.
* em-fit: the fixed criterion-7 fit (field example, 1e5 draws per menu,
  seed 33, four starts, seed 7).  The E-step, MM inner loop and
  likelihood do nearly all the work; the lab and field scans are idle.
  Its inputs do not vary with the workload seed: the EM iteration count
  swings by tens of percent with the data, which would hide any change
  in the fitter's speed.
* cli-batch: many small instances (n=4-5, exact and float files) through
  ``lam.cli.main`` in-process, so that per-call costs dominate: parsing,
  table construction, exact root snapping, report formatting and files
  written beside files read.  ``fit`` is kept short so that estimate
  does not dominate.
"""

from __future__ import annotations

import hashlib
import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import instances as gen

HERE = Path(__file__).resolve().parent
FIELD_PARAMS = HERE / "data" / "field_params.csv"

#: Float lab identification must recover the truth to this bound (criterion 3).
LAB_FLOAT_TOL = 1e-8
#: Float field identification must recover the swap class to this bound.
FIELD_FLOAT_TOL = 1e-6


@dataclass
class Op:
    """One timed call; ``check`` returns an error message or None, and
    ``digest`` the output bytes that the divergence check compares."""

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], "str | None"]
    digest: Callable[[Any], str]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _table(alts, table):
    from lam import types

    return types.StochasticChoice(types.Universe(alts), table)


def _truth_params(t: gen.Truth, exact: bool):
    from lam import types

    scale = (lambda x: x) if exact else float
    return types.LamParams(
        types.Universe(t.alts),
        {a: scale(t.u[a]) for a in t.alts},
        {a: scale(t.v[a]) for a in t.alts},
        scale(t.alpha),
        t.anchor,
    )


def _max_err(got, want) -> float:
    alts = want.universe.alternatives
    return max(
        [abs(got.alpha - want.alpha)]
        + [abs(got.u[a] - want.u[a]) for a in alts]
        + [abs(got.v[a] - want.v[a]) for a in alts]
    )


# ---------------------------------------------------------------------------
# Criterion-7 EM fit, shared by em-fit and the reference fit of the others
# ---------------------------------------------------------------------------


def criterion7_counts():
    from lam import dataio, estimate

    truth = dataio.parse_params(FIELD_PARAMS.read_text(), exact=True)
    counts = estimate.simulate_counts(truth, truth.universe.all_menus(2), 10**5, seed=33)
    return truth, counts


def fit_digest(fit) -> str:
    p = fit.params
    return repr((fit.status, fit.iterations, fit.log_likelihood, p.alpha, p.u_vector(), p.v_vector()))


def counts_digest(counts) -> str:
    uni = counts.universe
    return repr([(uni.sorted_members(m), sorted(counts.counts[m].items())) for m in counts.domain])


def grad_max(fit, counts) -> float:
    from lam import estimate

    return max(abs(g) for g in estimate.log_likelihood_gradient(fit.params, counts).values())


def probe_fit(counts):
    """The criterion-7 fit cut at 300 EM steps: cheap, and still float EM."""
    from lam import estimate

    return estimate.fit_mle(counts, inits=4, seed=7, tol_ll=1e-13, max_iter=300)


def reference_grad_max() -> float:
    """max |grad log-lik| after the 300-step criterion-7 probe."""
    _, counts = criterion7_counts()
    return grad_max(probe_fit(counts), counts)


# ---------------------------------------------------------------------------
# lab-large
# ---------------------------------------------------------------------------


@dataclass
class LabPair:
    kind: str  # "mixture" or "perturbed"
    truth: gen.Truth
    exact: bool
    ai: Any
    human: Any


class LabLarge:
    name = "lab-large"
    # Perturbed pairs perturb the human table: with a perturbed AI table
    # the number of IIA violations in the peeled-off autonomous rule, and
    # with it peak memory, varies from seed to seed.
    PLAN = ((8, False, "mixture"), (8, False, "perturbed"), (7, True, "mixture"),
            (8, False, "mixture"), (8, False, "perturbed"), (7, True, "mixture"))

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.pairs = []
        for n, exact, kind in self.PLAN:
            t = gen.draw_truth(rng, n)
            ai, human = gen.lab_pair(t, exact)
            if kind == "perturbed":
                human = gen.perturb_entry(human)
            self.pairs.append(LabPair(kind, t, exact, _table(t.alts, ai), _table(t.alts, human)))

    def _analyse(self, pair: LabPair) -> Op:
        """One op: ``identify_lab`` and then ``check_axioms`` on one pair.

        Pairing the two calls keeps a run's median op inside one cluster of
        op times (the n=8 float mixture pairs) instead of in the gap
        between the cheap and the costly single calls."""
        from lam import lab

        want = _truth_params(pair.truth, pair.exact)

        def call():
            return (lab.identify_lab(pair.ai, pair.human, pair.truth.anchor),
                    lab.check_axioms(pair.ai, pair.human))

        def check(out):
            result, report = out
            failed = [v for v in report.verdicts().values() if not v.passed]
            if pair.kind == "perturbed":
                if result.status != "inconsistent":
                    return f"perturbed pair gave {result.status}"
                if not failed:
                    return "axioms passed on a perturbed pair"
                if any(v.witness is None for v in failed):
                    return "a failed axiom has no witness"
                return None
            if failed:
                return "axioms failed on a mixture pair"
            if result.status != "point-identified":
                return f"mixture pair gave {result.status}: {result.reason}"
            if pair.exact:
                return None if result.params == want else "exact lab result differs from the truth"
            err = _max_err(result.params, want)
            return None if err <= LAB_FLOAT_TOL else f"float lab error {err:.3g}"

        def digest(out):
            result, report = out
            est = result.alpha_diagnostics
            p = result.params
            return repr((result.status, result.reason, p and (p.alpha, p.u_vector(), p.v_vector()),
                         est and (est.raw, est.r_squared, est.n_tuples),
                         [(k, v.passed, v.note) for k, v in report.verdicts().items()]))

        return Op("identify_lab+check_axioms", call, check, digest)

    def cycle(self) -> list[list[Op]]:
        return [[self._analyse(pair) for pair in self.pairs]]

    def hash_ops(self) -> list[Op]:
        return [self._analyse(self.pairs[0]), self._analyse(self.pairs[1])]

    def fit_grad_max(self) -> float:
        return reference_grad_max()


# ---------------------------------------------------------------------------
# em-fit
# ---------------------------------------------------------------------------


class EmFit:
    name = "em-fit"

    def __init__(self, seed: int, workdir: Path):
        # the seed does not change em-fit's inputs (see the module docstring)
        self.last_fit = None

    def setup(self) -> None:
        self.truth, self.counts = criterion7_counts()

    def _check(self, fit):
        self.last_fit = fit  # for fit_grad_max, computed after the timed loop
        if fit.status != "ok":
            return f"fit status {fit.status}"
        if not fit.monotone:
            return "some EM step decreased the likelihood"
        target = self.truth.as_float()
        alpha_err = min(abs(fit.params.alpha - target.alpha), abs(fit.params.alpha - (1 - target.alpha)))
        alts = target.universe.alternatives
        util_err = min(
            max(max(abs(c.u[a] - target.u[a]) for a in alts),
                max(abs(c.v[a] - target.v[a]) for a in alts))
            for c in (fit.params, fit.params.swapped())
        )
        if alpha_err >= 0.03 or util_err >= 0.05:
            return f"criterion-7 bounds missed: alpha {alpha_err:.4f}, utilities {util_err:.4f}"
        return None

    def cycle(self) -> list[list[Op]]:
        from lam import estimate

        def fit():
            return estimate.fit_mle(self.counts, inits=4, seed=7, tol_ll=1e-13, max_iter=60000)

        return [[Op("fit_mle", fit, self._check, fit_digest)]]

    def hash_ops(self) -> list[Op]:
        return [
            Op("simulate_counts", lambda: criterion7_counts()[1], lambda _: None, counts_digest),
            Op("fit_mle-300", lambda: probe_fit(self.counts), lambda _: None, fit_digest),
        ]

    def fit_grad_max(self) -> float:
        return grad_max(self.last_fit, self.counts)


# ---------------------------------------------------------------------------
# cli-batch
# ---------------------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    from lam import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def report_rows(stdout: str) -> list[list[str]]:
    return [line.split(",") for line in stdout.splitlines() if line]


def report_value(rows, key: str):
    for r in rows:
        if len(r) == 2 and r[0] == key:
            return r[1]
    return None


def _scalar(tok: str, exact: bool):
    return Fraction(tok) if exact else float(tok)


@dataclass
class CliInstance:
    k: int
    truth: gen.Truth
    exact: bool

    def path(self, what: str) -> str:
        return f"i{self.k:02d}_{what}"


class CliBatch:
    name = "cli-batch"
    N_INSTANCES = 32
    SIM_N = 1000
    FIT_ITER = 5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Draw the instances and write their files; paths are relative to
        the work directory, which is the harness's working directory."""
        rng = random.Random(self.seed)
        self.instances = []
        for k in range(self.N_INSTANCES):
            n = 4 + k % 2
            exact = (k // 2) % 2 == 0
            t = gen.draw_truth(rng, n)
            inst = CliInstance(k, t, exact)
            ai, human = gen.lab_pair(t, exact)
            files = {
                "ai.csv": gen.dataset_text(t.alts, ai, exact),
                "human.csv": gen.dataset_text(t.alts, human, exact),
                "params.csv": gen.params_text(t),
            }
            if not exact:
                files["ai_perturbed.csv"] = gen.dataset_text(t.alts, gen.perturb_entry(ai), False)
            for what, text in files.items():
                (self.workdir / inst.path(what)).write_text(text)
            self.instances.append(inst)

    # -- checks -----------------------------------------------------------

    @staticmethod
    def _params_from(rows, exact):
        vec = {"u": {}, "v": {}}
        for r in rows:
            if len(r) == 3 and r[0] in vec:
                vec[r[0]][r[1]] = _scalar(r[2], exact)
        return vec["u"], vec["v"], _scalar(report_value(rows, "alpha"), exact)

    @staticmethod
    def _close(got, want, exact, tol) -> bool:
        u, v, alpha = got
        t_u, t_v, t_alpha = want
        vals = [(alpha, t_alpha)] + [(u.get(a), t_u[a]) for a in t_u] + [(v.get(a), t_v[a]) for a in t_v]
        if any(g is None for g, _ in vals):
            return False
        if exact:
            return all(g == w for g, w in vals)
        return all(abs(g - float(w)) <= tol for g, w in vals)

    def _expect(self, code_want: int, status_key: str | None, status_want: str | None, extra=None):
        def check(result):
            code, out, err = result
            if code != code_want:
                return f"exit code {code}, expected {code_want}: {err.strip() or out[-200:]}"
            rows = report_rows(out)
            if status_key is not None and report_value(rows, status_key) != status_want:
                return f"{status_key} is {report_value(rows, status_key)}, expected {status_want}"
            return extra(rows) if extra is not None else None

        return check

    # -- ops --------------------------------------------------------------

    def _ops(self, inst: CliInstance) -> list[Op]:
        t, ex = inst.truth, inst.exact
        flag = ["--exact"] if ex else []
        p = inst.path
        truth = (t.u, t.v, t.alpha)
        swapped = (t.v, t.u, 1 - t.alpha)

        def lab_ok(rows):
            got = self._params_from(rows, ex)
            return None if self._close(got, truth, ex, LAB_FLOAT_TOL) else "lab result differs from the truth"

        def field_ok(rows):
            got = self._params_from(rows, ex)
            if self._close(got, truth, ex, FIELD_FLOAT_TOL) or self._close(got, swapped, ex, FIELD_FLOAT_TOL):
                return None
            return "truth is not in the reported swap class"

        def keep(what, check):
            def wrapped(result):
                (self.workdir / p(what)).write_text(result[1])
                return check(result)
            return wrapped

        def gap_ok(rows):
            gap = _scalar(report_value(rows, "gap"), ex)
            return None if gap <= (0 if ex else LAB_FLOAT_TOL) else f"deception gap {gap}"

        n_menus = 2 ** len(t.alts) - len(t.alts) - 1

        def sim_ok(rows):
            total = report_value(rows, "total")
            return None if total == str(self.SIM_N * n_menus) else f"simulated total {total}"

        def fit_ok(rows):
            return None if report_value(rows, "monotone") == "yes" else "EM was not monotone"

        def witnessed(rows):
            failed = {r[1] for r in rows if len(r) == 3 and r[0] == "axiom" and r[2] == "fail"}
            noted = {r[1] for r in rows if len(r) >= 3 and r[0] == "witness"}
            if not failed:
                return "no axiom failed on a perturbed pair"
            return None if failed <= noted else "a failed axiom has no witness"

        def cli(name, argv, check):
            return Op(name, lambda: run_cli(argv), check, lambda r: sha(f"{r[0]}\n{r[1]}"))

        ops = [
            cli("identify-lab",
                ["identify-lab", "--ai", p("ai.csv"), "--human", p("human.csv"), "--anchor", t.anchor] + flag,
                keep("lab_report.txt", self._expect(0, "status", "point-identified", lab_ok))),
            cli("identify-field", ["identify-field", "--ai", p("ai.csv"), "--anchor", t.anchor] + flag,
                keep("field_report.txt", self._expect(0, "status", "identified-up-to-swap", field_ok))),
            cli("check-axioms", ["check-axioms", "--ai", p("ai.csv"), "--human", p("human.csv")] + flag,
                self._expect(0, "overall", "pass")),
            cli("simulate",
                ["simulate", "--params", p("params.csv"), "--menus", "all", "--n", str(self.SIM_N),
                 "--seed", str(inst.k), "--out", p("sim.csv")],
                self._expect(0, None, None, sim_ok)),
            cli("fit",
                ["fit", "--data", p("sim.csv"), "--starts", "2", "--seed", str(inst.k),
                 "--max-iter", str(self.FIT_ITER)],
                self._expect(0, "status", "ok", fit_ok)),
        ]
        if not ex:
            ops += [
                cli("identify-lab",
                    ["identify-lab", "--ai", p("ai_perturbed.csv"), "--human", p("human.csv"),
                     "--anchor", t.anchor],
                    self._expect(2, "status", "inconsistent")),
                cli("check-axioms", ["check-axioms", "--ai", p("ai_perturbed.csv"), "--human", p("human.csv")],
                    self._expect(2, "overall", "fail", witnessed)),
            ]
        ops.append(
            cli("deception-gap", ["deception-gap", "--lab", p("lab_report.txt"), "--field", p("field_report.txt")],
                self._expect(0, None, None, gap_ok)))
        return ops

    def cycle(self) -> list[list[Op]]:
        return [self._ops(inst) for inst in self.instances]

    def hash_ops(self) -> list[Op]:
        # one pass over every instance: the float EM of ``fit`` diverges on
        # most instances, so a pass gives a count that is steady across seeds
        return [op for ops in self.cycle() for op in ops]

    def fit_grad_max(self) -> float:
        return reference_grad_max()


WORKLOADS = {w.name: w for w in (LabLarge, EmFit, CliBatch)}
