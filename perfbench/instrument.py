"""Where the traced run wraps the library, and the per-layer metrics it yields.

Layers are the modules of ``lam``: types, choice, lab, field, estimate,
dataio and cli.  A layer's share is the self time of its spans over the
wall time of the traced ops.  Counted-only functions (``prob``,
``own_instability``, ``composite_instability``, ``luce_choice``,
``implied_alpha``) add no span, so their time is in their caller's layer:
the scans over ``StochasticChoice.prob`` show up as choice and lab time.
"""

from __future__ import annotations

import inspect
import statistics

from tracing import Tracer, children, inclusive_time, self_times

LAYERS = ("types", "choice", "lab", "field", "estimate", "dataio", "cli")
#: Predictions the traced run checks: each share of the traced wall time
#: should exceed one half.
PREDICTIONS = {
    "lab-large": ("the choice/lab scans take most of lab-large",
                  lambda m: m["choice.share"] + m["lab.share"]),
    "em-fit": ("em_step takes most of em-fit",
               lambda m: m["estimate.em_step_s"] / m["trace.wall_s"]),
}
CLI_COMMANDS = (
    "identify-lab",
    "identify-field",
    "check-axioms",
    "deception-gap",
    "simulate",
    "fit",
)


def install(tracer: Tracer) -> None:
    """Wrap the traced functions wherever ``lam`` binds them.

    A function the library no longer has is skipped, so its metrics read
    0 instead of stopping the run; the hooks read result fields the same
    way."""
    import lam
    from lam import choice, cli, dataio, estimate, field, lab, types

    mods = (lam, types, choice, lab, field, estimate, dataio, cli)
    sc = types.StochasticChoice

    def held(span, args, kwargs, result):
        key = "lab.alpha_samples_held"
        held_now = len(getattr(result, "samples", ()))
        tracer.counts[key] = max(tracer.counts.get(key, 0), held_now)

    def roots(span, args, kwargs, result):
        tracer.add("field.roots_admissible", len(getattr(result, "admissible", ())))
        tracer.add("field.roots_rejected", len(getattr(result, "rejected", ())))

    def read(span, args, kwargs, result):
        text = args[0] if args else kwargs["text"]
        tracer.add("dataio.bytes_read", len(text.encode()))

    def written(span, args, kwargs, result):
        tracer.add("dataio.bytes_written", len(result.encode()))

    def keep_result(span, args, kwargs, result):
        span.extra = result

    def keep_tol(span, args, kwargs, result):
        bound = fit_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        span.extra = bound.arguments.get("tol_ll")

    # (owners to rebind in, object holding the original, attribute, name, hook);
    # a name ending in _calls is a counter, any other a span
    plan = [
        ([sc], sc, "prob", "types.prob_calls", None),
        ([sc], sc, "__post_init__", "types.table_build", None),
        (mods, types, "sup_distance", "types.sup_distance", None),
        (mods, choice, "own_instability", "choice.own_instability_calls", None),
        (mods, choice, "composite_instability", "choice.composite_instability_calls", None),
        (mods, choice, "luce_choice", "choice.luce_choice_calls", None),
        (mods, choice, "iia_violations", "choice.iia_violations", None),
        (mods, choice, "satisfies_iia", "choice.satisfies_iia", None),
        (mods, choice, "recover_luce_utility", "choice.recover_luce_utility", None),
        (mods, choice, "lam_table", "choice.lam_table", None),
        (mods, choice, "luce_table", "choice.luce_table", None),
        (mods, lab, "identify_lab", "lab.identify_lab", None),
        (mods, lab, "estimate_alpha", "lab.estimate_alpha", held),
        (mods, lab, "recover_autonomous", "lab.recover_autonomous", None),
        (mods, lab, "check_axioms", "lab.check_axioms", None),
        (mods, field, "identify_field", "field.identify_field", None),
        (mods, field, "identification_polynomial", "field.identification_polynomial", None),
        (mods, field, "candidate_utilities", "field.candidate_utilities", roots),
        (mods, field, "deception_gap", "field.deception_gap", None),
        (mods, field, "implied_alpha", "field.implied_alpha_calls", None),
        (mods, estimate, "simulate_counts", "estimate.simulate_counts", None),
        (mods, estimate, "em_step", "estimate.em_step", None),
        (mods, estimate, "log_likelihood", "estimate.log_likelihood", keep_result),
        (mods, estimate, "fit_mle", "estimate.fit_mle", keep_tol),
        (mods, dataio, "parse_dataset", "dataio.parse_dataset", read),
        (mods, dataio, "parse_params", "dataio.parse_params", read),
        (mods, dataio, "parse_report", "dataio.parse_report", read),
        (mods, dataio, "serialize_dataset", "dataio.serialize_dataset", written),
        (mods, dataio, "serialize_params", "dataio.serialize_params", written),
        (mods, cli, "main", "cli.main", None),
    ]
    fit_signature = inspect.signature(estimate.fit_mle)
    for owners, home, attr, name, hook in plan:
        fn = vars(home).get(attr)
        if fn is None:
            continue
        if name.endswith("_calls"):
            wrapper = tracer.counted(fn, name)
        else:
            wrapper = tracer.spanned(fn, name, hook)
        tracer.replace(owners, fn, wrapper)


def starts_converged(tracer: Tracer) -> int:
    """EM starts that met ``fit_mle``'s own stopping rule.

    Inside a ``fit_mle`` span a start is a likelihood evaluation followed
    by (EM step, likelihood) pairs; it converged when its last relative
    likelihood change is below the call's ``tol_ll``."""
    n = 0
    fits = children(tracer.spans, {"estimate.fit_mle"})
    for i, kids in fits.items():
        tol = tracer.spans[i].extra
        if tol is None:
            continue
        starts: list[list[float]] = []
        prev = None
        for s in kids:
            if s.name == "estimate.log_likelihood":
                if prev != "estimate.em_step":
                    starts.append([])
                starts[-1].append(s.extra)
            prev = s.name
        for lls in starts:
            if len(lls) >= 2:
                rel = (lls[-1] - lls[-2]) / max(1.0, abs(lls[-2]))
                n += abs(rel) < tol
    return n


def per_layer_metrics(
    tracer: Tracer,
    traced_wall: float,
    untraced_wall: float,
    times_by_name: dict[str, list[float]],
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, as {name: (value, unit)}.

    ``times_by_name`` holds the untraced op times by op name, from which
    the CLI subcommand medians are taken."""
    spans = tracer.spans
    c = tracer.counts

    def incl(*names):
        return inclusive_time(spans, set(names))

    selfs = self_times(spans)
    by_name: dict[str, float] = {}
    by_layer = {layer: 0.0 for layer in LAYERS}
    for s, t in zip(spans, selfs):
        by_name[s.name] = by_name.get(s.name, 0.0) + t
        layer = s.name.split(".", 1)[0]
        if layer in by_layer:
            by_layer[layer] += t

    admissible = c.get("field.roots_admissible", 0)
    rejected = c.get("field.roots_rejected", 0)
    n_spans = {}
    for s in spans:
        n_spans[s.name] = n_spans.get(s.name, 0) + 1

    m: dict[str, tuple[float, str]] = {
        "types.prob_calls": (c.get("types.prob_calls", 0), "count"),
        "types.tables_built": (n_spans.get("types.table_build", 0), "count"),
        "types.table_build_s": (incl("types.table_build"), "s"),
        "types.sup_distance_s": (incl("types.sup_distance"), "s"),
        "choice.own_instability_calls": (c.get("choice.own_instability_calls", 0), "count"),
        "choice.composite_instability_calls": (
            c.get("choice.composite_instability_calls", 0), "count"),
        "choice.iia_scan_s": (incl("choice.iia_violations", "choice.satisfies_iia"), "s"),
        "choice.recover_luce_utility_s": (incl("choice.recover_luce_utility"), "s"),
        "choice.lam_table_s": (incl("choice.lam_table"), "s"),
        "choice.luce_choice_calls": (c.get("choice.luce_choice_calls", 0), "count"),
        "lab.identify_lab.self_s": (by_name.get("lab.identify_lab", 0.0), "s"),
        "lab.estimate_alpha_s": (incl("lab.estimate_alpha"), "s"),
        "lab.recover_autonomous_s": (incl("lab.recover_autonomous"), "s"),
        "lab.check_axioms.self_s": (by_name.get("lab.check_axioms", 0.0), "s"),
        "lab.alpha_samples_held": (c.get("lab.alpha_samples_held", 0), "count"),
        "field.identify_field.self_s": (by_name.get("field.identify_field", 0.0), "s"),
        "field.identification_polynomial_s": (incl("field.identification_polynomial"), "s"),
        "field.cubics_built": (n_spans.get("field.identification_polynomial", 0), "count"),
        "field.candidate_utilities_s": (incl("field.candidate_utilities"), "s"),
        "field.roots_admissible": (admissible, "count"),
        "field.roots_rejected": (rejected, "count"),
        "field.root_yield": (
            admissible / (admissible + rejected) if admissible + rejected else 0.0, "ratio"),
        "field.implied_alpha_calls": (c.get("field.implied_alpha_calls", 0), "count"),
        "estimate.simulate_counts_s": (incl("estimate.simulate_counts"), "s"),
        "estimate.em_steps": (n_spans.get("estimate.em_step", 0), "count"),
        "estimate.em_step_s": (incl("estimate.em_step"), "s"),
        "estimate.log_likelihood_calls": (n_spans.get("estimate.log_likelihood", 0), "count"),
        "estimate.log_likelihood_s": (incl("estimate.log_likelihood"), "s"),
        "estimate.starts_converged": (starts_converged(tracer), "count"),
        "dataio.parse_s": (
            incl("dataio.parse_dataset", "dataio.parse_params", "dataio.parse_report"), "s"),
        "dataio.serialize_s": (
            incl("dataio.serialize_dataset", "dataio.serialize_params"), "s"),
        "dataio.bytes_read": (c.get("dataio.bytes_read", 0), "B"),
        "dataio.bytes_written": (c.get("dataio.bytes_written", 0), "B"),
    }
    for cmd in CLI_COMMANDS:
        times = times_by_name.get(cmd)
        m[f"cli.{cmd}.p50_s"] = (statistics.median(times) if times else 0.0, "s")
    for layer in LAYERS:
        m[f"{layer}.share"] = (by_layer[layer] / traced_wall, "ratio")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    return m
