"""Command-line interface.

Six subcommands: ``simulate``, ``identify-lab``, ``identify-field``,
``check-axioms``, ``fit``, and ``deception-gap``.  Reports are flat
comma-delimited key/value rows on stdout, deterministic for fixed inputs
and seeds.  Exit status: 0 on success or an identified result, 2 on
identification-failure states (partially identified, inconsistent,
degenerate, non-generic, failed axioms), 1 on input or usage errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .dataio import (
    _parse_menu_token,
    format_scalar,
    parse_dataset,
    parse_params,
    parse_report,
    parse_scalar,
    serialize_dataset,
)
from .estimate import fit_mle, simulate_counts
from .field import _gap, identify_field
from .lab import check_axioms, identify_lab
from .types import ChoiceCounts, DatasetFormatError, LamError, Scalar, StochasticChoice


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The ``lam`` parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="lam", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw seeded choice counts from parameters")
    p.add_argument("--params", required=True, help="parameter file")
    p.add_argument("--menus", required=True, help="'all' or comma-separated ;-joined menus")
    p.add_argument("--n", required=True, type=int, help="observations per menu")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out", required=True, help="output counts dataset path")

    p = sub.add_parser("identify-lab", help="identify (u, v, alpha) from AI and human data")
    p.add_argument("--ai", required=True, help="AI dataset file")
    p.add_argument("--human", required=True, help="human dataset file")
    p.add_argument("--anchor", required=True)
    p.add_argument("--exact", action="store_true", help="exact rational arithmetic")
    p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("identify-field", help="identify the swap class from AI data alone")
    p.add_argument("--ai", required=True)
    p.add_argument("--anchor", required=True)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("check-axioms", help="test the five consistency conditions")
    p.add_argument("--ai", required=True)
    p.add_argument("--human", required=True)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("fit", help="maximum-likelihood fit to a counts dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--starts", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--max-iter", type=int, default=2000)

    p = sub.add_parser("deception-gap", help="compare lab and field compliance reports")
    p.add_argument("--lab", required=True, help="identify-lab report file")
    p.add_argument("--field", required=True, help="identify-field report file")
    return parser


def _load_choice(path: str, exact: bool) -> tuple[StochasticChoice, bool]:
    """Load a dataset as probabilities, converting counts to frequencies:
    each count over its menu's total, in exact mode as ints over the totals."""
    data = parse_dataset(Path(path).read_text(), exact=exact)
    if not isinstance(data, ChoiceCounts):
        return data, False
    return (data._exact_frequencies() if exact else data.to_frequencies()), True


def _header(command: str, exact: bool, tol: Scalar, *rows: str) -> list[str]:
    """A report's first rows: the command, the scalar mode and the tolerance."""
    return [f"report,{command}", f"mode,{'exact' if exact else 'float'}",
            f"tolerance,{format_scalar(tol)}", *rows]


def _params_rows(lines: list[str], params) -> None:
    lines.append(f"anchor,{params.anchor}")
    for name, vec in (("u", params.u), ("v", params.v)):
        for alt in params.universe.alternatives:
            lines.append(f"{name},{alt},{format_scalar(vec[alt])}")


def _cmd_simulate(args) -> tuple[list[str], int]:
    text = Path(args.params).read_text()
    try:
        params = parse_params(text, exact=True)
    except DatasetFormatError as e:  # decimal-valued files; an invalid value stays an error
        if "requires rational literals" not in str(e):
            raise
        params = parse_params(text, exact=False)
    if args.menus == "all":
        menus = params.universe.all_menus(min_size=2)
    else:
        menus = [_parse_menu_token(params.universe, m, None) for m in args.menus.split(",")]
    counts = simulate_counts(params, menus, args.n, args.seed)
    Path(args.out).write_text(serialize_dataset(counts))
    lines = [
        "report,simulate",
        f"params,{args.params}",
        f"menus,{len(menus)}",
        f"n,{args.n}",
        f"seed,{args.seed}",
        f"out,{args.out}",
        f"total,{counts.total()}",
    ]
    return lines, 0


def _cmd_identify_lab(args) -> tuple[list[str], int]:
    rho_ai, conv_ai = _load_choice(args.ai, args.exact)
    rho_h, conv_h = _load_choice(args.human, args.exact)
    result = identify_lab(rho_ai, rho_h, args.anchor, tol=args.tol)
    exact = rho_ai.is_exact and rho_h.is_exact
    lines = _header("identify-lab", exact, result.tol, f"status,{result.status}")
    if conv_ai or conv_h:
        lines.append("input,converted-counts-to-frequencies")
    if result.status == "point-identified":
        params = result.params
        lines.append(f"alpha,{format_scalar(params.alpha)}")
        est = result.alpha_diagnostics
        if est is not None:
            lines.append(f"alpha_raw,{format_scalar(est.raw)}")
            lines.append(f"alpha_strategy,{est.strategy}")
            lines.append(f"r_squared,{format_scalar(est.r_squared)}")
            lines.append(f"tuples_used,{est.n_tuples}")
        _params_rows(lines, params)
        rho_a = result.recovered_autonomous
        if rho_a is not None:
            for menu in rho_a.domain:
                row = rho_a.row(menu)
                tok = ";".join(row)
                for alt, p in row.items():
                    lines.append(f"autonomous,{tok},{alt},{format_scalar(p)}")
        return lines, 0
    if result.status == "partially-identified":
        lines.append(f"anchor,{args.anchor}")
        for alt, val in result.human_utility.items():
            lines.append(f"u,{alt},{format_scalar(val)}")
    lines.append(f"reason,{result.reason}")
    return lines, 2


def _cmd_identify_field(args) -> tuple[list[str], int]:
    rho_ai, converted = _load_choice(args.ai, args.exact)
    result = identify_field(rho_ai, args.anchor, tol=args.tol)
    universe = rho_ai.universe
    lines = _header("identify-field", rho_ai.is_exact, result.tol, f"status,{result.status}")
    if converted:
        lines.append("input,converted-counts-to-frequencies")
    for y in sorted(result.candidates, key=universe.index):
        for cs in result.candidates[y]:
            ref = ";".join(cs.reference)
            adm = ";".join(format_scalar(r) for r in cs.admissible)
            lines.append(f"candidates,{y},{ref},admissible,{adm}")
            if cs.rejected:
                rej = ";".join(f"{format_scalar(r.value)}:{r.reason}" for r in cs.rejected)
                lines.append(f"candidates,{y},{ref},rejected,{rej}")
            if cs.case2:
                lines.append(f"candidates,{y},{ref},case2,constant-odds")
    for y in sorted(result.consistency, key=universe.index):
        for row in result.consistency[y]:
            pair = ";".join(format_scalar(k) for k in row.pair)
            imp = row.implied
            if imp.full_interval:
                alpha_tok, feas = "any", "feasible"
            elif imp.values is None:
                alpha_tok, feas = "undefined", "infeasible"
            else:
                alpha_tok = ";".join(format_scalar(a) for a in imp.values)
                feas = "feasible" if imp.feasible else "infeasible"
            lines.append(f"alpha_table,{y},{pair},{alpha_tok},{feas}")
    if result.status == "identified-up-to-swap":
        hi, lo = result.alpha_pair
        lines.append(f"alpha_pair,{format_scalar(hi)};{format_scalar(lo)}")
        lines.append(f"alpha,{format_scalar(result.primary.alpha)}")
        _params_rows(lines, result.primary)
        lines.append("class,swap-equivalent member is (v,u,1-alpha)")
        return lines, 0
    lines.append(f"reason,{result.reason}")
    return lines, 2


def _cmd_check_axioms(args) -> tuple[list[str], int]:
    rho_ai, _ = _load_choice(args.ai, args.exact)
    rho_h, _ = _load_choice(args.human, args.exact)
    report = check_axioms(rho_ai, rho_h, tol=args.tol)
    lines = _header("check-axioms", rho_ai.is_exact and rho_h.is_exact, report.tol)
    for name, verdict in report.verdicts().items():
        lines.append(f"axiom,{name},{'pass' if verdict.passed else 'fail'}")
        if not verdict.passed:
            lines.append(f"witness,{name},{verdict.note}")
    lines.append(f"overall,{'pass' if report.overall else 'fail'}")
    return lines, 0 if report.overall else 2


def _cmd_fit(args) -> tuple[list[str], int]:
    data = parse_dataset(Path(args.data).read_text())
    if not isinstance(data, ChoiceCounts):
        raise LamError("fit needs a counts dataset (mode,counts)")
    result = fit_mle(data, inits=args.starts, seed=args.seed, max_iter=args.max_iter)
    lines = [
        "report,fit",
        f"status,{result.status}",
        f"starts,{result.n_starts}",
        f"seed,{result.seed}",
        f"converged,{'yes' if result.converged else 'no'}",
        f"grad_max,{format_scalar(result.grad_max)}",
        f"maximum,{'yes' if result.maximum else 'no'}",
        f"iterations,{result.iterations}",
        f"monotone,{'yes' if result.monotone else 'no'}",
        f"log_likelihood,{format_scalar(result.log_likelihood)}",
        f"alpha,{format_scalar(result.params.alpha)}",
    ]
    _params_rows(lines, result.params)
    return lines, 0 if result.status == "ok" else 2


def _report_value(rows: list[list[str]], key: str) -> str | None:
    for fields in rows:
        if len(fields) == 2 and fields[0] == key:
            return fields[1]
    return None


def _report_scalars(rows: list[list[str]], key: str, report: str, count: int) -> list[Scalar]:
    """The ``count`` ;-separated values of a report row, in the report's mode."""
    mode, value = _report_value(rows, "mode"), _report_value(rows, key)
    if mode is None or value is None:
        raise LamError(f"{report} report has no {'mode' if mode is None else key} row")
    tokens = value.split(";")
    if len(tokens) != count:
        raise LamError(f"{report} report {key} row needs {count} value(s)")
    return [parse_scalar(tok, mode == "exact") for tok in tokens]


def _cmd_deception_gap(args) -> tuple[list[str], int]:
    lab_rows = parse_report(Path(args.lab).read_text())
    field_rows = parse_report(Path(args.field).read_text())
    lines = ["report,deception-gap"]

    lab_status = _report_value(lab_rows, "status")
    field_status = _report_value(field_rows, "status")
    if lab_status != "point-identified":
        lines.append(f"reason,lab report status is {lab_status}; no compliance estimate")
        return lines, 2
    if field_status != "identified-up-to-swap":
        lines.append(f"reason,field report status is {field_status}; gap undefined")
        return lines, 2
    (lab_alpha,) = _report_scalars(lab_rows, "alpha", "lab", 1)
    hi, lo = _report_scalars(field_rows, "alpha_pair", "field", 2)
    gap = _gap(lab_alpha, (hi, lo))
    lines.append(f"lab_alpha,{format_scalar(lab_alpha)}")
    lines.append(f"field_alpha_pair,{format_scalar(hi)};{format_scalar(lo)}")
    lines.append(f"gap,{format_scalar(gap)}")
    return lines, 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "identify-lab": _cmd_identify_lab,
    "identify-field": _cmd_identify_field,
    "check-axioms": _cmd_check_axioms,
    "fit": _cmd_fit,
    "deception-gap": _cmd_deception_gap,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    try:
        lines, code = _COMMANDS[args.command](args)
    except (LamError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
