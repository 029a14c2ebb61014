#!/usr/bin/env python3
"""Finite-sample recovery experiment for the EM fitter.

Simulates choice counts from a parameter file (default: the bundled
field-example parameters), fits the mixture by multi-start EM, and
reports swap-aligned parameter errors against the truth together with
the algebraic field identifier run on the empirical frequencies.
"""

import argparse
import time
from pathlib import Path

from lam import fit_mle, identify_field, simulate_counts
from lam.dataio import format_scalar, parse_params

DEFAULT_PARAMS = Path(__file__).parent.parent / "tests" / "data" / "field_params.csv"


def swap_aligned_error(fit_params, truth):
    alts = truth.universe.alternatives
    best = None
    for cand in (fit_params, fit_params.swapped()):
        err = max(
            abs(cand.alpha - truth.alpha),
            max(abs(cand.u[a] - truth.u[a]) for a in alts),
            max(abs(cand.v[a] - truth.v[a]) for a in alts),
        )
        best = err if best is None else min(best, err)
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--params", default=str(DEFAULT_PARAMS))
    ap.add_argument("--n", type=int, default=100_000, help="observations per menu")
    ap.add_argument("--data-seed", type=int, default=33)
    ap.add_argument("--fit-seed", type=int, default=7)
    ap.add_argument("--starts", type=int, default=4)
    ap.add_argument("--max-iter", type=int, default=60_000)
    args = ap.parse_args()

    truth = parse_params(Path(args.params).read_text(), exact=True).as_float()
    menus = truth.universe.all_menus(2)
    counts = simulate_counts(truth, menus, args.n, seed=args.data_seed)

    started = time.perf_counter()
    fit = fit_mle(
        counts, inits=args.starts, seed=args.fit_seed,
        tol_ll=1e-13, max_iter=args.max_iter,
    )
    elapsed = time.perf_counter() - started

    print(f"menus x n          {len(menus)} x {args.n}")
    print(f"fit status         {fit.status}, converged={fit.converged}, "
          f"iterations={fit.iterations}, monotone={fit.monotone}")
    print(f"log likelihood     {fit.log_likelihood:.3f}")
    print(f"gradient max       {fit.grad_max:.3g}")
    print(f"fitted alpha       {fit.params.alpha:.5f}")
    print(f"swap-aligned err   {swap_aligned_error(fit.params, truth):.5f}")
    print(f"fit time           {elapsed:.1f}s")

    # the algebraic identifier carries no sampling-noise guarantees; its
    # verdict on empirical frequencies is reported alongside the MLE as-is
    field = identify_field(counts.to_frequencies(), truth.anchor, tol=0.02)
    print(f"algebraic field id {field.status}")
    if field.alpha_pair is not None:
        hi, lo = field.alpha_pair
        print(f"  alpha pair       {format_scalar(hi)};{format_scalar(lo)}")
    elif field.alpha_pair_candidates:
        pairs = " ".join(
            f"{format_scalar(lo)};{format_scalar(hi)}"
            for lo, hi in field.alpha_pair_candidates
        )
        print(f"  candidate pairs  {pairs}")


if __name__ == "__main__":
    main()
