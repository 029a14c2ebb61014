#!/usr/bin/env python3
"""Randomized field-identification experiment.

Draws random rational mixture parameters with compliance bounded away
from 0, 1/2, and 1, forward-simulates the AI choice table alone, and
checks that the swap class comes back exactly.  Failures are printed
with their diagnostics; with generic draws they should be rare and
traceable to a non-generic coincidence.  Instances come from the test
suite's generators (tests/gen.py).
"""

import argparse
import random
import sys
import time
from fractions import Fraction as F
from pathlib import Path

from lam import identify_field

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import gen  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instances", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--sizes", type=int, nargs="+", default=[4, 5])
    ap.add_argument("--margin", type=float, default=0.05,
                    help="distance of compliance from 0, 1/2, and 1")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    margin = F(args.margin).limit_denominator(1000)
    recovered = 0
    failures = []
    started = time.perf_counter()
    for i in range(args.instances):
        alpha = gen.random_alpha_generic(rng, margin)
        params = gen.random_params(rng, rng.choice(args.sizes), alpha)
        rho, _ = gen.forward_pair(params)
        result = identify_field(rho, params.anchor)
        if result.status == "identified-up-to-swap" and params in (
            result.primary,
            result.swapped,
        ):
            recovered += 1
        else:
            failures.append(i)
            print(f"failure #{i}: status={result.status}")
            print(f"  reason: {result.reason}")
            print(f"  alpha:  {params.alpha}, u={params.u_vector()}, v={params.v_vector()}")

    elapsed = time.perf_counter() - started
    print(f"instances   {args.instances}")
    print(f"recovered   {recovered} ({100 * recovered / args.instances:.1f}%)")
    print(f"failures    {len(failures)}")
    print(f"elapsed     {elapsed:.2f}s")


if __name__ == "__main__":
    main()
