#!/usr/bin/env python3
"""Randomized laboratory-identification experiment.

Draws random rational mixture parameters, forward-simulates the (AI,
human) pair of choice tables over every menu, runs the identification
pipeline in exact and float modes, and reports recovery statistics.
Instances come from the test suite's generators (tests/gen.py).
"""

import argparse
import random
import sys
import time
from pathlib import Path

from lam import identify_lab

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import gen  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instances", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--sizes", type=int, nargs="+", default=[3, 4, 5])
    args = ap.parse_args()

    rng = random.Random(args.seed)
    exact_ok = 0
    worst_float = 0.0
    statuses = {}
    started = time.perf_counter()
    for _ in range(args.instances):
        params = gen.random_params(rng, rng.choice(args.sizes))
        ai, human = gen.forward_pair(params)

        result = identify_lab(ai, human, params.anchor)
        statuses[result.status] = statuses.get(result.status, 0) + 1
        exact_ok += result.status == "point-identified" and result.params == params

        fl = params.as_float()
        ai_f, human_f = gen.forward_pair(fl)
        res_f = identify_lab(ai_f, human_f, fl.anchor)
        if res_f.status == "point-identified":
            got = res_f.params
            err = max(
                abs(got.alpha - fl.alpha),
                max(abs(got.u[a] - fl.u[a]) for a in fl.universe.alternatives),
                max(abs(got.v[a] - fl.v[a]) for a in fl.universe.alternatives),
            )
            worst_float = max(worst_float, err)

    elapsed = time.perf_counter() - started
    print(f"instances          {args.instances}")
    print(f"status counts      {statuses}")
    print(f"exact recoveries   {exact_ok}")
    print(f"worst float error  {worst_float:.3e}")
    print(f"elapsed            {elapsed:.2f}s")


if __name__ == "__main__":
    main()
