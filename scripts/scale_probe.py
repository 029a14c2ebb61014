#!/usr/bin/env python3
"""Wall time and peak memory of the lab and field pipelines at scale.

Builds an (AI, human) pair from a random mixture over one of the test
suite's designs (tests/gen.py): ``linear`` (4(n - 1) menus of 2-4 members
around the anchor), ``star`` (every menu of 2-4 members holding the anchor)
or ``all`` (every menu of at least two members, 2**n - n - 1 of them).
It then runs ``identify_lab`` and ``check_axioms``, and with ``--field``
``identify_field`` on the AI table, and prints each call's wall time and
the process's peak resident set size after it.  Tables are float unless
``--exact`` is given.

    PYTHONPATH=src python scripts/scale_probe.py --design linear --n 1000
"""

import argparse
import random
import resource
import sys
import time
from pathlib import Path

from lam import check_axioms, identify_field, identify_lab, lam_table, luce_table

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import gen  # noqa: E402


def peak_mb() -> float:
    """The process's peak resident set size so far, in MB (ru_maxrss is in KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--design", choices=("linear", "star", "all"), default="linear")
    ap.add_argument("--n", type=int, default=1000, help="alternatives")
    ap.add_argument("--exact", action="store_true", help="exact tables instead of float ones")
    ap.add_argument("--field", action="store_true", help="also run identify_field on the AI table")
    args = ap.parse_args()

    params = gen.random_params(random.Random(0), args.n)
    if args.design == "all":
        uni, menus = params.universe, params.universe.all_menus(2)
    else:
        uni, menus = (gen.linear_design if args.design == "linear" else gen.star_design)(args.n)
    started = time.perf_counter()
    ai, human = lam_table(params, menus), luce_table(uni, params.u, menus)
    if not args.exact:
        ai, human = ai.as_float(), human.as_float()
    print(f"design {args.design}  n {args.n}  menus {len(menus)}  "
          f"memberships {sum(map(len, menus))}  {'exact' if args.exact else 'float'}")
    print(f"{'tables':<16}{time.perf_counter() - started:9.2f} s  peak {peak_mb():7.0f} MB")

    calls = [("identify_lab", lambda: identify_lab(ai, human, params.anchor).status),
             ("check_axioms", lambda: "pass" if check_axioms(ai, human).overall else "fail")]
    if args.field:
        calls.append(("identify_field", lambda: identify_field(ai, params.anchor).status))
    for name, call in calls:
        started = time.perf_counter()
        outcome = call()
        print(f"{name:<16}{time.perf_counter() - started:9.2f} s  peak {peak_mb():7.0f} MB  {outcome}")


if __name__ == "__main__":
    main()
