"""Child process of the divergence check.

``run.py`` starts it under a second ``PYTHONHASHSEED``, with a work
directory of its own as the working directory.  It builds the workload
from the same seed, runs the workload's hash subset and prints the output
digests as one JSON list.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import run
from workloads import WORKLOADS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    run.import_library()
    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    workload.setup()
    print(json.dumps(run.run_hash_ops(workload)))


if __name__ == "__main__":
    main()
