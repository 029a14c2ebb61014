import os
import subprocess
import sys
from pathlib import Path

import pytest
import run
from workloads import LabLarge, Op

HERE = Path(__file__).resolve().parent.parent


def test_count_divergent_flags_each_differing_output():
    assert run.count_divergent(["a", "b", "c"], ["a", "b", "c"]) == 0
    assert run.count_divergent(["a", "b", "c"], ["a", "x", "c"]) == 1
    with pytest.raises(ValueError):
        run.count_divergent(["a"], ["a", "b"])


class TamperedLab(LabLarge):
    """lab-large whose second hash op reports a deliberately different output."""

    def hash_ops(self):
        first, second = super().hash_ops()
        return [first, Op(second.name, second.call, second.check, lambda r: second.digest(r) + "!")]


def test_divergence_check_flags_a_deliberately_differing_output(tmp_path):
    # the child builds the real lab-large from the same seed under the second
    # hash seed; only the tampered op may differ
    workload = TamperedLab(3, tmp_path)
    workload.setup()
    args = type("Args", (), {"workload": "lab-large", "seed": 3})
    assert run.hash_divergence(workload, tmp_path, args) == (1, 2)


def test_generator_output_is_independent_of_the_hash_seed():
    script = (
        "import random, instances as g\n"
        "rng = random.Random(5)\n"
        "for n in (4, 5, 8):\n"
        "    t = g.draw_truth(rng, n); ai, h = g.lab_pair(t, n != 8)\n"
        "    print(g.params_text(t), g.dataset_text(t.alts, g.perturb_entry(ai), False))\n"
    )
    outs = set()
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        outs.add(subprocess.run([sys.executable, "-c", script], cwd=HERE, env=env, check=True,
                                capture_output=True, text=True, timeout=60).stdout)
    assert len(outs) == 1


def test_p90_needs_ten_samples_beyond_it():
    assert run.p90([2.5]) == 2.5
    assert run.p90([1.0, 2.0, 9.0]) == 2.0
    times = [float(i) for i in range(1, 101)]
    assert run.p90(times) == 90.1
