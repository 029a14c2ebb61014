"""Shared fixtures: the two worked examples, transcribed exactly.

Example A (three alternatives) is the laboratory pair: AI choices mixing
u = (1, 2/3, 1/3) and v = (1, 2, 3) with compliance 1/2, alongside the
human's Luce rule for u.  Example B (four alternatives) is the field
dataset generated by u = (1, 2, 4, 5), v = (1, 4/5, 2/5, 1/5), and
compliance 3/4.  Both tables are written out literally so tests validate
the forward model against them rather than trusting it.
"""

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from lam import LamParams, StochasticChoice, Universe

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

SRC = str(Path(__file__).parent.parent / "src")


@pytest.fixture(scope="session")
def run_python():
    """Run ``python *args`` as its own program, with ``lam`` importable from
    the source tree and ``env`` (a hash seed, CPU settings) added to the
    environment; return the finished process, its output decoded as UTF-8
    with no newline translation, so outputs compare byte for byte."""

    def run(*args, env=(), cwd=None, timeout=120):
        full = dict(os.environ, **dict(env))
        full["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, full.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, *args], capture_output=True,
                              env=full, cwd=cwd, timeout=timeout)
        proc.stdout, proc.stderr = proc.stdout.decode(), proc.stderr.decode()
        return proc

    return run


@pytest.fixture(scope="session")
def uni3():
    return Universe(("x", "y", "z"))


@pytest.fixture(scope="session")
def uni4():
    return Universe(("x", "y", "z", "t"))


@pytest.fixture(scope="session")
def ex_a_ai(uni3):
    return StochasticChoice(
        uni3,
        {
            ("x", "y", "z"): {"x": F(1, 3), "y": F(1, 3), "z": F(1, 3)},
            ("x", "y"): {"x": F(7, 15), "y": F(8, 15)},
            ("x", "z"): {"x": F(1, 2), "z": F(1, 2)},
            ("y", "z"): {"y": F(8, 15), "z": F(7, 15)},
        },
    )


@pytest.fixture(scope="session")
def ex_a_human(uni3):
    return StochasticChoice(
        uni3,
        {
            ("x", "y", "z"): {"x": F(1, 2), "y": F(1, 3), "z": F(1, 6)},
            ("x", "y"): {"x": F(3, 5), "y": F(2, 5)},
            ("x", "z"): {"x": F(3, 4), "z": F(1, 4)},
            ("y", "z"): {"y": F(2, 3), "z": F(1, 3)},
        },
    )


@pytest.fixture(scope="session")
def ex_a_autonomous(uni3):
    """The autonomous rule recovered in Example A (Luce with v = (1, 2, 3))."""
    return StochasticChoice(
        uni3,
        {
            ("x", "y", "z"): {"x": F(1, 6), "y": F(1, 3), "z": F(1, 2)},
            ("x", "y"): {"x": F(1, 3), "y": F(2, 3)},
            ("x", "z"): {"x": F(1, 4), "z": F(3, 4)},
            ("y", "z"): {"y": F(2, 5), "z": F(3, 5)},
        },
    )


@pytest.fixture(scope="session")
def ex_a_params(uni3):
    return LamParams(
        uni3,
        {"x": F(1), "y": F(2, 3), "z": F(1, 3)},
        {"x": F(1), "y": F(2), "z": F(3)},
        F(1, 2),
        "x",
    )


@pytest.fixture(scope="session")
def ex_b_params(uni4):
    return LamParams(
        uni4,
        {"x": F(1), "y": F(2), "z": F(4), "t": F(5)},
        {"x": F(1), "y": F(4, 5), "z": F(2, 5), "t": F(1, 5)},
        F(3, 4),
        "x",
    )


@pytest.fixture(scope="session")
def ex_b_ai(uni4):
    return StochasticChoice(
        uni4,
        {
            ("x", "y", "z", "t"): {
                "x": F(1, 6), "y": F(5, 24), "z": F(7, 24), "t": F(1, 3),
            },
            ("x", "y", "z"): {"x": F(17, 77), "y": F(47, 154), "z": F(73, 154)},
            ("x", "y", "t"): {"x": F(7, 32), "y": F(23, 80), "t": F(79, 160)},
            ("x", "z", "t"): {"x": F(37, 160), "z": F(29, 80), "t": F(13, 32)},
            ("y", "z", "t"): {"y": F(43, 154), "z": F(53, 154), "t": F(29, 77)},
            ("x", "y"): {"x": F(7, 18), "y": F(11, 18)},
            ("x", "z"): {"x": F(23, 70), "z": F(47, 70)},
            ("x", "t"): {"x": F(1, 3), "t": F(2, 3)},
            ("y", "z"): {"y": F(5, 12), "z": F(7, 12)},
            ("y", "t"): {"y": F(29, 70), "t": F(41, 70)},
            ("z", "t"): {"z": F(1, 2), "t": F(1, 2)},
        },
    )
