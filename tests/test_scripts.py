"""Smoke runs of the experiment scripts at tiny sizes."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).parent.parent / "scripts"


def run(script, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_lab_roundtrip_script():
    proc = run("lab_roundtrip.py", "--instances", "5", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    assert "exact recoveries   5" in proc.stdout


def test_field_roundtrip_script():
    proc = run("field_roundtrip.py", "--instances", "5", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    assert "recovered   5" in proc.stdout


def test_em_recovery_script():
    proc = run("em_recovery.py", "--n", "500", "--max-iter", "200", "--starts", "2")
    assert proc.returncode == 0, proc.stderr
    assert "swap-aligned err" in proc.stdout
    assert "gradient max" in proc.stdout
    assert "algebraic field id" in proc.stdout
