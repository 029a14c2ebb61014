"""Smoke runs of the experiment scripts at tiny sizes."""

from pathlib import Path

SCRIPTS = Path(__file__).parent.parent / "scripts"


def test_lab_roundtrip_script(run_python):
    proc = run_python(str(SCRIPTS / "lab_roundtrip.py"), "--instances", "5", "--seed", "3",
                      timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "exact recoveries   5" in proc.stdout


def test_field_roundtrip_script(run_python):
    proc = run_python(str(SCRIPTS / "field_roundtrip.py"), "--instances", "5", "--seed", "3",
                      timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "recovered   5" in proc.stdout


def test_em_recovery_script(run_python):
    proc = run_python(str(SCRIPTS / "em_recovery.py"), "--n", "500", "--max-iter", "200",
                      "--starts", "2", timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "swap-aligned err" in proc.stdout
    assert "gradient max" in proc.stdout
    assert "algebraic field id" in proc.stdout
