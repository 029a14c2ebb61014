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


def test_scale_probe_script(run_python):
    for args in (["--n", "12"], ["--design", "star", "--n", "12", "--exact", "--field"],
                 ["--design", "all", "--n", "8", "--field"]):
        proc = run_python(str(SCRIPTS / "scale_probe.py"), *args, timeout=300)
        assert proc.returncode == 0, proc.stderr
        calls = [line.split() for line in proc.stdout.splitlines()[2:]]
        assert [c[0] for c in calls] == ["identify_lab", "check_axioms"] + ["identify_field"] * ("--field" in args)
        assert [c[-1] for c in calls[:2]] == ["point-identified", "pass"]
        assert all(c[2:4] == ["s", "peak"] and c[5] == "MB" for c in calls)
