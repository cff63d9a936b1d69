import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_cantor_covers_levels_9():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "cantor_covers.py"), "--levels", "9"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120, check=True)
    # columns: n, p/q, |S_n|, |S_n|*q, q|Sigma|, bands, nested
    rows = [ln.split() for ln in proc.stdout.splitlines()[2:]]
    assert proc.stdout.startswith("# fitted C2 =")
    assert len(rows) == 10
    assert [r[-1] for r in rows] == ["yes"] * 9 + ["-"]
    assert rows[-1][1] == "55/89" and 4.0 <= float(rows[-1][4]) <= 5.0


def test_cantor_covers_bad_input_is_a_usage_error():
    for args in (["--levels", "0"], ["--levels", "1"], ["--levels", "2"],
                 ["--alpha", "0.5"], ["--c2", "-1"], ["--alpha", "nan"],
                 ["--alpha", "1/3", "--c2", "2"]):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "cantor_covers.py"), *args],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2 and "usage:" in proc.stderr, args
        assert "Traceback" not in proc.stderr and not proc.stdout, args


def _lyapunov_scan(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "lyapunov_scan.py"), *args],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120)


def test_lyapunov_scan_table():
    proc = _lyapunov_scan("--lambdas=-4:4:5", "--max-n", "256", "--cover-level", "6")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("# flux = ") and lines[1].split()[0] == "lambda"
    rows = [ln.split() for ln in lines[2:]]
    assert [float(r[0]) for r in rows] == [-4.0, -2.0, 0.0, 2.0, 4.0]
    assert all(r[-1] in ("yes", "no") for r in rows)


def test_lyapunov_scan_bad_lambdas_is_a_usage_error():
    for bad in ("0:1", "a:b:3", "1,x"):
        proc = _lyapunov_scan(f"--lambdas={bad}", "--max-n", "256")
        assert proc.returncode == 2 and "bad lambdas" in proc.stderr
        assert "Traceback" not in proc.stderr
