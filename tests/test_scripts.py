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
