import math
import os
import subprocess
import sys
from pathlib import Path

from hexspec.dynamics import holder_probe, irrational_cover
from hexspec.flux import GOLDEN_MEAN, Flux, golden_flux
from hexspec.jacobi import rational_spectrum

ROOT = Path(__file__).resolve().parents[1]
# pyproject's filterwarnings reaches only this process
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONWARNINGS="error::RuntimeWarning")


def test_cantor_covers_levels_9():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "cantor_covers.py"), "--levels", "9"],
        env=ENV, capture_output=True, text=True, timeout=120, check=True)
    # criterion 8's fit and covers, printed as the script prints them
    conv = golden_flux().convergents[:10]
    c2 = 1.5 * max(holder_probe(Flux.rational(*a), Flux.rational(*b))["ratio"]
                   for a, b in zip(conv[2:], conv[3:]))
    covers = [irrational_cover(GOLDEN_MEAN, n, c2) for n in range(10)]
    want = []
    for c, nxt in zip(covers, covers[1:] + [None]):
        nested = "-"
        if nxt is not None:
            radius = c2 * math.sqrt(abs(c.p_n / c.q_n - nxt.p_n / nxt.q_n))
            nested = "yes" if c.intervals.inflated(radius).covers(nxt.intervals) else "NO"
        m, q = c.intervals.measure, c.q_n
        want.append([str(c.n), f"{c.p_n}/{q}", f"{m:.4f}", f"{m * q:.3f}",
                     f"{rational_spectrum(c.p_n, q).measure * q:.4f}",
                     str(len(c.intervals)), nested])
    lines = proc.stdout.splitlines()
    assert lines[0] == f"# fitted C2 = {c2:.3f} from 7 consecutive pairs"
    # columns: n, p/q, |S_n|, |S_n|*q, q|Sigma|, bands, nested
    assert [ln.split() for ln in lines[2:]] == want
    assert [r[-1] for r in want] == ["yes"] * 9 + ["-"]
    assert want[-1][1] == "55/89" and 4.0 <= float(want[-1][4]) <= 5.0


def test_cantor_covers_bad_input_is_a_usage_error():
    for args in (["--levels", "0"], ["--levels", "1"], ["--levels", "2"],
                 ["--alpha", "0.5"], ["--c2", "-1"], ["--alpha", "nan"],
                 ["--alpha", "1/3", "--c2", "2"]):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "cantor_covers.py"), *args],
            env=ENV, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2 and "usage:" in proc.stderr, args
        assert "Traceback" not in proc.stderr and not proc.stdout, args


def _lyapunov_scan(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "lyapunov_scan.py"), *args],
        env=ENV, capture_output=True, text=True, timeout=120)


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


def test_lyapunov_scan_energy_above_the_bound_is_a_usage_error():
    proc = _lyapunov_scan("--lambdas=1.2e77", "--max-n", "256")
    assert proc.returncode == 2 and "usage:" in proc.stderr and "lambda" in proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout
