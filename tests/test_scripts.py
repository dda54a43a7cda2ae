"""Smoke tests for the demo scripts: each runs with its default arguments."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name)],
                          capture_output=True, text=True, env=env)


def test_modular_tables_output_unchanged():
    proc = run_script("modular_tables.py")
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(ROOT, "tests", "data", "modular_tables.txt"),
              encoding="utf-8") as fh:
        assert proc.stdout == fh.read()


def test_character_scan_runs():
    proc = run_script("character_scan.py")
    assert proc.returncode == 0, proc.stderr
    assert "annulus sewing at depth 8: exact match" in proc.stdout
