"""The package metadata builds offline from pyproject.toml alone, with no
compiler step and nothing to fetch."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_egg_info_lists_the_kernel_module_and_the_console_script(tmp_path):
    subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()", "egg_info", "--egg-base", str(tmp_path)],
        cwd=ROOT,
        check=True,
        capture_output=True,
    )
    (info,) = tmp_path.glob("*.egg-info")
    sources = (info / "SOURCES.txt").read_text().splitlines()
    assert "src/lecalc/_kernel.py" in sources
    assert not [s for s in sources if s.endswith(".pyx")]
    entry_points = (info / "entry_points.txt").read_text().splitlines()
    assert "lecalc = lecalc.cli:main" in entry_points
