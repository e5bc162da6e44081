"""Artifacts do not depend on the BLAS thread count.

``modes`` and ``fit`` run on the default config in fresh interpreters
under ``OPENBLAS_NUM_THREADS=1`` and ``=2``; the two output directories
must match byte for byte.  OpenBLAS caps its thread count at the CPU
count, so on a 1-CPU host both runs use one thread and the test passes
trivially there.
"""

import os
import subprocess
import sys
from pathlib import Path

import statorlab

SRC = str(Path(statorlab.__file__).resolve().parents[1])
STAGES = ("modes", "fit")


def _run(out: Path, threads: str) -> dict:
    env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": threads}
    for stage in STAGES:
        subprocess.run([sys.executable, "-m", "statorlab.cli", "--out", str(out),
                        stage], capture_output=True, timeout=300, check=True,
                       env=env)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_modes_and_fit_are_byte_identical_across_blas_threads(tmp_path):
    one = _run(tmp_path / "one", "1")
    two = _run(tmp_path / "two", "2")
    assert sorted(one) == sorted(two) == ["fit.csv", "fit_summary.txt",
                                          "modes.csv", "radial_profiles.txt"]
    assert [name for name in one if one[name] != two[name]] == []
