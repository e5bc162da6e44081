"""Which scipy modules the CLI loads, each checked in a fresh interpreter.

The modal layer is numpy only, so importing the CLI and running the
``modes``, ``respond``, ``fit`` and ``report`` stages loads no scipy
module.  ``fringes`` renders time-averaged images and so loads
``scipy.special`` for J0, and nothing from ``scipy.linalg``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import statorlab

LIGHT = ["--set", "modal.n_max=4", "--set", "modal.radial_nodes=48",
         "--set", "image.pixels=64"]

# runs each stage named in argv[2:] into argv[1] and prints, as JSON, the
# scipy modules loaded once each stage is done
STAGES = """
import contextlib, io, json, sys
from statorlab.cli import main
out, light, stages = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3:]
loaded = {"import": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}
for stage in stages:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([stage, "--out", out, *light]) == 0, stage
    loaded[stage] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps(loaded))
"""


def _scipy_modules(tmp_path, *stages):
    src = str(Path(statorlab.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", STAGES, str(tmp_path), json.dumps(LIGHT), *stages],
        capture_output=True, text=True, timeout=300, check=True,
        env={**os.environ, "PYTHONPATH": src})
    return json.loads(done.stdout)


def test_cli_import_loads_no_scipy(tmp_path):
    assert _scipy_modules(tmp_path) == {"import": []}


def test_stages_other_than_fringes_load_no_scipy(tmp_path):
    loaded = _scipy_modules(tmp_path, "modes", "respond", "fit", "report")
    assert loaded == {"import": [], "modes": [], "respond": [], "fit": [],
                      "report": []}


def test_fringes_loads_scipy_special_only(tmp_path):
    loaded = _scipy_modules(tmp_path, "fringes")["fringes"]
    assert "scipy.special" in loaded
    assert not any(m == "scipy.linalg" or m.startswith("scipy.linalg.")
                   for m in loaded)
