"""No CLI stage loads a scipy module, checked in a fresh interpreter.

statorlab runs on numpy alone: importing the CLI and running the five
stages, ``fringes`` and its J0 included, leaves no ``scipy*`` module in
``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import statorlab

LIGHT = ["--set", "modal.n_max=4", "--set", "image.pixels=64"]

# runs each stage named in argv[3:] into argv[1] with the overrides in
# argv[2] and prints, as JSON, the scipy modules loaded once each stage is done
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
    stages = ("modes", "respond", "fringes", "fit", "report")
    loaded = _scipy_modules(tmp_path, *stages)
    assert loaded == {"import": [], **{stage: [] for stage in stages}}
    assert len(os.listdir(tmp_path)) == 13


def test_stages_other_than_fringes_load_no_scipy(tmp_path):
    loaded = _scipy_modules(tmp_path, "modes", "respond", "fit", "report")
    assert loaded == {"import": [], "modes": [], "respond": [], "fit": [],
                      "report": []}


def test_fringes_loads_no_scipy(tmp_path):
    assert _scipy_modules(tmp_path, "fringes") == {"import": [], "fringes": []}
