"""Each CLI stage loads only the statorlab modules it runs, and the
package resolves its public names on first access; checked in fresh
interpreters, since this one has loaded every module already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import statorlab

SRC = str(Path(statorlab.__file__).resolve().parents[1])
LIGHT = ["--set", "modal.n_max=4", "--set", "image.pixels=64"]
STAGE_ONLY = {"statorlab.dynamics", "statorlab.grids", "statorlab.holography",
              "statorlab.analysis", "statorlab.reference"}

# imports the CLI, runs the stage named in argv[2] (if any) into argv[1],
# and prints, as JSON, the statorlab modules loaded after each step
STAGE = """
import contextlib, io, json, sys
from statorlab.cli import main
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "statorlab")
out = {"import": loaded()}
if len(sys.argv) > 2:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([sys.argv[2], "--out", sys.argv[1], *sys.argv[3:]]) == 0
    out["stage"] = loaded()
print(json.dumps(out))
"""


def _fresh(code, *argv):
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True,
        timeout=300, check=True, env={**os.environ, "PYTHONPATH": SRC})
    return json.loads(done.stdout)


def _stage_modules(tmp_path, stage=None):
    argv = [stage, *LIGHT] if stage else []
    return _fresh(STAGE, str(tmp_path), *argv)


def test_cli_import_leaves_stage_modules_unloaded(tmp_path):
    loaded = set(_stage_modules(tmp_path)["import"])
    assert not loaded & STAGE_ONLY
    assert {"statorlab.config", "statorlab.modal", "statorlab.ioutil"} <= loaded


def test_modes_leaves_stage_modules_unloaded(tmp_path):
    assert not set(_stage_modules(tmp_path, "modes")["stage"]) & STAGE_ONLY
    assert len(os.listdir(tmp_path)) == 2


def test_report_loads_only_the_reference_table(tmp_path):
    loaded = set(_stage_modules(tmp_path, "report")["stage"])
    assert loaded & STAGE_ONLY == {"statorlab.reference"}
    assert os.listdir(tmp_path) == ["report.txt"]


def test_respond_leaves_holography_analysis_reference_unloaded(tmp_path):
    loaded = set(_stage_modules(tmp_path, "respond")["stage"])
    assert "statorlab.dynamics" in loaded
    assert not loaded & {"statorlab.holography", "statorlab.analysis",
                         "statorlab.reference"}


# every public name, resolved from a bare ``import statorlab``, is the
# object its defining submodule holds; the submodules that ``import
# statorlab`` used to load are attributes as before
RESOLVE = """
import importlib, json, sys
import statorlab
bare = sorted(m for m in sys.modules if m.split(".")[0] == "statorlab")
wrong = []
for name in statorlab.__all__:
    obj = getattr(statorlab, name)
    if name == "__version__":
        continue
    home = importlib.import_module(obj.__module__)
    if not obj.__module__.startswith("statorlab.") or getattr(home, name) is not obj:
        wrong.append(name)
for sub in ("geometry", "modal", "grids", "dynamics", "holography", "analysis"):
    if getattr(statorlab, sub) is not sys.modules["statorlab." + sub]:
        wrong.append(sub)
print(json.dumps({"bare": bare, "wrong": wrong,
                  "dir": sorted(set(statorlab.__all__) - set(dir(statorlab)))}))
"""


def test_public_names_resolve_to_their_submodules():
    result = _fresh(RESOLVE)
    assert result["bare"] == ["statorlab", "statorlab.errors"]
    assert result["wrong"] == []
    assert result["dir"] == []


STAR = """
import json
from statorlab import *
import statorlab
print(json.dumps(sorted(n for n in statorlab.__all__ if n not in globals())))
"""


def test_star_import_binds_every_public_name():
    assert _fresh(STAR) == []


UNKNOWN = """
import json
import statorlab
try:
    statorlab.no_such_name
except AttributeError as exc:
    print(json.dumps([str(exc), hasattr(statorlab, "no_such_name")]))
"""


def test_unknown_attribute_raises_attribute_error():
    message, present = _fresh(UNKNOWN)
    assert "no_such_name" in message and present is False


# imports the CLI, then runs the five stages into argv[1], and prints, as
# JSON, the numpy.polynomial modules loaded after each step
POLYNOMIAL = """
import contextlib, io, json, sys
from statorlab.cli import main
def loaded():
    return sorted(m for m in sys.modules if m.startswith("numpy.polynomial"))
out = {"import": loaded()}
for stage in ("modes", "respond", "fringes", "fit", "report"):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([stage, "--out", sys.argv[1], *sys.argv[2:]]) == 0, stage
    out[stage] = loaded()
print(json.dumps(out))
"""


def test_cli_and_stages_load_no_numpy_polynomial(tmp_path):
    # the Gauss rules are literals: nothing needs numpy.polynomial
    loaded = _fresh(POLYNOMIAL, str(tmp_path), *LIGHT)
    assert loaded == {key: [] for key in
                      ("import", "modes", "respond", "fringes", "fit", "report")}
