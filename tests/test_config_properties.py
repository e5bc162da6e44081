"""Properties of single-key overrides.

A config value reaches validation from JSON, which admits NaN, Infinity,
integers of any length, booleans, null, strings and lists.  Whatever one
key holds, ``validate_config`` must raise ConfigError or return a plan in
which every number is finite as a float64, and a CLI stage run on it must
end with exit code 0, 2 or 3, never with a traceback.
"""

import copy
import dataclasses
import json
import os
import sys
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statorlab.cli import main
from statorlab.config import DEFAULT_CONFIG, default_config, validate_config
from statorlab.errors import ConfigError

KEYS = [(section, key) for section, keys in DEFAULT_CONFIG.items()
        if isinstance(keys, dict) for key in keys] + [(None, "seed")]
SCALARS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-10 ** 400, max_value=10 ** 400),
    st.booleans(),
    st.none(),
    st.text(max_size=4))
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=4))


def _numbers(obj):
    """Every int and float inside a plan (bools are not numbers here)."""
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _numbers(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _numbers(value)
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from _numbers(getattr(obj, field.name))


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(KEYS), VALUES)
def test_single_override_is_rejected_or_finite(path, value):
    section, key = path
    cfg = default_config()
    (cfg if section is None else cfg[section])[key] = value
    try:
        plan = validate_config(cfg)
    except ConfigError as exc:
        # a refusal names the key that caused it
        assert key in str(exc), f"{section}.{key}={value!r}: {exc}"
        return
    for number in _numbers(plan):
        # False for nan, +-inf and ints past the float64 range alike
        assert abs(number) <= sys.float_info.max, \
            f"{section}.{key}={value!r} gave {number!r}"


# a config that runs fit and fringes in a fraction of a second
LIGHT = {"modal": {"n_max": 4}, "image": {"pixels": 64},
         "drive": {"duration": 0.002}}


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(KEYS), VALUES)
def test_mutated_config_never_ends_in_a_traceback(path, value):
    section, key = path
    cfg = copy.deepcopy(LIGHT)
    # the drawn key is applied last, over the light settings
    (cfg if section is None else cfg.setdefault(section, {}))[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        for stage in ("fit", "fringes"):
            # --out wins over output.directory, so no draw writes elsewhere
            argv = ["--config", config, "--out", os.path.join(tmp, "out"),
                    stage]
            with warnings.catch_warnings():
                # a short run may strobe before it settles, and says so
                warnings.simplefilter("ignore", RuntimeWarning)
                rc = main(argv)
            assert rc in (0, 2, 3), f"{section}.{key}={value!r}: exit {rc}"


def _default(section, key):
    return (DEFAULT_CONFIG if section is None else DEFAULT_CONFIG[section])[key]


# keys that hold a number (type() leaves bools out), or a placeholder that
# stands for one
NUMERIC_KEYS = [path for path in KEYS
                if type(_default(*path)) in (int, float)
                or _default(*path) in ("auto", "resonance", "settling-target")]
# overflow in a power, a subnormal that a product rounds to zero, the
# float64 ceiling and the first integer past int64
EXTREMES = [1e160, 1.7e308, 5e-324, 2 ** 63]


# every numeric key at each extreme, on fit and fringes: exit 0, or exit 2
# or 3 with a message and no output directory
@pytest.mark.parametrize("value", EXTREMES, ids=repr)
@pytest.mark.parametrize("path", NUMERIC_KEYS,
                         ids=lambda p: ".".join(filter(None, p)))
def test_extreme_numbers_end_in_an_exit_code(path, value, tmp_path, capsys):
    section, key = path
    cfg = copy.deepcopy(LIGHT)
    (cfg if section is None else cfg.setdefault(section, {}))[key] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    for stage in ("fit", "fringes"):
        out = tmp_path / stage
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rc = main(["--config", str(config), "--out", str(out), stage])
        err = capsys.readouterr().err
        assert rc in (0, 2, 3), f"{stage}: exit {rc}"
        if rc:
            assert err.strip(), f"{stage}: exit {rc} without a message"
            assert not out.exists(), f"{stage}: exit {rc} left {sorted(os.listdir(out))}"
        if path == ("geometry", "outer_radius") and value == 1e160:
            # the matrices overflow and the calibration solve's block (n = 1
            # alone) has no inverse; a block names its lowest harmonic
            assert (rc, err) == (3, "error: eigensolver failed to converge "
                                    "(harmonic n=1, radial_nodes=32)\n"), stage
