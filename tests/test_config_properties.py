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
    except ConfigError:
        return
    # the seed is any non-negative integer, as numpy's SeedSequence takes
    plan.pop("seed")
    for number in _numbers(plan):
        # False for nan, +-inf and ints past the float64 range alike
        assert abs(number) <= sys.float_info.max, \
            f"{section}.{key}={value!r} gave {number!r}"


# a config that runs fit and fringes in a fraction of a second
LIGHT = {"modal": {"n_max": 4, "radial_nodes": 48}, "image": {"pixels": 64},
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
