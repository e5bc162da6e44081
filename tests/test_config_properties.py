"""Property: any single-key override either fails validation cleanly or
yields a plan of finite numbers.

A config value reaches validation from JSON, which admits NaN, Infinity,
integers of any length, booleans, null, strings and lists.  Whatever one
key holds, ``validate_config`` must raise ConfigError or return a plan in
which every number is finite as a float64.
"""

import dataclasses
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

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
