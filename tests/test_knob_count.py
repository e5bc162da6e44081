import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "knob_count.py"
spec = importlib.util.spec_from_file_location("knob_count", TOOL)
knob_count = importlib.util.module_from_spec(spec)
spec.loader.exec_module(knob_count)

CONFIG = '''DEFAULT_CONFIG = {
    "plate": {"width": 1.0, "radii": [1.0, 2.0], "overrides": {}},
    "run": {"mesh": {"nodes": 8}},
    "seed": 0,
}
'''

CORE = '''from dataclasses import dataclass, field


@dataclass(frozen=True)
class Plate:
    width: float
    height: float = 1.0
    cache: dict = field(default_factory=dict, init=False)

    def area(self, scale=1.0, *, rounded=False):
        return self.width * self.height * scale

    def _private(self, x=1):
        return x

    @classmethod
    def square(cls, side=1.0):
        return cls(side, side)

    @property
    def aspect(self):
        return self.height / self.width


class PlateError(Exception):
    def __init__(self, message, code=0):
        super().__init__(message)


def stretch(plate, factor=2.0, offset=0.0):
    return plate
'''

INIT = '''from .core import Plate, PlateError, stretch

__all__ = ["Plate", "PlateError", "stretch"]
'''


def test_counts_keys_defaulted_parameters_and_init_fields(tmp_path,
                                                          monkeypatch,
                                                          capsys):
    package = tmp_path / "knobfixture"
    package.mkdir()
    (package / "__init__.py").write_text(INIT)
    (package / "config.py").write_text(CONFIG)
    (package / "core.py").write_text(CORE)
    monkeypatch.syspath_prepend(str(tmp_path))
    assert knob_count.main(["knobfixture"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["module", *knob_count.COLUMNS],
        # width, radii, the empty overrides, nodes, seed
        ["knobfixture.config", "5", "0", "0"],
        # height; scale and rounded; side; factor and offset.  The private
        # method, the property and the exception class do not count, nor
        # does the field left out of __init__
        ["knobfixture.core", "0", "6", "2"],
        ["total", "5", "6", "2"],
    ]
