"""Embedded reference dataset and the reproduction report.

The dataset tabulates the published excitation/eigenfrequency survey of
the notched plastic stator: a simulation row plus two experimentally
measured units (NPM1, NPM2), in kHz, for the first seven flexural modes
Md1..Md7.  Missing experimental entries are None (rendered "-").  The
report compares freshly computed frequencies against every row; it flags
deviations but never fails on their magnitude (reporting, not gating).
"""

from __future__ import annotations

from dataclasses import dataclass

REFERENCE_VERSION = "notched-stator-table v1"

MODE_LABELS = ("Md1", "Md2", "Md3", "Md4", "Md5", "Md6", "Md7")

SIMULATION_KHZ = (3.68, 6.10, 13.69, 22.36, 31.27, 41.15, 48.87)
NPM1_KHZ = (3.68, 6.77, 14.74, 23.57, 33.03, None, None)
NPM2_KHZ = (3.97, 6.98, 14.50, 23.08, 31.86, 42.63, None)


@dataclass(frozen=True)
class ReferenceRow:
    name: str
    values_khz: tuple


REFERENCE_ROWS = (
    ReferenceRow("ref-sim", SIMULATION_KHZ),
    ReferenceRow("NPM1", NPM1_KHZ),
    ReferenceRow("NPM2", NPM2_KHZ),
)


def deviation_percent(value_khz: float, reference_khz: float | None):
    """|value - ref| / ref in percent, None when the reference is missing."""
    if reference_khz is None:
        return None
    return abs(value_khz - reference_khz) / reference_khz * 100.0


def embedded_max_gap():
    """Largest simulation-vs-experiment deviation inside the dataset.

    Returns (percent, mode label, row name); this is a property of the
    embedded numbers themselves, independent of any fresh computation.
    """
    worst = (0.0, "", "")
    for row in REFERENCE_ROWS[1:]:
        for label, sim, exp in zip(MODE_LABELS, SIMULATION_KHZ, row.values_khz):
            dev = deviation_percent(sim, exp)
            if dev is not None and dev > worst[0]:
                worst = (dev, label, row.name)
    return worst


def _cell(value, width=9):
    if value is None:
        return "-".rjust(width)
    return f"{value:.2f}".rjust(width)


def build_report(computed_hz) -> str:
    """Comparison table of computed frequencies against all reference rows.

    ``computed_hz`` lists the lowest-family frequencies for Md1 upward;
    a None entry, or a list shorter than seven, leaves that mode blank.
    """
    computed_khz = [None if f is None else f / 1e3 for f in computed_hz]
    lines = [
        "stator eigenfrequency reproduction report",
        f"reference dataset: {REFERENCE_VERSION}",
        "frequencies in kHz, deviations relative to each reference entry",
        "",
        "mode   computed    ref-sim     dev%      NPM1      dev%      NPM2      dev%",
    ]
    for i, label in enumerate(MODE_LABELS):
        mine = computed_khz[i] if i < len(computed_khz) else None
        cells = [label.ljust(5), _cell(mine)]
        for row in REFERENCE_ROWS:
            ref = row.values_khz[i]
            cells.append(_cell(ref))
            cells.append(_cell(deviation_percent(mine, ref) if mine is not None else None))
        lines.append(" ".join(cells))
    gap, mode, unit = embedded_max_gap()
    lines.append("")
    lines.append(
        f"largest deviation inside the reference data itself: "
        f"{gap:.2f}% ({mode}, ref-sim vs {unit}); deviations are reported, "
        "never gated on")
    return "\n".join(lines) + "\n"
