"""pipeline: the five CLI stages as separate processes, as users run them.

Each unit is one pipeline: ``modes respond fringes fit report``, each a
fresh interpreter running ``statorlab.cli.main`` as ``python -m
statorlab.cli`` does, with at most one child running at a time.  The child
is ``stage_runner.py``, which also times the gauge kernel in that process
after the stage; that time is left out of the stage's.  A pipeline gets a
fresh output directory and a seeded config variant, passed as a JSON
config file.  Interpreter start and
``import statorlab.cli`` dominate every stage, and every stage re-solves
the basis, so import trimming, a shared run context and ``ioutil`` show
here and almost nowhere else.  This module imports no statorlab code: the
benchmark process only starts and checks the stages.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
import sys

from checks import CheckFailed
from harness import BENCH_DIR, ROOT, child_env

STAGES = ("modes", "respond", "fringes", "fit", "report")
HARMONICS = (3, 4, 5)
VOLTAGES = (60.0, 100.0, 150.0)
NOISE_SIGMAS = (0.0, 0.05)
STROBE_OFFSETS = (30.0, 60.0)
TARGET_HZ = 3680.0
RIM_AMPLITUDE_NM = 100.0
N_MAX = 7
PIXELS = 256
IN_PROCESS = False
TRACE_UNITS_PER_SECOND = 1.0 / 15.0


def units(seed):
    rng = random.Random(seed)
    pipeline = 0
    while True:
        variant = {
            "drive": {"electrode_harmonic": rng.choice(HARMONICS),
                      "peak_to_peak_voltage": rng.choice(VOLTAGES)},
            "optics": {"noise_sigma": rng.choice(NOISE_SIGMAS)},
            "analysis": {"strobe_offset_deg": rng.choice(STROBE_OFFSETS)},
            "seed": rng.randrange(2 ** 31),
        }
        yield [{"id": pipeline * len(STAGES) + k, "kind": stage,
                "pipeline": pipeline, "config": variant}
               for k, stage in enumerate(STAGES)]
        pipeline += 1


def setup(workdir):
    return {"workdir": workdir, "env": child_env(), "max_rss_kb": 0}


def _unit_dir(ctx, op):
    return os.path.join(ctx["workdir"], f"pipeline{op['pipeline']}")


def prepare_unit(ctx, unit):
    unit_dir = _unit_dir(ctx, unit[0])
    os.makedirs(os.path.join(unit_dir, "out"))
    with open(os.path.join(unit_dir, "config.json"), "w") as fh:
        json.dump(unit[0]["config"], fh)


def finish_unit(ctx, unit):
    shutil.rmtree(_unit_dir(ctx, unit[0]), ignore_errors=True)


def execute(ctx, op, tracer):
    """Run one stage to completion through ``stage_runner.py``, which runs
    ``statorlab.cli.main`` in a fresh interpreter, then the gauge kernel
    (untraced) or with tracing on (traced)."""
    unit_dir = _unit_dir(ctx, op)
    args = ["--config", os.path.join(unit_dir, "config.json"),
            "--out", os.path.join(unit_dir, "out"), op["kind"]]
    spans_path = os.path.join(unit_dir, f"{op['kind']}.spans.json")
    gauge_path = os.path.join(unit_dir, f"{op['kind']}.gauge")
    mode, path = ("trace", spans_path) if tracer else ("gauge", gauge_path)
    cmd = [sys.executable, str(BENCH_DIR / "stage_runner.py"), mode, path] + args
    with open(os.path.join(unit_dir, f"{op['kind']}.err"), "w+") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                env=ctx["env"], cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        ctx["max_rss_kb"] = max(ctx["max_rss_kb"], usage.ru_maxrss)
        if tracer and os.path.isfile(spans_path):
            with open(spans_path) as fh:
                tracer.adopt(json.load(fh))
        if not tracer and os.path.isfile(gauge_path):
            with open(gauge_path) as fh:
                ctx["gauge_s"], ctx["untimed_s"] = map(float, fh.read().split())
        if proc.returncode != 0:
            err.seek(0)
            raise RuntimeError(f"stage {op['kind']} exited {proc.returncode}: "
                               f"{err.read().strip()[-300:]}")
    return os.path.join(unit_dir, "out")


def _read(out, name):
    path = os.path.join(out, name)
    if not os.path.isfile(path):
        raise CheckFailed(f"{name} missing")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _require_pgm(out, name):
    path = os.path.join(out, name)
    header = f"P5\n{PIXELS} {PIXELS}\n255\n".encode()
    if not os.path.isfile(path) or os.path.getsize(path) != len(header) + PIXELS ** 2:
        raise CheckFailed(f"{name} missing or not a {PIXELS}x{PIXELS} PGM")
    with open(path, "rb") as fh:
        if fh.read(len(header)) != header:
            raise CheckFailed(f"{name} has a wrong PGM header")


def check(ctx, op, out):
    drive = op["config"]["drive"]
    n = drive["electrode_harmonic"]
    stage = op["kind"]
    if stage == "modes":
        rows = _read(out, "modes.csv").splitlines()[1:]
        if len(rows) != 2 * N_MAX:
            raise CheckFailed(f"modes.csv lists {len(rows)} modes")
        f1 = float(rows[0].split(",")[3])
        if abs(f1 / TARGET_HZ - 1.0) > 1e-4:
            raise CheckFailed(f"modes.csv f(n=1) = {f1} Hz")
        if _read(out, "radial_profiles.txt").count("\nmode n=") != 2 * N_MAX:
            raise CheckFailed("radial_profiles.txt does not list every mode")
    elif stage == "respond":
        if len(_read(out, "probes.csv").splitlines()) < 2:
            raise CheckFailed("probes.csv holds no samples")
        text = _read(out, "settling.txt")
        if f"harmonic n={n}," not in text:
            raise CheckFailed("settling.txt does not report the driven harmonic")
        rim = re.findall(r"r=15\.00 mm.*steady ([0-9.]+) nm", text)
        if not rim or abs(float(rim[0]) / RIM_AMPLITUDE_NM - 1.0) > 0.01:
            raise CheckFailed(f"rim steady amplitude {rim} nm, expected "
                              f"{RIM_AMPLITUDE_NM}")
    elif stage == "fringes":
        for harmonic in range(1, N_MAX + 1):
            _require_pgm(out, f"timeavg_md{harmonic}.pgm")
        offset = op["config"]["analysis"]["strobe_offset_deg"]
        stem = f"strobe_md{n}_0d_{offset:g}d"
        _require_pgm(out, stem + ".pgm")
        if not os.path.isfile(os.path.join(out, stem + ".f32")):
            raise CheckFailed(f"{stem}.f32 missing")
    elif stage == "fit":
        _read(out, "fit.csv")
        text = _read(out, "fit_summary.txt")
        if f"detected harmonic: n={n}\n" not in text:
            raise CheckFailed(f"fit_summary.txt does not detect n={n}")
        if "classification: traveling\n" not in text:
            raise CheckFailed("fit_summary.txt does not classify a traveling wave")
    elif stage == "report":
        md1 = re.search(r"^Md1\s+(\S+)", _read(out, "report.txt"), re.M)
        if not md1 or md1.group(1) != "3.68":
            raise CheckFailed("report.txt does not list Md1 at 3.68 kHz")


def peak_rss_kb(ctx):
    return ctx["max_rss_kb"]
