"""Shared benchmark machinery: the closed loop, set-up timing, statistics,
the run record and result output.

A workload module provides:

* ``units(seed)``: an endless, seeded stream of units; a unit is a list of
  op dicts (one op for the in-process workloads, five stages for
  ``pipeline``).  The closed loop only stops between units.
* ``setup(workdir)``: the state ops need, returned as a context.
* ``execute(ctx, op, tracer)``: the measured work of one op.
* ``check(ctx, op, result)``: raises ``CheckFailed`` when an output is
  wrong.
* ``prepare_unit``/``finish_unit`` (optional): untimed work around a unit.
* ``peak_rss_kb(ctx)``.
* ``IN_PROCESS``: whether ops run in the benchmark process (so the tracer
  and a warm-up op apply there) or in child processes.
* ``TRACE_UNITS_PER_SECOND``: units a traced run executes per second of
  ``--seconds``; fixed, so equal settings trace equal work on every commit.

An op that runs in a child process times the gauge there, since each
process may run at its own speed; ``execute`` then sets ``ctx["gauge_s"]``
to the kernel time and ``ctx["untimed_s"]`` to the seconds the gauge took,
which are left out of the op's time.
"""

from __future__ import annotations

import ctypes
import dataclasses
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

from checks import CheckFailed  # noqa: F401  (re-exported for workloads)
from gauge import NOMINAL_S
from tracer import CLOCK

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = ROOT / ".bench_results"
WORK_DIR = ROOT / ".bench_work"

# No tuning run uses this seed; a change that claims a gain checks the claim
# on it as well as on the seeds it was developed with.
HOLD_OUT_SEED = 7919


@dataclasses.dataclass
class Outcome:
    op_id: int
    kind: str
    seconds: float
    status: str          # "ok" | "refused" | "error"
    detail: str = ""
    gauge_s: float = 0.0     # reference kernel time right after the op


def at_reference_speed(outcomes, window=4):
    """Copies of ``outcomes`` with times scaled to the gauge's nominal speed
    (see ``gauge.py``), using the median gauge time of the ``window`` ops on
    either side.  Ops in one process share its speed, so their single
    kernel runs are smoothed over neighbours; an op in its own process is
    scaled by its own gauge alone (``window=0``)."""
    gauge = [o.gauge_s for o in outcomes]
    return [dataclasses.replace(o, seconds=o.seconds * NOMINAL_S
                                / statistics.median(gauge[max(0, i - window):
                                                          i + window + 1]))
            for i, o in enumerate(outcomes)]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def is_refusal(exc):
    """The program refuses with NumericalError (the eigen-residual gate)."""
    return any(cls.__name__ == "NumericalError" for cls in type(exc).__mro__)


def run_op(wl, ctx, op, tracer=None, gauge=None):
    """Execute and check one op; the check is not part of its time."""
    root = tracer.begin_op(op["id"], f"op.{op['kind']}") if tracer else None
    status, detail, result, failure = "ok", "", None, None
    start = CLOCK()
    try:
        result = wl.execute(ctx, op, tracer)
    except Exception as exc:           # the op's failure is the measurement
        failure = exc
        status = "refused" if is_refusal(exc) else "error"
        detail = f"{type(exc).__name__}: {exc}"
    seconds = CLOCK() - start - ctx.pop("untimed_s", 0.0)
    own_gauge = ctx.pop("gauge_s", None)
    if tracer:
        tracer.end(root, failure)
        tracer.run_probes()
    if status == "ok":
        try:
            if tracer:
                with tracer.paused():
                    wl.check(ctx, op, result)
            else:
                wl.check(ctx, op, result)
        except CheckFailed as exc:
            status, detail = "error", f"check: {exc}"
    if gauge and own_gauge is None:
        own_gauge = gauge.sample()
    return Outcome(op["id"], op["kind"], seconds, status, detail,
                   own_gauge if gauge else 0.0)


def run_unit(wl, ctx, unit, tracer=None, gauge=None):
    prepare = getattr(wl, "prepare_unit", None)
    if prepare:
        prepare(ctx, unit)
    try:
        return [run_op(wl, ctx, op, tracer, gauge) for op in unit]
    finally:
        finish = getattr(wl, "finish_unit", None)
        if finish:
            finish(ctx, unit)


def closed_loop(wl, ctx, units, seconds, gauge, probe=None, probes=0):
    """One client: start the next unit only after the previous one ended,
    until ``seconds`` of op time have passed.

    ``probe`` is called ``probes`` times between units, spread evenly over
    the loop, so its samples see the same host drift as the ops; its time
    is not loop time.  Returns (outcomes, units run, probe results).
    """
    outcomes, done, probed = [], [], []
    start, paused = CLOCK(), 0.0
    for unit in units:
        elapsed = CLOCK() - start - paused
        if done and elapsed >= seconds:
            break
        while probe and len(probed) < probes and len(probed) * seconds <= elapsed * probes:
            before = CLOCK()
            probed.append(probe())
            paused += CLOCK() - before
        outcomes += run_unit(wl, ctx, unit, gauge=gauge)
        done.append(unit)
    while probe and len(probed) < probes:
        probed.append(probe())
    return outcomes, done, probed


def setup_sample(workload):
    """(set-up seconds, gauge seconds) of one fresh interpreter.

    The interpreter runs ``setup_probe.py``, which prints ``ready`` once
    its set-up is done and then the gauge kernel time it measured itself:
    each process may run at its own speed, so the gauge is timed where the
    set-up ran.  Set-up is timed from process start to the ``ready`` line.
    """
    start = CLOCK()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
        cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        ready = CLOCK()
        out, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    fields = out.split()
    if (line.strip() != "ready" or proc.returncode != 0
            or len(fields) != 2 or fields[0] != "gauge"):
        raise RuntimeError(f"set-up probe for {workload} failed: "
                           f"{line.strip()} {out.strip()} {err.strip()}")
    return ready - start, float(fields[1])


# -- statistics ---------------------------------------------------------------

def tail(values):
    """(value, percentile, samples): the highest percentile with at least
    ten samples beyond it; the maximum when there are ten or fewer."""
    xs = sorted(values)
    n = len(xs)
    if n > 10:
        return xs[n - 11], 100.0 * (n - 10) / n, n
    return xs[-1], 100.0, n


def latency_summary(outcomes):
    """End-to-end figures shared by every workload."""
    answered = [o.seconds for o in outcomes if o.status == "ok"]
    attempted = len(outcomes)
    errors = sum(o.status == "error" for o in outcomes)
    refused = sum(o.status == "refused" for o in outcomes)
    busy = sum(o.seconds for o in outcomes)      # refused ops included
    tail_value, tail_pct, tail_n = tail(answered) if answered else (0.0, 0.0, 0)
    return {
        "attempted": attempted,
        "errors": errors,
        "refused": refused,
        "ops_per_s": len(answered) / busy if busy > 0 else 0.0,
        "op_p50_s": statistics.median(answered) if answered else 0.0,
        "op_tail_s": tail_value,
        "tail_percentile": tail_pct,
        "tail_samples": tail_n,
        "error_rate": errors / attempted if attempted else 0.0,
        "refusal_rate": refused / attempted if attempted else 0.0,
    }


# -- run record ---------------------------------------------------------------

def digest(items):
    blob = json.dumps(items, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads():
    """Thread count of each OpenBLAS bundled with numpy and scipy."""
    found = {}
    for package in ("numpy", "scipy"):
        try:
            dist = metadata.distribution(package)
        except metadata.PackageNotFoundError:
            continue
        libs = Path(dist.locate_file(f"{package}.libs"))
        for path in sorted(glob.glob(str(libs / "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    found[package] = getter()
                    break
    return found or "unknown"


def run_record(workload, seed, seconds, trace):
    def version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return "missing"
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        "git_commit": git_commit(),
        "hold_out_seed": HOLD_OUT_SEED,
    }


def write_results(name, payload):
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path
